"""End-to-end wiring: matrix -> selection -> distance -> dendrogram -> cut."""

from __future__ import annotations

from dataclasses import dataclass

from .cluster import ClusterAssignment, Dendrogram, cut, ward_cluster
from .corpus import Corpus
from .errors import AnalysisError
from .features import FeatureMatrix, FeatureSpec, build_matrix, degenerate
from .metrics import DistanceMatrix, Measure, compute_distance
from .selection import SelectionReport, select_reliable, select_top_frequency

RELIABLE = "reliable"


@dataclass(frozen=True)
class PipelineResult:
    matrix: FeatureMatrix
    selected: FeatureMatrix
    selection_report: SelectionReport | None
    distance: DistanceMatrix
    dendrogram: Dendrogram
    assignment: ClusterAssignment
    k: int


def shortest_document_length(corpus: Corpus) -> int:
    return min(doc.token_count for doc in corpus)


def apply_selection(
    matrix: FeatureMatrix,
    mode: str | tuple[str, float],
    min_doc_len: int,
) -> tuple[FeatureMatrix, SelectionReport | None]:
    """Reduce the matrix by reliability ("reliable") or by ("top", fraction).

    The frequency-rank path additionally drops degenerate (constant)
    columns, which the reliability path excludes by construction.
    """
    if mode == RELIABLE:
        report = select_reliable(matrix, min_doc_len)
        return matrix.subset(report.retained), report
    if isinstance(mode, tuple) and len(mode) == 2 and mode[0] == "top":
        columns = select_top_frequency(matrix, mode[1])
        usable = columns[~degenerate(matrix.values.T)[columns]]
        if len(usable) < 2:
            raise AnalysisError(
                f"frequency cutoff {mode[1]} leaves fewer than 2 usable features"
            )
        return matrix.subset(usable), None
    raise ValueError(f"unknown selection mode: {mode!r}")


def run_pipeline(
    corpus: Corpus,
    spec: FeatureSpec,
    selection_mode: str | tuple[str, float],
    distance: Measure | str,
    k: int,
) -> PipelineResult:
    matrix = build_matrix(corpus, spec)
    selected, report = apply_selection(matrix, selection_mode, shortest_document_length(corpus))
    dist = compute_distance(selected, distance)
    dend = ward_cluster(dist)
    assignment = cut(dend, k)
    return PipelineResult(
        matrix=matrix,
        selected=selected,
        selection_report=report,
        distance=dist,
        dendrogram=dend,
        assignment=assignment,
        k=k,
    )
