"""End-to-end wiring: matrix -> selection -> distance -> dendrogram -> cut.

``analyse`` is the one path from a built matrix, which carries its documents'
sample sizes, to its clusters; the sweep reuses its last stages, ``cluster_selected``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cluster import ClusterAssignment, Dendrogram, cut, ward_cluster
from .corpus import Corpus
from .errors import AnalysisError
from .features import FeatureMatrix, FeatureSpec, build_matrix
from .metrics import DistanceMatrix, Measure, compute_distance
from .selection import SelectionReport, select_reliable, top_columns

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


def shortest_document_length(matrix: FeatureMatrix) -> int:
    """The n that reliable selection compares each feature's required sample size with."""
    return int(matrix.sizes.min())


def apply_selection(
    matrix: FeatureMatrix,
    mode: str | tuple[str, float],
    min_doc_len: int,
) -> tuple[FeatureMatrix, SelectionReport | None]:
    """Reduce the matrix by reliability ("reliable") or by ("top", fraction).

    The frequency-rank path keeps ``top_columns``' usable columns, and fails
    where it finds fewer than 2.
    """
    if mode == RELIABLE:
        report = select_reliable(matrix, min_doc_len)
        return matrix.subset(report.retained), report
    if isinstance(mode, tuple) and len(mode) == 2 and mode[0] == "top":
        usable = top_columns(matrix, mode[1])[1]
        if usable is None:
            raise AnalysisError(
                f"frequency cutoff {mode[1]} leaves fewer than 2 usable features"
            )
        return matrix.subset(usable), None
    raise ValueError(f"unknown selection mode: {mode!r}")


def cluster_selected(
    matrix: FeatureMatrix, selected: FeatureMatrix, report: SelectionReport | None,
    distance: Measure | str, k: int,
) -> PipelineResult:
    """Distances between the selected matrix's documents, Ward over them and the cut at k."""
    dist = compute_distance(selected, distance)
    dend = ward_cluster(dist)
    return PipelineResult(matrix, selected, report, dist, dend, cut(dend, k), k)


def analyse(matrix: FeatureMatrix, selection_mode: str | tuple[str, float],
            distance: Measure | str, k: int) -> PipelineResult:
    """Selection, then distances, Ward and the cut at k, on a matrix from build_matrix."""
    selected, report = apply_selection(matrix, selection_mode, shortest_document_length(matrix))
    return cluster_selected(matrix, selected, report, distance, k)


def run_pipeline(
    corpus: Corpus,
    spec: FeatureSpec,
    selection_mode: str | tuple[str, float],
    distance: Measure | str,
    k: int,
) -> PipelineResult:
    return analyse(build_matrix(corpus, spec), selection_mode, distance, k)
