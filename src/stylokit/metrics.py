"""Document dissimilarities from a relative-frequency matrix.

``compute_distance(matrix, measure)`` is the one entry point. Each
measure is a transform of the matrix, applied to one block of rows of
``features.row_blocks`` at a time, never to the whole matrix, followed
by a row function applied to every pair of documents:

- delta: z-score every feature column (sample standard deviation, n-1),
  length-normalize each document vector, take Manhattan distances;
- min/max: divide each column by its standard deviation without
  centering -- keeping the matrix non-negative -- and score a pair as
  one minus the ratio of componentwise minima to componentwise maxima.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import AnalysisError
from .features import FeatureMatrix, check_row_order, degenerate, row_blocks, write_table

__all__ = ["Measure", "DistanceMatrix", "compute_distance", "write_distance_csv"]


class Measure(str, Enum):
    BURROWS_DELTA = "delta"
    MINMAX = "minmax"


@dataclass(frozen=True)
class DistanceMatrix:
    doc_ids: tuple[str, ...]
    values: np.ndarray
    measure: Measure

    def __post_init__(self) -> None:
        n = len(self.doc_ids)
        if self.values.shape != (n, n):
            raise ValueError("distance matrix shape does not match doc ids")
        check_row_order(self.doc_ids)

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)


def _column_stats(matrix: FeatureMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Column mean and sd (n-1); a constant column raises naming its feature."""
    dead = np.flatnonzero(degenerate(matrix.values.T))
    if dead.size:
        raise AnalysisError(
            f"feature is constant (selection should have removed it): "
            f"{matrix.feature_names[dead[0]]}"
        )
    return matrix.values.mean(axis=0), matrix.values.std(axis=0, ddof=1)


def _zscore_rows(matrix: FeatureMatrix):
    mean, sd = _column_stats(matrix)

    def rows(lo: int, hi: int) -> np.ndarray:
        z = matrix.values[lo:hi] - mean
        return np.divide(z, sd, out=z)

    return rows


def _unit_rows(rows, matrix: FeatureMatrix):
    """rows(lo, hi), a fresh array each call, with each row divided in place by its Euclidean
    norm; the norms are taken once, block by block, and the first document with none raises."""
    # np.linalg.norm(rows, axis=1) bit for bit, but one row squared at a time.
    blocks = row_blocks(matrix.n_docs, matrix.n_features)
    norms = np.concatenate([np.sqrt([np.add.reduce(r * r) for r in rows(*bl)]) for bl in blocks])
    dead = np.flatnonzero(norms == 0.0)
    if dead.size:
        name = matrix.doc_ids[dead[0]]
        raise AnalysisError(f"document has no signal under selected features: {name}")

    def unit(lo: int, hi: int) -> np.ndarray:
        z = rows(lo, hi)
        return np.divide(z, norms[lo:hi, None], out=z)

    return unit


def _tfsd_rows(matrix: FeatureMatrix):
    if np.any(matrix.values < 0):
        raise AnalysisError("min/max distance requires non-negative values")
    sd = _column_stats(matrix)[1]
    return lambda lo, hi: matrix.values[lo:hi] / sd


def _pairwise(rows, blocks: list[tuple[int, int]], row_fn) -> np.ndarray:
    """Symmetric matrix from row_fn(a, rest): each row of a block of rows(lo, hi) against the
    block's later rows, then against each later block, transformed again for each block;
    each pair reduces along its own row, as in one call."""
    n = blocks[-1][1]
    out = np.zeros((n, n), dtype=float)
    for b, (lo, hi) in enumerate(blocks):
        mine = rows(lo, hi)
        for i in range(lo, hi - 1):
            out[i, i + 1:hi] = out[i + 1:hi, i] = row_fn(mine[i - lo], mine[i - lo + 1:])
        for lo2, hi2 in blocks[b + 1:]:
            theirs = rows(lo2, hi2)
            for i in range(lo, hi):
                out[i, lo2:hi2] = out[lo2:hi2, i] = row_fn(mine[i - lo], theirs)
    return out


def _manhattan_row(a: np.ndarray, rest: np.ndarray) -> np.ndarray:
    return np.abs(rest - a).sum(axis=1)


def _minmax_row(a: np.ndarray, rest: np.ndarray) -> np.ndarray:
    denom = np.maximum(rest, a).sum(axis=1)
    if np.any(denom == 0.0):
        raise AnalysisError("min/max distance undefined for two all-zero documents")
    return 1.0 - np.minimum(rest, a).sum(axis=1) / denom


# Per measure: the row transform of the matrix, then the row function over pairs.
_MEASURES = {
    Measure.BURROWS_DELTA: (lambda m: _unit_rows(_zscore_rows(m), m), _manhattan_row),
    Measure.MINMAX: (_tfsd_rows, _minmax_row),
}


def compute_distance(matrix: FeatureMatrix, measure: Measure | str) -> DistanceMatrix:
    """Pairwise dissimilarities between the documents of a relative-frequency matrix."""
    measure = Measure(measure)
    if matrix.n_docs < 2:
        raise AnalysisError(f"{measure.value} distance needs at least 2 documents")
    transform, row_fn = _MEASURES[measure]
    values = _pairwise(transform(matrix), row_blocks(matrix.n_docs, matrix.n_features), row_fn)
    return DistanceMatrix(matrix.doc_ids, values, measure)


def write_distance_csv(dist: DistanceMatrix, path: str | Path) -> None:
    write_table(path, ("doc_id", *dist.doc_ids), dist.doc_ids, dist.values)
