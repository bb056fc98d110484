"""Document dissimilarities from a relative-frequency matrix.

``compute_distance(matrix, measure)`` is the one entry point. Each
measure is a transform of the matrix followed by a row function applied
to every pair of documents, one document against a block of at most
``BLOCK_FLOATS`` values of later ones at a time:

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
from .features import BLOCK_FLOATS, FeatureMatrix, check_row_order, degenerate, write_table

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


def _zscore(matrix: FeatureMatrix) -> np.ndarray:
    mean, sd = _column_stats(matrix)
    z = matrix.values - mean
    return np.divide(z, sd, out=z)


def _unit_rows(values: np.ndarray, doc_ids: tuple[str, ...]) -> np.ndarray:
    """values, which the caller gives up, with each row divided by its Euclidean norm in place."""
    # np.linalg.norm(values, axis=1) bit for bit, but one row squared at a time.
    norms = np.sqrt([np.add.reduce(row * row) for row in values])
    dead = np.flatnonzero(norms == 0.0)
    if dead.size:
        raise AnalysisError(
            f"document has no signal under selected features: {doc_ids[dead[0]]}"
        )
    return np.divide(values, norms[:, None], out=values)


def _delta_vectors(matrix: FeatureMatrix) -> np.ndarray:
    return _unit_rows(_zscore(matrix), matrix.doc_ids)


def _tfsd(matrix: FeatureMatrix) -> np.ndarray:
    if np.any(matrix.values < 0):
        raise AnalysisError("min/max distance requires non-negative values")
    return matrix.values / _column_stats(matrix)[1]


def _pairwise(values: np.ndarray, row_fn) -> np.ndarray:
    """Symmetric matrix from row_fn(a, rows): one row against later rows, at most BLOCK_FLOATS
    values (or one row) of them per call; each pair reduces along its own row, as in one call."""
    n, n_features = values.shape
    step = max(1, BLOCK_FLOATS // max(1, n_features))
    out = np.zeros((n, n), dtype=float)
    for i in range(n - 1):
        for lo in range(i + 1, n, step):
            out[i, lo:lo + step] = out[lo:lo + step, i] = row_fn(values[i], values[lo:lo + step])
    return out


def _manhattan_row(a: np.ndarray, rest: np.ndarray) -> np.ndarray:
    return np.abs(rest - a).sum(axis=1)


def _minmax_row(a: np.ndarray, rest: np.ndarray) -> np.ndarray:
    denom = np.maximum(rest, a).sum(axis=1)
    if np.any(denom == 0.0):
        raise AnalysisError("min/max distance undefined for two all-zero documents")
    return 1.0 - np.minimum(rest, a).sum(axis=1) / denom


# Per measure: the transform of the matrix, then the row function over pairs.
_MEASURES = {
    Measure.BURROWS_DELTA: (_delta_vectors, _manhattan_row),
    Measure.MINMAX: (_tfsd, _minmax_row),
}


def compute_distance(matrix: FeatureMatrix, measure: Measure | str) -> DistanceMatrix:
    """Pairwise dissimilarities between the documents of a relative-frequency matrix."""
    measure = Measure(measure)
    if matrix.n_docs < 2:
        raise AnalysisError(f"{measure.value} distance needs at least 2 documents")
    transform, row_fn = _MEASURES[measure]
    return DistanceMatrix(matrix.doc_ids, _pairwise(transform(matrix), row_fn), measure)


def write_distance_csv(dist: DistanceMatrix, path: str | Path) -> None:
    write_table(path, ("doc_id", *dist.doc_ids), dist.doc_ids, dist.values)
