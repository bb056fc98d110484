"""Matrix transforms and document dissimilarities.

The delta pipeline standardizes every feature column (sample standard
deviation, n-1), length-normalizes each document vector, and takes
pairwise Manhattan distances. The min/max pipeline divides each column
by its standard deviation without centering -- keeping the matrix
non-negative -- and scores a pair as one minus the ratio of
componentwise minima to componentwise maxima.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import AnalysisError
from .features import FeatureMatrix, Scale, format_value, write_csv


class Measure(str, Enum):
    BURROWS_DELTA = "delta"
    MINMAX = "minmax"
    MANHATTAN = "manhattan"
    EUCLIDEAN = "euclidean"


@dataclass(frozen=True)
class DistanceMatrix:
    doc_ids: tuple[str, ...]
    values: np.ndarray
    measure: Measure

    def __post_init__(self) -> None:
        n = len(self.doc_ids)
        if self.values.shape != (n, n):
            raise ValueError("distance matrix shape does not match doc ids")

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)


def _column_sd(values: np.ndarray, names: tuple[str, ...]) -> np.ndarray:
    if values.shape[0] < 2:
        raise AnalysisError("column standardization needs at least 2 documents")
    sd = values.std(axis=0, ddof=1)
    dead = np.flatnonzero(sd == 0.0)
    if dead.size:
        raise AnalysisError(
            f"feature has zero variance (selection should have removed it): "
            f"{names[dead[0]]}"
        )
    return sd


def zscore_transform(matrix: FeatureMatrix) -> FeatureMatrix:
    if matrix.scale is not Scale.RELATIVE_FREQUENCY:
        raise AnalysisError("z-scoring expects relative frequencies")
    sd = _column_sd(matrix.values, matrix.feature_names)
    z = (matrix.values - matrix.values.mean(axis=0)) / sd
    return matrix.with_values(z, Scale.ZSCORE)


def l2_normalize_rows(matrix: FeatureMatrix) -> FeatureMatrix:
    norms = np.linalg.norm(matrix.values, axis=1)
    dead = np.flatnonzero(norms == 0.0)
    if dead.size:
        raise AnalysisError(
            f"document has no signal under selected features: {matrix.doc_ids[dead[0]]}"
        )
    return matrix.with_values(matrix.values / norms[:, None], Scale.L2_NORMALIZED_ZSCORE)


def tfsd_transform(matrix: FeatureMatrix) -> FeatureMatrix:
    if matrix.scale is not Scale.RELATIVE_FREQUENCY:
        raise AnalysisError("tfsd expects relative frequencies")
    sd = _column_sd(matrix.values, matrix.feature_names)
    return matrix.with_values(matrix.values / sd, Scale.TFSD)


def _pairwise(values: np.ndarray, row_fn) -> np.ndarray:
    """Symmetric matrix from row_fn(a, rest): one row against all later rows."""
    n = values.shape[0]
    out = np.zeros((n, n), dtype=float)
    for i in range(n - 1):
        out[i, i + 1:] = out[i + 1:, i] = row_fn(values[i], values[i + 1:])
    return out


def _manhattan_row(a: np.ndarray, rest: np.ndarray) -> np.ndarray:
    return np.abs(rest - a).sum(axis=1)


def burrows_delta(matrix: FeatureMatrix) -> DistanceMatrix:
    """Full delta pipeline: z-score, row length-normalization, Manhattan."""
    if matrix.n_docs < 2:
        raise AnalysisError("delta needs at least 2 documents")
    normalized = l2_normalize_rows(zscore_transform(matrix))
    values = _pairwise(normalized.values, _manhattan_row)
    return DistanceMatrix(matrix.doc_ids, values, Measure.BURROWS_DELTA)


def _minmax_row(a: np.ndarray, rest: np.ndarray) -> np.ndarray:
    denom = np.maximum(rest, a).sum(axis=1)
    if np.any(denom == 0.0):
        raise AnalysisError("min/max distance undefined for two all-zero documents")
    return 1.0 - np.minimum(rest, a).sum(axis=1) / denom


def minmax_distance(matrix: FeatureMatrix) -> DistanceMatrix:
    """Pairwise 1 - sum(min)/sum(max) on a non-negative tfsd matrix."""
    if matrix.scale is not Scale.TFSD:
        raise AnalysisError("min/max distance expects tfsd-scaled values")
    if np.any(matrix.values < 0):
        raise AnalysisError("min/max distance requires non-negative values")
    return DistanceMatrix(matrix.doc_ids, _pairwise(matrix.values, _minmax_row), Measure.MINMAX)


def minmax_pipeline(matrix: FeatureMatrix) -> DistanceMatrix:
    if matrix.n_docs < 2:
        raise AnalysisError("min/max needs at least 2 documents")
    return minmax_distance(tfsd_transform(matrix))


def manhattan_distance(matrix: FeatureMatrix) -> DistanceMatrix:
    values = _pairwise(matrix.values, _manhattan_row)
    return DistanceMatrix(matrix.doc_ids, values, Measure.MANHATTAN)


def _euclidean_row(a: np.ndarray, rest: np.ndarray) -> np.ndarray:
    # A stack of vector dot products: the same summation as the norm of one
    # vector, where norm(..., axis=1) would sum in another order.
    diff = (rest - a)[:, None, :]
    return np.sqrt(diff @ diff.transpose(0, 2, 1)).ravel()


def euclidean_distance(matrix: FeatureMatrix) -> DistanceMatrix:
    """Plain Euclidean baseline; kept for comparison, not attribution."""
    values = _pairwise(matrix.values, _euclidean_row)
    return DistanceMatrix(matrix.doc_ids, values, Measure.EUCLIDEAN)


def compute_distance(matrix: FeatureMatrix, measure: Measure | str) -> DistanceMatrix:
    measure = Measure(measure)
    if measure is Measure.BURROWS_DELTA:
        return burrows_delta(matrix)
    if measure is Measure.MINMAX:
        return minmax_pipeline(matrix)
    if measure is Measure.MANHATTAN:
        return manhattan_distance(matrix)
    return euclidean_distance(matrix)


def write_distance_csv(dist: DistanceMatrix, path: str | Path) -> None:
    rows = ([doc, *map(format_value, row)] for doc, row in zip(dist.doc_ids, dist.values))
    write_csv(path, ("doc_id", *dist.doc_ids), rows)
