"""Feature selection: reliability-driven and frequency-rank cutoffs.

The reliability criterion asks, per feature, how large a sample would be
needed to estimate its probability within a margin of two standard
deviations at z = 1.645, and keeps the feature when the shortest document
in the corpus is already that large. The probability estimate is
debiased by averaging each observation with its mirror around the
observed range, which collapses to the midrange (max + min) / 2.

Features are scored a block at a time, each along its own row. A feature
whose values are all equal is degenerate: sigma 0, required n 0, never kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AnalysisError
from .features import FeatureMatrix, degenerate, write_table

CONFIDENCE_Z = 1.645
MARGIN_MULTIPLIER = 2.0


@dataclass(frozen=True)
class SelectionReport:
    """Every feature's reliability scores, in the matrix's column order.

    ``per_feature`` is F x 3 floats (p_bar, sigma, required_n) and
    ``degenerate`` F bools; ``retained`` holds the kept columns' indices in
    increasing order, as ``select_top_frequency`` returns them.
    """

    feature_names: tuple[str, ...]
    per_feature: np.ndarray
    degenerate: np.ndarray
    retained: np.ndarray


def corrected_mean(values) -> np.ndarray:
    """Mean of the values each averaged with its mirror (max + min) - v, along the last axis.

    Every mirrored entry (v + ((max + min) - v)) / 2 equals the midrange,
    so the midrange (max + min) / 2 is returned directly, avoiding the
    rounding noise of the elementwise form.
    """
    arr = np.asarray(values, dtype=float)
    if arr.shape[-1] == 0:
        raise ValueError("mirror correction needs at least one value")
    return (arr.max(axis=-1) + arr.min(axis=-1)) / 2.0


def required_sample_size(p_bar, sigma) -> np.ndarray:
    """Minimum sample size for a proportion at margin of error 2 * sigma, element-wise.

    A zero sigma marks a constant feature: the formula degenerates to 0
    and the caller flags the feature instead.
    """
    p_bar, sigma = np.asarray(p_bar, dtype=float), np.asarray(sigma, dtype=float)
    ratio = CONFIDENCE_Z / (MARGIN_MULTIPLIER * np.where(sigma == 0.0, 1.0, sigma))
    return np.where(sigma == 0.0, 0.0, p_bar * (1.0 - p_bar) * ratio * ratio)[()]


def select_reliable(matrix: FeatureMatrix, min_doc_len: int) -> SelectionReport:
    """Keep features whose required sample size fits the shortest document.

    Degenerate (constant) features are dropped: they carry no clustering
    signal and break the z-score transform downstream.
    """
    if min_doc_len < 1:
        raise ValueError("min_doc_len must be >= 1")
    if matrix.n_docs < 2:
        raise AnalysisError("reliability selection needs at least 2 documents")
    scores = [(degenerate(b), b.std(axis=1, ddof=1), corrected_mean(b)) for b in matrix.by_feature()]
    flat, sd, p_bar = map(np.concatenate, zip(*scores))
    sigma = np.where(flat, 0.0, sd)
    required_n = required_sample_size(p_bar, sigma)
    retained = np.flatnonzero(~flat & (required_n <= min_doc_len))
    if not len(retained):
        raise AnalysisError("selection eliminated all features")
    per_feature = np.column_stack((p_bar, sigma, required_n))
    return SelectionReport(matrix.feature_names, per_feature, flat, retained)


def select_top_frequency(matrix: FeatureMatrix, fraction: float) -> np.ndarray:
    """Column indices of the ceil(fraction * n) features with highest total corpus frequency.

    The product is rounded to 9 decimals first, so a fraction given as a
    decimal counts as that decimal: 0.07 of 100 features is 7, although
    the float product is 7.000000000000001; a fraction too small to reach
    1 after rounding still keeps one. Ties break lexicographically by
    name; the indices are returned in increasing order, so the kept
    columns keep the matrix's column order.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    n_keep = max(1, math.ceil(round(fraction * matrix.n_features, 9)))
    totals = matrix.values.sum(axis=0)
    ranked = sorted(
        range(matrix.n_features), key=lambda j: (-totals[j], matrix.feature_names[j])
    )
    return np.array(sorted(ranked[:n_keep]), dtype=np.intp)


def top_columns(matrix: FeatureMatrix, fraction: float) -> tuple[int, np.ndarray | None]:
    """The top-frequency cutoff: how many columns it keeps, and which of them are usable,
    that is not degenerate; None where fewer than 2 are."""
    columns = select_top_frequency(matrix, fraction)
    usable = columns[~degenerate(matrix.values.T)[columns]]
    return len(columns), usable if len(usable) >= 2 else None


def write_selection_csv(report: SelectionReport, path: str | Path) -> None:
    """One row per feature: its three scores, then whether it is retained and whether degenerate."""
    words = ("false", "true")
    kept = np.isin(np.arange(len(report.feature_names)), report.retained)
    flags = [[words[flag] for flag in column.tolist()] for column in (kept, report.degenerate)]
    header = ("feature", "p_bar", "sigma", "required_n", "retained", "degenerate")
    write_table(path, header, report.feature_names, report.per_feature, flags)
