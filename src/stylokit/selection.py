"""Feature selection: reliability-driven and frequency-rank cutoffs.

The reliability criterion asks, per feature, how large a sample would be
needed to estimate its probability within a margin of two standard
deviations at the configured confidence, and keeps the feature when the
shortest document in the corpus is already that large. The probability
estimate is debiased by averaging each observation with its mirror
around the observed range, which collapses to the midrange
(max + min) / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import AnalysisError
from .features import FeatureMatrix, format_value, write_csv


@dataclass(frozen=True)
class SelectionParams:
    confidence_z: float = 1.645
    margin_multiplier: float = 2.0
    min_doc_len: int = 1

    def __post_init__(self) -> None:
        if self.confidence_z <= 0:
            raise ValueError("confidence_z must be > 0")
        if self.margin_multiplier <= 0:
            raise ValueError("margin_multiplier must be > 0")
        if self.min_doc_len < 1:
            raise ValueError("min_doc_len must be >= 1")


@dataclass(frozen=True)
class FeatureDiagnostic:
    name: str
    p_bar: float
    sigma: float
    required_n: float
    retained: bool
    degenerate: bool


@dataclass(frozen=True)
class SelectionReport:
    retained: tuple[str, ...]
    per_feature: tuple[FeatureDiagnostic, ...]


def corrected_mean(values: Sequence[float] | np.ndarray) -> float:
    """Mean of the values each averaged with its mirror (max + min) - v.

    Every mirrored entry (v + ((max + min) - v)) / 2 equals the midrange,
    so the midrange (max + min) / 2 is returned directly, avoiding the
    rounding noise of the elementwise form.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("mirror correction needs at least one value")
    return float((arr.max() + arr.min()) / 2.0)


def required_sample_size(p_bar: float, sigma: float, params: SelectionParams) -> float:
    """Minimum sample size for a proportion at margin of error mult * sigma.

    A zero sigma marks a constant feature: the formula degenerates and the
    caller flags the feature instead.
    """
    if sigma == 0.0:
        return 0.0
    ratio = params.confidence_z / (params.margin_multiplier * sigma)
    return p_bar * (1.0 - p_bar) * ratio * ratio


def select_reliable(matrix: FeatureMatrix, params: SelectionParams) -> SelectionReport:
    """Keep features whose required sample size fits the shortest document.

    Constant features (sigma = 0) are dropped as degenerate: they carry no
    clustering signal and break the z-score transform downstream.
    """
    rows: list[FeatureDiagnostic] = []
    retained: list[str] = []
    for j, name in enumerate(matrix.feature_names):
        col = matrix.values[:, j]
        p_bar = corrected_mean(col)
        sigma = float(col.std(ddof=1)) if col.size > 1 else 0.0
        degenerate = sigma == 0.0
        required_n = required_sample_size(p_bar, sigma, params)
        keep = not degenerate and required_n <= params.min_doc_len
        rows.append(
            FeatureDiagnostic(
                name=name,
                p_bar=p_bar,
                sigma=sigma,
                required_n=required_n,
                retained=keep,
                degenerate=degenerate,
            )
        )
        if keep:
            retained.append(name)
    if not retained:
        raise AnalysisError("selection eliminated all features")
    return SelectionReport(retained=tuple(retained), per_feature=tuple(rows))


def select_top_frequency(matrix: FeatureMatrix, fraction: float) -> tuple[str, ...]:
    """The ceil(fraction * n) features with highest total corpus frequency.

    Ties break lexicographically; the returned names keep the matrix's
    column order so downstream output stays deterministic.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    n_keep = math.ceil(fraction * matrix.n_features)
    totals = matrix.values.sum(axis=0)
    ranked = sorted(
        range(matrix.n_features), key=lambda j: (-totals[j], matrix.feature_names[j])
    )
    chosen = {matrix.feature_names[j] for j in ranked[:n_keep]}
    return tuple(name for name in matrix.feature_names if name in chosen)


def nonconstant_features(matrix: FeatureMatrix, names: tuple[str, ...]) -> tuple[str, ...]:
    """The given features minus zero-variance columns, which no transform can scale."""
    sub = matrix.subset(names)
    sd = sub.values.std(axis=0, ddof=1)
    return tuple(n for n, s in zip(sub.feature_names, sd) if s > 0.0)


def write_selection_csv(report: SelectionReport, path: str | Path) -> None:
    table = [
        [
            row.name,
            *map(format_value, (row.p_bar, row.sigma, row.required_n)),
            str(row.retained).lower(),
            str(row.degenerate).lower(),
        ]
        for row in report.per_feature
    ]
    write_csv(path, ["feature", "p_bar", "sigma", "required_n", "retained", "degenerate"], table)
