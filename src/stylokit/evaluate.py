"""Clustering evaluation: purity, per-feature correlation ratios, sweeps.

Purity credits each cluster with its majority ground-truth class. The
correlation ratio eta^2 = SS_between / SS_total measures how much of a
feature's variance the clustering explains, with a one-way ANOVA F test
supplying the p-value through a hand-rolled regularized incomplete beta
(continued fraction, relative error around 1e-10 down to p = 1e-300).

``eta_table``, the one eta entry point, sums one block of features at a
time (``by_feature``), one cluster at a time; a feature whose values are
all equal scores (0, 1). The sweep selects and clusters through
``pipeline`` alone: ``top_columns``, then ``cluster_selected``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .cluster import ClusterAssignment
from .errors import AnalysisError
from .features import FLOAT_FORMAT, FeatureMatrix, degenerate, write_table
from .pipeline import PipelineResult, cluster_selected, top_columns

P_VALUE_FLOOR = 1e-300


@dataclass(frozen=True)
class EvaluationReport:
    purity: float


@dataclass(frozen=True)
class SweepRow:
    cutoff: float
    n_features: int
    purity_authors: float | None
    purity_reference: float | None


def cluster_purity(assignment: ClusterAssignment, truth: Mapping[str, str]) -> EvaluationReport:
    """Fraction of documents falling in their cluster's majority class."""
    mismatch = set(assignment) ^ set(truth)
    if mismatch:
        raise AnalysisError(
            f"assignment and truth cover different documents: {sorted(mismatch)}"
        )
    if not assignment:
        raise AnalysisError("cannot score an empty assignment")
    classes: dict[int, Counter] = {}
    for doc, label in assignment.items():
        classes.setdefault(label, Counter())[truth[doc]] += 1
    correct = sum(max(counts.values()) for counts in classes.values())
    return EvaluationReport(purity=correct / len(assignment))


def _off_zero(v: float) -> float:
    """Lentz's guard: a term within 1e-300 of zero is replaced by 1e-300."""
    return 1e-300 if abs(v) < 1e-300 else v


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz scheme.

    Each iteration takes the even and the odd coefficient in turn through
    the same half-step.
    """
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = h = 1.0 / _off_zero(1.0 - qab * x / qap)
    for m in range(1, 301):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            d = 1.0 / _off_zero(1.0 + aa * d)
            c = _off_zero(1.0 + aa / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise AnalysisError("incomplete beta continued fraction failed to converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # Use the continued fraction on the side where it converges fast.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def f_pvalue(f_stat: float, df1: int, df2: int) -> float:
    """Upper-tail probability of the F(df1, df2) distribution."""
    if df1 < 1 or df2 < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if f_stat < 0:
        raise ValueError("F statistic must be non-negative")
    if math.isinf(f_stat):
        return 0.0
    x = df2 / (df2 + df1 * f_stat)
    return regularized_incomplete_beta(df2 / 2.0, df1 / 2.0, x)


def _eta_rows(columns: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F x 2 (eta^2, p) of the rows of features x docs against the docs' labels, and
    which rows are degenerate.

    Each group's columns are copied C-contiguous, so every row reduces exactly
    as a single feature's values would, whichever block of features it is in.
    The groups are the distinct labels in sorted order, found as a Python set:
    a plain ``np.unique`` imports ``numpy.ma`` on numpy >= 2.3.
    """
    groups = sorted(set(labels.tolist()))
    k, n = len(groups), columns.shape[1]
    if k < 2:
        raise AnalysisError("correlation ratio needs at least 2 groups")
    if n <= k:
        raise AnalysisError("correlation ratio needs more observations than groups")
    grand = columns.mean(axis=1)
    ss_total = ((columns - grand[:, None]) ** 2).sum(axis=1)
    ss_between = ss_within = 0.0
    for g in groups:
        block = np.ascontiguousarray(columns[:, labels == g])
        mean = block.mean(axis=1)
        ss_between = ss_between + block.shape[1] * (mean - grand) ** 2
        ss_within = ss_within + ((block - mean[:, None]) ** 2).sum(axis=1)
    flat = degenerate(columns)
    with np.errstate(divide="ignore", invalid="ignore"):
        eta2 = np.where(flat, 0.0, ss_between / ss_total)
        f_stat = (ss_between / (k - 1)) / (ss_within / (n - k))
    # A constant feature gives (0, 1); groups internally constant but distinct give p = 0.
    p = [
        1.0 if f else 0.0 if w == 0.0 else f_pvalue(stat, k - 1, n - k)
        for f, w, stat in zip(flat.tolist(), ss_within.tolist(), f_stat.tolist())
    ]
    return np.column_stack([eta2, p]), flat


def eta_table(
    matrix: FeatureMatrix, assignment: ClusterAssignment
) -> tuple[tuple[str, ...], np.ndarray]:
    """Feature names best first, by (-eta^2, name), and their F x 2 (eta^2, p) rows."""
    missing = set(matrix.doc_ids) ^ set(assignment)
    if missing:
        raise AnalysisError(f"assignment does not cover the matrix documents: {sorted(missing)}")
    labels = np.array([assignment[doc] for doc in matrix.doc_ids])
    values = np.concatenate([_eta_rows(block, labels)[0] for block in matrix.by_feature()])
    names, eta2 = matrix.feature_names, values[:, 0].tolist()
    order = sorted(range(len(names)), key=lambda j: (-eta2[j], names[j]))
    return tuple(names[j] for j in order), values[order]


def format_p_value(p: float) -> str:
    """Console rendering; CSV stores underflowed values as 0."""
    if 0.0 < p < P_VALUE_FLOOR:
        return "< 1e-300"
    return FLOAT_FORMAT % p


def write_eta_csv(table: tuple[Sequence[str], np.ndarray], path: str | Path) -> None:
    """``eta_table``'s names and rows, one line each; a p below P_VALUE_FLOOR is stored as 0."""
    names, values = table
    values = values.copy()
    values[values[:, 1] < P_VALUE_FLOOR, 1] = 0.0
    write_table(path, ("feature", "eta_squared", "p_value"), names, values)


def robustness_sweep(
    reference: PipelineResult,
    truth: Mapping[str, str],
    cutoffs: Sequence[float],
) -> list[SweepRow]:
    """Re-cluster the reference run's matrix at frequency-rank cutoffs.

    Every row reuses the reference's feature matrix, distance measure
    and k, so only the selection differs: the cutoff's usable columns, as
    ``--select top:`` keeps them. Each row carries purity against the
    alleged authors (P-A) and against the reference clustering (P-R). A
    cutoff leaving fewer than 2 usable features is not fatal: its row has
    no purities (None).
    """
    if not cutoffs:
        raise AnalysisError("sweep needs at least one cutoff")
    matrix = reference.matrix
    reference_labels = {doc: str(label) for doc, label in reference.assignment.items()}
    rows: list[SweepRow] = []
    for cutoff in cutoffs:
        n_kept, usable = top_columns(matrix, cutoff)
        if usable is None:
            rows.append(SweepRow(cutoff, n_kept, None, None))
            continue
        assignment = cluster_selected(
            matrix, matrix.subset(usable), None, reference.distance.measure, reference.k
        ).assignment
        purity_authors = cluster_purity(assignment, truth).purity
        purity_reference = cluster_purity(assignment, reference_labels).purity
        rows.append(SweepRow(cutoff, n_kept, purity_authors, purity_reference))
    return rows


def write_sweep_csv(
    rows: Sequence[SweepRow], path: str | Path, reference_features: int, reference_purity: float
) -> None:
    """Sweep table, closed by the reference-selection ("RS") row: its feature count and purity."""

    def fmt(p: float | None) -> str:
        return "" if p is None else FLOAT_FORMAT % p

    table = [(FLOAT_FORMAT % row.cutoff, str(row.n_features), fmt(row.purity_authors),
              fmt(row.purity_reference)) for row in rows]
    table.append(("RS", str(reference_features), fmt(reference_purity), ""))
    cutoffs, *tails = zip(*table)
    header = ("cutoff", "n_features", "purity_authors", "purity_reference")
    write_table(path, header, cutoffs, tails=tails)
