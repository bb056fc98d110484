"""Clustering evaluation: purity, per-feature correlation ratios, sweeps.

Purity credits each cluster with its majority ground-truth class. The
correlation ratio eta^2 = SS_between / SS_total measures how much of a
feature's variance the clustering explains, with a one-way ANOVA F test
supplying the p-value through a hand-rolled regularized incomplete beta
(continued fraction, relative error around 1e-10 down to p = 1e-300).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .cluster import ClusterAssignment, cut, ward_cluster
from .errors import AnalysisError
from .features import FeatureMatrix, format_value, write_csv
from .metrics import compute_distance
from .pipeline import PipelineResult
from .selection import nonconstant_features, select_top_frequency

P_VALUE_FLOOR = 1e-300


@dataclass(frozen=True)
class ClusterSummary:
    label: int
    majority_truth: str
    members: tuple[str, ...]


@dataclass(frozen=True)
class EvaluationReport:
    purity: float
    per_cluster: tuple[ClusterSummary, ...]
    k: int
    n_docs: int


@dataclass(frozen=True)
class EtaRow:
    feature: str
    eta_squared: float
    p_value: float
    degenerate: bool = False


@dataclass(frozen=True)
class SweepRow:
    cutoff: float
    n_features: int
    purity_authors: float | None
    purity_reference: float | None
    note: str = ""


def cluster_purity(assignment: ClusterAssignment, truth: Mapping[str, str]) -> EvaluationReport:
    """Fraction of documents falling in their cluster's majority class."""
    mismatch = set(assignment) ^ set(truth)
    if mismatch:
        raise AnalysisError(
            f"assignment and truth cover different documents: {sorted(mismatch)}"
        )
    if not assignment:
        raise AnalysisError("cannot score an empty assignment")
    clusters: dict[int, list[str]] = {}
    for doc, label in assignment.items():
        clusters.setdefault(label, []).append(doc)
    summaries = []
    correct = 0
    for label in sorted(clusters):
        docs = sorted(clusters[label])
        counts: dict[str, int] = {}
        for doc in docs:
            counts[truth[doc]] = counts.get(truth[doc], 0) + 1
        majority = min(counts, key=lambda t: (-counts[t], t))
        correct += counts[majority]
        summaries.append(
            ClusterSummary(label=label, majority_truth=majority, members=tuple(docs))
        )
    return EvaluationReport(
        purity=correct / len(assignment),
        per_cluster=tuple(summaries),
        k=len(clusters),
        n_docs=len(assignment),
    )


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz scheme."""
    max_iter = 300
    eps = 1e-15
    fpmin = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
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


def eta_squared(values: Sequence[float] | np.ndarray, labels: Sequence[int]) -> tuple[float, float, bool]:
    """Correlation ratio and ANOVA p-value of one feature against groups.

    Returns (eta^2, p, degenerate): a constant feature yields (0, 1, True);
    groups that are internally constant but distinct give eta^2 = 1, p = 0.
    """
    y = np.asarray(values, dtype=float)
    labs = np.asarray(labels)
    if y.shape != labs.shape:
        raise ValueError("values and labels must have identical length")
    groups = [y[labs == g] for g in np.unique(labs)]
    k = len(groups)
    n = y.size
    if k < 2:
        raise AnalysisError("correlation ratio needs at least 2 groups")
    if n <= k:
        raise AnalysisError("correlation ratio needs more observations than groups")
    grand = y.mean()
    ss_total = float(((y - grand) ** 2).sum())
    if ss_total == 0.0:
        return 0.0, 1.0, True
    ss_between = float(sum(g.size * (g.mean() - grand) ** 2 for g in groups))
    ss_within = float(sum(((g - g.mean()) ** 2).sum() for g in groups))
    eta2 = ss_between / ss_total
    if ss_within == 0.0:
        return eta2, 0.0, False
    f_stat = (ss_between / (k - 1)) / (ss_within / (n - k))
    return eta2, f_pvalue(f_stat, k - 1, n - k), False


def eta_table(matrix: FeatureMatrix, assignment: ClusterAssignment) -> list[EtaRow]:
    """Per-feature correlation ratios against a clustering, best first."""
    missing = set(matrix.doc_ids) ^ set(assignment)
    if missing:
        raise AnalysisError(f"assignment does not cover the matrix documents: {sorted(missing)}")
    labels = [assignment[doc] for doc in matrix.doc_ids]
    rows = []
    for j, name in enumerate(matrix.feature_names):
        eta2, p, degenerate = eta_squared(matrix.values[:, j], labels)
        rows.append(EtaRow(feature=name, eta_squared=eta2, p_value=p, degenerate=degenerate))
    rows.sort(key=lambda r: (-r.eta_squared, r.feature))
    return rows


def format_p_value(p: float) -> str:
    """Console rendering; CSV stores underflowed values as 0."""
    if 0.0 < p < P_VALUE_FLOOR:
        return "< 1e-300"
    return format_value(p)


def write_eta_csv(rows: Sequence[EtaRow], path: str | Path) -> None:
    table = []
    for row in rows:
        p = 0.0 if row.p_value < P_VALUE_FLOOR else row.p_value
        table.append([row.feature, format_value(row.eta_squared), format_value(p)])
    write_csv(path, ["feature", "eta_squared", "p_value"], table)


def robustness_sweep(
    reference: PipelineResult,
    truth: Mapping[str, str],
    cutoffs: Sequence[float],
) -> list[SweepRow]:
    """Re-cluster the reference run's matrix at frequency-rank cutoffs.

    Every row reuses the reference's feature matrix, distance measure,
    linkage variant and k, so only the selection differs. Each row carries
    purity against the alleged authors (P-A) and against the reference
    clustering (P-R). A cutoff leaving fewer than 2 usable features is
    flagged, not fatal.
    """
    if not cutoffs:
        raise AnalysisError("sweep needs at least one cutoff")
    matrix = reference.matrix
    reference_labels = {doc: str(label) for doc, label in reference.assignment.items()}
    rows: list[SweepRow] = []
    for cutoff in cutoffs:
        names = select_top_frequency(matrix, cutoff)
        usable = nonconstant_features(matrix, names)
        if len(usable) < 2:
            rows.append(
                SweepRow(
                    cutoff=cutoff,
                    n_features=len(names),
                    purity_authors=None,
                    purity_reference=None,
                    note="insufficient features",
                )
            )
            continue
        sub = matrix.subset(usable)
        dist = compute_distance(sub, reference.distance.measure)
        assignment = cut(ward_cluster(dist, reference.linkage_variant), reference.k)
        rows.append(
            SweepRow(
                cutoff=cutoff,
                n_features=len(names),
                purity_authors=cluster_purity(assignment, truth).purity,
                purity_reference=cluster_purity(assignment, reference_labels).purity,
            )
        )
    return rows


def write_sweep_csv(
    rows: Sequence[SweepRow], path: str | Path, reference_row: SweepRow | None = None
) -> None:
    """Sweep table; the reference-selection row, when given, closes the file."""

    def fmt(p: float | None) -> str:
        return "" if p is None else format_value(p)

    table = [
        [format_value(row.cutoff), row.n_features, fmt(row.purity_authors), fmt(row.purity_reference)]
        for row in rows
    ]
    if reference_row is not None:
        table.append(["RS", reference_row.n_features, fmt(reference_row.purity_authors), ""])
    write_csv(path, ["cutoff", "n_features", "purity_authors", "purity_reference"], table)
