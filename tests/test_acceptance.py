"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""

from __future__ import annotations

import hashlib
import math
import time

import numpy as np
import pytest

from _oracles import anova_by_sums, leaf_members, naive_ward
from conftest import SYNTH_SEED, SYNTH_SEPARATION, eta_of_feature
from stylokit.cli import main
from stylokit.cluster import Dendrogram, Merge, agglomerative_coefficient, cut, ward_cluster
from stylokit.evaluate import cluster_purity, robustness_sweep
from stylokit.features import FeatureKind, FeatureMatrix, FeatureSpec, affixes_of
from stylokit.metrics import DistanceMatrix, Measure, _minmax_row, compute_distance
from stylokit.pipeline import run_pipeline
from stylokit.selection import corrected_mean, required_sample_size
from stylokit.synth import function_word_forms


def _report(number: int, text: str) -> None:
    print(f"criterion {number:2d} PASS: {text}")


def _relfreq_matrix(rng, n_docs, n_features) -> FeatureMatrix:
    raw = rng.uniform(0.05, 1.0, size=(n_docs, n_features))
    return FeatureMatrix(
        doc_ids=tuple(f"d{i:03d}" for i in range(n_docs)),
        feature_names=tuple(f"f{j:03d}" for j in range(n_features)),
        values=raw / raw.sum(axis=1, keepdims=True),
    )


def test_criterion_1_affixes_of_gloire():
    start = time.perf_counter()
    result = affixes_of("gloire")
    elapsed = time.perf_counter() - start
    assert set(result) == {"^glo", "ire$", "_gl", "re_"}
    assert len(result) == 4
    assert elapsed < 0.001
    _report(1, f"affixes of 'gloire' exact in {elapsed * 1e6:.0f} us")


def test_criterion_2_ward_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(8, 13))
        m = rng.uniform(0.1, 2.0, size=(n, n))
        m = (m + m.T) / 2.0
        np.fill_diagonal(m, 0.0)
        ids = tuple(f"d{i:02d}" for i in range(n))
        dend = ward_cluster(DistanceMatrix(ids, m, Measure.BURROWS_DELTA))
        oracle = naive_ward(m, ids)
        for t, merge in enumerate(dend.merges):
            members, height = oracle[t]
            assert leaf_members(dend, n + t) == members
            assert abs(merge.height - height) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, f"200 random matrices match the naive reference in {elapsed:.2f} s")


def test_criterion_3_delta_metric_axioms():
    rng = np.random.default_rng(31337)
    start = time.perf_counter()
    for _ in range(100):
        matrix = _relfreq_matrix(
            rng, int(rng.integers(5, 21)), int(rng.integers(10, 201))
        )
        d = compute_distance(matrix, "delta").values
        assert np.allclose(d, d.T, atol=0)
        assert np.all(np.diag(d) == 0.0)
        assert np.all(d >= 0.0)
        triangle = d[:, :, None] - d[:, None, :] - d[None, :, :]
        assert triangle.max() <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(3, f"delta axioms hold on 100 random matrices in {elapsed:.2f} s")


def test_criterion_4_minmax_bounds():
    # The min/max row formula on already-scaled vectors.
    identical = np.array([[1.0, 2.0], [1.0, 2.0]])
    assert _minmax_row(identical[0], identical[1:])[0] == 0.0
    disjoint = np.array([[1.0, 0.0], [0.0, 3.0]])
    assert _minmax_row(disjoint[0], disjoint[1:])[0] == 1.0

    rng = np.random.default_rng(404)
    for _ in range(100):
        matrix = _relfreq_matrix(rng, int(rng.integers(3, 12)), int(rng.integers(5, 60)))
        d = compute_distance(matrix, "minmax").values
        assert np.all(d >= -1e-12)
        assert np.all(d <= 1.0 + 1e-12)
        assert np.all(np.diag(d) == 0.0)
    _report(4, "min/max stays in [0,1]; identical -> 0, disjoint -> 1")


def test_criterion_5_eta_anova_oracle():
    rng = np.random.default_rng(555)
    start = time.perf_counter()
    for _ in range(500):
        k = int(rng.integers(2, 7))
        values: list[float] = []
        labels: list[int] = []
        for g in range(k):
            size = int(rng.integers(3, 11))
            values.extend(rng.normal(loc=g * rng.uniform(0, 2), size=size).tolist())
            labels.extend([g] * size)
        eta2, p, _ = eta_of_feature(values, labels)
        oracle_eta2, oracle_p = anova_by_sums(values, labels)
        assert abs(eta2 - oracle_eta2) <= 1e-8
        assert abs(p - oracle_p) <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(5, f"500 groupings match sum-of-squares + quadrature oracle in {elapsed:.2f} s")


def test_criterion_6_sample_size_formula():
    n = required_sample_size(0.5, 0.05)
    assert n == pytest.approx(67.65, abs=0.01)
    assert corrected_mean([0.1, 0.3, 0.5]) == 0.3
    _report(6, f"required n = {n:.6f}; mirror-corrected mean exact")


def test_criterion_7_synthetic_end_to_end(synth_corpus):
    start = time.perf_counter()
    truth = synth_corpus.alleged_authors()
    assert len(synth_corpus) == 30
    assert min(d.token_count for d in synth_corpus) >= 5000
    spec = FeatureSpec(
        kind=FeatureKind.FUNCTION_WORD, function_words=tuple(function_word_forms())
    )
    delta_run = run_pipeline(synth_corpus, spec, "reliable", "delta", 5)
    minmax_run = run_pipeline(synth_corpus, spec, "reliable", "minmax", 5)
    delta_purity = cluster_purity(delta_run.assignment, truth).purity
    minmax_purity = cluster_purity(minmax_run.assignment, truth).purity
    assert delta_purity == 1.0
    assert minmax_purity == 1.0
    assert delta_run.assignment == minmax_run.assignment
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(
        7,
        f"seed {SYNTH_SEED}, separation {SYNTH_SEPARATION}: both pipelines pure "
        f"and identical at k=5 in {elapsed:.2f} s",
    )


def test_criterion_8_sweep_shape(synth_corpus):
    truth = synth_corpus.alleged_authors()
    spec = FeatureSpec(
        kind=FeatureKind.FUNCTION_WORD, function_words=tuple(function_word_forms())
    )
    reference = run_pipeline(synth_corpus, spec, "reliable", "delta", 5)
    cutoffs = [0.01, 0.10, 0.25, 0.50, 0.75, 1.00]
    rows = robustness_sweep(reference, truth, cutoffs)
    assert len(rows) == 6
    assert [r.n_features for r in rows] == [math.ceil(c * 110) for c in cutoffs]
    assert rows[0].n_features == 2  # 1% of the 110 function words
    _report(8, f"sweep row feature counts {[r.n_features for r in rows]} follow the ceiling rule")


def test_criterion_9_pipeline_determinism(synth_dir, tmp_path):
    out = tmp_path / "run"
    argv = [
        "cluster",
        "--manifest", str(synth_dir / "manifest.csv"),
        "--features", "fw",
        "--fw-list", str(synth_dir / "function_words.txt"),
        "--k", "5",
        "--out", str(out),
    ]
    assert main(argv) == 0
    watched = [
        "matrix.csv", "selection.csv", "distance.csv", "assignment.csv",
        "dendrogram.newick", "summary.json", "run.json",
    ]
    before = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in watched
    }
    assert main(argv) == 0
    after = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in watched
    }
    assert before == after
    _report(9, "re-run produced byte-identical CSV, Newick and JSON outputs")


def test_criterion_10_agglomerative_coefficient():
    rng = np.random.default_rng(808)
    for _ in range(100):
        n = int(rng.integers(3, 12))
        m = rng.uniform(0.1, 3.0, size=(n, n))
        m = (m + m.T) / 2.0
        np.fill_diagonal(m, 0.0)
        ids = tuple(f"d{i:02d}" for i in range(n))
        dend = ward_cluster(DistanceMatrix(ids, m, Measure.BURROWS_DELTA))
        assert 0.0 <= dend.ac <= 1.0
    hand = Dendrogram(
        leaves=("a", "b", "c", "d"),
        merges=(Merge(0, 1, 1.0), Merge(2, 3, 1.0), Merge(4, 5, 4.0)),
        ac=0.0,
    )
    assert agglomerative_coefficient(hand) == pytest.approx(0.75, abs=1e-12)
    assert cut(hand, 2) == {"a": 1, "b": 1, "c": 2, "d": 2}
    _report(10, "AC in [0,1] on random inputs; hand-built case = 0.75 exactly")
