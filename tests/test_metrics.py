from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from _oracles import delta_by_hand
from stylokit.errors import AnalysisError
from stylokit.features import FeatureMatrix, Scale
from stylokit.metrics import (
    Measure,
    burrows_delta,
    euclidean_distance,
    l2_normalize_rows,
    manhattan_distance,
    minmax_distance,
    minmax_pipeline,
    tfsd_transform,
    write_distance_csv,
    zscore_transform,
)


def _matrix(values, scale=Scale.RELATIVE_FREQUENCY) -> FeatureMatrix:
    values = np.asarray(values, dtype=float)
    return FeatureMatrix(
        doc_ids=tuple(f"d{i}" for i in range(values.shape[0])),
        feature_names=tuple(f"f{j}" for j in range(values.shape[1])),
        values=values,
        scale=scale,
    )


def _random_relfreq(rng, n_docs, n_features) -> FeatureMatrix:
    raw = rng.uniform(0.05, 1.0, size=(n_docs, n_features))
    return _matrix(raw / raw.sum(axis=1, keepdims=True))


def test_zscore_standardizes_columns():
    z = zscore_transform(_matrix([[1.0], [2.0], [3.0]]))
    assert z.values.mean() == pytest.approx(0.0, abs=1e-12)
    assert z.values.std(ddof=1) == pytest.approx(1.0, abs=1e-12)
    assert z.scale is Scale.ZSCORE


def test_zscore_two_document_convention():
    # Sample (n-1) standard deviation puts a two-point column at +-1/sqrt(2).
    z = zscore_transform(_matrix([[0.2, 0.7], [0.6, 0.1]]))
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(z.values, [[-s, s], [s, -s]])


def test_zscore_idempotent_on_standardized_data():
    rng = np.random.default_rng(3)
    values = rng.normal(size=(6, 4))
    values = (values - values.mean(axis=0)) / values.std(axis=0, ddof=1)
    z = zscore_transform(_matrix(values))
    assert np.allclose(z.values, values, atol=1e-12)


def test_zscore_rejects_constant_column():
    with pytest.raises(AnalysisError, match="f1"):
        zscore_transform(_matrix([[0.2, 0.5], [0.4, 0.5]]))


def test_l2_three_four_five():
    m = _matrix([[3.0, 4.0]], scale=Scale.ZSCORE)
    assert np.allclose(l2_normalize_rows(m).values, [[0.6, 0.8]])


def test_l2_unit_row_unchanged_and_scale_invariant():
    row = np.array([[0.6, 0.8]])
    m = _matrix(row, scale=Scale.ZSCORE)
    assert np.allclose(l2_normalize_rows(m).values, row)
    scaled = _matrix(7.0 * row, scale=Scale.ZSCORE)
    assert np.allclose(l2_normalize_rows(scaled).values, row)


def test_l2_zero_row_is_an_error():
    m = _matrix([[0.0, 0.0], [1.0, 2.0]], scale=Scale.ZSCORE)
    with pytest.raises(AnalysisError, match="d0"):
        l2_normalize_rows(m)


def test_delta_identical_documents_at_zero_distance():
    m = _matrix([[0.5, 0.5], [0.5, 0.5], [0.2, 0.8]])
    d = burrows_delta(m)
    assert d.values[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert d.measure is Measure.BURROWS_DELTA


def test_delta_matches_hand_recomputation():
    rows = [[0.5, 0.3, 0.2], [0.1, 0.4, 0.5], [0.3, 0.3, 0.4]]
    d = burrows_delta(_matrix(rows))
    expected = delta_by_hand(rows)
    assert np.allclose(d.values, expected, atol=1e-9)
    # Frozen spot values from the explicit recomputation.
    assert d.values[0, 1] == pytest.approx(3.400557515425483, abs=1e-9)
    assert d.values[0, 2] == pytest.approx(2.2418138466710786, abs=1e-9)
    assert d.values[1, 2] == pytest.approx(2.3027285778297437, abs=1e-9)


def test_delta_metric_axioms_on_random_matrices():
    rng = np.random.default_rng(17)
    for _ in range(20):
        m = _random_relfreq(rng, int(rng.integers(5, 12)), int(rng.integers(10, 40)))
        d = burrows_delta(m).values
        assert np.allclose(d, d.T)
        assert np.allclose(np.diag(d), 0.0)
        assert np.all(d >= 0.0)
        triangle = d[:, :, None] - d[:, None, :] - d[None, :, :]
        assert triangle.max() <= 1e-9


def test_delta_needs_two_documents():
    with pytest.raises(AnalysisError):
        burrows_delta(_matrix([[1.0, 0.0]]))


def test_tfsd_scales_columns_without_centering():
    m = _matrix([[0.2, 0.1], [0.4, 0.7]])
    t = tfsd_transform(m)
    assert np.all(t.values > 0.0)
    assert np.allclose(t.values.std(axis=0, ddof=1), 1.0)
    assert t.scale is Scale.TFSD


def test_minmax_identical_rows():
    m = _matrix([[1.0, 2.0], [1.0, 2.0]], scale=Scale.TFSD)
    assert minmax_distance(m).values[0, 1] == 0.0


def test_minmax_disjoint_supports():
    m = _matrix([[1.0, 0.0], [0.0, 3.0]], scale=Scale.TFSD)
    assert minmax_distance(m).values[0, 1] == 1.0


def test_minmax_hand_value():
    m = _matrix([[1.0, 2.0], [2.0, 1.0]], scale=Scale.TFSD)
    assert minmax_distance(m).values[0, 1] == pytest.approx(0.5, abs=1e-12)


def test_minmax_bounds_on_random_matrices():
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = _random_relfreq(rng, int(rng.integers(3, 10)), int(rng.integers(5, 30)))
        d = minmax_pipeline(m).values
        assert np.all(d >= 0.0) and np.all(d <= 1.0 + 1e-12)
        assert np.allclose(np.diag(d), 0.0)
        assert np.allclose(d, d.T)


def test_minmax_monotone_under_componentwise_approach():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rng.uniform(0.0, 2.0, size=12)
        b = rng.uniform(0.0, 2.0, size=12)
        t = rng.uniform(0.0, 1.0)
        closer = a + t * (b - a)
        far = minmax_distance(
            _matrix(np.vstack([a, b]), scale=Scale.TFSD)
        ).values[0, 1]
        near = minmax_distance(
            _matrix(np.vstack([closer, b]), scale=Scale.TFSD)
        ).values[0, 1]
        assert near <= far + 1e-12


def test_minmax_requires_tfsd_scale():
    with pytest.raises(AnalysisError):
        minmax_distance(_matrix([[0.4, 0.6], [0.6, 0.4]]))


def test_minmax_rejects_all_zero_pair():
    m = _matrix([[0.0, 0.0], [0.0, 0.0]], scale=Scale.TFSD)
    with pytest.raises(AnalysisError):
        minmax_distance(m)


def test_baseline_distances():
    m = _matrix([[0.0, 0.0], [3.0, 4.0]], scale=Scale.RELATIVE_FREQUENCY)
    assert manhattan_distance(m).values[0, 1] == 7.0
    assert euclidean_distance(m).values[0, 1] == 5.0


def test_distance_csv_is_square_with_header(tmp_path):
    m = _matrix([[0.5, 0.5], [0.2, 0.8], [0.9, 0.1]])
    d = burrows_delta(m)
    path = tmp_path / "dist.csv"
    write_distance_csv(d, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "doc_id,d0,d1,d2"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "d0" and float(first[1]) == 0.0


@given(
    seed=st.integers(0, 2**32 - 1),
    n_docs=st.integers(3, 8),
    n_features=st.integers(2, 10),
    column=st.integers(0, 9),
    factor=st.floats(1e-3, 1e3),
)
def test_delta_and_minmax_ignore_one_column_scaled(seed, n_docs, n_features, column, factor):
    matrix = _random_relfreq(np.random.default_rng(seed), n_docs, n_features)
    values = matrix.values.copy()
    values[:, column % n_features] *= factor
    scaled = _matrix(values)
    for measure in (burrows_delta, minmax_pipeline):
        assert np.allclose(measure(scaled).values, measure(matrix).values, rtol=0, atol=1e-12)
