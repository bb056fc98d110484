from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from _oracles import delta_by_hand
from conftest import parsed_both_ways, random_sources
from stylokit.cluster import Dendrogram, Merge
from stylokit.errors import AnalysisError
from stylokit.features import FeatureKind, FeatureMatrix, FeatureSpec, build_matrix
from stylokit.metrics import (
    DistanceMatrix,
    Measure,
    _minmax_row,
    _tfsd_rows,
    _unit_rows,
    _zscore_rows,
    compute_distance,
    write_distance_csv,
)


def _matrix(values) -> FeatureMatrix:
    values = np.asarray(values, dtype=float)
    return FeatureMatrix(
        doc_ids=tuple(f"d{i:02d}" for i in range(values.shape[0])),
        feature_names=tuple(f"f{j}" for j in range(values.shape[1])),
        values=values,
    )


def _minmax_pair(a, b) -> float:
    """The min/max row formula on two already-scaled vectors."""
    return float(_minmax_row(np.asarray(a, dtype=float), np.asarray([b], dtype=float))[0])


def _random_relfreq(rng, n_docs, n_features) -> FeatureMatrix:
    raw = rng.uniform(0.05, 1.0, size=(n_docs, n_features))
    return _matrix(raw / raw.sum(axis=1, keepdims=True))


@pytest.mark.parametrize("measure", list(Measure))
def test_subset_distances_equal_those_of_a_c_ordered_copy(measure):
    # values[:, columns] alone is not C-ordered: the column means, sds and
    # row sums would then reduce in another order and move the last bits.
    rng = np.random.default_rng(11)
    matrix = _random_relfreq(rng, 40, 60)
    columns = np.sort(rng.choice(60, size=35, replace=False))
    names = tuple(matrix.feature_names[j] for j in columns)
    copy = FeatureMatrix(matrix.doc_ids, names, np.ascontiguousarray(matrix.values[:, columns]))
    subset = matrix.subset(columns)
    assert subset.feature_names == names
    got, want = compute_distance(subset, measure), compute_distance(copy, measure)
    assert np.array_equal(got.values, want.values)


def _unit(values) -> np.ndarray:
    """_unit_rows on copies of the rows of values, as it divides in place, all in one block."""
    matrix = _matrix(values)
    return _unit_rows(lambda lo, hi: matrix.values[lo:hi].copy(), matrix)(0, matrix.n_docs)


def test_zscore_standardizes_columns():
    z = _zscore_rows(_matrix([[1.0], [2.0], [3.0]]))(0, 3)
    assert z.mean() == pytest.approx(0.0, abs=1e-12)
    assert z.std(ddof=1) == pytest.approx(1.0, abs=1e-12)


def test_zscore_two_document_convention():
    # Sample (n-1) standard deviation puts a two-point column at +-1/sqrt(2).
    z = _zscore_rows(_matrix([[0.2, 0.7], [0.6, 0.1]]))(0, 2)
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(z, [[-s, s], [s, -s]])


def test_zscore_idempotent_on_standardized_data():
    rng = np.random.default_rng(3)
    values = rng.normal(size=(6, 4))
    values = (values - values.mean(axis=0)) / values.std(axis=0, ddof=1)
    z = _zscore_rows(_matrix(values))(0, 6)
    assert np.allclose(z, values, atol=1e-12)


def test_zscore_rejects_constant_column():
    with pytest.raises(AnalysisError, match="f1"):
        compute_distance(_matrix([[0.2, 0.5], [0.4, 0.5]]), "delta")


def test_l2_three_four_five():
    assert np.allclose(_unit([[3.0, 4.0]]), [[0.6, 0.8]])


def test_l2_unit_row_unchanged_and_scale_invariant():
    row = np.array([[0.6, 0.8]])
    assert np.allclose(_unit(row), row)
    assert np.allclose(_unit(7.0 * row), row)


def test_l2_zero_row_is_an_error():
    # Row d00 sits at the column means, so its z-scored vector is all zero.
    m = _matrix([[0.3, 0.5], [0.1, 0.2], [0.5, 0.8]])
    with pytest.raises(AnalysisError, match="no signal under selected features: d00"):
        compute_distance(m, "delta")


def test_delta_identical_documents_at_zero_distance():
    m = _matrix([[0.5, 0.5], [0.5, 0.5], [0.2, 0.8]])
    d = compute_distance(m, "delta")
    assert d.values[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert d.measure is Measure.BURROWS_DELTA


def test_delta_matches_hand_recomputation():
    rows = [[0.5, 0.3, 0.2], [0.1, 0.4, 0.5], [0.3, 0.3, 0.4]]
    d = compute_distance(_matrix(rows), Measure.BURROWS_DELTA)
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
        d = compute_distance(m, "delta").values
        assert np.allclose(d, d.T)
        assert np.allclose(np.diag(d), 0.0)
        assert np.all(d >= 0.0)
        triangle = d[:, :, None] - d[:, None, :] - d[None, :, :]
        assert triangle.max() <= 1e-9


def test_delta_needs_two_documents():
    for measure in Measure:
        with pytest.raises(AnalysisError, match=f"{measure.value} distance needs at least 2"):
            compute_distance(_matrix([[1.0, 0.5]]), measure)


def test_distances_bit_identical_under_row_permutation():
    rng = np.random.default_rng(11)
    spec = FeatureSpec(kind=FeatureKind.LEMMA)
    for _ in range(10):
        corpus, shuffled = parsed_both_ways(rng, random_sources(rng, 12))
        m, m_shuffled = build_matrix(corpus, spec), build_matrix(shuffled, spec)
        for measure in Measure:
            want, got = compute_distance(m, measure), compute_distance(m_shuffled, measure)
            assert got.doc_ids == want.doc_ids and np.array_equal(got.values, want.values)


def test_rows_out_of_doc_id_order_are_rejected():
    for ids in (("b", "a"), ("a", "a")):
        with pytest.raises(ValueError, match="doc ids must be strictly increasing"):
            FeatureMatrix(ids, ("f0",), np.ones((2, 1)))
        with pytest.raises(ValueError, match="doc ids must be strictly increasing"):
            DistanceMatrix(ids, np.zeros((2, 2)), Measure.BURROWS_DELTA)
        with pytest.raises(ValueError, match="doc ids must be strictly increasing"):
            Dendrogram(ids, (Merge(0, 1, 1.0),), 0.0)


@pytest.mark.parametrize("measure", ["delta", "minmax"])
def test_constant_column_raises_naming_the_feature(measure):
    rng = np.random.default_rng(13)
    values = np.column_stack([rng.uniform(0.05, 1.0, size=(7, 3)), np.full(7, 0.1)])
    with pytest.raises(AnalysisError, match="feature is constant.*: f3$"):
        compute_distance(_matrix(values), measure)


def test_tfsd_scales_columns_without_centering():
    m = _matrix([[0.2, 0.1], [0.4, 0.7]])
    t = _tfsd_rows(m)(0, 2)
    assert np.all(t > 0.0)
    assert np.allclose(t.std(axis=0, ddof=1), 1.0)


def test_minmax_identical_rows():
    assert _minmax_pair([1.0, 2.0], [1.0, 2.0]) == 0.0


def test_minmax_disjoint_supports():
    assert _minmax_pair([1.0, 0.0], [0.0, 3.0]) == 1.0


def test_minmax_hand_value():
    assert _minmax_pair([1.0, 2.0], [2.0, 1.0]) == pytest.approx(0.5, abs=1e-12)
    # Both columns have sd 1/sqrt(2): the scaled pair keeps the value.
    d = compute_distance(_matrix([[1.0, 2.0], [2.0, 1.0]]), "minmax")
    assert d.values[0, 1] == pytest.approx(0.5, abs=1e-12)
    assert d.measure is Measure.MINMAX


def test_minmax_bounds_on_random_matrices():
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = _random_relfreq(rng, int(rng.integers(3, 10)), int(rng.integers(5, 30)))
        d = compute_distance(m, "minmax").values
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
        assert _minmax_pair(closer, b) <= _minmax_pair(a, b) + 1e-12


def test_minmax_rejects_all_zero_pair():
    # The zero rows keep every column's sd positive.
    m = _matrix([[0.0, 0.0], [0.0, 0.0], [0.5, 0.5], [0.2, 0.8]])
    with pytest.raises(AnalysisError, match="two all-zero documents"):
        compute_distance(m, "minmax")


def test_minmax_rejects_negative_values():
    with pytest.raises(AnalysisError, match="non-negative"):
        compute_distance(_matrix([[-0.1, 0.6], [0.6, 0.4]]), "minmax")


def test_distance_csv_is_square_with_header(tmp_path):
    m = _matrix([[0.5, 0.5], [0.2, 0.8], [0.9, 0.1]])
    d = compute_distance(m, "delta")
    path = tmp_path / "dist.csv"
    write_distance_csv(d, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "doc_id,d00,d01,d02"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "d00" and float(first[1]) == 0.0


@given(
    seed=st.integers(0, 2**32 - 1),
    n_docs=st.integers(3, 8),
    n_features=st.integers(2, 10),
    column=st.integers(0, 9),
    factor=st.floats(1e-3, 1e3),
)
@example(seed=385, n_docs=3, n_features=2, column=0, factor=3.0)
@example(seed=3720296, n_docs=3, n_features=2, column=0, factor=0.001)
def test_delta_and_minmax_ignore_one_column_scaled(seed, n_docs, n_features, column, factor):
    """Scaling a column changes the z-scores only by the rounding of x - mean, ~1e-16.
    Delta divides each z-score row by its norm, so a document near the column means
    (norm 2e-4 in the first example) grows that rounding by 1/norm: delta's bound is
    1e-12 / min(1, smallest z-row norm), 1e-12 where every norm is at least 1.
    Min/max divides by no row norm, and its bound is 1e-12."""
    matrix = _random_relfreq(np.random.default_rng(seed), n_docs, n_features)
    values = matrix.values.copy()
    values[:, column % n_features] *= factor
    scaled = _matrix(values)
    z = (matrix.values - matrix.values.mean(axis=0)) / matrix.values.std(axis=0, ddof=1)
    smallest_norm = np.sqrt((z * z).sum(axis=1)).min()
    for measure, atol in (("delta", 1e-12 / min(1.0, smallest_norm)), ("minmax", 1e-12)):
        assert np.allclose(
            compute_distance(scaled, measure).values,
            compute_distance(matrix, measure).values,
            rtol=0,
            atol=atol,
        )
