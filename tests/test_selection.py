from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stylokit.errors import AnalysisError
from stylokit.features import FeatureMatrix
from stylokit.selection import (
    SelectionParams,
    corrected_mean,
    required_sample_size,
    select_reliable,
    select_top_frequency,
    write_selection_csv,
)

FRACTIONS = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)


def _matrix(values, names=None) -> FeatureMatrix:
    values = np.asarray(values, dtype=float)
    names = names or tuple(f"f{j}" for j in range(values.shape[1]))
    return FeatureMatrix(
        doc_ids=tuple(f"d{i}" for i in range(values.shape[0])),
        feature_names=tuple(names),
        values=values,
    )


def test_mirror_corrected_mean_is_midrange():
    assert corrected_mean([0.1, 0.3, 0.5]) == pytest.approx(0.3, abs=0)


def test_mirror_constant_vector_unchanged():
    assert corrected_mean([0.2, 0.2, 0.2]) == 0.2


def test_mirror_single_value():
    assert corrected_mean([0.7]) == 0.7


@given(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False), min_size=1, max_size=20))
def test_corrected_mean_stays_in_value_range(values):
    mean = corrected_mean(values)
    assert min(values) - 1e-12 <= mean <= max(values) + 1e-12


def test_required_sample_size_reference_point():
    params = SelectionParams(confidence_z=1.645, margin_multiplier=2.0, min_doc_len=1)
    n = required_sample_size(0.5, 0.05, params)
    assert n == pytest.approx(67.650625, abs=1e-9)


def test_required_sample_size_vanishes_at_extreme_probability():
    params = SelectionParams()
    assert required_sample_size(0.0, 0.1, params) == 0.0
    assert required_sample_size(1.0, 0.1, params) == 0.0


@given(
    st.integers(min_value=0, max_value=64),
    st.floats(min_value=1e-6, max_value=10.0),
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.0, max_value=3.0),
)
def test_required_sample_size_symmetry_and_z_monotonicity(num, sigma, z, dz):
    p = num / 64.0  # exactly representable, so 1 - p is too
    lo = SelectionParams(confidence_z=z, min_doc_len=1)
    hi = SelectionParams(confidence_z=z + dz, min_doc_len=1)
    assert required_sample_size(p, sigma, lo) == required_sample_size(1.0 - p, sigma, lo)
    assert required_sample_size(p, sigma, hi) >= required_sample_size(p, sigma, lo)


def test_required_sample_size_shrinks_with_wide_sigma():
    params = SelectionParams()
    assert required_sample_size(0.5, 100.0, params) < 1e-4


def test_select_reliable_threshold_behavior():
    # Column f0 varies a lot (small required n); f1 is nearly constant with a
    # tiny nonzero spread (huge required n); f2 is exactly constant.
    values = np.array(
        [
            [0.10, 0.5000, 0.3],
            [0.90, 0.5001, 0.3],
            [0.50, 0.4999, 0.3],
            [0.30, 0.5000, 0.3],
        ]
    )
    matrix = _matrix(values)
    params = SelectionParams(min_doc_len=5000)
    report = select_reliable(matrix, params)
    assert report.retained == ("f0",)
    by_name = {row.name: row for row in report.per_feature}
    assert by_name["f1"].retained is False and by_name["f1"].required_n > 5000
    assert by_name["f2"].degenerate is True and by_name["f2"].required_n == 0.0
    assert by_name["f0"].sigma == pytest.approx(values[:, 0].std(ddof=1))
    assert by_name["f0"].p_bar == pytest.approx(0.5)


def test_select_reliable_example_thresholds():
    params = SelectionParams(min_doc_len=7887)
    diag_keep = required_sample_size(0.3, 0.01, params)
    assert diag_keep < 7887  # a feature like this is retained
    # Construct a column whose required n exceeds the shortest document.
    tight = SelectionParams(min_doc_len=10)
    values = np.array([[0.4], [0.6], [0.5], [0.5]])
    with pytest.raises(AnalysisError, match="eliminated all features"):
        select_reliable(_matrix(values), tight)


def test_top_frequency_whole_matrix():
    matrix = _matrix([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]])
    assert select_top_frequency(matrix, 1.0) == matrix.feature_names


def test_top_frequency_counts_match_ceiling_rule():
    lemmas = _matrix(np.full((2, 7941), 1.0 / 7941))
    assert len(select_top_frequency(lemmas, 0.01)) == 80
    fw = _matrix(np.full((2, 110), 1.0 / 110))
    assert len(select_top_frequency(fw, 0.10)) == 11
    assert len(select_top_frequency(fw, 0.01)) == 2


def test_top_frequency_prefers_frequent_then_lexicographic():
    matrix = _matrix(
        [[0.5, 0.2, 0.2, 0.1], [0.5, 0.2, 0.2, 0.1]],
        names=("zz", "bb", "aa", "cc"),
    )
    assert select_top_frequency(matrix, 0.5) == ("zz", "aa")


@given(FRACTIONS, FRACTIONS)
def test_top_frequency_nesting(f1, f2):
    rng = np.random.default_rng(42)
    matrix = _matrix(rng.uniform(size=(4, 23)))
    lo, hi = sorted((f1, f2))
    assert set(select_top_frequency(matrix, lo)) <= set(select_top_frequency(matrix, hi))


def test_selection_csv_layout(tmp_path):
    matrix = _matrix([[0.1, 0.3], [0.5, 0.3]])
    report = select_reliable(matrix, SelectionParams(min_doc_len=1000))
    path = tmp_path / "sel.csv"
    write_selection_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "feature,p_bar,sigma,required_n,retained,degenerate"
    assert lines[1].startswith("f0,")
    assert lines[2].endswith(",true")  # f1 constant -> degenerate


def test_selection_params_validation():
    with pytest.raises(ValueError):
        SelectionParams(confidence_z=0.0)
    with pytest.raises(ValueError):
        SelectionParams(min_doc_len=0)
