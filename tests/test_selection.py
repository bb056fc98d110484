from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _oracles import naive_write_selection_csv
from conftest import parsed_both_ways, random_sources
from stylokit import selection
from stylokit.errors import AnalysisError
from stylokit.features import FeatureKind, FeatureMatrix, FeatureSpec, build_matrix
from stylokit.pipeline import apply_selection
from stylokit.selection import (
    SelectionReport,
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
        doc_ids=tuple(f"d{i:02d}" for i in range(values.shape[0])),
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
    n = required_sample_size(0.5, 0.05)
    assert n == pytest.approx(67.650625, abs=1e-9)


def test_required_sample_size_vanishes_at_extreme_probability():
    assert required_sample_size(0.0, 0.1) == 0.0
    assert required_sample_size(1.0, 0.1) == 0.0


@given(st.integers(min_value=0, max_value=64), st.floats(min_value=1e-6, max_value=10.0))
def test_required_sample_size_symmetry(num, sigma):
    p = num / 64.0  # exactly representable, so 1 - p is too
    assert required_sample_size(p, sigma) == required_sample_size(1.0 - p, sigma)


def test_required_sample_size_is_element_wise():
    p_bar = np.array([0.5, 0.3, 0.5])
    sigma = np.array([0.05, 0.01, 0.0])
    want = [required_sample_size(p, s) for p, s in zip(p_bar, sigma)]
    assert required_sample_size(p_bar, sigma).tolist() == want
    assert corrected_mean([[0.1, 0.3, 0.5], [0.2, 0.2, 0.2]]).tolist() == [0.3, 0.2]


def test_required_sample_size_shrinks_with_wide_sigma():
    assert required_sample_size(0.5, 100.0) < 1e-4


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
    report = select_reliable(matrix, 5000)
    assert report.feature_names == ("f0", "f1", "f2")
    assert report.retained.tolist() == [0]
    p_bar, sigma, required_n = report.per_feature.T
    assert report.degenerate.tolist() == [False, False, True]
    assert required_n[1] > 5000 and required_n[2] == 0.0
    assert sigma[0] == pytest.approx(values[:, 0].std(ddof=1))
    assert p_bar[0] == pytest.approx(0.5)


def test_select_reliable_example_thresholds():
    diag_keep = required_sample_size(0.3, 0.01)
    assert diag_keep < 7887  # a feature like this is retained
    # Construct a column whose required n exceeds the shortest document.
    values = np.array([[0.4], [0.6], [0.5], [0.5]])
    with pytest.raises(AnalysisError, match="eliminated all features"):
        select_reliable(_matrix(values), 10)


def test_select_reliable_keeps_a_feature_whose_required_n_is_min_doc_len(monkeypatch):
    # Patched to whole numbers, so one feature's required n is exactly min_doc_len.
    monkeypatch.setattr(selection, "required_sample_size", lambda p_bar, sigma: np.array([9, 10, 11]))
    values = np.array([[0.1, 0.2, 0.3], [0.3, 0.4, 0.5], [0.2, 0.1, 0.4]])
    assert select_reliable(_matrix(values), 10).retained.tolist() == [0, 1]


def test_top_frequency_whole_matrix():
    matrix = _matrix([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]])
    assert select_top_frequency(matrix, 1.0).tolist() == [0, 1, 2]


def test_top_frequency_counts_match_ceiling_rule():
    lemmas = _matrix(np.full((2, 7941), 1.0 / 7941))
    assert len(select_top_frequency(lemmas, 0.01)) == 80
    fw = _matrix(np.full((2, 110), 1.0 / 110))
    assert len(select_top_frequency(fw, 0.10)) == 11
    assert len(select_top_frequency(fw, 0.01)) == 2
    # The ceiling of the decimal given: 0.07 * 100 is 7.000000000000001 as floats.
    for fraction, n, kept in ((0.07, 100, 7), (0.14, 100, 14), (0.333, 1000, 333), (0.0001, 10, 1)):
        assert len(select_top_frequency(_matrix(np.full((2, n), 1.0 / n)), fraction)) == kept


def test_top_frequency_prefers_frequent_then_lexicographic():
    matrix = _matrix(
        [[0.5, 0.2, 0.2, 0.1], [0.5, 0.2, 0.2, 0.1]],
        names=("zz", "bb", "aa", "cc"),
    )
    assert select_top_frequency(matrix, 0.5).tolist() == [0, 2]  # zz, aa


@given(FRACTIONS, FRACTIONS)
def test_top_frequency_nesting(f1, f2):
    rng = np.random.default_rng(42)
    matrix = _matrix(rng.uniform(size=(4, 23)))
    lo, hi = sorted((f1, f2))
    assert set(select_top_frequency(matrix, lo)) <= set(select_top_frequency(matrix, hi))


def test_selection_csv_layout(tmp_path):
    matrix = _matrix([[0.1, 0.3], [0.5, 0.3]], names=("a,b", 'q"x'))
    report = select_reliable(matrix, 1000)
    path = tmp_path / "sel.csv"
    write_selection_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "feature,p_bar,sigma,required_n,retained,degenerate"
    assert lines[1].startswith('"a,b",')
    assert lines[2].endswith(",true")  # q"x constant -> degenerate
    naive_write_selection_csv(report, tmp_path / "oracle.csv")
    assert path.read_bytes() == (tmp_path / "oracle.csv").read_bytes()


# Names the csv module must quote, the empty name and non-ASCII ones.
SELECTION_NAMES = st.sampled_from(["a,b", 'q"x', "", "été", "名"]) | st.text(alphabet='ab,"q \n\ré', max_size=4)
# Signed zero, the smallest subnormal and a value near the top of the range among the others.
SELECTION_VALUES = st.sampled_from([-0.0, 0.0, 5e-324, 1e300]) | st.floats(allow_nan=False)


@st.composite
def selection_reports(draw):
    names = tuple(draw(st.lists(SELECTION_NAMES, max_size=6, unique=True)))
    values = [[draw(SELECTION_VALUES) for _ in range(3)] for _ in names]
    flags = [draw(st.booleans()) for _ in names]
    kept = [j for j in range(len(names)) if not flags[j] and draw(st.booleans())]
    return SelectionReport(
        names, np.array(values, dtype=float).reshape(len(names), 3),
        np.array(flags, dtype=bool), np.array(kept, dtype=np.intp),
    )


@settings(max_examples=60, deadline=None)
@given(selection_reports())
@example(SelectionReport(("a,b", 'q"x', "", "été"), np.array([[-0.0, 5e-324, 1e300]] * 4),
                         np.array([False, True, False, False]), np.array([0, 3])))
def test_selection_csv_matches_the_per_row_oracle(tmp_path_factory, report):
    directory = tmp_path_factory.mktemp("selection_csv")
    write_selection_csv(report, directory / "selection.csv")
    naive_write_selection_csv(report, directory / "oracle.csv")
    assert (directory / "selection.csv").read_bytes() == (directory / "oracle.csv").read_bytes()


def test_select_reliable_validation():
    with pytest.raises(ValueError):
        select_reliable(_matrix([[0.1, 0.3], [0.5, 0.4]]), 0)
    with pytest.raises(AnalysisError, match="at least 2 documents"):
        select_reliable(_matrix([[0.1, 0.3]]), 1)


# A constant 0.1 column: every value equal, yet its sample sd is rounding noise.
CONSTANT = np.full(48, 0.1)


def _with_constant_column() -> FeatureMatrix:
    rng = np.random.default_rng(3)
    return _matrix(np.column_stack([rng.uniform(0.2, 0.8, size=(48, 2)), CONSTANT]))


def test_constant_column_is_degenerate_in_select_reliable():
    assert CONSTANT.std(ddof=1) != 0.0
    report = select_reliable(_with_constant_column(), 10**9)
    assert report.feature_names[2] == "f2"
    assert report.degenerate[2] and 2 not in report.retained
    assert report.per_feature[2, 1:].tolist() == [0.0, 0.0]  # sigma, required_n


def test_constant_column_does_not_survive_top_selection():
    selected, _ = apply_selection(_with_constant_column(), ("top", 1.0), 1)
    assert selected.feature_names == ("f0", "f1")


def test_select_reliable_bit_identical_under_row_permutation():
    rng = np.random.default_rng(5)
    spec = FeatureSpec(kind=FeatureKind.AFFIX)
    for _ in range(10):
        corpus, shuffled = parsed_both_ways(rng, random_sources(rng, 15))
        m = build_matrix(corpus, spec)
        report = select_reliable(m, 10**6)
        assert _bits(select_reliable(build_matrix(shuffled, spec), 10**6)) == _bits(report)
        # Against one column at a time.
        for j, (p_bar, sigma, _) in enumerate(report.per_feature.tolist()):
            col = m.values[:, j]
            assert (p_bar, sigma) == ((col.max() + col.min()) / 2, col.std(ddof=1))


def _bits(report: SelectionReport):
    """A report's fields in a form that compares bit for bit."""
    arrays = (report.per_feature, report.degenerate, report.retained)
    return report.feature_names, [(a.dtype, a.shape, a.tobytes()) for a in arrays]
