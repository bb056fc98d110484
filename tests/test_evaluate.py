from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _oracles import anova_by_sums, eta_per_feature, f_tail_quadrature, naive_write_eta_csv
from conftest import eta_of_feature, parsed_both_ways, random_sources
from stylokit.errors import AnalysisError
from stylokit.evaluate import (
    cluster_purity,
    eta_table,
    f_pvalue,
    format_p_value,
    regularized_incomplete_beta,
    robustness_sweep,
    write_eta_csv,
    write_sweep_csv,
)
from stylokit.features import FeatureKind, FeatureMatrix, FeatureSpec, build_matrix, load_word_list
from stylokit.pipeline import apply_selection, cluster_selected, run_pipeline
from stylokit.selection import select_top_frequency
from stylokit.synth import function_word_forms


def test_purity_perfect_clustering():
    assignment = {"a": 1, "b": 1, "c": 2}
    truth = {"a": "X", "b": "X", "c": "Y"}
    report = cluster_purity(assignment, truth)
    assert report.purity == 1.0


def test_purity_hand_example():
    assignment = {"a": 1, "b": 1, "c": 2}
    truth = {"a": "X", "b": "Y", "c": "Y"}
    report = cluster_purity(assignment, truth)
    assert report.purity == pytest.approx(2.0 / 3.0)


def test_purity_majority_tie_is_deterministic():
    assignment = {"a": 1, "b": 1}
    truth = {"a": "Z", "b": "A"}
    assert cluster_purity(assignment, truth).purity == 0.5
    assert cluster_purity({"b": 1, "a": 1}, truth).purity == 0.5


def test_purity_mismatched_doc_sets():
    with pytest.raises(AnalysisError, match="c"):
        cluster_purity({"a": 1, "b": 1}, {"a": "X", "c": "Y"})


@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=4), st.sampled_from("XYZ")),
        min_size=2,
        max_size=30,
    )
)
def test_purity_bounds(pairs):
    assignment = {f"d{i}": label for i, (label, _) in enumerate(pairs)}
    truth = {f"d{i}": cls for i, (_, cls) in enumerate(pairs)}
    purity = cluster_purity(assignment, truth).purity
    largest = max(list(truth.values()).count(c) for c in set(truth.values()))
    assert largest / len(pairs) - 1e-12 <= purity <= 1.0
    clusters = [[truth[d] for d in truth if assignment[d] == c] for c in set(assignment.values())]
    assert purity == sum(max(map(members.count, members)) for members in clusters) / len(pairs)


def test_eta_identical_group_means_is_zero():
    eta2, p, flag = eta_of_feature([1.0, 2.0, 3.0, 1.0, 2.0, 3.0], [1, 1, 1, 2, 2, 2])
    assert eta2 == pytest.approx(0.0, abs=1e-15)
    assert p == pytest.approx(1.0, abs=1e-12)
    assert not flag


def test_eta_internally_constant_groups_is_one():
    eta2, p, flag = eta_of_feature([1.0, 1.0, 5.0, 5.0, 9.0, 9.0], [1, 1, 2, 2, 3, 3])
    assert eta2 == 1.0
    assert p == 0.0
    assert not flag


def test_eta_constant_feature_flagged():
    eta2, p, flag = eta_of_feature([2.0, 2.0, 2.0, 2.0], [1, 1, 2, 2])
    assert (eta2, p, flag) == (0.0, 1.0, True)


def test_eta_frozen_example():
    values = [0.12, 0.15, 0.11, 0.34, 0.30, 0.37, 0.22, 0.20]
    labels = [1, 1, 1, 2, 2, 2, 3, 3]
    eta2, p, _ = eta_of_feature(values, labels)
    assert eta2 == pytest.approx(0.9498016930089385, abs=1e-12)
    assert p == pytest.approx(0.0005645763419590196, rel=1e-9)


def test_eta_matches_brute_force_oracle():
    rng = np.random.default_rng(9)
    for _ in range(50):
        k = int(rng.integers(2, 7))
        sizes = rng.integers(3, 11, size=k)
        values = []
        labels = []
        for g, size in enumerate(sizes):
            values.extend(rng.normal(loc=g * rng.uniform(0, 2), size=size).tolist())
            labels.extend([g] * int(size))
        eta2, p, _ = eta_of_feature(values, labels)
        oracle_eta2, oracle_p = anova_by_sums(values, labels)
        assert eta2 == pytest.approx(oracle_eta2, abs=1e-8)
        assert p == pytest.approx(oracle_p, abs=1e-8)


def test_eta_identity_with_within_share():
    rng = np.random.default_rng(29)
    values = rng.normal(size=24)
    labels = rng.integers(0, 3, size=24)
    y = values
    grand = y.mean()
    groups = [y[labels == g] for g in np.unique(labels)]
    ss_within = sum(float(((g - g.mean()) ** 2).sum()) for g in groups)
    ss_total = float(((y - grand) ** 2).sum())
    eta2, _, _ = eta_of_feature(values, labels)
    assert eta2 + ss_within / ss_total == pytest.approx(1.0, abs=1e-12)


@given(
    st.floats(min_value=-50, max_value=50),
    st.floats(min_value=0.01, max_value=50).filter(lambda a: abs(a) > 0.01),
)
def test_eta_affine_invariance(b, a):
    values = np.array([0.3, 0.1, 0.9, 0.4, 0.7, 0.2])
    labels = [1, 1, 2, 2, 3, 3]
    base, _, _ = eta_of_feature(values, labels)
    shifted, _, _ = eta_of_feature(a * values + b, labels)
    assert shifted == pytest.approx(base, rel=1e-9, abs=1e-9)


def test_eta_validation():
    with pytest.raises(AnalysisError):
        eta_of_feature([1.0, 2.0], [1, 1])
    with pytest.raises(AnalysisError):
        eta_of_feature([1.0, 2.0], [1, 2])


def test_f_pvalue_boundaries():
    assert f_pvalue(0.0, 3, 10) == 1.0
    assert f_pvalue(1e12, 3, 10) < 1e-10
    assert f_pvalue(math.inf, 3, 10) == 0.0


def test_f_pvalue_median_symmetry():
    for df in (1, 2, 5, 20, 101):
        assert f_pvalue(1.0, df, df) == pytest.approx(0.5, abs=1e-12)


def test_f_pvalue_strictly_decreasing_in_f():
    previous = 1.0
    for f in (0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0):
        current = f_pvalue(f, 4, 17)
        assert current < previous
        previous = current


def test_f_pvalue_matches_quadrature():
    rng = np.random.default_rng(31)
    for _ in range(30):
        f = float(rng.uniform(0.01, 30.0))
        df1 = int(rng.integers(1, 12))
        df2 = int(rng.integers(1, 40))
        assert f_pvalue(f, df1, df2) == pytest.approx(
            f_tail_quadrature(f, df1, df2), abs=1e-8
        )


def test_f_pvalue_matches_scipy_deep_tail():
    stats = pytest.importorskip("scipy.stats")
    for f, df1, df2 in [(150.0, 6, 40), (80.0, 10, 80), (1e4, 3, 3), (400.0, 2, 30)]:
        ref = float(stats.f.sf(f, df1, df2))
        assert f_pvalue(f, df1, df2) == pytest.approx(ref, rel=1e-9)


def test_incomplete_beta_edges():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    assert regularized_incomplete_beta(0.5, 0.5, 0.5) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        regularized_incomplete_beta(0.0, 1.0, 0.5)


def test_format_p_value_floor():
    assert format_p_value(1e-310) == "< 1e-300"
    assert format_p_value(0.25) == "0.25"


def test_eta_table_sorted_descending():
    matrix = FeatureMatrix(
        doc_ids=("a", "b", "c", "d"),
        feature_names=("noisy", "sharp"),
        values=np.array([[0.5, 1.0], [0.4, 1.1], [0.45, 5.0], [0.55, 5.2]]),
    )
    names, values = eta_table(matrix, {"a": 1, "b": 1, "c": 2, "d": 2})
    assert names == ("sharp", "noisy")
    assert values[0, 0] > values[1, 0]


def test_eta_constant_non_representable_feature_flagged():
    # The sample sd of a constant 0.1 column is rounding noise, not zero.
    assert eta_of_feature([0.1] * 7, [1, 1, 2, 2, 3, 3, 3]) == (0.0, 1.0, True)


def _clustered_matrix(rng, sizes, n_features) -> tuple[FeatureMatrix, dict[str, int]]:
    """Doc ids in sorted order, one cluster per size, the clusters interleaved."""
    labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    doc_ids = tuple(f"d{i:03d}" for i in range(len(labels)))
    values = rng.uniform(size=(len(labels), n_features)) + 0.3 * labels[:, None]
    names = tuple(f"f{j:02d}" for j in range(n_features))
    return FeatureMatrix(doc_ids, names, values), dict(zip(doc_ids, labels.tolist()))


def test_eta_table_rows_equal_per_column_loop():
    # Clusters of 9 or more documents: a block reduced in another memory
    # order than a single column would move the sums by an ulp.
    rng = np.random.default_rng(41)
    for sizes in ([9, 12], [9, 10, 17], [20, 9, 11, 30]):
        matrix, assignment = _clustered_matrix(rng, sizes, 25)
        labels = [assignment[doc] for doc in matrix.doc_ids]
        df = (len(sizes) - 1, matrix.n_docs - len(sizes))
        names, values = eta_table(matrix, assignment)
        for name, row in zip(names, values.tolist()):
            column = matrix.values[:, matrix.feature_names.index(name)]
            assert tuple(row) == eta_of_feature(column, labels)[:2]
            eta2, f_stat = eta_per_feature(column, labels)
            assert tuple(row) == (eta2, f_pvalue(f_stat, *df))


def test_eta_table_bit_identical_under_row_permutation():
    rng = np.random.default_rng(43)
    spec = FeatureSpec(kind=FeatureKind.WORD_FORM)
    for _ in range(10):
        corpus, shuffled = parsed_both_ways(rng, random_sources(rng, 40))
        labels = rng.permutation(np.repeat([1, 2, 3], [9, 13, 18])).tolist()
        assignment = dict(zip(corpus.doc_ids, labels))
        want_names, want_values = eta_table(build_matrix(corpus, spec), assignment)
        names, values = eta_table(build_matrix(shuffled, spec), assignment)
        assert names == want_names
        assert np.array_equal(values, want_values)


def test_eta_csv_stores_underflow_as_zero(tmp_path):
    path = tmp_path / "eta.csv"
    write_eta_csv((("x",), np.array([[0.9, 1e-310]])), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "feature,eta_squared,p_value"
    assert lines[1] == "x,0.9,0"


# Names the csv module must quote, the empty name and non-ASCII ones.
ETA_NAMES = st.sampled_from(["a,b", 'q"x', "", "été", "名"]) | st.text(alphabet='ab,"q \n\ré', max_size=4)
ETA2 = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
# p equal to 0, the smallest subnormal and others under the 1e-300 floor, the floor itself.
P_VALUES = st.sampled_from([0.0, 5e-324, 1e-310, 9.9e-301, 1e-300, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def eta_tables(draw):
    names = tuple(draw(st.lists(ETA_NAMES, max_size=6, unique=True)))
    rows = [(draw(ETA2), draw(P_VALUES)) for _ in names]
    return names, np.array(rows, dtype=float).reshape(len(names), 2)


@settings(max_examples=60, deadline=None)
@given(eta_tables())
@example((("a,b", 'q"x', "", "été"), np.array([[0.0, 0.0], [1.0, 5e-324], [0.5, 1e-310], [1.0, 1.0]])))
def test_eta_csv_matches_the_per_cell_oracle(tmp_path_factory, table):
    directory = tmp_path_factory.mktemp("eta_csv")
    write_eta_csv(table, directory / "eta.csv")
    naive_write_eta_csv(table, directory / "oracle.csv")
    assert (directory / "eta.csv").read_bytes() == (directory / "oracle.csv").read_bytes()


def test_sweep_structure_on_synthetic_corpus(synth_corpus):
    truth = synth_corpus.alleged_authors()
    spec = FeatureSpec(
        kind=FeatureKind.FUNCTION_WORD, function_words=tuple(function_word_forms())
    )
    reference = run_pipeline(synth_corpus, spec, "reliable", "delta", 5)
    cutoffs = [0.01, 0.10, 0.25, 0.50, 0.75, 1.00]
    rows = robustness_sweep(reference, truth, cutoffs)
    assert [r.cutoff for r in rows] == cutoffs
    assert [r.n_features for r in rows] == [2, 11, 28, 55, 83, 110]
    for row in rows[1:]:
        assert row.purity_authors == 1.0  # high-separation corpus
    self_scored = cluster_purity(
        reference.assignment, {d: str(c) for d, c in reference.assignment.items()}
    )
    assert self_scored.purity == 1.0


def test_sweep_flags_insufficient_features(synth_corpus):
    truth = synth_corpus.alleged_authors()
    spec = FeatureSpec(
        kind=FeatureKind.FUNCTION_WORD, function_words=tuple(function_word_forms())
    )
    reference = run_pipeline(synth_corpus, spec, "reliable", "delta", 5)
    rows = robustness_sweep(reference, truth, [0.001])
    assert rows[0].purity_authors is None and rows[0].purity_reference is None


@pytest.mark.parametrize("measure", ["delta", "minmax"])
def test_sweep_drops_a_degenerate_column_as_top_selection_does(measure):
    rng = np.random.default_rng(17)
    values = np.column_stack([rng.uniform(0.01, 0.1, size=(12, 5)), np.full(12, 0.5)])
    matrix = FeatureMatrix(
        tuple(f"d{i:02d}" for i in range(12)), tuple(f"f{j}" for j in range(6)), values
    )
    truth = {doc: f"a{i % 3}" for i, doc in enumerate(matrix.doc_ids)}
    reference = cluster_selected(matrix, *apply_selection(matrix, ("top", 1.0), 1), measure, 3)
    reference_labels = {doc: str(label) for doc, label in reference.assignment.items()}
    cutoffs = (1.0, 0.5, 0.3, 0.1)  # 6, 3, 2 and 1 columns, the constant f5 ranked first
    rows = robustness_sweep(reference, truth, cutoffs)
    for cutoff, row in zip(cutoffs, rows):
        columns = select_top_frequency(matrix, cutoff)
        assert 5 in columns and row.n_features == len(columns)
        if len(columns) <= 2:  # the constant column leaves at most one usable
            assert row.purity_authors is None and row.purity_reference is None
            with pytest.raises(AnalysisError, match="fewer than 2 usable"):
                apply_selection(matrix, ("top", cutoff), 1)
            continue
        selected, report = apply_selection(matrix, ("top", cutoff), 1)
        assert "f5" not in selected.feature_names
        assignment = cluster_selected(matrix, selected, report, measure, 3).assignment
        assert row.purity_authors == cluster_purity(assignment, truth).purity
        assert row.purity_reference == cluster_purity(assignment, reference_labels).purity


def test_demo_minmax_reference_equals_the_minmax_pipeline(synth_dir, synth_corpus):
    words = load_word_list(synth_dir / "function_words.txt")
    spec = FeatureSpec(kind=FeatureKind.FUNCTION_WORD, function_words=words)
    fw = run_pipeline(synth_corpus, spec, "reliable", "delta", 5)
    minmax = cluster_selected(fw.matrix, fw.selected, fw.selection_report, "minmax", fw.k)
    want = run_pipeline(synth_corpus, spec, "reliable", "minmax", 5)
    assert minmax.selected.feature_names == want.selected.feature_names
    assert minmax.distance.values.tobytes() == want.distance.values.tobytes()
    assert minmax.dendrogram.merges == want.dendrogram.merges
    assert minmax.assignment == want.assignment


def test_sweep_csv_layout(tmp_path):
    from stylokit.evaluate import SweepRow

    rows = [
        SweepRow(cutoff=0.01, n_features=2, purity_authors=0.5, purity_reference=0.6),
        SweepRow(cutoff=0.10, n_features=11, purity_authors=None, purity_reference=None),
    ]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path, 104, 1.0)
    lines = path.read_text().splitlines()
    assert lines[0] == "cutoff,n_features,purity_authors,purity_reference"
    assert lines[1] == "0.01,2,0.5,0.6"
    assert lines[2] == "0.1,11,,"
    assert lines[3] == "RS,104,1,"
