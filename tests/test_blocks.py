"""The numeric layer in bounded blocks: distances, reliability selection and eta.

Each result must equal, bit for bit, the whole-matrix computation kept in
``_oracles`` (every reduction runs along one row either way), and each
call's working memory must stay below a bound that whole-matrix
temporaries would break.
"""

from __future__ import annotations

import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _oracles import whole_by_feature, whole_pairwise
from stylokit import metrics
from stylokit.errors import AnalysisError
from stylokit.evaluate import eta_table
from stylokit.features import BLOCK_FLOATS, FeatureMatrix
from stylokit.metrics import compute_distance
from stylokit.selection import select_reliable


def _matrix(values: np.ndarray) -> FeatureMatrix:
    return FeatureMatrix(
        tuple(f"d{i:04d}" for i in range(values.shape[0])),
        tuple(f"f{j:04d}" for j in range(values.shape[1])),
        values,
    )


def _outcome(call):
    """call()'s results as comparable bits, floats viewed as int64, or its error's repr."""
    try:
        results = call()
    except AnalysisError as exc:
        return repr(exc)
    return [
        (a.shape, a.view(np.int64).tolist() if a.dtype == np.float64 else a.tolist())
        if isinstance(a, np.ndarray) else a
        for a in results
    ]


def _selection(matrix: FeatureMatrix, min_doc_len: int) -> list[np.ndarray]:
    report = select_reliable(matrix, min_doc_len)
    return [report.per_feature, report.degenerate, report.retained]


def _results(matrix: FeatureMatrix, assignment: dict, min_doc_len: int) -> dict:
    return {
        "delta": _outcome(lambda: [compute_distance(matrix, "delta").values]),
        "minmax": _outcome(lambda: [compute_distance(matrix, "minmax").values]),
        "select": _outcome(lambda: _selection(matrix, min_doc_len)),
        "eta": _outcome(lambda: eta_table(matrix, assignment)),
    }


def _oracle_results(matrix: FeatureMatrix, assignment: dict, min_doc_len: int) -> dict:
    with patch.object(metrics, "_pairwise", whole_pairwise), \
            patch.object(FeatureMatrix, "by_feature", whole_by_feature):
        return _results(matrix, assignment, min_doc_len)


ROWS = BLOCK_FLOATS // 300  # later rows per _pairwise call at F = 300: 54
FEATURES = BLOCK_FLOATS // 48  # features per by_feature block at n = 48: 341
# Row 0 has one block of later rows at n = ROWS (one row short of full) and
# n = ROWS + 1 (full), two at n = ROWS + 2; at n = 48, FEATURES features fill
# one block and FEATURES + 1 spill one into a second.
EDGE_SHAPES = [
    (ROWS, 300), (ROWS + 1, 300), (ROWS + 2, 300), (130, 300),
    (48, FEATURES), (48, FEATURES + 1), (48, 700),
    (1, 300), (2, 300), (2, 700), (48, 1), (48, 2), (130, 1), (2, 1), (1, 2),
]


@st.composite
def blocked_inputs(draw):
    """A non-negative matrix, zero-heavy or not, with or without constant columns and
    all-zero rows, a labelling of its documents into 1-4 groups and a shortest length."""
    n, f = draw(st.one_of(
        st.sampled_from(EDGE_SHAPES), st.tuples(st.integers(2, 70), st.integers(1, 400))
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(0.0, 1.0, size=(n, f))
    values[rng.random((n, f)) < draw(st.sampled_from([0.0, 0.5, 0.95]))] = 0.0
    constant = rng.random(f) < draw(st.sampled_from([0.0, 0.0, 0.05]))
    values[:, constant] = rng.choice([0.0, 0.25], size=constant.sum())
    values[rng.random(n) < draw(st.sampled_from([0.0, 0.0, 0.1]))] = 0.0
    labels = rng.permutation(np.arange(n) % draw(st.sampled_from([1, 2, 3, 4, 4])))
    matrix = _matrix(values)
    assignment = {doc: int(label) for doc, label in zip(matrix.doc_ids, labels)}
    return matrix, assignment, draw(st.sampled_from([1, 20, 10**6]))


@settings(max_examples=80, deadline=None)
@given(blocked_inputs())
def test_blocked_results_equal_the_whole_matrix_oracles(inputs):
    assert _results(*inputs) == _oracle_results(*inputs)


def test_minmax_all_zero_documents_in_different_row_blocks_raise():
    values = np.random.default_rng(3).uniform(0.05, 1.0, size=(60, 300))
    values[[0, ROWS + 4]] = 0.0  # row 0's later rows come in blocks 1..ROWS and ROWS+1..59
    matrix = _matrix(values)
    message = "min/max distance undefined for two all-zero documents"
    with pytest.raises(AnalysisError, match=message):
        compute_distance(matrix, "minmax")
    assert _results(matrix, {}, 1)["minmax"] == _oracle_results(matrix, {}, 1)["minmax"]


def test_no_features_keep_their_result_or_error():
    matrix = FeatureMatrix(("d0", "d1", "d2"), (), np.zeros((3, 0)))
    assert [block.shape for block in matrix.by_feature()] == [(0, 3)]
    with pytest.raises(AnalysisError, match="no signal under selected features: d0"):
        compute_distance(matrix, "delta")
    with pytest.raises(AnalysisError, match="two all-zero documents"):
        compute_distance(matrix, "minmax")
    with pytest.raises(AnalysisError, match="selection eliminated all features"):
        select_reliable(matrix, 5)
    names, values = eta_table(matrix, {"d0": 1, "d1": 2, "d2": 2})
    assert names == () and values.shape == (0, 2)
    with pytest.raises(AnalysisError, match="at least 2 groups"):
        eta_table(matrix, {"d0": 1, "d1": 1, "d2": 1})


N_DOCS, N_FEATURES = 400, 300
MATRIX_BYTES = N_DOCS * N_FEATURES * 8  # B


@pytest.fixture(scope="module")
def big_matrix() -> FeatureMatrix:
    raw = np.random.default_rng(12).uniform(0.05, 1.0, size=(N_DOCS, N_FEATURES))
    return _matrix(raw / raw.sum(axis=1, keepdims=True))


def _peak_after_warm_up(call) -> int:
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("measure", ["delta", "minmax"])
def test_distance_holds_the_transformed_matrix_and_the_result(big_matrix, measure):
    """Whole-matrix pair temporaries took 2-3 B beyond the n x n result."""
    peak = _peak_after_warm_up(lambda: compute_distance(big_matrix, measure))
    assert peak - N_DOCS * N_DOCS * 8 < 1.5 * MATRIX_BYTES


def test_reliability_selection_holds_no_matrix_sized_array(big_matrix):
    assert _peak_after_warm_up(lambda: select_reliable(big_matrix, 10**6)) < 1.0 * MATRIX_BYTES


def test_eta_table_holds_no_matrix_sized_array(big_matrix):
    assignment = {doc: i % 7 for i, doc in enumerate(big_matrix.doc_ids)}
    assert _peak_after_warm_up(lambda: eta_table(big_matrix, assignment)) < 1.0 * MATRIX_BYTES


def test_subset_makes_one_copy(big_matrix):
    """A partial selection; keeping every column gives the matrix itself, with no copy."""
    columns = np.arange(1, N_FEATURES)
    assert big_matrix.subset(columns).values.flags.c_contiguous
    assert _peak_after_warm_up(lambda: big_matrix.subset(columns)) < 1.5 * MATRIX_BYTES
