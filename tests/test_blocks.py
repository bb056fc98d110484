"""The numeric layer in bounded blocks: distances, reliability selection and eta.

Distances transform the matrix one row block at a time and score each
block's rows against later blocks; selection and eta read the matrix a
block of features at a time. Each result must equal, bit for bit, the
whole-matrix computation kept in ``_oracles`` (every step is elementwise
or reduces along one row either way), and each call's working memory must
stay below a bound that a whole transformed matrix or whole-matrix
temporaries would break.
"""

from __future__ import annotations

import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _oracles import whole_by_feature, whole_distance
from stylokit import metrics
from stylokit.errors import AnalysisError
from stylokit.evaluate import eta_table
from stylokit.features import BLOCK_FLOATS, FeatureMatrix, row_blocks
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


def _distance(matrix: FeatureMatrix, measure: str) -> np.ndarray:
    return compute_distance(matrix, measure).values


def _results(matrix: FeatureMatrix, assignment: dict, min_doc_len: int, distance=_distance) -> dict:
    return {
        "delta": _outcome(lambda: [distance(matrix, "delta")]),
        "minmax": _outcome(lambda: [distance(matrix, "minmax")]),
        "select": _outcome(lambda: _selection(matrix, min_doc_len)),
        "eta": _outcome(lambda: eta_table(matrix, assignment)),
    }


def _oracle_results(matrix: FeatureMatrix, assignment: dict, min_doc_len: int) -> dict:
    with patch.object(FeatureMatrix, "by_feature", whole_by_feature):
        return _results(matrix, assignment, min_doc_len, whole_distance)


ROWS = BLOCK_FLOATS // 300  # rows per distance block at F = 300: 54
FEATURES = BLOCK_FLOATS // 48  # features per by_feature block at n = 48: 341
# Distance blocks end on the last row, so only the first is partial: at F = 300,
# n = ROWS and 2 ROWS are one and two full blocks, n = ROWS + 1, 2 ROWS + 1 and
# 3 ROWS + 1 put one row before them, ROWS + 2 and 2 ROWS + 2 two rows, and 130
# 22 rows; BLOCK_FLOATS + 1 features make one row per block. At n = 48, FEATURES
# features fill one by_feature block and FEATURES + 1 spill one into a second.
EDGE_SHAPES = [
    (ROWS, 300), (ROWS + 1, 300), (ROWS + 2, 300), (130, 300),
    (2 * ROWS, 300), (2 * ROWS + 1, 300), (2 * ROWS + 2, 300), (3 * ROWS + 1, 300),
    (5, BLOCK_FLOATS + 1), (48, FEATURES), (48, FEATURES + 1), (48, 700),
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


@pytest.mark.parametrize("shape", EDGE_SHAPES, ids=lambda shape: "x".join(map(str, shape)))
def test_each_edge_shape_equals_the_whole_matrix_oracles(shape):
    values = np.random.default_rng(5).uniform(0.05, 1.0, size=shape)
    values[values < 0.3] = 0.0
    matrix = _matrix(values)
    assignment = {doc: i % 3 for i, doc in enumerate(matrix.doc_ids)}
    assert _results(matrix, assignment, 20) == _oracle_results(matrix, assignment, 20)


def test_delta_names_the_first_document_without_signal_in_a_later_row_block():
    """Rows 100 and 60, both in the last block at n = 2 ROWS + 2, sit at the column means:
    the other rows pair up as 0.5 -+ d in quarters, so every mean is exactly 0.5."""
    half = np.random.default_rng(4).choice([0.25, 0.5, 0.75], size=(ROWS, 300))
    values = np.vstack([half, 1.0 - half, np.full((2, 300), 0.5)])
    values[[60, 100, ROWS * 2, ROWS * 2 + 1]] = values[[ROWS * 2, ROWS * 2 + 1, 60, 100]]
    matrix = _matrix(values)
    with pytest.raises(AnalysisError, match="no signal under selected features: d0060$"):
        compute_distance(matrix, "delta")
    assert _results(matrix, {}, 1)["delta"] == _oracle_results(matrix, {}, 1)["delta"]


@pytest.mark.parametrize("n", [2, ROWS, ROWS + 1, 2 * ROWS + 1, 130])
def test_each_row_takes_one_pair_call_per_block_of_its_later_rows(n):
    """Blocks end on the last row, so row i is scored in ceil((n - 1 - i) / ROWS) calls, as
    if its later rows were cut into blocks from row i + 1."""
    values = np.zeros((n, 300))
    values[:, 0] = np.arange(n)
    calls = [0] * n

    def row_fn(a, rest):
        calls[int(a[0])] += 1
        return rest[:, 0] - a[0]

    out = metrics._pairwise(lambda lo, hi: values[lo:hi], row_blocks(n, 300), row_fn)
    assert calls == [-(-(n - 1 - i) // ROWS) for i in range(n)]
    assert np.array_equal(out, np.abs(values[:, 0][None, :] - values[:, 0][:, None]))


def test_minmax_all_zero_documents_in_different_row_blocks_raise():
    values = np.random.default_rng(3).uniform(0.05, 1.0, size=(60, 300))
    values[[0, ROWS + 4]] = 0.0  # rows 0 and 58, in the row blocks 0..5 and 6..59
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
def test_distance_holds_the_result_and_a_few_row_blocks(big_matrix, measure):
    """A whole transformed copy of the matrix took 1.2-1.3 B beyond the n x n result, and
    whole-matrix pair temporaries 2-3 B; a few blocks of BLOCK_FLOATS values take about 0.5 B."""
    peak = _peak_after_warm_up(lambda: compute_distance(big_matrix, measure))
    assert peak - N_DOCS * N_DOCS * 8 < 0.75 * MATRIX_BYTES


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
