from __future__ import annotations

import math
import tracemalloc
import xml.etree.ElementTree as ET
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import ess_ward, leaf_members, naive_leaf_order, naive_to_newick, naive_ward
from conftest import parsed_both_ways, random_sources
from stylokit.cluster import (
    Dendrogram,
    Merge,
    agglomerative_coefficient,
    cut,
    leaf_order,
    to_dot,
    to_newick,
    ward_cluster,
)
from stylokit.errors import AnalysisError
from stylokit.features import FeatureKind, FeatureSpec, build_matrix
from stylokit.metrics import DistanceMatrix, Measure, compute_distance
from stylokit.render import dendrogram_svg


def _dist(values, ids=None) -> DistanceMatrix:
    values = np.asarray(values, dtype=float)
    ids = ids or tuple(f"d{i:02d}" for i in range(values.shape[0]))
    return DistanceMatrix(tuple(ids), values, Measure.BURROWS_DELTA)


def _random_dist(rng, n) -> DistanceMatrix:
    m = rng.uniform(0.1, 2.0, size=(n, n))
    m = (m + m.T) / 2.0
    np.fill_diagonal(m, 0.0)
    return _dist(m)


def _grid_dist(rng, n) -> DistanceMatrix:
    points = rng.integers(0, 3, size=(n, 2))
    return _dist(np.abs(points[:, None, :] - points[None, :, :]).sum(-1))


def _hand_dendrogram() -> Dendrogram:
    # Four leaves a,b,c,d: (a,b)@1, (c,d)@1, then everything @4.
    return Dendrogram(
        leaves=("a", "b", "c", "d"),
        merges=(
            Merge(left=0, right=1, height=1.0),
            Merge(left=2, right=3, height=1.0),
            Merge(left=4, right=5, height=4.0),
        ),
        ac=0.75,
    )


def test_two_singletons_squared_linkage_is_half_squared_distance():
    d = 1.7
    dend = ward_cluster(_dist([[0.0, d], [d, 0.0]]))
    assert len(dend.merges) == 1
    assert dend.merges[0].height ** 2 == pytest.approx(d * d / 2.0, abs=1e-12)


def test_ward_cluster_accepts_only_ward2():
    # R's ward.D is not Ward's criterion and is refused; "ward2" stays
    # accepted because the benchmark driver passes it positionally.
    dist = _random_dist(np.random.default_rng(5), 6)
    assert ward_cluster(dist, "ward2") == ward_cluster(dist)
    with pytest.raises(ValueError, match="unknown linkage variant"):
        ward_cluster(dist, "ward1")


def test_three_equidistant_points_tie_break_and_growth():
    m = np.full((3, 3), 1.0)
    np.fill_diagonal(m, 0.0)
    dend = ward_cluster(_dist(m, ids=("a", "b", "c")))
    first = dend.merges[0]
    merged = {dend.leaves[first.left], dend.leaves[first.right]}
    assert merged == {"a", "b"}  # the pair of the two smallest doc ids wins
    # Equilateral input: absorbing the third point costs exactly as much
    # as the first pair, so the heights coincide rather than grow.
    assert dend.merges[1].height >= dend.merges[0].height
    assert dend.merges[0].height == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    assert dend.merges[1].height == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_tie_goes_to_the_smallest_first_docs_of_the_two_clusters():
    # After (b, d) at 1, merging a with (b, d) and a with c both cost
    # exactly 112.5. The pair whose clusters' first docs come first, (a, b)
    # before (a, c), wins, even though {a, c} has the smaller largest doc.
    m = np.array([[0, 13, 15, 13], [13, 0, 20, 1], [15, 20, 0, 20], [13, 1, 20, 0]])
    dend = ward_cluster(_dist(m, ids=("a", "b", "c", "d")))
    assert [leaf_members(dend, 4 + t) for t in range(3)] == [(1, 3), (0, 1, 3), (0, 1, 2, 3)]
    assert dend.merges[1] == Merge(left=0, right=4, height=math.sqrt(112.5))


def test_matches_naive_recompute_oracle():
    rng = np.random.default_rng(101)
    uniform = [_random_dist(rng, int(rng.integers(8, 13))) for _ in range(25)]
    # Cityblock distances on a 3x3 integer grid tie often, so the tie-break
    # also runs between merged clusters, which uniform inputs never reach.
    grid = [_grid_dist(rng, int(rng.integers(6, 13))) for _ in range(60)]
    for dist in uniform + grid:
        n = dist.n_docs
        dend = ward_cluster(dist)
        oracle = naive_ward(dist.values, dist.doc_ids)
        for t, merge in enumerate(dend.merges):
            members, height = oracle[t]
            assert leaf_members(dend, n + t) == members
            assert merge.height == pytest.approx(height, abs=1e-10)


def test_squared_variant_equals_explicit_variance_minimization():
    rng = np.random.default_rng(202)
    for _ in range(10):
        n = int(rng.integers(6, 11))
        points = rng.normal(size=(n, 3))
        gaps = points[:, None, :] - points[None, :, :]
        dist = _dist(np.sqrt((gaps**2).sum(-1)))
        dend = ward_cluster(dist)
        oracle = ess_ward(points, dist.doc_ids)
        for t, merge in enumerate(dend.merges):
            members, height = oracle[t]
            assert leaf_members(dend, n + t) == members
            assert merge.height == pytest.approx(height, abs=1e-8)


def test_matches_scipy_topology_up_to_scale():
    scipy_hier = pytest.importorskip("scipy.cluster.hierarchy")
    from scipy.spatial.distance import squareform

    rng = np.random.default_rng(303)
    points = rng.normal(size=(10, 4))
    gaps = points[:, None, :] - points[None, :, :]
    values = np.sqrt((gaps**2).sum(-1))
    dist = _dist(values)
    dend = ward_cluster(dist)
    linkage = scipy_hier.linkage(squareform(values, checks=False), method="ward")
    ours = {leaf_members(dend, 10 + t): dend.merges[t].height for t in range(9)}
    n = 10
    members = [(i,) for i in range(n)]
    for row in linkage:
        a, b = int(row[0]), int(row[1])
        merged = tuple(sorted(members[a] + members[b]))
        members.append(merged)
        assert merged in ours
        assert ours[merged] * math.sqrt(2.0) == pytest.approx(row[2], rel=1e-9)


def test_permutation_invariance():
    rng = np.random.default_rng(404)
    spec = FeatureSpec(kind=FeatureKind.LEMMA)
    for _ in range(5):
        corpus, shuffled = parsed_both_ways(rng, random_sources(rng, 9))
        first, second = (
            ward_cluster(compute_distance(build_matrix(c, spec), "delta"))
            for c in (corpus, shuffled)
        )
        assert first == second


def test_heights_non_decreasing_on_random_inputs():
    rng = np.random.default_rng(505)
    for _ in range(20):
        dend = ward_cluster(_random_dist(rng, int(rng.integers(4, 12))))
        heights = [m.height for m in dend.merges]
        assert all(a <= b + 1e-12 for a, b in zip(heights, heights[1:]))


@pytest.mark.parametrize("n", [100, 200])
def test_ward_holds_one_n_by_n_array(n):
    """Below numpy's 256 KiB temporary elision (n = 100) too: the squares are halved in place."""
    m = np.random.default_rng(5).uniform(0.1, 2.0, size=(n, n))
    m = (m + m.T) / 2.0
    np.fill_diagonal(m, 0.0)
    dist = _dist(m, tuple(f"d{i:03d}" for i in range(n)))
    tracemalloc.start()
    try:
        ward_cluster(dist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * n * 8


def test_rejects_bad_matrices():
    with pytest.raises(AnalysisError, match="symmetric"):
        ward_cluster(_dist([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(AnalysisError, match="finite"):
        ward_cluster(_dist([[0.0, np.inf], [np.inf, 0.0]]))
    with pytest.raises(AnalysisError, match="diagonal"):
        ward_cluster(_dist([[1.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(AnalysisError, match="2 documents"):
        ward_cluster(_dist([[0.0]]))


def test_ac_two_leaves_is_zero():
    dend = ward_cluster(_dist([[0.0, 1.0], [1.0, 0.0]]))
    assert dend.ac == 0.0


def test_ac_hand_built_four_leaf_case():
    assert agglomerative_coefficient(_hand_dendrogram()) == pytest.approx(0.75, abs=1e-12)


def test_ac_tight_pairs_approach_one():
    eps, big = 1e-6, 10.0
    dend = Dendrogram(
        leaves=("a", "b", "c", "d"),
        merges=(
            Merge(0, 1, eps),
            Merge(2, 3, eps),
            Merge(4, 5, big),
        ),
        ac=0.0,
    )
    assert agglomerative_coefficient(dend) == pytest.approx(1.0, abs=1e-6)


def test_ac_invariant_under_uniform_scaling():
    rng = np.random.default_rng(606)
    dist = _random_dist(rng, 8)
    scaled = DistanceMatrix(dist.doc_ids, dist.values * 37.0, dist.measure)
    assert ward_cluster(dist).ac == pytest.approx(ward_cluster(scaled).ac, abs=1e-12)


def test_ac_within_unit_interval_on_random_inputs():
    rng = np.random.default_rng(707)
    for _ in range(20):
        dend = ward_cluster(_random_dist(rng, int(rng.integers(3, 10))))
        assert 0.0 <= dend.ac <= 1.0


def test_ac_all_identical_points_flagged_zero():
    with pytest.warns(UserWarning, match="zero"):
        dend = ward_cluster(_dist(np.zeros((3, 3))))
    with pytest.warns(UserWarning, match="zero"):
        assert agglomerative_coefficient(dend) == 0.0


def test_cut_extremes():
    dend = _hand_dendrogram()
    assert cut(dend, 1) == {"a": 1, "b": 1, "c": 1, "d": 1}
    assert cut(dend, 4) == {"a": 1, "b": 2, "c": 3, "d": 4}


def test_cut_removes_highest_merge():
    dend = Dendrogram(
        leaves=("a", "b", "c", "d"),
        merges=(Merge(0, 1, 1.0), Merge(2, 3, 2.0), Merge(4, 5, 5.0)),
        ac=0.0,
    )
    assert cut(dend, 2) == {"a": 1, "b": 1, "c": 2, "d": 2}


def test_cut_refines_coarser_cut():
    rng = np.random.default_rng(808)
    dend = ward_cluster(_random_dist(rng, 10))
    for k in range(2, 11):
        fine = cut(dend, k)
        coarse = cut(dend, k - 1)
        parents = {}
        for doc, label in fine.items():
            parents.setdefault(label, set()).add(coarse[doc])
        assert all(len(p) == 1 for p in parents.values())


def test_cut_rejects_out_of_range_k():
    dend = _hand_dendrogram()
    with pytest.raises(AnalysisError):
        cut(dend, 0)
    with pytest.raises(AnalysisError):
        cut(dend, 5)


def test_newick_structure_and_determinism():
    rng = np.random.default_rng(909)
    dist = _random_dist(rng, 5)
    dend = ward_cluster(dist)
    newick = to_newick(dend)
    assert newick == to_newick(dend)
    assert newick.endswith(";\n")
    assert newick.count("(") == 4  # n-1 merges
    for doc in dist.doc_ids:
        assert doc in newick


def test_newick_branch_lengths_sum_to_root_height():
    dend = _hand_dendrogram()
    newick = to_newick(dend)
    assert newick == "((a:1,b:1):3,(c:1,d:1):3);\n"


def test_newick_quotes_awkward_labels():
    dend = Dendrogram(
        leaves=("a b", "c,d"),
        merges=(Merge(0, 1, 1.0),),
        ac=0.0,
    )
    newick = to_newick(dend)
    assert "'a b'" in newick and "'c,d'" in newick


def test_dot_output_shape():
    dend = _hand_dendrogram()
    dot = to_dot(dend)
    assert dot.startswith("graph dendrogram {")
    assert dot.count(" -- ") == 2 * len(dend.merges)
    assert dot == to_dot(dend)


def test_leaf_order_covers_all_leaves():
    rng = np.random.default_rng(111)
    dend = ward_cluster(_random_dist(rng, 7))
    order = leaf_order(dend)
    assert sorted(order) == list(range(7))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**32 - 1),
       st.booleans())
def test_newick_and_leaf_order_match_the_recursive_oracle(n, seed, grid):
    # Grid points give many tied distances, so the trees take every shape.
    rng = np.random.default_rng(seed)
    dist = _grid_dist(rng, n) if grid else _random_dist(rng, n)
    # Every height is zero exactly when every distance is, as all points coincide.
    all_zero = not dist.values.any()
    with pytest.warns(UserWarning, match="all merge heights are zero") if all_zero else nullcontext():
        dend = ward_cluster(dist)
    assert to_newick(dend) == naive_to_newick(dend)
    assert leaf_order(dend) == naive_leaf_order(dend)


@pytest.mark.parametrize("leaf_first", [False, True], ids=["left-deep", "right-deep"])
def test_deep_caterpillar_tree_renders_without_recursion(leaf_first):
    # Each merge joins the last cluster and the next leaf: 1999 levels deep.
    n = 2000
    merges = []
    for t in range(n - 1):
        pair = (0, 1) if t == 0 else (n + t - 1, t + 1)
        left, right = pair[::-1] if leaf_first else pair
        merges.append(Merge(left=left, right=right, height=float(t + 1)))
    dend = Dendrogram(leaves=tuple(f"d{i:04d}" for i in range(n)), merges=tuple(merges), ac=0.0)

    newick = to_newick(dend)
    assert newick.count("(") == n - 1 and newick.endswith(";\n")
    assert f"d{n - 1:04d}:{n - 1}" in newick  # the last leaf joins at the root's height
    order = leaf_order(dend)
    assert order == (list(range(n))[::-1] if leaf_first else list(range(n)))
    svg = dendrogram_svg(dend, {}, "caterpillar")
    rows = ET.fromstring(svg).findall("{http://www.w3.org/2000/svg}text")
    assert [row.text for row in rows] == ["caterpillar", *dend.leaves]
