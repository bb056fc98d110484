"""Agglomerative clustering with Ward's criterion on a dissimilarity matrix.

One update ships, R's ward.D2 ("ward2"): the Lance-Williams update with
Ward coefficients on squared dissimilarities, seeded at d^2/2 so the
tracked value of a merge is exactly (n1*n2/(n1+n2)) * d^2(G1, G2) -- the
variance increase for Euclidean input -- and heights are its square roots.
R's ward.D, the update on unsquared dissimilarities, is absent because it
does not implement Ward's criterion (Murtagh & Legendre 2014).

The merge state is one n x n matrix with a slot per live cluster. Each
step takes the matrix minimum; a merge writes the Lance-Williams row of
the new cluster into one partner's slot and retires the other slot with
+inf, so no pair is ever scanned in Python and nothing grows.

Ties on the minimum (exact equality, no tolerance) go to the first
minimum in row-major order. The documents come in doc-id order and a
merge keeps the lower of its two slots, so each slot's index is its
cluster's smallest document: of the tied pairs, the one whose two
smallest doc ids, taken as (smaller, larger), come first wins.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .corpus import open_output
from .errors import AnalysisError
from .features import FLOAT_FORMAT, check_row_order
from .metrics import DistanceMatrix


ClusterAssignment = dict[str, int]


@dataclass(frozen=True)
class Merge:
    left: int
    right: int
    height: float


@dataclass(frozen=True)
class Dendrogram:
    """Merge tree over documents: leaves 0..n-1, merge t creates node n+t."""

    leaves: tuple[str, ...]
    merges: tuple[Merge, ...]
    ac: float

    def __post_init__(self) -> None:
        if len(self.merges) != len(self.leaves) - 1:
            raise ValueError("a dendrogram over n leaves has exactly n-1 merges")
        check_row_order(self.leaves)

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)


def ward_cluster(dist: DistanceMatrix, variant: str = "ward2") -> Dendrogram:
    """Greedy minimum-variance merging via the Lance-Williams recurrence.

    Raises on non-square, non-symmetric or non-finite input. Heights are
    guaranteed non-decreasing (asserted) because the Ward coefficients
    satisfy the monotonicity condition. ``variant`` accepts only "ward2".
    """
    if variant != "ward2":
        raise ValueError(f"unknown linkage variant: {variant!r}")
    ids = dist.doc_ids
    n = len(ids)
    if n < 2:
        raise AnalysisError("clustering needs at least 2 documents")
    values = np.asarray(dist.values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise AnalysisError("dissimilarity matrix has non-finite entries")
    if not np.array_equal(values, values.T):
        raise AnalysisError("dissimilarity matrix is not symmetric")
    if np.any(np.diag(values) != 0.0):
        raise AnalysisError("dissimilarity matrix has a non-zero diagonal")

    # Slot i holds one live cluster: its row of merge values, its size and
    # its dendrogram node. The diagonal and every retired slot hold +inf,
    # so the minimum is always a live pair.
    state = np.multiply(values, values)
    state /= 2.0  # in place: one n x n array at a time, not two
    np.fill_diagonal(state, np.inf)
    size = np.ones(n)
    node = list(range(n))
    merges: list[Merge] = []
    last_height = -math.inf

    for step in range(n - 1):
        # state is symmetric, so its first minimum in row-major order has a < b.
        a, b = divmod(int(state.argmin()), n)
        best_value = state[a, b]
        if best_value < -1e-12:
            raise AnalysisError("Ward linkage produced a negative merge value")
        best_value = max(best_value, 0.0)
        height = math.sqrt(best_value)
        assert height >= last_height - 1e-12, "Ward heights must be non-decreasing"
        last_height = max(last_height, height)

        row = ((size[a] + size) * state[a] + (size[b] + size) * state[b]
               - size * state[a, b]) / (size[a] + size[b] + size)
        row[a] = np.inf
        state[a] = state[:, a] = row
        state[b] = state[:, b] = np.inf
        size[a] += size[b]
        merges.append(Merge(left=node[a], right=node[b], height=height))
        node[a] = n + step

    dend = Dendrogram(leaves=ids, merges=tuple(merges), ac=0.0)
    return replace(dend, ac=agglomerative_coefficient(dend))


def agglomerative_coefficient(dend: Dendrogram) -> float:
    """Mean over leaves of 1 - (height of the leaf's first merge) / (final height).

    Dividing by the final merge height keeps the coefficient in [0, 1] and
    makes it invariant under uniform scaling of the input dissimilarities.
    """
    n = dend.n_leaves
    final_height = dend.merges[-1].height
    first: dict[int, float] = {}
    for merge in dend.merges:
        for child in (merge.left, merge.right):
            if child < n:
                first[child] = merge.height
    if final_height == 0.0:
        warnings.warn("all merge heights are zero; agglomerative coefficient set to 0")
        return 0.0
    return float(np.mean([1.0 - first[i] / final_height for i in range(n)]))


def cut(dend: Dendrogram, k: int) -> ClusterAssignment:
    """Flat clustering from the dendrogram by removing the k-1 last merges.

    Heights are non-decreasing, so the last merges are the highest, with
    height ties resolved by merge order. Clusters are labeled 1..k in
    order of their smallest member doc id.
    """
    n = dend.n_leaves
    if not 1 <= k <= n:
        raise AnalysisError(f"cut size must lie in [1, {n}], got {k}")
    # Each node's cluster is its topmost ancestor under the n - k kept merges.
    top = list(range(2 * n - k))
    for t in reversed(range(n - k)):
        top[dend.merges[t].left] = top[dend.merges[t].right] = top[n + t]
    # The leaves are in doc-id order, so labels go out by each cluster's first doc.
    labels: dict[int, int] = {}
    return {doc: labels.setdefault(top[i], len(labels) + 1) for i, doc in enumerate(dend.leaves)}


def _newick_label(name: str) -> str:
    if any(c in name for c in " \t(),:;'[]"):
        return "'" + name.replace("'", "''") + "'"
    return name


def to_newick(dend: Dendrogram) -> str:
    """Newick string with branch lengths equal to height differences.

    One pass over the merges, which come after both their children, so
    the tree's depth costs no recursion.
    """
    n = dend.n_leaves
    text = {i: _newick_label(leaf) for i, leaf in enumerate(dend.leaves)}
    height = [0.0] * n + [merge.height for merge in dend.merges]

    def branch(child: int, parent: int) -> str:
        return f"{text.pop(child)}:{FLOAT_FORMAT % (height[parent] - height[child])}"

    for t, merge in enumerate(dend.merges):
        text[n + t] = f"({branch(merge.left, n + t)},{branch(merge.right, n + t)})"
    return text[2 * n - 2] + ";\n"


def to_dot(dend: Dendrogram) -> str:
    """Graphviz rendering of the merge tree, top node last; labels escape backslash and quote."""
    n = dend.n_leaves
    lines = ["graph dendrogram {", "  node [shape=box, fontsize=10];"]
    for i, doc in enumerate(dend.leaves):
        label = doc.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{label}"];')
    for t, merge in enumerate(dend.merges):
        node = n + t
        height = format(merge.height, ".6g")
        lines.append(f'  n{node} [label="h={height}", shape=ellipse];')
    for t, merge in enumerate(dend.merges):
        node = n + t
        lines.append(f"  n{node} -- n{merge.left};")
        lines.append(f"  n{node} -- n{merge.right};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def leaf_order(dend: Dendrogram) -> list[int]:
    """Display order of leaves: depth-first, left child before right, built merge by merge."""
    n = dend.n_leaves
    order = {i: [i] for i in range(n)}
    for t, merge in enumerate(dend.merges):
        order[n + t] = order.pop(merge.left) + order.pop(merge.right)
    return order[2 * n - 2]


def write_text(content: str, path: str | Path) -> None:
    with open_output(path) as fh:
        fh.write(content)
