"""Correctness checks on op outputs, each recomputed independently of stylokit.

    python3 checks.py cluster OUT --k K --docs N
    python3 checks.py families OUT [--same-as CLUSTER_OUT]
    python3 checks.py sweep OUT
    python3 checks.py stress OUT --matrix X.npy --k K

Prints a JSON list of problems; an empty list means the op's outputs are
correct. Distances are recomputed with plain numpy from the files the op
wrote (or, for the Ward stress op, from the input matrix). The checks run
in their own process so that the benchmark's parent process stays small
and adds nothing to the peak RSS its children report.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from driver import FAMILIES

CLUSTER_FILES = (
    "matrix.csv", "selection.csv", "distance.csv", "dendrogram.newick",
    "dendrogram.dot", "dendrogram.svg", "assignment.csv", "summary.json", "run.json",
)
SWEEP_CUTOFFS = (0.01, 0.10, 0.25, 0.50, 0.75, 1.00)
REL_TOL = 1e-9
# CSV values carry 12 significant digits, so a recompute from matrix.csv
# agrees with distance.csv only to about that precision.
CSV_TOL = 1e-8


def _read_square(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0][1:], rows[1:]
    return header, [r[0] for r in body], np.array([[float(v) for v in r[1:]] for r in body])


def delta_distances(values: np.ndarray) -> np.ndarray:
    """z-score columns (n-1), L2-normalise rows, Manhattan distance between rows."""
    z = (values - values.mean(axis=0)) / values.std(axis=0, ddof=1)
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return np.stack([np.abs(z - row).sum(axis=1) for row in z])


def minmax_distances(values: np.ndarray) -> np.ndarray:
    """Divide columns by their sd, then 1 - sum(min)/sum(max) between rows."""
    t = values / values.std(axis=0, ddof=1)
    return np.stack(
        [1.0 - np.minimum(t, row).sum(axis=1) / np.maximum(t, row).sum(axis=1) for row in t]
    )


def _close(name: str, got: np.ndarray, want: np.ndarray, tol: float) -> list[str]:
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    scale = max(float(np.abs(want).max()), 1e-300)
    err = float(np.abs(got - want).max()) / scale
    return [] if err <= tol else [f"{name}: off by {err:.3g} relative to an independent recompute"]


def _missing(out: Path, names) -> list[str]:
    return [f"missing output {out / n}" for n in names if not (out / n).is_file()]


def check_distance_csv(out: Path) -> list[str]:
    """distance.csv against a recompute from matrix.csv restricted to selection.csv."""
    features, docs, values = _read_square(out / "matrix.csv")
    with open(out / "selection.csv", encoding="utf-8", newline="") as fh:
        retained = {row["feature"] for row in csv.DictReader(fh) if row["retained"] == "true"}
    keep = [j for j, name in enumerate(features) if name in retained]
    header, dist_docs, dist = _read_square(out / "distance.csv")
    if header != docs or dist_docs != docs:
        return [f"{out}/distance.csv: document order differs from matrix.csv"]
    return _close(f"{out}/distance.csv", dist, delta_distances(values[:, keep]), CSV_TOL)


def check_cluster(out: Path, k: int, docs: int) -> list[str]:
    problems = _missing(out, CLUSTER_FILES)
    if problems:
        return problems
    problems += check_distance_csv(out)
    with open(out / "assignment.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != docs or len({r["cluster"] for r in rows}) != k:
        problems.append(f"{out}/assignment.csv: expected {docs} docs in {k} clusters")
    with open(out / "selection.csv", encoding="utf-8", newline="") as fh:
        kept = sum(row["retained"] == "true" for row in csv.DictReader(fh))
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    if summary.get("n_features") != kept:
        problems.append(f"{out}/summary.json: n_features differs from selection.csv")
    return problems


def check_families(out: Path, cluster_out: Path | None) -> list[str]:
    """Every family's distances; affix files byte-identical to the cluster op's."""
    names = [f"{f}/{n}" for f in FAMILIES for n in ("matrix.csv", "selection.csv", "distance.csv")]
    problems = _missing(out, names + ["fw/eta.csv", "summary.json"])
    if problems:
        return problems
    for family in FAMILIES:
        problems += check_distance_csv(out / family)
    if cluster_out is not None:
        for name in ("matrix.csv", "selection.csv", "distance.csv"):
            if (out / "affix" / name).read_bytes() != (cluster_out / name).read_bytes():
                problems.append(f"{out}/affix/{name} differs from the cluster op's {name}")
    return problems


def check_sweep(out: Path) -> list[str]:
    problems = _missing(out, ("sweep.csv", "run.json"))
    if problems:
        return problems
    with open(out / "sweep.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(SWEEP_CUTOFFS) + 1 or rows[-1]["cutoff"] != "RS":
        return [f"{out}/sweep.csv: expected one row per cutoff plus RS, got {len(rows)} rows"]
    cutoffs = [float(r["cutoff"]) for r in rows[:-1]]
    if any(not math.isclose(a, b) for a, b in zip(cutoffs, SWEEP_CUTOFFS)):
        problems.append(f"{out}/sweep.csv: cutoffs {cutoffs}")
    counts = [int(r["n_features"]) for r in rows[:-1]]
    if counts != sorted(counts):
        problems.append(f"{out}/sweep.csv: n_features falls as the cutoff rises")
    purities = [float(r["purity_authors"]) for r in rows if r["purity_authors"]]
    if not purities or any(not 0.0 < p <= 1.0 for p in purities):
        problems.append(f"{out}/sweep.csv: purity outside (0, 1]")
    return problems


def check_stress(out: Path, matrix: np.ndarray, k: int) -> list[str]:
    """Distances against a numpy recompute; Ward heights against scipy's ward linkage."""
    from scipy.cluster.hierarchy import linkage
    from scipy.spatial.distance import squareform

    names = [f"{m}_{part}.npy" for m in ("delta", "minmax") for part in ("distance", "heights", "labels")]
    problems = _missing(out, names + ["eta.csv", "summary.json"])
    if problems:
        return problems
    values = matrix[:, matrix.std(axis=0, ddof=1) > 0.0]
    for measure, recompute in (("delta", delta_distances), ("minmax", minmax_distances)):
        dist = np.load(out / f"{measure}_distance.npy")
        problems += _close(f"{out}/{measure}_distance.npy", dist, recompute(values), REL_TOL)
        # ward2 reports sqrt of half the variance increase; scipy reports sqrt of all of it.
        heights = np.sort(np.load(out / f"{measure}_heights.npy")) * math.sqrt(2.0)
        reference = np.sort(linkage(squareform(dist, checks=False), method="ward")[:, 2])
        if heights.shape != reference.shape or not np.allclose(heights, reference, rtol=REL_TOL, atol=0.0):
            problems.append(f"{out}/{measure}_heights.npy: differs from scipy's ward linkage")
        labels = np.load(out / f"{measure}_labels.npy")
        if labels.shape != (matrix.shape[0],) or len(np.unique(labels)) != k:
            problems.append(f"{out}/{measure}_labels.npy: expected {k} clusters")
    with open(out / "eta.csv", encoding="utf-8", newline="") as fh:
        eta = [float(r["eta_squared"]) for r in csv.DictReader(fh)]
    if len(eta) != values.shape[1] or any(not 0.0 <= e <= 1.0 for e in eta):
        problems.append(f"{out}/eta.csv: expected {values.shape[1]} rows of eta^2 in [0, 1]")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("op", choices=("cluster", "families", "sweep", "stress"))
    parser.add_argument("out", type=Path)
    parser.add_argument("--k", type=int, default=0)
    parser.add_argument("--docs", type=int, default=0)
    parser.add_argument("--matrix", type=Path)
    parser.add_argument("--same-as", type=Path, help="cluster op outputs the affix family must equal")
    args = parser.parse_args(argv)
    if args.op == "cluster":
        problems = check_cluster(args.out, args.k, args.docs)
    elif args.op == "families":
        problems = check_families(args.out, args.same_as)
    elif args.op == "sweep":
        problems = check_sweep(args.out)
    else:
        problems = check_stress(args.out, np.load(args.matrix), args.k)
    print(json.dumps(problems))
    return 0


if __name__ == "__main__":
    sys.exit(main())
