"""Seeded inputs for the benchmark workloads.

    python3 inputs.py --workload paper --scale full --seed 1 --out DIR

Corpora come from ``stylokit.synth.generate_corpus``; the Ward stress
matrix is drawn here from numpy's PCG64. The program under test only
ever sees the files written by this module. The command prints the
sizes the results record as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

# Sizes per scale. "full" is what the benchmark measures; "tiny" keeps the
# self-tests fast while touching every code path.
SIZES = {
    "full": {
        "paper": {"authors": 8, "plays": 6, "min_tokens": 15000},
        "wide": {"authors": 20, "plays": 10, "min_tokens": 5000},
        "ward": {"docs": 400, "features": 300, "groups": 40},
    },
    "tiny": {
        "paper": {"authors": 3, "plays": 3, "min_tokens": 500},
        "wide": {"authors": 3, "plays": 3, "min_tokens": 500},
        "ward": {"docs": 20, "features": 10, "groups": 4},
    },
}

SEPARATION = 1.0


@dataclass(frozen=True)
class Inputs:
    """Sizes of a workload's inputs."""

    docs: int
    tokens: int
    k: int
    min_tokens: int


def _count_tokens(tokens_dir: Path) -> int:
    total = 0
    for path in tokens_dir.glob("*.tsv"):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for line in fh if line.strip() and not line.startswith("#"))
    return total


def make_corpus(root: Path, seed: int, authors: int, plays: int, min_tokens: int) -> Inputs:
    from stylokit.synth import SynthConfig, generate_corpus

    config = SynthConfig(
        seed=seed,
        n_authors=authors,
        docs_per_author=plays,
        separation=SEPARATION,
        min_tokens=min_tokens,
    )
    generate_corpus(config, root)
    return Inputs(
        docs=authors * plays,
        tokens=_count_tokens(root / "tokens"),
        k=authors,
        min_tokens=min_tokens,
    )


def ward_matrix(seed: int, docs: int, features: int, groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Relative frequencies from Poisson-gamma counts around latent group profiles.

    Each group has a gamma-distributed feature profile; each document picks
    a group, a length, and per-feature gamma noise before Poisson sampling.
    Columns follow a Zipf-like base rate so the matrix looks like word counts.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    base = 1.0 / (np.arange(features) + 5.0)
    profiles = base[None, :] * rng.gamma(4.0, 0.25, size=(groups, features))
    profiles /= profiles.sum(axis=1, keepdims=True)
    labels = np.arange(docs) % groups
    rng.shuffle(labels)
    lengths = rng.integers(3000, 9000, size=docs)
    rates = profiles[labels] * rng.gamma(20.0, 0.05, size=(docs, features))
    counts = rng.poisson(lengths[:, None] * rates / rates.sum(axis=1, keepdims=True))
    # Every document and every feature must carry signal for the transforms.
    counts[:, 0] += 1
    counts[np.arange(docs), rng.integers(0, features, size=docs)] += 1
    return counts / counts.sum(axis=1, keepdims=True), labels


def make_matrix(root: Path, seed: int, docs: int, features: int, groups: int) -> Inputs:
    root.mkdir(parents=True, exist_ok=True)
    values, labels = ward_matrix(seed, docs, features, groups)
    np.save(root / "matrix.npy", values)
    np.save(root / "groups.npy", labels)
    return Inputs(docs=docs, tokens=0, k=groups, min_tokens=0)


def make_inputs(workload: str, scale: str, seed: int, root: Path) -> Inputs:
    size = SIZES[scale][workload]
    if workload == "ward":
        return make_matrix(root, seed, size["docs"], size["features"], size["groups"])
    return make_corpus(root, seed, size["authors"], size["plays"], size["min_tokens"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SIZES["full"]), required=True)
    parser.add_argument("--scale", choices=sorted(SIZES), default="full")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    print(json.dumps(asdict(make_inputs(args.workload, args.scale, args.seed, args.out))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
