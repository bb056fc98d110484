#!/usr/bin/env python3
"""Run the one-line mutants of tests/mutants.txt through tier-1.

For each mutant this unpacks ``git archive <rev>`` (HEAD by default) under
``.bench_work/mutants/``, replaces the entry's one line, and runs tier-1 on
the copy with ``-x``, an empty ``XDG_CACHE_HOME`` and a fixed hypothesis
seed, less ``tests/test_mutants.py``, which no mutated tree passes. The seed
makes the first failing test the same on every run: with a random one, a
property that finds a mutant in most runs lets a later test be first in a
few. It prints whether the mutant was killed or survived, the first failing
test and the seconds taken, then removes the copy. The exit code is 1 when any result disagrees
with the status the list records, and 0 otherwise. The full run is not
tier-1: a killed mutant takes from a few seconds to a minute, and a
survivor takes all of tier-1.

    python scripts/mutants.py                 # every entry, against HEAD
    python scripts/mutants.py 12 13           # entries 12 and 13 only (counted from 1)
    python scripts/mutants.py --rev "$(git stash create)"   # the uncommitted tree

The list is read from the working tree and parsed by ``tests/test_mutants.py``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))
from test_mutants import _mutants  # noqa: E402

# Tier-1 but the list's own check, which fails on every mutated tree: its line is gone.
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--hypothesis-seed=0", "--ignore=tests/test_mutants.py"]


def _first_failure(output: str) -> str | None:
    """The first test pytest's short summary names as failed or in error."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return None


def run_mutant(mutant: dict[str, str], archive: bytes, work: Path) -> tuple[str, float]:
    """The mutant's status, in the list's form, and the seconds tier-1 took on it."""
    shutil.rmtree(work, ignore_errors=True)
    (work / ".cache").mkdir(parents=True)
    try:
        subprocess.run(["tar", "-x", "-C", str(work)], input=archive, check=True)
        target = work / mutant["file"]
        lines = target.read_text(encoding="utf-8").split("\n")
        if lines.count(mutant["line"]) != 1:
            return f"stale: the line occurs {lines.count(mutant['line'])} times", 0.0
        lines[lines.index(mutant["line"])] = mutant["with"]
        target.write_text("\n".join(lines), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "XDG_CACHE_HOME": str(work / ".cache")}
        start = time.perf_counter()
        proc = subprocess.run(TIER1, cwd=work, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode == 0:
        return "survives", seconds
    return f"killed by {_first_failure(proc.stdout) or f'exit code {proc.returncode}'}", seconds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("entries", nargs="*", type=int, help="entry numbers, from 1 (default: all)")
    parser.add_argument("--rev", default="HEAD", help="the tree to mutate (default: HEAD)")
    args = parser.parse_args(argv)
    archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    mutants = _mutants()
    numbers = args.entries or range(1, len(mutants) + 1)
    disagree = 0
    for n in numbers:
        mutant = mutants[n - 1]
        status, seconds = run_mutant(mutant, archive, ROOT / ".bench_work" / "mutants" / str(n))
        recorded = mutant["status"]
        agrees = status == recorded or (status == "survives" and recorded.startswith("survives: "))
        disagree += not agrees
        print(f"{n:2d} {mutant['file']}: {status} ({seconds:.0f} s)", flush=True)
        if not agrees:
            print(f"   recorded: {recorded}", flush=True)
    print(f"{len(numbers)} mutants, {disagree} disagree with the list")
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main())
