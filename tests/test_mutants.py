"""tests/mutants.txt cannot go stale silently: every mutated line is still in its file."""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIELDS = ("file", "line", "with", "rule", "status")


def _mutants() -> list[dict[str, str]]:
    """Each entry of the list as its fields, in order."""
    text = (ROOT / "tests" / "mutants.txt").read_text(encoding="utf-8")
    entries = []
    for block in text.split("\n\n"):
        lines = [line for line in block.splitlines() if not line.startswith("#")]
        if lines:
            entries.append(dict(line.split(": ", 1) for line in lines))
    return entries


def test_each_mutated_line_occurs_exactly_once_in_its_file():
    mutants = _mutants()
    assert mutants
    problems = []
    for n, mutant in enumerate(mutants, start=1):
        if tuple(mutant) != FIELDS or mutant["line"] == mutant["with"]:
            problems.append(f"entry {n}: malformed")
            continue
        lines = (ROOT / mutant["file"]).read_text(encoding="utf-8").splitlines()
        if (count := lines.count(mutant["line"])) != 1:
            problems.append(f"entry {n}: {mutant['file']} holds its line {count} times")
        status = mutant["status"]
        if status.startswith("survives"):
            if not status.partition("survives: ")[2].strip():
                problems.append(f"entry {n}: a survivor needs its reason")
        else:
            test_file, _, name = status.removeprefix("killed by ").partition("::")
            test_source = (ROOT / test_file).read_text(encoding="utf-8")
            if f"def {name.partition('[')[0]}(" not in test_source:
                problems.append(f"entry {n}: no test {status!r}")
    assert not problems, problems
