"""Every output of the golden command list matches its committed digest.

The digests live in ``tests/golden/<corpus>.sha256`` and are rewritten by
``scripts/update_golden.py``; a change that moves an output must rewrite
them and explain the diff.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "update_golden", REPO / "scripts" / "update_golden.py"
)
update_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(update_golden)


@pytest.mark.parametrize("corpus", sorted(update_golden.CORPORA))
def test_outputs_match_the_golden_digests(corpus, tmp_path):
    golden = update_golden.GOLDEN / f"{corpus}.sha256"
    committed = golden.read_text(encoding="utf-8").splitlines()
    actual = update_golden.digest_lines(update_golden.CORPORA[corpus], tmp_path)
    for want, got in zip(committed, actual):
        if want != got:
            command, file, _ = got.split("\t")
            pytest.fail(
                f"{corpus}: `stylokit {command}` gives a different {file}"
                f" (computed {got!r}, {golden.name} has {want!r})"
            )
    assert len(actual) == len(committed), (
        f"{golden.name} has {len(committed)} lines, not {len(actual)}"
    )
