#!/usr/bin/env python3
"""Rewrite the golden output digests in tests/golden/.

For each golden corpus -- synth seed 1234, 5 authors x 6 plays, at
separation 1.5 and at 0.3 -- this makes the corpus in a scratch working
directory and runs the fixed command list through ``stylokit.cli.main``
in-process, from that directory and with relative paths, so ``run.json``
does not depend on where it ran. Each command starts from an empty
``out``. ``tests/golden/<corpus>.sha256`` gets one line per (command,
output file): the command, the file name and the file's sha256, tab
separated, where ``stdout`` stands for what the command printed. The
corpus itself comes first, under the command ``synth``: its
``manifest.csv``, its ``function_words.txt``, and one digest of every
``tokens/*.tsv`` file's name and bytes in name order. Last comes what
``scripts/run_synthetic_demo.py`` prints for the corpus's seed and
separation with ``--out demo``, run in-process by its path, so it imports
the same stylokit as this script.

``tests/test_golden.py`` recomputes the lines and compares them with the
committed files, so a change that moves an output shows up as a diff of
those files, made by running this script.

Usage: python scripts/update_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import runpy
import shutil
import tempfile
from pathlib import Path

from stylokit.cli import main as stylokit
from stylokit.synth import SynthConfig, generate_corpus

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden"
DEMO = Path(__file__).resolve().parent / "run_synthetic_demo.py"
SEED = 1234
CORPORA = {"sep1.5": 1.5, "sep0.3": 0.3}
FAMILIES = ("lemma", "rhyme", "form", "affix", "pos3", "fw")
MEASURES = ("delta", "minmax")
INPUTS = ["--manifest", "corpus/manifest.csv", "--fw-list", "corpus/function_words.txt"]

COMMANDS = [
    *(["extract", "--features", family] for family in FAMILIES),
    *(["select", "--features", family] for family in FAMILIES),
    *([command, "--features", family, "--distance", measure]
      for command in ("cluster", "eta") for family in FAMILIES for measure in MEASURES),
    ["cluster", "--features", "fw", "--select", "top:50"],
    *(["sweep", "--distance", measure] for measure in MEASURES),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_lines(separation: float, workdir: Path) -> list[str]:
    """Make one golden corpus in workdir, run every command there and return the digest lines."""
    home = os.getcwd()
    os.chdir(workdir)
    try:
        config = SynthConfig(seed=SEED, n_authors=5, docs_per_author=6, separation=separation)
        generate_corpus(config, "corpus")
        lines = [
            f"synth\t{name}\t{_sha256(Path('corpus', name).read_bytes())}"
            for name in ("manifest.csv", "function_words.txt")
        ]
        tokens = sorted(Path("corpus", "tokens").glob("*.tsv"))
        data = b"".join(path.name.encode("utf-8") + b"\n" + path.read_bytes() for path in tokens)
        lines.append(f"synth\ttokens/*.tsv\t{_sha256(data)}")
        for command in COMMANDS:
            shutil.rmtree("out", ignore_errors=True)
            argv = [*command, *INPUTS, "--out", "out"]
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                code = stylokit(argv)
            if code != 0:
                raise RuntimeError(f"stylokit {' '.join(argv)} exited {code}")
            label = " ".join(command)
            lines.append(f"{label}\tstdout\t{_sha256(stdout.getvalue().encode('utf-8'))}")
            for path in sorted(Path("out").iterdir()):
                lines.append(f"{label}\t{path.name}\t{_sha256(path.read_bytes())}")
        demo = runpy.run_path(str(DEMO))["main"]
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            demo(["--seed", str(SEED), "--separation", str(separation), "--out", "demo"])
        lines.append(f"demo\tstdout\t{_sha256(stdout.getvalue().encode('utf-8'))}")
        return lines
    finally:
        os.chdir(home)


def main() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, separation in CORPORA.items():
            workdir = Path(tmp) / name
            workdir.mkdir()
            text = "".join(line + "\n" for line in digest_lines(separation, workdir))
            (GOLDEN / f"{name}.sha256").write_text(text, encoding="utf-8", newline="\n")
            print(f"wrote {GOLDEN / f'{name}.sha256'}")


if __name__ == "__main__":
    main()
