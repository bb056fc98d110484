"""What the analysis leaves out of a process's peak memory.

No analysis step imports ``numpy.ma``; a selection that keeps every column
is the matrix itself, so nothing downstream may write into it; a CLI
command holds the corpus only through the matrix build, so its peak is one
load plus one build, and the corpus is gone before selection, distances,
Ward, the sweep and the writers run; a matrix build numbers each feature
name once and keeps no tuple per (column, name) pair.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from stylokit import cli, pipeline
from stylokit.evaluate import eta_table, robustness_sweep
from stylokit.features import FeatureKind, FeatureMatrix, FeatureSpec, build_matrix
from stylokit.pipeline import apply_selection, run_pipeline
from stylokit.synth import function_word_forms

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_analysis_imports_numpy_ma(synth_dir):
    """On numpy >= 2.3 a plain ``np.unique(x)`` imports ``numpy.ma`` (+1.15 MB RSS and
    11-19 ms per process). On numpy < 2.3 it does not, and this test passes trivially."""
    script = textwrap.dedent(f"""
        import sys
        from stylokit.corpus import filter_corpus, load_manifest
        from stylokit.evaluate import eta_table, robustness_sweep
        from stylokit.features import FeatureKind, FeatureSpec, load_word_list
        from stylokit.pipeline import run_pipeline

        corpus = filter_corpus(load_manifest({str(synth_dir / "manifest.csv")!r}), 5000, 3)
        words = load_word_list({str(synth_dir / "function_words.txt")!r})
        for kind in FeatureKind:
            spec = FeatureSpec(kind, words if kind is FeatureKind.FUNCTION_WORD else ())
            result = run_pipeline(corpus, spec, "reliable", "delta", 5)
            eta_table(result.selected, result.assignment)
            robustness_sweep(result, corpus.alleged_authors(), (0.1, 0.5, 1.0))
        assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
    """)
    paths = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _no_constant_column() -> FeatureMatrix:
    raw = np.random.default_rng(3).uniform(0.05, 1.0, size=(12, 9))
    return FeatureMatrix(
        tuple(f"d{i:02d}" for i in range(12)),
        tuple(f"f{j:02d}" for j in range(9)),
        raw / raw.sum(axis=1, keepdims=True),
    )


def test_keep_all_selection_is_the_matrix_itself():
    matrix = _no_constant_column()
    selected, report = apply_selection(matrix, ("top", 1.0), 1)
    assert selected is matrix and report is None
    # A Fortran-ordered matrix is still copied C-ordered: its column reductions would differ.
    fortran = FeatureMatrix(matrix.doc_ids, matrix.feature_names, np.asfortranarray(matrix.values))
    assert apply_selection(fortran, ("top", 1.0), 1)[0].values.flags.c_contiguous


@pytest.mark.parametrize("measure", ["delta", "minmax"])
def test_keep_all_pipeline_leaves_the_matrix_unwritten(synth_corpus, measure):
    spec = FeatureSpec(FeatureKind.FUNCTION_WORD, function_words=tuple(function_word_forms()))
    result = run_pipeline(synth_corpus, spec, ("top", 1.0), measure, 5)
    assert result.selected is result.matrix
    eta_table(result.selected, result.assignment)
    robustness_sweep(result, synth_corpus.alleged_authors(), (0.5, 1.0))
    fresh = build_matrix(synth_corpus, spec)
    assert result.matrix.values.view(np.int64).tolist() == fresh.values.view(np.int64).tolist()


@pytest.mark.parametrize("command", ["select", "cluster", "eta", "sweep"])
def test_cli_frees_the_corpus_before_selection(synth_dir, tmp_path, monkeypatch, command):
    """Every filtered corpus is freed by its reference count, with no garbage collection,
    when selection starts: a command holds the corpus only through the matrix build."""
    filter_corpus, select_reliable = cli.filter_corpus, cli.select_reliable
    corpora, selections = [], []

    def remembering(*args, **kwargs):
        corpus = filter_corpus(*args, **kwargs)
        corpora.append(weakref.ref(corpus))
        return corpus

    def checking(*args, **kwargs):
        selections.append([ref() is None for ref in corpora])
        return select_reliable(*args, **kwargs)

    monkeypatch.setattr(cli, "filter_corpus", remembering)
    for module in (cli, pipeline):  # select runs select_reliable itself, the rest through pipeline
        monkeypatch.setattr(module, "select_reliable", checking)
    assert cli.main([
        command, "--manifest", str(synth_dir / "manifest.csv"), "--features", "fw",
        "--fw-list", str(synth_dir / "function_words.txt"), "--out", str(tmp_path / "run"),
    ]) == 0
    assert corpora and selections, "no corpus was filtered or no selection ran"
    assert all(all(dead) for dead in selections), f"a corpus was still alive: {selections}"


def test_affix_build_keeps_no_tuple_per_name_and_column(synth_corpus):
    """The affix build's peak beyond what it keeps: a (name, column) tuple and a kept affix
    string per pair took 547 KiB here (Python 3.11, numpy 2.4), one number per pair 197 KiB."""
    spec = FeatureSpec(FeatureKind.AFFIX)
    build_matrix(synth_corpus, spec)  # a first call's one-off allocations are not the build's
    tracemalloc.start()
    try:
        matrix = build_matrix(synth_corpus, spec)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert matrix.n_features > 500
    assert peak - kept < 320 * 1024, f"{(peak - kept) / 1024:.0f} KiB beyond the result"
