from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from stylokit.corpus import load_manifest
from stylokit.synth import (
    SynthConfig,
    _author_distributions,
    _vocabulary,
    generate_corpus,
)


def _tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_same_seed_gives_byte_identical_corpora(tmp_path):
    config = SynthConfig(seed=77, n_authors=3, docs_per_author=2, separation=0.8)
    generate_corpus(config, tmp_path / "one")
    generate_corpus(config, tmp_path / "two")
    assert _tree_digest(tmp_path / "one") == _tree_digest(tmp_path / "two")


def test_different_seeds_differ(tmp_path):
    generate_corpus(SynthConfig(seed=1, n_authors=2, docs_per_author=2), tmp_path / "a")
    generate_corpus(SynthConfig(seed=2, n_authors=2, docs_per_author=2), tmp_path / "b")
    assert _tree_digest(tmp_path / "a") != _tree_digest(tmp_path / "b")


def test_zero_separation_collapses_author_distributions():
    rng = np.random.Generator(np.random.PCG64(5))
    _, _, base = _vocabulary()
    probs = _author_distributions(SynthConfig(seed=5, separation=0.0), rng, base)
    assert np.allclose(probs, probs[0])
    assert np.allclose(probs[0], base)


def test_generated_documents_meet_length_and_verse_contracts(tmp_path):
    config = SynthConfig(seed=9, n_authors=2, docs_per_author=2)
    manifest = generate_corpus(config, tmp_path)
    corpus = load_manifest(manifest)
    assert len(corpus) == 4
    for doc in corpus:
        assert doc.token_count >= 5000
        verse_lengths = np.diff(doc.verse_ends, prepend=0)
        assert np.all((6 <= verse_lengths) & (verse_lengths <= 12))


def test_function_word_list_matches_generated_core(tmp_path):
    config = SynthConfig(seed=9, n_authors=2, docs_per_author=2)
    generate_corpus(config, tmp_path)
    words = [
        line
        for line in (tmp_path / "function_words.txt").read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert len(words) == 110
    assert words[0] == "fw001" and words[-1] == "fw110"


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(seed=1, n_authors=1)
    with pytest.raises(ValueError):
        SynthConfig(seed=1, separation=-0.1)


def test_zero_separation_leaves_no_author_signal(tmp_path):
    from stylokit.corpus import filter_corpus
    from stylokit.evaluate import cluster_purity
    from stylokit.features import FeatureKind, FeatureSpec
    from stylokit.pipeline import run_pipeline
    from stylokit.synth import function_word_forms

    manifest = generate_corpus(
        SynthConfig(seed=99, n_authors=5, docs_per_author=6, separation=0.0), tmp_path
    )
    corpus = filter_corpus(load_manifest(manifest), 5000, 3)
    spec = FeatureSpec(
        kind=FeatureKind.FUNCTION_WORD, function_words=tuple(function_word_forms())
    )
    result = run_pipeline(corpus, spec, "reliable", "delta", 5)
    purity = cluster_purity(result.assignment, corpus.alleged_authors()).purity
    # Sampling noise only: clustering sits near the chance floor, far from 1.
    assert purity < 0.7
