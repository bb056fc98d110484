from __future__ import annotations

import itertools

import pytest

from stylokit.corpus import (
    AnnotatedToken,
    Corpus,
    Document,
    DocumentMeta,
    filter_corpus,
    load_manifest,
)
from stylokit.synth import SynthConfig, generate_corpus

SYNTH_SEED = 1234
SYNTH_SEPARATION = 1.5


def make_doc(doc_id: str, verses: list[list[tuple[str, str, str]]], author: str = "") -> Document:
    """Document from pre-normalized (form, lemma, pos) triples, one list per verse."""
    tokens = tuple(AnnotatedToken(*t) for verse in verses for t in verse)
    ends = itertools.accumulate(len(verse) for verse in verses)
    return Document(
        meta=DocumentMeta(id=doc_id, alleged_author=author),
        tokens=tokens,
        verse_ends=tuple(ends),
    )


def make_corpus(*docs: Document) -> Corpus:
    return Corpus(documents=tuple(docs))


@pytest.fixture(scope="session")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth_corpus")
    generate_corpus(
        SynthConfig(seed=SYNTH_SEED, n_authors=5, docs_per_author=6, separation=SYNTH_SEPARATION),
        out,
    )
    return out


@pytest.fixture(scope="session")
def synth_corpus(synth_dir):
    return filter_corpus(load_manifest(synth_dir / "manifest.csv"), 5000, 3)
