from __future__ import annotations

import numpy as np
import pytest

from stylokit.corpus import (
    AnnotatedToken,
    Corpus,
    Document,
    filter_corpus,
    load_manifest,
    parse_corpus,
)
from stylokit.synth import SynthConfig, generate_corpus

SYNTH_SEED = 1234
SYNTH_SEPARATION = 1.5


def make_doc(
    doc_id: str, verses: list[list[tuple[str, str, str]]], author: str = ""
) -> tuple[str, str, list[str]]:
    """A parse source: token lines from (form, lemma, pos) triples, one list per verse."""
    lines = []
    for verse in verses:
        lines += [f"{form}\t{lemma}\t{pos}\n" for form, lemma, pos in verse]
        lines.append("\n")
    return doc_id, author, lines


def make_corpus(*docs: tuple[str, str, list[str]]) -> Corpus:
    return parse_corpus(docs)


def random_sources(
    rng: np.random.Generator, n_docs: int, n_words: int = 30, n_tokens: int = 240
) -> list[tuple[str, str, list[str]]]:
    """Parse sources d000, d001, ...: each draws its tokens from its own mix of one word list."""
    tags = ("NOMcom", "VERcjg", "ADJqua")
    words = [(f"w{j:02d}", f"w{j:02d}", tags[j % 3]) for j in range(n_words)]
    sources = []
    for i in range(n_docs):
        draws = rng.choice(n_words, size=n_tokens, p=rng.dirichlet(np.ones(n_words))).tolist()
        verses = [[words[w] for w in draws[s : s + 8]] for s in range(0, n_tokens, 8)]
        sources.append(make_doc(f"d{i:03d}", verses, author=f"a{i % 3}"))
    return sources


def parsed_both_ways(rng: np.random.Generator, sources: list) -> tuple[Corpus, Corpus]:
    """The corpus of the sources in the order given and in a random order."""
    perm = rng.permutation(len(sources))
    return parse_corpus(sources), parse_corpus([sources[i] for i in perm])


def verses_of(corpus: Corpus, doc: Document) -> list[list[AnnotatedToken]]:
    """The types behind a document's ids, split at its verse ends."""
    starts = [0, *doc.verse_ends[:-1].tolist()]
    return [
        [corpus.types[t] for t in doc.type_ids[s:e].tolist()]
        for s, e in zip(starts, doc.verse_ends.tolist())
    ]


def write_token_file(corpus: Corpus, doc: Document, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for verse in verses_of(corpus, doc):
            for tok in verse:
                fh.write(f"{tok.form}\t{tok.lemma}\t{tok.pos}\n")
            fh.write("\n")


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
