from __future__ import annotations

import shutil
from contextlib import contextmanager

import numpy as np
import pytest

from stylokit import cache, corpus as corpus_module
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


@pytest.fixture(autouse=True)
def corpus_cache(tmp_path_factory, monkeypatch):
    """The test's own corpus cache directory, empty: $XDG_CACHE_HOME/stylokit."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg_cache")))
    return cache._directory()


@contextmanager
def every_load_parses():
    """Each load_manifest inside starts from an empty corpus cache; yields a list
    that gets one entry per load, and asserts on leaving that every load parsed."""
    load, parse_runs, loads = cache.load, corpus_module._parse_runs, []

    def emptied_first(rows):
        shutil.rmtree(cache._directory(), ignore_errors=True)
        loads.append(False)
        return load(rows)

    def parsing(rows):
        loads[-1] = True
        return parse_runs(rows)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cache, "load", emptied_first)
        patch.setattr(corpus_module, "_parse_runs", parsing)
        yield loads
    assert all(loads), f"{loads.count(False)} of {len(loads)} loads read the corpus cache"


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


def write_manifest(directory, token_files: dict[str, bytes]):
    """A manifest of one play per token file, in the order given, named play0, play1, ..."""
    rows = ["id,title,author,genre,form,acts,year,path\n"]
    for i, (name, data) in enumerate(token_files.items()):
        (directory / name).write_bytes(data)
        rows.append(f"play{i},t,a,g,verse,5,1660,{name}\n")
    manifest = directory / "manifest.csv"
    manifest.write_text("".join(rows), encoding="utf-8")
    return manifest


def snapshot(corpus: Corpus):
    """Everything a corpus holds, in a form that compares by value."""
    return corpus.types, [
        (d.id, d.alleged_author, d.type_ids.dtype, d.type_ids.tolist(),
         d.verse_ends.dtype, d.verse_ends.tolist())
        for d in corpus
    ]


def one_line_per_type(types: range) -> bytes:
    """A token file with one line per type, w{i}, three tags in turn and a verse of eight."""
    tags = ("NOMcom", "VERcjg", "ADJqua")
    return "".join(
        f"w{i}\tw{i}\t{tags[i % 3]}\n" + ("\n" if i % 8 == 7 else "") for i in types
    ).encode()


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
