"""The six feature families and the document-by-feature matrix.

Every extractor maps a Document to a plain Counter of feature names.
``build_matrix`` takes the sorted union of names over the corpus and
fills rows with relative frequencies. Denominators are per family: the
event total of the family itself (tokens, rhyme positions, affix
occurrences, n-gram windows), except for function words, whose counts
are divided by the document's lexical token total so that rarely-used
list words keep their corpus-level scale.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus, Document, read_utf8
from .errors import AnalysisError


class FeatureKind(str, Enum):
    LEMMA = "lemma"
    RHYME_LEMMA = "rhyme"
    WORD_FORM = "form"
    AFFIX = "affix"
    POS_NGRAM = "pos"
    FUNCTION_WORD = "fw"


class Scale(str, Enum):
    RELATIVE_FREQUENCY = "relative_frequency"


POS_NGRAM_N = 3
AFFIX_MIN_WORD_LEN = 4


@dataclass(frozen=True)
class FeatureSpec:
    kind: FeatureKind
    function_words: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind is FeatureKind.FUNCTION_WORD and not self.function_words:
            raise ValueError("function-word extraction needs a non-empty word list")


def extract_lemmas(doc: Document) -> Counter[str]:
    counts: Counter[str] = Counter()
    for tok, n in doc.lexical_counts().items():
        counts[tok.lemma] += n
    return counts


def extract_rhyme_lemmas(doc: Document) -> Counter[str]:
    """Count the lemma closing each verse; proper-name rhymes contribute nothing."""
    rhymes = (doc.tokens[end - 1] for end in doc.verse_ends)
    return Counter(tok.lemma for tok in rhymes if not tok.is_proper_noun)


def extract_forms(doc: Document) -> Counter[str]:
    counts: Counter[str] = Counter()
    for tok, n in doc.lexical_counts().items():
        counts[tok.form] += n
    return counts


def affixes_of(form: str, min_word_len: int = AFFIX_MIN_WORD_LEN) -> list[str]:
    """Edge-anchored character 3-grams plus interword-space 2-grams.

    Words of at least ``min_word_len`` characters yield ``^xxx`` and
    ``xxx$``; every word yields ``_xx`` and ``xx_`` from whatever
    characters it has (a one-letter word degenerates to ``_x`` / ``x_``).
    """
    out = []
    if len(form) >= min_word_len:
        out.append("^" + form[:3])
        out.append(form[-3:] + "$")
    out.append("_" + form[:2])
    out.append(form[-2:] + "_")
    return out


def extract_affixes(doc: Document, min_word_len: int = AFFIX_MIN_WORD_LEN) -> Counter[str]:
    counts: Counter[str] = Counter()
    for form, n in extract_forms(doc).items():
        for affix in affixes_of(form, min_word_len):
            counts[affix] += n
    return counts


def extract_pos_ngrams(doc: Document, n: int = POS_NGRAM_N) -> Counter[str]:
    """Contiguous POS tag n-grams over the whole token stream.

    Verse boundaries do not break the window, and proper-name tokens stay
    in: their tag is part of the sequence signal.
    """
    tags = [tok.pos for tok in doc.tokens]
    return Counter(
        ".".join(tags[i : i + n]) for i in range(len(tags) - n + 1)
    )


def extract_function_words(doc: Document, fw_list: tuple[str, ...]) -> Counter[str]:
    wanted = set(fw_list)
    return Counter({form: n for form, n in extract_forms(doc).items() if form in wanted})


def extract_counts(doc: Document, spec: FeatureSpec) -> Counter[str]:
    if spec.kind is FeatureKind.LEMMA:
        return extract_lemmas(doc)
    if spec.kind is FeatureKind.RHYME_LEMMA:
        return extract_rhyme_lemmas(doc)
    if spec.kind is FeatureKind.WORD_FORM:
        return extract_forms(doc)
    if spec.kind is FeatureKind.AFFIX:
        return extract_affixes(doc)
    if spec.kind is FeatureKind.POS_NGRAM:
        return extract_pos_ngrams(doc)
    if spec.kind is FeatureKind.FUNCTION_WORD:
        return extract_function_words(doc, spec.function_words)
    raise ValueError(f"unknown feature kind: {spec.kind}")


def candidate_function_words(corpus: Corpus, top_k: int) -> list[tuple[str, int]]:
    """Most frequent surface forms corpus-wide, for manual curation.

    Returns at most ``top_k`` (form, count) pairs, count-descending with
    lexicographic tie-break, clamped to the vocabulary size.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    if len(corpus) == 0:
        raise AnalysisError("cannot rank forms of an empty corpus")
    totals: Counter[str] = Counter()
    for doc in corpus:
        totals.update(extract_forms(doc))
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top_k]


@dataclass(frozen=True)
class FeatureMatrix:
    doc_ids: tuple[str, ...]
    feature_names: tuple[str, ...]
    values: np.ndarray
    # Always relative frequencies: every transform lives inside compute_distance.
    # The field stays only for callers that still pass it positionally.
    scale: Scale = Scale.RELATIVE_FREQUENCY

    def __post_init__(self) -> None:
        if self.values.shape != (len(self.doc_ids), len(self.feature_names)):
            raise ValueError(
                f"value shape {self.values.shape} does not match "
                f"{len(self.doc_ids)} docs x {len(self.feature_names)} features"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("matrix values must be finite")

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.feature_names.index(name)]

    def subset(self, names: tuple[str, ...] | list[str]) -> "FeatureMatrix":
        """Restrict to the given features, keeping current column order."""
        keep = set(names)
        missing = keep - set(self.feature_names)
        if missing:
            raise AnalysisError(f"unknown features requested: {sorted(missing)}")
        idx = [i for i, n in enumerate(self.feature_names) if n in keep]
        return FeatureMatrix(
            doc_ids=self.doc_ids,
            feature_names=tuple(self.feature_names[i] for i in idx),
            values=self.values[:, idx].copy(),
        )


def build_matrix(corpus: Corpus, spec: FeatureSpec) -> FeatureMatrix:
    """Assemble the corpus-wide matrix for one feature family.

    Columns are the lexicographically sorted union of feature names over
    all documents; rows hold relative frequencies. A document with no
    extractable features keeps an all-zero row.
    """
    if len(corpus) == 0:
        raise AnalysisError("cannot build a matrix from an empty corpus")
    per_doc = [extract_counts(doc, spec) for doc in corpus]
    names = sorted(set().union(*map(set, per_doc)))
    index = {name: j for j, name in enumerate(names)}

    values = np.zeros((len(corpus), len(names)), dtype=float)
    for i, counts in enumerate(per_doc):
        for name, count in counts.items():
            values[i, index[name]] = count

    if spec.kind is FeatureKind.FUNCTION_WORD:
        denoms = np.array([sum(doc.lexical_counts().values()) for doc in corpus], dtype=float)
    else:
        denoms = values.sum(axis=1)
    safe = np.where(denoms > 0, denoms, 1.0)
    values = values / safe[:, None]

    return FeatureMatrix(
        doc_ids=corpus.doc_ids,
        feature_names=tuple(names),
        values=values,
    )


def format_value(v: float) -> str:
    """Decimal with 12 significant digits, the fixed on-disk float format."""
    return format(float(v), ".12g")


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """The one on-disk table layout: UTF-8, comma-separated, LF line ends."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_matrix_csv(matrix: FeatureMatrix, path: str | Path) -> None:
    rows = ([doc, *map(format_value, row)] for doc, row in zip(matrix.doc_ids, matrix.values))
    write_csv(path, ("doc_id", *matrix.feature_names), rows)


def load_word_list(path: str | Path) -> tuple[str, ...]:
    """One word per line; blank lines and ``#`` comments ignored."""
    words = []
    for line in io.StringIO(read_utf8(path), newline=None):
        word = line.strip()
        if word and not word.startswith("#"):
            words.append(word)
    return tuple(words)


def default_function_words() -> tuple[str, ...]:
    """The French function-word list shipped with the package."""
    data = Path(__file__).parent / "data" / "french_function_words.txt"
    return load_word_list(data)
