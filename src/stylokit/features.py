"""The six feature families and the document-by-feature matrix.

Every family is a count over the corpus's one token stream, so
``build_matrix`` counts once and relabels. It bincounts each document's
type ids into a docs x types count matrix, then sums type columns onto
feature columns: lemmas, word forms, function words and affixes map each
non-proper type to its name(s), rhyme lemmas do the same with the types
that close a verse, and POS 3-grams are counted as integer trigram codes
over each type's tag id. A family's columns are the names with a
positive total in the corpus, in sorted name order; rows hold relative
frequencies. Denominators are per family: the event total of the family
itself (tokens, rhyme positions, affix occurrences, n-gram windows),
except for function words, whose counts are divided by the document's
lexical token total so that rarely-used list words keep their
corpus-level scale.

Feature and distance matrices go to disk through one row writer,
``write_float_rows``: each line is a single %-format of the row over
``FLOAT_FORMAT``, the one float spec, and only the doc id goes through
the csv module's quoting.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import AnnotatedToken, Corpus, normalize_form, open_output, read_utf8
from .errors import AnalysisError, CorpusFormatError


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


def affixes_of(form: str) -> list[str]:
    """Edge-anchored character 3-grams plus interword-space 2-grams.

    Words of at least ``AFFIX_MIN_WORD_LEN`` characters yield ``^xxx`` and
    ``xxx$``; every word yields ``_xx`` and ``xx_`` from whatever
    characters it has (a one-letter word degenerates to ``_x`` / ``x_``).
    """
    out = []
    if len(form) >= AFFIX_MIN_WORD_LEN:
        out.append("^" + form[:3])
        out.append(form[-3:] + "$")
    out.append("_" + form[:2])
    out.append(form[-2:] + "_")
    return out


def candidate_function_words(corpus: Corpus, top_k: int) -> list[tuple[str, int]]:
    """Most frequent surface forms corpus-wide, for manual curation.

    Returns at most ``top_k`` (form, count) pairs, count-descending with
    lexicographic tie-break, clamped to the vocabulary size.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    if len(corpus) == 0:
        raise AnalysisError("cannot rank forms of an empty corpus")
    forms = [[] if tok.is_proper_noun else [tok.form] for tok in corpus.types]
    names, counts = _sum_columns(_type_counts(corpus), forms)
    return sorted(zip(names, counts.sum(axis=0).tolist()), key=lambda kv: (-kv[1], kv[0]))[:top_k]


def check_row_order(doc_ids: Sequence[str]) -> None:
    """One row order everywhere: strictly increasing doc ids, as ``parse_corpus`` sorts them."""
    for before, after in zip(doc_ids, doc_ids[1:]):
        if not before < after:
            raise ValueError(f"doc ids must be strictly increasing, got {after!r} after {before!r}")


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
        check_row_order(self.doc_ids)

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def by_feature(self) -> np.ndarray:
        """Features x docs, C-contiguous: each feature reduces along a row."""
        return np.ascontiguousarray(self.values.T)

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


def degenerate(columns: np.ndarray) -> np.ndarray:
    """Per row of features x docs, all values equal: exact and order-free, unlike sd == 0."""
    return columns.max(axis=1) == columns.min(axis=1)


def _type_counts(corpus: Corpus, verse_ends_only: bool = False) -> np.ndarray:
    """docs x types occurrence counts, or counts of the types closing a verse."""
    n_types = len(corpus.types)
    counts = np.zeros((len(corpus), n_types), dtype=np.int64)
    for row, doc in zip(counts, corpus):
        ids = doc.type_ids[doc.verse_ends - 1] if verse_ends_only else doc.type_ids
        row[:] = np.bincount(ids, minlength=n_types)
    return counts


def _pos_ngram_counts(corpus: Corpus) -> tuple[np.ndarray, list[list[str]]]:
    """docs x distinct POS n-gram counts (n = ``POS_NGRAM_N``), and each column's name.

    Verse boundaries do not break the window, and proper-name tokens stay
    in: their tag is part of the sequence signal. Each window is coded as
    a base-(number of tags) integer over the tag ids of its types.
    """
    tag_ids: dict[str, int] = {}
    type_tags = np.array(
        [tag_ids.setdefault(tok.pos, len(tag_ids)) for tok in corpus.types], dtype=np.int64
    )
    per_doc = []
    for doc in corpus:
        tags = type_tags[doc.type_ids]
        codes = np.zeros(max(len(tags) - POS_NGRAM_N + 1, 0), dtype=np.int64)
        for k in range(POS_NGRAM_N):
            codes = codes * len(tag_ids) + tags[k : k + len(codes)]
        per_doc.append(np.unique(codes, return_counts=True))
    all_codes = np.unique(np.concatenate([codes for codes, _ in per_doc]))
    counts = np.zeros((len(corpus), len(all_codes)), dtype=np.int64)
    for row, (codes, n_codes) in zip(counts, per_doc):
        row[np.searchsorted(all_codes, codes)] = n_codes
    tags = list(tag_ids)
    places = [len(tags) ** (POS_NGRAM_N - 1 - k) for k in range(POS_NGRAM_N)]
    names = [[".".join(tags[code // p % len(tags)] for p in places)] for code in all_codes.tolist()]
    return counts, names


def _sum_columns(
    counts: np.ndarray, names_of_column: Sequence[Sequence[str]]
) -> tuple[tuple[str, ...], np.ndarray]:
    """Sum each count column onto every feature name it carries.

    Only names with a positive total are kept, in sorted order.
    """
    totals = counts.sum(axis=0).tolist()
    pairs = [
        (name, c) for c, names in enumerate(names_of_column) if totals[c] > 0 for name in names
    ]
    index = {name: j for j, name in enumerate(sorted({name for name, _ in pairs}))}
    summed = np.zeros((len(counts), len(index)), dtype=np.int64)
    features = np.array([index[name] for name, _ in pairs], dtype=np.intp)
    columns = np.array([c for _, c in pairs], dtype=np.intp)
    np.add.at(summed, (slice(None), features), counts[:, columns])
    return tuple(index), summed


def _type_features(tok: AnnotatedToken, spec: FeatureSpec, words: set[str]) -> list[str]:
    """The features one type contributes to a lexical family; proper names none."""
    if tok.is_proper_noun or (spec.kind is FeatureKind.FUNCTION_WORD and tok.form not in words):
        return []
    if spec.kind in (FeatureKind.LEMMA, FeatureKind.RHYME_LEMMA):
        return [tok.lemma]
    return affixes_of(tok.form) if spec.kind is FeatureKind.AFFIX else [tok.form]


def build_matrix(corpus: Corpus, spec: FeatureSpec) -> FeatureMatrix:
    """Assemble the corpus-wide matrix for one feature family.

    Columns are the lexicographically sorted names with a positive count
    in some document; rows hold relative frequencies. A document with no
    extractable features keeps an all-zero row.
    """
    if len(corpus) == 0:
        raise AnalysisError("cannot build a matrix from an empty corpus")
    if spec.kind is FeatureKind.POS_NGRAM:
        column_counts, column_names = _pos_ngram_counts(corpus)
    else:
        column_counts = _type_counts(corpus, spec.kind is FeatureKind.RHYME_LEMMA)
        words = set(spec.function_words)
        column_names = [_type_features(tok, spec, words) for tok in corpus.types]
    names, counts = _sum_columns(column_counts, column_names)
    if spec.kind is FeatureKind.FUNCTION_WORD:
        denoms = column_counts[:, [not tok.is_proper_noun for tok in corpus.types]].sum(axis=1)
    else:
        denoms = counts.sum(axis=1)
    safe = np.where(denoms > 0, denoms, 1).astype(float)
    return FeatureMatrix(corpus.doc_ids, names, counts.astype(float) / safe[:, None])


# The one on-disk float format: a decimal with 12 significant digits.
FLOAT_FORMAT = "%.12g"


def format_value(v: float) -> str:
    """One value in FLOAT_FORMAT, for the tables written cell by cell."""
    return FLOAT_FORMAT % v


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """The one on-disk table layout: UTF-8, comma-separated, LF line ends."""
    with open_output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _csv_head(text: str, alone: bool) -> str:
    """text as the csv module writes it first in a row: quoted only if it must be.

    The module quotes an empty field alone in its row, so a doc id with no
    values after it is quoted as a row of its own.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text,) if alone else (text, ""))
    return buf.getvalue()[: -1 if alone else -2]


def write_float_rows(
    path: str | Path, header: Sequence[str], doc_ids: Sequence[str], values: np.ndarray
) -> None:
    """The ``write_csv`` layout for one doc id and one row of floats per line.

    Each line is one %-format of the row, built once per table from
    FLOAT_FORMAT; only the doc id goes through the csv module's quoting.
    Rows are converted one at a time, so no second copy of the table is held.
    """
    line = "%s" + ("," + FLOAT_FORMAT) * values.shape[1] + "\n"
    with open_output(path) as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for doc, row in zip(doc_ids, values):
            fh.write(line % (_csv_head(doc, not values.shape[1]), *row.tolist()))


def write_matrix_csv(matrix: FeatureMatrix, path: str | Path) -> None:
    write_float_rows(path, ("doc_id", *matrix.feature_names), matrix.doc_ids, matrix.values)


def load_word_list(path: str | Path) -> tuple[str, ...]:
    """One word per line, normalized as token forms are; ``#`` comments ignored.

    An entry that normalizes to nothing (a blank line, punctuation alone)
    is dropped. A file without a single word raises CorpusFormatError
    naming it.
    """
    lines = (line.strip() for line in io.StringIO(read_utf8(path), newline=None))
    words = [normalize_form(line) for line in lines if not line.startswith("#")]
    words = [word for word in words if word]
    if not words:
        raise CorpusFormatError(f"{path}: no function words")
    return tuple(words)


def default_function_words() -> tuple[str, ...]:
    """The French function-word list shipped with the package."""
    data = Path(__file__).parent / "data" / "french_function_words.txt"
    return load_word_list(data)
