"""The six feature families and the document-by-feature matrix.

Every family is a count over the corpus's one token stream, made by one
counter over count columns that each carry feature names. The lexical
families count types, each non-proper type carrying its lemma, form,
affixes or listed function word; rhyme counts only the types closing a
verse. POS 3-grams count integer trigram codes over each type's tag id,
each code carrying its tag names. Per document, one bincount gives the
column counts and a second sums them onto the features, so no docs x
columns array is made. A family's features are the names with a positive
total in the corpus, in sorted name order; rows hold relative
frequencies. Denominators are per family: the event total of the family
itself (tokens, rhyme positions, affix occurrences, n-gram windows),
except for function words, whose counts are divided by the document's
lexical token total so that rarely-used list words keep their
corpus-level scale.

Every CSV stylokit writes goes through one writer, ``write_table``: a
string head column, an optional block of floats in ``FLOAT_FORMAT``, the
one float spec, and optional trailing string columns. A string is
quoted by one rule of stylokit's own, so a table's bytes do not depend
on the Python version.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator, Sequence

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
BLOCK_FLOATS = 1 << 14  # 128 KiB: the most values one block of per-feature or per-pair work holds


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

    def by_feature(self) -> Iterator[np.ndarray]:
        """Features x docs, C-contiguous, in blocks of at most BLOCK_FLOATS values (or one row;
        no features: one empty block): each feature reduces along a row, as in the whole."""
        step = max(1, BLOCK_FLOATS // max(1, self.n_docs))
        for lo in range(0, max(1, self.n_features), step):
            yield np.ascontiguousarray(self.values[:, lo:lo + step].T)

    def subset(self, columns: Sequence[int] | np.ndarray) -> "FeatureMatrix":
        """Restrict to the given column indices, which must be increasing. All columns of a
        C-ordered matrix give the matrix itself: every transform writes into a new array."""
        if self.values.flags.c_contiguous and np.array_equal(columns, np.arange(self.n_features)):
            return self
        names = tuple(self.feature_names[j] for j in columns)
        # One C-ordered copy keeps compute_distance's column reductions bit-identical.
        return FeatureMatrix(self.doc_ids, names, np.take(self.values, columns, axis=1))


def degenerate(columns: np.ndarray) -> np.ndarray:
    """Per row of features x docs, all values equal: exact and order-free, unlike sd == 0."""
    return columns.max(axis=1) == columns.min(axis=1)


def _type_features(tok: AnnotatedToken, spec: FeatureSpec, words: set[str]) -> list[str]:
    """The features one type contributes to a lexical family; proper names none."""
    if tok.is_proper_noun or (spec.kind is FeatureKind.FUNCTION_WORD and tok.form not in words):
        return []
    if spec.kind in (FeatureKind.LEMMA, FeatureKind.RHYME_LEMMA):
        return [tok.lemma]
    return affixes_of(tok.form) if spec.kind is FeatureKind.AFFIX else [tok.form]


def _columns(corpus: Corpus, spec: FeatureSpec) -> tuple[int, Callable[[int], list[str]], list]:
    """A family's count columns: how many, each one's feature names, and per
    document the (column ids, weights or None) to bincount.

    The lexical families count types: every token, or for rhyme the token
    closing each verse. POS n-grams (n = ``POS_NGRAM_N``) count the
    distinct window codes: verse boundaries do not break the window, and
    proper-name tokens stay in, as their tag is part of the sequence
    signal. A window is coded as a base-(number of tags) integer over the
    tag ids of its types; the corpus's codes are the union of each document's
    distinct codes, taken as Python ints, since a plain ``np.unique`` imports
    ``numpy.ma`` on numpy >= 2.3.
    """
    if spec.kind is not FeatureKind.POS_NGRAM:
        types, words = corpus.types, set(spec.function_words)
        rhyme = spec.kind is FeatureKind.RHYME_LEMMA
        ids = [doc.type_ids[doc.verse_ends - 1] if rhyme else doc.type_ids for doc in corpus]
        return len(types), lambda c: _type_features(types[c], spec, words), [(i, None) for i in ids]
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
    all_codes = np.array(sorted(set().union(*(codes.tolist() for codes, _ in per_doc))), np.int64)
    tags = [tag.replace("\\", "\\\\").replace(".", "\\.") for tag in tag_ids]
    places = [len(tags) ** (POS_NGRAM_N - 1 - k) for k in range(POS_NGRAM_N)]
    names = [[".".join(tags[code // p % len(tags)] for p in places)] for code in all_codes.tolist()]
    doc_columns = [(np.searchsorted(all_codes, codes), n) for codes, n in per_doc]
    return len(names), names.__getitem__, doc_columns


def _count(corpus: Corpus, spec: FeatureSpec) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """docs x features counts of a family, and each document's denominator.

    Each document's columns are bincounted into one row of column counts,
    which is gathered onto the (column, name) pairs and bincounted into
    feature counts: float sums of integer counts, exact below 2**53. Only
    columns with a positive corpus total get their names, and the features
    are those names in sorted order. The denominator is the row's total,
    or for function words the document's count of non-proper tokens.
    """
    n, names_of, doc_columns = _columns(corpus, spec)
    totals = sum(np.bincount(ids, weights, n) for ids, weights in doc_columns)
    pairs = [(name, c) for c in np.flatnonzero(totals).tolist() for name in names_of(c)]
    index = {name: j for j, name in enumerate(sorted({name for name, _ in pairs}))}
    feature = np.array([index[name] for name, _ in pairs], dtype=np.intp)
    owner = np.array([c for _, c in pairs], dtype=np.intp)
    lexical = None
    if spec.kind is FeatureKind.FUNCTION_WORD:
        lexical = np.array([not tok.is_proper_noun for tok in corpus.types], dtype=np.int64)
    counts, denoms = np.zeros((len(corpus), len(index))), np.zeros(len(corpus))
    for d, (ids, weights) in enumerate(doc_columns):
        column_counts = np.bincount(ids, weights, n)
        counts[d] = np.bincount(feature, column_counts[owner], len(index))
        denoms[d] = counts[d].sum() if lexical is None else column_counts @ lexical
    return tuple(index), counts, denoms


def build_matrix(corpus: Corpus, spec: FeatureSpec) -> FeatureMatrix:
    """Assemble the corpus-wide matrix for one feature family.

    Columns are the lexicographically sorted names with a positive count
    in some document; rows hold relative frequencies. A document with no
    extractable features keeps an all-zero row.
    """
    if len(corpus) == 0:
        raise AnalysisError("cannot build a matrix from an empty corpus")
    names, counts, denoms = _count(corpus, spec)
    counts /= np.where(denoms > 0, denoms, 1)[:, None]
    return FeatureMatrix(corpus.doc_ids, names, counts)


# The one on-disk float format: a decimal with 12 significant digits.
FLOAT_FORMAT = "%.12g"
# Text written as it is: without a delimiter, quote or line break.
_PLAIN = re.compile(r'[^,"\r\n]*')


def _field(text: str, alone: bool) -> str:
    """text as one field: as it is, or in double quotes with each ``"`` doubled when it
    holds ``,`` ``"`` ``\\r`` or ``\\n``, or is empty and ``alone``, the row's only field
    (an empty line would be no row)."""
    if _PLAIN.fullmatch(text) and (text or not alone):
        return text
    return '"' + text.replace('"', '""') + '"'


def write_table(
    path: str | Path, header: Sequence[str], heads: Sequence[str],
    floats: np.ndarray | None = None, tails: Sequence[Sequence[str]] = (),
) -> None:
    """The one on-disk table layout: UTF-8, comma-separated, LF line ends.

    Row i is ``heads[i]``, then ``floats[i]`` in FLOAT_FORMAT, then ``tails[k][i]``
    for each k: one %-format per line, built once per table. Rows are converted
    one at a time, so no second copy of the table is held.
    """
    width = 0 if floats is None else floats.shape[1]
    alone = not width and not tails
    line = "%s" + ("," + FLOAT_FORMAT) * width + ",%s" * len(tails) + "\n"
    with open_output(path) as fh:
        fh.write(",".join(_field(name, len(header) == 1) for name in header) + "\n")
        for i, head in enumerate(heads):
            row = floats[i].tolist() if width else ()
            rest = (_field(tail[i], False) for tail in tails)
            fh.write(line % (_field(head, alone), *row, *rest))


def write_matrix_csv(matrix: FeatureMatrix, path: str | Path) -> None:
    write_table(path, ("doc_id", *matrix.feature_names), matrix.doc_ids, matrix.values)


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
