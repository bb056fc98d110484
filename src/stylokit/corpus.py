"""Corpus ingestion: token files, manifests, normalization, filtering.

Token files carry one token per line as FORM<TAB>LEMMA<TAB>POS, with a
blank line closing each verse and ``#`` starting a comment line. All
forms and lemmas are lowercased and stripped of punctuation on the way
in; tokens that vanish under that normalization are dropped entirely.

A corpus is parsed as a whole over one vocabulary: ``Corpus.types``
holds each distinct normalized token once, and a ``Document`` is an
array of ids into it, in reading order, plus the exclusive int32 end
offset of each verse. The ids are uint16 up to 2**16 types and int32
beyond (``_id_dtype``). One line table local to the parse maps every
distinct raw line to its type id: a dict whose ``__missing__`` normalizes
and registers a line on first sight, so ``normalize_token`` runs once per
distinct line and a document is read in one C-level pass,
``np.fromiter(map(table.__getitem__, lines))``. Proper-name tokens (POS
prefix ``NOMpro``) keep their types -- POS n-grams need them -- and the
lexical families skip those types. Each document's ids and verse ends
are appended, in reading order, to one ids array and one verse-ends array
per corpus, and its two arrays are views into them: per-document arrays
left ~0.5 MB more RSS. The ids array is widened to int32 once, when the
vocabulary passes 2**16 types. The documents are sorted by doc id, the
one row order of everything after.

``load_manifest`` reads a corpus parsed before from the same bytes back
from ``stylokit.cache``, which builds it through the same ``_assemble``.

Every input may start with a UTF-8 byte-order mark, which is dropped.
Token files are streamed, never held whole; on a read error,
``read_utf8`` reads the file again to name it and the bad byte's line.
Every other file stylokit reads or writes goes through ``read_utf8`` or
``open_output``, which turn an unusable path into a CorpusFormatError
naming it.
"""

from __future__ import annotations

import codecs
import csv
import io
import unicodedata
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import AnalysisError, CorpusFormatError

PROPER_NOUN_PREFIX = "NOMpro"

# Apostrophes are the one punctuation mark that stays: French elision
# ("l'", "c'", "s'") is a high-frequency stylistic signal.
_KEPT_PUNCT = {"'"}
_APOSTROPHE_VARIANTS = {"’": "'"}


def _strip_punctuation(text: str) -> str:
    out = []
    for ch in text:
        ch = _APOSTROPHE_VARIANTS.get(ch, ch)
        if unicodedata.category(ch).startswith("P") and ch not in _KEPT_PUNCT:
            continue
        out.append(ch)
    return "".join(out)


@dataclass(frozen=True)
class AnnotatedToken:
    form: str
    lemma: str
    pos: str

    @property
    def is_proper_noun(self) -> bool:
        return self.pos.startswith(PROPER_NOUN_PREFIX)


@dataclass(frozen=True, eq=False)
class Document:
    """One play as ids into its corpus's ``types``, with verse end offsets.

    The ids are uint16, or int32 past 2**16 types (``_id_dtype``); the verse
    ends are int32. Documents compare by identity: their ids mean something
    only against the vocabulary of the corpus that parsed them.
    """

    id: str
    alleged_author: str
    type_ids: np.ndarray
    verse_ends: np.ndarray

    @property
    def token_count(self) -> int:
        return len(self.type_ids)


@dataclass(frozen=True)
class Corpus:
    documents: tuple[Document, ...] = ()
    types: tuple[AnnotatedToken, ...] = ()

    def __post_init__(self) -> None:
        ids = [d.id for d in self.documents]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise CorpusFormatError(f"duplicate document ids: {dupes}")

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)

    @property
    def doc_ids(self) -> tuple[str, ...]:
        return tuple(d.id for d in self.documents)

    def alleged_authors(self) -> dict[str, str]:
        return {d.id: d.alleged_author for d in self.documents}


def normalize_form(text: str) -> str:
    """Lowercased, ``’`` read as ``'``, and every punctuation mark but the apostrophe stripped."""
    return _strip_punctuation(text.lower())


def normalize_token(raw_form: str, lemma: str, pos: str) -> AnnotatedToken | None:
    """Normalize form and lemma with ``normalize_form``; return None when nothing survives.

    Proper-name tokens are normalized and returned like any other: the
    decision to skip them belongs to the lexical families, because POS
    n-grams still consume them.
    """
    form = normalize_form(raw_form)
    lem = normalize_form(lemma)
    if not form or not lem:
        return None
    return AnnotatedToken(form=form, lemma=lem, pos=pos)


# Line ids that are not type ids: comments and lines that normalize to
# nothing are skipped, blank lines close a verse.
_SKIPPED, _VERSE_BREAK = -1, -2


def _id_dtype(n_types: int) -> np.dtype:
    """The dtype of every document's ids over a vocabulary of n_types: two bytes while they fit."""
    return np.dtype(np.uint16 if n_types <= 1 << 16 else np.int32)


class _MalformedLine(Exception):
    """args: a raw token line without three fields, and its field count."""


class _LineTable(dict):
    """Raw line -> type id in ``vocabulary``, or a line id below 0; filled on first lookup."""

    def __init__(self) -> None:
        super().__init__()
        self.vocabulary: dict[AnnotatedToken, int] = {}

    def __missing__(self, raw: str) -> int:
        line = raw.rstrip("\r\n")
        if line.startswith("#"):
            line_id = _SKIPPED
        elif not line.strip():
            line_id = _VERSE_BREAK
        else:
            fields = line.split("\t")
            if len(fields) != 3:
                raise _MalformedLine(raw, len(fields))
            token = normalize_token(*fields)
            vocabulary = self.vocabulary
            line_id = _SKIPPED if token is None else vocabulary.setdefault(token, len(vocabulary))
        self[raw] = line_id
        return line_id


def parse_corpus(sources: Iterable[tuple]) -> Corpus:
    """Parse each (doc id, author, FORM/LEMMA/POS lines[, label]) source over one vocabulary.

    The lines are a list of strings or an open text file. Identical lines,
    within and across documents, get one type id. A trailing verse without
    a closing blank line is accepted. Sources are read in the order given,
    but the corpus holds its documents sorted by doc id: that is the one
    row order of every matrix and output. Raises CorpusFormatError on a
    malformed line (naming the source's label and the line number) or when
    no token of a document survives (naming the label). The label defaults
    to the document id.
    """
    table = _LineTable()
    heads, type_ids, verse_ends = [], np.empty(0, np.uint16), np.empty(0, np.int32)
    for doc_id, author, lines, *label in sources:
        where = label[0] if label else doc_id
        start = lines.tell() if hasattr(lines, "seek") else 0  # past a skipped byte-order mark
        try:
            codes = np.fromiter(map(table.__getitem__, lines), np.int32)
        except _MalformedLine as bad:
            raw, n_fields = bad.args
            if hasattr(lines, "seek"):  # the line's number comes from a second read
                lines.seek(start)
            lineno = next((n for n, line in enumerate(lines, start=1) if line == raw), "?")
            raise CorpusFormatError(
                f"{where}: line {lineno}: expected FORM<TAB>LEMMA<TAB>POS, got {n_fields} field(s)"
            ) from None
        others = np.flatnonzero(codes < 0)
        n_ids = len(codes) - len(others)
        if not n_ids:
            raise CorpusFormatError(f"{where}: empty document")
        # The i-th non-token line, at index p, has p - i tokens before it. A
        # verse ends at each blank line after a token, and after the last token.
        ends = (others - np.arange(len(others)))[codes[others] == _VERSE_BREAK]
        ends = np.append(ends, n_ids)
        ends = ends[np.diff(ends, prepend=0) > 0]
        ids = np.delete(codes, others)
        del codes, others  # freed before the corpus arrays grow: ~0.1 MB less peak RSS
        if type_ids.dtype != _id_dtype(len(table.vocabulary)):  # it just passed 2**16 types
            type_ids = type_ids.astype(np.int32)
        i, j = len(type_ids), len(verse_ends)
        type_ids.resize(i + n_ids, refcheck=False)
        verse_ends.resize(j + len(ends), refcheck=False)
        type_ids[i:], verse_ends[j:] = ids, ends
        heads.append((doc_id, author, n_ids, len(ends)))
    return _assemble(heads, type_ids, verse_ends, tuple(table.vocabulary))


def _assemble(heads: list, type_ids: np.ndarray, verse_ends: np.ndarray, types: tuple) -> Corpus:
    """The corpus of the (id, author, id count, verse count) heads, sorted by id, whose
    documents' arrays are views, in the heads' order, into the two arrays."""
    documents, i, j = [], 0, 0
    for doc_id, author, n_ids, n_ends in heads:
        ids, ends = type_ids[i : i + n_ids], verse_ends[j : j + n_ends]
        documents.append(Document(doc_id, author, ids, ends))
        i, j = i + n_ids, j + n_ends
    documents.sort(key=lambda doc: doc.id)
    return Corpus(tuple(documents), types)


def read_utf8(path: str | Path) -> str:
    """A whole input file as text, less one leading byte-order mark; a bad
    byte raises CorpusFormatError naming its line.

    A file that cannot be read at all (missing, a directory, no permission)
    raises CorpusFormatError naming the path.
    """
    try:
        data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    except OSError as exc:
        raise CorpusFormatError(f"{path}: cannot read: {exc.strerror or exc}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise CorpusFormatError(f"{path}: line {line}: not valid UTF-8 ({exc.reason})") from None


@contextmanager
def open_output(path: str | Path) -> Iterator[TextIO]:
    """An output file opened for UTF-8 text with no newline translation.

    Failing to open or write it (a directory in its way, no permission, a
    full disk) raises CorpusFormatError naming the path.
    """
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise CorpusFormatError(f"{path}: cannot write: {exc.strerror or exc}") from None


def make_output_dir(path: str | Path) -> Path:
    """The directory at path, made if missing; a file in the way raises CorpusFormatError."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        reason = exc.strerror or exc
        raise CorpusFormatError(f"{path}: cannot create output directory: {reason}") from None
    return path


MANIFEST_FIELDS = ("id", "title", "author", "genre", "form", "acts", "year", "path")


def _parse_manifest_row(
    row: dict[str, str], manifest_path: Path, line: int
) -> tuple[str, str, Path]:
    """(doc id, alleged author, token file path) of a row; the other columns are only checked."""
    where = f"{manifest_path}: line {line}"
    if None in row or None in row.values():
        raise CorpusFormatError(f"{where}: expected {len(MANIFEST_FIELDS)} fields")
    if not row["id"]:
        raise CorpusFormatError(f"{where}: empty id")
    for field in ("id", "author", "path"):  # rows carry id and author, and errors the path
        if "\r" in row[field] or "\n" in row[field]:
            raise CorpusFormatError(f"{where}: {field} {row[field]!r} holds a line break")
    if not row["path"]:
        raise CorpusFormatError(f"{where}: empty path")
    if "\0" in row["path"]:
        raise CorpusFormatError(f"{where}: path contains a NUL byte")
    try:
        for field in ("acts", "year"):
            if row[field]:
                int(row[field])
    except ValueError:
        raise CorpusFormatError(
            f"{where}: acts and year must be integers, got {row['acts']!r} and {row['year']!r}"
        ) from None
    return row["id"], row["author"], manifest_path.parent / row["path"]


def load_manifest(manifest_path: str | Path) -> Corpus:
    """Read a manifest CSV and parse every token file it points to.

    The manifest has the header ``id,title,author,genre,form,acts,year,path``
    with paths resolved relative to the manifest location. Every row is
    checked before the first token file is opened; a doc id seen twice
    raises CorpusFormatError naming its line. The token files are parsed in
    manifest order by one ``parse_corpus``, so an error names the first file
    that fails. The corpus holds the documents sorted by doc id. A corpus
    parsed before from the same ids, authors and token-file bytes is read
    from the corpus cache instead.
    """
    manifest_path = Path(manifest_path)
    reader = csv.DictReader(io.StringIO(read_utf8(manifest_path), newline=""))
    if reader.fieldnames is None or tuple(reader.fieldnames) != MANIFEST_FIELDS:
        raise CorpusFormatError(
            f"{manifest_path}: line 1: header must be {','.join(MANIFEST_FIELDS)}, "
            f"got {reader.fieldnames}"
        )
    rows, seen = [], set()
    for row in reader:
        doc_id, author, path = _parse_manifest_row(row, manifest_path, reader.line_num)
        if doc_id in seen:
            raise CorpusFormatError(
                f"{manifest_path}: line {reader.line_num}: duplicate document id {doc_id!r}"
            )
        seen.add(doc_id)
        rows.append((doc_id, author, path))
    if not rows:
        raise CorpusFormatError(f"manifest is empty: {manifest_path}")
    from . import cache  # on first load: ``import stylokit.cli`` leaves it uncompiled

    try:
        return cache.load(rows)
    except (OSError, UnicodeDecodeError):
        for *_, path in rows:  # the first file that cannot be read whole raises naming it
            read_utf8(path)
        raise


def _token_files(rows: list[tuple[str, str, Path]]) -> Iterator[tuple]:
    for doc_id, author, path in rows:
        with open(path, encoding="utf-8", newline=None) as fh:
            # A leading byte-order mark is dropped from the byte buffer, before
            # any decoding: the utf-8-sig codec raised a load's peak RSS ~0.1 MB.
            if fh.buffer.peek(3)[:3] == codecs.BOM_UTF8:
                fh.buffer.read(3)
            yield doc_id, author, fh, path


def filter_corpus(corpus: Corpus, min_tokens: int, min_plays_per_author: int) -> Corpus:
    """Apply the length rule, then the plays-per-author rule to a fixed point.

    Documents shorter than ``min_tokens`` go first; afterwards every author
    with fewer than ``min_plays_per_author`` surviving documents loses all
    of them, repeated until stable. The vocabulary is kept whole.
    """
    if min_tokens < 0:
        raise ValueError("min_tokens must be >= 0")
    if min_plays_per_author < 1:
        raise ValueError("min_plays_per_author must be >= 1")

    docs = [d for d in corpus.documents if d.token_count >= min_tokens]
    while True:
        counts: dict[str, int] = {}
        for d in docs:
            counts[d.alleged_author] = counts.get(d.alleged_author, 0) + 1
        kept = [d for d in docs if counts[d.alleged_author] >= min_plays_per_author]
        if len(kept) == len(docs):
            break
        docs = kept
    if not docs:
        raise AnalysisError("no documents survive filtering")
    return replace(corpus, documents=tuple(docs))
