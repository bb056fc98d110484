"""Corpus ingestion: token files, manifests, normalization, filtering.

Token files carry one token per line as FORM<TAB>LEMMA<TAB>POS, with a
blank line closing each verse and ``#`` starting a comment line. All
forms and lemmas are lowercased and stripped of punctuation on the way
in; tokens that vanish under that normalization are dropped entirely.

A corpus is parsed as a whole over one vocabulary: ``Corpus.types``
holds each distinct normalized token once. One line table local to the
parse maps every distinct raw line to its type id: a dict whose
``__missing__`` normalizes and registers a line on first sight, so
``normalize_token`` runs once per distinct line and a document is read
in one C-level pass, ``np.fromiter(map(table.__getitem__, lines))``.
Each document is then reduced to its token count and three count tables
of (column, count) cells: its types, its verse-final types, and its POS
windows, which cross verse breaks and keep proper names (POS ``NOMpro``;
the lexical families skip them); a window column is a row of tag ids in
``Corpus.windows``. The parse numbers the POS tags in the order of their
first types and keeps them in that order as ``Corpus.tags``, which the
corpus cache stores beside the types. A table is one pair of corpus-wide
arrays; a document holds the slice of its cells: per-document arrays
left ~0.5 MB more RSS.
Columns are uint16 up to 2**16 and int32 beyond (``_id_dtype``); counts
are int32. The documents are sorted by doc id, the one row order of all.

``load_manifest`` reads a corpus parsed before from the same bytes back
from ``stylokit.cache``, which builds it through the same ``_assemble``.

Every input may start with a UTF-8 byte-order mark, which is dropped.
Token files are streamed, never held whole; on a read error,
``read_utf8`` reads the file again to name it and the bad byte's line.
Every other file stylokit reads goes through ``read_utf8``, and every file
it writes through ``features.open_output``: each turns an unusable path
into a CorpusFormatError naming it.
"""

from __future__ import annotations

import codecs
import io
import unicodedata
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import AnalysisError, CorpusFormatError

PROPER_NOUN_PREFIX = "NOMpro"

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
    """One play: its token count and the slice of its cells in each count table. Documents
    compare by identity: their cells mean something only in the corpus that parsed them."""

    id: str
    alleged_author: str
    token_count: int
    cells: tuple[slice, slice, slice]


# The count tables, in the order of Corpus.tables and Document.cells.
TYPES, RHYMES, WINDOWS = range(3)
POS_NGRAM_N = 3
_TAG_BITS = 21  # per tag id in a window's code: three fit in an int64


@dataclass(frozen=True)
class Corpus:
    documents: tuple[Document, ...]
    types: tuple[AnnotatedToken, ...]
    tags: tuple[str, ...]  # each POS tag once, in the order of its first type: a tag id indexes it
    windows: np.ndarray = field(compare=False)  # per window column, a row of tag ids (tags)
    tables: tuple = field(compare=False)  # per count table, its (columns, counts) arrays

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

    def cells(self, doc: Document, table: int) -> tuple[np.ndarray, ...]:
        """The document's (columns, counts) in one count table: views into its arrays."""
        return tuple(array[doc.cells[table]] for array in self.tables[table])


def normalize_form(text: str) -> str:
    """Lowercased, ``’`` read as ``'``, and every code point but ``'`` whose Unicode category
    starts with P dropped: French elision (``l'``, ``c'``, ``s'``) is a frequent style signal."""
    text = text.lower().replace("’", "'")
    return "".join([ch for ch in text if ch == "'" or not unicodedata.category(ch).startswith("P")])


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


def _id_dtype(n_columns: int) -> np.dtype:
    """The dtype of a count table's columns over n_columns: two bytes while they fit."""
    return np.dtype(np.uint16 if n_columns <= 1 << 16 else np.int32)


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


def _cells(codes: np.ndarray, type_tags: np.ndarray, window_ids: dict[int, int]) -> list:
    """A document's (columns, counts) per count table, from its type ids and verse breaks: a
    token closes a verse when a break or the end comes next; a window's column is its code's
    index in ``window_ids``, the code its tag ids."""
    is_id = codes >= 0
    ids, finals = codes[is_id], codes[is_id & (np.append(codes[1:], _VERSE_BREAK) < 0)]
    tag_ids, windows = type_tags[ids], np.zeros(max(len(ids) - POS_NGRAM_N + 1, 0), np.int64)
    for k in range(POS_NGRAM_N):
        windows = windows << _TAG_BITS | tag_ids[k : k + len(windows)]
    cells = [a for x in (ids, finals, windows) for a in np.unique(x, return_counts=True)]
    cells[4] = [window_ids.setdefault(code, len(window_ids)) for code in cells[4].tolist()]
    return cells


def parse_corpus(sources: Iterable[tuple]) -> Corpus:
    """Parse each (doc id, author, FORM/LEMMA/POS lines[, label]) source over one vocabulary.

    The lines are a list of strings or an open text file. Identical lines,
    within and across documents, get one type id. A trailing verse without
    a closing blank line is accepted. Sources are read in the order given,
    but the corpus holds its documents sorted by doc id: that is the one
    row order of every matrix and output. Raises CorpusFormatError, naming
    the source's label (by default the doc id), on a malformed line (and its
    number), when no token of a document survives, or past 2**21 POS tags.
    """
    table, heads, tags, type_tags, window_ids = _LineTable(), [], {}, np.empty(0, np.int64), {}
    # Per table its columns and counts, made 0.5-1 MiB, then emptied: glibc maps a block that
    # large apart and grows it by mremap, so they leave no holes in the heap (-0.5 MB RSS).
    arrays = [np.empty(1 << 18, dtype) for dtype in (np.uint16, np.int32) * 3]
    for array in arrays:
        array.resize(0, refcheck=False)
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
        new = islice(table.vocabulary, len(type_tags), None)  # this document's new types
        new = np.fromiter((tags.setdefault(tok.pos, len(tags)) for tok in new), np.int64)
        if len(tags) > 1 << _TAG_BITS:
            raise CorpusFormatError(f"{where}: more than 2**{_TAG_BITS} POS tags")
        type_tags = np.append(type_tags, new)
        cells = _cells(codes[codes != _SKIPPED], type_tags, window_ids)
        if not len(cells[0]):
            raise CorpusFormatError(f"{where}: empty document")
        heads.append((doc_id, author, int(cells[1].sum()), *map(len, cells[::2])))
        for t, n_columns in enumerate((len(table.vocabulary),) * 2 + (len(window_ids),)):
            if arrays[2 * t].dtype != _id_dtype(n_columns):  # it just passed 2**16 columns
                arrays[2 * t] = arrays[2 * t].astype(np.int32)
        for array, values in zip(arrays, cells):
            n = len(array)
            array.resize(n + len(values), refcheck=False)
            array[n:] = values
    shifts = _TAG_BITS * np.arange(POS_NGRAM_N - 1, -1, -1)
    windows = np.fromiter(window_ids, np.int64)[:, None] >> shifts & (1 << _TAG_BITS) - 1
    return _assemble(heads, [*arrays, windows.astype(np.int32)], tuple(table.vocabulary), tags)


def _assemble(heads: list, arrays: list, types: tuple, tags: Iterable[str]) -> Corpus:
    """The corpus of the (id, author, token count, cell count per table) heads, sorted by id:
    the arrays are each table's columns and counts, in the heads' order, then the windows."""
    documents, starts = [], (0, 0, 0)
    for doc_id, author, n_tokens, *n_cells in heads:
        cells = tuple(slice(i, i + n) for i, n in zip(starts, n_cells))
        documents.append(Document(doc_id, author, n_tokens, cells))
        starts = tuple(c.stop for c in cells)
    documents.sort(key=lambda doc: doc.id)
    tables = tuple(zip(arrays[0:6:2], arrays[1:6:2]))
    return Corpus(tuple(documents), types, tuple(tags), arrays[6], tables)


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
    that fails; one that fails during the parse but reads whole afterwards
    raises CorpusFormatError naming the manifest. The corpus holds the
    documents sorted by doc id. A corpus parsed before from the same ids,
    authors and token-file bytes is read from the corpus cache instead.
    """
    import csv  # here, as the cache below: a process that loads no corpus never imports it
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
        raise CorpusFormatError(f"{manifest_path}: no documents")
    from . import cache  # on first load: ``import stylokit.cli`` leaves it uncompiled

    try:
        return cache.load(rows)
    except (OSError, UnicodeDecodeError) as exc:
        for *_, path in rows:  # the first file that cannot be read whole raises naming it
            read_utf8(path)
        raise CorpusFormatError(f"{manifest_path}: a token file failed to read: {exc}") from None


def _token_files(rows: list[tuple[str, str, Path]]) -> Iterator[tuple]:
    for doc_id, author, path in rows:
        with open(path, encoding="utf-8", newline=None) as fh:
            # A leading byte-order mark is dropped from the byte buffer, before
            # any decoding: the utf-8-sig codec raised a load's peak RSS ~0.1 MB.
            if fh.buffer.peek(3)[:3] == codecs.BOM_UTF8:
                fh.buffer.read(3)
            yield doc_id, author, fh, path


def filter_corpus(corpus: Corpus, min_tokens: int, min_plays_per_author: int) -> Corpus:
    """Apply the length rule, then the plays-per-author rule, once each.

    Documents shorter than ``min_tokens`` go first. Then every author left
    with fewer than ``min_plays_per_author`` documents loses all of them:
    dropping an author changes no other author's count. The vocabulary is
    kept whole.
    """
    if min_tokens < 0:
        raise ValueError("min_tokens must be >= 0")
    if min_plays_per_author < 1:
        raise ValueError("min_plays_per_author must be >= 1")

    docs = [d for d in corpus.documents if d.token_count >= min_tokens]
    plays = Counter(d.alleged_author for d in docs)
    docs = [d for d in docs if plays[d.alleged_author] >= min_plays_per_author]
    if not docs:
        raise AnalysisError("no documents survive filtering")
    return replace(corpus, documents=tuple(docs))
