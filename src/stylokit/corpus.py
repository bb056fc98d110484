"""Corpus ingestion: token files, manifests, normalization, filtering.

Token files carry one token per line as FORM<TAB>LEMMA<TAB>POS, with a
blank line closing each verse and ``#`` starting a comment line. All
forms and lemmas are lowercased and stripped of punctuation on the way
in; tokens that vanish under that normalization are dropped entirely.
Proper-name tokens (POS prefix ``NOMpro``) are kept in the document --
morphosyntactic extractors need them -- but are left out of
``Document.lexical_counts``, which the lexical extractors read.

A parsed document is flat: ``tokens`` holds every surviving token in
reading order and ``verse_ends`` the exclusive end offset of each verse.
``normalize_token`` is cached, so identical raw lines yield one shared
``AnnotatedToken`` and a document costs one pointer per token; the
feature families then count per distinct token, not per occurrence.
"""

from __future__ import annotations

import csv
import functools
import io
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

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


@dataclass(frozen=True)
class DocumentMeta:
    id: str
    title: str = ""
    alleged_author: str = ""
    genre: str = ""
    form: str = "verse"
    act_count: int = 0
    year: int | None = None


@dataclass(frozen=True)
class Document:
    meta: DocumentMeta
    tokens: tuple[AnnotatedToken, ...]
    verse_ends: tuple[int, ...]

    @property
    def token_count(self) -> int:
        return len(self.tokens)

    @property
    def verses(self) -> tuple[tuple[AnnotatedToken, ...], ...]:
        """Each verse's tokens, sliced out of the flat stream."""
        starts = (0, *self.verse_ends[:-1])
        return tuple(self.tokens[s:e] for s, e in zip(starts, self.verse_ends))

    def lexical_counts(self) -> Counter[AnnotatedToken]:
        """Each distinct token the lexical families count, proper names excluded."""
        counts = Counter(self.tokens)
        return Counter({tok: n for tok, n in counts.items() if not tok.is_proper_noun})


@dataclass(frozen=True)
class Corpus:
    documents: tuple[Document, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ids = [d.meta.id for d in self.documents]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise CorpusFormatError(f"duplicate document ids: {dupes}")

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)

    @property
    def doc_ids(self) -> tuple[str, ...]:
        return tuple(d.meta.id for d in self.documents)

    def alleged_authors(self) -> dict[str, str]:
        return {d.meta.id: d.meta.alleged_author for d in self.documents}


@functools.cache
def normalize_token(raw_form: str, lemma: str, pos: str) -> AnnotatedToken | None:
    """Lowercase and strip punctuation; return None when nothing survives.

    Proper-name tokens are normalized and returned like any other: the
    decision to skip them belongs to the lexical extractors, because POS
    n-grams still consume them. Cached for the life of the process, so
    equal inputs share one token object.
    """
    form = _strip_punctuation(raw_form.lower())
    lem = _strip_punctuation(lemma.lower())
    if not form or not lem:
        return None
    return AnnotatedToken(form=form, lemma=lem, pos=pos)


def parse_document(lines: Iterable[str], meta: DocumentMeta) -> Document:
    """Build a Document from FORM/LEMMA/POS lines with blank-line verse breaks.

    A trailing verse without a closing blank line is accepted. Raises
    CorpusFormatError on malformed lines (naming the line number) or when
    no token survives at all.
    """
    tokens: list[AnnotatedToken] = []
    verse_ends: list[int] = []

    def close_verse() -> None:
        if len(tokens) > (verse_ends[-1] if verse_ends else 0):
            verse_ends.append(len(tokens))

    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if line.startswith("#"):
            continue
        if not line.strip():
            close_verse()
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise CorpusFormatError(
                f"{meta.id}: line {lineno}: expected FORM<TAB>LEMMA<TAB>POS, "
                f"got {len(fields)} field(s)"
            )
        token = normalize_token(*fields)
        if token is not None:
            tokens.append(token)
    close_verse()

    if not tokens:
        raise CorpusFormatError(f"{meta.id}: empty document")
    return Document(meta=meta, tokens=tuple(tokens), verse_ends=tuple(verse_ends))


def read_utf8(path: str | Path) -> str:
    """A whole input file as text; a bad byte raises CorpusFormatError naming its line.

    A file that cannot be read at all (missing, a directory, no permission)
    raises CorpusFormatError naming the path.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CorpusFormatError(f"{path}: cannot read: {exc.strerror or exc}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise CorpusFormatError(f"{path}: line {line}: not valid UTF-8 ({exc.reason})") from None


def parse_token_file(path: str | Path, meta: DocumentMeta) -> Document:
    return parse_document(io.StringIO(read_utf8(path), newline=None), meta)


def write_token_file(doc: Document, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for verse in doc.verses:
            for tok in verse:
                fh.write(f"{tok.form}\t{tok.lemma}\t{tok.pos}\n")
            fh.write("\n")


MANIFEST_FIELDS = ("id", "title", "author", "genre", "form", "acts", "year", "path")


def _parse_manifest_row(
    row: dict[str, str], manifest_path: Path, line: int
) -> tuple[DocumentMeta, Path]:
    where = f"{manifest_path}: line {line}"
    if None in row or None in row.values():
        raise CorpusFormatError(f"{where}: expected {len(MANIFEST_FIELDS)} fields")
    try:
        act_count = int(row["acts"]) if row["acts"] else 0
        year = int(row["year"]) if row["year"] else None
    except ValueError:
        raise CorpusFormatError(
            f"{where}: acts and year must be integers, got {row['acts']!r} and {row['year']!r}"
        ) from None
    meta = DocumentMeta(
        id=row["id"],
        title=row["title"],
        alleged_author=row["author"],
        genre=row["genre"],
        form=row["form"],
        act_count=act_count,
        year=year,
    )
    path = Path(row["path"])
    if not path.is_absolute():
        path = manifest_path.parent / path
    return meta, path


def load_manifest(manifest_path: str | Path) -> Corpus:
    """Read a manifest CSV and parse every token file it points to.

    The manifest has the header ``id,title,author,genre,form,acts,year,path``
    with paths resolved relative to the manifest location. Documents keep
    manifest order.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise CorpusFormatError(f"manifest not found: {manifest_path}")
    reader = csv.DictReader(io.StringIO(read_utf8(manifest_path), newline=""))
    if reader.fieldnames is None or tuple(reader.fieldnames) != MANIFEST_FIELDS:
        raise CorpusFormatError(
            f"manifest header must be {','.join(MANIFEST_FIELDS)}, got {reader.fieldnames}"
        )
    rows = [_parse_manifest_row(row, manifest_path, reader.line_num) for row in reader]
    if not rows:
        raise CorpusFormatError(f"manifest is empty: {manifest_path}")
    return Corpus(documents=tuple(parse_token_file(path, meta) for meta, path in rows))


def filter_corpus(corpus: Corpus, min_tokens: int, min_plays_per_author: int) -> Corpus:
    """Apply the length rule, then the plays-per-author rule to a fixed point.

    Documents shorter than ``min_tokens`` go first; afterwards every author
    with fewer than ``min_plays_per_author`` surviving documents loses all
    of them, repeated until stable.
    """
    if min_tokens < 0:
        raise ValueError("min_tokens must be >= 0")
    if min_plays_per_author < 1:
        raise ValueError("min_plays_per_author must be >= 1")

    docs = [d for d in corpus.documents if d.token_count >= min_tokens]
    while True:
        counts: dict[str, int] = {}
        for d in docs:
            counts[d.meta.alleged_author] = counts.get(d.meta.alleged_author, 0) + 1
        kept = [d for d in docs if counts[d.meta.alleged_author] >= min_plays_per_author]
        if len(kept) == len(docs):
            break
        docs = kept
    if not docs:
        raise AnalysisError("no documents survive filtering")
    return Corpus(documents=tuple(docs))
