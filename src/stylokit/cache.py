"""A cache of parsed corpora, keyed by the bytes ``load_manifest`` would parse.

Entries live in ``$XDG_CACHE_HOME/stylokit/``, else ``~/.cache/stylokit/``.
An entry's key holds, per manifest row in order, the doc id, the author and
the token file's byte length and CRC-32, then the CRC-32 of the sources of
``corpus.py`` and this module and the Unicode data version: all that decides
what a parse makes of those bytes. The paths are not in it, so a copied
corpus keys the same. ``zlib``, not ``hashlib``: importing hashlib loads
OpenSSL, +3.5 MB of RSS per process.

An entry is no pickle, so a file dropped into the directory cannot run code:
the key line; one JSON header line (per document its id, author, token
count and cell count per table; the types; the POS tags in the order of
their ids; each array's dtype and shape; and a CRC-32 over the rest of the
header and the payload); then the payload, the corpus's arrays: each count
table's columns and counts, in the parse's document order, then the POS
window rows. A hit reads each array whole and builds the corpus through
``corpus._assemble``, as a parse does.
An entry whose key line, header, dtypes (native uint16 or int32: an object
array would read pointers), payload length or CRC does not check out is a
miss. A miss parses and stores the corpus, unless a token file changed
during the parse; the 16 entries used last are kept.

A directory that cannot be found, read or written, or a token file that
cannot be read for the key, leaves the corpus parsed as with no cache: the
cache never prints, raises or changes an output byte. Deleting the
directory resets it.
"""

from __future__ import annotations

import json
import os
import unicodedata
import zlib
from contextlib import suppress
from pathlib import Path

import numpy as np

from . import corpus as _corpus
from .corpus import AnnotatedToken, Corpus
from .errors import StylokitError

_KEPT = 16
_CHUNK = 1 << 16


def load(rows: list[tuple[str, str, Path]]) -> Corpus:
    """The corpus of the manifest rows: a stored entry's, or the parse's, then stored."""
    directory = _directory()
    key = directory and _key(rows)
    if not key:
        return _corpus.parse_corpus(_corpus._token_files(rows))
    path = directory / f"{zlib.crc32(key):08x}{zlib.adler32(key):08x}.corpus"
    try:
        corpus = _read(path, key)
    except (OSError, ValueError, TypeError, KeyError, AttributeError, MemoryError,
            RecursionError, StylokitError):
        corpus = None  # what a missing, damaged or foreign entry raises is a miss
    if corpus is not None:
        with suppress(OSError):
            os.utime(path)  # most recently used
        return corpus
    corpus = _corpus.parse_corpus(_corpus._token_files(rows))
    with suppress(OSError):  # a store that fails leaves the parse's corpus as it is
        if _key(rows) == key:
            _write(path, key, corpus)
    return corpus


def _directory() -> Path | None:
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # the XDG rule: a relative value is ignored
        home = os.path.expanduser("~")
        if not os.path.isabs(home):  # no home directory to resolve
            return None
        base = os.path.join(home, ".cache")
    return Path(base, "stylokit")


def _key(rows: list[tuple[str, str, Path]]) -> bytes | None:
    """The key of the rows' entry; None if a token file cannot be read."""
    chunk = bytearray(_CHUNK)
    view = memoryview(chunk)
    try:
        sources = 0
        for source in (_corpus.__file__, __file__):
            sources = zlib.crc32(Path(source).read_bytes(), sources)
        parts = [unicodedata.unidata_version, sources]
        for doc_id, author, path in rows:
            crc = size = 0
            with open(path, "rb") as fh:
                while n := fh.readinto(chunk):
                    crc, size = zlib.crc32(view[:n], crc), size + n
            parts.append((doc_id, author, size, crc))
    except OSError:  # left to the parse, which raises a serial parse's error
        return None
    return json.dumps(parts).encode()


def _read(path: Path, key: bytes) -> Corpus | None:
    with open(path, "rb") as fh:
        if fh.readline() != key + b"\n":
            return None
        head = json.loads(fh.readline())
        crc = head.pop("crc")
        types = tuple(AnnotatedToken(*line.split("\t")) for line in head["types"].split("\n"))
        arrays = [np.empty(shape, dtype) for dtype, shape in head["arrays"]]
        if not all(a.dtype in (np.uint16, np.int32) for a in arrays):  # in native byte order
            return None
        if any(fh.readinto(a) != a.nbytes for a in arrays) or fh.read(1):
            return None  # a short payload, or bytes past its end
    # The header written again, as _write wrote it.
    if _crc(json.dumps(head), *arrays) != crc:
        return None
    return _corpus._assemble(head["heads"], arrays, types, head["tags"])


def _crc(head: str, *arrays: np.ndarray) -> int:
    crc = zlib.crc32(head.encode())
    for array in arrays:
        crc = zlib.crc32(array, crc)
    return crc


def _write(path: Path, key: bytes, corpus: Corpus) -> None:
    """Store the entry through a temporary file, one array at a time, and
    drop all but the entries used last. The arrays are never concatenated:
    that copy raised a cold `wide` benchmark op's peak RSS from 35.1 to 37.0 MB."""
    payload = [*(array for table in corpus.tables for array in table), corpus.windows]
    head = {  # the heads in the arrays' order, the parse's
        "heads": [(d.id, d.alleged_author, d.token_count, *(c.stop - c.start for c in d.cells))
                  for d in sorted(corpus, key=lambda doc: doc.cells[_corpus.TYPES].start)],
        "types": "\n".join(f"{t.form}\t{t.lemma}\t{t.pos}" for t in corpus.types),
        "tags": corpus.tags,
        "arrays": [(array.dtype.str, array.shape) for array in payload],
    }
    head["crc"] = _crc(json.dumps(head), *payload)
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "wb") as fh:
            fh.write(key + b"\n" + json.dumps(head).encode() + b"\n")
            for array in payload:
                fh.write(array)
        os.replace(temporary, path)
    finally:
        with suppress(OSError):
            temporary.unlink()
    entries = sorted(path.parent.glob("*.corpus"), key=lambda p: p.stat().st_mtime_ns)
    for stale in entries[:-_KEPT]:
        stale.unlink()
