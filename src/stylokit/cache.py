"""A cache of parsed corpora, keyed by the bytes ``load_manifest`` would parse.

Entries live in ``$XDG_CACHE_HOME/stylokit/``, else ``~/.cache/stylokit/``.
An entry's key holds, per manifest row in order, the doc id, the author and
the token file's byte length and CRC-32, then the CRC-32 of the sources of
``corpus.py`` and this module and the Unicode data version: all that decides
what a parse makes of those bytes. The paths are not in it, so a copied
corpus keys the same. ``zlib``, not ``hashlib``: importing hashlib loads
OpenSSL, +3.5 MB of RSS per process.

An entry is no pickle, so a file dropped into the directory cannot run code:
the key line; one JSON header line (the id dtype, ``corpus._heads`` and a
CRC-32 over the rest of the header and the payload); then the payload, every
document's ids and then every document's verse ends. A hit reads each of the
two arrays whole and returns the corpus a parse builds, its documents views
into them as ``corpus._receive`` makes them. An entry whose key line, header
or CRC does not check out is a miss. A miss parses and stores the corpus,
unless a token file changed during the parse; the 16 entries used last are
kept.

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
from .corpus import Corpus
from .errors import StylokitError

_KEPT = 16
_CHUNK = 1 << 16


def load(rows: list[tuple[str, str, Path]]) -> Corpus:
    """The corpus of the manifest rows: a stored entry's, or the parse's, then stored."""
    directory = _directory()
    key = directory and _key(rows)
    if not key:
        return _corpus._parse_runs(rows)
    path = directory / f"{zlib.crc32(key):08x}{zlib.adler32(key):08x}.corpus"
    try:
        corpus = _read(path, key)
    except (OSError, ValueError, TypeError, KeyError, AttributeError, MemoryError, StylokitError):
        corpus = None  # what a missing, damaged or foreign entry raises is a miss
    if corpus is not None:
        with suppress(OSError):
            os.utime(path)  # most recently used
        return corpus
    corpus = _corpus._parse_runs(rows)
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
        dtype, heads, types = np.dtype(head["dtype"]), head["heads"], head["types"]
        if dtype != _corpus._id_dtype(len(types)):  # written on a machine of the other byte order
            return None
        type_ids = np.empty(sum(n_ids for *_, n_ids, _ in heads), dtype)
        verse_ends = np.empty(sum(n_ends for *_, n_ends in heads), np.int32)
        for array in (type_ids, verse_ends):
            fh.readinto(array)
    # The header written again, as _write wrote it: a short read fails here too.
    if _crc(json.dumps(head), type_ids, verse_ends) != crc:
        return None
    return _corpus._assemble(heads, type_ids, verse_ends, types)


def _crc(head: str, *arrays: np.ndarray) -> int:
    crc = zlib.crc32(head.encode())
    for array in arrays:
        crc = zlib.crc32(array, crc)
    return crc


def _write(path: Path, key: bytes, corpus: Corpus) -> None:
    """Store the entry through a temporary file, one array at a time, and
    drop all but the entries used last. The arrays are never concatenated:
    that copy raised a cold `wide` benchmark op's peak RSS from 35.1 to 37.0 MB."""
    payload = [d.type_ids for d in corpus] + [d.verse_ends for d in corpus]
    heads, types = _corpus._heads(corpus)
    head = {"dtype": corpus.documents[0].type_ids.dtype.str, "heads": heads, "types": types}
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
