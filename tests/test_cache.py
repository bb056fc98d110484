"""The corpus cache behind load_manifest: a hit is the parse's corpus, anything else parses."""

from __future__ import annotations

import csv
import os
import pwd
import shutil
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import one_line_per_type, snapshot, write_manifest
from stylokit import cache, corpus as corpus_module
from stylokit.cli import main
from stylokit.corpus import TYPES, load_manifest, parse_corpus
from stylokit.errors import CorpusFormatError

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_child(script: str, *args: str) -> subprocess.CompletedProcess:
    """A Python child process that imports this stylokit and inherits the cache directory."""
    paths = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    return subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True,
                          text=True)


@pytest.fixture
def parses(monkeypatch):
    """One entry per parse_corpus call."""
    calls = []
    monkeypatch.setattr(corpus_module, "parse_corpus",
                        lambda sources: calls.append(1) or parse_corpus(sources))
    return calls


def _entries(directory: Path) -> list[Path]:
    return sorted(directory.glob("*.corpus")) if directory.is_dir() else []


@pytest.fixture
def corpus_copy(synth_dir, tmp_path):
    return shutil.copytree(synth_dir, tmp_path / "corpus")


def _past_2_16_types(directory: Path) -> Path:
    files = {"a.tsv": one_line_per_type(range(40000)),
             "b.tsv": one_line_per_type(range(40000, (1 << 16) + 1))}
    return write_manifest(directory, files)


@pytest.mark.parametrize("corpus", ["synth", "past_2_16_types"])
def test_a_hit_is_the_corpus_a_parse_builds_and_parses_nothing(
    synth_dir, tmp_path, monkeypatch, corpus_cache, corpus
):
    manifest = synth_dir / "manifest.csv" if corpus == "synth" else _past_2_16_types(tmp_path)
    parsed = load_manifest(manifest)
    assert len(_entries(corpus_cache)) == 1

    def forbidden(*args):
        raise AssertionError("a hit parsed")

    monkeypatch.setattr(corpus_module, "parse_corpus", forbidden)
    hit = load_manifest(manifest)
    assert snapshot(hit) == snapshot(parsed)
    dtype = np.uint16 if corpus == "synth" else np.int32
    assert {hit.cells(doc, TYPES)[0].dtype for doc in hit} == {np.dtype(dtype)}
    arrays = [hit.windows, *(array for table in hit.tables for array in table)]
    assert all(array.flags.writeable for array in arrays)


def test_a_parse_and_a_hit_hold_each_table_in_two_corpus_wide_arrays(synth_dir, parses):
    """A count table is one columns array and one counts array per corpus, and each
    document's cells are a slice of both, the slices tiling them: per-document arrays
    left more RSS."""
    manifest = synth_dir / "manifest.csv"
    for corpus in (load_manifest(manifest), load_manifest(manifest)):
        for table, (columns, counts) in enumerate(corpus.tables):
            assert columns.base is None and counts.base is None
            spans = sorted((doc.cells[table].start, doc.cells[table].stop) for doc in corpus)
            assert [start for start, _ in spans] == [0, *(stop for _, stop in spans[:-1])]
            assert spans[-1][1] == len(columns) == len(counts)
            assert all(corpus.cells(doc, table)[0].base is columns for doc in corpus)
    assert len(parses) == 1  # the second load was a hit


def _rewrite_manifest(manifest: Path, edit) -> None:
    with open(manifest, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows = edit(rows)
    with open(manifest, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _upper_first_letter(path: Path) -> None:
    data = path.read_bytes()
    i = next(i for i, byte in enumerate(data) if 97 <= byte <= 122)
    path.write_bytes(data[:i] + data[i : i + 1].upper() + data[i + 1 :])


EDITS = {
    # Normalization lowercases it again, so the corpus is the same, but not the bytes.
    "one_token_file_byte": lambda d: _upper_first_letter(d / "tokens" / "auth02_doc03.tsv"),
    "manifest_id": lambda d: _rewrite_manifest(
        d / "manifest.csv", lambda rows: [{**rows[0], "id": "zz_doc"}, *rows[1:]]),
    "manifest_author": lambda d: _rewrite_manifest(
        d / "manifest.csv", lambda rows: [*rows[:-1], {**rows[-1], "author": "author00"}]),
    "reversed_manifest": lambda d: _rewrite_manifest(d / "manifest.csv", lambda rows: rows[::-1]),
}


@pytest.mark.parametrize("edit", list(EDITS))
def test_a_changed_input_parses_again(corpus_copy, parses, corpus_cache, edit):
    manifest = corpus_copy / "manifest.csv"
    first = load_manifest(manifest)
    EDITS[edit](corpus_copy)
    again = load_manifest(manifest)
    assert len(parses) == 2
    assert len(_entries(corpus_cache)) == 2
    shutil.rmtree(corpus_cache)
    assert snapshot(again) == snapshot(load_manifest(manifest))
    # A reversed manifest meets the types in another order: other ids, the same outputs.
    assert (snapshot(again) == snapshot(first)) == (edit == "one_token_file_byte")


def test_a_reversed_manifest_gives_the_same_outputs(corpus_copy, tmp_path, corpus_cache):
    argv = ["cluster", "--manifest", str(corpus_copy / "manifest.csv"), "--features", "fw",
            "--fw-list", str(corpus_copy / "function_words.txt")]
    assert main([*argv, "--out", str(tmp_path / "a")]) == 0
    EDITS["reversed_manifest"](corpus_copy)
    assert main([*argv, "--out", str(tmp_path / "b")]) == 0
    assert len(_entries(corpus_cache)) == 2
    for path in (tmp_path / "a").iterdir():
        if path.name != "run.json":
            assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes(), path.name


DAMAGES = {
    # The arrays a read fills start zeroed (see the test), so the lost byte, the zero high
    # byte of the last window's last tag id, reads back as it was: only the byte count tells
    # the read short.
    "last_zero_byte": lambda data: data[:-1],
    "trailing_byte": lambda data: data + b"\0",
    "truncated": lambda data: data[:-7],
    "flipped_payload_byte": lambda data: data[:-3] + bytes([data[-3] ^ 1]) + data[-2:],
    "foreign_key_line": lambda data: data.replace(b'"author00"', b'"author99"', 1),
    "header_type_renamed": lambda data: data.replace(b'"types": "', b'"types": "x', 1),
    "garbage": lambda data: bytes(range(256)) * 8,
    # Read into an object array, the payload's bytes would be taken for pointers.
    "object_dtype": lambda data: data.replace(
        b'"%s", [' % np.dtype(np.int32).str.encode(), b'"|O", [', 1),
    # The key line checks out; decoding the header overflows the recursion limit.
    "nested_header": lambda data: data[: data.index(b"\n") + 1] + b"[" * 100000 + b"\n",
}


@pytest.mark.parametrize("damage", list(DAMAGES))
def test_a_damaged_entry_is_a_miss_and_is_rewritten(
    synth_dir, parses, corpus_cache, monkeypatch, damage
):
    manifest = synth_dir / "manifest.csv"
    parsed = load_manifest(manifest)
    [entry] = _entries(corpus_cache)
    stored = entry.read_bytes()
    assert stored.index(b'"author00"') < stored.index(b"\n")  # in the key line
    entry.write_bytes(DAMAGES[damage](stored))
    if damage == "last_zero_byte":
        assert stored[-1] == 0
        monkeypatch.setattr(cache.np, "empty", np.zeros)
    if damage == "object_dtype":  # a payload read as pointers may crash the process reading it
        assert _parses_in_a_child(manifest) == 1
    else:
        assert snapshot(load_manifest(manifest)) == snapshot(parsed)
        assert len(parses) == 2
    assert _entries(corpus_cache) == [entry]
    assert entry.read_bytes() == stored


_COUNTING_LOAD = textwrap.dedent("""
    import sys
    from stylokit import corpus
    parse, parses = corpus.parse_corpus, []
    corpus.parse_corpus = lambda sources: parses.append(1) or parse(sources)
    corpus.load_manifest(sys.argv[1])
    print(len(parses))
""")


def _parses_in_a_child(manifest: Path) -> int:
    """How many parses load_manifest runs in a child process, which must exit 0."""
    proc = _run_child(_COUNTING_LOAD, str(manifest))
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    return int(proc.stdout)


def test_a_token_file_edited_during_the_parse_is_not_stored(corpus_copy, monkeypatch, corpus_cache):
    def parse_then_edit(sources):
        parsed = parse_corpus(sources)
        _upper_first_letter(corpus_copy / "tokens" / "auth00_doc00.tsv")
        return parsed

    monkeypatch.setattr(corpus_module, "parse_corpus", parse_then_edit)
    assert len(load_manifest(corpus_copy / "manifest.csv")) == 30
    assert _entries(corpus_cache) == []


def test_an_entry_that_cannot_be_replaced_leaves_no_temporary_file(synth_dir, corpus_cache):
    manifest = synth_dir / "manifest.csv"
    parsed = load_manifest(manifest)
    [entry] = _entries(corpus_cache)
    entry.unlink()
    entry.mkdir()  # os.replace onto a directory fails
    assert snapshot(load_manifest(manifest)) == snapshot(parsed)
    assert list(corpus_cache.iterdir()) == [entry]
    assert entry.is_dir()


def _no_home(monkeypatch) -> None:
    def no_user(uid):
        raise KeyError(uid)

    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.delenv("HOME", raising=False)
    monkeypatch.setattr(pwd, "getpwuid", no_user)


@pytest.mark.parametrize("where", ["a_file_in_the_way", "no_home"])
def test_no_usable_cache_directory_loads_as_with_no_cache(
    synth_dir, tmp_path, monkeypatch, capsys, corpus_cache, where
):
    if where == "no_home":
        _no_home(monkeypatch)
        assert cache._directory() is None
    else:
        corpus_cache.write_bytes(b"")
    out = tmp_path / "out"
    for _ in range(2):
        assert main(["cluster", "--manifest", str(synth_dir / "manifest.csv"), "--features", "fw",
                     "--fw-list", str(synth_dir / "function_words.txt"), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
    if where == "a_file_in_the_way":
        assert [p.name for p in corpus_cache.parent.iterdir()] == ["stylokit"]
        assert corpus_cache.read_bytes() == b""
    else:
        assert not any(corpus_cache.parent.iterdir())


@pytest.mark.parametrize("xdg_cache_home", [None, "relative"])
def test_without_an_absolute_xdg_cache_home_the_entry_goes_under_home(
    synth_dir, tmp_path, monkeypatch, xdg_cache_home
):
    if xdg_cache_home is None:
        monkeypatch.delenv("XDG_CACHE_HOME")
    else:  # the XDG rule: a relative value is ignored
        monkeypatch.setenv("XDG_CACHE_HOME", xdg_cache_home)
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.chdir(tmp_path)
    load_manifest(synth_dir / "manifest.csv")
    assert len(_entries(tmp_path / "home" / ".cache" / "stylokit")) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["home"]


def test_a_malformed_file_raises_the_same_error_again_and_is_never_stored(tmp_path, corpus_cache):
    manifest = write_manifest(tmp_path, {"ok.tsv": b"a\ta\tNOMcom\n", "bad.tsv": b"a\tb\n"})
    messages = set()
    for _ in range(2):
        with pytest.raises(CorpusFormatError) as excinfo:
            load_manifest(manifest)
        messages.add(str(excinfo.value))
    expected = f"{tmp_path / 'bad.tsv'}: line 1: expected FORM<TAB>LEMMA<TAB>POS, got 2 field(s)"
    assert messages == {expected}
    assert _entries(corpus_cache) == []


def test_a_malformed_file_before_a_missing_one_is_the_one_named(tmp_path):
    """The key cannot read missing.tsv, so the parse runs and fails at bad.tsv first."""
    files = {"ok.tsv": b"a\ta\tNOMcom\n", "bad.tsv": b"a\tb\n", "missing.tsv": b""}
    manifest = write_manifest(tmp_path, files)
    (tmp_path / "missing.tsv").unlink()
    with pytest.raises(CorpusFormatError) as excinfo:
        load_manifest(manifest)
    assert str(excinfo.value).startswith(f"{tmp_path / 'bad.tsv'}: line 1: ")


def test_the_16_entries_used_last_are_kept(tmp_path, corpus_cache):
    """Entry i is given mtime base + i, so the order never rests on the clock's resolution."""
    manifests, entries = [], []
    base = time.time_ns() - 10**12
    for i in range(18):
        directory = tmp_path / str(i)
        directory.mkdir()
        manifests.append(write_manifest(directory, {"x.tsv": f"w{i}\tw{i}\tNOMcom\n".encode()}))
        before = set(_entries(corpus_cache))
        load_manifest(manifests[i])
        [entry] = set(_entries(corpus_cache)) - before
        os.utime(entry, ns=(base + i, base + i))
        entries.append(entry)
        if i == 15:
            load_manifest(manifests[0])  # a hit: entry 0 becomes the one used last
    assert len(_entries(corpus_cache)) == 16
    assert set(_entries(corpus_cache)) == {entries[0], *entries[3:]}


def test_importing_the_cli_and_clustering_a_matrix_never_import_the_cache():
    """The cache and csv are imported by the first load_manifest, so a process that loads
    no corpus never loads them (each module adds to the peak RSS)."""
    script = textwrap.dedent("""
        import sys
        import numpy as np
        import stylokit.cli
        from stylokit.cluster import ward_cluster
        from stylokit.features import FeatureMatrix
        from stylokit.metrics import compute_distance

        values = np.random.default_rng(1).uniform(size=(12, 5))
        values /= values.sum(axis=1, keepdims=True)
        matrix = FeatureMatrix(tuple(f"d{i:02d}" for i in range(12)), tuple("abcde"), values)
        ward_cluster(compute_distance(matrix, "delta"))
        assert "stylokit.cache" not in sys.modules, "stylokit.cache was imported"
        assert "csv" not in sys.modules, "csv was imported"
    """)
    proc = _run_child(script)
    assert proc.returncode == 0, proc.stderr


def test_clustering_a_matrix_never_imports_the_corpus_parser(tmp_path):
    """The matrix layers import stylokit.corpus only where a corpus or a word list is read,
    so a process that clusters a matrix never loads the parser or unicodedata."""
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from stylokit.cluster import cut, ward_cluster
        from stylokit.evaluate import eta_table, write_eta_csv
        from stylokit.features import FeatureMatrix
        from stylokit.metrics import compute_distance
        from stylokit.pipeline import apply_selection

        values = np.random.default_rng(1).uniform(size=(12, 5))
        values /= values.sum(axis=1, keepdims=True)
        matrix = FeatureMatrix(tuple(f"d{i:02d}" for i in range(12)), tuple("abcde"), values)
        selected, _ = apply_selection(matrix, ("top", 1.0), 0)
        for measure in ("delta", "minmax"):
            assignment = cut(ward_cluster(compute_distance(selected, measure)), 3)
        write_eta_csv(eta_table(selected, assignment), sys.argv[1])
        for module in ("stylokit.corpus", "unicodedata"):
            assert module not in sys.modules, f"{module} was imported"
    """)
    proc = _run_child(script, str(tmp_path / "eta.csv"))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "eta.csv").read_text(encoding="utf-8").startswith("feature,")
