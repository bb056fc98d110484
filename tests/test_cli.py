from __future__ import annotations

import codecs
import csv
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, example, given, settings, strategies as st

from conftest import every_load_parses
from stylokit import corpus as corpus_module, features, metrics
from stylokit.cli import _FEATURE_FLAGS, main
from stylokit.synth import SynthConfig, generate_corpus

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_corpus")
    assert main([
        "synth", "--seed", "1234", "--authors", "5", "--docs-per-author", "6",
        "--separation", "1.5", "--out", str(out),
    ]) == 0
    return out


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_extract_reports_counts_and_is_deterministic(corpus_dir, tmp_path, capsys):
    out = tmp_path / "run"
    argv = [
        "extract", "--manifest", str(corpus_dir / "manifest.csv"),
        "--features", "fw", "--fw-list", str(corpus_dir / "function_words.txt"),
        "--out", str(out),
    ]
    with every_load_parses() as loads:
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == "30 docs, 110 features"
        first = _digest(out / "matrix.csv")
        assert main(argv) == 0
    assert len(loads) == 2
    assert _digest(out / "matrix.csv") == first
    assert (out / "run.json").exists()


def test_missing_manifest_exits_2(tmp_path, capsys):
    code = main([
        "extract", "--manifest", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert f"{tmp_path / 'absent.csv'}: cannot read: " in capsys.readouterr().err


MANIFEST_HEADER = "id,title,author,genre,form,acts,year,path\n"


def test_manifest_without_rows_exits_2_naming_it(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(MANIFEST_HEADER, encoding="utf-8")
    assert main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {manifest}: no documents\n"


@pytest.mark.parametrize(
    "fault",
    [OSError(5, "Input/output error"), UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")],
    ids=["os_error", "decode_error"],
)
def test_a_token_file_that_fails_only_during_the_parse_exits_2_naming_the_manifest(
    corpus_dir, tmp_path, capsys, monkeypatch, fault
):
    """A read that fails once, as when a file changes during the parse, and every token file
    then reading whole: the load ends in one error line, not a traceback."""
    token_files, calls = corpus_module._token_files, []

    def fails_once(rows):
        calls.append(1)
        if len(calls) == 1:
            raise fault
        return token_files(rows)

    monkeypatch.setattr(corpus_module, "_token_files", fails_once)
    manifest = corpus_dir / "manifest.csv"
    assert main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {manifest}: a token file failed to read: {fault}\n"
    assert calls == [1]
    assert not (tmp_path / "o" / "run.json").exists()


@pytest.mark.parametrize(
    "content, message",
    [("a\ta\tNOMcom\n\ngloire\n", ": line 3: expected FORM<TAB>LEMMA<TAB>POS"),
     ("", ": empty document")],
    ids=["one-field-line", "empty-file"],
)
def test_token_file_error_names_the_file(tmp_path, capsys, content, message):
    (tmp_path / "x.tsv").write_text(content, encoding="utf-8")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(MANIFEST_HEADER + "play1,t,a,g,verse,5,1660,x.tsv\n", encoding="utf-8")
    code = main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"error: {tmp_path / 'x.tsv'}{message}" in capsys.readouterr().err


NO_DIR, NO_WRITE = "cannot create output directory", "cannot write"


@pytest.mark.parametrize(
    "command, blocker, out, named, message",
    [
        *(pytest.param(c, "taken", "taken", "taken", NO_DIR, id=f"file-{c}")
          for c in ("cluster", "extract", "synth")),
        *(pytest.param(c, "taken", "taken/sub", "taken/sub", NO_DIR, id=f"under-file-{c}")
          for c in ("cluster", "extract", "synth")),
        # A blocker ending in "/" is a directory where an output file goes.
        pytest.param("extract", "out/matrix.csv/", "out", "out/matrix.csv", NO_WRITE,
                     id="dir-matrix-extract"),
        pytest.param("select", "out/run.json/", "out", "out/run.json", NO_WRITE,
                     id="dir-run-json-select"),
        pytest.param("cluster", "out/dendrogram.svg/", "out", "out/dendrogram.svg", NO_WRITE,
                     id="dir-svg-cluster"),
        pytest.param("synth", "out/manifest.csv/", "out", "out/manifest.csv", NO_WRITE,
                     id="dir-manifest-synth"),
        pytest.param("synth", "out/tokens/auth00_doc00.tsv/", "out",
                     "out/tokens/auth00_doc00.tsv", NO_WRITE, id="dir-token-file-synth"),
        pytest.param("synth", "out/tokens", "out", "out/tokens", NO_DIR, id="file-tokens-synth"),
    ],
)
def test_out_blocked_by_a_file_exits_2_naming_it(
    corpus_dir, tmp_path, capsys, command, blocker, out, named, message
):
    path = tmp_path / blocker
    if blocker.endswith("/"):
        path.mkdir(parents=True)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("", encoding="utf-8")
    required = {"synth": ["--seed", "1"]}.get(
        command, ["--manifest", str(corpus_dir / "manifest.csv"), "--features", "lemma"]
    )
    assert main([command, *required, "--out", str(tmp_path / out)]) == 2
    assert f"error: {tmp_path / named}: {message}:" in capsys.readouterr().err
    assert not (tmp_path / out / "run.json").is_file()


CORPUS_KEYS = {"manifest", "min_tokens", "min_plays", "features", "fw_list", "out"}
ANALYSIS_KEYS = {"distance", "k"}


@pytest.mark.parametrize(
    "command, keys",
    [
        ("extract", CORPUS_KEYS),
        ("select", CORPUS_KEYS),
        ("cluster", CORPUS_KEYS | ANALYSIS_KEYS | {"select"}),
        ("eta", CORPUS_KEYS | ANALYSIS_KEYS | {"select"}),
        ("sweep", CORPUS_KEYS | ANALYSIS_KEYS | {"cutoffs"}),
        ("synth", {"seed", "authors", "docs_per_author", "separation", "out"}),
    ],
)
def test_run_json_records_the_flags_of_its_command(corpus_dir, tmp_path, capsys, command, keys):
    required = {"synth": ["--seed", "1"]}.get(
        command, ["--manifest", str(corpus_dir / "manifest.csv"), "--features", "lemma"]
    )
    assert main([command, *required, "--out", str(tmp_path / "out")]) == 0
    record = json.loads((tmp_path / "out" / "run.json").read_text(encoding="utf-8"))
    assert record["command"] == command
    assert set(record["config"]) == keys


@pytest.mark.parametrize(
    "row",
    [
        "x,t,a,g,verse,five,1660,x.tsv\n",
        "x,t,a,g,verse,5,mcclx,x.tsv\n",
        "x,t,a\n",
        "x,t,a,g,verse,5,1660,\n",
    ],
    ids=["bad-acts", "bad-year", "short-row", "empty-path"],
)
def test_malformed_manifest_row_exits_2_naming_file_and_line(tmp_path, capsys, row):
    manifest = tmp_path / "bad_manifest.csv"
    manifest.write_text(MANIFEST_HEADER + row, encoding="utf-8")
    code = main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "bad_manifest.csv: line 2:" in capsys.readouterr().err


def test_duplicate_manifest_id_exits_2_naming_the_line_before_any_token_file(tmp_path, capsys):
    # No token file exists: the rows are checked before the first one is opened.
    manifest = tmp_path / "manifest.csv"
    rows = [f"{doc},t,a,g,verse,5,1660,{doc}.tsv\n" for doc in ("x", "y", "x")]
    manifest.write_text(MANIFEST_HEADER + "".join(rows), encoding="utf-8")
    assert main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {manifest}: line 4: duplicate document id 'x'\n"


def test_nul_byte_in_a_manifest_path_exits_2_naming_the_line(tmp_path, capsys):
    (tmp_path / "x.tsv").write_text("a\ta\tNOMcom\n", encoding="utf-8")
    manifest = tmp_path / "manifest.csv"
    rows = ["x,t,a,g,verse,5,1660,x.tsv\n", "y,t,a,g,verse,5,1660,x.tsv\0\n"]
    manifest.write_text(MANIFEST_HEADER + "".join(rows), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["extract", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {manifest}: line 3: path contains a NUL byte\n"
    assert not (out / "run.json").exists()


@pytest.mark.parametrize(
    "row, message",
    [
        (",t,a,g,verse,5,1660,x.tsv\n", "line 3: empty id"),
        ('"a\rb",t,a,g,verse,5,1660,x.tsv\n', "line 4: id 'a\\rb' holds a line break"),
        ('"c\nd",t,a,g,verse,5,1660,x.tsv\n', "line 4: id 'c\\nd' holds a line break"),
        ('y,t,"a\r\nb",g,verse,5,1660,x.tsv\n', "line 4: author 'a\\r\\nb' holds a line break"),
        ('y,t,a,g,verse,5,1660,"x\n.tsv"\n', "line 4: path 'x\\n.tsv' holds a line break"),
    ],
    ids=["empty-id", "cr-in-id", "lf-in-id", "crlf-in-author", "lf-in-path"],
)
def test_manifest_id_or_author_no_output_row_can_carry_exits_2_naming_the_line(
    tmp_path, capsys, row, message
):
    """Every output row holds a doc id, and the assignment an author: neither may be empty
    (an id) or end the row early. An error names the path, so it may not break a line
    either. The line is the one the csv record ends on."""
    (tmp_path / "x.tsv").write_text("a\ta\tNOMcom\n", encoding="utf-8")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(MANIFEST_HEADER + "x,t,a,g,verse,5,1660,x.tsv\n" + row,
                        encoding="utf-8", newline="")
    out = tmp_path / "o"
    assert main(["extract", "--manifest", str(manifest), "--min-tokens", "0", "--min-plays", "1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {manifest}: {message}\n"
    assert not (out / "run.json").exists()


def test_non_utf8_token_file_exits_2_naming_file_and_line(tmp_path, capsys):
    (tmp_path / "latin1.tsv").write_bytes(b"a\ta\tNOMcom\n\ngl\xf4ire\tgloire\tNOMcom\n")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(MANIFEST_HEADER + "x,t,a,g,verse,5,1660,latin1.tsv\n", encoding="utf-8")
    code = main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "latin1.tsv: line 3:" in capsys.readouterr().err


def test_non_utf8_manifest_exits_2_naming_file_and_line(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_bytes(MANIFEST_HEADER.encode() + b"x,Le Cid \xe9,a,g,verse,5,1660,x.tsv\n")
    code = main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "manifest.csv: line 2: not valid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--manifest", "--fw-list"])
def test_directory_as_input_exits_2_naming_it(corpus_dir, tmp_path, capsys, flag):
    inputs = {"--manifest": corpus_dir / "manifest.csv", "--fw-list": corpus_dir / "function_words.txt"}
    inputs[flag] = tmp_path
    argv = ["extract", "--features", "fw", "--out", str(tmp_path / "o")]
    for name, path in inputs.items():
        argv += [name, str(path)]
    assert main(argv) == 2
    assert f"{tmp_path}: cannot read:" in capsys.readouterr().err


def test_non_utf8_function_word_list_exits_2_naming_file_and_line(corpus_dir, tmp_path, capsys):
    fw_list = tmp_path / "fw.txt"
    fw_list.write_bytes(b"le\nla\n\xe0\n")
    code = main([
        "extract", "--manifest", str(corpus_dir / "manifest.csv"),
        "--features", "fw", "--fw-list", str(fw_list), "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert "fw.txt: line 3: not valid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("extract", "--min-tokens", "-1"),
        ("extract", "--min-tokens", "abc"),
        ("extract", "--min-plays", "0"),
        ("synth", "--authors", "1"),
        ("synth", "--docs-per-author", "1"),
        ("synth", "--separation", "-1"),
        ("synth", "--seed", "-1"),
        ("cluster", "--k", "0"),
    ],
)
def test_out_of_range_flag_exits_2_naming_it(corpus_dir, tmp_path, capsys, command, flag, value):
    manifest = ["--manifest", str(corpus_dir / "manifest.csv")]
    required = {"extract": manifest, "cluster": manifest, "synth": ["--seed", "1"]}
    with pytest.raises(SystemExit) as excinfo:
        main([command, *required[command], flag, value, "--out", str(tmp_path / "o")])
    assert excinfo.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


def test_function_word_list_without_words_exits_2_naming_it(corpus_dir, tmp_path, capsys):
    fw_list = tmp_path / "comments.txt"
    fw_list.write_text("# curated list\n\n   \n# nothing yet\n", encoding="utf-8")
    code = main([
        "cluster", "--manifest", str(corpus_dir / "manifest.csv"),
        "--features", "fw", "--fw-list", str(fw_list), "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert f"{fw_list}: no function words" in capsys.readouterr().err


def test_function_word_list_is_normalized_like_token_forms(corpus_dir, tmp_path, capsys):
    words = (corpus_dir / "function_words.txt").read_text(encoding="utf-8").splitlines()
    shouted = tmp_path / "shouted.txt"
    shouted.write_text("".join(f"{w.upper()}!\n" for w in words[1:]) + "...\n", encoding="utf-8")
    with every_load_parses() as loads:
        for fw_list, out in ((corpus_dir / "function_words.txt", "plain"), (shouted, "shouted")):
            assert main([
                "extract", "--manifest", str(corpus_dir / "manifest.csv"),
                "--features", "fw", "--fw-list", str(fw_list), "--out", str(tmp_path / out),
            ]) == 0
    assert len(loads) == 2
    assert capsys.readouterr().out == "30 docs, 110 features\n" * 2
    assert _digest(tmp_path / "shouted" / "matrix.csv") == _digest(tmp_path / "plain" / "matrix.csv")


@pytest.mark.parametrize("command", ["extract", "select", "cluster", "eta"])
def test_a_word_list_matching_no_token_gives_no_fw_features(corpus_dir, tmp_path, capsys, command):
    """extract writes a matrix of 0 features; the commands that select from it exit 1."""
    fw_list = tmp_path / "unmatched.txt"
    fw_list.write_text("zzzz\nqqqq\n", encoding="utf-8")
    out = tmp_path / "o"
    code = main([
        command, "--manifest", str(corpus_dir / "manifest.csv"),
        "--features", "fw", "--fw-list", str(fw_list), "--out", str(out),
    ])
    captured = capsys.readouterr()
    if command == "extract":
        assert (code, captured.out) == (0, "30 docs, 0 features\n")
    else:
        assert (code, captured.err) == (1, "error: selection eliminated all features\n")
        assert not (out / "run.json").exists()


def test_unfilterable_corpus_exits_1(corpus_dir, tmp_path, capsys):
    code = main([
        "cluster", "--manifest", str(corpus_dir / "manifest.csv"),
        "--min-tokens", "10000000", "--out", str(tmp_path / "o"),
    ])
    assert code == 1
    assert "survive" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["cluster", "eta", "sweep"])
def test_k_above_the_filtered_documents_exits_1_naming_it_before_any_distance(
    corpus_dir, tmp_path, capsys, monkeypatch, command
):
    original = metrics.compute_distance

    def no_distance(*args, **kwargs):
        raise AssertionError("compute_distance ran")

    for name, module in list(sys.modules.items()):
        if name.startswith("stylokit") and getattr(module, "compute_distance", None) is original:
            monkeypatch.setattr(module, "compute_distance", no_distance)
    out = tmp_path / "o"
    code = main([command, "--manifest", str(corpus_dir / "manifest.csv"), "--k", "31",
                 "--out", str(out)])
    error = "error: --k 31 exceeds the 30 documents left after filtering\n"
    assert (code, capsys.readouterr().err) == (1, error)
    assert not (out / "run.json").exists()


def test_cluster_outputs(corpus_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert main([
        "cluster", "--manifest", str(corpus_dir / "manifest.csv"),
        "--features", "fw", "--fw-list", str(corpus_dir / "function_words.txt"),
        "--distance", "delta", "--k", "5",
        "--out", str(out),
    ]) == 0
    for name in (
        "matrix.csv", "selection.csv", "distance.csv", "dendrogram.newick",
        "dendrogram.dot", "dendrogram.svg", "assignment.csv", "summary.json", "run.json",
    ):
        assert (out / name).exists(), name
    newick = (out / "dendrogram.newick").read_text()
    assert newick.count("(") == 29  # n-1 merges for 30 docs
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"n_features", "ac", "purity"}
    assert summary["purity"] == 1.0
    assignment_lines = (out / "assignment.csv").read_text().splitlines()
    assert assignment_lines[0] == "doc_id,cluster,author"
    assert len(assignment_lines) == 31
    svg = (out / "dendrogram.svg").read_text()
    assert svg.startswith("<svg") and "auth00_doc00" in svg


def test_svg_and_dot_escape_awkward_doc_ids(corpus_dir, tmp_path, capsys):
    with open(corpus_dir / "manifest.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row["id"] += ' a&b<c"d,e\\f'
        row["path"] = str(corpus_dir / row["path"])
    manifest = tmp_path / "manifest.csv"
    with open(manifest, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    out = tmp_path / "out"
    assert main(["cluster", "--manifest", str(manifest),
                 "--fw-list", str(corpus_dir / "function_words.txt"), "--out", str(out)]) == 0
    ids = sorted(row["id"] for row in rows)

    svg = ET.parse(out / "dendrogram.svg").getroot()
    caption, *labels = svg.iter("{http://www.w3.org/2000/svg}text")
    assert caption.text.startswith("features: ")
    assert sorted(label.text for label in labels) == ids
    dot = (out / "dendrogram.dot").read_text(encoding="utf-8")
    quoted = re.findall(r'^  n\d+ \[label="((?:[^"\\]|\\.)*)"\];$', dot, re.MULTILINE)
    assert [re.sub(r"\\(.)", r"\1", label) for label in quoted] == ids
    # Every table holding doc ids reads back through the csv module with exactly those ids.
    for name in ("matrix.csv", "distance.csv", "assignment.csv"):
        with open(out / name, encoding="utf-8", newline="") as fh:
            header, *table = csv.reader(fh)
        assert [row[0] for row in table] == ids, name
        assert {len(row) for row in table} == {len(header)}, name
    assert header == ["doc_id", "cluster", "author"]
    with open(out / "distance.csv", encoding="utf-8", newline="") as fh:
        assert next(csv.reader(fh))[1:] == ids


def test_failed_rerun_leaves_no_run_json(corpus_dir, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [
        "cluster", "--manifest", str(corpus_dir / "manifest.csv"),
        "--fw-list", str(corpus_dir / "function_words.txt"), "--out", str(out),
    ]
    with every_load_parses() as loads:
        assert main([*argv, "--k", "5"]) == 0
        assert (out / "run.json").exists()
        (out / "dendrogram.svg").unlink()
        (out / "dendrogram.svg").mkdir()
        assert main([*argv, "--k", "2"]) == 2
    assert len(loads) == 2
    assert f"{out / 'dendrogram.svg'}: cannot write" in capsys.readouterr().err
    assert not (out / "run.json").exists()


def test_cluster_rerun_byte_identical(corpus_dir, tmp_path):
    out = tmp_path / "run"
    argv = [
        "cluster", "--manifest", str(corpus_dir / "manifest.csv"),
        "--features", "fw", "--fw-list", str(corpus_dir / "function_words.txt"),
        "--out", str(out),
    ]
    with every_load_parses() as loads:
        assert main(argv) == 0
        digests = {p.name: _digest(p) for p in out.iterdir()}
        assert main(argv) == 0
    assert len(loads) == 2
    assert {p.name: _digest(p) for p in out.iterdir()} == digests


def test_select_writes_diagnostics(corpus_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert main([
        "select", "--manifest", str(corpus_dir / "manifest.csv"),
        "--features", "fw", "--fw-list", str(corpus_dir / "function_words.txt"),
        "--out", str(out),
    ]) == 0
    lines = (out / "selection.csv").read_text().splitlines()
    assert lines[0] == "feature,p_bar,sigma,required_n,retained,degenerate"
    assert len(lines) == 111
    assert "retained" in capsys.readouterr().out


def test_eta_sorted_output(corpus_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert main([
        "eta", "--manifest", str(corpus_dir / "manifest.csv"),
        "--features", "fw", "--fw-list", str(corpus_dir / "function_words.txt"),
        "--k", "5", "--out", str(out),
    ]) == 0
    lines = (out / "eta.csv").read_text().splitlines()
    assert lines[0] == "feature,eta_squared,p_value"
    etas = [float(line.split(",")[1]) for line in lines[1:]]
    assert etas == sorted(etas, reverse=True)


def test_sweep_emits_six_rows_plus_reference(corpus_dir, tmp_path):
    out = tmp_path / "run"
    assert main([
        "sweep", "--manifest", str(corpus_dir / "manifest.csv"),
        "--features", "fw", "--fw-list", str(corpus_dir / "function_words.txt"),
        "--k", "5", "--out", str(out),
    ]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "cutoff,n_features,purity_authors,purity_reference"
    assert len(lines) == 8  # 6 cutoffs + RS row
    assert lines[-1].startswith("RS,")
    assert lines[1].split(",")[1] == "2"  # 1% of 110 features


def test_sweep_cuts_every_row_at_k(corpus_dir, tmp_path):
    out = tmp_path / "run"
    assert main([
        "sweep", "--manifest", str(corpus_dir / "manifest.csv"),
        "--features", "fw", "--fw-list", str(corpus_dir / "function_words.txt"),
        "--k", "3", "--out", str(out),
    ]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    cutoff_rows = [line.split(",") for line in lines[1:-1]]
    assert len(cutoff_rows) == 6
    # 3 clusters over 5 authors x 6 plays hold at most 18 of 30 documents
    # in their majority author.
    for row in cutoff_rows:
        assert float(row[2]) <= 0.6


def test_sweep_builds_the_matrix_once(corpus_dir, tmp_path, monkeypatch):
    original = features.build_matrix
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("stylokit") and getattr(module, "build_matrix", None) is original:
            monkeypatch.setattr(module, "build_matrix", counting)
    assert main([
        "sweep", "--manifest", str(corpus_dir / "manifest.csv"),
        "--features", "fw", "--fw-list", str(corpus_dir / "function_words.txt"),
        "--out", str(tmp_path / "run"),
    ]) == 0
    assert len(calls) == 1


def test_sweep_rejects_select(corpus_dir, tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([
            "sweep", "--manifest", str(corpus_dir / "manifest.csv"),
            "--select", "top:50", "--out", str(tmp_path / "o"),
        ])
    assert excinfo.value.code == 2
    assert "--select" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["cluster", "eta", "sweep"])
def test_removed_linkage_flag_exits_2_naming_it(corpus_dir, tmp_path, capsys, command):
    with pytest.raises(SystemExit) as excinfo:
        main([
            command, "--manifest", str(corpus_dir / "manifest.csv"),
            "--linkage", "ward2", "--out", str(tmp_path / "o"),
        ])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --linkage ward2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cutoffs, bad", [("0.1,abc", "'abc'"), ("0.1,1.5", "'1.5'"), (",", "no cutoff in ','")]
)
def test_sweep_bad_cutoff_exits_2(corpus_dir, tmp_path, capsys, cutoffs, bad):
    with pytest.raises(SystemExit) as excinfo:
        main([
            "sweep", "--manifest", str(corpus_dir / "manifest.csv"),
            "--cutoffs", cutoffs, "--out", str(tmp_path / "o"),
        ])
    assert excinfo.value.code == 2
    assert bad in capsys.readouterr().err


def test_synthetic_demo_script_runs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_synthetic_demo.py"), "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    blocks = proc.stdout.split("\n\n")
    families = next(b for b in blocks if b.startswith("family")).splitlines()[1:]
    assert len(families) == 6
    sweeps = [b.splitlines()[2:] for b in blocks if b.startswith("function-word sweep")]
    assert [len(rows) for rows in sweeps] == [7, 7]
    assert all(rows[-1].split()[0] == "RS" for rows in sweeps)


def test_default_function_word_list_is_used_without_flag(corpus_dir, tmp_path, capsys):
    # The built-in French list shares no forms with the synthetic corpus, so
    # extraction yields an empty matrix rather than an error.
    out = tmp_path / "run"
    assert main([
        "extract", "--manifest", str(corpus_dir / "manifest.csv"),
        "--features", "fw", "--out", str(out),
    ]) == 0
    assert "0 features" in capsys.readouterr().out


def test_synth_determinism_via_cli(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["synth", "--seed", "7", "--authors", "2", "--docs-per-author", "2"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    files_a = sorted(p.relative_to(a) for p in a.rglob("*.tsv"))
    files_b = sorted(p.relative_to(b) for p in b.rglob("*.tsv"))
    assert files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


@pytest.mark.parametrize("separation", ["200", "1e308", "inf"])
def test_synth_separation_that_overflows_exits_2_before_any_token_file(tmp_path, capsys, separation):
    out = tmp_path / "out"
    assert main(["synth", "--seed", "1234", "--separation", separation, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: separation {float(separation):g} is too large: the author weights overflow\n"
    )
    assert not list(out.rglob("*.tsv"))
    assert not (out / "run.json").exists()


def test_bad_select_spec_exits_2(corpus_dir, tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([
            "cluster", "--manifest", str(corpus_dir / "manifest.csv"),
            "--select", "happy", "--out", str(tmp_path / "o"),
        ])
    assert excinfo.value.code == 2


def _row_order_outputs(corpus_dir: Path, manifest: Path, out: Path) -> dict:
    """Every file these commands write except run.json, which records the manifest path.

    `cluster --k 3` on fw under delta and min/max, `extract` for every
    family, `eta` for pos3 and affix, `select --features affix` and `sweep`.
    """
    fw_list = ["--fw-list", str(corpus_dir / "function_words.txt")]
    runs = [
        *(["cluster", "--features", "fw", *fw_list, "--distance", m, "--k", "3"]
          for m in ("delta", "minmax")),
        *(["extract", "--features", family, *fw_list]
          for family in ("lemma", "rhyme", "form", "affix", "pos3", "fw")),
        ["eta", "--features", "pos3"], ["eta", "--features", "affix"],
        ["select", "--features", "affix"], ["sweep", "--features", "fw", *fw_list],
    ]
    outputs = {}
    with every_load_parses() as loads:
        for i, argv in enumerate(runs):
            run = out / str(i)
            assert main([*argv, "--manifest", str(manifest), "--out", str(run)]) == 0
            for path in run.iterdir():
                if path.name != "run.json":
                    outputs[f"{argv[0]} {i}/{path.name}"] = path.read_bytes()
    assert len(loads) == len(runs)
    return outputs


@pytest.fixture(scope="module")
def row_order_reference(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("reference")
    return _row_order_outputs(corpus_dir, corpus_dir / "manifest.csv", out)


N_MANIFEST_ROWS = 30  # the 5 x 6 plays of corpus_dir


# Every example runs a dozen commands, so a failure is reported as found:
# shrinking a permutation would rerun them for minutes.
@settings(
    max_examples=3,
    deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.permutations(range(N_MANIFEST_ROWS)))
@example(list(reversed(range(N_MANIFEST_ROWS))))
def test_cluster_invariant_under_manifest_row_order(
    corpus_dir, row_order_reference, tmp_path_factory, order
):
    with open(corpus_dir / "manifest.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == N_MANIFEST_ROWS
    rows = [rows[i] for i in order]
    work = tmp_path_factory.mktemp("shuffled")
    shuffled = work / "manifest.csv"
    with open(shuffled, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows({**row, "path": str(corpus_dir / row["path"])} for row in rows)
    assert _row_order_outputs(corpus_dir, shuffled, work / "shuffled") == row_order_reference


@pytest.fixture(scope="module")
def short_corpus(tmp_path_factory):
    """2 authors x 3 plays of ~300 tokens: the corpus the mutation property mutates."""
    out = tmp_path_factory.mktemp("short_corpus")
    generate_corpus(SynthConfig(seed=5, n_authors=2, docs_per_author=3, min_tokens=300), out)
    return out


# The first token file in manifest order and the last.
MUTATION_TARGETS = (
    "manifest.csv", "function_words.txt", "tokens/auth00_doc00.tsv", "tokens/auth01_doc02.tsv",
)
MUTATIONS = st.one_of(
    st.tuples(st.just("insert"), st.sampled_from(
        [b"\t", b"\r", b"\n", b"\0", codecs.BOM_UTF8, b"\xff", b'"', b",", b"NOMpro"]
    )),
    st.tuples(st.just("delete"), st.integers(1, 8)),
    st.tuples(st.sampled_from(["truncate", "empty"]), st.none()),
)
# Faults of a whole file name no line; every other input fault names one.
WHOLE_FILE_FAULTS = re.compile(r": cannot read: |: empty document$|: no function words$|: no documents$")


def _mutate(data: bytes, kind: str, arg, at: float) -> bytes:
    """data with arg inserted or arg bytes deleted at a fraction at of its length, cut there, or emptied."""
    i = int(at * max(len(data) - 1, 0))
    if kind == "insert":
        return data[:i] + arg + data[i:]
    if kind == "delete":
        return data[:i] + data[i + arg:]
    return data[:i] if kind == "truncate" else b""


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    target=st.sampled_from(MUTATION_TARGETS),
    mutation=MUTATIONS,
    at=st.floats(0.0, 1.0),
    command=st.sampled_from(["extract", "select", "cluster", "eta", "sweep"]),
    family=st.sampled_from(sorted(_FEATURE_FLAGS)),
    measure=st.sampled_from(["delta", "minmax"]),
)
# A NUL byte at the end of the last row's path.
@example(target="manifest.csv", mutation=("insert", b"\0"), at=1.0, command="extract",
         family="fw", measure="delta")
@example(target="manifest.csv", mutation=("insert", b"\0"), at=1.0, command="cluster",
         family="fw", measure="delta")
# A quote that opens the path field of a row mid-file, so the field runs on over line breaks.
@example(target="manifest.csv", mutation=("insert", b'"'), at=0.49609375, command="extract",
         family="affix", measure="delta")
# "tokens" cut from the start of a path, which leaves an absolute path outside the inputs.
@example(target="manifest.csv", mutation=("delete", 6), at=0.341796875, command="extract",
         family="fw", measure="delta")
def test_a_mutated_input_ends_in_an_exit_code_and_one_error_line(
    short_corpus, tmp_path_factory, capsys, target, mutation, at, command, family, measure
):
    """Exit 0, 1 or 2 and no traceback; a failure prints one error line and leaves no
    run.json, and an input fault names the input and, unless it is the whole file's, a line."""
    work = tmp_path_factory.mktemp("mutated")
    inputs = work / "corpus"
    shutil.copytree(short_corpus, inputs)
    path = inputs / target
    path.write_bytes(_mutate(path.read_bytes(), *mutation, at))
    out = work / "out"
    argv = [
        command, "--manifest", str(inputs / "manifest.csv"), "--features", family,
        "--fw-list", str(inputs / "function_words.txt"), "--min-tokens", "0", "--out", str(out),
    ]
    if command in ("cluster", "eta", "sweep"):
        argv += ["--distance", measure]
    with every_load_parses() as loads:
        code = main(argv)  # an exception escaping main fails the example
    assert len(loads) <= 1
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 0:
        assert err == "" and (out / "run.json").exists()
        return
    assert not (out / "run.json").exists()
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    if code == 2:
        message = err[len("error: "):].rstrip("\n")
        # A mutated manifest may name an absolute path; the message then names that path.
        named = message.split(": ")[0]
        assert str(inputs) in message or (
            target == "manifest.csv"
            and Path(named).is_absolute() and named.encode() in path.read_bytes()
        )
        assert re.search(r": line [1-9][0-9]*: ", message) or WHOLE_FILE_FAULTS.search(message)
