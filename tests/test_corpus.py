from __future__ import annotations

import codecs
import io
import re
import shutil
import sys
from collections import Counter
from contextlib import ExitStack

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from _oracles import (
    naive_count_tables,
    naive_family_matrix,
    naive_filter_corpus,
    naive_normalize_form,
    naive_parse_corpus,
)
from conftest import (
    every_load_parses,
    make_corpus,
    make_doc,
    one_line_per_type,
    snapshot,
    tables_of,
    write_manifest,
    write_token_file,
)
from stylokit import corpus as corpus_module
from stylokit.corpus import (
    RHYMES,
    TYPES,
    WINDOWS,
    Corpus,
    filter_corpus,
    load_manifest,
    normalize_form,
    normalize_token,
    parse_corpus,
)
from stylokit.errors import AnalysisError, CorpusFormatError
from stylokit.features import FeatureKind, FeatureSpec, build_matrix, load_word_list

def _parse(lines):
    """A one-document corpus, doc1, and its document."""
    corpus = parse_corpus([("doc1", "", lines)])
    return corpus, corpus.documents[0]


def _forms(lines) -> tuple[int, dict[str, int], dict[str, int], Counter]:
    """The one document's token count, type and rhyme counts by form, and window counts."""
    [(_, _, n_tokens, types, rhymes, windows)] = tables_of(_parse(lines)[0])
    return n_tokens, *({tok.form: n for tok, n in c.items()} for c in (types, rhymes)), windows


def test_parse_two_tokens_one_verse():
    lines = ["Je\tje\tPROper\n", "pense\tpenser\tVERcjg\n", "\n"]
    assert _forms(lines) == (2, {"je": 1, "pense": 1}, {"pense": 1}, Counter())


def test_parse_trailing_unterminated_verse():
    assert _forms(["a\ta\tNOMcom", "", "b\tb\tNOMcom"])[2] == {"a": 1, "b": 1}


def test_parse_empty_stream_is_an_error():
    with pytest.raises(CorpusFormatError, match="empty document"):
        _parse([])
    with pytest.raises(CorpusFormatError, match="empty document"):
        _parse(["\n", "\n"])


def test_parse_malformed_line_names_its_number():
    with pytest.raises(CorpusFormatError, match="doc1: line 2"):
        _parse(["a\ta\tNOMcom\n", "gloire\n"])


def test_parse_sorts_documents_by_id_but_reads_them_in_the_order_given():
    word = [[("mot", "mot", "NOMcom")]]
    corpus = make_corpus(make_doc("d10", word), make_doc("d02", word), make_doc("d1", word))
    assert corpus.doc_ids == ("d02", "d1", "d10")
    # Both documents are malformed: the first one read is the one named.
    with pytest.raises(CorpusFormatError, match="^zz: line 1"):
        parse_corpus([("zz", "", ["x\n"]), ("aa", "", ["y\n"])])


def test_parse_ignores_comment_lines():
    lines = ["# header\n", "a\ta\tNOMcom\n", "# note\n", "b\tb\tNOMcom\n"]
    assert _forms(lines)[:3] == (2, {"a": 1, "b": 1}, {"b": 1})


def test_pos_windows_cross_verse_breaks_and_comments_but_not_documents():
    lines = ["a\ta\tDET\n", "\n", "# note\n", "b\tb\tNOMpro\n", "c\tc\tVER\n", "d\td\tDET\n"]
    corpus = parse_corpus([("d1", "", lines), ("d2", "", lines[3:])])
    [one, two] = [windows for *_, windows in tables_of(corpus)]
    assert one == Counter({("DET", "NOMpro", "VER"): 1, ("NOMpro", "VER", "DET"): 1})
    assert two == Counter({("NOMpro", "VER", "DET"): 1})
    assert corpus.tags == ("DET", "NOMpro", "VER")


def test_normalize_lowercases():
    tok = normalize_token("Gloire", "gloire", "NOMcom")
    assert tok is not None and tok.form == "gloire" and tok.lemma == "gloire"


def test_normalize_keeps_proper_names_marked():
    tok = normalize_token("Alcandre", "Alcandre", "NOMpro")
    assert tok is not None and tok.is_proper_noun
    assert tok.form == "alcandre"


def test_normalize_drops_punctuation_only_tokens():
    assert normalize_token("!", "!", "PON") is None


def test_normalize_strips_punctuation_but_keeps_apostrophe():
    tok = normalize_token("L'", "le", "DETdef")
    assert tok is not None and tok.form == "l'"
    curly = normalize_token("c’", "ce", "PROdem")
    assert curly is not None and curly.form == "c'"
    tok = normalize_token("coeur,", "coeur", "NOMcom")
    assert tok is not None and tok.form == "coeur"


def test_proper_names_excluded_from_lexical_stream_only():
    verse = [("le", "le", "DETdef"), ("alcandre", "alcandre", "NOMpro"), ("dort", "dormir", "VER")]
    corpus = make_corpus(make_doc("d", [verse]))
    assert corpus.documents[0].token_count == 3
    lemmas = build_matrix(corpus, FeatureSpec(kind=FeatureKind.LEMMA))
    assert lemmas.feature_names == ("dormir", "le")
    assert lemmas.values.tolist() == [[0.5, 0.5]]
    pos = build_matrix(corpus, FeatureSpec(kind=FeatureKind.POS_NGRAM))
    assert pos.feature_names == ("DETdef.NOMpro.VER",)


@given(
    st.text(min_size=0, max_size=12),
    st.text(min_size=0, max_size=12),
    st.sampled_from(["NOMcom", "VERcjg", "NOMpro", "PON"]),
)
def test_normalized_tokens_are_lowercase_and_punctuation_free(form, lemma, pos):
    import unicodedata

    tok = normalize_token(form, lemma, pos)
    if tok is None:
        return
    for text in (tok.form, tok.lemma):
        assert text
        assert text == text.lower()
        for ch in text:
            assert ch == "'" or not unicodedata.category(ch).startswith("P")


def test_normalize_form_is_the_per_character_loop_on_every_code_point():
    text = "".join(map(chr, range(sys.maxunicode + 1)))
    if normalize_form(text) != naive_normalize_form(text):
        bad = [hex(ord(ch)) for ch in text if normalize_form(ch) != naive_normalize_form(ch)]
        pytest.fail(f"normalized unlike the per-character loop: {bad[:20]}")


def _sized_doc(doc_id: str, author: str, tokens: int):
    verse = [("mot", "mot", "NOMcom")] * 10
    return make_doc(doc_id, [verse] * (tokens // 10), author=author)


def test_filter_no_op_thresholds_is_identity():
    corpus = make_corpus(_sized_doc("a", "A", 100), _sized_doc("b", "B", 50))
    assert filter_corpus(corpus, 0, 1) == corpus


def test_filter_two_stage_hand_trace():
    # Author A has plays of 6000/4000/7000 tokens: the 4000-token play falls
    # to the length rule, leaving 2 < 3 plays, so A loses everything.
    corpus = make_corpus(
        _sized_doc("p1", "A", 6000),
        _sized_doc("p2", "A", 4000),
        _sized_doc("p3", "A", 7000),
    )
    with pytest.raises(AnalysisError, match="no documents survive"):
        filter_corpus(corpus, 5000, 3)


def test_filter_author_rule_applies_after_length_rule():
    corpus = make_corpus(
        _sized_doc("a1", "A", 6000),
        _sized_doc("a2", "A", 6000),
        _sized_doc("a3", "A", 6000),
        _sized_doc("b1", "B", 6000),
        _sized_doc("b2", "B", 4000),
        _sized_doc("b3", "B", 6000),
    )
    kept = filter_corpus(corpus, 5000, 3)
    assert kept.doc_ids == ("a1", "a2", "a3")


def test_filter_keeps_a_document_of_exactly_min_tokens():
    corpus = make_corpus(_sized_doc("a", "A", 100), _sized_doc("b", "A", 90))
    assert filter_corpus(corpus, 100, 1).doc_ids == ("a",)


# (author, length / 10) of each play, min_tokens and min_plays_per_author.
FILTER_DRAWS = (
    st.lists(
        st.tuples(st.sampled_from("ABC"), st.integers(min_value=1, max_value=30)),
        min_size=1,
        max_size=12,
    ),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=1, max_value=4),
)


def _plays(spec) -> Corpus:
    return make_corpus(
        *(_sized_doc(f"d{i:02d}", author, 10 * size) for i, (author, size) in enumerate(spec))
    )


@given(*FILTER_DRAWS)
def test_filter_is_idempotent(spec, min_tokens, min_plays):
    corpus = _plays(spec)
    try:
        once = filter_corpus(corpus, min_tokens, min_plays)
    except AnalysisError:
        return
    assert filter_corpus(once, min_tokens, min_plays) == once


# The length rule leaves an author short: A of three plays, then A and C of two.
@example([("A", 5), ("A", 20), ("A", 20), ("B", 20), ("B", 20), ("B", 20)], 100, 3)
@example([("A", 5), ("A", 20), ("B", 20), ("B", 20), ("C", 20), ("C", 2)], 100, 2)
@given(*FILTER_DRAWS)
def test_filter_is_the_fixed_point_loop(spec, min_tokens, min_plays):
    corpus = _plays(spec)
    try:
        expected = naive_filter_corpus(corpus, min_tokens, min_plays)
    except AnalysisError:
        with pytest.raises(AnalysisError, match="no documents survive"):
            filter_corpus(corpus, min_tokens, min_plays)
        return
    assert filter_corpus(corpus, min_tokens, min_plays).documents == expected.documents


def _round_trip(verses, path) -> tuple[Corpus, Corpus]:
    """The corpus of one document of the verses parsed from lists, and from a token file."""
    write_token_file(verses, path)
    with open(path, encoding="utf-8") as fh:
        return make_corpus(make_doc("d", verses)), parse_corpus([("d", "", fh)])


def test_token_file_round_trip(tmp_path):
    verses = [
        [("l'", "le", "DETdef"), ("amour", "amour", "NOMcom")],
        [("alcandre", "alcandre", "NOMpro"), ("dort", "dormir", "VERcjg")],
    ]
    corpus, again = _round_trip(verses, tmp_path / "d.tsv")
    assert snapshot(again) == snapshot(corpus)
    assert again.documents[0].token_count == 4


PRE_NORMALIZED = st.text(alphabet="abcdefgh'", min_size=1, max_size=8)


@given(
    st.lists(
        st.lists(
            st.tuples(PRE_NORMALIZED, PRE_NORMALIZED, st.sampled_from(["NOMcom", "NOMpro"])),
            min_size=1,
            max_size=6,
        ),
        min_size=1,
        max_size=5,
    )
)
def test_token_file_round_trip_keeps_the_count_tables(tmp_path_factory, verses):
    corpus, again = _round_trip(verses, tmp_path_factory.mktemp("round_trip") / "d.tsv")
    assert snapshot(again) == snapshot(corpus)
    assert tables_of(again) == naive_count_tables(naive_parse_corpus([make_doc("d", verses)]))


def test_identical_lines_share_one_type_id(monkeypatch):
    calls = []

    def counting(*fields):
        calls.append(fields)
        return normalize_token(*fields)

    monkeypatch.setattr(corpus_module, "normalize_token", counting)
    lines = ["Gloire,\tgloire\tNOMcom\n", "et\tet\tCONcoo\n", "\n", "Gloire,\tgloire\tNOMcom\n"]
    corpus = parse_corpus([("doc1", "", lines), ("doc2", "", lines)])
    for doc in corpus:  # types 0, 1, 0 in verses [0, 1] and [0]
        assert [a.tolist() for a in corpus.cells(doc, TYPES)] == [[0, 1], [2, 1]]
        assert [a.tolist() for a in corpus.cells(doc, RHYMES)] == [[0, 1], [1, 1]]
    assert [t.form for t in corpus.types] == ["gloire", "et"]
    assert len(calls) == 2  # once per distinct token line


def test_duplicate_document_ids_rejected():
    doc = _sized_doc("same", "A", 10)
    with pytest.raises(CorpusFormatError, match="duplicate"):
        make_corpus(doc, doc)


def test_load_manifest_missing_file_names_path(tmp_path):
    missing = tmp_path / "nope.csv"
    with pytest.raises(CorpusFormatError, match="nope.csv"):
        load_manifest(missing)


def test_load_manifest_rejects_wrong_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("id,path\nx,y\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=re.escape(f"{path}: line 1: header must be")):
        load_manifest(path)


def test_load_manifest_round_trip(tmp_path, synth_dir):
    corpus = load_manifest(synth_dir / "manifest.csv")
    assert len(corpus) == 30
    assert corpus.documents[0].alleged_author == "author00"
    assert all(doc.token_count >= 5000 for doc in corpus)


# Long enough that line ends fall on both sides of the reader's 8 KiB chunks.
LF_TEXT = "".join(
    f"# verse {i}\nLe\tle\tDETdef\nRoi{i % 7},\troi\tNOMcom\nAlcandre\talcandre\tNOMpro\n\n\n"
    for i in range(400)
) + "dort\tdormir\tVERcjg\n"


@pytest.mark.parametrize("line_end", ["\r\n", "\r", "mixed", "no-final"])
def test_line_ends_do_not_change_the_corpus(tmp_path, line_end):
    if line_end == "mixed":
        lines = LF_TEXT.splitlines()
        text = "".join(line + ("\n", "\r\n", "\r")[i % 3] for i, line in enumerate(lines))
    elif line_end == "no-final":
        text = LF_TEXT[:-1]
    else:
        text = LF_TEXT.replace("\n", line_end)
    lf, other = tmp_path / "lf", tmp_path / "other"
    lf.mkdir()
    other.mkdir()
    expected = load_manifest(write_manifest(lf, {"x.tsv": LF_TEXT.encode()}))
    again = load_manifest(write_manifest(other, {"x.tsv": text.encode()}))
    assert snapshot(again) == snapshot(expected)


@pytest.mark.parametrize("files", ["manifest.csv", "function_words.txt", "tokens/*.tsv"])
def test_a_leading_byte_order_mark_changes_nothing_read(tmp_path, synth_dir, files):
    bom = shutil.copytree(synth_dir, tmp_path / "bom")
    for path in bom.glob(files):
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    with every_load_parses() as loads:  # unless tokens/ got the marks, both key one entry
        plain, again = (load_manifest(d / "manifest.csv") for d in (synth_dir, bom))
    assert len(loads) == 2
    assert snapshot(again) == snapshot(plain)
    words = load_word_list(synth_dir / "function_words.txt")
    assert load_word_list(bom / "function_words.txt") == words
    spec = FeatureSpec(kind=FeatureKind.FUNCTION_WORD, function_words=words)
    want, got = build_matrix(plain, spec), build_matrix(again, spec)
    assert got.feature_names == want.feature_names
    assert np.array_equal(got.values, want.values)


def test_malformed_line_first_seen_in_the_second_document_names_that_file(tmp_path):
    manifest = write_manifest(tmp_path, {
        "one.tsv": b"a\ta\tNOMcom\nb\tb\tNOMcom\n\n",
        # Lines 1-3 repeat lines of one.tsv, so the table already holds them.
        "two.tsv": b"a\ta\tNOMcom\n\nb\tb\tNOMcom\ngloire\tNOMcom\na\ta\tNOMcom\n",
    })
    with pytest.raises(CorpusFormatError) as excinfo:
        load_manifest(manifest)
    assert str(excinfo.value) == (
        f"{tmp_path / 'two.tsv'}: line 4: expected FORM<TAB>LEMMA<TAB>POS, got 2 field(s)"
    )


def test_bad_utf8_byte_past_the_first_8_kib_names_its_line(tmp_path):
    data = b"gloire\tgloire\tNOMcom\n" * 600 + b"gl\xf4ire\tgloire\tNOMcom\n"
    assert data.index(b"\xf4") > 8192
    manifest = write_manifest(tmp_path, {"ok.tsv": b"a\ta\tNOMcom\n", "latin1.tsv": data})
    with pytest.raises(CorpusFormatError) as excinfo:
        load_manifest(manifest)
    assert str(excinfo.value).startswith(f"{tmp_path / 'latin1.tsv'}: line 601: not valid UTF-8")


def test_token_file_that_is_a_directory_names_it(tmp_path):
    manifest = write_manifest(tmp_path, {"ok.tsv": b"a\ta\tNOMcom\n"})
    (tmp_path / "dir.tsv").mkdir()
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write("play9,t,a,g,verse,5,1660,dir.tsv\n")
    with pytest.raises(CorpusFormatError) as excinfo:
        load_manifest(manifest)
    assert str(excinfo.value).startswith(f"{tmp_path / 'dir.tsv'}: cannot read")


FIELD = st.text(alphabet="aBé,.'’ -", max_size=4)
TOKEN_LINE = st.builds(
    "\t".join, st.tuples(FIELD, FIELD, st.sampled_from(["NOMcom", "NOMpro", "VERcjg"]))
)
# Blank, blank-looking and comment lines, and two malformed ones.
OTHER_LINE = st.sampled_from(["", " ", "\t\t", "# note", "#a\tb", "a\tb", "a\tb\tc\td"])
DOC_LINES = st.lists(
    st.tuples(st.one_of(TOKEN_LINE, TOKEN_LINE, TOKEN_LINE, OTHER_LINE),
              st.sampled_from(["\n", "\r\n", "\r"])),
    max_size=12,
)


def _outcome(parse, sources, view=snapshot):
    """The view of a parse's result, or the message of the CorpusFormatError it raised."""
    try:
        return view(parse(sources))
    except CorpusFormatError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(st.lists(DOC_LINES, min_size=1, max_size=3), st.booleans())
def test_parse_agrees_over_files_lists_and_the_per_line_oracle(tmp_path_factory, docs, final_end):
    """Lines end in LF, CRLF or CR, the last one maybe in nothing; ids come in reverse order.

    The lists keep each line's own end, split as a file reader splits them
    (a CR then an empty line's LF is one CRLF).
    """
    directory = tmp_path_factory.mktemp("parse")
    doc_ids = [f"d{len(docs) - i}" for i in range(len(docs))]
    from_lists = []
    for i, (doc_id, lines) in enumerate(zip(doc_ids, docs)):
        text = "".join(line + end for line, end in lines)
        if lines and not final_end:
            text = text[: -len(lines[-1][1])]
        (directory / f"{i}.tsv").write_text(text, encoding="utf-8", newline="")
        from_lists.append((doc_id, "", list(io.StringIO(text, newline="")), f"doc {i}"))
    expected = _outcome(naive_parse_corpus, from_lists, naive_count_tables)
    assert _outcome(parse_corpus, from_lists, tables_of) == expected
    with ExitStack() as stack:
        from_files = [
            (doc_id, "", stack.enter_context(open(directory / f"{i}.tsv", encoding="utf-8")),
             f"doc {i}")
            for i, doc_id in enumerate(doc_ids)
        ]
        assert _outcome(parse_corpus, from_files, tables_of) == expected


def _no_parse(sources):
    raise AssertionError("a cache hit parsed")


# Lines that are never malformed: tokens, and blank, blank-looking and comment lines.
VALID_DOC_LINES = st.lists(
    st.tuples(st.one_of(TOKEN_LINE, TOKEN_LINE, st.sampled_from(["", " ", "\t\t", "# n", "#\t"])),
              st.sampled_from(["\n", "\r\n", "\r"])),
    min_size=1, max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(st.lists(VALID_DOC_LINES, min_size=1, max_size=3), st.booleans())
def test_lists_files_and_a_cache_hit_hold_the_oracle_count_tables(tmp_path_factory, docs, bom):
    """Every document's count tables are the per-token oracle's, whether the corpus is parsed
    from lists, loaded from token files (lines ending in LF, CRLF or CR, maybe after a
    byte-order mark) or read back from the entry that load stored."""
    texts = ["".join(line + end for line, end in lines) for lines in docs]
    sources = [(f"play{i}", "a", list(io.StringIO(t, newline=""))) for i, t in enumerate(texts)]
    expected = _outcome(naive_parse_corpus, sources, naive_count_tables)
    assume(not isinstance(expected, str))  # a document left without a token
    mark = codecs.BOM_UTF8 if bom else b""
    files = {f"{i}.tsv": mark + text.encode() for i, text in enumerate(texts)}
    manifest = write_manifest(tmp_path_factory.mktemp("tables"), files)
    parsed = _load_parsed(manifest)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus_module, "parse_corpus", _no_parse)
        hit = load_manifest(manifest)
    assert tables_of(parse_corpus(sources)) == tables_of(parsed) == tables_of(hit) == expected
    assert snapshot(hit) == snapshot(parsed)


def test_malformed_first_line_after_a_byte_order_mark_is_line_1(tmp_path):
    manifest = write_manifest(tmp_path, {"bom.tsv": codecs.BOM_UTF8 + b"a\tb\nc\tc\tNOMcom\n"})
    with pytest.raises(CorpusFormatError) as excinfo:
        load_manifest(manifest)
    assert str(excinfo.value) == (
        f"{tmp_path / 'bom.tsv'}: line 1: expected FORM<TAB>LEMMA<TAB>POS, got 2 field(s)"
    )


def _load_parsed(manifest) -> Corpus:
    """load_manifest from an empty corpus cache."""
    with every_load_parses() as loads:
        corpus = load_manifest(manifest)
    assert loads == [True]
    return corpus


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.one_of(DOC_LINES, st.just([]), st.just([("# only a comment", "\n")])),
             min_size=1, max_size=7),
)
def test_load_manifest_is_parse_corpus_or_its_first_error(tmp_path_factory, docs):
    """load_manifest is parse_corpus over the same lines: malformed lines and empty
    documents may fall in several files, and the first one in manifest order is named."""
    directory = tmp_path_factory.mktemp("runs")
    texts = {f"{i}.tsv": "".join(line + end for line, end in lines) for i, lines in enumerate(docs)}
    manifest = write_manifest(directory, {name: t.encode() for name, t in texts.items()})
    sources = [
        (f"play{i}", "a", list(io.StringIO(text, newline=None)), str(directory / name))
        for i, (name, text) in enumerate(texts.items())
    ]
    expected = _outcome(parse_corpus, sources)
    assert _outcome(_load_parsed, manifest) == expected


@pytest.mark.parametrize("n_types, dtype", [(1 << 16, np.uint16), ((1 << 16) + 1, np.int32)])
def test_ids_are_two_bytes_up_to_2_16_types(tmp_path, n_types, dtype):
    """The vocabulary passes 2**16 types in the last play, so the ids of the three
    plays before it are widened with it."""
    files = {
        "a.tsv": one_line_per_type(range(10)),
        "b.tsv": one_line_per_type(range(10, 20)),
        "c.tsv": one_line_per_type(range(40000)),
        "d.tsv": one_line_per_type(range(40000, n_types)),
    }
    manifest = write_manifest(tmp_path, files)
    oracle = naive_parse_corpus(
        (f"play{i}", "a", data.decode().splitlines(keepends=True))
        for i, data in enumerate(files.values())
    )
    assert len(oracle[0]) == n_types
    corpus = _load_parsed(manifest)
    for table in (TYPES, RHYMES):
        assert {corpus.cells(doc, table)[0].dtype for doc in corpus} == {np.dtype(dtype)}
    assert corpus.types == oracle[0]
    assert tables_of(corpus) == naive_count_tables(oracle)
    docs = [[[(t.form, t.lemma, t.pos) for t in verse] for verse in verses]
            for _, _, verses in oracle[1]]
    for kind in (FeatureKind.LEMMA, FeatureKind.RHYME_LEMMA, FeatureKind.POS_NGRAM):
        got = build_matrix(corpus, FeatureSpec(kind=kind))
        names, values = naive_family_matrix(docs, kind.value)
        assert got.feature_names == names
        assert np.array_equal(got.values, values)


def test_more_tags_than_a_window_code_holds_is_an_error(monkeypatch):
    monkeypatch.setattr(corpus_module, "_TAG_BITS", 1)  # two tags at most
    lines = ["a\ta\tA\n", "b\tb\tB\n", "c\tc\tC\n"]
    assert len(parse_corpus([("d", "", lines[:2])]).tags) == 2
    with pytest.raises(CorpusFormatError, match=re.escape("d: more than 2**1 POS tags")):
        parse_corpus([("d", "", lines)])


def _de_bruijn(k: int, n: int) -> list[int]:
    """A cyclic sequence over range(k) holding every n-gram once (Fredricksen, Kessler, Maiorana)."""
    a, sequence = [0] * (k * n), []

    def grow(t: int, p: int) -> None:
        if t > n:
            if n % p == 0:
                sequence.extend(a[1 : p + 1])
            return
        a[t] = a[t - p]
        grow(t + 1, p)
        for j in range(a[t - p] + 1, k):
            a[t] = j
            grow(t + 1, t)

    grow(1, 1)
    return sequence


@pytest.mark.parametrize("n_windows, dtype", [(1 << 16, np.uint16), ((1 << 16) + 1, np.int32)])
def test_window_columns_are_two_bytes_up_to_2_16_windows(n_windows, dtype):
    """41 tags in a de Bruijn order: the first n_windows + 2 tokens hold n_windows windows."""
    tags = _de_bruijn(41, 3)[: n_windows + 2]
    sources = [("d", "", [f"w{t}\tw{t}\tT{t}\n" for t in tags])]
    corpus = parse_corpus(sources)
    assert len(corpus.windows) == n_windows
    assert corpus.cells(corpus.documents[0], WINDOWS)[0].dtype == np.dtype(dtype)
    assert tables_of(corpus) == naive_count_tables(naive_parse_corpus(sources))


def test_the_synth_corpus_holds_two_bytes_per_id(synth_corpus):
    """Every table's columns take two bytes, and its counts four."""
    for table in (TYPES, RHYMES, WINDOWS):
        arrays = [synth_corpus.cells(doc, table) for doc in synth_corpus]
        assert {(columns.itemsize, counts.itemsize) for columns, counts in arrays} == {(2, 4)}


FAILING = {
    "missing.tsv": b"",
    "dir.tsv": b"",
    "latin1.tsv": b"gl\xf4ire\tgloire\tNOMcom\n",
    "bad.tsv": b"a\tb\n",
}


@pytest.mark.parametrize("first", list(FAILING))
def test_the_error_names_the_first_failing_file(tmp_path, first):
    """However the first failing file fails, the error names it, not one after it."""
    files = {"ok.tsv": b"a\ta\tNOMcom\n", first: FAILING[first], **FAILING}
    manifest = write_manifest(tmp_path, files)
    (tmp_path / "missing.tsv").unlink()
    (tmp_path / "dir.tsv").unlink()
    (tmp_path / "dir.tsv").mkdir()
    with pytest.raises(CorpusFormatError) as excinfo:
        _load_parsed(manifest)
    assert str(excinfo.value).startswith(f"{tmp_path / first}: ")
