from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _oracles import naive_family_matrix, naive_write_float_rows, naive_write_table
from conftest import make_corpus, make_doc
from stylokit.corpus import filter_corpus
from stylokit.features import (
    FeatureKind,
    FeatureMatrix,
    FeatureSpec,
    Scale,
    _field,
    affixes_of,
    build_matrix,
    load_word_list,
    write_matrix_csv,
    write_table,
)
from stylokit.metrics import DistanceMatrix, Measure, write_distance_csv

WORDS = st.text(alphabet="abcdefgh'", min_size=1, max_size=10)


def _tok(form, lemma=None, pos="NOMcom"):
    return (form, lemma or form, pos)


def _family(kind: FeatureKind, verses, words: tuple[str, ...] = ()) -> dict[str, float]:
    """One document's row of the family's matrix, keyed by feature name."""
    spec = FeatureSpec(kind=kind, function_words=words)
    matrix = build_matrix(make_corpus(make_doc("d", verses)), spec)
    return dict(zip(matrix.feature_names, matrix.values[0].tolist()))


def _rel(counts: dict[str, int], total: int | None = None) -> dict[str, float]:
    """Counts over their total (or a given denominator), divided as build_matrix does."""
    total = sum(counts.values()) if total is None else total
    return {name: n / total for name, n in counts.items()}


def test_lemma_counts():
    verses = [[_tok("aime", "aimer"), _tok("aimes", "aimer"), _tok("gloire")]]
    assert _family(FeatureKind.LEMMA, verses) == _rel({"aimer": 2, "gloire": 1})


def test_lemmas_skip_proper_names():
    verses = [[("alcandre", "alcandre", "NOMpro")]]
    assert _family(FeatureKind.LEMMA, verses) == {}


def test_rhyme_lemma_uses_last_token_of_each_verse():
    verses = [
        [_tok("ma"), _tok("gloire")],
        [_tok("mon"), _tok("contentement")],
        [_tok("ta"), _tok("gloire")],
    ]
    assert _family(FeatureKind.RHYME_LEMMA, verses) == _rel({"gloire": 2, "contentement": 1})


def test_rhyme_proper_name_contributes_nothing():
    verses = [[_tok("le"), ("alcandre", "alcandre", "NOMpro")]]
    assert _family(FeatureKind.RHYME_LEMMA, verses) == {}


def test_forms_do_not_merge_inflections():
    verses = [[_tok("aime", "aimer"), _tok("aimes", "aimer")]]
    assert _family(FeatureKind.WORD_FORM, verses) == _rel({"aime": 1, "aimes": 1})


def test_affixes_of_gloire():
    assert sorted(affixes_of("gloire")) == sorted(["^glo", "ire$", "_gl", "re_"])


def test_affixes_short_word_has_only_space_types():
    assert sorted(affixes_of("et")) == sorted(["_et", "et_"])


def test_affixes_single_char_degenerates():
    assert sorted(affixes_of("y")) == sorted(["_y", "y_"])


@given(WORDS)
def test_affix_emission_counts(word):
    emitted = affixes_of(word)
    assert len(emitted) == (4 if len(word) >= 4 else 2)


def test_affix_document_counts_aggregate():
    counts = _family(FeatureKind.AFFIX, [[_tok("gloire"), _tok("gloire"), _tok("et")]])
    expected = {"^glo": 2, "ire$": 2, "_gl": 2, "re_": 2, "_et": 1, "et_": 1}
    assert sum(expected.values()) == 2 * 4 + 2
    assert counts == _rel(expected)


def test_pos_ngrams_basic():
    verses = [[("ce", "ce", "DETdem"), ("beau", "beau", "ADJqua"), ("jour", "jour", "NOMcom")]]
    assert _family(FeatureKind.POS_NGRAM, verses) == {"DETdem.ADJqua.NOMcom": 1.0}


def test_pos_ngrams_cross_verse_boundaries():
    verses = [[("a", "a", "T1"), ("b", "b", "T2")], [("c", "c", "T3"), ("d", "d", "T4")]]
    assert _family(FeatureKind.POS_NGRAM, verses) == _rel({"T1.T2.T3": 1, "T2.T3.T4": 1})


def test_pos_ngrams_keep_proper_names():
    verses = [[("roi", "roi", "NOMcom"), ("jean", "jean", "NOMpro"), ("paul", "paul", "NOMpro")]]
    assert _family(FeatureKind.POS_NGRAM, verses) == {"NOMcom.NOMpro.NOMpro": 1.0}


def test_pos_ngram_names_escape_a_dot_or_backslash_in_a_tag():
    # Joined with bare dots, d1's and d2's windows would both be "A.B.C.C".
    corpus = make_corpus(
        make_doc("d1", [[_tok("x", pos="A.B"), _tok("y", pos="C"), _tok("z", pos="C")]]),
        make_doc("d2", [[_tok("x", pos="A"), _tok("y", pos="B.C"), _tok("z", pos="C")]]),
        make_doc("d3", [[_tok("x", pos="A\\"), _tok("y", pos="B"), _tok("z", pos="C")]]),
    )
    matrix = build_matrix(corpus, FeatureSpec(kind=FeatureKind.POS_NGRAM))
    assert matrix.feature_names == ("A.B\\.C.C", "A\\.B.C.C", "A\\\\.B.C")
    assert matrix.values.tolist() == [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]


@given(st.integers(min_value=1, max_value=30))
def test_pos_ngram_total_is_window_count(k):
    # Every tag is distinct, so each of the k - 2 windows is its own feature.
    counts = _family(FeatureKind.POS_NGRAM, [[("x", "x", f"T{i}") for i in range(k)]])
    windows = max(0, k - 2)
    assert len(counts) == windows
    assert all(value == 1 / windows for value in counts.values())


def test_function_word_counts_restricted_to_list():
    verses = [[_tok("et"), _tok("gloire"), _tok("et")]]
    assert _family(FeatureKind.FUNCTION_WORD, verses, ("et",)) == _rel({"et": 2}, 3)
    assert _family(FeatureKind.FUNCTION_WORD, verses, ("mais",)) == {}


@given(
    st.lists(
        st.lists(st.tuples(WORDS, WORDS), min_size=1, max_size=6), min_size=1, max_size=5
    )
)
def test_rhyme_counts_bounded_by_lemma_counts(verses):
    verses = [[(f, le, "NOMcom") for f, le in verse] for verse in verses]
    tokens = sum(len(verse) for verse in verses)
    lemmas = _family(FeatureKind.LEMMA, verses)
    for lemma, value in _family(FeatureKind.RHYME_LEMMA, verses).items():
        assert round(value * len(verses)) <= round(lemmas[lemma] * tokens)


VOCABULARY = [
    ("le", "le", "DETdef"),
    ("l'", "le", "DETdef"),
    ("et", "et", "CONcoo"),
    ("gloire", "gloire", "NOMcom"),
    ("gloires", "gloire", "NOMcom"),
    ("aime", "aimer", "VERcjg"),
    ("y", "y", "PROper"),
    ("alcandre", "alcandre", "NOMpro"),
    ("ab", "ab", "NOMpro"),
]
TOKENS = st.sampled_from(VOCABULARY) | st.tuples(
    WORDS, WORDS, st.sampled_from(["NOMcom", "NOMpro", "VERcjg", "VER.ppe", "PRE\\"])
)
VERSES = st.lists(st.lists(TOKENS, min_size=1, max_size=5), min_size=1, max_size=4)
FW_LIST = ("le", "et", "ab", "mais")


@settings(max_examples=60, deadline=None)
@given(st.lists(VERSES, min_size=2, max_size=5))
def test_build_matrix_matches_per_token_oracle(docs):
    # "lone" is the only play of its author, so the filter drops it, and
    # with it the only occurrence of "solitaire".
    lone = [[("solitaire", "solitaire", "NOMcom"), ("alcandre", "alcandre", "NOMpro")]]
    sources = [make_doc(f"d{i}", verses, author="A") for i, verses in enumerate(docs)]
    corpus = filter_corpus(make_corpus(*sources, make_doc("lone", lone, author="Z")), 0, 2)
    assert "lone" not in corpus.doc_ids
    for kind in FeatureKind:
        words = FW_LIST if kind is FeatureKind.FUNCTION_WORD else ()
        matrix = build_matrix(corpus, FeatureSpec(kind=kind, function_words=words))
        names, values = naive_family_matrix(docs, kind.value, words)
        assert matrix.feature_names == names, kind
        assert np.array_equal(matrix.values, values), kind


def test_build_matrix_single_doc_relative_frequencies():
    doc = make_doc("d", [[_tok("a", "a"), _tok("a", "a"), _tok("b", "b"), _tok("b", "b")]])
    matrix = build_matrix(make_corpus(doc), FeatureSpec(kind=FeatureKind.LEMMA))
    assert matrix.feature_names == ("a", "b")
    assert np.allclose(matrix.values, [[0.5, 0.5]])
    assert matrix.scale is Scale.RELATIVE_FREQUENCY


def test_build_matrix_disjoint_vocabularies_union():
    corpus = make_corpus(
        make_doc("d1", [[_tok("aa")]]),
        make_doc("d2", [[_tok("bb")]]),
    )
    matrix = build_matrix(corpus, FeatureSpec(kind=FeatureKind.LEMMA))
    assert matrix.feature_names == ("aa", "bb")
    assert np.allclose(matrix.values, [[1.0, 0.0], [0.0, 1.0]])


def test_build_matrix_rows_sum_to_one_per_family(synth_corpus):
    for kind in (FeatureKind.LEMMA, FeatureKind.WORD_FORM, FeatureKind.AFFIX, FeatureKind.POS_NGRAM):
        matrix = build_matrix(synth_corpus, FeatureSpec(kind=kind))
        assert np.allclose(matrix.values.sum(axis=1), 1.0, atol=1e-9)


def test_build_matrix_function_word_rows_sum_below_one(synth_corpus):
    words = tuple(f"fw{i:03d}" for i in range(1, 111))
    matrix = build_matrix(
        synth_corpus, FeatureSpec(kind=FeatureKind.FUNCTION_WORD, function_words=words)
    )
    sums = matrix.values.sum(axis=1)
    assert np.all(sums <= 1.0 + 1e-12)
    assert np.all(sums > 0.0)


def test_build_matrix_all_proper_doc_yields_zero_row():
    corpus = make_corpus(
        make_doc("d1", [[_tok("mot")]]),
        make_doc("d2", [[("jean", "jean", "NOMpro")]]),
    )
    matrix = build_matrix(corpus, FeatureSpec(kind=FeatureKind.LEMMA))
    assert np.allclose(matrix.values[1], 0.0)


def test_affix_build_memory_follows_the_result_not_docs_x_types():
    # 200 docs x 400 tokens over 21,000 forms: at least 20k types, but
    # 75 affixes. The count must never hold a docs x types array.
    forms = ["abcde"[i % 5] + f"x{i:05d}y" + "vwxyz"[i // 5 % 5] for i in range(21000)]
    draws = np.random.default_rng(5).integers(len(forms), size=(200, 400)).tolist()
    corpus = make_corpus(
        *(make_doc(f"d{i:03d}", [[_tok(forms[w]) for w in row]]) for i, row in enumerate(draws))
    )
    dense = len(corpus) * len(corpus.types) * 8  # bytes of a docs x types int64 array
    assert len(corpus.types) >= 20000
    tracemalloc.start()
    try:
        matrix = build_matrix(corpus, FeatureSpec(kind=FeatureKind.AFFIX))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix.n_features == 75
    assert peak < dense


def test_matrix_csv_is_byte_deterministic(tmp_path, synth_corpus):
    matrix = build_matrix(synth_corpus, FeatureSpec(kind=FeatureKind.LEMMA))
    p1, p2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    write_matrix_csv(matrix, p1)
    write_matrix_csv(matrix, p2)
    assert p1.read_bytes() == p2.read_bytes()


EXTREMES = [-0.0, 5e-324, -5e-324, 1e300, -1e300, -0.25, 0.1]
CELLS = st.sampled_from(EXTREMES) | st.floats(allow_nan=False, allow_infinity=False)
# Doc ids the csv module must quote: commas, quotes, line ends, the empty id.
DOC_IDS = st.lists(st.text(alphabet='ab,"q \n\r', max_size=4), min_size=1, max_size=5, unique=True)


@st.composite
def float_tables(draw, square: bool = False):
    """Strictly increasing doc ids and a finite float row for each."""
    ids = tuple(sorted(draw(DOC_IDS)))
    n_cols = len(ids) if square else draw(st.integers(0, 6))
    cells = draw(st.lists(CELLS, min_size=len(ids) * n_cols, max_size=len(ids) * n_cols))
    return ids, np.array(cells, dtype=float).reshape(len(ids), n_cols)


QUOTED = (("", "a,b", 'q"x'), np.array([EXTREMES[:3], EXTREMES[3:6], [0.0, -1.5, 1e-5]]))


def _oracle_bytes(directory, header, ids, values) -> bytes:
    naive_write_float_rows(directory / "oracle.csv", header, ids, values)
    return (directory / "oracle.csv").read_bytes()


@settings(max_examples=60, deadline=None)
@given(float_tables())
@example(QUOTED)
@example((("",), np.zeros((1, 0))))
def test_matrix_csv_matches_the_per_cell_oracle(tmp_path_factory, table):
    ids, values = table
    names = tuple(f"f,{j}" for j in range(values.shape[1]))
    directory = tmp_path_factory.mktemp("matrix_csv")
    write_matrix_csv(FeatureMatrix(ids, names, values), directory / "matrix.csv")
    expected = _oracle_bytes(directory, ("doc_id", *names), ids, values)
    assert (directory / "matrix.csv").read_bytes() == expected


@settings(max_examples=60, deadline=None)
@given(float_tables(square=True))
@example(QUOTED)
def test_distance_csv_matches_the_per_cell_oracle(tmp_path_factory, table):
    ids, values = table
    directory = tmp_path_factory.mktemp("distance_csv")
    write_distance_csv(DistanceMatrix(ids, values, Measure.BURROWS_DELTA), directory / "distance.csv")
    expected = _oracle_bytes(directory, ("doc_id", *ids), ids, values)
    assert (directory / "distance.csv").read_bytes() == expected


# String cells the csv module must quote, plain ones and the empty string.
TEXTS = st.text(alphabet='ab,"q \n\r', max_size=4)


@st.composite
def any_tables(draw):
    """write_table's arguments: heads, no float block or one of 0-3 columns, and 0-3 tails."""
    n = draw(st.integers(0, 4))
    width = draw(st.none() | st.integers(0, 3))
    floats = None
    if width is not None:
        cells = draw(st.lists(CELLS, min_size=n * width, max_size=n * width))
        floats = np.array(cells, dtype=float).reshape(n, width)
    tails = draw(st.lists(st.lists(TEXTS, min_size=n, max_size=n), max_size=3))
    size = 1 + (width or 0) + len(tails)
    header = draw(st.lists(TEXTS, min_size=size, max_size=size))
    return header, draw(st.lists(TEXTS, min_size=n, max_size=n)), floats, tails


ASSIGNMENT = (
    ("doc_id", "cluster", "author"), ("a,b", "", "c"), None, (("1", "2", "1"), ("", 'q"x', "\r")),
)
SWEEP = (
    ("cutoff", "n_features", "purity_authors", "purity_reference"), ("0.01", "0.5", "RS"), None,
    (("1", "9", "12"), ("", "0.75", "1"), ("", "1", "")),
)
MANIFEST = (
    ("doc_id", "title", "author", "genre", "form", "acts", "year", "path"),
    ("auth00_doc00", "x\ny"), None,
    tuple((f"{field}0", "") for field in ("t,", "a", "g", "f", "5", "1660", "p")),
)
MIXED = (
    ("", "f,0", "f1", "flag"), ("", '"'), np.array([[-0.0, 5e-324, 1e300], [0.5, -1e300, 0.1]]),
    (("true", "\r\n"),),
)


@settings(max_examples=100, deadline=None)
@given(any_tables())
@example(ASSIGNMENT)
@example(SWEEP)
@example(MANIFEST)
@example(MIXED)
@example((("",), ("", "a"), None, ()))
@example((("", ""), ("",), np.zeros((1, 0)), (("",),)))
def test_write_table_matches_the_per_cell_oracle(tmp_path_factory, table):
    directory = tmp_path_factory.mktemp("table_csv")
    write_table(directory / "table.csv", *table)
    naive_write_table(directory / "oracle.csv", *table)
    assert (directory / "table.csv").read_bytes() == (directory / "oracle.csv").read_bytes()


@pytest.mark.parametrize(("text", "alone", "field"), [
    ("a\rb", False, '"a\rb"'),
    ("c\nd", False, '"c\nd"'),
    ('q"x', False, '"q""x"'),
    ("a,b", True, '"a,b"'),
    ("", True, '""'),
    ("", False, ""),
    ("auth00_doc00 x", True, "auth00_doc00 x"),
])
def test_field_writes_the_same_bytes_on_every_python(text, alone, field):
    assert _field(text, alone) == field


def test_feature_spec_validation():
    with pytest.raises(ValueError):
        FeatureSpec(kind=FeatureKind.FUNCTION_WORD)


def test_word_list_entries_are_normalized_like_token_forms(tmp_path):
    path = tmp_path / "fw.txt"
    path.write_text("# list\nQU’\n  Le,\n...\n\nde\n", encoding="utf-8")
    assert load_word_list(path) == ("qu'", "le", "de")
