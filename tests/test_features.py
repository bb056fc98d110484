from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import make_corpus, make_doc
from stylokit.errors import AnalysisError
from stylokit.features import (
    FeatureKind,
    FeatureSpec,
    Scale,
    affixes_of,
    build_matrix,
    candidate_function_words,
    extract_affixes,
    extract_forms,
    extract_function_words,
    extract_lemmas,
    extract_pos_ngrams,
    extract_rhyme_lemmas,
    write_matrix_csv,
)

WORDS = st.text(alphabet="abcdefgh'", min_size=1, max_size=10)


def _tok(form, lemma=None, pos="NOMcom"):
    return (form, lemma or form, pos)


def test_lemma_counts():
    doc = make_doc("d", [[_tok("aime", "aimer"), _tok("aimes", "aimer"), _tok("gloire")]])
    assert extract_lemmas(doc) == {"aimer": 2, "gloire": 1}


def test_lemmas_skip_proper_names():
    doc = make_doc("d", [[("alcandre", "alcandre", "NOMpro")]])
    assert extract_lemmas(doc) == {}


def test_rhyme_lemma_uses_last_token_of_each_verse():
    doc = make_doc(
        "d",
        [
            [_tok("ma"), _tok("gloire")],
            [_tok("mon"), _tok("contentement")],
            [_tok("ta"), _tok("gloire")],
        ],
    )
    assert extract_rhyme_lemmas(doc) == {"gloire": 2, "contentement": 1}


def test_rhyme_proper_name_contributes_nothing():
    doc = make_doc("d", [[_tok("le"), ("alcandre", "alcandre", "NOMpro")]])
    assert extract_rhyme_lemmas(doc) == {}


def test_forms_do_not_merge_inflections():
    doc = make_doc("d", [[_tok("aime", "aimer"), _tok("aimes", "aimer")]])
    assert extract_forms(doc) == {"aime": 1, "aimes": 1}


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
    doc = make_doc("d", [[_tok("gloire"), _tok("gloire"), _tok("et")]])
    counts = extract_affixes(doc)
    assert counts["^glo"] == 2
    assert counts["_et"] == 1
    assert sum(counts.values()) == 2 * 4 + 2


def test_pos_ngrams_basic():
    doc = make_doc("d", [[("ce", "ce", "DETdem"), ("beau", "beau", "ADJqua"), ("jour", "jour", "NOMcom")]])
    assert extract_pos_ngrams(doc, 3) == {"DETdem.ADJqua.NOMcom": 1}


def test_pos_ngrams_cross_verse_boundaries():
    doc = make_doc(
        "d",
        [[("a", "a", "T1"), ("b", "b", "T2")], [("c", "c", "T3"), ("d", "d", "T4")]],
    )
    counts = extract_pos_ngrams(doc, 3)
    assert counts == {"T1.T2.T3": 1, "T2.T3.T4": 1}


def test_pos_ngrams_keep_proper_names():
    doc = make_doc(
        "d",
        [[("roi", "roi", "NOMcom"), ("jean", "jean", "NOMpro"), ("paul", "paul", "NOMpro")]],
    )
    assert extract_pos_ngrams(doc, 3) == {"NOMcom.NOMpro.NOMpro": 1}


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=30))
def test_pos_ngram_total_is_window_count(n, k):
    if k == 0:
        return
    doc = make_doc("d", [[("x", "x", f"T{i % 3}") for i in range(k)]])
    total = sum(extract_pos_ngrams(doc, n).values())
    assert total == max(0, k - n + 1)


def test_function_word_counts_restricted_to_list():
    doc = make_doc("d", [[_tok("et"), _tok("gloire"), _tok("et")]])
    assert extract_function_words(doc, ("et",)) == {"et": 2}
    assert extract_function_words(doc, ("mais",)) == {}


@given(
    st.lists(
        st.lists(st.tuples(WORDS, WORDS), min_size=1, max_size=6), min_size=1, max_size=5
    )
)
def test_rhyme_counts_bounded_by_lemma_counts(verses):
    doc = make_doc("d", [[(f, le, "NOMcom") for f, le in verse] for verse in verses])
    lemmas = extract_lemmas(doc)
    for lemma, count in extract_rhyme_lemmas(doc).items():
        assert count <= lemmas[lemma]


def test_candidate_function_words_ranking_and_ties():
    docs = make_corpus(
        make_doc("a", [[_tok("et"), _tok("et"), _tok("ab"), _tok("ba")]]),
    )
    ranked = candidate_function_words(docs, 10)
    assert ranked == [("et", 2), ("ab", 1), ("ba", 1)]
    assert candidate_function_words(docs, 2) == [("et", 2), ("ab", 1)]


def test_candidate_function_words_empty_corpus():
    with pytest.raises(AnalysisError):
        candidate_function_words(make_corpus(), 5)


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


def test_matrix_csv_is_byte_deterministic(tmp_path, synth_corpus):
    matrix = build_matrix(synth_corpus, FeatureSpec(kind=FeatureKind.LEMMA))
    p1, p2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    write_matrix_csv(matrix, p1)
    write_matrix_csv(matrix, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_feature_spec_validation():
    with pytest.raises(ValueError):
        FeatureSpec(kind=FeatureKind.FUNCTION_WORD)
