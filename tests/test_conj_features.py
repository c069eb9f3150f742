import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA
from conjparse.conj_features import (
    SUFFIX_CAP,
    ConjFeatureVector,
    cap_feature,
    extract_forms,
    lemma_feature,
    sentiment_feature,
    suffix_feature,
    sym_feature,
)
from conjparse.resources import (
    EmbeddingTable,
    FeatureResources,
    LemmaLexicon,
    SentimentLexicon,
)


@pytest.fixture(scope="module")
def lemmas():
    return LemmaLexicon.load(DATA / "lemmas.tsv")


@pytest.fixture(scope="module")
def sentiment():
    return SentimentLexicon.load(
        DATA / "sentiment_positive.txt", DATA / "sentiment_negative.txt"
    )


def brute_force_suffix(a: str, b: str) -> int:
    """Try every suffix length, keep the longest shared one."""
    best = 0
    for k in range(1, min(len(a), len(b)) + 1):
        if a[-k:] == b[-k:]:
            best = k
    return best


def test_cap_pairs():
    assert cap_feature("Corp.", "Inc.") is True
    assert cap_feature("Poland", "Hungary") is True
    assert cap_feature("men", "Women") is False


def test_cap_empty_raises():
    with pytest.raises(ValueError):
        cap_feature("", "x")


def test_suffix_pairs():
    assert suffix_feature("men", "women") == brute_force_suffix("men", "women") == 3
    assert suffix_feature("three-month", "six-month") == 6
    assert brute_force_suffix("three-month", "six-month") == 6
    assert suffix_feature("abc", "xyz") == 0


@settings(max_examples=200, deadline=None)
@given(st.text(min_size=1, max_size=12), st.text(min_size=1, max_size=12))
def test_suffix_matches_bruteforce(a, b):
    assert suffix_feature(a, b) == brute_force_suffix(a, b)


@settings(max_examples=100, deadline=None)
@given(st.text(min_size=1, max_size=12))
def test_suffix_self_is_length(word):
    assert suffix_feature(word, word) == len(word)


def test_lemma_pairs(lemmas):
    assert lemma_feature("say", "VB", "said", "VBD", lemmas) is True
    assert lemma_feature("handled", "VBD", "handles", "VBZ", lemmas) is True
    assert lemma_feature("table", "NN", "chair", "NN", LemmaLexicon.empty()) is False


def test_lemma_identity_fallback_is_case_insensitive():
    lex = LemmaLexicon.empty()
    assert lemma_feature("Table", "NN", "table", "NN", lex) is True


def test_lemma_pos_class_keying(lemmas):
    # "said" is only listed as a verb; a noun query falls back to identity.
    assert lemma_feature("say", "NN", "said", "NN", lemmas) is False


def test_sym_identical_word():
    table = EmbeddingTable({"w": np.array([1.0, 2.0, -3.0])}, dim=3)
    assert abs(sym_feature("w", "w", table) - 1.0) < 1e-12


def test_sym_orthogonal_and_closed_form():
    table = EmbeddingTable(
        {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0]),
         "c": np.array([1.0, 1.0])},
        dim=2,
    )
    assert sym_feature("a", "b", table) == 0.0
    assert abs(sym_feature("c", "a", table) - 0.7071067811865475) < 1e-12


def test_sym_oov_and_zero_norm():
    table = EmbeddingTable({"z": np.zeros(2), "a": np.array([1.0, 0.0])}, dim=2)
    assert sym_feature("missing", "a", table) == 0.0
    assert sym_feature("z", "a", table) == 0.0
    assert sym_feature("a", "a", None) == 0.0


def test_sym_lowercase_fallback():
    table = EmbeddingTable({"word": np.array([1.0, 1.0])}, dim=2)
    assert abs(sym_feature("Word", "word", table) - 1.0) < 1e-12


def test_sym_scale_invariance():
    rng = np.random.default_rng(3)
    for _ in range(200):
        v = rng.normal(size=5)
        w = rng.normal(size=5)
        scale_a, scale_b = rng.uniform(0.01, 100, size=2)
        t1 = EmbeddingTable({"a": v, "b": w}, dim=5)
        t2 = EmbeddingTable({"a": scale_a * v, "b": scale_b * w}, dim=5)
        assert abs(sym_feature("a", "b", t1) - sym_feature("a", "b", t2)) < 1e-9


def test_sym_is_the_cosine_of_the_stored_norms():
    rng = np.random.default_rng(4)
    vectors = {f"w{i}": rng.normal(size=7) * 10.0 ** rng.integers(-3, 4)
               for i in range(6)}
    table = EmbeddingTable(vectors, dim=7)
    for a in vectors:
        for b in vectors:
            expected = float(np.dot(vectors[a], vectors[b])
                             / (np.linalg.norm(vectors[a]) * np.linalg.norm(vectors[b])))
            assert sym_feature(a, b, table) == expected


def test_sentiment_values(sentiment):
    assert sentiment_feature("winners", sentiment) == 1
    assert sentiment_feature("losers", sentiment) == -1
    assert sentiment_feature("up", sentiment) == 1
    assert sentiment_feature("down", sentiment) == -1
    assert sentiment_feature("the", sentiment) == 0
    assert sentiment_feature("UP", sentiment) == 1  # lowercased lookup


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="0123456789#@", min_size=1, max_size=6))
def test_sentiment_neutral_for_unlisted(word, ):
    lex = SentimentLexicon(frozenset({"good"}), frozenset({"bad"}))
    assert sentiment_feature(word, lex) == 0


def test_sentiment_overlap_rejected():
    with pytest.raises(ValueError, match="both sentiment lists"):
        SentimentLexicon(frozenset({"odd"}), frozenset({"odd"}))


def test_extract_corp_inc_empty_resources(empty_resources):
    fv = extract_forms("Corp.", "NN", "Inc.", "NN", empty_resources)
    assert fv == ConjFeatureVector(
        cap=True, suffix_len=1, lemma_match=False, similarity=0.0,
        head_sentiment=0, modifier_sentiment=0,
    )


def test_extract_word_with_itself():
    table = EmbeddingTable({"echo": np.array([0.3, -0.2])}, dim=2)
    resources = FeatureResources(embeddings=table)
    fv = extract_forms("echo", "NN", "echo", "NN", resources)
    assert fv.cap is False
    assert fv.suffix_len == 4
    assert fv.lemma_match is True
    assert abs(fv.similarity - 1.0) < 1e-12


def test_extract_income_earnings(lemmas):
    resources = FeatureResources(lemmas=lemmas)
    fv = extract_forms("income", "NN", "earnings", "NNS", resources)
    assert fv.lemma_match is False
    assert fv.cap is False
    assert fv.suffix_len == 0


def test_feature_symmetry_on_random_pairs(lemmas, sentiment):
    rng = np.random.default_rng(11)
    alphabet = list("abcdefgXYZ-.")
    words = [
        "".join(rng.choice(alphabet, size=rng.integers(1, 9)))
        for _ in range(2000)
    ]
    table = EmbeddingTable(
        {w: rng.normal(size=4) for w in words[:1000]}, dim=4
    )
    for k in range(0, 2000, 2):
        a, b = words[k], words[k + 1]
        assert cap_feature(a, b) == cap_feature(b, a)
        assert suffix_feature(a, b) == suffix_feature(b, a)
        assert lemma_feature(a, "NN", b, "NN", lemmas) == lemma_feature(
            b, "NN", a, "NN", lemmas
        )
        assert abs(sym_feature(a, b, table) - sym_feature(b, a, table)) < 1e-12


def test_to_inputs_encoding():
    fv = ConjFeatureVector(cap=True, suffix_len=3, lemma_match=False,
                           similarity=0.5, head_sentiment=1, modifier_sentiment=-1)
    np.testing.assert_allclose(
        fv.to_inputs(), [1.0, 3.0 / SUFFIX_CAP, 0.0, 0.5, 1.0, -1.0]
    )
    capped = ConjFeatureVector(cap=False, suffix_len=12, lemma_match=True,
                               similarity=0.0, head_sentiment=0, modifier_sentiment=0)
    assert capped.to_inputs()[1] == 1.0


def test_fired_sets():
    fv = ConjFeatureVector(cap=True, suffix_len=3, lemma_match=True,
                           similarity=0.9, head_sentiment=1, modifier_sentiment=-1)
    assert fv.fired() == frozenset({"cap", "suf", "lem", "sent"})
    weak = ConjFeatureVector(cap=False, suffix_len=2, lemma_match=False,
                             similarity=0.9, head_sentiment=1, modifier_sentiment=0)
    assert weak.fired() == frozenset()


def test_suffix_invariant_vs_form_lengths():
    fv = extract_forms("men", "NNS", "women", "NNS", FeatureResources.empty())
    assert fv.suffix_len <= min(len("men"), len("women"))
