import numpy as np
import pytest

from conftest import DATA
from conjparse.resources import (
    EmbeddingTable,
    LemmaLexicon,
    ResourceError,
    SentimentLexicon,
    pos_class,
)


def test_embedding_file_with_header(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("2 3\nfoo 1.0 2.0 3.0\nbar -1.0 0.5 0.25\n")
    table = EmbeddingTable.load(path)
    assert table.dim == 3
    assert len(table) == 2
    np.testing.assert_array_equal(table.lookup("foo"), [1.0, 2.0, 3.0])


def test_embedding_file_without_header(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("foo 1.0 2.0\nbar 0.0 1.0\n")
    table = EmbeddingTable.load(path)
    assert table.dim == 2 and len(table) == 2


def test_embedding_dimension_mismatch(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("foo 1.0 2.0\nbar 1.0\n")
    with pytest.raises(ResourceError, match="expected 2 values"):
        EmbeddingTable.load(path)


def test_embedding_non_numeric(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("foo 1.0 oops\n")
    with pytest.raises(ResourceError, match="non-numeric"):
        EmbeddingTable.load(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
def test_embedding_non_finite_rejected_with_line_number(tmp_path, bad):
    path = tmp_path / "vec.txt"
    path.write_text(f"ok 0.5 1.0\nbad {bad} 2.0\n")
    with pytest.raises(ResourceError, match=r"vec\.txt, line 2: non-finite"):
        EmbeddingTable.load(path)


def test_embedding_whose_norm_overflows_is_rejected_with_line_number(tmp_path):
    # Finite values whose squares are not: the cosine similarity would be NaN.
    path = tmp_path / "vec.txt"
    path.write_text("ok 0.5 1.0\nbig 1e200 2.0\n")
    with pytest.raises(ResourceError, match=r"vec\.txt, line 2: vector norm overflows"):
        EmbeddingTable.load(path)


def test_embedding_norm_of_is_the_norm_of_the_looked_up_vector(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("word 3.0 4.0\nother 1e150 1e150\nword 1.0 0.0\n")
    table = EmbeddingTable.load(path)
    for word in ("word", "Word", "other", "OTHER"):
        assert table.norm_of(word) == np.linalg.norm(table.lookup(word))
    assert table.norm_of("Word") == 5.0  # the first entry's


def test_embedding_empty_file(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("")
    with pytest.raises(ResourceError, match="no vectors"):
        EmbeddingTable.load(path)


def test_embedding_duplicate_first_wins(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("foo 1.0\nfoo 9.0\n")
    table = EmbeddingTable.load(path)
    assert table.lookup("foo")[0] == 1.0


def test_embedding_lowercase_fallback_flag(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("word 1.0 2.0\n")
    assert EmbeddingTable.load(path).lookup("Word") is not None


def test_bundled_sample_embeddings_load():
    table = EmbeddingTable.load(DATA / "embeddings_sample.txt")
    assert table.dim == 16
    assert "shares" in table


def test_lemma_lexicon_load_and_fallback():
    lex = LemmaLexicon.load(DATA / "lemmas.tsv")
    assert lex.lemma_of("said", "VBD") == "say"
    assert lex.lemma_of("SAID", "VBD") == "say"
    assert lex.lemma_of("unknownword", "NN") == "unknownword"
    assert lex.lemma_of("Unknown", "NN") == "unknown"


def test_lemma_lexicon_bad_line(tmp_path):
    path = tmp_path / "lem.tsv"
    path.write_text("only-two-fields\tnoun\n")
    with pytest.raises(ResourceError, match="3 tab-separated"):
        LemmaLexicon.load(path)


@pytest.mark.parametrize("cls_name", ["VBZ", "Verb", "pronoun", ""])
def test_lemma_lexicon_unknown_pos_class(tmp_path, cls_name):
    # An entry keyed by a class pos_class never returns could never match.
    path = tmp_path / "lem.tsv"
    path.write_text(f"said\tverb\tsay\nsays\t{cls_name}\tsay\n")
    with pytest.raises(ResourceError,
                       match=rf"lem\.tsv, line 2: unknown pos class '{cls_name}'"):
        LemmaLexicon.load(path)


def test_pos_class_mapping():
    assert pos_class("NN") == "noun"
    assert pos_class("VBD") == "verb"
    assert pos_class("JJ") == "adj"
    assert pos_class("ADJ") == "adj"
    assert pos_class("RB") == "adv"
    assert pos_class("CC") == "other"
    assert pos_class("") == "other"


def test_sentiment_load_skips_comments():
    lex = SentimentLexicon.load(
        DATA / "sentiment_positive.txt", DATA / "sentiment_negative.txt"
    )
    assert "up" in lex.positive
    assert "down" in lex.negative
    assert "#" not in "".join(lex.positive)


def test_sentiment_overlap_rejected_at_load(tmp_path):
    pos = tmp_path / "pos.txt"
    neg = tmp_path / "neg.txt"
    pos.write_text("fine\nshared\n")
    neg.write_text("shared\n")
    with pytest.raises(ResourceError, match="shared"):
        SentimentLexicon.load(pos, neg)
