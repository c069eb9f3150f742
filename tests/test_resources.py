import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_readers
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


def test_embedding_word2vec_text_with_trailing_spaces(tmp_path):
    # word2vec writes a space after each vector.
    path = tmp_path / "vec.txt"
    path.write_text("2 3\nthe 0.1 0.2 0.3 \ncat 0.4 0.5 0.6 \n")
    table = EmbeddingTable.load(path)
    assert table.dim == 3 and len(table) == 2
    np.testing.assert_array_equal(table.lookup("cat"), [0.4, 0.5, 0.6])


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


# Differential tests against the per-line loader in ``reference_readers``:
# bit-equal vectors and norms from valid files, the first faulty line's
# error from faulty ones.

_WORDS = ["the", "The", "cat", "x1", "\u00e9t\u00e9", "#c"]
_VALUE = st.one_of(
    st.floats(-1e100, 1e100).map(repr),
    st.sampled_from(["0", "-0.0", "1e-3", "+2.5", "1_0", ".5", "7"]),
)
_TAIL = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def _vector_lines(draw):
    """The vector lines of a valid embedding file, as lists of fields."""
    dim = draw(st.integers(1, 4))
    return [[draw(st.sampled_from(_WORDS))] + draw(st.lists(_VALUE, min_size=dim, max_size=dim))
            for _ in range(draw(st.integers(1, 6)))]


def _embedding_bytes(draw, lines) -> bytes:
    """The file of ``lines``, with an optional "count dim" header, blank
    lines, trailing whitespace and LF or CRLF endings."""
    out = []
    if draw(st.booleans()):
        out.append(f"{len(lines)} {len(lines[0]) - 1}\n".encode())
    for fields in lines:
        if out and draw(st.integers(0, 5)) == 0:
            out.append(b"\n")  # a blank line
        line = fields if isinstance(fields, bytes) else " ".join(fields).encode()
        out.append(line + draw(_TAIL).encode() + draw(st.sampled_from([b"\n", b"\r\n"])))
    return b"".join(out)


def _load_outcome(path):
    """The table as (dim, [(word, vector bytes, norm bytes)]), or the error."""
    try:
        table = EmbeddingTable.load(path)
    except ResourceError as exc:
        return str(exc)
    return table.dim, [(word, table.lookup(word).tobytes(), struct.pack("<d", table.norm_of(word)))
                       for word in table.words()]


def _reference_outcome(path):
    try:
        vectors, dim, norms = reference_readers.load_embeddings(path)
    except ResourceError as exc:
        return str(exc)
    return dim, [(word, vectors[word].tobytes(), struct.pack("<d", norms[word]))
                 for word in vectors]


_DIFFERENTIAL = settings(max_examples=150, deadline=None, derandomize=True,
                         suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def vec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("embeddings") / "vec.txt"


@_DIFFERENTIAL
@given(data=st.data())
def test_valid_embedding_files_load_as_the_reference_loads_them(vec_path, data):
    vec_path.write_bytes(_embedding_bytes(data.draw, data.draw(_vector_lines())))
    expected = _reference_outcome(vec_path)
    assert not isinstance(expected, str)
    assert _load_outcome(vec_path) == expected


def _break(draw, fields, first: bool):
    """A faulty line in place of the vector line ``fields``; the first
    vector line sets the dimension, so it faults with no values."""
    word, values = fields[0], fields[1:]
    kind = draw(st.sampled_from(
        ["non_finite", "overflow", "non_numeric", "count", "utf8"]))
    at = draw(st.integers(0, len(values) - 1))
    if kind == "non_finite":
        values[at] = draw(st.sampled_from(["nan", "inf", "-Infinity", "NaN"]))
    elif kind == "overflow":
        values[at] = draw(st.sampled_from(["1e200", "-1.5e300"]))
    elif kind == "non_numeric":
        values[at] = draw(st.sampled_from(["abc", "1.2.3", "0x1", "1,5"]))
    elif kind == "count":
        values = [] if first else values[:at] if draw(st.booleans()) else values + ["1.0"]
    else:
        return word.encode() + b" \xff\xfe"
    return [word] + values


@_DIFFERENTIAL
@given(data=st.data())
def test_faulty_embedding_files_fail_as_the_reference_fails(vec_path, data):
    lines = data.draw(_vector_lines())
    for at in data.draw(st.sets(st.integers(0, len(lines) - 1), min_size=1, max_size=3)):
        lines[at] = _break(data.draw, lines[at], at == 0)
    vec_path.write_bytes(_embedding_bytes(data.draw, lines))
    expected = _reference_outcome(vec_path)
    assert isinstance(expected, str)
    assert _load_outcome(vec_path) == expected
