import errno
import os
import stat
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_readers
from conftest import TESTS_DATA, make_sentence, random_tree_sentence
from conjparse import treebank
from conjparse.treebank import (
    MISSING,
    ConllError,
    ConllParseError,
    LabelInventory,
    OutputError,
    OutputFile,
    Sentence,
    Token,
    TreeStructureError,
    is_projective,
    read_conll,
    validate_tree,
    write_conll,
)

THREE_TOKENS = (
    "1\tHe\t_\tPRP\tPRP\t_\t2\tnsubj\t_\t_\n"
    "2\teats\t_\tVBZ\tVBZ\t_\t0\troot\t_\t_\n"
    "3\tapples\t_\tNNS\tNNS\t_\t2\tdobj\t_\t_\n\n"
)


def test_read_minimal_tree():
    sents = read_conll(THREE_TOKENS.encode())
    assert len(sents) == 1
    sent = sents[0]
    assert [t.form for t in sent] == ["He", "eats", "apples"]
    assert [t.gold_head for t in sent] == [2, 0, 2]
    assert sent.token(2).gold_label == "root"


def test_read_head_beyond_length():
    bad = THREE_TOKENS.replace("2\tdobj", "9\tdobj")
    with pytest.raises(TreeStructureError):
        read_conll(bad.encode())


def test_read_rejects_cycle():
    text = (
        "1\ta\t_\tX\tX\t_\t2\tdep\t_\t_\n"
        "2\tb\t_\tX\tX\t_\t1\tdep\t_\t_\n"
        "3\tc\t_\tX\tX\t_\t0\troot\t_\t_\n\n"
    )
    with pytest.raises(TreeStructureError, match="cycle"):
        read_conll(text.encode())


def test_read_rejects_multiple_root_children():
    text = (
        "1\ta\t_\tX\tX\t_\t0\troot\t_\t_\n"
        "2\tb\t_\tX\tX\t_\t0\troot\t_\t_\n\n"
    )
    with pytest.raises(TreeStructureError, match="root"):
        read_conll(text.encode())


def test_read_rejects_self_head():
    text = "1\ta\t_\tX\tX\t_\t1\tdep\t_\t_\n\n"
    with pytest.raises(TreeStructureError, match="own head"):
        read_conll(text.encode())


def test_read_bad_column_count_names_line():
    text = THREE_TOKENS.replace("2\teats\t_\tVBZ\tVBZ\t_\t0\troot\t_\t_", "2\teats")
    with pytest.raises(ConllParseError, match="line 2"):
        read_conll(text.encode())


def test_read_bad_head_integer():
    text = THREE_TOKENS.replace("\t2\tnsubj", "\tx\tnsubj")
    with pytest.raises(ConllParseError, match="head"):
        read_conll(text.encode())


def test_sample23_counts_match_line_oracle():
    raw = (TESTS_DATA / "sample23.conllx").read_text(encoding="utf-8")
    blocks = [b for b in raw.split("\n\n") if b.strip()]
    expected = [
        sum(1 for line in block.split("\n") if line and not line.startswith("#"))
        for block in blocks
    ]
    sents = read_conll(TESTS_DATA / "sample23.conllx")
    assert len(sents) == 23
    assert [len(s) for s in sents] == expected


def test_empty_bytes_are_no_sentences():
    assert read_conll(b"") == []


def test_path_forms_and_bytes_read_alike():
    path = TESTS_DATA / "sample23.conllx"
    expected = read_conll(path)
    assert read_conll(str(path)) == expected
    assert read_conll(path.read_bytes()) == expected


def test_non_utf8_bytes_name_their_line():
    data = THREE_TOKENS.encode() + b"1\t\xff\t_\tX\tX\t_\t0\troot\t_\t_\n"
    with pytest.raises(ConllError, match="^line 5: not valid UTF-8$"):
        read_conll(data)


def test_read_single_line_without_trailing_newline():
    sents = read_conll(b"1\tw\t_\tX\tX\t_\t0\troot\t_\t_")
    assert len(sents) == 1 and sents[0].token(1).form == "w"


def test_crlf_and_comments_accepted():
    text = "# comment\r\n" + THREE_TOKENS.replace("\n", "\r\n")
    sents = read_conll(text.encode())
    assert len(sents) == 1 and len(sents[0]) == 3


def test_conllu_skips_ranges_and_empty_nodes():
    sents = read_conll(TESTS_DATA / "tiny.conllu", fmt="conllu")
    assert [len(s) for s in sents] == [3, 3]
    assert [t.form for t in sents[1]] == ["wo", "n't", "stop"]
    # XPOS wins when present, UPOS is the fallback
    assert sents[1].token(1).pos == "MD"
    assert sents[1].token(3).pos == "VERB"
    assert sents[0].token(1).lemma == "he"


def test_conllu_wrong_column_count():
    text = "1\tHe\the\tPRON\tPRP\t_\t0\troot\t_\n\n"  # 9 columns
    with pytest.raises(ConllParseError):
        read_conll(text.encode(), fmt="conllu")


def test_roundtrip_sample_file(sample_sentences):
    payload = write_conll(sample_sentences)
    again = read_conll(payload)
    assert again == sample_sentences
    assert write_conll(again) == payload


def test_roundtrip_lemma_and_missing_fields():
    sent = make_sentence([0], labels=["root"], forms=["word"], pos=["NN"])
    sent = Sentence((sent.tokens[0].__class__(
        id=1, form="word", pos="NN", gold_head=0, gold_label="root", lemma="lemma"),))
    data = write_conll([sent])
    back = read_conll(data)
    assert back[0].token(1).lemma == "lemma"


def test_write_empty_corpus():
    assert write_conll([]) == b""


def test_write_predictions():
    sents = read_conll(THREE_TOKENS.encode())
    predicted = sents[0].with_predictions([2, 0, 2], ["nsubj", "root", "dobj"])
    out = write_conll([predicted], use_predicted=True)
    assert out == write_conll(sents)


def test_write_missing_prediction_error():
    sents = read_conll(THREE_TOKENS.encode())
    with pytest.raises(ValueError, match="token 1"):
        write_conll(sents, use_predicted=True)


def test_a_conll_write_that_fails_leaves_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "out.conllx"
    path.write_text(THREE_TOKENS)

    def refuse(source, target):
        raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), source)

    monkeypatch.setattr(treebank.os, "replace", refuse)
    sentences = read_conll(THREE_TOKENS.encode())
    with pytest.raises(OutputError) as caught:
        with OutputFile(path) as output:
            output.write(write_conll(sentences + sentences))
    assert str(caught.value) == f"[Errno 18] Invalid cross-device link: {str(path)!r}"
    assert path.read_text() == THREE_TOKENS
    assert os.listdir(tmp_path) == ["out.conllx"]


def test_a_conll_write_to_a_pipe_writes_into_it(tmp_path):
    # A target that is not a regular file is written, never replaced.
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()),
                              daemon=True)
    reader.start()
    sentences = read_conll(THREE_TOKENS.encode())
    with OutputFile(pipe) as output:
        output.write(write_conll(sentences))
    reader.join(timeout=10)
    assert received == [write_conll(sentences)]
    assert stat.S_ISFIFO(os.lstat(pipe).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]


def test_an_output_file_is_new_until_the_block_ends(tmp_path):
    path = tmp_path / "out.conllx"
    path.write_text(THREE_TOKENS)
    with OutputFile(path) as output:
        output.write(b"new")
        (temporary,) = set(os.listdir(tmp_path)) - {"out.conllx"}
        assert temporary.startswith(f"out.conllx.{os.getpid()}.")
        assert temporary.endswith(".tmp")
        assert path.read_text() == THREE_TOKENS
    assert path.read_bytes() == b"new"
    assert os.listdir(tmp_path) == ["out.conllx"]


@pytest.mark.parametrize("failure", [
    FileNotFoundError(errno.ENOENT, "No such file or directory", "train.conllx"),
    ValueError("epoch 1: training loss is nan"),
    KeyboardInterrupt(),
], ids=["missing input", "bad value", "ctrl-c"])
def test_an_output_block_that_raises_keeps_its_error_and_the_previous_file(
        tmp_path, failure):
    path = tmp_path / "out.conllx"
    path.write_text(THREE_TOKENS)
    with pytest.raises(type(failure)) as caught:
        with OutputFile(path) as output:
            output.write(b"part")
            raise failure
    assert caught.value is failure
    assert path.read_text() == THREE_TOKENS
    assert os.listdir(tmp_path) == ["out.conllx"]


def test_an_output_file_that_cannot_be_opened_names_its_path(tmp_path):
    path = tmp_path / "missing" / "out.conllx"
    entered = []
    with pytest.raises(OutputError) as caught:
        with OutputFile(path):
            entered.append(True)
    assert str(caught.value) == (
        f"[Errno 2] No such file or directory: {str(path)!r}")
    assert entered == []
    assert os.listdir(tmp_path) == []


def test_projective_examples():
    assert is_projective(make_sentence([2, 0, 2]))
    assert is_projective(make_sentence([0]))
    # arcs (3,1) and (4,2) cross
    assert not is_projective(make_sentence([3, 4, 0, 3]))


def _crossing_oracle(sentence) -> bool:
    """Brute force: test every pair of arcs for strict interleaving."""
    arcs = [tuple(sorted((t.gold_head, t.id))) for t in sentence]
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            (a, b), (c, d) = arcs[i], arcs[j]
            if a < c < b < d or c < a < d < b:
                return True
    return False


def test_projectivity_matches_bruteforce_on_random_trees():
    rng = np.random.default_rng(7)
    seen_nonprojective = 0
    for _ in range(1000):
        sent = random_tree_sentence(rng, int(rng.integers(1, 11)))
        validate = is_projective(sent)
        assert validate == (not _crossing_oracle(sent))
        seen_nonprojective += not validate
    assert seen_nonprojective > 50  # the sample actually exercises both sides


def test_label_inventory():
    sents = read_conll(THREE_TOKENS.encode())
    inventory = LabelInventory.from_sentences(sents)
    assert inventory.labels == ("dobj", "nsubj", "root")
    with pytest.raises(ValueError):
        LabelInventory(("a", "a"))


_form = st.text(
    alphabet=st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
    min_size=1, max_size=8,
).filter(lambda s: s.strip() != "" and not s.startswith("#"))


@settings(max_examples=60, deadline=None)
@given(forms=st.lists(_form, min_size=3, max_size=3),
       labels=st.lists(_form, min_size=3, max_size=3))
def test_roundtrip_arbitrary_forms(forms, labels):
    sent = make_sentence([2, 0, 2], labels=labels, forms=forms,
                         pos=["N", "V", "N"])
    back = read_conll(write_conll([sent]))
    assert back == [sent]


def test_every_accepted_sentence_is_single_rooted(sample_sentences):
    for index, sent in enumerate(sample_sentences):
        validate_tree(sent, index)  # read_conll already enforced this
        assert sum(t.gold_head == 0 for t in sent) == 1


def test_token_is_an_immutable_named_tuple():
    tok = Token(3, "w", "NN", 0, "root")
    assert tok == (3, "w", "NN", 0, "root", None, None, None)
    assert tok == Token(id=3, form="w", pos="NN", gold_head=0, gold_label="root")
    assert tok._fields == ("id", "form", "pos", "gold_head", "gold_label",
                           "lemma", "pred_head", "pred_label")
    with pytest.raises(AttributeError):
        tok.form = "v"


def test_cycle_names_the_first_node_the_walks_revisit():
    # Token 1 leads into the cycle 3 -> 4 -> 3 without being on it.
    text = "".join(f"{i}\tw\t_\tX\tX\t_\t{h}\tdep\t_\t_\n"
                   for i, h in enumerate([3, 0, 4, 3], start=1))
    with pytest.raises(TreeStructureError, match="^sentence 0: cycle through token 3$"):
        read_conll(text.encode())


# Differential tests against the per-line reader in ``reference_readers``:
# the same records from valid treebanks, the same error from faulty ones.

_column = st.text(
    alphabet=st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
    min_size=1, max_size=5,
)
_optional = st.one_of(st.just(MISSING), _column)
_DIFFERENTIAL = settings(max_examples=150, deadline=None, derandomize=True,
                         suppress_health_check=[HealthCheck.too_slow])


@st.composite
def _treebank_rows(draw, min_tokens=1, max_sentences=4):
    """(format, sentences as rows of columns): valid single-rooted trees."""
    fmt = draw(st.sampled_from(["conllx", "conllu"]))
    sentences = []
    for _ in range(draw(st.integers(1, max_sentences))):
        n = draw(st.integers(min_tokens, 7))
        order = draw(st.permutations(range(1, n + 1)))
        heads = [0] * (n + 1)
        for placed, node in enumerate(order[1:], start=1):
            heads[node] = order[draw(st.integers(0, placed - 1))]
        width = 10 if fmt == "conllu" else draw(st.integers(8, 10))
        sentences.append([
            [str(i), draw(_column), draw(_optional), draw(_column), draw(_optional),
             MISSING, str(heads[i]), draw(_column), MISSING, MISSING][:width]
            for i in range(1, n + 1)])
    return fmt, sentences


def _render(draw, fmt, sentences) -> bytes:
    """CoNLL bytes with comments, CRLF, blank-ish separators and, in
    CoNLL-U, multiword ranges and empty nodes."""
    lines = []
    for rows in sentences:
        if draw(st.booleans()):
            lines.append("# " + draw(_column))
        for row in rows:
            if fmt == "conllu" and draw(st.integers(0, 4)) == 0:
                first = int(row[0]) if row[0].isdigit() else 1
                extra = draw(st.sampled_from([f"{first}-{first + 1}", f"{first}.1"]))
                lines.append("\t".join([extra] + [MISSING] * 9))
            lines.append("\t".join(row))
        lines.extend([draw(st.sampled_from(["", " ", "\t"]))] * draw(st.integers(1, 2)))
    if draw(st.booleans()):
        lines.pop()  # no newline after the last sentence
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines).encode()


def _outcome(read, data: bytes, fmt: str, require_tree: bool):
    try:
        return read(data, fmt=fmt, require_tree=require_tree)
    except ConllError as exc:
        return type(exc), str(exc)


@_DIFFERENTIAL
@given(st.data())
def test_valid_treebanks_read_as_the_reference_reads_them(data):
    fmt, sentences = data.draw(_treebank_rows())
    payload = _render(data.draw, fmt, sentences)
    got = read_conll(payload, fmt=fmt)
    assert got == reference_readers.read_conll(payload, fmt=fmt)
    assert all(type(tok) is Token for sent in got for tok in sent)
    assert sum(map(len, got)) == sum(map(len, sentences))


def _mutate(draw, fmt, sentences) -> None:
    """Put one fault into one token row of ``sentences``."""
    rows = sentences[draw(st.integers(0, len(sentences) - 1))]
    n = len(rows)
    row = rows[draw(st.integers(0, n - 1))]
    heads = [int(r[6]) if len(r) > 7 and r[6].lstrip("-").isdigit() else None
             for r in rows]
    kind = draw(st.sampled_from([
        "cycle", "self", "two_roots", "no_root", "negative", "beyond",
        "renumber", "form", "head", "id", "columns"]))
    if len(row) < 8:  # cut short by an earlier fault
        return
    if kind == "columns":
        width = draw(st.sampled_from([1, 5, 7, 11, 12] + ([8, 9] if fmt == "conllu" else [])))
        row[:] = (row + [MISSING] * 12)[:width]
    elif kind == "id":
        row[0] = draw(st.sampled_from(["x", "", "1a", "2-3", "4.1", "1.5e0"]))
    elif kind == "head":
        row[6] = draw(st.sampled_from(["x", "", MISSING, "1.0", "-"]))
    elif kind == "form":
        row[1] = ""
    elif kind == "renumber":
        row[0] = str(draw(st.sampled_from([0, n + 1, n + 5, -1])))
    elif kind == "beyond":
        row[6] = str(n + draw(st.integers(1, 3)))
    elif kind == "self":
        row[6] = row[0]
    elif kind == "negative":
        row[6] = str(-draw(st.integers(1, 3)))
    elif kind == "no_root" and 0 in heads and n > 1:
        root_child = heads.index(0)
        rows[root_child][6] = str(draw(st.sampled_from(
            [i for i in range(1, n + 1) if i != root_child + 1])))
    elif kind == "two_roots":
        row[6] = "0"
    elif kind == "cycle":
        dependents = [i for i in range(n) if heads[i] not in (0, None)]
        if len(dependents) >= 2:
            a, b = draw(st.lists(st.sampled_from(dependents), min_size=2, max_size=2,
                                 unique=True))
            rows[a][6], rows[b][6] = str(b + 1), str(a + 1)


# One sentence gathers several faults, whose order of precedence then shows.
@pytest.mark.parametrize("max_sentences", [1, 4])
@_DIFFERENTIAL
@given(data=st.data())
def test_faulty_treebanks_fail_as_the_reference_fails(max_sentences, data):
    fmt, sentences = data.draw(_treebank_rows(min_tokens=3, max_sentences=max_sentences))
    for _ in range(data.draw(st.integers(1, 4))):
        _mutate(data.draw, fmt, sentences)
    payload = _render(data.draw, fmt, sentences)
    require_tree = data.draw(st.sampled_from([True, False]))
    assert (_outcome(read_conll, payload, fmt, require_tree)
            == _outcome(reference_readers.read_conll, payload, fmt, require_tree))


@_DIFFERENTIAL
@given(st.data())
def test_validate_tree_fails_as_the_reference_fails(data):
    n = data.draw(st.integers(0, 8))
    heads = data.draw(st.lists(st.integers(-2, n + 2), min_size=n, max_size=n))
    sent = make_sentence(heads)
    outcomes = []
    for validate in (validate_tree, reference_readers.validate_tree):
        try:
            validate(sent, 5)
            outcomes.append(None)
        except TreeStructureError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


@_DIFFERENTIAL
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40))
def test_projectivity_is_the_references_on_random_trees(seed, n):
    sent = random_tree_sentence(np.random.default_rng(seed), n)
    assert is_projective(sent) == reference_readers.is_projective(sent)
