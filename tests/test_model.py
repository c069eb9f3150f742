import errno
import functools
import hashlib
import io
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    DATA,
    conj_w1,
    discard_gradient,
    drop_model_array,
    gradient_buffer,
    join_model_file,
    make_sentence,
    split_model_file,
    state_at,
    tiny_model,
)
from conjparse import model as model_module
from conjparse import network
from conjparse.model import (
    Hyperparams,
    Model,
    ModelIOError,
    Vocabulary,
    check_hyperparams,
)
from conjparse.resources import EmbeddingTable, FeatureResources
from conjparse.training import jitter_params, oracle_path, sentence_loss
from conjparse.treebank import LabelInventory


@pytest.fixture()
def sentences():
    return [
        make_sentence([2, 0, 2], labels=["nsubj", "root", "dobj"],
                      forms=["he", "eats", "apples"], pos=["PRP", "VBZ", "NNS"]),
        make_sentence([0], labels=["root"], forms=["go"], pos=["VB"]),
    ]


def test_vocabulary_reserved_entries(sentences):
    vocab = Vocabulary.from_corpus(sentences)
    assert vocab.forms[:2] == ["<unk>", "<root>"]
    assert vocab.word_id("eats") > 1
    assert vocab.word_id("never-seen") == Vocabulary.UNK
    assert vocab.count("eats") == 1
    # A treebank form may repeat a reserved name.
    repeated = make_sentence([0], labels=["root"], forms=["<unk>"], pos=["NN"])
    assert Vocabulary.from_corpus([repeated]).forms == ["<unk>", "<root>", "<unk>"]


@pytest.mark.parametrize("forms, pos_tags, message", [
    (["<unk>"], ["<unk>", "<root>"], "forms"),
    (["<unk>", "<root>"], ["<root>", "<unk>", "NN"], "POS tags"),
])
def test_vocabulary_refuses_inventories_without_the_reserved_entries(
        forms, pos_tags, message):
    with pytest.raises(ValueError, match=f"^vocabulary {message} must start "
                                         "with <unk>, <root>$"):
        Vocabulary(forms, pos_tags, {})


def test_encode_shapes_and_determinism(sentences):
    model = tiny_model(sentences)
    enc = model.encode(sentences[0])
    assert enc.nodes[:-1].shape == (4, 2 * model.hp.lstm_dim)
    enc2 = model.encode(sentences[0])
    np.testing.assert_array_equal(enc.nodes[:-1], enc2.nodes[:-1])


def test_encode_backward_mirrors_forward_on_palindromic_input(sentences):
    # Tie the backward parameters to the forward ones and make every input
    # vector identical; the backward half must then be the forward half
    # read in reverse.
    model = tiny_model(sentences, lstm_layers=1)
    for direction_param in ("w_x", "w_h", "b"):
        model.params[f"lstm.0.bwd.{direction_param}"][...] = model.params[
            f"lstm.0.fwd.{direction_param}"
        ]
    model.params["word_emb"][:] = model.params["word_emb"][0]
    model.params["pos_emb"][:] = model.params["pos_emb"][0]
    enc = model.encode(sentences[0])
    hidden = model.hp.lstm_dim
    np.testing.assert_allclose(
        enc.nodes[:-1][:, hidden:], enc.nodes[:-1][::-1, :hidden], atol=1e-14
    )


def test_encode_zero_parameters_zero_vectors(sentences):
    model = tiny_model(sentences)
    for key in model.params:
        model.params[key][...] = 0.0
    enc = model.encode(sentences[0])
    np.testing.assert_array_equal(enc.nodes[:-1], 0.0)


def test_unknown_words_use_unk_row(sentences):
    model = tiny_model(sentences)
    other = make_sentence([0], labels=["root"], forms=["zzz"], pos=["XX"])
    ids = model.word_ids_of(other)
    assert ids[1] == Vocabulary.UNK
    assert model.pos_ids_of(other)[1] == Vocabulary.UNK


def test_feature_slots():
    model_sentences = [make_sentence([0], labels=["root"])]
    model = tiny_model(model_sentences)
    initial = state_at((0,), (1,))
    assert model.feature_slots(initial) == [0, -1, -1, 1]
    terminal = state_at((0,), ())
    assert model.feature_slots(terminal) == [0, -1, -1, -1]
    deep = state_at((0, 1, 2), (3,))
    assert model.feature_slots(deep) == [2, 1, 0, 3]


def test_config_feature_vector_uses_padding(sentences):
    model = tiny_model(sentences)
    model.params["pad_vec"][...] = 7.5
    enc = model.encode(sentences[1])
    features, slots = model.config_feature_vector(state_at((0,), ()), enc)
    width = 2 * model.hp.lstm_dim
    assert slots == [0, -1, -1, -1]
    np.testing.assert_array_equal(features[width:], 7.5)
    np.testing.assert_array_equal(features[:width], enc.nodes[:-1][0])


def test_transition_scores_rejects_bad_length(sentences):
    model = tiny_model(sentences)
    with pytest.raises(ValueError, match="feature vector"):
        model.transition_scores(np.zeros(3))


def test_transition_scores_width(sentences):
    model = tiny_model(sentences)
    scores, _ = model.transition_scores(np.zeros(Model.feature_dim(model.hp)))
    assert scores.shape == (2 * len(model.labels) + 1,)


CONJ_GOLD_W1 = np.array([
    [0.10, -0.20, 0.30, 0.00, 0.20, -0.10, 0.05, 0.15, -0.25, 0.10, 0.12, -0.08, 0.22, -0.18],
    [0.00, 0.10, -0.10, 0.20, -0.30, 0.25, 0.10, -0.05, 0.20, 0.00, -0.15, 0.05, 0.08, 0.30],
    [0.30, 0.00, 0.10, -0.20, 0.10, 0.10, -0.10, 0.20, 0.05, -0.30, 0.18, 0.02, -0.12, 0.07],
])


# (lstm_dim, mlp_dim, conj_mlp_dim): the defaults, ``tiny_model``, the
# acceptance criteria's models and the gradcheck subcommand's.
PROJECTION_DIMS = [(125, 100, 100), (4, 6, 5), (6, 10, 6), (5, 8, 7)]


@pytest.mark.parametrize("lstm_dim, mlp_dim, conj_mlp_dim", PROJECTION_DIMS)
def test_projection_rows_do_not_depend_on_their_batch(sentences, lstm_dim,
                                                      mlp_dim, conj_mlp_dim):
    # ``transition_scores`` projects a feature vector's four slot vectors
    # as four rows and relies on each row rounding as it does among the
    # n + 2 rows of a whole sentence.  This holds on OpenBLAS for any
    # batch of two rows or more; it is a property of the BLAS library.
    model = tiny_model(sentences, lstm_dim=lstm_dim, mlp_dim=mlp_dim,
                       conj_mlp_dim=conj_mlp_dim)
    jitter_params(model, seed=1)
    rng = np.random.default_rng(lstm_dim)
    for n in range(1, 101):
        nodes = rng.normal(size=(n + 2, 2 * lstm_dim))
        whole = model.project(nodes)
        # Every node once, in groups of four, plus random slot patterns.
        groups = np.resize(rng.permutation(n + 2), (-(-(n + 2) // 4), 4))
        groups = np.vstack([groups, rng.integers(-1, n + 2, size=(2, 4))])
        for rows in groups:
            assert np.array_equal(model.project(nodes[rows]), whole[rows]), (n, rows)


@pytest.mark.parametrize("rows", [1, 31, 32, 33, 200, 300])
def test_first_layer_rows_do_not_depend_on_their_batch(sentences, rows):
    # Decoding asks for one row at a time and training for a whole oracle
    # path; each row must be its four slot rows summed left to right,
    # whatever the batch.  The padding slot -1 is the table's last row.
    lstm_dim, mlp_dim, conj_mlp_dim = PROJECTION_DIMS[0]
    model = tiny_model(sentences, lstm_dim=lstm_dim, mlp_dim=mlp_dim,
                       conj_mlp_dim=conj_mlp_dim)
    rng = np.random.default_rng(rows)
    projected = model.project(rng.normal(size=(102, 2 * lstm_dim)))
    slots = rng.integers(-1, len(projected) - 1, size=(rows, 4))
    slots[rng.random(slots.shape) < 0.2] = -1
    batch = model.first_layer(projected, slots)
    assert batch.shape == (rows, mlp_dim + conj_mlp_dim)
    for row, row_slots in enumerate(slots):
        alone = model.first_layer(projected, slots[row:row + 1])[0]
        summed = projected[row_slots[0], :, 0]
        for slot in range(1, 4):
            summed = summed + projected[row_slots[slot], :, slot]
        assert np.array_equal(batch[row], alone), (rows, row)
        assert np.array_equal(batch[row], summed), (rows, row)


def test_conj_score_golden(sentences):
    # Hand-set weights; expected value frozen from a scalar simulation.
    model = tiny_model(sentences, lstm_dim=1, conj_mlp_dim=3)
    for array, columns in model.held_columns("conj.w1", CONJ_GOLD_W1):
        array[...] = columns
    assert np.array_equal(conj_w1(model.params), CONJ_GOLD_W1)
    model.params["conj.b1"] = np.array([0.02, -0.03, 0.04])
    model.params["conj.w2"] = np.array([0.5, -0.4, 0.3])
    model.params["conj.b2"] = np.array([0.1])
    features = np.array([0.2, -0.4, 0.6, -0.8, 0.1, -0.3, 0.5, -0.7])
    conj_inputs = np.array([1.0, 3.0 / 7.0, 0.0, 0.5, 1.0, -1.0])
    score = _conj_score_of(model, features, conj_inputs)
    assert abs(score - 0.37377363586735568) < 1e-15


def _conj_score_of(model, features, conj_inputs):
    """``Model.conj_score`` of one feature vector, through its projection."""
    first = model.first_layer(model.project(features.reshape(4, -1)),
                              np.arange(4)[np.newaxis])
    score, _ = model.conj_score(first, conj_inputs[np.newaxis])
    return score[0]


def test_conj_score_zero_and_bias_only(sentences):
    model = tiny_model(sentences)
    for key in ("conj.w1", "conj.b1", "conj.w2", "conj.b2"):
        model.params[key][...] = 0.0
    features = np.zeros(Model.feature_dim(model.hp))
    score = _conj_score_of(model, features, np.zeros(6))
    assert score == 0.0
    model.params["conj.b2"][0] = 5.0
    score = _conj_score_of(model, features, np.ones(6))
    assert score == 5.0


def test_save_load_roundtrip(tmp_path, sentences):
    model = tiny_model(sentences)
    path = tmp_path / "model.bin"
    model.save(path)
    loaded = Model.load(path)
    assert loaded.params.keys() == model.params.keys()
    for key in model.params:
        np.testing.assert_array_equal(loaded.params[key], model.params[key])
    assert loaded.hp == model.hp
    assert loaded.labels == model.labels
    assert loaded.vocab.forms == model.vocab.forms
    assert loaded.trainable == model.trainable


@pytest.mark.parametrize("failure", [OSError(errno.ENOSPC, "No space left on device"),
                                     RuntimeError("stop")], ids=["disk full", "error"])
def test_a_save_that_fails_part_way_leaves_the_previous_file(tmp_path, sentences,
                                                             monkeypatch, failure):
    path = tmp_path / "model.bin"
    tiny_model(sentences, seed=1).save(path)
    previous = path.read_bytes()
    write = Model._write

    def fail_part_way(self, handle):
        buffer = io.BytesIO()
        write(self, buffer)
        handle.write(buffer.getvalue()[:len(previous) // 2])
        raise failure

    monkeypatch.setattr(Model, "_write", fail_part_way)
    expected = (pytest.raises(ModelIOError, match=f"^cannot write {re.escape(str(path))}: "
                                                  "No space left on device$")
                if isinstance(failure, OSError) else pytest.raises(RuntimeError))
    with expected:
        tiny_model(sentences, seed=2).save(path)
    assert path.read_bytes() == previous
    assert os.listdir(tmp_path) == ["model.bin"]


def test_a_save_through_a_link_replaces_its_target(tmp_path, sentences):
    target, link = tmp_path / "model.bin", tmp_path / "link.bin"
    target.write_bytes(b"old")
    link.symlink_to(target)
    model = tiny_model(sentences)
    model.save(link)
    assert link.is_symlink()
    buffer = io.BytesIO()
    model.save(buffer)
    assert target.read_bytes() == buffer.getvalue()
    assert sorted(os.listdir(tmp_path)) == ["link.bin", "model.bin"]


def test_save_load_via_file_objects(sentences):
    model = tiny_model(sentences)
    buffer = io.BytesIO()
    model.save(buffer)
    loaded = Model.load(io.BytesIO(buffer.getvalue()))
    np.testing.assert_array_equal(loaded.params["mlp.w1"], model.params["mlp.w1"])


def test_load_truncated_file(tmp_path, sentences):
    model = tiny_model(sentences)
    path = tmp_path / "model.bin"
    model.save(path)
    payload = path.read_bytes()
    for cut in (4, len(payload) // 2, len(payload) - 3):
        with pytest.raises(ModelIOError):
            Model.load(io.BytesIO(payload[:cut]))


def test_load_rejects_bad_magic(sentences):
    with pytest.raises(ModelIOError, match="magic"):
        Model.load(io.BytesIO(b"not a model file at all"))


def test_load_rejects_non_finite_parameters(sentences):
    model = tiny_model(sentences)
    model.params["mlp.w1"][0, 0] = np.nan
    buffer = io.BytesIO()
    model.save(buffer)
    with pytest.raises(ModelIOError, match="non-finite.*mlp.w1"):
        Model.load(io.BytesIO(buffer.getvalue()))


def test_load_rejects_trailing_bytes(tmp_path, sentences):
    model = tiny_model(sentences)
    buffer = io.BytesIO()
    model.save(buffer)
    with pytest.raises(ModelIOError, match="trailing"):
        Model.load(io.BytesIO(buffer.getvalue() + b"xx"))


@functools.lru_cache(maxsize=None)
def _saved_tiny_model() -> bytes:
    sentences = [make_sentence([2, 0, 2], labels=["nsubj", "root", "dobj"]),
                 make_sentence([0], labels=["root"])]
    buffer = io.BytesIO()
    tiny_model(sentences).save(buffer)
    return buffer.getvalue()


def test_a_model_needs_a_label():
    # Without a label there is no arc transition, so no parse could end.
    sentences = [make_sentence([0], labels=["root"])]
    with pytest.raises(ValueError, match="^a model needs at least one "
                                         "dependency label$"):
        Model.build(Hyperparams(), Vocabulary.from_corpus(sentences),
                    LabelInventory(()))


@pytest.mark.parametrize("key", ["arrays", "hyperparams", "labels", "vocab",
                                 "trainable", "pretrained_words"])
def test_load_rejects_missing_metadata_key(key):
    meta, arrays = split_model_file(_saved_tiny_model())
    del meta[key]
    with pytest.raises(ModelIOError, match=f"missing key '{key}'"):
        Model.load(io.BytesIO(join_model_file(meta, arrays)))


@pytest.mark.parametrize("edit, message", [
    (lambda hp: hp.update(attention=True), "unknown hyperparameter 'attention'"),
    (lambda hp: hp.pop("lstm_dim"), "missing hyperparameter 'lstm_dim'"),
    (lambda hp: hp.update(lstm_dim="4"), "'lstm_dim' must be int"),
    (lambda hp: hp.update(lstm_layers=0), "'lstm_layers' must be at least 1"),
])
def test_load_rejects_bad_hyperparameters(edit, message):
    meta, arrays = split_model_file(_saved_tiny_model())
    edit(meta["hyperparams"])
    with pytest.raises(ModelIOError, match=message):
        Model.load(io.BytesIO(join_model_file(meta, arrays)))


def test_load_checks_the_hyperparameters_once(monkeypatch):
    payload = _saved_tiny_model()
    calls = []
    check = model_module.check_hyperparams
    monkeypatch.setattr(model_module, "check_hyperparams",
                        lambda values: calls.append(values) or check(values))
    Model.load(io.BytesIO(payload))
    assert len(calls) == 1


@pytest.mark.parametrize("edit, message", [
    (lambda meta: meta["hyperparams"].update(lstm_dim=5),
     r"array 'lstm.0.fwd.w_x' has shape \[16, 8\], the header implies \[20, 8\]"),
    (lambda meta: meta.update(pretrained_words=["w1"]), "array 'pre_emb' is missing"),
    (lambda meta: meta["vocab"]["forms"].append("extra"),
     r"array 'word_emb' has shape \[\d+, 5\]"),
    (lambda meta: meta["labels"].append("extra"), "array 'mlp.w2' has shape"),
    (lambda meta: meta["hyperparams"].update(lstm_layers=1),
     "unexpected array 'lstm.1.bwd.b'"),
])
def test_load_rejects_arrays_that_contradict_the_header(edit, message):
    meta, arrays = split_model_file(_saved_tiny_model())
    edit(meta)
    with pytest.raises(ModelIOError, match=message):
        Model.load(io.BytesIO(join_model_file(meta, arrays)))


def test_load_rejects_a_pretrained_dim_without_words(sentences):
    frozen, _ = _pretrained_models(sentences)
    buffer = io.BytesIO()
    frozen.save(buffer)
    meta, arrays = split_model_file(buffer.getvalue())
    arrays = drop_model_array(meta, arrays, "pre_emb")
    meta["pretrained_words"] = None
    with pytest.raises(ModelIOError, match="^corrupt model metadata: "
                       "'pretrained_dim' 2 without 'pretrained_words'$"):
        Model.load(io.BytesIO(join_model_file(meta, arrays)))


def test_load_rejects_pretrained_words_without_a_dim():
    meta, arrays = split_model_file(_saved_tiny_model())
    meta["pretrained_words"] = ["w1"]
    meta["arrays"].append({"name": "pre_emb", "dtype": "float64", "shape": [3, 0]})
    with pytest.raises(ModelIOError, match="^corrupt model metadata: "
                       "'pretrained_words' with 'pretrained_dim' 0$"):
        Model.load(io.BytesIO(join_model_file(meta, arrays)))


def _key_paths(node, prefix=()):
    """Path to every key of every JSON object nested in ``node``."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from _key_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _key_paths(value, prefix + (index,))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_header_mutation_loads_or_raises_model_io_error(data):
    meta, arrays = split_model_file(_saved_tiny_model())
    path = data.draw(st.sampled_from(sorted(_key_paths(meta), key=repr)))
    parent = meta
    for step in path[:-1]:
        parent = parent[step]
    key = path[-1]
    action = data.draw(st.sampled_from(["drop", "add", "retype"]))
    if action == "drop":
        del parent[key]
    elif action == "add":
        new_key = data.draw(st.text(min_size=1, max_size=8).filter(
            lambda k: k not in parent))
        parent[new_key] = data.draw(_JSON)
    else:
        old_type = type(parent[key])
        parent[key] = data.draw(_JSON.filter(lambda v: type(v) is not old_type))
    try:
        Model.load(io.BytesIO(join_model_file(meta, arrays)))
    except ModelIOError:
        pass


def test_check_hyperparams_names_the_bad_key():
    assert check_hyperparams({"margin": 2, "lstm_dim": 8}) == {
        "margin": 2.0, "lstm_dim": 8}
    for bad, key in (({"lstm_dim": "8"}, "lstm_dim"),
                     ({"use_conj_features": 1}, "use_conj_features"),
                     ({"batch_size": True}, "batch_size"),
                     ({"learning_rate": float("inf")}, "learning_rate"),
                     ({"lstm_size": 8}, "lstm_size"),
                     ({"conj_mlp_dim": 0}, "conj_mlp_dim"),
                     ({"batch_size": 0}, "batch_size"),
                     ({"adam_eps": 0.0}, "adam_eps"),
                     ({"beta1": -0.1}, "beta1"),
                     ({"margin": -1.0}, "margin"),
                     ({"margin": 0}, "margin")):
        with pytest.raises(ValueError, match=f"'{key}'"):
            check_hyperparams(bad)


@pytest.mark.parametrize("key, value", [("mlp_dim", 0), ("lstm_layers", 0),
                                        ("margin", -1.0),
                                        ("word_dropout_alpha", -1.0)])
def test_hyperparams_are_checked_when_built(key, value):
    # Model.load would refuse them, so no model may be built with them.
    with pytest.raises(ValueError, match=f"'{key}'"):
        Hyperparams(**{key: value})


def test_an_int_margin_re_saves_byte_identically(sentences):
    model = tiny_model(sentences, margin=2)
    assert type(model.hp.margin) is float
    first = io.BytesIO()
    model.save(first)
    second = io.BytesIO()
    Model.load(io.BytesIO(first.getvalue())).save(second)
    assert second.getvalue() == first.getvalue()


def test_pretrained_lookup_and_freeze(sentences):
    table = EmbeddingTable(
        {"eats": np.array([1.0, 2.0]), "apples": np.array([3.0, 4.0])}, dim=2
    )
    model = tiny_model(sentences)
    hp = Hyperparams(**{**model.hp.to_dict(), "pretrained_dim": 0})
    vocab = Vocabulary.from_corpus(sentences)
    labels = LabelInventory.from_sentences(sentences)
    frozen = Model.build(hp, vocab, labels, pretrained=table, seed=1)
    assert "pre_emb" not in frozen.trainable
    ids = frozen.pretrained_ids_of(sentences[0])
    # rows: 0 unk, 1 root, then sorted words (apples=2, eats=3)
    assert list(ids) == [1, 0, 3, 2]
    np.testing.assert_array_equal(frozen.params["pre_emb"][0], 0.0)
    # lowercase fallback
    cap = make_sentence([0], labels=["root"], forms=["Eats"], pos=["VBZ"])
    assert frozen.pretrained_ids_of(cap)[1] == 3


def test_build_leaves_the_callers_hyperparams_alone(sentences):
    # Two models built from one Hyperparams with tables of different widths
    # must each keep their own pretrained_dim.
    hp = Hyperparams(word_dim=5, pos_dim=3, lstm_layers=1, lstm_dim=4, mlp_dim=6,
                     conj_mlp_dim=5, word_dropout_alpha=0.0)
    vocab = Vocabulary.from_corpus(sentences)
    labels = LabelInventory.from_sentences(sentences)
    first = Model.build(hp, vocab, labels, seed=1, pretrained=EmbeddingTable(
        {"eats": np.array([1.0, 2.0])}, dim=2))
    second = Model.build(hp, vocab, labels, seed=1, pretrained=EmbeddingTable(
        {"eats": np.arange(4.0)}, dim=4))
    assert (hp.pretrained_dim, first.hp.pretrained_dim,
            second.hp.pretrained_dim) == (0, 2, 4)
    path = oracle_path(sentences[0], first, FeatureResources.empty())
    assert sentence_loss(first, sentences[0], path,
                         hand_over=discard_gradient) > 0.0
    buffer = io.BytesIO()
    first.save(buffer)
    assert Model.load(io.BytesIO(buffer.getvalue())).hp == first.hp


def _pretrained_models(sentences):
    """The same model with a frozen and with a tuned pretrained table."""
    table = EmbeddingTable(
        {"eats": np.array([1.0, 2.0]), "apples": np.array([3.0, 4.0])}, dim=2
    )
    hp = Hyperparams(word_dim=5, pos_dim=3, lstm_layers=2, lstm_dim=4, mlp_dim=6,
                     conj_mlp_dim=5, word_dropout_alpha=0.0)
    vocab = Vocabulary.from_corpus(sentences)
    labels = LabelInventory.from_sentences(sentences)
    frozen = Model.build(hp, vocab, labels, pretrained=table, seed=1)
    hp.tune_pretrained = True
    tuned = Model.build(hp, vocab, labels, pretrained=table, seed=1)
    return frozen, tuned


def test_trainable_arrays_are_views_into_one_vector(sentences):
    model = tiny_model(sentences)
    assert model.vector.size == sum(model.params[k].size for k in model.trainable)
    for key in model.trainable:
        assert np.shares_memory(model.params[key], model.vector), key
    # Each LSTM layer's stacks are its fwd and bwd arrays, in that order.
    for layer, stack in enumerate(model.lstm):
        for kind, array in zip(("w_x", "w_h", "b"), stack):
            for d, direction in enumerate(network.DIRECTIONS):
                name = f"lstm.{layer}.{direction}.{kind}"
                assert np.shares_memory(array[d], model.params[name]), name
                assert np.array_equal(array[d], model.params[name]), name
    # Both first layers are one view, a row per (hidden unit, slot).
    _assert_first_layers_view(model.first_weights, model.params, model.vector)


def _assert_first_layers_view(first_weights, arrays, vector):
    assert first_weights.flags.c_contiguous
    assert np.shares_memory(first_weights, vector)
    for key in ("mlp.w1", "conj.w1"):
        assert np.shares_memory(first_weights, arrays[key]), key
    assert np.array_equal(first_weights.reshape(-1, 4 * first_weights.shape[1]),
                          np.concatenate([arrays["mlp.w1"], arrays["conj.w1"]]))


def test_set_params_writes_into_the_existing_views(sentences):
    model = tiny_model(sentences)
    arrays = dict(model.params)
    before = {key: value.copy() for key, value in model.params.items()}
    encoded = model.encode(sentences[0]).nodes
    snapshot = model.copy_params()
    jitter_params(model, seed=1)
    assert not np.array_equal(model.params["mlp.w1"], before["mlp.w1"])
    model.set_params(snapshot)
    for key, value in model.params.items():
        assert value is arrays[key], key
        assert np.array_equal(value, before[key]), key
    assert np.array_equal(model.encode(sentences[0]).nodes, encoded)


def test_pre_emb_is_in_the_vector_only_when_it_is_tuned(sentences):
    frozen, tuned = _pretrained_models(sentences)
    assert "pre_emb" not in frozen.trainable and "pre_emb" in tuned.trainable
    assert not np.shares_memory(frozen.params["pre_emb"], frozen.vector)
    assert np.shares_memory(tuned.params["pre_emb"], tuned.vector)
    assert tuned.vector.size == frozen.vector.size + frozen.params["pre_emb"].size
    for key in frozen.params:
        assert np.array_equal(frozen.params[key], tuned.params[key]), key


def test_save_then_load_round_trips_the_bytes(sentences):
    for model in (tiny_model(sentences), *_pretrained_models(sentences)):
        first = io.BytesIO()
        model.save(first)
        second = io.BytesIO()
        Model.load(io.BytesIO(first.getvalue())).save(second)
        assert second.getvalue() == first.getvalue()


_GOLDEN_TINY = dict(word_dim=5, pos_dim=3, lstm_layers=2, lstm_dim=4, mlp_dim=6,
                    conj_mlp_dim=5)


@pytest.mark.parametrize("hp, embeddings, seed, built, jittered", [
    (_GOLDEN_TINY, False, 3,
     "793f91599c27f60adfa8d9d9d764f558694af590d3926dc70d4d7be2630b9373",
     "c19e162c6c6a085e4056f6975c33bc43dc1b6027319c51a6c6d4e6b26d2156e0"),
    (dict(_GOLDEN_TINY, tune_pretrained=True), True, 5,
     "00282870af18aed1ef6602dd80a72207de2c8547ce532497bf562ab1a22366ff",
     "2dea0a6bc85caf45d3782021ca39bd60c86c52f5b8204728c03842bd0122b765"),
    ({}, True, 1,
     "cd12466f178a0009dbd4f0208a36b11f0c646546e4dfb731de595b5f4d5c7e02",
     "eca945c357ec5e17e03a55faec70c391396c799d85ec572a7aa3dce98ddc773c"),
], ids=["tiny", "tiny, tuned embeddings", "default sizes, embeddings"])
def test_built_and_jittered_models_save_the_golden_bytes(
        sample_sentences, hp, embeddings, seed, built, jittered):
    # Frozen from models that held ``conj.w1`` as one array: holding its
    # node and pair columns apart changes no draw, no value and no byte.
    sentences = sample_sentences[:50]
    table = EmbeddingTable.load(DATA / "embeddings_sample.txt") if embeddings else None
    model = Model.build(Hyperparams(**hp), Vocabulary.from_corpus(sentences),
                        LabelInventory.from_sentences(sentences),
                        pretrained=table, seed=seed)

    def sha256() -> str:
        buffer = io.BytesIO()
        model.save(buffer)
        return hashlib.sha256(buffer.getvalue()).hexdigest()

    assert sha256() == built
    jitter_params(model, seed=seed + 1)
    assert sha256() == jittered


def test_gradient_buffer_is_allocated_on_first_use_and_reused(sentences):
    model = tiny_model(sentences)
    assert model._gradients is None
    grads = model.gradients()
    buffer = gradient_buffer(grads)
    # The regions in backward order: the MLPs from the padding vector on,
    # the LSTM layers from the top down, then the embedding tables.
    offsets = [offset for _, offset in grads.regions]
    assert offsets == [model._layout[name][0] for name in (
        "pad_vec", "lstm.1.fwd.w_x", "lstm.0.fwd.w_x", "word_emb")]
    sizes = [gradient.size for gradient, _ in grads.regions]
    assert np.array_equal(np.diff(offsets[::-1]), sizes[:0:-1])
    assert sum(sizes) == model.vector.size
    assert buffer.size == max(sizes)
    for gradient, _ in grads.regions:
        assert gradient.ctypes.data == buffer.ctypes.data
    # Each array's gradient lies where the array lies in its region.
    assert sorted(grads) == sorted(model.trainable)
    for key in model.trainable:
        at = (model.params[key].ctypes.data - model.vector.ctypes.data) // 8
        start = max(offset for offset in offsets if offset <= at)
        assert grads[key].ctypes.data == buffer.ctypes.data + 8 * (at - start), key
        assert grads[key].shape == model.params[key].shape, key
    for layer, stack in enumerate(grads.lstm):
        for kind, array in zip(("w_x", "w_h", "b"), stack):
            for d, direction in enumerate(network.DIRECTIONS):
                name = f"lstm.{layer}.{direction}.{kind}"
                assert np.shares_memory(array[d], grads[name]), name
                assert array[d].shape == grads[name].shape, name
    buffer.fill(0.0)  # uninitialised memory may hold NaN
    _assert_first_layers_view(grads.first_weights, grads, buffer)
    # The loss writes every element of every region, whatever the buffer held.
    buffer.fill(np.nan)
    handed = []

    def keep(gradient, offset):
        handed.append(offset)
        assert np.isfinite(gradient).all() and gradient.any(), offset

    path = oracle_path(sentences[0], model, FeatureResources.empty())
    assert sentence_loss(model, sentences[0], path, hand_over=keep) > 0.0
    assert handed == offsets
    written = buffer.copy()
    # Asking again neither allocates nor zeroes.
    assert model.gradients() is grads and gradient_buffer(grads) is buffer
    assert np.array_equal(buffer, written)


def test_load_rejects_a_trainable_list_that_contradicts_the_hyperparameters():
    meta, arrays = split_model_file(_saved_tiny_model())
    meta["trainable"] = meta["trainable"][1:]
    with pytest.raises(ModelIOError, match="'trainable' does not match"):
        Model.load(io.BytesIO(join_model_file(meta, arrays)))


@pytest.mark.parametrize("dim, table, message", [
    (7, None, "^pretrained_dim 7 needs an embedding table$"),
    (3, 2, "^pretrained_dim 3 is not the embedding table's dimension 2$"),
], ids=["no table", "another dimension"])
def test_build_refuses_a_pretrained_dim_that_is_not_the_tables(dim, table, message,
                                                                sentences):
    hp = Hyperparams(word_dim=5, pos_dim=3, lstm_layers=1, lstm_dim=4, mlp_dim=6,
                     conj_mlp_dim=5, pretrained_dim=dim)
    pretrained = None if table is None else EmbeddingTable(
        {"eats": np.arange(float(table))}, dim=table)
    with pytest.raises(ValueError, match=message):
        Model.build(hp, Vocabulary.from_corpus(sentences),
                    LabelInventory.from_sentences(sentences), pretrained=pretrained)


def test_build_takes_the_tables_own_pretrained_dim(sentences):
    table = EmbeddingTable({"eats": np.array([1.0, 2.0])}, dim=2)
    hp = Hyperparams(word_dim=5, pos_dim=3, lstm_layers=1, lstm_dim=4, mlp_dim=6,
                     conj_mlp_dim=5, pretrained_dim=2)
    model = Model.build(hp, Vocabulary.from_corpus(sentences),
                        LabelInventory.from_sentences(sentences), pretrained=table)
    assert model.hp.pretrained_dim == 2
