import numpy as np
import pytest

from conftest import make_sentence, random_projective_sentence, tiny_model
from conjparse.parser import (
    augmented_scores,
    conj_candidate,
    greedy_parse,
    parse_corpus,
    score_config,
)
from conjparse.transitions import (
    ParseConfiguration,
    apply,
    initial_config,
    is_terminal,
    legal_mask,
)
from conjparse.treebank import Sentence, Token, validate_tree


@pytest.fixture()
def conj_sentences():
    return [
        make_sentence([2, 0, 2, 3, 3], labels=["nsubj", "root", "dobj", "cc", "conj"],
                      forms=["she", "buys", "shares", "and", "bonds"],
                      pos=["PRP", "VBZ", "NNS", "CC", "NNS"]),
        make_sentence([0], labels=["root"], forms=["go"], pos=["VB"]),
    ]


def test_empty_sentence_parse(conj_sentences, empty_resources):
    model = tiny_model(conj_sentences)
    empty = Sentence(())
    parsed = greedy_parse(empty, model, empty_resources)
    assert len(parsed) == 0


def test_single_token_parse(conj_sentences, empty_resources):
    model = tiny_model(conj_sentences)
    parsed = greedy_parse(conj_sentences[1], model, empty_resources)
    assert parsed.token(1).pred_head == 0
    assert parsed.token(1).pred_label in model.labels.labels


def test_zeroed_model_takes_first_legal_transition(conj_sentences, empty_resources):
    model = tiny_model(conj_sentences)
    for key in model.params:
        model.params[key][...] = 0.0
    sentence = conj_sentences[0]
    # simulate the documented tie-break: lowest transition index wins
    config = initial_config(len(sentence))
    while not is_terminal(config):
        mask = legal_mask(config, model.codec, single_root=model.hp.single_root)
        index = int(np.flatnonzero(mask)[0])
        config = apply(config, model.codec.decode(index))
    heads = {dep: head for head, dep, _ in config.arcs}
    parsed = greedy_parse(sentence, model, empty_resources)
    assert [parsed.token(i).pred_head for i in range(1, 6)] == [
        heads[i] for i in range(1, 6)
    ]


def test_parse_output_is_always_a_tree(empty_resources):
    rng = np.random.default_rng(21)
    sentences = [random_projective_sentence(rng, int(rng.integers(1, 9)))
                 for _ in range(30)]
    model = tiny_model(sentences, seed=9)
    for sentence in sentences:
        parsed = greedy_parse(sentence, model, empty_resources)
        as_gold = Sentence(tuple(
            Token(id=t.id, form=t.form, pos=t.pos, gold_head=t.pred_head,
                  gold_label=t.pred_label)
            for t in parsed
        ))
        validate_tree(as_gold)  # includes the single-root-child check


def test_parse_takes_exactly_2n_transitions(conj_sentences, empty_resources):
    model = tiny_model(conj_sentences)
    sentence = conj_sentences[0]
    calls = 0
    original = model.transition_scores

    def counting(features):
        nonlocal calls
        calls += 1
        return original(features)

    model.transition_scores = counting
    greedy_parse(sentence, model, empty_resources)
    assert calls == 2 * len(sentence)


def test_conj_candidate():
    assert conj_candidate(ParseConfiguration((0,), (1,))) is None
    assert conj_candidate(ParseConfiguration((0, 2, 5), ())) == (2, 5)


def test_baseline_equivalence_bitwise(conj_sentences, empty_resources):
    """Zeroed coordination MLP leaves every score bit-for-bit unchanged."""
    model = tiny_model(conj_sentences, seed=12)
    for key in ("conj.w1", "conj.b1", "conj.w2", "conj.b2"):
        model.params[key][...] = 0.0
    sentence = conj_sentences[0]
    encoded = model.encode(sentence)
    config = initial_config(len(sentence))
    while not is_terminal(config):
        augmented = augmented_scores(model, config, encoded, sentence,
                                     empty_resources)
        features, _ = model.config_feature_vector(config, encoded)
        base, _ = model.transition_scores(features)
        assert np.array_equal(augmented, base)
        mask = legal_mask(config, model.codec, single_root=True)
        index = int(np.argmax(np.where(mask, augmented, -np.inf)))
        config = apply(config, model.codec.decode(index))


def test_disabled_features_equal_zeroed_features(conj_sentences, empty_resources):
    rng = np.random.default_rng(3)
    sentences = [random_projective_sentence(rng, int(rng.integers(2, 8)))
                 for _ in range(20)]
    zeroed = tiny_model(sentences, seed=5)
    for key in ("conj.w1", "conj.b1", "conj.w2", "conj.b2"):
        zeroed.params[key][...] = 0.0
    disabled = tiny_model(sentences, seed=5)
    disabled.hp.use_conj_features = False
    for sentence in sentences:
        a = greedy_parse(sentence, zeroed, empty_resources)
        b = greedy_parse(sentence, disabled, empty_resources)
        assert [t.pred_head for t in a] == [t.pred_head for t in b]
        assert [t.pred_label for t in a] == [t.pred_label for t in b]


def test_large_conj_bias_forces_right_conj(conj_sentences, empty_resources):
    model = tiny_model(conj_sentences, seed=2)
    for key in model.trainable:
        model.params[key][...] = 0.0
    model.params["conj.b2"][0] = 10.0
    sentence = conj_sentences[0]
    encoded = model.encode(sentence)
    config = ParseConfiguration(stack=(0, 3, 5), buffer=())
    scores = score_config(model, config, encoded, sentence, empty_resources)
    mask = legal_mask(config, model.codec)
    winner = int(np.argmax(np.where(mask, scores, -np.inf)))
    assert model.codec.decode(winner).kind == "right"
    assert model.codec.decode(winner).label == "conj"
    assert scores[model.codec.right_index("conj")] == 10.0


def test_no_conj_score_when_stack_shallow(conj_sentences, empty_resources):
    model = tiny_model(conj_sentences, seed=2)
    model.params["conj.b2"][0] = 99.0
    sentence = conj_sentences[0]
    encoded = model.encode(sentence)
    config = initial_config(len(sentence))  # stack depth 1: no right arcs
    scores = score_config(model, config, encoded, sentence, empty_resources)
    features, _ = model.config_feature_vector(config, encoded)
    base, _ = model.transition_scores(features)
    assert np.array_equal(scores, base)


def test_parse_corpus_preserves_length_and_inputs(conj_sentences, empty_resources):
    model = tiny_model(conj_sentences)
    parsed = parse_corpus(conj_sentences, model, empty_resources)
    assert len(parsed) == len(conj_sentences)
    assert all(p.token(1).pred_head is not None for p in parsed)
    # inputs untouched
    assert all(s.token(1).pred_head is None for s in conj_sentences)


def test_single_root_decoding_yields_one_root_child(empty_resources):
    rng = np.random.default_rng(33)
    sentences = [random_projective_sentence(rng, int(rng.integers(2, 9)))
                 for _ in range(20)]
    model = tiny_model(sentences, seed=1)
    for sentence in sentences:
        parsed = greedy_parse(sentence, model, empty_resources, single_root=True)
        assert sum(t.pred_head == 0 for t in parsed) == 1
