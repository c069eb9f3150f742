import numpy as np
import pytest

from conftest import (
    conj_w1,
    data_resources,
    make_sentence,
    random_projective_sentence,
    state_at,
    tiny_model,
)
from conjparse import parser
from conjparse.conj_features import extract_forms
from conjparse.parser import (
    augmented_scores,
    conj_candidate,
    greedy_parse,
    parse_corpus,
    score_batch,
    score_config,
)
from conjparse.training import jitter_params, oracle_path
from conjparse.resources import FeatureResources
from conjparse.transitions import (
    ArcHybridState,
    Transition,
    apply,
    initial_config,
    is_terminal,
    legal_mask,
    oracle_sequence,
)
from conjparse.treebank import Sentence, Token, is_projective, validate_tree
from synth import coordination_corpus


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
    calls = []
    original = model.first_layer

    def counting(projected, slots):
        calls.append(slots.shape)
        return original(projected, slots)

    model.first_layer = counting
    greedy_parse(sentence, model, empty_resources)
    assert calls == [(1, 4)] * (2 * len(sentence))


def _explicit_scores(model, features, inputs):
    """Augmented scores with each first layer as one product with the
    whole feature vector, the way the model computed them before its
    per-node projection."""
    params = model.params
    hidden = np.tanh(features @ params["mlp.w1"].T + params["mlp.b1"])
    scores = hidden @ params["mlp.w2"].T + params["mlp.b2"]
    if inputs is not None:
        joint = np.concatenate([features, inputs])
        conj_hidden = np.tanh(joint @ conj_w1(params).T + params["conj.b1"])
        scores[model.conj_transition] += (conj_hidden @ params["conj.w2"]
                                          + params["conj.b2"][0])
    return scores


def test_projected_scores_match_an_explicit_first_layer(sample_sentences):
    resources = data_resources()
    sentences = [s for s in sample_sentences[:40] if is_projective(s)][:12]
    model = tiny_model(sentences, seed=4)
    jitter_params(model, seed=5)
    conj_seen = 0
    for sentence in sentences:
        encoded = model.encode(sentence)
        path = oracle_path(sentence, model, resources)
        batch = score_batch(model, encoded.projected, path.slots, path.conj_rows,
                            path.conj_inputs)
        inputs = dict(zip(path.conj_rows.tolist(), path.conj_inputs))
        config = initial_config(len(sentence))
        for row, transition in enumerate(oracle_sequence(sentence)):
            features, _ = model.config_feature_vector(config, encoded)
            pair = conj_candidate(config)
            expected = _explicit_scores(model, features, inputs.get(row))
            tolerance = dict(rtol=1e-12, atol=1e-12 * np.abs(expected).max())
            np.testing.assert_allclose(batch.scores[row], expected, **tolerance)
            np.testing.assert_allclose(
                score_config(model, config, encoded, sentence, resources),
                expected, **tolerance)
            base, _ = model.transition_scores(features)
            np.testing.assert_allclose(
                base, _explicit_scores(model, features, None), **tolerance)
            conj_seen += pair is not None
            config = apply(config, transition)
    assert conj_seen > 0 and model.conj_transition is not None


def test_parse_extracts_each_conj_pair_once(sample_sentences, monkeypatch):
    resources = data_resources()
    sentence = max(sample_sentences[:60], key=len)
    model = tiny_model(sample_sentences[:60], seed=7)
    jitter_params(model, seed=4)
    # Right arcs whenever legal: each one returns to the pair below it.
    for index in range(model.codec.size):
        transition = model.codec.decode(index)
        model.params["mlp.b2"][index] = {"left": -50.0, "right": 50.0}.get(
            transition.kind, 0.0)
    met, extracted = [], []
    monkeypatch.setattr(parser, "conj_candidate",
                        lambda config: met.append(conj_candidate(config)) or met[-1])
    monkeypatch.setattr(parser, "extract_forms",
                        lambda *args: extracted.append(args) or extract_forms(*args))
    greedy_parse(sentence, model, resources)
    pairs = [pair for pair in met if pair is not None]
    assert len(pairs) > len(set(pairs))  # the parse meets some pair twice
    assert len(extracted) == len(set(pairs))


def test_conj_candidate():
    assert conj_candidate(state_at((0,), (1,))) is None
    assert conj_candidate(state_at((0, 2, 5), ())) == (2, 5)


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
    config = state_at((0, 3, 5), ())
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
    model = tiny_model(sentences, seed=1, single_root=True)
    for sentence in sentences:
        parsed = greedy_parse(sentence, model, empty_resources)
        assert sum(t.pred_head == 0 for t in parsed) == 1


def _tuple_parse(sentence, model, resources, single_root):
    """Heads and labels of the greedy parse, one new configuration per
    transition, through the public ``apply``."""
    encoded = model.encode(sentence)
    config = initial_config(len(sentence))
    while not is_terminal(config):
        scores = augmented_scores(model, config, encoded, sentence, resources)
        mask = legal_mask(config, model.codec, single_root=single_root)
        index = int(np.argmax(np.where(mask, scores, -np.inf)))
        config = apply(config, model.codec.decode(index))
    attached = {dep: (head, label) for head, dep, label in config.arcs}
    return [attached[i] for i in range(1, len(sentence) + 1)]


def _decoder_cases(sample_sentences):
    """(name, sentences, resources) the decoder is checked on."""
    shipped = data_resources()
    corpus, lexicon = coordination_corpus(12)
    rng = np.random.default_rng(61)
    long = [random_projective_sentence(rng, n) for n in (64, 97)]
    return [
        ("sample", sample_sentences[:80], shipped),
        ("coordination", corpus,
         FeatureResources(lemmas=lexicon, sentiment=shipped.sentiment,
                          embeddings=shipped.embeddings)),
        ("long", long, shipped),
    ]


@pytest.mark.parametrize("use_conj_features", [True, False])
@pytest.mark.parametrize("single_root", [True, False])
def test_decoder_matches_the_tuple_walk(use_conj_features, single_root,
                                        sample_sentences):
    for name, sentences, resources in _decoder_cases(sample_sentences):
        assert max(map(len, sentences)) >= (60 if name == "long" else 1)
        model = tiny_model(sentences, seed=8, use_conj_features=use_conj_features,
                           single_root=single_root)
        assert (model.conj_transition is not None) == use_conj_features
        for seed in (1, 2):
            jitter_params(model, seed=seed)
            for sentence in sentences:
                parsed = greedy_parse(sentence, model, resources)
                assert [(t.pred_head, t.pred_label) for t in parsed] == \
                    _tuple_parse(sentence, model, resources, single_root), name


def test_decoding_builds_no_configuration_or_transition(conj_sentences,
                                                        monkeypatch):
    resources = data_resources()
    model = tiny_model(conj_sentences, seed=5)
    jitter_params(model, seed=6)
    built = []

    def counting(cls):
        original = cls.__init__

        def init(self, *args, **kwargs):
            built.append(cls.__name__)
            original(self, *args, **kwargs)
        return init

    for cls in (ArcHybridState, Transition):
        monkeypatch.setattr(cls, "__init__", counting(cls))
    parsed = greedy_parse(conj_sentences[0], model, resources)
    assert len(parsed) == 5
    assert built == ["ArcHybridState"]  # the walk's one state
