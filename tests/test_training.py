import io
import random
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    DATA,
    GRADCHECK_FIXTURE,
    break_analytic_gradient,
    conj_w1,
    data_resources,
    discard_gradient,
    gradient_buffer,
    make_sentence,
    peak_bytes,
    random_projective_sentence,
    sample_tree_sentence,
    state_at,
    tiny_model,
    whole_step,
)
from conjparse import conj_features, network, parser, training, transitions
from conjparse.conj_features import extract_forms
from conjparse.model import CONJ_PAIRS, Hyperparams, Model, Vocabulary
from conjparse.parser import conj_candidate
from conjparse.resources import EmbeddingTable, FeatureResources
from conjparse.training import (
    batch_gradient,
    dropped_word_ids,
    gradient_check,
    hinge_kink_margin,
    jitter_params,
    oracle_path,
    sentence_loss,
    train_model,
    train_step,
)
from conjparse.transitions import legal_mask
from conjparse.treebank import LabelInventory, is_projective, read_conll
from synth import coordination_corpus


@pytest.fixture()
def conj_sentence():
    return make_sentence(
        [2, 0, 2, 3, 3], labels=["nsubj", "root", "dobj", "cc", "conj"],
        forms=["she", "buys", "shares", "and", "bonds"],
        pos=["PRP", "VBZ", "NNS", "CC", "NNS"],
    )


def _optimizer(model):
    return network.Adam(model.vector, learning_rate=model.hp.learning_rate)


def test_hinge_dead_zone_leaves_parameters_unchanged(empty_resources):
    # A one-label corpus of one-token sentences: the gold transition is the
    # only legal one at every step, so the margin is vacuously satisfied.
    sentences = [make_sentence([0], labels=["root"], forms=[f"w{i}"])
                 for i in range(4)]
    model = tiny_model(sentences)
    before = {k: v.copy() for k, v in model.params.items()}
    paths = [oracle_path(s, model, empty_resources) for s in sentences]
    loss = train_step(sentences, model, paths, _optimizer(model))
    assert loss == 0.0
    for key, value in before.items():
        np.testing.assert_array_equal(model.params[key], value)


def test_loss_strictly_decreases_on_fixed_fixture(conj_sentence, empty_resources):
    model = tiny_model([conj_sentence], seed=4, word_dim=8, lstm_dim=6, mlp_dim=10)
    optimizer = _optimizer(model)
    paths = [oracle_path(conj_sentence, model, empty_resources)]
    losses = [
        train_step([conj_sentence], model, paths, optimizer)
        for _ in range(50)
    ]
    assert all(
        later < earlier or (earlier == 0.0 and later == 0.0)
        for earlier, later in zip(losses, losses[1:])
    )


def test_gradient_check_passes_on_fixture(empty_resources):
    sentences = read_conll(GRADCHECK_FIXTURE)
    model = tiny_model(sentences, seed=3)
    jitter_params(model, seed=4)
    report = gradient_check(model, sentences, empty_resources)
    assert report.kink_margin > 50 * report.step  # fixture is clear of kinks
    assert report.passed, max(report.entries, key=lambda e: e.max_rel_error)
    checked_keys = {entry.key for entry in report.entries}
    assert checked_keys == set(model.trainable)


def test_gradient_check_of_the_conj_pair_columns_is_not_vacuous(sample_sentences):
    # With empty resources every conj input is 0, and so is the gradient of
    # every pair column.  Here each of the six columns is nonzero somewhere:
    # CAP, SUF, SYM and both SENT on two sample sentences, LEM on a
    # synthetic lemma sentence with its lexicon.
    corpus, lexicon = coordination_corpus(3)
    shipped = data_resources()
    resources = FeatureResources(lemmas=lexicon, sentiment=shipped.sentiment,
                                 embeddings=shipped.embeddings)
    sentences = [sample_sentences[1], sample_sentences[5], corpus[2]]
    model = tiny_model(sentences, seed=3)
    jitter_params(model, seed=4)
    paths = [oracle_path(s, model, resources) for s in sentences]
    fired = np.any([(p.conj_inputs != 0.0).any(axis=0) for p in paths], axis=0)
    assert fired.all(), fired
    grads = model.arrays_of(batch_gradient(model, sentences, paths)[1])
    assert (np.abs(grads[CONJ_PAIRS]).sum(axis=0) > 0.0).all()
    report = gradient_check(model, sentences, resources,
                            keys=[CONJ_PAIRS, "conj.b1", "conj.w2", "conj.b2"])
    assert report.kink_margin > 50 * report.step
    assert report.passed, max(report.entries, key=lambda e: e.max_rel_error)


def test_gradient_check_detects_corruption(empty_resources, monkeypatch):
    sentences = read_conll(GRADCHECK_FIXTURE)
    model = tiny_model(sentences, seed=3)
    jitter_params(model, seed=4)
    break_analytic_gradient(monkeypatch, "mlp.w2")
    report = gradient_check(model, sentences, empty_resources)
    assert not report.passed
    worst = {e.key: e.max_rel_error for e in report.entries}
    assert worst["mlp.w2"] > 0.9


def _directional_errors(model, batches, directions, step):
    """Relative error of ``batch_gradient``'s g . d against a central
    difference of the summed ``sentence_loss`` along d, per batch and d."""
    errors = []
    origin = model.vector.copy()
    for batch, paths in batches:
        gradient = batch_gradient(model, batch, paths)[1]
        for direction in directions:
            losses = []
            for sign in (1.0, -1.0):
                np.add(origin, sign * step * direction, out=model.vector)
                losses.append(sum(sentence_loss(model, s, p)
                                  for s, p in zip(batch, paths)))
            model.vector[...] = origin
            numeric = (losses[0] - losses[1]) / (2 * step)
            analytic = gradient @ direction
            errors.append(abs(numeric - analytic) / abs(analytic))
    return errors


def test_gradient_along_directions_at_the_default_sizes(sample_sentences):
    # The element-wise check runs on tiny models and short sentences; this
    # one runs where training runs: default sizes, all four resources, and
    # 45- and 100-token sentences whose oracle paths (90 and 200 rows) and
    # LSTM backward passes (46 and 101 steps) cross ``network._FACTOR_BLOCK``.
    # The seeds were picked for a point clear of the hinge's kinks (both
    # margins are above 0.015), which the margin check confirms.
    resources = data_resources()
    projective = [s for s in sample_sentences if is_projective(s)]
    tokens = [tok for s in projective[:40] for tok in s]
    rng = random.Random(1)
    long_sentences = [sample_tree_sentence(rng, tokens, n) for n in (45, 100)]
    model = Model.build(Hyperparams(), Vocabulary.from_corpus(long_sentences),
                        LabelInventory.from_sentences(long_sentences),
                        pretrained=resources.embeddings, seed=1)
    jitter_params(model, seed=6)
    paths = [oracle_path(s, model, resources) for s in long_sentences]
    step = 1e-4
    for sentence, path in zip(long_sentences, paths):
        assert hinge_kink_margin(model, [sentence], [path]) > 50 * step
    directions = np.random.default_rng(0).normal(size=(4, model.vector.size))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    batches = [(long_sentences[1:], paths[1:]), (long_sentences, paths)]
    errors = _directional_errors(model, batches, directions, step)
    assert max(errors) < 1e-6, errors


@pytest.fixture(scope="module")
def all_resources():
    return data_resources()


# Layer widths that no block of 4 or 16 divides.
_ODD_WIDTH = st.sampled_from([width for width in range(1, 14) if width % 4])


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_gradient_along_directions_at_odd_small_shapes(data, sample_sentences,
                                                       all_resources):
    # Odd widths, 1-3 LSTM layers, and batches of one or two sentences of
    # 1-40 tokens, whose LSTM backward passes (2-41 steps) fall on either
    # side of ``network._FACTOR_BLOCK``; the scorer on, with all four
    # resources, or off.
    conj = data.draw(st.booleans(), label="use_conj_features")
    resources = all_resources if conj else FeatureResources.empty()
    hp = Hyperparams(
        word_dim=data.draw(_ODD_WIDTH, label="word_dim"),
        pos_dim=data.draw(_ODD_WIDTH, label="pos_dim"),
        lstm_layers=data.draw(st.integers(1, 3), label="lstm_layers"),
        lstm_dim=data.draw(_ODD_WIDTH, label="lstm_dim"),
        mlp_dim=data.draw(_ODD_WIDTH, label="mlp_dim"),
        conj_mlp_dim=data.draw(_ODD_WIDTH, label="conj_mlp_dim"),
        use_conj_features=conj,
    )
    lengths = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=2),
                        label="lengths")
    seed = data.draw(st.integers(0, 2 ** 16), label="seed")
    rng = random.Random(seed)
    tokens = [tok for s in sample_sentences[:40] if is_projective(s) for tok in s]
    batch = [sample_tree_sentence(rng, tokens, n) for n in lengths]
    model = Model.build(hp, Vocabulary.from_corpus(batch),
                        LabelInventory.from_sentences(batch),
                        pretrained=resources.embeddings, seed=seed)
    jitter_params(model, seed=seed + 1)
    paths = [oracle_path(s, model, resources) for s in batch]
    step = 1e-4
    # Clear of the hinge's kinks, and not flat: a zero loss has a zero
    # gradient, which no relative error measures.
    assume(hinge_kink_margin(model, batch, paths) > 50 * step)
    assume(sum(sentence_loss(model, s, p) for s, p in zip(batch, paths)) > 0)
    count = data.draw(st.integers(2, 4), label="directions")
    directions = np.random.default_rng(seed).normal(size=(count, model.vector.size))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    errors = _directional_errors(model, [(batch, paths)], directions, step)
    assert max(errors) < 1e-6, errors


def test_gradient_check_fails_on_a_nan_relative_error(empty_resources):
    # An infinite output bias makes the loss infinite, so the central
    # difference of every probe is inf - inf.
    sentence = make_sentence([2, 0, 2], labels=["nsubj", "root", "dobj"])
    model = tiny_model([sentence])
    jitter_params(model, seed=1)
    model.params["mlp.b2"][0] = np.inf
    with np.errstate(invalid="ignore"):
        report = gradient_check(model, [sentence], empty_resources,
                                keys=["mlp.b1"])
    assert np.isnan(report.max_rel_error)
    assert not report.passed


def test_nan_parameter_gives_a_nan_loss_not_a_zero_one(empty_resources):
    sentence = make_sentence([2, 0, 2], labels=["nsubj", "root", "dobj"])
    model = tiny_model([sentence])
    jitter_params(model, seed=1)
    model.params["mlp.b1"][0] = np.nan
    paths = [oracle_path(sentence, model, empty_resources)]
    loss, vector = batch_gradient(model, [sentence], paths)
    assert np.isnan(loss)
    assert np.isnan(model.arrays_of(vector)["mlp.w2"]).any()
    report = gradient_check(model, [sentence], empty_resources,
                            keys=["mlp.b2", "lstm.0.fwd.b"])
    assert not report.passed
    with pytest.raises(ValueError, match="epoch 1: training loss is nan"):
        train_model(model, [sentence], empty_resources, epochs=2, seed=0)


def test_gradient_check_zero_model_vacuous_except_output_biases(empty_resources):
    """At the all-zero point every weight direction is locally flat.

    The two output biases are the exception: they sit exactly on the
    violator-argmax tie, where the loss is not differentiable, so finite
    differences are undefined there by construction and those two
    parameters are excluded.
    """
    sentences = read_conll(GRADCHECK_FIXTURE)
    model = tiny_model(sentences, seed=3)
    for key in model.trainable:
        model.params[key][...] = 0.0
    flat_keys = [k for k in model.trainable if k not in ("mlp.b2", "conj.b2")]
    report = gradient_check(model, sentences, empty_resources, keys=flat_keys)
    assert report.max_rel_error == 0.0
    paths = [oracle_path(s, model, empty_resources) for s in sentences]
    loss, vector = batch_gradient(model, sentences, paths)
    grads = model.arrays_of(vector)
    assert loss > 0.0
    for key in flat_keys:
        np.testing.assert_array_equal(grads[key], 0.0)
    assert np.abs(grads["mlp.b2"]).sum() > 0  # the documented kink exception


def test_training_is_bit_deterministic(conj_sentence, empty_resources):
    results = []
    for _ in range(2):
        model = tiny_model([conj_sentence], seed=8, word_dropout_alpha=0.25)
        train_model(model, [conj_sentence], empty_resources, epochs=5, seed=8)
        results.append({k: v.copy() for k, v in model.params.items()})
    for key in results[0]:
        np.testing.assert_array_equal(results[0][key], results[1][key])


def _reference_dropped_word_ids(sentence, model, rng):
    """One draw per token, in sentence order."""
    ids = model.word_ids_of(sentence).copy()
    alpha = model.hp.word_dropout_alpha
    for position, tok in enumerate(sentence, start=1):
        if rng.random() < alpha / (alpha + model.vocab.count(tok.form)):
            ids[position] = Vocabulary.UNK
    return ids


def test_word_dropout_matches_one_draw_per_token():
    sentences = read_conll(DATA / "sample_treebank.conllx")[:40]
    model = tiny_model(sentences[:20], word_dropout_alpha=1.5)
    rng, reference_rng = np.random.default_rng(7), np.random.default_rng(7)
    dropped = 0
    for sentence in sentences:
        ids = dropped_word_ids(sentence, model, rng)
        expected = _reference_dropped_word_ids(sentence, model, reference_rng)
        np.testing.assert_array_equal(ids, expected)
        dropped += int((ids != model.word_ids_of(sentence)).sum())
    assert 0 < dropped < sum(map(len, sentences))
    # Both leave the generator in the same state, so later draws match too.
    np.testing.assert_array_equal(rng.permutation(10),
                                  reference_rng.permutation(10))


def test_word_dropout_behaviour(conj_sentence):
    model = tiny_model([conj_sentence], word_dropout_alpha=0.0)
    rng = np.random.default_rng(0)
    ids = dropped_word_ids(conj_sentence, model, rng)
    np.testing.assert_array_equal(ids, model.word_ids_of(conj_sentence))

    model_hi = tiny_model([conj_sentence], word_dropout_alpha=1e9)
    dropped = dropped_word_ids(conj_sentence, model_hi, np.random.default_rng(0))
    assert all(i == Vocabulary.UNK for i in dropped[1:])
    assert dropped[0] == Vocabulary.ROOT  # the root position is never dropped


def test_train_step_rejects_non_projective(empty_resources):
    bad = make_sentence([3, 4, 0, 3])
    model = tiny_model([bad])
    with pytest.raises(transitions.OracleError):
        oracle_path(bad, model, empty_resources)
    with pytest.raises(transitions.OracleError):
        train_model(model, [bad], empty_resources, epochs=1, seed=0)


def test_sentence_loss_at_zero_point_is_margin_per_competitive_step(
        conj_sentence, empty_resources):
    # With all scores zero, every step with at least one legal non-gold
    # transition contributes exactly the margin; the rest contribute nothing.
    model = tiny_model([conj_sentence])
    for key in model.trainable:
        model.params[key][...] = 0.0
    path = oracle_path(conj_sentence, model, empty_resources)
    loss = sentence_loss(model, conj_sentence, path)
    assert loss == float(
        sum(1 for c, g in _gold_walk(conj_sentence, model)
            if len(_legal_non_gold(model, c, g)) > 0)
    )


def _gold_walk(sentence, model):
    """(configuration, gold transition index) pairs of the oracle sequence."""
    config = transitions.initial_config(len(sentence))
    for transition in transitions.oracle_sequence(sentence):
        yield config, model.codec.encode(transition)
        config = transitions.apply(config, transition)


def _legal_non_gold(model, config, gold):
    mask = legal_mask(config, model.codec)
    mask[gold] = False
    return np.flatnonzero(mask)


def test_train_model_keeps_best_dev_checkpoint(conj_sentence, empty_resources):
    model = tiny_model([conj_sentence], seed=2)
    result = train_model(model, [conj_sentence], empty_resources, epochs=4,
                         seed=2, dev_sentences=[conj_sentence])
    assert len(result.history) == 4
    assert result.best_epoch is not None
    recorded = [r.dev_las for r in result.history]
    assert result.best_las == max(recorded)


@pytest.mark.parametrize("dev", ["empty", "punctuation"])
def test_train_model_refuses_a_dev_set_with_nothing_to_score(conj_sentence,
                                                             empty_resources,
                                                             dev):
    # Every epoch would read dev LAS 0, and the first would be kept.
    punctuation = make_sentence([0, 1], labels=["root", "punct"],
                                forms=[",", "."], pos=[",", "PUNCT"])
    model = tiny_model([conj_sentence], seed=2)
    before = model.copy_params()
    logged = []
    with pytest.raises(ValueError, match=r"^the dev set has no token to score "
                                         r"\(it is empty or all punctuation\)"):
        train_model(model, [conj_sentence], empty_resources, epochs=3, seed=2,
                    dev_sentences={"empty": [], "punctuation": [punctuation]}[dev],
                    log=logged.append)
    assert logged == []
    assert np.array_equal(model.vector, before)


def test_batched_updates_accumulate_and_stay_deterministic(conj_sentence,
                                                           empty_resources):
    other = make_sentence([0, 1], labels=["root", "dobj"],
                          forms=["run", "fast"], pos=["VB", "RB"])
    corpus = [conj_sentence, other]

    def run():
        model = tiny_model(corpus, seed=6, batch_size=2)
        result = train_model(model, corpus, empty_resources, epochs=6, seed=6)
        return model, result

    first_model, first_result = run()
    second_model, second_result = run()
    for key in first_model.params:
        np.testing.assert_array_equal(first_model.params[key],
                                      second_model.params[key])
    assert first_result.history[-1].loss < first_result.history[0].loss


def test_oracle_paths_cover_whole_derivation(conj_sentence, empty_resources,
                                             monkeypatch):
    model = tiny_model([conj_sentence])
    extracted = []

    def counting(*args):
        extracted.append(args[:4])
        return extract_forms(*args)

    monkeypatch.setattr(parser, "extract_forms", counting)
    path = oracle_path(conj_sentence, model, empty_resources)
    steps = list(_gold_walk(conj_sentence, model))
    assert len(steps) == 2 * len(conj_sentence)
    np.testing.assert_array_equal(
        path.gold, [model.codec.encode(t)
                    for t in transitions.oracle_sequence(conj_sentence)])
    transition_ids = np.arange(model.codec.size)
    np.testing.assert_array_equal(
        path.competing, [legal_mask(c, model.codec) & (transition_ids != g)
                         for c, g in steps])
    np.testing.assert_array_equal(
        path.slots, [model.feature_slots(c) for c, _ in steps])
    kinds = [model.codec.decode(g).kind for g in path.gold]
    assert kinds.count("shift") == len(conj_sentence)
    pairs = [conj_candidate(c) for c, _ in steps]
    assert len(extracted) == len(set(extracted)) == len(set(pairs) - {None}) > 1
    np.testing.assert_array_equal(
        path.conj_rows, [row for row, pair in enumerate(pairs) if pair])
    np.testing.assert_array_equal(
        path.conj_inputs, [_extract(conj_sentence, pairs[row], empty_resources)
                           for row in path.conj_rows])
    with pytest.raises(ValueError):
        path.gold[0] = 0  # read-only: the path is reused in every epoch


def test_oracle_path_has_no_conj_rows_when_the_scorer_is_off(conj_sentence,
                                                            empty_resources):
    model = tiny_model([conj_sentence], use_conj_features=False)
    path = oracle_path(conj_sentence, model, empty_resources)
    assert path.conj_rows.shape == (0,)
    assert path.conj_inputs.shape == (0, 6)


def test_kink_margin_reports_small_value_at_zero_point(conj_sentence,
                                                       empty_resources):
    model = tiny_model([conj_sentence])
    for key in model.trainable:
        model.params[key][...] = 0.0
    paths = [oracle_path(conj_sentence, model, empty_resources)]
    assert hinge_kink_margin(model, [conj_sentence], paths) == 0.0


def _rows_kink_margin(model, scores, gold, competing):
    """Kink margin of scored rows, one row at a time: ``gold[r]`` is row
    r's gold transition index and ``competing[r]`` masks its competitors."""
    margin = np.inf
    for row, gold_index, mask in zip(scores, gold, competing):
        if not mask.any():
            continue
        competitors = np.where(mask, row, -np.inf)
        violator = int(np.argmax(competitors))
        step_loss = model.hp.margin - row[gold_index] + row[violator]
        margin = min(margin, abs(step_loss))
        competitors[violator] = -np.inf
        rest = competitors[np.isfinite(competitors)]
        if rest.size:
            margin = min(margin, float(row[violator] - rest.max()))
    return float(margin)


def _reference_kink_margin(model, sentences, resources):
    """The kink margin with gold and competitors taken from a walk of
    configuration objects, not from the compiled paths.  The walk's
    configurations are scored as one ``score_batch`` in walk order, the
    batch the loss reads."""
    margin = np.inf
    for sentence in sentences:
        walk = list(_gold_walk(sentence, model))
        pairs = [conj_candidate(config) for config, _ in walk]
        conj_rows = ([row for row, pair in enumerate(pairs) if pair]
                     if model.conj_transition is not None else [])
        conj_inputs = [_extract(sentence, pairs[row], resources)
                       for row in conj_rows]
        scores = parser.score_batch(
            model, model.encode(sentence).projected,
            np.array([model.feature_slots(config) for config, _ in walk]),
            np.array(conj_rows, dtype=np.intp),
            np.array(conj_inputs).reshape(len(conj_rows), 6)).scores
        competing = []
        for config, gold_index in walk:
            mask = legal_mask(config, model.codec)
            mask[gold_index] = False
            competing.append(mask)
        margin = min(margin, _rows_kink_margin(
            model, scores, [gold for _, gold in walk], competing))
    return float(margin)


def _kink_fixture(use_conj_features, sample_sentences):
    """A small model over the projective sentences of the first 40 samples,
    with all four resources; returns the model, sentences, resources and
    compiled paths."""
    resources = data_resources()
    sentences = [s for s in sample_sentences[:40] if is_projective(s)]
    hp = Hyperparams(word_dim=5, pos_dim=3, lstm_layers=1, lstm_dim=4,
                     mlp_dim=6, conj_mlp_dim=5,
                     use_conj_features=use_conj_features)
    model = Model.build(hp, Vocabulary.from_corpus(sentences),
                        LabelInventory.from_sentences(sentences),
                        pretrained=resources.embeddings, seed=2)
    assert (model.conj_transition is not None) == use_conj_features
    paths = [oracle_path(s, model, resources) for s in sentences]
    return model, sentences, resources, paths


@pytest.mark.parametrize("use_conj_features", [True, False])
def test_kink_margin_matches_the_per_configuration_loop(use_conj_features,
                                                       sample_sentences):
    model, sentences, resources, paths = _kink_fixture(use_conj_features,
                                                       sample_sentences)
    for seed in (1, 2, 3):
        jitter_params(model, seed=seed)
        expected = _reference_kink_margin(model, sentences, resources)
        assert 0.0 < expected < np.inf
        assert hinge_kink_margin(model, sentences, paths) == expected


@pytest.mark.parametrize("use_conj_features", [True, False])
def test_kink_margin_is_taken_over_the_scores_the_loss_reads(
        use_conj_features, sample_sentences, monkeypatch):
    # The finite differences probe the loss, so the margin that says
    # whether they can be trusted must describe the very scores it reads,
    # to the last bit.
    model, sentences, _, paths = _kink_fixture(use_conj_features,
                                               sample_sentences)
    for seed in (1, 2, 3):
        jitter_params(model, seed=seed)
        recorded = []

        def recording(*args):
            batch = parser.score_batch(*args)
            recorded.append(batch.scores.copy())
            return batch

        with monkeypatch.context() as patch:
            patch.setattr(training, "score_batch", recording)
            for sentence, path in zip(sentences, paths):
                sentence_loss(model, sentence, path)
        assert len(recorded) == len(paths)
        expected = min(_rows_kink_margin(model, scores, path.gold,
                                         path.competing)
                       for scores, path in zip(recorded, paths))
        assert 0.0 < expected < np.inf
        assert hinge_kink_margin(model, sentences, paths) == expected


def _reference_sentence_loss(model, sentence, resources, grads, word_ids=None):
    """The per-configuration loop that the batched ``sentence_loss`` replaced.

    It scores one configuration at a time, with each MLP's first layer as
    one product with the whole feature vector, and accumulates every
    parameter gradient with outer products, so it rounds differently from
    the projected, batched code but computes the same function.
    """
    encoded = model.encode(sentence, word_ids=word_ids)
    d_vectors = np.zeros_like(encoded.nodes[:-1])
    width = d_vectors.shape[1]
    right_conj = model.codec.right_index("conj")
    loss = 0.0
    for config, gold in _gold_walk(sentence, model):
        features, slots = model.config_feature_vector(config, encoded)
        hidden = np.tanh(model.params["mlp.w1"] @ features + model.params["mlp.b1"])
        scores = model.params["mlp.w2"] @ hidden + model.params["mlp.b2"]
        conj = None
        pair = conj_candidate(config)
        if model.hp.use_conj_features and right_conj is not None and pair:
            conj_joint = np.concatenate([features,
                                         _extract(sentence, pair, resources)])
            conj_hidden = np.tanh(conj_w1(model.params) @ conj_joint
                                  + model.params["conj.b1"])
            scores[right_conj] += (conj_hidden @ model.params["conj.w2"]
                                   + model.params["conj.b2"][0])
            conj = conj_hidden, conj_joint
        mask = legal_mask(config, model.codec)
        mask[gold] = False
        if not mask.any():
            continue
        violator = int(np.argmax(np.where(mask, scores, -np.inf)))
        step_loss = model.hp.margin - scores[gold] + scores[violator]
        if step_loss <= 0.0:
            continue
        loss += step_loss
        d_scores = np.zeros(model.codec.size)
        d_scores[gold] -= 1.0
        d_scores[violator] += 1.0
        d_pre = (model.params["mlp.w2"].T @ d_scores) * (1.0 - hidden * hidden)
        grads["mlp.w2"] += np.outer(d_scores, hidden)
        grads["mlp.b2"] += d_scores
        grads["mlp.w1"] += np.outer(d_pre, features)
        grads["mlp.b1"] += d_pre
        d_features = model.params["mlp.w1"].T @ d_pre
        if conj is not None and d_scores[right_conj] != 0.0:
            coeff = d_scores[right_conj]
            conj_hidden, conj_joint = conj
            d_conj_pre = (coeff * model.params["conj.w2"]
                          * (1.0 - conj_hidden * conj_hidden))
            grads["conj.w2"] += coeff * conj_hidden
            grads["conj.b2"][0] += coeff
            grads["conj.w1"] += np.outer(d_conj_pre, conj_joint)
            grads["conj.b1"] += d_conj_pre
            d_joint = conj_w1(model.params).T @ d_conj_pre
            d_features += d_joint[:features.shape[0]]
        for number, node in enumerate(slots):
            segment = d_features[number * width:(number + 1) * width]
            if node >= 0:
                d_vectors[node] += segment
            else:
                grads["pad_vec"] += segment
    if loss > 0.0:
        lstm_grads = [tuple(np.empty_like(a) for a in stack) for stack in model.lstm]
        d_inputs = network.bilstm_backward(d_vectors, encoded.lstm_caches,
                                           model.lstm, lstm_grads, lambda: None)
        for layer, stack in enumerate(lstm_grads):
            for kind, array in zip(("w_x", "w_h", "b"), stack):
                for d, direction in enumerate(network.DIRECTIONS):
                    grads[f"lstm.{layer}.{direction}.{kind}"] += array[d]
        word_dim, pre_dim = model.hp.word_dim, model.hp.pretrained_dim
        np.add.at(grads["word_emb"], encoded.word_ids, d_inputs[:, :word_dim])
        if pre_dim and "pre_emb" in grads:
            np.add.at(grads["pre_emb"], encoded.pre_ids,
                      d_inputs[:, word_dim:word_dim + pre_dim])
        np.add.at(grads["pos_emb"], encoded.pos_ids,
                  d_inputs[:, word_dim + pre_dim:])
    return loss


def _extract(sentence, pair, resources):
    head, modifier = pair
    return extract_forms(
        sentence.form_of(head), sentence.pos_of(head),
        sentence.form_of(modifier), sentence.pos_of(modifier),
        resources).to_inputs()


def _assert_matches_reference(model, sentences, resources, word_ids):
    gradient_buffer(model.gradients()).fill(np.nan)  # every element must be written
    # As stored, with ``conj.w1`` whole.
    reference = {key: np.zeros(shape) for key, shape in model.stored_shapes.items()
                 if key in model.stored_trainable}
    paths = [oracle_path(sentence, model, resources) for sentence in sentences]
    loss, vector = batch_gradient(model, sentences, paths, word_ids=word_ids)
    expected = 0.0
    for sentence, ids in zip(sentences, word_ids):
        sentence_expected = _reference_sentence_loss(model, sentence, resources,
                                                     reference, word_ids=ids)
        assert sentence_expected > 0.0
        expected += sentence_expected
    assert abs(loss - expected) <= 1e-12 * expected
    batched = model.arrays_of(vector)
    batched = {**batched, "conj.w1": conj_w1(batched)}
    for key in model.stored_trainable:
        np.testing.assert_allclose(batched[key], reference[key],
                                   rtol=1e-9, atol=1e-12, err_msg=key)
    assert np.abs(batched["conj.w1"]).sum() > 0.0  # the conj MLP was reached


def test_batched_loss_matches_per_configuration_loop_on_gradcheck_fixture(
        empty_resources):
    sentences = read_conll(GRADCHECK_FIXTURE)
    model = tiny_model(sentences, seed=3)
    jitter_params(model, seed=4)
    _assert_matches_reference(model, sentences, empty_resources,
                              [None] * len(sentences))


def test_batched_loss_matches_per_configuration_loop_with_resources():
    # Two coordinations with pretrained embeddings, lexicons, tuned
    # pretrained vectors and word dropout.
    sentence = make_sentence(
        [2, 0, 2, 3, 3, 3, 8, 2, 8, 11, 8],
        labels=["nsubj", "root", "dobj", "cc", "conj", "punct", "det",
                "conj", "amod", "cc", "conj"],
        forms=["Spain", "sells", "shares", "and", "bonds", ",", "a", "house",
               "big", "or", "markets"],
        pos=["NNP", "VBZ", "NNS", "CC", "NNS", ",", "DT", "NN", "JJ", "CC",
             "NNS"],
    )
    resources = data_resources()
    hp = Hyperparams(word_dim=5, pos_dim=3, lstm_layers=2, lstm_dim=4,
                     mlp_dim=6, conj_mlp_dim=5, word_dropout_alpha=2.0,
                     tune_pretrained=True)
    model = Model.build(hp, Vocabulary.from_corpus([sentence]),
                        LabelInventory.from_sentences([sentence]),
                        pretrained=resources.embeddings, seed=5)
    assert "pre_emb" in model.trainable
    jitter_params(model, seed=6)
    ids = dropped_word_ids(sentence, model, np.random.default_rng(1))
    assert (ids[1:] == Vocabulary.UNK).any()
    _assert_matches_reference(model, [sentence], resources, [ids])


@pytest.mark.parametrize("tune_pretrained", [True, False])
@pytest.mark.parametrize("use_conj_features", [True, False])
@pytest.mark.parametrize("names", ["conj", "conj+zero", "zero+conj", "zero"])
def test_batch_loss_writes_every_gradient_element(conj_sentence, names,
                                                  use_conj_features,
                                                  tune_pretrained):
    zero = make_sentence([0], labels=["root"], forms=["bonds"], pos=["NNS"])
    batch = [{"conj": conj_sentence, "zero": zero}[name]
             for name in names.split("+")]
    table = EmbeddingTable({"shares": np.array([1.0, -2.0]),
                            "bonds": np.array([0.5, 3.0])}, dim=2)
    hp = Hyperparams(word_dim=5, pos_dim=3, lstm_layers=2, lstm_dim=4,
                     mlp_dim=6, conj_mlp_dim=5, word_dropout_alpha=0.0,
                     use_conj_features=use_conj_features,
                     tune_pretrained=tune_pretrained)
    model = Model.build(hp, Vocabulary.from_corpus([conj_sentence]),
                        LabelInventory.from_sentences([conj_sentence]),
                        pretrained=table, seed=2)
    jitter_params(model, seed=3)
    # The one-token sentence's only step with competitors is its gold
    # right(root); a large bias meets its margin, so its loss is 0.
    model.params["mlp.b2"][model.codec.right_index("root")] += 50.0
    resources = FeatureResources(embeddings=table)
    paths = [oracle_path(sentence, model, resources) for sentence in batch]
    assert [sentence_loss(model, s, p) > 0.0 for s, p in zip(batch, paths)] == [
        name == "conj" for name in names.split("+")]
    results = []
    for fill in (np.nan, 0.0):
        gradient_buffer(model.gradients()).fill(fill)
        results.append(batch_gradient(model, batch, paths))
    (loss, nan_filled), (again, zero_filled) = results
    assert loss == again
    assert np.isfinite(nan_filled).all()
    assert np.array_equal(nan_filled, zero_filled)
    assert nan_filled.any() == ("conj" in names)


def test_batch_loss_of_no_sentences_zeroes_the_gradients(conj_sentence):
    model = tiny_model([conj_sentence])
    gradient_buffer(model.gradients()).fill(np.nan)
    loss, vector = batch_gradient(model, [], [])
    assert loss == 0.0
    assert not vector.any()


def test_sentence_loss_needs_no_gradient_sized_temporaries():
    # Default sizes, 100 tokens.  The backward pass writes into the
    # gradient buffer, so what the loss allocates, its forward state
    # included, peaks well below one more vector's worth on top of it;
    # with the first layers read and written in place, the projection
    # dropped once scored and the LSTM factors made block by block, below
    # 6.2 MB.
    sentence = random_projective_sentence(np.random.default_rng(0), 100)
    model = Model.build(Hyperparams(), Vocabulary.from_corpus([sentence]),
                        LabelInventory.from_sentences([sentence]), seed=1)
    paths = [oracle_path(sentence, model, FeatureResources.empty())]
    model.gradients()
    loss, peak = peak_bytes(lambda: sentence_loss(model, sentence, paths[0],
                                                  hand_over=discard_gradient))
    assert loss > 0.0
    assert peak < 2 * model.vector.nbytes
    assert peak < 6.2e6


def test_a_train_step_peaks_below_one_gradient_vector():
    # Default sizes, 40 tokens, the first step: the step allocates the
    # gradient buffer, the largest region of the vector, and hands each
    # region to Adam as soon as it is final, so on top of the model and
    # Adam's moments it never holds a whole-vector gradient.
    sentence = random_projective_sentence(np.random.default_rng(0), 40)
    model = Model.build(Hyperparams(), Vocabulary.from_corpus([sentence]),
                        LabelInventory.from_sentences([sentence]), seed=1)
    paths = [oracle_path(sentence, model, FeatureResources.empty())]
    optimizer = _optimizer(model)
    loss, peak = peak_bytes(lambda: train_step([sentence], model, paths,
                                               optimizer))
    assert loss > 0.0
    assert peak < model.vector.nbytes


def test_sentence_loss_scores_the_path_in_one_batch(conj_sentence,
                                                    empty_resources):
    # Wide first layers over five tokens, so that one first-layer matrix
    # (4 * (100 + 100) rows of 2 * 100 values) outweighs all else the loss
    # allocates.
    model = tiny_model([conj_sentence], lstm_dim=100, mlp_dim=100,
                       conj_mlp_dim=100)
    matrix_bytes = 4 * (100 + 100) * 2 * 100 * 8
    calls = []
    original = model.first_layer

    def counting(projected, slots):
        calls.append(slots.shape)
        return original(projected, slots)

    model.first_layer = counting
    path = oracle_path(conj_sentence, model, empty_resources)
    model.gradients()
    loss, peak = peak_bytes(lambda: sentence_loss(model, conj_sentence, path,
                                                  hand_over=discard_gradient))
    assert loss > 0.0
    assert calls == [(len(path.gold), 4)]
    # No per-sentence copy of the first-layer weights, and no first-layer
    # weight gradient outside the gradient buffer.
    assert peak < matrix_bytes


def test_sentence_loss_on_a_compiled_path_redoes_none_of_it(
        conj_sentence, empty_resources, monkeypatch):
    model = tiny_model([conj_sentence])
    jitter_params(model, seed=2)
    path = oracle_path(conj_sentence, model, empty_resources)
    calls = []

    def counted(name, function):
        def counting(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return counting

    for module, name in ((transitions, "legal_mask"), (training, "legal_mask"),
                         (parser, "legal_mask"), (parser, "conj_candidate"),
                         (parser, "batch_inputs"), (training, "batch_inputs"),
                         (conj_features, "extract_forms"),
                         (parser, "extract_forms")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(Model, "feature_slots",
                        counted("feature_slots", Model.feature_slots))
    loss = sentence_loss(model, conj_sentence, path, hand_over=discard_gradient)
    assert loss > 0.0
    assert calls == []


def test_oracle_path_checks_projectivity_once(conj_sentence, monkeypatch):
    calls = []

    def counting(sentence):
        calls.append(sentence)
        return is_projective(sentence)

    monkeypatch.setattr(training, "is_projective", counting)
    monkeypatch.setattr(transitions, "is_projective", counting)
    path = oracle_path(conj_sentence, tiny_model([conj_sentence]),
                       FeatureResources.empty())
    assert len(path.gold) == 2 * len(conj_sentence)
    assert calls == [conj_sentence]


def test_train_model_fails_on_parameters_that_are_not_finite(sample_sentences):
    # One sentence, one epoch: the only update overflows parameters, and
    # no later batch loss would notice.  Adam's step is bounded by about
    # its step size, learning_rate * sqrt(1 - beta2) / (1 - beta1): about
    # 3e310 here, past the largest float.
    train = sample_sentences[:1]
    model = tiny_model(train, learning_rate=1e308, beta1=0.999999)
    with np.errstate(all="ignore"), pytest.raises(
            ValueError, match="^epoch 1: the updates left parameters that are not "
                              "finite numbers$"):
        train_model(model, train, FeatureResources.empty(), epochs=1, seed=1)


@pytest.mark.parametrize("seed, best", [(2, 4), (3, 5)])
def test_a_run_ends_with_the_parameters_of_its_best_epoch(seed, best,
                                                          sample_sentences,
                                                          monkeypatch):
    train, dev = sample_sentences[:12], sample_sentences[200:204]
    snapshots = []
    copy_params = Model.copy_params
    monkeypatch.setattr(Model, "copy_params",
                        lambda self: snapshots.append(1) or copy_params(self))

    def run(epochs, dev_sentences):
        model = tiny_model(train + dev, seed=seed)
        result = train_model(model, train, FeatureResources.empty(), epochs=epochs,
                             seed=seed, dev_sentences=dev_sentences)
        buffer = io.BytesIO()
        model.save(buffer)
        return result, buffer.getvalue()

    result, selected = run(5, dev)
    assert result.best_epoch == best
    # A snapshot for every improvement but one on the last epoch, whose
    # parameters the model keeps anyway.
    improved, best_las = [], None
    for record in result.history:
        if best_las is None or record.dev_las > best_las:
            improved.append(record.epoch)
            best_las = record.dev_las
    assert len(snapshots) == len([epoch for epoch in improved if epoch < 5])
    # Dev parsing draws nothing from the training stream, so the run equals
    # one that stops at its best epoch.
    assert run(best, None)[1] == selected


def _refuse_threads(monkeypatch):
    """Make starting any thread fail; returns the list of threads tried."""
    started = []

    def refuse(thread):
        started.append(thread)
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    return started


@pytest.mark.parametrize("learning_rate, error", [
    (1e-3, None),
    # The first update overflows the parameters, so the second sentence's
    # loss is not finite.
    (1e308, "^epoch 1: training loss is nan, not a finite number$"),
])
def test_train_model_leaves_no_thread_running(learning_rate, error, monkeypatch,
                                              sample_sentences):
    # Small blocks: every update of the tiny model spans several.
    monkeypatch.setattr(network, "_ADAM_BLOCK", 64)
    started = _refuse_threads(monkeypatch)
    train = sample_sentences[:2]
    model = tiny_model(train, learning_rate=learning_rate)
    assert model.vector.size > 2 * network._ADAM_BLOCK
    with np.errstate(all="ignore"):
        if error is None:
            train_model(model, train, FeatureResources.empty(), epochs=2, seed=1)
        else:
            with pytest.raises(ValueError, match=error):
                train_model(model, train, FeatureResources.empty(), epochs=1,
                            seed=1)
    assert started == []


def test_an_update_that_raises_in_a_region_leaves_no_thread_running(
        monkeypatch, sample_sentences):
    # The first update overflows in its first region, under the caller's
    # np.errstate.
    started = _refuse_threads(monkeypatch)
    train = sample_sentences[:2]
    model = tiny_model(train, learning_rate=1e308)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        train_model(model, train, FeatureResources.empty(), epochs=1, seed=1)
    assert started == []


def _step_models(conj_sentence, count):
    """``count`` equal jittered models over the labels of ``conj_sentence``."""
    models = []
    for _ in range(count):
        model = tiny_model([conj_sentence], seed=5)
        jitter_params(model, seed=6)
        # The one-token sentence's only step with competitors is its gold
        # right(root); a large bias meets its margin, so its loss is 0.
        model.params["mlp.b2"][model.codec.right_index("root")] += 50.0
        models.append(model)
    return models


@pytest.mark.parametrize("copies", [1, 2])
@pytest.mark.parametrize("names", ["conj", "conj+other", "zero", "zero+conj"])
def test_a_train_step_gives_the_bits_of_one_whole_vector_step(
        names, copies, conj_sentence, empty_resources, monkeypatch):
    # Small blocks: every region has several. Each sentence of the batch
    # appears ``copies`` times, so a region sums repeated gradients too.
    monkeypatch.setattr(network, "_ADAM_BLOCK", 64)
    named = {"conj": conj_sentence,
             "zero": make_sentence([0], labels=["root"], forms=["bonds"],
                                   pos=["NNS"]),
             "other": make_sentence([0, 1], labels=["root", "dobj"],
                                    forms=["run", "fast"], pos=["VB", "RB"])}
    batch = [named[name] for name in names.split("+")] * copies
    model, reference = _step_models(conj_sentence, 2)
    paths = [oracle_path(s, model, empty_resources) for s in batch]
    optimizer, whole = _optimizer(model), _optimizer(reference)
    for step in range(3):
        # The reference: the regions collected into one gradient vector,
        # then one update of the whole vector.
        expected, vector = batch_gradient(reference, batch, paths)
        if step == 0:
            assert (expected == 0.0) == (names == "zero")
            assert vector.any() == (names != "zero")
        whole_step(whole, vector)
        assert train_step(batch, model, paths, optimizer) == expected
        for one, other_array in ((model.vector, reference.vector),
                                 (optimizer.m, whole.m), (optimizer.v, whole.v)):
            assert np.array_equal(one, other_array)
    assert optimizer.t == whole.t == 3


@pytest.mark.parametrize("size", [1, 2, 3])
def test_a_train_step_hands_adam_the_regions_of_one_sentence_or_one_vector(
        size, sample_sentences, empty_resources):
    batch = [s for s in sample_sentences[:10] if is_projective(s)][:size]
    model = tiny_model(batch)
    paths = [oracle_path(s, model, empty_resources) for s in batch]
    optimizer = _optimizer(model)
    received = []
    step = optimizer.step

    def recording(grads, offset):
        received.append((offset, grads.size))
        step(grads, offset)

    optimizer.step = recording
    assert train_step(batch, model, paths, optimizer) > 0.0
    if size == 1:
        assert received == [(offset, gradient.size)
                            for gradient, offset in model.gradients().regions]
    else:
        assert received == [(0, model.vector.size)]


def test_training_in_batches_of_two_with_dropout_steps_the_summed_gradients(
        sample_sentences):
    # Five sentences: two batches of two and one of one per epoch.
    train = [s for s in sample_sentences[:12] if is_projective(s)][:5]
    resources = data_resources()
    model, reference = (tiny_model(train, seed=4, batch_size=2,
                                   word_dropout_alpha=0.5) for _ in range(2))
    train_model(model, train, resources, epochs=2, seed=9)
    # The reference: train_model's draws, each batch's gradient summed into
    # one vector by batch_gradient, and one whole-vector update per batch.
    hp = reference.hp
    rng = np.random.default_rng(9)
    optimizer = network.Adam(reference.vector, learning_rate=hp.learning_rate,
                             beta1=hp.beta1, beta2=hp.beta2, eps=hp.adam_eps)
    paths = [oracle_path(s, reference, resources) for s in train]
    dropped = 0
    for _ in range(2):
        order = list(rng.permutation(len(train)))
        for start in range(0, len(order), 2):
            chunk = order[start:start + 2]
            batch = [train[i] for i in chunk]
            ids = [dropped_word_ids(s, reference, rng) for s in batch]
            dropped += sum(int((i == Vocabulary.UNK).sum()) for i in ids)
            _, vector = batch_gradient(reference, batch, [paths[i] for i in chunk],
                                       ids)
            whole_step(optimizer, vector)
    assert dropped > 0
    assert np.array_equal(model.vector, reference.vector)


def test_a_train_step_on_two_sentences_holds_one_vector_more_than_one_sentence():
    # Default sizes.  A batch of several sentences sums its gradient into
    # one vector; a vector per sentence would add another 6.6 MB.
    rng = np.random.default_rng(0)
    batch = [random_projective_sentence(rng, n) for n in (40, 60)]
    model = Model.build(Hyperparams(), Vocabulary.from_corpus(batch),
                        LabelInventory.from_sentences(batch), seed=1)
    paths = [oracle_path(s, model, FeatureResources.empty()) for s in batch]
    optimizer = _optimizer(model)
    model.gradients()
    alone = max(peak_bytes(lambda: train_step([s], model, [p], optimizer))[1]
                for s, p in zip(batch, paths))
    loss, peak = peak_bytes(lambda: train_step(batch, model, paths, optimizer))
    assert loss > 0.0
    assert peak < alone + model.vector.nbytes + 2 ** 16


def test_a_region_is_handed_over_after_the_last_read_of_its_parameters(
        conj_sentence, empty_resources):
    # Each region's parameters are updated and then poisoned with NaN as
    # soon as it is handed over: the loss and every later region must not
    # notice, so no region goes before the step's last read of it.
    model, = _step_models(conj_sentence, 1)
    path = oracle_path(conj_sentence, model, empty_resources)
    expected, vector = batch_gradient(model, [conj_sentence], [path])
    optimizer = _optimizer(model)
    handed = []

    def poison(gradient, offset):
        handed.append(offset)
        assert np.array_equal(gradient, vector[offset:offset + gradient.size])
        optimizer.step(gradient, offset)
        model.vector[offset:offset + gradient.size] = np.nan

    with optimizer.update():
        assert sentence_loss(model, conj_sentence, path, hand_over=poison) == expected
    assert handed == [offset for _, offset in model.gradients().regions]
    assert np.isnan(model.vector).all()


def _tuple_oracle_path(sentence, model, resources):
    """The arrays of ``oracle_path`` built one new configuration per
    transition, through ``apply``: (slots, gold, competing, conj rows,
    conj inputs, gold transitions)."""
    children = sentence.gold_children()
    config = transitions.initial_config(len(sentence))
    configs, sequence = [], []
    while not transitions.is_terminal(config):
        configs.append(config)
        sequence.append(transitions.static_oracle(config, sentence, children))
        config = transitions.apply(config, sequence[-1])
    gold = np.array([model.codec.encode(t) for t in sequence])
    competing = np.array([legal_mask(c, model.codec) for c in configs])
    competing[np.arange(len(gold)), gold] = False
    slots = np.array([model.feature_slots(c) for c in configs])
    conj_rows, conj_inputs = parser.batch_inputs(
        model, [conj_candidate(c) for c in configs], sentence, resources)
    return slots, gold, competing, conj_rows, conj_inputs, sequence


@pytest.mark.parametrize("use_conj_features", [True, False])
def test_oracle_path_matches_the_tuple_walk(use_conj_features, sample_sentences):
    shipped = data_resources()
    corpus, lexicon = coordination_corpus(6)
    rng = np.random.default_rng(62)
    long = [random_projective_sentence(rng, n) for n in (64, 97)]
    cases = [([s for s in sample_sentences[:80] if is_projective(s)], shipped),
             (corpus, FeatureResources(lemmas=lexicon, sentiment=shipped.sentiment,
                                       embeddings=shipped.embeddings)),
             (long, shipped)]
    for sentences, resources in cases:
        model = tiny_model(sentences, use_conj_features=use_conj_features)
        for sentence in sentences:
            path = oracle_path(sentence, model, resources)
            *expected, sequence = _tuple_oracle_path(sentence, model, resources)
            for name, actual, wanted in zip(
                    ("slots", "gold", "competing", "conj_rows", "conj_inputs"),
                    (path.slots, path.gold, path.competing, path.conj_rows,
                     path.conj_inputs), expected):
                assert actual.dtype == wanted.dtype, name
                np.testing.assert_array_equal(actual, wanted, err_msg=name)
            assert transitions.oracle_sequence(sentence) == sequence
            assert [model.codec.decode(g) for g in path.gold] == sequence


def test_oracle_errors_keep_their_messages(empty_resources):
    bad = make_sentence([3, 4, 0, 3])
    model = tiny_model([bad])
    with pytest.raises(transitions.OracleError,
                       match="^cannot derive an oracle path for a "
                             "non-projective sentence$"):
        oracle_path(bad, model, empty_resources)
    with pytest.raises(transitions.OracleError,
                       match="^static oracle undefined for non-projective "
                             "sentence$"):
        transitions.oracle_sequence(bad)
    # Token 2 heads the root, not token 1 below it, and nothing is left to
    # shift: the oracle is stuck, on a walked state and on a built one.
    sentence = make_sentence([2, 0])
    children = sentence.gold_children()
    state = transitions.ArcHybridState(2)
    for _ in range(2):
        state.take(transitions.Transition(transitions.SHIFT))
    for config in (state_at((0, 1, 2), ()), state):
        with pytest.raises(transitions.OracleError,
                           match=r"^oracle stuck at stack=\[0, 1, 2\] buffer=\[\] "
                                 r"arcs=0$"):
            transitions.static_oracle(config, sentence, children)
    for config in (transitions.initial_config(0), transitions.ArcHybridState(0)):
        with pytest.raises(transitions.OracleError,
                           match="^oracle called on terminal configuration$"):
            transitions.static_oracle(config, make_sentence([]), {0: []})
