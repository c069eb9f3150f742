"""Joint margin training of the parser and the coordination scorer.

Training follows the static-oracle transition sequence of each projective
sentence.  At every configuration the hinge loss
``max(0, margin - score(gold) + max over legal non-gold scores)`` is
applied to the augmented scores, so gradients reach the coordination MLP
whenever the "conj" right transition is the gold or the violating one.
The oracle path's configurations are scored as one batch from the
sentence's per-node first-layer projections, and their gradients flow
back through that batch to the first layer and from there to the nodes.
Each backward step writes its gradient into its place in the
``Model.gradients`` buffer instead of adding to it, so the buffer needs no
zeroing first.  The buffer holds one region of the parameter vector at a
time: a sentence's loss hands each region's gradient on as soon as it reads
that region's parameters no more, and the next region is written over it.
``train_step`` hands one sentence's regions to ``Adam.step``, and
``batch_gradient`` sums them over a batch into one vector, which a larger
step hands to Adam and ``gradient_check`` compares against central
differences of the summed ``sentence_loss``.  ``hinge_kink_margin`` says if
those can be trusted from the batch scores the loss and its differences read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import network
from .model import CONJ_PAIRS, EncodedSentence, Gradients, Model, Vocabulary
from .parser import (
    batch_inputs,
    conj_candidate,
    greedy_parse,
    score_batch,
)
# Not called here; perfbench's tests check that its tracer wraps this name.
from .parser import score_config  # noqa: F401
from .resources import FeatureResources
from .transitions import (
    ArcHybridState,
    OracleError,
    Transition,
    legal_mask,
    static_oracle,
)
from .treebank import Sentence, is_projective


@dataclass(frozen=True)
class OraclePath:
    """The static-oracle derivation of a sentence, compiled to arrays.

    Row r describes the r-th of its 2n configurations.  The path does not
    depend on the scores, so it is built once per sentence per training
    run; its arrays are read-only.
    """

    slots: np.ndarray        # (2n, 4) feature slots; -1 is the padding
    gold: np.ndarray         # (2n,) gold transition index
    competing: np.ndarray    # (2n, T) legal transitions other than the gold one
    conj_rows: np.ndarray    # rows that get a conj score
    conj_inputs: np.ndarray  # (len(conj_rows), 6) their conj MLP inputs

    def __post_init__(self):
        for value in vars(self).values():
            value.flags.writeable = False


def oracle_path(sentence: Sentence, model: Model,
                resources: FeatureResources) -> OraclePath:
    """The gold derivation of ``sentence`` as the arrays the loss reads.

    One ``ArcHybridState.walk`` that takes the ``static_oracle``'s
    transition at every state fills row r of ``slots``, ``gold`` and
    ``competing`` at the r-th state.  ``competing`` is the state's legal
    set without ``single_root``, less the gold transition.  The conj
    features of each distinct (head, modifier) pair on the path are
    extracted once.
    """
    if not is_projective(sentence):
        raise OracleError("cannot derive an oracle path for a "
                          "non-projective sentence")
    children = sentence.gold_children()
    codec = model.codec
    steps = 2 * len(sentence)
    slots = np.empty((steps, 4), dtype=np.intp)
    gold = np.empty(steps, dtype=np.intp)
    competing = np.empty((steps, codec.size), dtype=bool)
    pairs: List[Optional[Tuple[int, int]]] = []

    def record(state: ArcHybridState) -> Transition:
        row = len(pairs)
        transition = static_oracle(state, sentence, children)
        slots[row] = model.feature_slots(state)
        gold[row] = codec.encode(transition)
        # Decoding uses model.hp.single_root; mending that changes trained models.
        legal_mask(state, codec, single_root=False, out=competing[row])
        pairs.append(conj_candidate(state))
        return transition

    ArcHybridState(len(sentence)).walk(record)
    competing[np.arange(steps), gold] = False
    conj_rows, conj_inputs = batch_inputs(model, pairs, sentence, resources)
    return OraclePath(slots, gold, competing, conj_rows, conj_inputs)


def dropped_word_ids(sentence: Sentence, model: Model,
                     rng: np.random.Generator) -> np.ndarray:
    """Word ids with infrequent words stochastically replaced by the unknown id."""
    ids = model.word_ids_of(sentence)
    alpha = model.hp.word_dropout_alpha
    if alpha <= 0.0:
        return ids
    counts = np.array([model.vocab.count(tok.form) for tok in sentence])
    ids[1:][rng.random(len(sentence)) < alpha / (alpha + counts)] = Vocabulary.UNK
    return ids


# Takes a finished region's gradient and the region's offset in the vector,
# as ``network.Adam.step`` does; it may overwrite the gradient.
HandOver = Callable[[np.ndarray, int], None]


def sentence_loss(model: Model, sentence: Sentence, path: OraclePath,
                  hand_over: Optional[HandOver] = None,
                  word_ids: Optional[np.ndarray] = None) -> float:
    """Total hinge loss along the compiled oracle path.

    With ``hand_over``, passes it the loss's gradient region by region, in
    the order of ``Model.gradients().regions``, each as soon as the step
    reads the region's parameters no more: the scoring MLPs and the
    padding vector once ``Model.first_layer_backward`` has returned the
    nodes' gradient, each BiLSTM layer once its backward pass has returned
    its inputs' gradient, and the embedding tables once their rows are
    scattered.  So ``hand_over`` may update a region's parameters before
    the next region is computed.  Every region is a view of the one
    ``Model.gradients`` buffer, into which each backward step writes its
    product in place, whatever the buffer held: only what gets no product
    is zeroed (the embedding tables before their scattered rows are added
    in, and every region when the loss is 0).  An exception part-way
    leaves the regions handed over before it handed over.  The sentence's
    first-layer projection is dropped once the path is scored, and its
    node table before the BiLSTM backward pass.
    """
    encoded = model.encode(sentence, word_ids=word_ids)
    grads = None if hand_over is None else model.gradients()
    loss, d_nodes = _path_hinge(model, path, encoded, grads)
    if d_nodes is None:
        if grads is not None:
            for gradient, offset in grads.regions:
                gradient.fill(0.0)
                hand_over(gradient, offset)
        return loss
    word_dim = model.hp.word_dim
    pre_dim = model.hp.pretrained_dim
    tables = (("word_emb", encoded.word_ids, slice(None, word_dim)),
              ("pre_emb", encoded.pre_ids, slice(word_dim, word_dim + pre_dim)),
              ("pos_emb", encoded.pos_ids, slice(word_dim + pre_dim, None)))
    caches = encoded.lstm_caches
    # Frees the node table before the BiLSTM backward pass allocates its
    # arrays; ``_path_hinge`` dropped the projection.
    del encoded
    grads["pad_vec"][...] = d_nodes[-1]
    regions = iter(grads.regions)
    hand_over(*next(regions))
    d_inputs = network.bilstm_backward(
        d_nodes[:-1], caches, model.lstm, grads.lstm,
        lambda: hand_over(*next(regions)))
    # A frozen pre_emb has no gradient.
    for name, ids, columns in tables:
        if name in grads:
            grads[name].fill(0.0)
            np.add.at(grads[name], ids, d_inputs[:, columns])
    hand_over(*next(regions))
    return loss


def _hinge_steps(scores: np.ndarray, gold: np.ndarray, competing: np.ndarray,
                 margin: float) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's violating transition and step loss.

    The violator is the best-scoring transition of the row's ``competing``
    ones, and the step loss is ``margin - score(gold) + score(violator)``;
    both mean nothing in a row without competitors.
    """
    rows = np.arange(len(gold))
    violator = np.argmax(np.where(competing, scores, -np.inf), axis=1)
    return violator, margin - scores[rows, gold] + scores[rows, violator]


def _path_hinge(model: Model, path: OraclePath, encoded: EncodedSentence,
                grads: Optional[Gradients]
                ) -> Tuple[float, Optional[np.ndarray]]:
    """Hinge loss of every configuration on the path, and its gradient.

    The path's configurations are scored as one batch, one row each, and
    backpropagated with matrix products over the rows down to their first
    layer, and from there with two products over the sentence's nodes
    (``Model.first_layer_backward``).  Writes every gradient of both MLPs
    into ``grads`` and returns the gradient with respect to
    ``encoded.nodes``; writes nothing and returns None when nothing is to
    be backpropagated.  Sets ``encoded.projected`` to None once the path is
    scored, since the backward pass reads only the nodes, and frees the
    batch and its score gradient before ``first_layer_backward`` allocates
    its own arrays.
    """
    rows = np.arange(len(path.gold))
    batch = score_batch(model, encoded.projected, path.slots, path.conj_rows,
                        path.conj_inputs)
    encoded.projected = None
    scores = batch.scores
    gold = path.gold
    violator, step_loss = _hinge_steps(scores, gold, path.competing,
                                       model.hp.margin)
    # A step counts when the gold transition has a legal competitor and the
    # margin is not met.  A NaN step loss counts too, so that NaN scores
    # give a NaN loss instead of a met margin.
    active = path.competing.any(axis=1) & ~(step_loss <= 0.0)
    loss = float(step_loss[active].sum())
    if grads is None or loss == 0.0:
        return loss, None
    d_scores = np.zeros_like(scores)
    d_scores[rows[active], gold[active]] -= 1.0
    d_scores[rows[active], violator[active]] += 1.0
    mlp_dim = model.hp.mlp_dim
    # Gradient of each row's first layer: the transition MLP's columns,
    # then the coordination MLP's.
    d_first = np.zeros((len(rows), mlp_dim + model.hp.conj_mlp_dim))
    d_first[:, :mlp_dim], d_b1, d_w2, d_b2 = network.mlp_backward(
        d_scores, batch.mlp_hidden, model.params["mlp.w2"])
    grads["mlp.b1"][...] = d_b1
    grads["mlp.w2"][...] = d_w2
    grads["mlp.b2"][...] = d_b2
    # The conj MLP's pair columns; its node columns get their gradient with
    # the transition MLP's first layer.
    conj_pairs = grads[CONJ_PAIRS]
    if path.conj_rows.size:
        # The conj MLP has one output, added to the score of the conj
        # transition; it gets a gradient where conj is the gold or the
        # violating transition (none, and so zeros, where no row is hit).
        d_conj = d_scores[path.conj_rows, model.conj_transition]
        hit = np.flatnonzero(d_conj)
        d_pre, d_b1, d_w2, d_b2 = network.mlp_backward(
            d_conj[hit, np.newaxis], batch.conj_hidden[hit],
            model.params["conj.w2"][np.newaxis],
        )
        conj_pairs[...] = d_pre.T @ path.conj_inputs[hit]
        grads["conj.b1"][...] = d_b1
        grads["conj.w2"][...] = d_w2[0]
        grads["conj.b2"][...] = d_b2
        d_first[path.conj_rows[hit], mlp_dim:] = d_pre
    else:
        for array in (conj_pairs, grads["conj.b1"], grads["conj.w2"],
                      grads["conj.b2"]):
            array.fill(0.0)
    del batch, scores, d_scores
    d_nodes = model.first_layer_backward(encoded, path.slots, d_first, grads)
    return loss, d_nodes


def batch_gradient(model: Model, batch: Sequence[Sentence],
                   paths: Sequence[OraclePath],
                   word_ids: Optional[Sequence[np.ndarray]] = None
                   ) -> Tuple[float, np.ndarray]:
    """Summed loss of ``batch`` and its gradient as one vector.

    Laid out as ``model.vector`` (``Model.arrays_of`` names its arrays),
    the vector holds zeros for no sentences; the first sentence copies its
    regions into it and later ones add theirs (a left-to-right sum).
    """
    vector = np.empty_like(model.vector) if batch else np.zeros_like(model.vector)

    def collect(gradient: np.ndarray, offset: int) -> None:
        part = vector[offset:offset + gradient.size]
        if index:
            part += gradient
        else:
            part[...] = gradient

    total = 0.0
    for index, sentence in enumerate(batch):
        total += sentence_loss(model, sentence, paths[index], collect,
                               None if word_ids is None else word_ids[index])
    return total, vector


def train_step(batch: Sequence[Sentence], model: Model,
               paths: Sequence[OraclePath], optimizer: network.Adam,
               rng: Optional[np.random.Generator] = None) -> float:
    """One optimizer update on a batch and its paths; returns the pre-update loss.

    With ``rng``, words are dropped out (none, and nothing drawn, at alpha 0).
    Inside one ``optimizer.update()``, a one-sentence batch's loss hands
    ``optimizer.step`` its regions as soon as the backward pass is done with
    each, and any other batch steps once with its ``batch_gradient`` vector.
    An exception part-way leaves the regions handed over before it
    updated; ``train_model`` then raises, and the CLI writes no model.
    """
    ids = None
    if rng is not None:
        ids = [dropped_word_ids(s, model, rng) for s in batch]
    with optimizer.update():
        if len(batch) == 1:
            return sentence_loss(model, batch[0], paths[0], optimizer.step,
                                 None if ids is None else ids[0])
        loss, vector = batch_gradient(model, batch, paths, ids)
        optimizer.step(vector, 0)
        return loss


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    dev_uas: Optional[float] = None
    dev_las: Optional[float] = None


@dataclass
class TrainResult:
    history: List[EpochRecord] = field(default_factory=list)
    best_epoch: Optional[int] = None
    best_las: Optional[float] = None


NOTHING_TO_SCORE = ("the dev set has no token to score (it is empty or all "
                    "punctuation), so it cannot select an epoch")


def train_model(model: Model, train_sentences: Sequence[Sentence],
                resources: FeatureResources, epochs: int, seed: int,
                dev_sentences: Optional[Sequence[Sentence]] = None,
                log=None) -> TrainResult:
    """Train in place for up to ``epochs``; keep the best dev-LAS parameters.

    All training sentences must be projective (the CLI filters and counts
    the skipped ones).  Identical seed, data and configuration reproduce
    the exact same parameters.  Raises ``ValueError`` before the first
    epoch when ``dev_sentences`` has no token to score, so that every dev
    LAS would be 0, and naming the epoch as soon as a batch loss or, after
    an epoch's updates, a parameter is not finite.
    """
    from .evaluation import attachment_scores, has_scored_token

    if epochs < 1:
        raise ValueError(f"epochs must be at least 1, got {epochs}")
    if dev_sentences is not None and not has_scored_token(dev_sentences):
        raise ValueError(NOTHING_TO_SCORE)
    rng = np.random.default_rng(seed)
    optimizer = network.Adam(
        model.vector, learning_rate=model.hp.learning_rate, beta1=model.hp.beta1,
        beta2=model.hp.beta2, eps=model.hp.adam_eps,
    )
    paths = [oracle_path(s, model, resources) for s in train_sentences]
    result = TrainResult()
    best_params = None
    batch_size = model.hp.batch_size
    for epoch in range(1, epochs + 1):
        order = list(rng.permutation(len(train_sentences)))
        epoch_loss = 0.0
        for start in range(0, len(order), batch_size):
            chunk = order[start:start + batch_size]
            batch = [train_sentences[i] for i in chunk]
            loss = train_step(batch, model, [paths[i] for i in chunk],
                              optimizer, rng=rng)
            if not math.isfinite(loss):
                raise ValueError(f"epoch {epoch}: training loss is {loss}, "
                                 "not a finite number")
            epoch_loss += loss
        if not np.isfinite(model.vector).all():
            raise ValueError(f"epoch {epoch}: the updates left parameters that "
                             "are not finite numbers")
        record = EpochRecord(epoch=epoch, loss=epoch_loss)
        if dev_sentences is not None:
            parsed = [greedy_parse(s, model, resources) for s in dev_sentences]
            record.dev_uas, record.dev_las = attachment_scores(
                list(dev_sentences), parsed
            )
            if result.best_las is None or record.dev_las > result.best_las:
                result.best_las = record.dev_las
                result.best_epoch = epoch
                # The model ends at the last epoch's parameters, so only
                # an earlier best needs a snapshot to go back to.
                best_params = model.copy_params() if epoch < epochs else None
        result.history.append(record)
        if log is not None:
            log(_format_epoch(record))
    if best_params is not None:
        model.set_params(best_params)
    return result


def _format_epoch(record: EpochRecord) -> str:
    line = f"epoch {record.epoch}: loss={record.loss:.4f}"
    if record.dev_uas is not None:
        line += f" dev_uas={record.dev_uas:.2f} dev_las={record.dev_las:.2f}"
    return line


def hinge_kink_margin(model: Model, sentences: Sequence[Sentence],
                      paths: Sequence[OraclePath]) -> float:
    """Distance of the current loss to its nearest non-differentiability.

    The hinge loss is piecewise linear: it bends where a step loss crosses
    zero and where the violating argmax switches transitions.  Central
    finite differences are only trustworthy when this margin is well above
    the probe step, so gradient-check fixtures should verify it.
    ``paths`` are the sentences' compiled oracle paths; each is scored as
    the one batch that the loss, and so its finite differences, read.
    """
    margin = np.inf
    for sentence, path in zip(sentences, paths):
        scores = score_batch(model, model.encode(sentence).projected,
                             path.slots, path.conj_rows,
                             path.conj_inputs).scores
        violator, step_loss = _hinge_steps(scores, path.gold, path.competing,
                                           model.hp.margin)
        rows = np.flatnonzero(path.competing.any(axis=1))
        violator = violator[rows]
        # The best competitor after the violator; -inf where there is none.
        rest = np.where(path.competing[rows], scores[rows], -np.inf)
        rest[np.arange(len(rows)), violator] = -np.inf
        switch = scores[rows, violator] - rest.max(axis=1)
        margin = min(margin, np.abs(step_loss[rows]).min(initial=np.inf),
                     switch.min(initial=np.inf))
    return float(margin)


def jitter_params(model: Model, seed: int) -> None:
    """Move all trainable parameters to a generic random point.

    Freshly initialized models keep every transition score within a hair
    of every other (biases start at zero), which parks the hinge loss on
    top of its kinks; gradient checking needs a point in general position.
    """
    rng = np.random.default_rng(seed)
    # Drawn in the stored shapes, so that the draws do not depend on how
    # the model holds its arrays.
    for name in model.stored_trainable:
        noise = rng.normal(scale=0.35, size=model.stored_shapes[name])
        for array, columns in model.held_columns(name, noise):
            array += columns


@dataclass
class GradCheckEntry:
    key: str
    max_rel_error: float
    checked: int


@dataclass
class GradCheckReport:
    entries: List[GradCheckEntry]
    step: float
    tolerance: float
    kink_margin: float = float("inf")

    @property
    def max_rel_error(self) -> float:
        # NaN propagates through np.max, and then fails the check.
        return float(np.max([e.max_rel_error for e in self.entries], initial=0.0))

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def gradient_check(model: Model, sentences: Sequence[Sentence],
                   resources: FeatureResources, step: float = 1e-4,
                   tolerance: float = 1e-4,
                   keys: Optional[Sequence[str]] = None) -> GradCheckReport:
    """Compare analytic gradients with central finite differences.

    A NaN relative error fails the check.
    """
    for name, value in (("step", step), ("tolerance", tolerance)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"gradient check {name} must be positive and finite, "
                             f"got {value!r}")
    paths = [oracle_path(s, model, resources) for s in sentences]
    grads = model.arrays_of(batch_gradient(model, sentences, paths)[1])

    def loss_at_point() -> float:
        return sum(sentence_loss(model, s, p) for s, p in zip(sentences, paths))

    entries = []
    for key in keys if keys is not None else model.trainable:
        param = model.params[key]
        errors = []
        for index in np.ndindex(param.shape):
            original = param[index]
            param[index] = original + step
            loss_plus = loss_at_point()
            param[index] = original - step
            loss_minus = loss_at_point()
            param[index] = original
            numeric = (loss_plus - loss_minus) / (2.0 * step)
            analytic = grads[key][index]
            scale = max(abs(analytic), abs(numeric), 1e-6)
            errors.append(abs(analytic - numeric) / scale)
        entries.append(GradCheckEntry(
            key=key, max_rel_error=float(np.max(errors, initial=0.0)),
            checked=len(errors)))
    margin = hinge_kink_margin(model, sentences, paths)
    return GradCheckReport(entries=entries, step=step, tolerance=tolerance,
                           kink_margin=margin)
