"""Greedy decoding with coordination-augmented transition scores.

At every configuration the base MLP scores all 2*|labels|+1 transitions;
when a right arc is possible, the auxiliary coordination MLP scores the
(second stack item, stack top) word pair and its output is added to the
score of the right transition that would create a "conj" arc.  The
highest-scoring legal transition is applied; ties break toward the lowest
transition index.

The first layer of both MLPs comes from the sentence's per-node
projections (``Model.project``, computed by ``Model.encode``): scoring a
configuration sums its four slot rows and runs the rest of both MLPs on
that sum.  Training scores a whole oracle path, and parsing one
configuration at a time, through the same ``batch_inputs`` and
``score_batch``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .conj_features import FEATURE_SIZE, extract_forms
from .model import EncodedSentence, Model
from .resources import FeatureResources
from .transitions import (
    ParseConfiguration,
    apply,
    arcs_to_tree,
    initial_config,
    is_terminal,
    legal_mask,
)
from .treebank import Sentence


class DecodeError(RuntimeError):
    pass


@dataclass
class ScoredBatch:
    """Forward state of scoring a batch of configurations, kept for backprop.

    Row r of ``scores`` and ``mlp_hidden`` belongs to configuration r.
    ``conj_hidden`` holds one row per conj row of the batch, the
    configurations whose conj score was added to the score of
    ``Model.conj_transition``.
    """

    scores: np.ndarray
    mlp_hidden: np.ndarray
    conj_hidden: Optional[np.ndarray] = None


def conj_candidate(config: ParseConfiguration) -> Optional[Tuple[int, int]]:
    """(head, modifier) pair a right transition would connect, if any."""
    if len(config.stack) < 2:
        return None
    return config.stack[-2], config.stack[-1]


def batch_inputs(model: Model, configs: Sequence[ParseConfiguration],
                 sentence: Sentence, resources: FeatureResources,
                 extracted: Optional[Dict[Tuple[int, int], np.ndarray]] = None
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``score_batch``'s slots, conj rows and conj inputs for ``configs``.

    ``configs`` are configurations of ``sentence``; no row gets a conj
    score when the coordination scorer is off.  ``extracted`` maps the
    (head, modifier) pairs whose conj inputs are known to those inputs; a
    new pair's inputs are added to it.
    """
    slots = np.array([model.feature_slots(config) for config in configs],
                     dtype=np.intp)
    rows, inputs = [], []
    if model.conj_transition is not None:
        if extracted is None:
            extracted = {}
        for row, config in enumerate(configs):
            pair = conj_candidate(config)
            if pair is None:
                continue
            if pair not in extracted:
                extracted[pair] = pair_inputs(pair, sentence, resources)
            rows.append(row)
            inputs.append(extracted[pair])
    return (slots, np.array(rows, dtype=np.intp),
            np.array(inputs).reshape(len(rows), FEATURE_SIZE))


def score_config(model: Model, config: ParseConfiguration,
                 encoded: EncodedSentence, sentence: Sentence,
                 resources: FeatureResources,
                 extracted: Optional[Dict[Tuple[int, int], np.ndarray]] = None
                 ) -> np.ndarray:
    """Augmented transition scores for one configuration.

    Scores the configuration as a batch of one with ``score_batch``, the
    scorer that training applies to a whole oracle path; ``extracted`` is
    ``batch_inputs``' cache of the sentence's conj inputs.
    """
    slots, conj_rows, conj_inputs = batch_inputs(model, [config], sentence,
                                                 resources, extracted)
    return score_batch(model, encoded.projected, slots, conj_rows,
                       conj_inputs).scores[0]


def score_batch(model: Model, projected: np.ndarray, slots: np.ndarray,
                conj_rows: np.ndarray, conj_inputs: np.ndarray) -> ScoredBatch:
    """Augmented transition scores for a batch of configurations.

    ``projected`` is ``Model.project`` of a sentence's node table and
    ``slots`` holds one configuration's feature slots per row.  Row
    ``conj_rows[i]`` gets the coordination MLP's score of its first layer
    and ``conj_inputs[i]``, added to the transition
    ``model.conj_transition``.
    """
    first = model.first_layer(projected, slots)
    scores, mlp_hidden = model.base_scores(first)
    if not conj_rows.size:
        return ScoredBatch(scores, mlp_hidden)
    conj_scores, conj_hidden = model.conj_score(first[conj_rows], conj_inputs)
    scores[conj_rows, model.conj_transition] += conj_scores
    return ScoredBatch(scores, mlp_hidden, conj_hidden)


def pair_inputs(pair: Tuple[int, int], sentence: Sentence,
                resources: FeatureResources) -> np.ndarray:
    """Coordination MLP inputs of a (head, modifier) pair of ``sentence``."""
    head_id, modifier_id = pair
    return extract_forms(
        sentence.form_of(head_id), sentence.pos_of(head_id),
        sentence.form_of(modifier_id), sentence.pos_of(modifier_id),
        resources,
    ).to_inputs()


def augmented_scores(model: Model, config: ParseConfiguration,
                     encoded: EncodedSentence, sentence: Sentence,
                     resources: FeatureResources) -> np.ndarray:
    """Public name of ``score_config``."""
    return score_config(model, config, encoded, sentence, resources)


def greedy_parse(sentence: Sentence, model: Model, resources: FeatureResources,
                 single_root: Optional[bool] = None) -> Sentence:
    """Parse one sentence; returns a copy carrying predicted heads/labels."""
    if single_root is None:
        single_root = model.hp.single_root
    encoded = model.encode(sentence)
    extracted: Dict[Tuple[int, int], np.ndarray] = {}
    config = initial_config(len(sentence))
    for _ in range(2 * len(sentence)):
        scores = score_config(model, config, encoded, sentence, resources,
                              extracted)
        mask = legal_mask(config, model.codec, single_root=single_root)
        if not mask.any():
            raise DecodeError(f"no legal transition at {config.summary()}")
        masked = np.where(mask, scores, -np.inf)
        index = int(np.argmax(masked))
        config = apply(config, model.codec.decode(index))
    if not is_terminal(config):
        raise DecodeError(f"decoder finished in non-terminal state {config.summary()}")
    heads, labels = arcs_to_tree(config.arcs, len(sentence))
    return sentence.with_predictions(heads, labels)


def parse_corpus(sentences, model: Model, resources: FeatureResources,
                 single_root: Optional[bool] = None) -> List[Sentence]:
    return [greedy_parse(s, model, resources, single_root) for s in sentences]
