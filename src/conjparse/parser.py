"""Greedy decoding with coordination-augmented transition scores.

At every configuration the base MLP scores all 2*|labels|+1 transitions;
when a right arc is possible, the auxiliary coordination MLP scores the
(second stack item, stack top) word pair and its output is added to the
score of the right transition that would create a "conj" arc.  The
highest-scoring legal transition is applied; ties break toward the lowest
transition index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .conj_features import extract_forms
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
    The conj arrays hold one row per entry of ``conj_rows``, the
    configurations whose conj score was added to ``conj_index``.
    """

    scores: np.ndarray
    mlp_hidden: np.ndarray
    conj_rows: np.ndarray
    conj_hidden: Optional[np.ndarray] = None
    conj_joint: Optional[np.ndarray] = None
    conj_index: Optional[int] = None


def conj_candidate(config: ParseConfiguration) -> Optional[Tuple[int, int]]:
    """(head, modifier) pair a right transition would connect, if any."""
    if len(config.stack) < 2:
        return None
    return config.stack[-2], config.stack[-1]


def score_config(model: Model, config: ParseConfiguration,
                 encoded: EncodedSentence, sentence: Sentence,
                 resources: FeatureResources) -> np.ndarray:
    """Augmented transition scores for one configuration.

    Scores one feature vector with the same model methods that
    ``score_batch`` applies to a matrix of them.
    """
    features, _ = model.config_feature_vector(config, encoded)
    scores, _ = model.transition_scores(features)
    right_conj = _conj_index(model)
    pair = conj_candidate(config)
    if right_conj is not None and pair is not None:
        conj_score, _, _ = model.conj_score(
            features, _conj_inputs(pair, sentence, resources))
        scores[right_conj] += conj_score
    return scores


def score_batch(model: Model, features: np.ndarray,
                pairs: Sequence[Optional[Tuple[int, int]]], sentence: Sentence,
                resources: FeatureResources) -> ScoredBatch:
    """Augmented transition scores for a batch of configurations.

    ``features`` has one feature vector per row and ``pairs`` the row's
    conj candidate.  The conj features of a pair are extracted once per
    batch, however many rows share it.
    """
    scores, mlp_hidden = model.transition_scores(features)
    right_conj = _conj_index(model)
    rows = np.array([row for row, pair in enumerate(pairs) if pair is not None],
                    dtype=np.intp)
    if right_conj is None or not rows.size:
        return ScoredBatch(scores, mlp_hidden, rows[:0])
    extracted: Dict[Tuple[int, int], np.ndarray] = {}
    for row in rows:
        if pairs[row] not in extracted:
            extracted[pairs[row]] = _conj_inputs(pairs[row], sentence, resources)
    conj_inputs = np.array([extracted[pairs[row]] for row in rows])
    conj_scores, conj_hidden, conj_joint = model.conj_score(features[rows],
                                                            conj_inputs)
    scores[rows, right_conj] += conj_scores
    return ScoredBatch(scores, mlp_hidden, rows, conj_hidden, conj_joint,
                       right_conj)


def _conj_index(model: Model) -> Optional[int]:
    """Transition whose score the coordination MLP adds to, if it is on."""
    if not model.hp.use_conj_features:
        return None
    return model.codec.right_index("conj")


def _conj_inputs(pair: Tuple[int, int], sentence: Sentence,
                 resources: FeatureResources) -> np.ndarray:
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
    config = initial_config(sentence)
    for _ in range(2 * len(sentence)):
        scores = score_config(model, config, encoded, sentence, resources)
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
