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
that sum.  Training scores a whole oracle path as one batch, and parsing
each state of its walk as a batch of one, through the same
``score_batch``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .conj_features import FEATURE_SIZE, extract_forms
from .model import EncodedSentence, Model
from .resources import FeatureResources
from .transitions import ArcHybridState, Transition, legal_mask
# Not called here; perfbench's tests check that its tracer wraps this name.
from .transitions import apply  # noqa: F401
from .treebank import Sentence


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


def conj_candidate(config: ArcHybridState) -> Optional[Tuple[int, int]]:
    """(head, modifier) pair a right transition would connect, if any."""
    if len(config.stack) < 2:
        return None
    return config.stack[-2], config.stack[-1]


def batch_inputs(model: Model, pairs: Sequence[Optional[Tuple[int, int]]],
                 sentence: Sentence, resources: FeatureResources
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """``score_batch``'s conj rows and conj inputs for a batch of ``sentence``.

    ``pairs[r]`` is ``conj_candidate`` of row r's configuration.  No row
    gets a conj score when the coordination scorer is off.  Each distinct
    pair's inputs are extracted once.
    """
    rows: List[int] = []
    if model.conj_transition is not None:
        rows = [row for row, pair in enumerate(pairs) if pair is not None]
    extracted: Dict[Tuple[int, int], np.ndarray] = {}
    inputs = [pair_inputs(pairs[row], sentence, resources, extracted)
              for row in rows]
    return (np.array(rows, dtype=np.intp),
            np.array(inputs).reshape(len(rows), FEATURE_SIZE))


# The conj rows of a one-row batch, without and with a conj score.
_NO_ROWS = np.zeros(0, dtype=np.intp)
_NO_INPUTS = np.zeros((0, FEATURE_SIZE))
_FIRST_ROW = np.zeros(1, dtype=np.intp)
for _array in (_NO_ROWS, _NO_INPUTS, _FIRST_ROW):
    _array.flags.writeable = False


def score_config(model: Model, config: ArcHybridState,
                 encoded: EncodedSentence, sentence: Sentence,
                 resources: FeatureResources,
                 extracted: Optional[Dict[Tuple[int, int], np.ndarray]] = None
                 ) -> np.ndarray:
    """Augmented transition scores for one configuration.

    Scores the configuration as a batch of one with ``score_batch``, the
    scorer that training applies to a whole oracle path.  ``extracted``
    caches the sentence's conj inputs by pair, as ``pair_inputs`` keeps it.
    """
    slots = np.array([model.feature_slots(config)], dtype=np.intp)
    pair = None if model.conj_transition is None else conj_candidate(config)
    if pair is None:
        return score_batch(model, encoded.projected, slots, _NO_ROWS,
                           _NO_INPUTS).scores[0]
    inputs = pair_inputs(pair, sentence, resources,
                         {} if extracted is None else extracted)
    return score_batch(model, encoded.projected, slots, _FIRST_ROW,
                       inputs[np.newaxis]).scores[0]


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
    scores[:, model.conj_transition][conj_rows] += conj_scores
    return ScoredBatch(scores, mlp_hidden, conj_hidden)


def pair_inputs(pair: Tuple[int, int], sentence: Sentence,
                resources: FeatureResources,
                extracted: Dict[Tuple[int, int], np.ndarray]) -> np.ndarray:
    """Coordination MLP inputs of a (head, modifier) pair of ``sentence``.

    ``extracted`` maps the pairs whose inputs are known to those inputs;
    a new pair's inputs are extracted and added to it.
    """
    inputs = extracted.get(pair)
    if inputs is None:
        head_id, modifier_id = pair
        inputs = extracted[pair] = extract_forms(
            sentence.form_of(head_id), sentence.pos_of(head_id),
            sentence.form_of(modifier_id), sentence.pos_of(modifier_id),
            resources,
        ).to_inputs()
    return inputs


def augmented_scores(model: Model, config: ArcHybridState,
                     encoded: EncodedSentence, sentence: Sentence,
                     resources: FeatureResources) -> np.ndarray:
    """Public name of ``score_config``."""
    return score_config(model, config, encoded, sentence, resources)


def greedy_parse(sentence: Sentence, model: Model,
                 resources: FeatureResources) -> Sentence:
    """Parse one sentence; returns a copy carrying predicted heads/labels.

    One ``ArcHybridState.walk``.  At each of its 2n states ``score_config``
    scores the state as a one-row batch, the transitions that are illegal
    under ``model.hp.single_root`` are masked and the highest score wins,
    ties going to the lowest transition index.  Every state has a legal
    transition: shift while the buffer holds a token, then a right arc.
    No configuration or transition object is built per step, and each
    distinct conj pair is extracted once.
    """
    encoded = model.encode(sentence)
    codec = model.codec
    single_root = model.hp.single_root
    extracted: Dict[Tuple[int, int], np.ndarray] = {}
    legal = np.empty(codec.size, dtype=bool)

    def best(state: ArcHybridState) -> Transition:
        scores = score_config(model, state, encoded, sentence, resources,
                              extracted)
        scores[~legal_mask(state, codec, single_root, out=legal)] = -np.inf
        return codec.decode(int(scores.argmax()))

    state = ArcHybridState(len(sentence)).walk(best)
    return sentence.with_predictions(state.heads, state.labels)


def parse_corpus(sentences, model: Model,
                 resources: FeatureResources) -> List[Sentence]:
    return [greedy_parse(s, model, resources) for s in sentences]
