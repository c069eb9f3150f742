"""Arc-hybrid transition system with legality rules and a static oracle.

Three transition kinds over a stack / buffer / arc-set configuration:

* ``shift``    -- move the buffer front onto the stack
* ``left(l)``  -- attach the stack top to the buffer front, pop it
* ``right(l)`` -- attach the stack top to the item below it, pop it

A sentence of n tokens is parsed in exactly 2n transitions.  The system
derives projective trees only; ``oracle_sequence`` refuses non-projective
input outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .treebank import ROOT_ID, Sentence, is_projective

SHIFT = "shift"
LEFT = "left"
RIGHT = "right"


class IllegalTransitionError(ValueError):
    pass


class OracleError(ValueError):
    """The static oracle is undefined for this sentence or configuration."""


@dataclass(frozen=True)
class Transition:
    kind: str
    label: Optional[str] = None

    def __post_init__(self):
        if self.kind == SHIFT and self.label is not None:
            raise ValueError("shift carries no label")
        if self.kind in (LEFT, RIGHT) and self.label is None:
            raise ValueError(f"{self.kind} requires a label")

    def __str__(self) -> str:
        return self.kind if self.label is None else f"{self.kind}({self.label})"


@dataclass(frozen=True)
class ParseConfiguration:
    """Immutable automaton state: stack, buffer and collected arcs.

    Arcs are (head id, dependent id, label) triples.  The stack bottom is
    always the root node 0.
    """

    stack: Tuple[int, ...]
    buffer: Tuple[int, ...]
    arcs: Tuple[Tuple[int, int, str], ...] = ()

    def attached(self) -> Set[int]:
        return {dep for _, dep, _ in self.arcs}

    def summary(self) -> str:
        return f"stack={list(self.stack)} buffer={list(self.buffer)} arcs={len(self.arcs)}"


class TransitionCodec:
    """Fixed indexing of the 2*|labels|+1 transitions.

    Index 0 is shift, indices 1..L are left(label_i), L+1..2L right(label_i),
    following the label inventory order.  The greedy decoder's tie-break
    (lowest index wins) therefore prefers shift, then left arcs.
    """

    def __init__(self, labels: Sequence[str]):
        self.labels = tuple(labels)
        self._label_index = {label: i for i, label in enumerate(self.labels)}
        self.size = 2 * len(self.labels) + 1

    def encode(self, transition: Transition) -> int:
        if transition.kind == SHIFT:
            return 0
        base = 1 if transition.kind == LEFT else 1 + len(self.labels)
        return base + self._label_index[transition.label]

    def decode(self, index: int) -> Transition:
        if index == 0:
            return Transition(SHIFT)
        index -= 1
        n = len(self.labels)
        if index < n:
            return Transition(LEFT, self.labels[index])
        return Transition(RIGHT, self.labels[index - n])

    def right_index(self, label: str) -> Optional[int]:
        pos = self._label_index.get(label)
        if pos is None:
            return None
        return 1 + len(self.labels) + pos


def initial_config(n: int) -> ParseConfiguration:
    return ParseConfiguration(stack=(ROOT_ID,), buffer=tuple(range(1, n + 1)))


def is_terminal(config: ParseConfiguration) -> bool:
    return not config.buffer and config.stack == (ROOT_ID,)


def _shift_legal(config: ParseConfiguration) -> bool:
    return bool(config.buffer)


def _left_legal(config: ParseConfiguration) -> bool:
    return bool(config.buffer) and bool(config.stack) and config.stack[-1] != ROOT_ID


def _right_legal(config: ParseConfiguration, single_root: bool = False) -> bool:
    if len(config.stack) < 2 or config.stack[-1] == ROOT_ID:
        return False
    if single_root and config.stack[-2] == ROOT_ID and config.buffer:
        # Keeping the root arc for the very last transition guarantees the
        # root heads exactly one token.
        return False
    return True


def legal_mask(config: ParseConfiguration, codec: TransitionCodec,
               single_root: bool = False) -> np.ndarray:
    """Boolean legality vector aligned with the codec's transition indices."""
    mask = np.zeros(codec.size, dtype=bool)
    n = len(codec.labels)
    mask[0] = _shift_legal(config)
    if _left_legal(config):
        mask[1:1 + n] = True
    if _right_legal(config, single_root):
        mask[1 + n:] = True
    return mask


def apply(config: ParseConfiguration, transition: Transition) -> ParseConfiguration:
    """Apply a legal transition, returning the successor configuration."""
    if transition.kind == SHIFT:
        if not _shift_legal(config):
            raise IllegalTransitionError(f"{transition} illegal at {config.summary()}")
        return ParseConfiguration(
            stack=config.stack + (config.buffer[0],),
            buffer=config.buffer[1:],
            arcs=config.arcs,
        )
    if transition.kind == LEFT:
        if not _left_legal(config):
            raise IllegalTransitionError(f"{transition} illegal at {config.summary()}")
        arc = (config.buffer[0], config.stack[-1], transition.label)
        return ParseConfiguration(
            stack=config.stack[:-1], buffer=config.buffer, arcs=config.arcs + (arc,)
        )
    if transition.kind == RIGHT:
        if not _right_legal(config):
            raise IllegalTransitionError(f"{transition} illegal at {config.summary()}")
        arc = (config.stack[-2], config.stack[-1], transition.label)
        return ParseConfiguration(
            stack=config.stack[:-1], buffer=config.buffer, arcs=config.arcs + (arc,)
        )
    raise IllegalTransitionError(f"unknown transition kind {transition.kind!r}")


def static_oracle(config: ParseConfiguration, sentence: Sentence,
                  gold_children: Dict[int, List[int]]) -> Transition:
    """Gold transition for a configuration on the oracle path.

    Reduce the stack top as soon as its gold head is reachable and all of
    its gold dependents are attached; otherwise shift.  Undefined for
    non-projective sentences, which it does not check: a caller walks a
    whole derivation, checks once that the sentence is projective, and
    passes ``gold_children``, which is ``sentence.gold_children()``.
    """
    if is_terminal(config):
        raise OracleError("oracle called on terminal configuration")
    top = config.stack[-1] if config.stack else None
    if top is not None and top != ROOT_ID:
        tok = sentence.token(top)
        children = gold_children[top]
        ready = not children or set(children) <= config.attached()
        if ready and config.buffer and tok.gold_head == config.buffer[0]:
            return Transition(LEFT, tok.gold_label)
        if ready and len(config.stack) >= 2 and tok.gold_head == config.stack[-2]:
            return Transition(RIGHT, tok.gold_label)
    if _shift_legal(config):
        return Transition(SHIFT)
    raise OracleError(f"oracle stuck at {config.summary()}")


def oracle_sequence(sentence: Sentence) -> List[Transition]:
    """Full gold transition sequence from the initial configuration."""
    if not is_projective(sentence):
        raise OracleError("static oracle undefined for non-projective sentence")
    children = sentence.gold_children()
    config = initial_config(len(sentence))
    sequence: List[Transition] = []
    while not is_terminal(config):
        transition = static_oracle(config, sentence, children)
        sequence.append(transition)
        config = apply(config, transition)
    return sequence


def arcs_to_tree(arcs: Sequence[Tuple[int, int, str]], n: int) -> Tuple[List[int], List[str]]:
    """Turn an arc set into head/label lists indexed by token position."""
    heads = [ROOT_ID] * n
    labels = [""] * n
    for head, dep, label in arcs:
        heads[dep - 1] = head
        labels[dep - 1] = label
    return heads, labels
