"""Arc-hybrid transition system with legality rules and a static oracle.

Three transition kinds over a stack / buffer / arc-set configuration:

* ``shift``    -- move the buffer front onto the stack
* ``left(l)``  -- attach the stack top to the buffer front, pop it
* ``right(l)`` -- attach the stack top to the item below it, pop it

A sentence of n tokens is parsed in exactly 2n transitions.  The system
derives projective trees only; ``oracle_sequence`` refuses non-projective
input outright.

The automaton has one state, ``ArcHybridState``, and one place that
applies a transition, ``ArcHybridState.take``.  Every derivation the
library walks, the greedy decoder's and the static oracle's, is one
``ArcHybridState.walk``: 2n transitions applied in place to one mutable
state, with no configuration copied per transition.  ``initial_config``
and ``apply`` step through a derivation one configuration at a time:
``apply`` takes the transition on a copy and leaves its argument as it
was.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

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
        if self.kind not in (SHIFT, LEFT, RIGHT):
            raise ValueError(f"unknown transition kind {self.kind!r}")
        if self.kind == SHIFT and self.label is not None:
            raise ValueError("shift carries no label")
        if self.kind in (LEFT, RIGHT) and self.label is None:
            raise ValueError(f"{self.kind} requires a label")

    def __str__(self) -> str:
        return self.kind if self.label is None else f"{self.kind}({self.label})"


_SHIFT = Transition(SHIFT)


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
        # Built once, so that decoding a transition builds no object.
        self._transitions = ((_SHIFT,)
                             + tuple(Transition(LEFT, l) for l in self.labels)
                             + tuple(Transition(RIGHT, l) for l in self.labels))

    def encode(self, transition: Transition) -> int:
        if transition.kind == SHIFT:
            return 0
        base = 1 if transition.kind == LEFT else 1 + len(self.labels)
        return base + self._label_index[transition.label]

    def decode(self, index: int) -> Transition:
        if not 0 <= index < self.size:
            raise ValueError(f"transition index {index} is outside the valid "
                             f"range 0..{self.size - 1}")
        return self._transitions[index]

    def right_index(self, label: str) -> Optional[int]:
        pos = self._label_index.get(label)
        if pos is None:
            return None
        return 1 + len(self.labels) + pos


@dataclass(eq=False)
class ArcHybridState:
    """Mutable automaton state of one derivation of an n-token sentence.

    ``stack`` is a list with the root node 0 at its bottom and ``buffer``
    the range of token ids not yet shifted.  Each transition is applied in
    place: ``heads`` and ``labels`` take the attachment of token i at
    position i - 1, and ``attached()`` grows by the attached token, so no
    arc set is copied.  ``arcs`` reads the attachments as (head id,
    dependent id, label) triples.
    """

    n: int
    stack: List[int] = field(init=False)
    buffer: range = field(init=False)
    heads: List[int] = field(init=False)
    labels: List[str] = field(init=False)
    _attached: Set[int] = field(init=False)

    def __post_init__(self):
        self.stack = [ROOT_ID]
        self.buffer = range(1, self.n + 1)
        self.heads = [ROOT_ID] * self.n
        self.labels = [""] * self.n
        self._attached = set()

    def attached(self) -> Set[int]:
        """Ids of the attached tokens; the live set, not a copy."""
        return self._attached

    @property
    def arcs(self) -> Tuple[Tuple[int, int, str], ...]:
        """(head, dependent, label) of each attached token, by dependent id."""
        return tuple((self.heads[dep - 1], dep, self.labels[dep - 1])
                     for dep in sorted(self._attached))

    def summary(self) -> str:
        return (f"stack={list(self.stack)} buffer={list(self.buffer)} "
                f"arcs={len(self._attached)}")

    def take(self, transition: Transition) -> None:
        """Apply a legal transition in place."""
        kind = transition.kind
        if kind == SHIFT:
            if not _shift_legal(self):
                raise IllegalTransitionError(f"{transition} illegal at {self.summary()}")
            self.stack.append(self.buffer[0])
            self.buffer = self.buffer[1:]
            return
        if not (_left_legal(self) if kind == LEFT else _right_legal(self)):
            raise IllegalTransitionError(f"{transition} illegal at {self.summary()}")
        dependent = self.stack.pop()
        self.heads[dependent - 1] = (self.buffer[0] if kind == LEFT
                                     else self.stack[-1])
        self.labels[dependent - 1] = transition.label
        self._attached.add(dependent)

    def walk(self, choose: Callable[["ArcHybridState"], Transition]
             ) -> "ArcHybridState":
        """Take the 2n transitions that ``choose`` picks; returns the state.

        ``choose`` sees the live state before each transition, which is
        then applied to it.  Any 2n legal transitions from the initial
        state end in the terminal state.
        """
        for _ in range(2 * self.n):
            self.take(choose(self))
        return self


def initial_config(n: int) -> ArcHybridState:
    return ArcHybridState(n)


def is_terminal(config: ArcHybridState) -> bool:
    return not config.buffer and len(config.stack) == 1 and config.stack[0] == ROOT_ID


def _shift_legal(config: ArcHybridState) -> bool:
    return bool(config.buffer)


def _left_legal(config: ArcHybridState) -> bool:
    return bool(config.buffer) and bool(config.stack) and config.stack[-1] != ROOT_ID


def _right_legal(config: ArcHybridState, single_root: bool = False) -> bool:
    if len(config.stack) < 2 or config.stack[-1] == ROOT_ID:
        return False
    if single_root and config.stack[-2] == ROOT_ID and config.buffer:
        # Keeping the root arc for the very last transition guarantees the
        # root heads exactly one token.
        return False
    return True


def legal_mask(config: ArcHybridState, codec: TransitionCodec,
               single_root: bool = False,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """Boolean legality vector aligned with the codec's transition indices.

    Written into ``out`` when given, a boolean array of ``codec.size``.
    """
    mask = np.empty(codec.size, dtype=bool) if out is None else out
    n = len(codec.labels)
    mask[0] = _shift_legal(config)
    mask[1:1 + n] = _left_legal(config)
    mask[1 + n:] = _right_legal(config, single_root)
    return mask


def apply(state: ArcHybridState, transition: Transition) -> ArcHybridState:
    """The successor of ``state`` under a legal transition.

    A copy of ``state`` takes ``transition``; ``state`` is left unchanged.
    """
    successor = copy.deepcopy(state)
    successor.take(transition)
    return successor


def static_oracle(config: ArcHybridState, sentence: Sentence,
                  gold_children: Dict[int, List[int]]) -> Transition:
    """Gold transition for a configuration on the oracle path.

    Reduce the stack top as soon as its gold head is reachable and all of
    its gold dependents are attached; otherwise shift.  ``config`` may be
    the live state of a walk, whose attached set grows in place, so each
    call costs the top's number of gold dependents.  Undefined for
    non-projective sentences, which it does not check: a caller walks a
    whole derivation, checks once that the sentence is projective, and
    passes ``gold_children``, which is ``sentence.gold_children()``.
    """
    if is_terminal(config):
        raise OracleError("oracle called on terminal configuration")
    stack = config.stack
    top = stack[-1] if stack else None
    if top is not None and top != ROOT_ID:
        tok = sentence.token(top)
        children = gold_children[top]
        ready = not children or config.attached().issuperset(children)
        if ready and config.buffer and tok.gold_head == config.buffer[0]:
            return Transition(LEFT, tok.gold_label)
        if ready and len(stack) >= 2 and tok.gold_head == stack[-2]:
            return Transition(RIGHT, tok.gold_label)
    if _shift_legal(config):
        return _SHIFT
    raise OracleError(f"oracle stuck at {config.summary()}")


def oracle_sequence(sentence: Sentence) -> List[Transition]:
    """Full gold transition sequence from the initial configuration.

    One ``ArcHybridState.walk`` that takes the ``static_oracle``'s
    transition at every state.
    """
    if not is_projective(sentence):
        raise OracleError("static oracle undefined for non-projective sentence")
    children = sentence.gold_children()
    sequence: List[Transition] = []

    def gold(state: ArcHybridState) -> Transition:
        sequence.append(static_oracle(state, sentence, children))
        return sequence[-1]

    ArcHybridState(len(sentence)).walk(gold)
    return sequence
