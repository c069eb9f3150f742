"""The arc-hybrid automaton as immutable configurations, kept as a reference.

``conjparse.transitions`` applies every transition in place to one
mutable ``ArcHybridState``.  Here each transition builds a new
``ParseConfiguration`` from the old one, with the transition rules
written out once more, so the tests can walk both automata side by side
and require the same stacks, buffers, arcs and refusals.
"""

from dataclasses import dataclass
from typing import Set, Tuple

from conjparse.transitions import LEFT, SHIFT, IllegalTransitionError, Transition
from conjparse.treebank import ROOT_ID


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


def initial_config(n: int) -> ParseConfiguration:
    return ParseConfiguration(stack=(ROOT_ID,), buffer=tuple(range(1, n + 1)))


def _shift_legal(config: ParseConfiguration) -> bool:
    return bool(config.buffer)


def _left_legal(config: ParseConfiguration) -> bool:
    return bool(config.buffer) and bool(config.stack) and config.stack[-1] != ROOT_ID


def _right_legal(config: ParseConfiguration) -> bool:
    return len(config.stack) >= 2 and config.stack[-1] != ROOT_ID


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
    if not _right_legal(config):
        raise IllegalTransitionError(f"{transition} illegal at {config.summary()}")
    arc = (config.stack[-2], config.stack[-1], transition.label)
    return ParseConfiguration(
        stack=config.stack[:-1], buffer=config.buffer, arcs=config.arcs + (arc,)
    )
