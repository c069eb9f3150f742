import numpy as np
import pytest

import reference_transitions as reference
from conftest import make_sentence, random_projective_sentence, state_at
from conjparse.transitions import (
    LEFT,
    RIGHT,
    SHIFT,
    ArcHybridState,
    IllegalTransitionError,
    OracleError,
    Transition,
    TransitionCodec,
    apply,
    initial_config,
    is_terminal,
    legal_mask,
    oracle_sequence,
)

LABELS = ("dobj", "nsubj", "root")
CODEC = TransitionCodec(LABELS)


def _legal(config, single_root=False):
    """The legal transitions of ``config``, as a set."""
    mask = legal_mask(config, CODEC, single_root=single_root)
    return {CODEC.decode(int(index)) for index in np.flatnonzero(mask)}


def test_initial_config_shapes():
    config = initial_config(3)
    assert (config.stack, list(config.buffer), config.arcs) == ([0], [1, 2, 3], ())
    zero = initial_config(0)
    assert is_terminal(zero)
    assert list(initial_config(1).buffer) == [1]


def test_legal_initial_only_shift():
    config = initial_config(2)
    assert _legal(config) == {Transition(SHIFT)}


def test_legal_empty_buffer_only_right():
    config = state_at((0, 1, 2), ())
    expected = {Transition(RIGHT, l) for l in LABELS}
    assert _legal(config) == expected


def test_legal_terminal_empty():
    config = state_at((0,), ())
    assert _legal(config) == set()


def test_single_root_restriction():
    # With material left in the buffer, the root arc must wait.
    config = state_at((0, 2), (3,))
    plain = _legal(config)
    restricted = _legal(config, single_root=True)
    assert any(t.kind == RIGHT for t in plain)
    assert not any(t.kind == RIGHT for t in restricted)
    # Once the buffer is empty the single root arc is the only way out.
    final = state_at((0, 2), ())
    assert any(t.kind == RIGHT for t in _legal(final, single_root=True))


def test_legal_mask_matches_set():
    # The mask's transitions are the set that ``apply`` accepts; the
    # single-root mask drops just the early root arcs from it.
    rng = np.random.default_rng(0)
    for _ in range(50):
        sent = random_projective_sentence(rng, int(rng.integers(1, 7)))
        config = initial_config(len(sent))
        while not is_terminal(config):
            applicable = set()
            for transition in (CODEC.decode(i) for i in range(CODEC.size)):
                try:
                    apply(config, transition)
                except IllegalTransitionError:
                    continue
                applicable.add(transition)
            assert _legal(config) == applicable
            early_root = config.stack[-2:-1] == [0] and bool(config.buffer)
            assert _legal(config, single_root=True) == {
                t for t in applicable if not (early_root and t.kind == RIGHT)}
            legal = sorted(np.flatnonzero(legal_mask(config, CODEC)))
            config = apply(config, CODEC.decode(int(rng.choice(legal))))


def test_apply_left():
    config = state_at((0, 1), (2, 3))
    result = apply(config, Transition(LEFT, "nsubj"))
    assert result.arcs == ((2, 1, "nsubj"),)
    assert result.stack == [0]
    assert list(result.buffer) == [2, 3]


def test_apply_right():
    config = state_at((0, 2, 3), ())
    result = apply(config, Transition(RIGHT, "dobj"))
    assert result.arcs == ((2, 3, "dobj"),)
    assert result.stack == [0, 2]


def test_apply_shift():
    config = state_at((0,), (1,))
    result = apply(config, Transition(SHIFT))
    assert result.stack == [0, 1]
    assert list(result.buffer) == []


def _snapshot(state):
    return (tuple(state.stack), tuple(state.buffer), tuple(state.heads),
            tuple(state.labels), frozenset(state.attached()), state.arcs)


def test_apply_leaves_its_argument_unchanged():
    # Every transition, legal or not, is applied to each state of random
    # walks: a successor that shared a list or set with its argument would
    # change it.
    rng = np.random.default_rng(23)
    for _ in range(50):
        config = initial_config(int(rng.integers(1, 9)))
        while not is_terminal(config):
            before = _snapshot(config)
            successors = []
            for transition in map(CODEC.decode, range(CODEC.size)):
                try:
                    successors.append(apply(config, transition))
                except IllegalTransitionError:
                    pass
                assert _snapshot(config) == before
            config = successors[int(rng.integers(len(successors)))]


def test_apply_illegal_names_transition():
    config = state_at((0,), ())
    with pytest.raises(IllegalTransitionError, match="shift"):
        apply(config, Transition(SHIFT))
    with pytest.raises(IllegalTransitionError, match="left"):
        apply(initial_config(2), Transition(LEFT, "dobj"))


def test_is_terminal_cases():
    assert is_terminal(state_at((0,), ()))
    assert not is_terminal(state_at((0, 3), ()))
    assert not is_terminal(state_at((0,), (5,)))


def test_codec_enumeration():
    codec = TransitionCodec(LABELS)
    assert codec.size == 2 * len(LABELS) + 1
    seen = {codec.encode(codec.decode(i)) for i in range(codec.size)}
    assert seen == set(range(codec.size))
    assert codec.decode(0) == Transition(SHIFT)
    assert codec.right_index("nsubj") == 1 + len(LABELS) + LABELS.index("nsubj")
    assert codec.right_index("missing") is None


def test_transition_validation():
    with pytest.raises(ValueError):
        Transition(SHIFT, "x")
    with pytest.raises(ValueError):
        Transition(LEFT)
    with pytest.raises(ValueError, match="unknown transition kind 'reduce'"):
        Transition("reduce")


def test_oracle_he_eats_apples():
    sent = make_sentence([2, 0, 2], labels=["nsubj", "root", "dobj"])
    assert [str(t) for t in oracle_sequence(sent)] == [
        "shift", "left(nsubj)", "shift", "shift", "right(dobj)", "right(root)",
    ]


def test_oracle_single_token():
    sent = make_sentence([0], labels=["root"])
    assert [str(t) for t in oracle_sequence(sent)] == ["shift", "right(root)"]


def test_oracle_rejects_non_projective():
    sent = make_sentence([3, 4, 0, 3])
    with pytest.raises(OracleError):
        oracle_sequence(sent)


def test_oracle_roundtrip_on_random_projective_trees():
    rng = np.random.default_rng(13)
    for _ in range(300):
        sent = random_projective_sentence(rng, int(rng.integers(1, 11)))
        config = initial_config(len(sent))
        steps = 0
        for transition in oracle_sequence(sent):
            config = apply(config, transition)
            steps += 1
        assert is_terminal(config)
        assert steps == 2 * len(sent)
        derived = {(t.gold_head, t.id, t.gold_label) for t in sent}
        assert set(config.arcs) == derived


def test_single_head_invariant_under_random_walks():
    codec = TransitionCodec(LABELS)
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        config = initial_config(n)
        while not is_terminal(config):
            legal = np.flatnonzero(legal_mask(config, codec))
            config = apply(config, codec.decode(int(rng.choice(legal))))
            dependents = [dep for _, dep, _ in config.arcs]
            assert len(dependents) == len(set(dependents))
            on_stack = set(config.stack) - {0}
            in_buffer = set(config.buffer)
            attached = set(dependents)
            assert not (on_stack & in_buffer)
            assert not (on_stack & attached)
            assert not (in_buffer & attached)
            assert on_stack | in_buffer | attached == set(range(1, n + 1))


@pytest.mark.parametrize("index", [-1, CODEC.size])
def test_codec_decode_rejects_an_index_outside_its_range(index):
    with pytest.raises(ValueError, match=rf"^transition index {index} is outside "
                                         r"the valid range 0\.\.6$"):
        CODEC.decode(index)


def test_codec_decode_reuses_its_transitions():
    assert all(CODEC.decode(i) is CODEC.decode(i) for i in range(CODEC.size))


def test_state_walk_follows_apply_on_random_walks():
    # The library's in-place walk against the immutable reference automaton.
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(0, 12))
        single_root = bool(rng.integers(2))
        configs = []

        def choose(state):
            config = configs[-1] if configs else reference.initial_config(n)
            assert (tuple(state.stack), tuple(state.buffer)) == (config.stack,
                                                                  config.buffer)
            assert state.attached() == config.attached()
            assert state.arcs == tuple(sorted(config.arcs, key=lambda arc: arc[1]))
            mask = legal_mask(state, CODEC, single_root=single_root)
            np.testing.assert_array_equal(
                mask, legal_mask(config, CODEC, single_root=single_root))
            assert not is_terminal(state) and not is_terminal(config)
            # Every state of a walk has a legal transition, root rule or not.
            for either in (True, False):
                assert legal_mask(state, CODEC, single_root=either).any()
            transition = CODEC.decode(int(rng.choice(np.flatnonzero(mask))))
            configs.append(reference.apply(config, transition))
            return transition

        state = ArcHybridState(n).walk(choose)
        final = configs[-1] if configs else reference.initial_config(n)
        assert is_terminal(state) and is_terminal(final)
        assert len(configs) == 2 * n
        heads = {dep: (head, label) for head, dep, label in final.arcs}
        assert [heads[i] for i in range(1, n + 1)] == list(zip(state.heads,
                                                               state.labels))


@pytest.mark.parametrize("n, transition", [
    (0, Transition(SHIFT)),
    (1, Transition(LEFT, "dobj")),
    (1, Transition(RIGHT, "dobj")),
])
def test_state_refuses_what_apply_refuses(n, transition):
    with pytest.raises(IllegalTransitionError) as from_reference:
        reference.apply(reference.initial_config(n), transition)
    with pytest.raises(IllegalTransitionError) as from_state:
        ArcHybridState(n).take(transition)
    with pytest.raises(IllegalTransitionError) as from_apply:
        apply(initial_config(n), transition)
    assert str(from_state.value) == str(from_reference.value)
    assert str(from_apply.value) == str(from_reference.value)
