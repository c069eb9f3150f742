import json
import math
import pathlib
import random
import struct
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from conjparse import training
from conjparse.model import (
    CONJ_PAIRS,
    MODEL_MAGIC,
    MODEL_VERSION,
    Hyperparams,
    Model,
    Vocabulary,
)
from conjparse.resources import (
    EmbeddingTable,
    FeatureResources,
    LemmaLexicon,
    SentimentLexicon,
)
from conjparse.transitions import (
    ArcHybridState,
    TransitionCodec,
    apply,
    initial_config,
    is_terminal,
    legal_mask,
)
from conjparse.treebank import LabelInventory, Sentence, Token, read_conll

# Every property test draws the same examples on every run, and keeps none
# between runs: a test's result depends on the code alone.  Each test still
# sets its own example count and deadline.
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")

REPO = pathlib.Path(__file__).resolve().parent.parent
DATA = REPO / "data"
TESTS_DATA = pathlib.Path(__file__).resolve().parent / "data"
GRADCHECK_FIXTURE = REPO / "src" / "conjparse" / "data" / "gradcheck.conllx"

_LABEL_POOL = ("root", "nsubj", "dobj", "det", "amod", "conj", "punct")
_POS_POOL = ("NN", "VBZ", "DT", "JJ", ",")
_FORM_POOL = ("alpha", "beta", "Gamma", "delta", "epsilon", "zeta", ",", "run")


def make_sentence(heads, labels=None, forms=None, pos=None) -> Sentence:
    """Sentence from parallel head/label/form/pos lists (1-based heads)."""
    n = len(heads)
    labels = labels or ["dep"] * n
    forms = forms or [f"w{i}" for i in range(1, n + 1)]
    pos = pos or ["NN"] * n
    return Sentence(tuple(
        Token(id=i + 1, form=forms[i], pos=pos[i], gold_head=heads[i],
              gold_label=labels[i])
        for i in range(n)
    ))


def state_at(stack, buffer) -> ArcHybridState:
    """An ``ArcHybridState`` with the given stack and buffer and no arcs.

    The sentence ends with the largest id given, and ``buffer`` is the run
    of ids from its first to that last one.
    """
    n = max((*stack, *buffer))
    state = ArcHybridState(n)
    state.stack = list(stack)
    state.buffer = range(buffer[0] if buffer else n + 1, n + 1)
    assert tuple(state.buffer) == tuple(buffer)
    return state


def break_analytic_gradient(monkeypatch, key: str) -> None:
    """Offset the analytic gradient of ``key`` by 0.5 in ``gradient_check``."""
    real = training.batch_gradient

    def broken(model, *args, **kwargs):
        loss, vector = real(model, *args, **kwargs)
        model.arrays_of(vector)[key] += 0.5
        return loss, vector

    monkeypatch.setattr(training, "batch_gradient", broken)


def discard_gradient(gradient, offset) -> None:
    """A hand-over for ``training.sentence_loss`` that keeps nothing."""


def gradient_buffer(grads) -> np.ndarray:
    """The one buffer under a ``Model.gradients()``: its largest region."""
    return max((gradient for gradient, _ in grads.regions), key=np.size)


def random_tree_sentence(rng: np.random.Generator, n: int) -> Sentence:
    """Arbitrary (often non-projective) single-headed tree over n tokens."""
    order = list(rng.permutation(n))
    heads = [0] * n
    placed = []
    for position in order:
        if placed:
            heads[position] = int(rng.choice(placed)) + 1 if rng.random() < 0.8 else 0
        placed.append(position)
    labels = [str(rng.choice(_LABEL_POOL)) for _ in range(n)]
    forms = [str(rng.choice(_FORM_POOL)) for _ in range(n)]
    pos = [str(rng.choice(_POS_POOL)) for _ in range(n)]
    return make_sentence(heads, labels, forms, pos)


def random_projective_sentence(rng: np.random.Generator, n: int,
                               labels=("root", "nsubj", "dobj", "conj")) -> Sentence:
    """Projective single-root-child tree via a random legal transition walk."""
    codec = TransitionCodec(labels)
    config = initial_config(n)
    while not is_terminal(config):
        mask = legal_mask(config, codec, single_root=True)
        choices = np.flatnonzero(mask)
        config = apply(config, codec.decode(int(rng.choice(choices))))
    heads = [0] * n
    out_labels = ["dep"] * n
    for head, dep, label in config.arcs:
        heads[dep - 1] = head
        out_labels[dep - 1] = label
    forms = [str(rng.choice(_FORM_POOL)) for _ in range(n)]
    pos = [str(rng.choice(_POS_POOL)) for _ in range(n)]
    return make_sentence(heads, out_labels, forms, pos)


def sample_tree_sentence(rng: random.Random, tokens, n: int) -> Sentence:
    """A projective tree over ``n`` of ``tokens``, picked at random.

    Each span picks its root at random and hangs the spans on either side
    of it off that root, so every subtree is contiguous.
    """
    heads = [0] * (n + 1)
    spans = [(1, n, 0)]
    while spans:
        low, high, head = spans.pop()
        if low <= high:
            root = rng.randint(low, high)
            heads[root] = head
            spans += [(low, root - 1, root), (root + 1, high, root)]
    picks = [rng.choice(tokens) for _ in range(n)]
    return Sentence(tuple(
        Token(i, tok.form, tok.pos, heads[i], tok.gold_label, tok.lemma)
        for i, tok in enumerate(picks, start=1)))


def data_resources() -> FeatureResources:
    """All four lexical resources shipped in ``data/``."""
    return FeatureResources(
        lemmas=LemmaLexicon.load(DATA / "lemmas.tsv"),
        sentiment=SentimentLexicon.load(DATA / "sentiment_positive.txt",
                                        DATA / "sentiment_negative.txt"),
        embeddings=EmbeddingTable.load(DATA / "embeddings_sample.txt"),
    )


def tiny_model(sentences, seed=3, **hp_overrides) -> Model:
    defaults = dict(word_dim=5, pos_dim=3, lstm_layers=2, lstm_dim=4,
                    mlp_dim=6, conj_mlp_dim=5, word_dropout_alpha=0.0)
    defaults.update(hp_overrides)
    hp = Hyperparams(**defaults)
    vocab = Vocabulary.from_corpus(sentences)
    labels = LabelInventory.from_sentences(sentences)
    return Model.build(hp, vocab, labels, seed=seed)


def conj_w1(arrays) -> np.ndarray:
    """The coordination MLP's whole first-layer matrix, as a model file
    stores it: the node columns ``conj.w1`` of ``arrays`` (parameters or
    gradients by name) joined to their pair columns."""
    return np.concatenate([arrays["conj.w1"], arrays[CONJ_PAIRS]], axis=1)


def split_model_file(payload: bytes):
    """(metadata dict, array bytes) of a saved model file."""
    start = len(MODEL_MAGIC) + 12
    (meta_len,) = struct.unpack_from("<Q", payload, start - 8)
    return json.loads(payload[start:start + meta_len]), payload[start + meta_len:]


def join_model_file(meta, arrays: bytes) -> bytes:
    """Inverse of ``split_model_file``."""
    meta_bytes = json.dumps(meta).encode("utf-8")
    return (MODEL_MAGIC + struct.pack("<I", MODEL_VERSION)
            + struct.pack("<Q", len(meta_bytes)) + meta_bytes + arrays)


def drop_model_array(meta, arrays: bytes, name: str) -> bytes:
    """Remove array ``name`` from ``split_model_file``'s manifest ``meta``;
    returns ``arrays`` without its bytes."""
    offset = 0
    for index, spec in enumerate(meta["arrays"]):
        size = 8 * math.prod(spec["shape"])
        if spec["name"] == name:
            del meta["arrays"][index]
            return arrays[:offset] + arrays[offset + size:]
        offset += size
    raise KeyError(name)


def peak_bytes(fn):
    """(``fn()``, the peak bytes tracemalloc saw allocated while it ran)."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def whole_step(optimizer, grads):
    """One update of ``optimizer`` that takes ``grads`` as a single region."""
    with optimizer.update():
        optimizer.step(grads, 0)


@pytest.fixture(scope="session")
def sample_sentences():
    return read_conll(DATA / "sample_treebank.conllx")


@pytest.fixture(scope="session")
def gradcheck_sentences():
    return read_conll(GRADCHECK_FIXTURE)


@pytest.fixture()
def empty_resources():
    return FeatureResources.empty()
