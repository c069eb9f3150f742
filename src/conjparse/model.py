"""The trainable parser model.

Holds every parameter tensor in one name -> array dict: embedding tables,
the stacked BiLSTM, the transition-scoring MLP and the auxiliary
coordination MLP.  Every trainable array is a view into one flat float64
vector, so a best-epoch snapshot touches one vector.  The vector falls
into contiguous regions that the backward pass finishes one after another
(``Model.gradients``): the scoring MLPs with the padding vector, each
BiLSTM layer from the top down, and the embedding tables.  Each region's
gradient is written into one buffer the size of the largest region, and
the backward pass writes each gradient into its view of it.  Token
vectors are the concatenated forward/backward LSTM states over
[trainable word embedding ; pretrained embedding ; POS embedding]
inputs, with the artificial root encoded as an extra leading position.

A configuration's feature vector is the context vectors of its four
feature slots, and the first layer of both MLPs is linear in it.  So
``encode`` projects every node once, for every slot, through the first
layers (``project``); a configuration's first-layer pre-activations are
then the sum of its four slot rows (``first_layer``), the precomputation
of Chen & Manning (EMNLP 2014).  The coordination MLP's first layer
``conj.w1`` is held as its node columns, which follow ``mlp.w1`` in the
vector, and its six pair columns, ``conj.w1_pairs``, apart; so both
first layers are one view of the vector (``Model.first_weights``), and
their gradient one view of the gradient buffer.

Models serialize to a small versioned binary container, with ``conj.w1``
stored whole; loading restores every parameter bit-exactly.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import network
from .conj_features import FEATURE_SIZE
from .resources import EmbeddingTable
from .transitions import ArcHybridState, TransitionCodec
from .treebank import LabelInventory, OutputFile, Sentence

MODEL_MAGIC = b"CJPMODEL"
MODEL_VERSION = 1
# The pair columns of the stored ``conj.w1``, held as an array of their own.
CONJ_PAIRS = "conj.w1_pairs"


class ModelIOError(ValueError):
    pass


@dataclass
class Hyperparams:
    word_dim: int = 100
    pos_dim: int = 25
    pretrained_dim: int = 0  # set when an embedding table is attached
    lstm_layers: int = 2
    lstm_dim: int = 125
    mlp_dim: int = 100
    conj_mlp_dim: int = 100
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    word_dropout_alpha: float = 0.25
    margin: float = 1.0
    batch_size: int = 1
    use_conj_features: bool = True
    single_root: bool = True
    tune_pretrained: bool = False

    def __post_init__(self):
        # Checked here, so that no model is built with values that
        # ``Model.load`` refuses; an int given for a float becomes a float.
        vars(self).update(check_hyperparams(vars(self)))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data) -> "Hyperparams":
        """Inverse of ``to_dict``: every field present, each well typed.

        Checks the names here; the constructor checks the values.
        """
        _check_names(data)
        missing = [name for name in HYPERPARAM_TYPES if name not in data]
        if missing:
            raise ValueError(f"missing hyperparameter {missing[0]!r}")
        return cls(**data)


# Declared type of every hyperparameter; the annotations are strings.
HYPERPARAM_TYPES = {
    f.name: {"int": int, "float": float, "bool": bool}[f.type]
    for f in fields(Hyperparams)
}


# Allowed range of each numeric hyperparameter that has one.
HYPERPARAM_RANGES = {
    **{name: (lambda v: v >= 1, "at least 1")
       for name in ("word_dim", "pos_dim", "lstm_layers", "lstm_dim", "mlp_dim",
                    "conj_mlp_dim", "batch_size")},
    "pretrained_dim": (lambda v: v >= 0, "at least 0"),
    "learning_rate": (lambda v: v > 0.0, "positive"),
    "adam_eps": (lambda v: v > 0.0, "positive"),
    "margin": (lambda v: v > 0.0, "positive"),
    "beta1": (lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    "beta2": (lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    "word_dropout_alpha": (lambda v: v >= 0.0, "at least 0"),
}


def _check_names(values) -> None:
    """Raise ``ValueError`` unless ``values`` is a dict of hyperparameter names."""
    if not isinstance(values, dict):
        raise ValueError("hyperparameters must be a JSON object, "
                         f"got {type(values).__name__}")
    for name in values:
        if name not in HYPERPARAM_TYPES:
            raise ValueError(f"unknown hyperparameter {name!r}")


def check_hyperparams(values) -> dict:
    """Validate hyperparameter values by name, type and range.

    Returns a copy in which integers given for float fields become floats.
    Raises ``ValueError`` naming the first unknown, mistyped or
    out-of-range key; unknown keys are named before the others.
    """
    _check_names(values)
    checked = {}
    for name, value in values.items():
        kind = HYPERPARAM_TYPES[name]
        # bool is a subclass of int, so it is matched exactly.
        if kind is float and type(value) is int:
            value = float(value)
        if type(value) is not kind:
            raise ValueError(f"hyperparameter {name!r} must be {kind.__name__}, "
                             f"got {value!r}")
        if kind is float and not math.isfinite(value):
            raise ValueError(f"hyperparameter {name!r} must be finite, "
                             f"got {value!r}")
        rule = HYPERPARAM_RANGES.get(name)
        if rule is not None and not rule[0](value):
            raise ValueError(f"hyperparameter {name!r} must be {rule[1]}, "
                             f"got {value!r}")
        checked[name] = value
    return checked


class Vocabulary:
    """Form and POS inventories that start with the ``RESERVED`` entries."""

    UNK = 0
    ROOT = 1
    RESERVED = ("<unk>", "<root>")

    def __init__(self, forms: Sequence[str], pos_tags: Sequence[str],
                 counts: Dict[str, int]):
        self.forms = list(forms)
        self.pos_tags = list(pos_tags)
        for what, entries in (("forms", self.forms), ("POS tags", self.pos_tags)):
            if tuple(entries[:2]) != self.RESERVED:
                raise ValueError(f"vocabulary {what} must start with "
                                 f"{', '.join(self.RESERVED)}")
        self.counts = dict(counts)
        self._form_index = {f: i for i, f in enumerate(self.forms)}
        self._pos_index = {p: i for i, p in enumerate(self.pos_tags)}

    @classmethod
    def from_corpus(cls, sentences: Sequence[Sentence]) -> "Vocabulary":
        counts: Dict[str, int] = {}
        pos_seen = set()
        for sent in sentences:
            for tok in sent:
                counts[tok.form] = counts.get(tok.form, 0) + 1
                pos_seen.add(tok.pos)
        forms = [*cls.RESERVED, *sorted(counts)]
        pos_tags = [*cls.RESERVED, *sorted(pos_seen)]
        return cls(forms, pos_tags, counts)

    def word_id(self, form: str) -> int:
        return self._form_index.get(form, self.UNK)

    def pos_id(self, tag: str) -> int:
        return self._pos_index.get(tag, self.UNK)

    def count(self, form: str) -> int:
        return self.counts.get(form, 0)

    @property
    def n_forms(self) -> int:
        return len(self.forms)

    @property
    def n_pos(self) -> int:
        return len(self.pos_tags)


@dataclass
class EncodedSentence:
    """BiLSTM context vectors, one row per node (row 0 = root).

    ``nodes`` holds the context vectors with the padding vector as one
    more, last row, so that the feature slot -1 indexes the padding.
    ``projected`` is ``Model.project`` of ``nodes``, row for row; the
    training loss sets it to None once it has scored the oracle path.
    """

    nodes: np.ndarray
    projected: Optional[np.ndarray]
    word_ids: np.ndarray
    pos_ids: np.ndarray
    pre_ids: Optional[np.ndarray]
    lstm_caches: list


def _is_list_of(value, kind) -> bool:
    return isinstance(value, list) and all(type(item) is kind for item in value)


def _check_meta(meta) -> None:
    """Raise ``ModelIOError`` unless the header has every key, well typed."""
    def require(ok: bool, what: str) -> None:
        if not ok:
            raise ModelIOError(f"corrupt model metadata: {what}")

    require(isinstance(meta, dict), "header is not a JSON object")
    for key in ("arrays", "hyperparams", "labels", "vocab", "trainable",
                "pretrained_words"):
        require(key in meta, f"missing key {key!r}")
    require(_is_list_of(meta["labels"], str) and meta["labels"],
            "'labels' must be a non-empty list of strings")
    require(_is_list_of(meta["trainable"], str),
            "'trainable' must be a list of strings")
    require(meta["pretrained_words"] is None
            or _is_list_of(meta["pretrained_words"], str),
            "'pretrained_words' must be null or a list of strings")
    vocab = meta["vocab"]
    require(isinstance(vocab, dict)
            and _is_list_of(vocab.get("forms"), str)
            and _is_list_of(vocab.get("pos_tags"), str)
            and isinstance(vocab.get("counts"), dict)
            and _is_list_of(list(vocab["counts"].values()), int),
            "'vocab' must hold 'forms', 'pos_tags' and 'counts'")
    arrays = meta["arrays"]
    require(isinstance(arrays, list), "'arrays' must be a list")
    names = set()
    for spec in arrays:
        require(isinstance(spec, dict) and type(spec.get("name")) is str,
                "every array spec needs a string 'name'")
        name = spec["name"]
        require(name not in names, f"array {name!r} listed twice")
        names.add(name)
        require(spec.get("dtype") == "float64",
                f"array {name!r} must have dtype 'float64'")
        shape = spec.get("shape")
        require(_is_list_of(shape, int) and all(n >= 0 for n in shape),
                f"array {name!r} needs a 'shape' of non-negative integers")
    for name in meta["trainable"]:
        require(name in names, f"trainable array {name!r} is not stored")


def _vector_layout(shapes: Dict[str, Tuple[int, ...]], trainable: Sequence[str]
                   ) -> Dict[str, Tuple[int, Tuple[int, ...]]]:
    """Offset and shape of each trainable array in the flat vector.

    The arrays follow ``trainable``, except that some directly follow a
    partner: each LSTM array of the backward direction its forward twin,
    so that the two form one array with a leading direction axis, and the
    node columns of ``conj.w1`` ``mlp.w1``, so that the two form one
    first-layer matrix.
    """
    partner = {name: name.replace(".fwd.", ".bwd.")
               for name in trainable if ".fwd." in name}
    partner["mlp.w1"] = "conj.w1"
    order = []
    for name in trainable:
        if name in partner:
            order += [name, partner[name]]
        elif name not in partner.values():
            order.append(name)
    layout, offset = {}, 0
    for name in order:
        layout[name] = (offset, shapes[name])
        offset += math.prod(shapes[name])
    return layout


class Gradients(dict):
    """A training step's gradient buffer, keyed by parameter name.

    ``regions`` holds each region of ``Model.vector`` that the backward
    pass finishes as one, in the order it finishes them, as (gradient,
    offset in the vector); every region's gradient is a view of the start
    of one buffer, which the largest region spans.  So each trainable
    array's gradient is a view into that buffer at its place in its
    region, and the gradients of different regions share memory: a region
    must be handed on before the next one is written.  ``lstm`` holds
    each BiLSTM layer's (w_x, w_h, b) gradients as views with the
    direction axis first, as ``Model.lstm``, and ``first_weights`` the
    first layers' as one view, as ``Model.first_weights``.
    """

    def __init__(self, arrays: Dict[str, np.ndarray],
                 regions: List[Tuple[np.ndarray, int]],
                 lstm: List[Tuple[np.ndarray, ...]], first_weights: np.ndarray):
        super().__init__(arrays)
        self.regions = regions
        self.lstm = lstm
        self.first_weights = first_weights


# Where an array of the vector layout lies: (offset, size) -> flat view.
_Place = Callable[[int, int], np.ndarray]


def _in(vector: np.ndarray) -> _Place:
    """Places in ``vector`` itself."""
    return lambda offset, size: vector[offset:offset + size]


class Model:
    """All trainable state plus the label inventory and vocabulary.

    The trainable arrays of ``params`` are views into the flat ``vector``;
    a frozen ``pre_emb`` lives outside it.  Write into the arrays: a
    rebound name no longer reaches the vector.  ``lstm`` holds each BiLSTM
    layer's (w_x, w_h, b) as views with a leading direction axis, ordered
    as ``network.DIRECTIONS``, and ``first_weights`` the first layers of
    both MLPs as one view (``project``).  A new model's arrays are
    uninitialised; ``build`` and ``load`` fill them in place.  The
    gradient buffer (``gradients``) is allocated by the first training
    step, so a model which only parses never allocates it.

    ``stored_shapes`` and ``stored_trainable`` name the arrays as a model
    file stores them; ``params`` and ``trainable`` hold the stored
    ``conj.w1`` as two arrays, its node columns (``conj.w1``) and its pair
    columns (``CONJ_PAIRS``).
    """

    def __init__(self, hp: Hyperparams, vocab: Vocabulary, labels: LabelInventory,
                 pretrained_words: Optional[List[str]] = None):
        if not len(labels):
            # Without a label there is no arc transition, so no parse ends.
            raise ValueError("a model needs at least one dependency label")
        self.hp = hp
        self.vocab = vocab
        self.labels = labels
        self.codec = TransitionCodec(labels.labels)
        self.stored_shapes = self.param_shapes(hp, vocab, labels, pretrained_words)
        shapes = {}
        for name, shape in self.stored_shapes.items():
            shapes[name] = shape
            if name == "conj.w1":
                node_dim = self.feature_dim(hp)
                shapes[name] = (shape[0], node_dim)
                shapes[CONJ_PAIRS] = (shape[0], shape[1] - node_dim)
        self.trainable = [name for name in shapes
                          if name != "pre_emb" or hp.tune_pretrained]
        self.stored_trainable = [name for name in self.trainable
                                 if name != CONJ_PAIRS]
        self._layout = _vector_layout(shapes, self.trainable)
        self.vector = np.empty(sum(math.prod(shape) for _, shape
                                   in self._layout.values()))
        views = self.arrays_of(self.vector)
        self.params = {name: views[name] if name in views else np.empty(shape)
                       for name, shape in shapes.items()}
        self.lstm = self._direction_stacks(_in(self.vector))
        self.first_weights = self._first_weights(_in(self.vector))
        self._gradients: Optional[Gradients] = None
        self.pretrained_words = pretrained_words
        self._pre_index = (
            {w: i + 2 for i, w in enumerate(pretrained_words)}
            if pretrained_words is not None
            else None
        )

    def arrays_of(self, vector: np.ndarray) -> Dict[str, np.ndarray]:
        """Each trainable array's view into a vector laid out as ``vector``."""
        return self._views(_in(vector))

    def _views(self, place: _Place) -> Dict[str, np.ndarray]:
        """Each trainable array's view at its ``place``."""
        return {name: place(offset, math.prod(shape)).reshape(shape)
                for name, (offset, shape) in self._layout.items()}

    def _direction_stacks(self, place: _Place) -> List[Tuple[np.ndarray, ...]]:
        """Each LSTM layer's (w_x, w_h, b) views with the direction axis first."""
        stacks = []
        for layer in range(self.hp.lstm_layers):
            stack = []
            for kind in ("w_x", "w_h", "b"):
                offset, shape = self._layout[f"lstm.{layer}.fwd.{kind}"]
                stack.append(place(offset, 2 * math.prod(shape)).reshape(
                    (2,) + shape))
            stacks.append(tuple(stack))
        return stacks

    def _first_weights(self, place: _Place) -> np.ndarray:
        """``mlp.w1`` over the node columns of ``conj.w1`` at their
        ``place``, as one C-contiguous (4*(mlp_dim + conj_mlp_dim),
        2*lstm_dim) view with one row per (hidden unit, slot)."""
        node_dim = self.feature_dim(self.hp)
        size = (self.hp.mlp_dim + self.hp.conj_mlp_dim) * node_dim
        return place(self._layout["mlp.w1"][0], size).reshape(-1, node_dim // 4)

    def held_columns(self, name: str, stored: np.ndarray
                     ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """(array of ``params``, its columns of ``stored``) for each array
        that holds the stored array ``name``; ``stored`` has its stored
        shape."""
        if name != "conj.w1":
            return [(self.params[name], stored)]
        node_dim = self.feature_dim(self.hp)
        return [(self.params[name], stored[:, :node_dim]),
                (self.params[CONJ_PAIRS], stored[:, node_dim:])]

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def build(cls, hp: Hyperparams, vocab: Vocabulary, labels: LabelInventory,
              pretrained: Optional[EmbeddingTable] = None,
              seed: int = 0) -> "Model":
        """A freshly initialised model; ``seed`` fixes every draw.

        ``hp.pretrained_dim`` must be 0 or the dimension of ``pretrained``
        (0 without a table); the model's ``hp`` takes the table's.  Raises
        ``ValueError`` otherwise.
        """
        table_dim = 0 if pretrained is None else pretrained.dim
        if hp.pretrained_dim not in (0, table_dim):
            raise ValueError(
                f"pretrained_dim {hp.pretrained_dim} needs an embedding table"
                if pretrained is None else f"pretrained_dim {hp.pretrained_dim} "
                f"is not the embedding table's dimension {table_dim}")
        rng = np.random.default_rng(seed)
        pretrained_words = None
        # A copy: the caller's Hyperparams may build other models.
        hp = replace(hp, pretrained_dim=table_dim)
        if pretrained is not None:
            pretrained_words = sorted(pretrained.words())
        model = cls(hp, vocab, labels, pretrained_words)
        # Initialised in table order and stored shapes, which fixes the
        # draws for a seed.  The draws go straight into the parameter views,
        # but ``conj.w1``'s go into its stored shape first.
        for name, shape in model.stored_shapes.items():
            split = name == "conj.w1"
            value = np.empty(shape) if split else model.params[name]
            if name == "pre_emb":
                value[:2] = 0.0
                for row, word in enumerate(pretrained_words, start=2):
                    value[row] = pretrained.lookup(word)
            elif name.endswith("_emb"):
                network.uniform(rng, 0.1, value)
            elif name == "conj.w2":
                network.glorot(rng, value.reshape(1, -1))
            elif value.ndim == 2:
                network.glorot(rng, value)
            else:  # biases and the padding vector
                value.fill(0.0)
            if split:
                for array, columns in model.held_columns(name, value):
                    array[...] = columns
        return model

    @classmethod
    def param_shapes(cls, hp: Hyperparams, vocab: Vocabulary,
                     labels: LabelInventory,
                     pretrained_words: Optional[Sequence[str]]
                     ) -> Dict[str, Tuple[int, ...]]:
        """Name and shape of every parameter array as stored, in
        initialisation order.

        ``pre_emb`` is there when the model has pretrained words; its first
        two rows stand for unknown words and the root.
        """
        shapes: Dict[str, Tuple[int, ...]] = {
            "word_emb": (vocab.n_forms, hp.word_dim),
            "pos_emb": (vocab.n_pos, hp.pos_dim),
        }
        if pretrained_words is not None:
            shapes["pre_emb"] = (len(pretrained_words) + 2, hp.pretrained_dim)
        input_dim = hp.word_dim + hp.pretrained_dim + hp.pos_dim
        for layer in range(hp.lstm_layers):
            d_in = input_dim if layer == 0 else 2 * hp.lstm_dim
            for direction in ("fwd", "bwd"):
                prefix = f"lstm.{layer}.{direction}"
                shapes[f"{prefix}.w_x"] = (4 * hp.lstm_dim, d_in)
                shapes[f"{prefix}.w_h"] = (4 * hp.lstm_dim, hp.lstm_dim)
                shapes[f"{prefix}.b"] = (4 * hp.lstm_dim,)
        shapes["pad_vec"] = (2 * hp.lstm_dim,)
        feature_dim = cls.feature_dim(hp)
        n_transitions = 2 * len(labels) + 1
        shapes["mlp.w1"] = (hp.mlp_dim, feature_dim)
        shapes["mlp.b1"] = (hp.mlp_dim,)
        shapes["mlp.w2"] = (n_transitions, hp.mlp_dim)
        shapes["mlp.b2"] = (n_transitions,)
        shapes["conj.w1"] = (hp.conj_mlp_dim, feature_dim + FEATURE_SIZE)
        shapes["conj.b1"] = (hp.conj_mlp_dim,)
        shapes["conj.w2"] = (hp.conj_mlp_dim,)
        shapes["conj.b2"] = (1,)
        return shapes

    @staticmethod
    def feature_dim(hp: Hyperparams) -> int:
        # Context vectors of the top three stack items and the buffer front.
        return 4 * 2 * hp.lstm_dim

    @property
    def conj_transition(self) -> Optional[int]:
        """Transition whose score the coordination MLP adds to, if it is on."""
        if not self.hp.use_conj_features:
            return None
        return self.codec.right_index("conj")

    # ------------------------------------------------------------------
    # lookups and encoding

    def word_ids_of(self, sentence: Sentence) -> np.ndarray:
        ids = [Vocabulary.ROOT] + [self.vocab.word_id(t.form) for t in sentence]
        return np.array(ids, dtype=np.int64)

    def pos_ids_of(self, sentence: Sentence) -> np.ndarray:
        ids = [Vocabulary.ROOT] + [self.vocab.pos_id(t.pos) for t in sentence]
        return np.array(ids, dtype=np.int64)

    def pretrained_ids_of(self, sentence: Sentence) -> Optional[np.ndarray]:
        if self._pre_index is None:
            return None
        ids = [1]  # root row
        for tok in sentence:
            row = self._pre_index.get(tok.form)
            if row is None:
                row = self._pre_index.get(tok.form.lower(), 0)
            ids.append(row)
        return np.array(ids, dtype=np.int64)

    def encode(self, sentence: Sentence,
               word_ids: Optional[np.ndarray] = None) -> EncodedSentence:
        """Context vectors for root + every token; deterministic.

        ``word_ids`` overrides the plain vocabulary lookup so training can
        apply word dropout without touching the sentence itself.
        """
        if word_ids is None:
            word_ids = self.word_ids_of(sentence)
        pos_ids = self.pos_ids_of(sentence)
        pre_ids = self.pretrained_ids_of(sentence)
        parts = [self.params["word_emb"][word_ids]]
        if pre_ids is not None:
            parts.append(self.params["pre_emb"][pre_ids])
        parts.append(self.params["pos_emb"][pos_ids])
        inputs = np.ascontiguousarray(np.concatenate(parts, axis=1))
        vectors, caches = network.bilstm_forward(inputs, self.lstm)
        nodes = np.vstack([vectors, self.params["pad_vec"]])
        return EncodedSentence(nodes, self.project(nodes), word_ids, pos_ids,
                               pre_ids, caches)

    # ------------------------------------------------------------------
    # configuration features and scoring

    def feature_slots(self, config: ArcHybridState) -> List[int]:
        """Node ids feeding the feature vector; -1 marks the padding slot."""
        stack, buffer = config.stack, config.buffer
        return [
            stack[-1] if len(stack) >= 1 else -1,
            stack[-2] if len(stack) >= 2 else -1,
            stack[-3] if len(stack) >= 3 else -1,
            buffer[0] if buffer else -1,
        ]

    def config_feature_vector(self, config: ArcHybridState,
                              encoded: EncodedSentence
                              ) -> Tuple[np.ndarray, List[int]]:
        slots = self.feature_slots(config)
        return encoded.nodes[slots].reshape(-1), slots

    def project(self, vectors: np.ndarray) -> np.ndarray:
        """What each node vector adds to the first layer of both MLPs.

        ``vectors`` holds one node vector per row.  Row i of the result is
        (mlp_dim + conj_mlp_dim, 4): for each hidden unit of the
        transition MLP, then of the coordination MLP, and each feature
        slot, the pre-activation that node i adds when it fills that slot.
        One GEMM with the transpose of ``first_weights``, a C-contiguous
        view of the parameters: on OpenBLAS a row then rounds the same in
        any batch of two or more rows, which ``transition_scores`` relies
        on.
        """
        return (vectors @ self.first_weights.T).reshape(len(vectors), -1, 4)

    def first_layer(self, projected: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """First-layer pre-activations of configurations, without the biases.

        ``projected`` is ``project`` of a node table and ``slots`` holds
        one configuration's four rows of that table per row.  Row r is the
        sum of its slots' projections; its first ``mlp_dim`` columns
        belong to the transition MLP and the rest to the coordination MLP.
        One gather of every configuration's slot rows and one sum, which
        adds each configuration's slots left to right.
        """
        return projected[slots, :, np.arange(slots.shape[1])].sum(axis=1)

    def first_layer_backward(self, encoded: EncodedSentence, slots: np.ndarray,
                             d_first: np.ndarray, grads: Gradients) -> np.ndarray:
        """Backward of ``first_layer`` over ``encoded.projected``.

        Writes the gradients of ``mlp.w1`` and of the node columns of
        ``conj.w1`` with one product into their view
        ``grads.first_weights``; returns the gradient of ``encoded.nodes``.
        """
        n_nodes, (rows, n_slots) = len(encoded.nodes), slots.shape
        # Each (slot, node) projection's gradient sums the rows of
        # ``d_first`` that put the node in the slot: a product with a 0/1
        # matrix, far faster than ``np.add.at``.  Slot -1 is the last node.
        routes = np.zeros((n_slots * n_nodes, rows))
        routes[np.arange(n_slots) * n_nodes + slots % n_nodes,
               np.arange(rows)[:, np.newaxis]] = 1.0
        # One row per (hidden unit, slot), as the rows of ``first_weights``.
        d_projected = (d_first.T @ routes.T).reshape(-1, n_nodes)
        np.matmul(d_projected, encoded.nodes, out=grads.first_weights)
        return d_projected.T @ self.first_weights

    def base_scores(self, first: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Transition scores and MLP hidden of ``first_layer`` rows."""
        return network.mlp_forward(
            first[:, :self.hp.mlp_dim], self.params["mlp.b1"],
            self.params["mlp.w2"], self.params["mlp.b2"],
        )

    def transition_scores(self, features: np.ndarray
                          ) -> Tuple[np.ndarray, np.ndarray]:
        """Base scores for every transition; also returns the MLP hidden.

        ``features`` is one feature vector or a matrix with one per row.
        Each feature vector is projected as its four slot vectors, so its
        scores are bit-identical to those of the same configuration scored
        from a projected sentence.
        """
        expected = self.feature_dim(self.hp)
        if features.shape[-1] != expected:
            raise ValueError(
                f"feature vector has length {features.shape[-1]}, expected {expected}"
            )
        vectors = features.reshape(-1, expected // 4)
        slots = np.arange(len(vectors)).reshape(-1, 4)
        scores, hidden = self.base_scores(self.first_layer(self.project(vectors),
                                                           slots))
        if features.ndim == 1:
            return scores[0], hidden[0]
        return scores, hidden

    def conj_score(self, first: np.ndarray, conj_inputs: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """Auxiliary coordination scores; returns (score, hidden).

        ``first`` holds ``first_layer`` rows of configurations and
        ``conj_inputs`` their six conj inputs, one row each; the score is
        one value per row.
        """
        pre = (first[:, self.hp.mlp_dim:]
               + conj_inputs @ self.params[CONJ_PAIRS].T)
        hidden = np.tanh(pre + self.params["conj.b1"])
        score = hidden @ self.params["conj.w2"] + self.params["conj.b2"][0]
        return score, hidden

    # ------------------------------------------------------------------
    # persistence

    def save(self, sink) -> None:
        """Write the model to a path or binary file object.

        A path that cannot be written raises ``ModelIOError``.  A path is
        written through a ``treebank.OutputFile``: a failure leaves a
        previous file there as it was.
        """
        if hasattr(sink, "write"):
            self._write(sink)
            return
        try:
            with OutputFile(sink) as output:
                self._write(output)
        except OSError as exc:
            raise ModelIOError(f"cannot write {sink}: {exc.strerror or exc}") from None

    def _write(self, handle) -> None:
        order = sorted(self.stored_shapes)
        meta = {
            "hyperparams": self.hp.to_dict(),
            "labels": list(self.labels.labels),
            "vocab": {
                "forms": self.vocab.forms,
                "pos_tags": self.vocab.pos_tags,
                "counts": self.vocab.counts,
            },
            "pretrained_words": self.pretrained_words,
            "trainable": self.stored_trainable,
            "arrays": [
                {
                    "name": name,
                    "dtype": str(self.params[name].dtype),
                    "shape": list(self.stored_shapes[name]),
                }
                for name in order
            ],
        }
        meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
        handle.write(MODEL_MAGIC)
        handle.write(struct.pack("<I", MODEL_VERSION))
        handle.write(struct.pack("<Q", len(meta_bytes)))
        handle.write(meta_bytes)
        for name in order:
            array = self.params[name]
            if name == "conj.w1":
                array = np.concatenate([array, self.params[CONJ_PAIRS]], axis=1)
            handle.write(np.ascontiguousarray(array))

    @classmethod
    def load(cls, source) -> "Model":
        """Read a model from a path or binary file object.

        A path that cannot be read, and a file that is not a well-formed
        model, raise ``ModelIOError``.
        """
        if hasattr(source, "read"):
            data = source.read()
        else:
            try:
                with open(source, "rb") as handle:
                    data = handle.read()
            except OSError as exc:
                raise ModelIOError(f"cannot read {source}: {exc.strerror}") from None
        if len(data) < len(MODEL_MAGIC) + 12 or not data.startswith(MODEL_MAGIC):
            raise ModelIOError("not a parser model file (bad magic bytes)")
        offset = len(MODEL_MAGIC)
        (version,) = struct.unpack_from("<I", data, offset)
        offset += 4
        if version != MODEL_VERSION:
            raise ModelIOError(f"unsupported model version {version}")
        (meta_len,) = struct.unpack_from("<Q", data, offset)
        offset += 8
        if offset + meta_len > len(data):
            raise ModelIOError("truncated model file (metadata)")
        try:
            meta = json.loads(data[offset:offset + meta_len].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ModelIOError(f"corrupt model metadata: {exc}") from None
        offset += meta_len
        _check_meta(meta)
        # Read-only views into ``data``, copied into the model's arrays
        # once the header checks have passed.
        params: Dict[str, np.ndarray] = {}
        for spec in meta["arrays"]:
            shape = tuple(spec["shape"])
            count = math.prod(shape)
            n_bytes = 8 * count
            if offset + n_bytes > len(data):
                raise ModelIOError(f"truncated model file (array {spec['name']})")
            flat = np.frombuffer(data, dtype=np.float64, count=count, offset=offset)
            params[spec["name"]] = flat.reshape(shape)
            offset += n_bytes
        if offset != len(data):
            raise ModelIOError("trailing bytes after model payload")
        try:
            hp = Hyperparams.from_dict(meta["hyperparams"])
            labels = LabelInventory(tuple(meta["labels"]))
            vocab = Vocabulary(meta["vocab"]["forms"], meta["vocab"]["pos_tags"],
                               meta["vocab"]["counts"])
        except ValueError as exc:
            raise ModelIOError(f"corrupt model metadata: {exc}") from None
        expected = cls.param_shapes(hp, vocab, labels, meta["pretrained_words"])
        for name in [*expected, *sorted(params.keys() - expected.keys())]:
            if name not in params:
                raise ModelIOError(f"corrupt model metadata: array {name!r} is "
                                   "missing")
            if name not in expected:
                raise ModelIOError(f"corrupt model metadata: unexpected array "
                                   f"{name!r}")
            if params[name].shape != expected[name]:
                raise ModelIOError(
                    f"corrupt model metadata: array {name!r} has shape "
                    f"{list(params[name].shape)}, the header implies "
                    f"{list(expected[name])}")
        # ``build`` writes both or neither: a dimension without words would
        # make the BiLSTM inputs narrower than its weights.
        if (hp.pretrained_dim > 0) != (meta["pretrained_words"] is not None):
            raise ModelIOError("corrupt model metadata: " + (
                f"'pretrained_dim' {hp.pretrained_dim} without 'pretrained_words'"
                if hp.pretrained_dim else "'pretrained_words' with 'pretrained_dim' 0"))
        model = cls(hp, vocab, labels, meta["pretrained_words"])
        if meta["trainable"] != model.stored_trainable:
            raise ModelIOError("corrupt model metadata: 'trainable' does not "
                               "match the hyperparameters")
        # Checked in the model's own arrays: numpy checks aligned memory
        # faster than the views into ``data``.
        for name, array in params.items():
            for held, columns in model.held_columns(name, array):
                held[...] = columns
                if not np.isfinite(held).all():
                    raise ModelIOError(f"non-finite values in parameter {name}")
        return model

    # ------------------------------------------------------------------

    def gradients(self) -> Gradients:
        """The gradient buffer of the trainable arrays, region by region.

        The regions follow the vector's layout, in the order the backward
        pass (``training.sentence_loss``) finishes them: the scoring MLPs
        with the padding vector, from ``pad_vec`` to the end; each BiLSTM
        layer, from the top down; the embedding tables.  Each starts one
        buffer the size of the largest, allocated uninitialised by the first
        call and returned by every later one; no call writes it.
        """
        if self._gradients is None:
            starts = [0] + [self._layout[f"lstm.{layer}.fwd.w_x"][0]
                            for layer in range(self.hp.lstm_layers)]
            starts.append(self._layout["pad_vec"][0])
            bounds = list(zip(starts, starts[1:] + [self.vector.size]))[::-1]
            buffer = np.empty(max(stop - start for start, stop in bounds))

            def place(offset: int, size: int) -> np.ndarray:
                start = max(start for start, _ in bounds if start <= offset)
                return buffer[offset - start:offset - start + size]

            self._gradients = Gradients(
                self._views(place),
                [(buffer[:stop - start], start) for start, stop in bounds],
                self._direction_stacks(place), self._first_weights(place))
        return self._gradients

    def copy_params(self) -> np.ndarray:
        """A snapshot of the trainable parameters, for ``set_params``."""
        return self.vector.copy()

    def set_params(self, snapshot: np.ndarray) -> None:
        """Write a ``copy_params`` snapshot back into the parameter arrays."""
        np.copyto(self.vector, snapshot)
