"""Low-level neural machinery: LSTM layers, MLPs, initialization, Adam.

Everything runs in float64 and is written as explicit forward/backward
pairs; gradients are derived analytically and verified against central
finite differences by the test suite.  The per-token gate math of the LSTM
cell lives in ``kernels``.

``lstm_forward``/``lstm_backward`` run a stack of independent
left-to-right LSTMs in one time loop, so each step is one stacked matmul
and one cell-kernel call for all of them; a single LSTM is a stack of one.
The backward half of each BiLSTM layer is the same LSTM run over the
reversed sequence, so ``bilstm_forward``/``bilstm_backward`` run both
directions as a stack of two: they reverse the backward direction's
inputs and flip its states and gradients back into sequence order.  The
backward pass writes each weight gradient with ``out=`` into the arrays
the caller gives, laid out as the weights: it neither adds to them nor
allocates its own.  It computes the per-step factors that the recurrence
leaves alone for one block of steps at a time, into one reused buffer, and
the cell kernel writes each step's preactivation gradient straight into
the array that the weight gradients are summed from.

``Adam`` updates one flat parameter vector in place, in the order Kingma &
Ba (2015, Section 2) give for efficiency: the bias corrections fold into
the step size and epsilon once per update, so each element takes one
divide.  An update takes its gradient one contiguous region at a time, so
a caller can hand over each region as soon as it is final and keep no
whole-vector gradient.  Each region is updated on the calling thread,
through one scratch block and the region's gradient itself, which it
overwrites with the update; the moment buffers ``m`` and ``v`` hold values
only after the first update.
"""

from __future__ import annotations

import contextlib
import math
from typing import (Callable, ContextManager, Iterator, List, Optional, Sequence,
                    Tuple)

import numpy as np

from . import kernels


def uniform(rng: np.random.Generator, bound: float, out: np.ndarray) -> None:
    """Fill ``out`` with the draws of ``rng.uniform(-bound, bound, out.shape)``.

    The draws go straight into ``out``: ``uniform`` computes
    ``low + (high - low) * u`` from the same stream of ``u`` as ``random``.
    """
    rng.random(out=out)
    out *= bound - -bound
    out += -bound


def glorot(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill the (rows, cols) array ``out`` with Glorot-uniform draws."""
    rows, cols = out.shape
    uniform(rng, np.sqrt(6.0 / (rows + cols)), out)


class LstmLayerCache:
    """Everything the backward pass needs for one stack of LSTMs.

    ``inputs`` is (D, T, In); ``hidden`` and ``cells`` are (T, D, H) and
    ``gates`` is (T, 5, D, H), the layouts of the time loop.
    """

    __slots__ = ("inputs", "hidden", "cells", "gates")

    def __init__(self, inputs, hidden, cells, gates):
        self.inputs = inputs
        self.hidden = hidden
        self.cells = cells
        self.gates = gates


def lstm_forward(inputs: np.ndarray, w_x: np.ndarray, w_h: np.ndarray,
                 b: np.ndarray) -> Tuple[np.ndarray, LstmLayerCache]:
    """Run a stack of D independent left-to-right LSTMs in one time loop.

    ``inputs`` is (D, T, In); row d of ``w_x`` (D, 4H, In), ``w_h``
    (D, 4H, H) and ``b`` (D, 4H) is the d-th LSTM.  Returns the (D, T, H)
    hidden states plus the cache for the backward pass.
    """
    stack, steps = inputs.shape[:2]
    hidden_size = w_h.shape[2]
    # Input contributions for all steps at once; the recurrent term is
    # added step by step.  A stacked matmul makes the same BLAS call per
    # LSTM as a two-dimensional one.
    preacts = np.matmul(inputs, w_x.transpose(0, 2, 1)) + b[:, np.newaxis]
    preact_gates = preacts.reshape(stack, steps, 4, hidden_size)
    preact = np.empty((4, stack, hidden_size))
    hidden = np.empty((steps, stack, hidden_size))
    cells = np.empty((steps, stack, hidden_size))
    gates = np.empty((steps, 5, stack, hidden_size))
    h_prev = np.zeros((stack, hidden_size))
    c_prev = np.zeros((stack, hidden_size))
    with np.errstate(over="ignore"):
        for t in range(steps):
            recurrent = np.matmul(w_h, h_prev[:, :, np.newaxis])
            np.add(preact_gates[:, t].transpose(1, 0, 2),
                   recurrent.reshape(stack, 4, hidden_size).transpose(1, 0, 2),
                   out=preact)
            kernels.cell_forward(preact, c_prev, hidden[t], cells[t], gates[t])
            h_prev = hidden[t]
            c_prev = cells[t]
    return hidden.transpose(1, 0, 2), LstmLayerCache(inputs, hidden, cells, gates)


def _backward_factors(gates: np.ndarray, cells: np.ndarray, start: int,
                      out: np.ndarray) -> None:
    """Per-step factors of the backward pass that the recurrence leaves alone.

    ``gates`` is a (T, 5, D, H) forward cache and ``cells`` the (T, D, H)
    cell states.  Fills row r of the (n, 7, D, H) ``out`` with the factors
    that ``kernels.cell_backward`` takes for step ``start + r``; the
    previous cell state of the first step is zeros.
    """
    stop = start + len(out)
    cache = gates[start:stop]
    np.subtract(1.0, cache[:, :3], out=out[:, :3])
    for row, source in ((3, cache[:, 4]), (4, cache[:, 3])):
        np.multiply(source, source, out=out[:, row])
        np.subtract(1.0, out[:, row], out=out[:, row])
    out[:, 5] = cache[:, 3]
    first = max(start, 1)
    out[:first - start, 6] = 0.0
    out[first - start:, 6] = cells[first - 1:stop - 1]


def lstm_backward(d_hidden: np.ndarray, cache: LstmLayerCache, w_x: np.ndarray,
                  w_h: np.ndarray, out: Sequence[np.ndarray]) -> np.ndarray:
    """Backpropagate through a stack of left-to-right LSTMs.

    ``d_hidden`` holds dLoss/dh per LSTM and step, (D, T, H).  Writes the
    gradients of (w_x, w_h, b) into the three arrays of ``out``, shaped as
    the weights, with the stack axis first; their old values are not read.
    Returns d_inputs, (D, T, In).  The step factors are computed for
    ``_FACTOR_BLOCK`` steps at a time, into one buffer reused block by
    block.
    """
    stack, steps, hidden_size = d_hidden.shape
    factors = np.empty((min(_FACTOR_BLOCK, steps), 7, stack, hidden_size))
    d_preacts = np.empty((stack, steps, 4 * hidden_size))
    d_preact_gates = d_preacts.reshape(stack, steps, 4, hidden_size)
    w_h_t = w_h.transpose(0, 2, 1)
    dc = np.zeros((stack, hidden_size))
    dh_rec = np.zeros((stack, hidden_size))
    for stop in range(steps, 0, -_FACTOR_BLOCK):
        start = max(stop - _FACTOR_BLOCK, 0)
        block = factors[:stop - start]
        _backward_factors(cache.gates, cache.cells, start, block)
        for t in range(stop - 1, start - 1, -1):
            dh_total = d_hidden[:, t] + dh_rec
            kernels.cell_backward(dh_total, dc, cache.gates[t], block[t - start],
                                  d_preact_gates[:, t].transpose(1, 0, 2), dc)
            if t:  # step 0 read the zero initial state: no gradient for it
                dh_rec = np.matmul(w_h_t, d_preacts[:, t, :, np.newaxis])[:, :, 0]
    d_w_x, d_w_h, d_b = out
    np.matmul(d_preacts.transpose(0, 2, 1), cache.inputs, out=d_w_x)
    np.sum(d_preacts, axis=1, out=d_b)
    # Step t read the hidden state of step t - 1; the first step read
    # zeros.  Each LSTM's hidden states are rows with a stride, which BLAS
    # reads as they lie.
    np.matmul(d_preacts[:, 1:].transpose(0, 2, 1),
              cache.hidden[:-1].transpose(1, 0, 2), out=d_w_h)
    return np.matmul(d_preacts, w_x)


# Row order of the direction axis of a BiLSTM layer's weights.
DIRECTIONS = ("fwd", "bwd")


def bilstm_forward(inputs: np.ndarray, layers: Sequence[Tuple[np.ndarray, ...]]
                   ) -> Tuple[np.ndarray, List[LstmLayerCache]]:
    """Stacked bidirectional LSTM over (T, In) inputs; output is (T, 2H).

    ``layers`` holds each layer's (w_x, w_h, b) with the direction axis
    first, ordered as ``DIRECTIONS``.  Both directions run as one stack:
    the backward LSTM is the forward one run over the reversed sequence.
    """
    caches = []
    current = inputs
    for w_x, w_h, b in layers:
        hidden, cache = lstm_forward(np.stack((current, current[::-1])), w_x, w_h, b)
        current = np.concatenate((hidden[0], hidden[1, ::-1]), axis=1)
        caches.append(cache)
    return current, caches


def bilstm_backward(d_output: np.ndarray, caches: Sequence[LstmLayerCache],
                    layers: Sequence[Tuple[np.ndarray, ...]],
                    grads: Sequence[Tuple[np.ndarray, ...]],
                    finished: Callable[[], None]) -> np.ndarray:
    """Backward through the stacked BiLSTM; returns the inputs' gradient.

    ``grads`` holds each layer's (w_x, w_h, b) gradients, laid out as
    ``layers``; ``lstm_backward`` writes every element of them.  The
    layers run from the top down, and ``finished()`` is called as soon as
    each layer's gradients are written and its weights are read no more.
    """
    hidden_size = d_output.shape[1] // 2
    d_current = d_output
    for layer in range(len(layers) - 1, -1, -1):
        w_x, w_h, _ = layers[layer]
        d_hidden = np.stack((d_current[:, :hidden_size],
                             d_current[::-1, hidden_size:]))
        d_in = lstm_backward(d_hidden, caches[layer], w_x, w_h, grads[layer])
        finished()
        d_current = d_in[0] + d_in[1, ::-1]
    return d_current


def mlp_forward(pre: np.ndarray, b1: np.ndarray, w2: np.ndarray,
                b2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """One tanh hidden layer, from its pre-activations without the bias.

    ``pre`` holds one row per input: ``x @ w1.T`` of an MLP with first
    layer ``w1``, which the caller computes (the parser's model sums it
    from per-node projections).  Returns (output, hidden) for the backward
    pass.
    """
    hidden = np.tanh(pre + b1)
    return hidden @ w2.T + b2, hidden


def mlp_backward(d_out: np.ndarray, hidden: np.ndarray, w2: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Backward of ``mlp_forward`` over a batch of rows.

    ``d_out`` and ``hidden`` hold one row per input.  Returns
    (d_pre, d_b1, d_w2, d_b2): d_pre per row, the parameter gradients
    summed over the rows.
    """
    d_pre = (d_out @ w2) * (1.0 - hidden * hidden)
    return d_pre, d_pre.sum(axis=0), d_out.T @ hidden, d_out.sum(axis=0)


# Elements per block of an Adam update.  Larger blocks mean fewer numpy
# calls; the scratch block and the blocks an update streams stay in L2.
_ADAM_BLOCK = 49152

# Steps per block of ``lstm_backward``'s factor table: the factors of a
# whole 100-step sequence would take 1.4 MB per layer at the default sizes.
_FACTOR_BLOCK = 16


class Adam:
    """Deterministic Adam over one flat parameter vector, updated in place.

    An update (``update``) advances the step count once and takes its
    gradient region by region: each ``step`` inside it updates one
    contiguous region of the vector, in any order, so a caller can hand
    over a region as soon as its gradient is final.  Every element sees the
    same operations in the same order, whatever the regions; the work runs
    on the calling thread, block by block, in the gradient's own block and
    one preallocated scratch block, so an update allocates no arrays.

    The update is Kingma & Ba's (2015, Section 2) efficient form of Adam:
    with ``t`` the step count, ``step_size = learning_rate *
    sqrt(1 - beta2**t) / (1 - beta1**t)`` and ``eps_t = eps *
    sqrt(1 - beta2**t)`` are computed once per ``step``, and each element
    moves by ``step_size * m / (sqrt(v) + eps_t)``.  That is the textbook
    ``learning_rate * m_hat / (sqrt(v_hat) + eps)`` with the bias
    corrections folded in: the same function, rounded differently, with
    one divide per element instead of three.  ``m`` and ``v`` hold the
    uncorrected moments.

    ``m`` and ``v`` are allocated uninitialised and hold values only after
    a step: the first update zeroes each of their blocks just before using
    it.
    """

    def __init__(self, params: np.ndarray, learning_rate: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.empty_like(params)
        self.v = np.empty_like(params)
        self._scratch = np.empty(min(_ADAM_BLOCK, params.size))
        # The open update's regions as (start, stop); None between updates.
        self._regions: Optional[List[Tuple[int, int]]] = None

    def update(self) -> ContextManager[None]:
        """One update, whose gradient ``step`` takes region by region.

        Advances ``t`` once; the regions must cover the vector exactly once.
        On leaving, raises ``ValueError`` if the regions covered less than
        the whole vector.  Updates do not nest.  A first update that raises
        leaves ``t`` at 0, so the next one zeroes the moments again.  An
        update that raises part-way, in a region or between two, is not
        rolled back: ``params``, ``m``, ``v`` and the gradients handed over
        stay updated or partly overwritten in the blocks it reached and
        unchanged in the others.  ``train_model`` then raises too, and the
        CLI writes no model.
        """
        return self._updating()

    @contextlib.contextmanager
    def _updating(self) -> Iterator[None]:
        if self._regions is not None:
            raise RuntimeError("an Adam update is already open")
        self.t += 1
        self._regions = []
        try:
            yield
            covered = sum(stop - start for start, stop in self._regions)
            if covered != self.params.size:
                raise ValueError(f"the update's regions cover {covered} of "
                                 f"{self.params.size} parameters")
        except BaseException:
            if self.t == 1:
                self.t = 0
            raise
        finally:
            self._regions = None

    def step(self, grads: np.ndarray, offset: int) -> None:
        """Update ``params[offset:offset + grads.size]``, one region of the
        open update, from ``grads``.

        Raises ``RuntimeError`` outside ``update``, and ``ValueError`` when
        ``grads`` is not a 1-D run inside the vector or overlaps a region
        the update already took; either changes nothing.  ``grads`` is the
        region's scratch space: on return it holds the update that was
        subtracted from the region, so that the region fell by exactly
        ``grads``.
        """
        if self._regions is None:
            raise RuntimeError("Adam.step takes a region of an open update()")
        stop = offset + grads.size
        if grads.ndim != 1 or offset < 0 or stop > self.params.size:
            raise ValueError(f"gradient region {offset}:{stop} of shape "
                             f"{grads.shape} is not inside the "
                             f"{self.params.size} parameters")
        for start, end in self._regions:
            if max(start, offset) < min(end, stop):
                raise ValueError(f"gradient region {offset}:{stop} overlaps "
                                 f"the update's region {start}:{end}")
        self._regions.append((offset, stop))
        first = self.t == 1
        # Kingma & Ba (2015), Section 2: the bias corrections fold into the
        # step size and epsilon, so that a block divides once.
        root_correction = math.sqrt(1.0 - self.beta2 ** self.t)
        step_size = (self.learning_rate * root_correction
                     / (1.0 - self.beta1 ** self.t))
        eps_t = self.eps * root_correction
        for low in range(offset, stop, _ADAM_BLOCK):
            block = slice(low, min(low + _ADAM_BLOCK, stop))
            g = grads[low - offset:block.stop - offset]
            m, v = self.m[block], self.v[block]
            root = self._scratch[:g.size]
            if first:
                m.fill(0.0)
                v.fill(0.0)
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=root)
            m += root
            v *= self.beta2
            # The gradient's last read: from here on its block holds the update.
            np.multiply(g, g, out=g)
            g *= 1.0 - self.beta2
            v += g
            # step_size * m / (sqrt(v) + eps_t)
            np.sqrt(v, out=root)
            root += eps_t
            np.divide(m, root, out=g)
            g *= step_size
            self.params[block] -= g
