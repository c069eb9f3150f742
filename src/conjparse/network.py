"""Low-level neural machinery: LSTM layers, MLPs, initialization, Adam.

Everything runs in float64 and is written as explicit forward/backward
pairs; gradients are derived analytically and verified against central
finite differences by the test suite.  The per-token gate math of the LSTM
cell lives in ``kernels``.

``lstm_forward``/``lstm_backward`` run one LSTM left to right.  The
backward half of each BiLSTM layer is that same LSTM run over the reversed
sequence; ``bilstm_forward``/``bilstm_backward`` reverse its inputs and
flip its states and gradients back into sequence order.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from . import kernels


def glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


class LstmLayerCache:
    """Everything the backward pass needs for one direction of one layer."""

    __slots__ = ("inputs", "hidden", "cells", "gates")

    def __init__(self, inputs, hidden, cells, gates):
        self.inputs = inputs
        self.hidden = hidden
        self.cells = cells
        self.gates = gates


def lstm_forward(inputs: np.ndarray, w_x: np.ndarray, w_h: np.ndarray,
                 b: np.ndarray) -> Tuple[np.ndarray, LstmLayerCache]:
    """Run one left-to-right LSTM over a (T, D) input sequence.

    Returns the (T, H) hidden states plus the cache for the backward pass.
    """
    steps = inputs.shape[0]
    hidden_size = w_h.shape[1]
    # Input contributions for all steps at once; the recurrent term is
    # added step by step.
    preacts = inputs @ w_x.T + b
    hidden = np.zeros((steps, hidden_size))
    cells = np.zeros((steps, hidden_size))
    gates = np.zeros((steps, 5, hidden_size))
    h_prev = np.zeros(hidden_size)
    c_prev = np.zeros(hidden_size)
    for t in range(steps):
        preacts[t] += w_h @ h_prev
        kernels.cell_forward(preacts[t], c_prev, hidden[t], cells[t], gates[t])
        h_prev = hidden[t]
        c_prev = cells[t]
    return hidden, LstmLayerCache(inputs, hidden, cells, gates)


def lstm_backward(d_hidden: np.ndarray, cache: LstmLayerCache, w_x: np.ndarray,
                  w_h: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Backpropagate through one left-to-right LSTM.

    ``d_hidden`` holds dLoss/dh per step.  Returns
    (d_inputs, d_w_x, d_w_h, d_b).
    """
    steps, hidden_size = d_hidden.shape
    d_preacts = np.zeros((steps, 4 * hidden_size))
    dc_next = np.zeros(hidden_size)
    dh_rec = np.zeros(hidden_size)
    dc_prev = np.zeros(hidden_size)
    for t in range(steps - 1, -1, -1):
        dh_total = d_hidden[t] + dh_rec
        c_prev = cache.cells[t - 1] if t > 0 else np.zeros(hidden_size)
        kernels.cell_backward(dh_total, dc_next, cache.gates[t], c_prev,
                              d_preacts[t], dc_prev)
        dc_next = dc_prev.copy()
        dh_rec = w_h.T @ d_preacts[t]
    d_w_x = d_preacts.T @ cache.inputs
    d_b = d_preacts.sum(axis=0)
    # Step t read the hidden state of step t - 1; the first step read zeros.
    d_w_h = d_preacts[1:].T @ cache.hidden[:-1]
    d_inputs = d_preacts @ w_x
    return d_inputs, d_w_x, d_w_h, d_b


# The order in which each direction reads the sequence: the backward LSTM
# is the forward one run over the reversed sequence.
_DIRECTIONS = (("fwd", slice(None)), ("bwd", slice(None, None, -1)))


def bilstm_forward(inputs: np.ndarray, params: Dict[str, np.ndarray],
                   n_layers: int
                   ) -> Tuple[np.ndarray, List[Tuple[LstmLayerCache, LstmLayerCache]]]:
    """Stacked bidirectional LSTM; output is (T, 2H) per layer top."""
    caches = []
    current = inputs
    for layer in range(n_layers):
        states, layer_caches = [], []
        for direction, order in _DIRECTIONS:
            prefix = f"lstm.{layer}.{direction}"
            # A contiguous copy: numpy's matmul skips BLAS on a negative
            # stride, which is slower and rounds differently.
            hidden, cache = lstm_forward(
                np.ascontiguousarray(current[order]), params[f"{prefix}.w_x"],
                params[f"{prefix}.w_h"], params[f"{prefix}.b"])
            states.append(hidden[order])
            layer_caches.append(cache)
        current = np.concatenate(states, axis=1)
        caches.append(tuple(layer_caches))
    return current, caches


def bilstm_backward(d_output: np.ndarray, caches, params: Dict[str, np.ndarray],
                    grads: Dict[str, np.ndarray], n_layers: int) -> np.ndarray:
    """Backward through the stacked BiLSTM, accumulating into ``grads``."""
    hidden_size = d_output.shape[1] // 2
    d_current = d_output
    for layer in range(n_layers - 1, -1, -1):
        d_inputs = []
        for index, (direction, order) in enumerate(_DIRECTIONS):
            prefix = f"lstm.{layer}.{direction}"
            columns = slice(index * hidden_size, (index + 1) * hidden_size)
            d_in, d_w_x, d_w_h, d_b = lstm_backward(
                d_current[order, columns], caches[layer][index],
                params[f"{prefix}.w_x"], params[f"{prefix}.w_h"])
            grads[f"{prefix}.w_x"] += d_w_x
            grads[f"{prefix}.w_h"] += d_w_h
            grads[f"{prefix}.b"] += d_b
            d_inputs.append(d_in[order])
        d_current = d_inputs[0] + d_inputs[1]
    return d_current


def mlp_forward(x: np.ndarray, w1: np.ndarray, b1: np.ndarray,
                w2: np.ndarray, b2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """One tanh hidden layer over one input vector or a (B, D) matrix of rows.

    Returns (output, hidden) for the backward pass.  A row of a matrix is
    computed by the same products as a vector on its own, so a batch of
    one gives bit-identical results.
    """
    hidden = np.tanh(x @ w1.T + b1)
    return hidden @ w2.T + b2, hidden


def mlp_backward(d_out: np.ndarray, x: np.ndarray, hidden: np.ndarray,
                 w1: np.ndarray, w2: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Backward of ``mlp_forward`` over a batch of rows.

    ``d_out``, ``x`` and ``hidden`` hold one row per input.  Returns
    (d_x, d_w1, d_b1, d_w2, d_b2): d_x per row, the parameter gradients
    summed over the rows.
    """
    d_pre = (d_out @ w2) * (1.0 - hidden * hidden)
    return (d_pre @ w1, d_pre.T @ x, d_pre.sum(axis=0),
            d_out.T @ hidden, d_out.sum(axis=0))


class Adam:
    """Deterministic Adam over a fixed, ordered set of parameter keys."""

    def __init__(self, params: Dict[str, np.ndarray], keys: List[str],
                 learning_rate: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.keys = list(keys)
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(params[k]) for k in self.keys}
        self.v = {k: np.zeros_like(params[k]) for k in self.keys}

    def step(self, grads: Dict[str, np.ndarray]) -> None:
        self.t += 1
        correction1 = 1.0 - self.beta1 ** self.t
        correction2 = 1.0 - self.beta2 ** self.t
        for key in self.keys:
            g = grads[key]
            m = self.m[key]
            v = self.v[key]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / correction1
            v_hat = v / correction2
            self.params[key] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)
