"""LSTM cell kernels: the per-token gate math of one LSTM step, in numpy.

Gate layout inside the preactivation vector is
``[input, forget, output, candidate]``, each a block of H values.  The
cache rows are ``i, f, o, g, tanh(c)`` as produced by the forward pass.
Both functions write their results into caller-owned output arrays:

``cell_forward(preact, c_prev, h_out, c_out, cache_out)``
``cell_backward(dh, dc, cache, c_prev, dpreact_out, dc_prev_out)``
"""

from __future__ import annotations

import numpy as np

# Recorded with the benchmark's machine facts.
BACKEND = "python"


def cell_forward(preact: np.ndarray, c_prev: np.ndarray, h_out: np.ndarray,
                 c_out: np.ndarray, cache_out: np.ndarray) -> None:
    """One LSTM cell step: gates from the preactivation, new cell and hidden."""
    hidden = c_prev.shape[0]
    gates = preact.reshape(4, hidden)
    # exp may overflow to inf for very negative gates; the sigmoid still
    # comes out as an exact 0.0.
    with np.errstate(over="ignore"):
        i = 1.0 / (1.0 + np.exp(-gates[0]))
        f = 1.0 / (1.0 + np.exp(-gates[1]))
        o = 1.0 / (1.0 + np.exp(-gates[2]))
    g = np.tanh(gates[3])
    np.multiply(f, c_prev, out=c_out)
    c_out += i * g
    c_tanh = np.tanh(c_out)
    np.multiply(o, c_tanh, out=h_out)
    cache_out[0] = i
    cache_out[1] = f
    cache_out[2] = o
    cache_out[3] = g
    cache_out[4] = c_tanh


def cell_backward(dh: np.ndarray, dc: np.ndarray, cache: np.ndarray,
                  c_prev: np.ndarray, dpreact_out: np.ndarray,
                  dc_prev_out: np.ndarray) -> None:
    """Gradients of one cell step w.r.t. its preactivation and previous cell."""
    hidden = c_prev.shape[0]
    i, f, o, g, c_tanh = cache
    dc_total = dc + dh * o * (1.0 - c_tanh * c_tanh)
    dgates = dpreact_out.reshape(4, hidden)
    dgates[0] = dc_total * g * i * (1.0 - i)
    dgates[1] = dc_total * c_prev * f * (1.0 - f)
    dgates[2] = dh * c_tanh * o * (1.0 - o)
    dgates[3] = dc_total * i * (1.0 - g * g)
    np.multiply(dc_total, f, out=dc_prev_out)
