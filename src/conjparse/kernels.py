"""LSTM cell kernels: the per-token gate math of one LSTM step, in numpy.

Every call advances a stack of D independent LSTM cells by one token; the
BiLSTM runs its two directions as a stack of two.  Per-step arrays are
gate-major, so that each gate of all D cells is one contiguous (D, H)
block: a preactivation is (4, D, H) in the gate order
``input, forget, output, candidate``, and the forward cache of a step is
(5, D, H) with the rows ``i, f, o, g, tanh(c)``.  The cell functions
write their results into caller-owned output arrays:

``cell_forward(preact, c_prev, h_out, c_out, cache_out)``
    c_prev, h_out and c_out are (D, H).
``cell_backward(dh, dc, cache, factors, dpreact_out, dc_prev_out)``
    ``factors`` (7, D, H) holds the step's factors that do not depend on
    the recurrence, which the caller computes for a block of steps at a time:
    ``1 - i``, ``1 - f``, ``1 - o``, ``1 - tanh(c)^2``, ``1 - g^2``, ``g``
    and the previous cell state.

``cell_forward`` lets ``exp`` overflow to inf for very negative gates (the
sigmoid still comes out as an exact 0.0); callers run it under
``np.errstate(over="ignore")``.
"""

from __future__ import annotations

import numpy as np

# Recorded with the benchmark's machine facts.
BACKEND = "python"


def cell_forward(preact: np.ndarray, c_prev: np.ndarray, h_out: np.ndarray,
                 c_out: np.ndarray, cache_out: np.ndarray) -> None:
    """One step of D cells: gates from the preactivation, new cell and hidden."""
    # The three sigmoid gates in one pass.
    sigmoid_denominator = np.exp(np.negative(preact[:3]))
    sigmoid_denominator += 1.0
    np.divide(1.0, sigmoid_denominator, out=cache_out[:3])
    i, f, o, g, c_tanh = cache_out
    np.tanh(preact[3], out=g)
    np.multiply(f, c_prev, out=c_out)
    c_out += i * g
    np.tanh(c_out, out=c_tanh)
    np.multiply(o, c_tanh, out=h_out)


def cell_backward(dh: np.ndarray, dc: np.ndarray, cache: np.ndarray,
                  factors: np.ndarray, dpreact_out: np.ndarray,
                  dc_prev_out: np.ndarray) -> None:
    """Gradients of one step of D cells w.r.t. preactivation and previous cell.

    ``dh`` and ``dc`` are (D, H); ``cache`` (5, D, H) and ``factors``
    (7, D, H) are the step's forward cache and factors; ``dpreact_out`` is
    (4, D, H), and may be a strided view.  ``dc_prev_out`` may be ``dc``
    itself, which is read before it is written.
    """
    i, f, o, _, c_tanh = cache
    dc_total = dh * o
    dc_total *= factors[3]
    dc_total += dc
    # The input and forget rows start from g and c_prev, the output row
    # from tanh(c); all three then take their gate and one minus it.
    np.multiply(dc_total, factors[5:], out=dpreact_out[:2])
    np.multiply(dh, c_tanh, out=dpreact_out[2])
    dpreact_out[:3] *= cache[:3]
    dpreact_out[:3] *= factors[:3]
    np.multiply(dc_total, i, out=dpreact_out[3])
    dpreact_out[3] *= factors[4]
    np.multiply(dc_total, f, out=dc_prev_out)
