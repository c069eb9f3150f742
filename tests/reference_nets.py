"""Per-direction LSTM and per-key Adam, kept as bit-exact references.

``conjparse.network`` runs both BiLSTM directions as one stack in a single
time loop and updates one flat parameter vector with a blocked, in-place
Adam.  The plain versions below compute every element with the same
operations in the same order, one direction and one parameter array at a
time, so the tests can require equal bits, not just close values.
"""

import math

import numpy as np


def cell_forward(preact, c_prev):
    """One LSTM cell on (4H,) and (H,); returns (h, c, cache rows)."""
    hidden = c_prev.shape[0]
    gates = preact.reshape(4, hidden)
    with np.errstate(over="ignore"):
        i = 1.0 / (1.0 + np.exp(-gates[0]))
        f = 1.0 / (1.0 + np.exp(-gates[1]))
        o = 1.0 / (1.0 + np.exp(-gates[2]))
    g = np.tanh(gates[3])
    c = f * c_prev
    c += i * g
    c_tanh = np.tanh(c)
    return o * c_tanh, c, np.stack([i, f, o, g, c_tanh])


def cell_backward(dh, dc, cache, c_prev):
    """Gradients of one cell w.r.t. its preactivation and previous cell."""
    i, f, o, g, c_tanh = cache
    dc_total = dc + dh * o * (1.0 - c_tanh * c_tanh)
    dgates = np.stack([
        dc_total * g * i * (1.0 - i),
        dc_total * c_prev * f * (1.0 - f),
        dh * c_tanh * o * (1.0 - o),
        dc_total * i * (1.0 - g * g),
    ])
    return dgates.reshape(-1), dc_total * f


def lstm_forward(inputs, w_x, w_h, b):
    """One left-to-right LSTM over (T, In); returns (hidden, cache)."""
    steps = inputs.shape[0]
    hidden_size = w_h.shape[1]
    preacts = inputs @ w_x.T + b
    hidden = np.zeros((steps, hidden_size))
    cells = np.zeros((steps, hidden_size))
    gates = np.zeros((steps, 5, hidden_size))
    h_prev = np.zeros(hidden_size)
    c_prev = np.zeros(hidden_size)
    for t in range(steps):
        preacts[t] += w_h @ h_prev
        hidden[t], cells[t], gates[t] = cell_forward(preacts[t], c_prev)
        h_prev = hidden[t]
        c_prev = cells[t]
    return hidden, (inputs, hidden, cells, gates)


def lstm_backward(d_hidden, cache, w_x, w_h):
    """Returns (d_inputs, d_w_x, d_w_h, d_b) of one LSTM."""
    inputs, hidden, cells, gates = cache
    steps, hidden_size = d_hidden.shape
    d_preacts = np.zeros((steps, 4 * hidden_size))
    dc_next = np.zeros(hidden_size)
    dh_rec = np.zeros(hidden_size)
    for t in range(steps - 1, -1, -1):
        dh_total = d_hidden[t] + dh_rec
        c_prev = cells[t - 1] if t > 0 else np.zeros(hidden_size)
        d_preacts[t], dc_next = cell_backward(dh_total, dc_next, gates[t], c_prev)
        dh_rec = w_h.T @ d_preacts[t]
    d_w_x = d_preacts.T @ inputs
    d_b = d_preacts.sum(axis=0)
    d_w_h = d_preacts[1:].T @ hidden[:-1]
    d_inputs = d_preacts @ w_x
    return d_inputs, d_w_x, d_w_h, d_b


_DIRECTIONS = (("fwd", slice(None)), ("bwd", slice(None, None, -1)))


def bilstm_forward(inputs, params, n_layers):
    """Stacked BiLSTM over name-keyed parameters, one direction at a time."""
    caches = []
    current = inputs
    for layer in range(n_layers):
        states, layer_caches = [], []
        for direction, order in _DIRECTIONS:
            prefix = f"lstm.{layer}.{direction}"
            hidden, cache = lstm_forward(
                np.ascontiguousarray(current[order]), params[f"{prefix}.w_x"],
                params[f"{prefix}.w_h"], params[f"{prefix}.b"])
            states.append(hidden[order])
            layer_caches.append(cache)
        current = np.concatenate(states, axis=1)
        caches.append(layer_caches)
    return current, caches


def bilstm_backward(d_output, caches, params, grads, n_layers):
    """Backward of ``bilstm_forward``, accumulating into name-keyed ``grads``."""
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


class KeyedAdam:
    """Adam over a dict of arrays, one key at a time, with temporaries."""

    def __init__(self, params, learning_rate=1e-3, beta1=0.9, beta2=0.999,
                 eps=1e-8):
        self.params = params
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads):
        self.t += 1
        # Kingma & Ba (2015), Section 2: bias corrections folded into the
        # step size and epsilon.
        root_correction = math.sqrt(1.0 - self.beta2 ** self.t)
        step_size = (self.learning_rate * root_correction
                     / (1.0 - self.beta1 ** self.t))
        eps_t = self.eps * root_correction
        for key, g in grads.items():
            m = self.m[key]
            v = self.v[key]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            self.params[key] -= step_size * (m / (np.sqrt(v) + eps_t))
