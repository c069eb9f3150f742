import numpy as np

from conjparse import kernels


def _random_cell_inputs(rng, hidden):
    preact = rng.normal(size=4 * hidden)
    c_prev = rng.normal(size=hidden)
    return preact, c_prev


def _run_forward(preact, c_prev):
    hidden = c_prev.shape[0]
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    cache = np.zeros((5, hidden))
    kernels.cell_forward(preact, c_prev, h, c, cache)
    return h, c, cache


def _run_backward(dh, dc, cache, c_prev):
    hidden = c_prev.shape[0]
    dpre = np.zeros(4 * hidden)
    dcp = np.zeros(hidden)
    kernels.cell_backward(dh, dc, cache, c_prev, dpre, dcp)
    return dpre, dcp


def test_zero_preactivation_zero_cell_gives_zero_hidden():
    hidden = 6
    h, c, cache = _run_forward(np.zeros(4 * hidden), np.zeros(hidden))
    np.testing.assert_array_equal(h, 0.0)
    np.testing.assert_array_equal(c, 0.0)
    np.testing.assert_allclose(cache[0], 0.5)  # all gates sit at sigmoid(0)


def test_forward_matches_direct_formula():
    rng = np.random.default_rng(0)
    hidden = 5
    preact, c_prev = _random_cell_inputs(rng, hidden)
    h, c, cache = _run_forward(preact, c_prev)
    gates = preact.reshape(4, hidden)
    i, f, o = (1.0 / (1.0 + np.exp(-gates[k])) for k in range(3))
    g = np.tanh(gates[3])
    np.testing.assert_allclose(c, f * c_prev + i * g, atol=1e-15)
    np.testing.assert_allclose(h, o * np.tanh(c), atol=1e-15)


def test_backward_matches_finite_differences_pointwise():
    rng = np.random.default_rng(9)
    hidden = 4
    preact, c_prev = _random_cell_inputs(rng, hidden)
    weights = rng.normal(size=hidden)  # loss = weights . h + 0.5*|c|^2

    def loss(pre, cp):
        h, c, _ = _run_forward(pre, cp)
        return float(weights @ h + 0.5 * (c ** 2).sum())

    h, c, cache = _run_forward(preact, c_prev)
    dpre, dcp = _run_backward(weights.copy(), c.copy(), cache, c_prev)
    eps = 1e-6
    for k in range(4 * hidden):
        probe = preact.copy()
        probe[k] += eps
        up = loss(probe, c_prev)
        probe[k] -= 2 * eps
        down = loss(probe, c_prev)
        assert abs((up - down) / (2 * eps) - dpre[k]) < 1e-8
    for k in range(hidden):
        probe = c_prev.copy()
        probe[k] += eps
        up = loss(preact, probe)
        probe[k] -= 2 * eps
        down = loss(preact, probe)
        assert abs((up - down) / (2 * eps) - dcp[k]) < 1e-8


def test_selected_backend_exposes_kernel_api():
    assert kernels.BACKEND == "python"
    assert callable(kernels.cell_forward)
    assert callable(kernels.cell_backward)
