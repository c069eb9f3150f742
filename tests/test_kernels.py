import numpy as np

from conjparse import kernels, network

import reference_nets


def _random_cell_inputs(rng, hidden, stack=1):
    preact = rng.normal(size=(4, stack, hidden))
    c_prev = rng.normal(size=(stack, hidden))
    return preact, c_prev


def _run_forward(preact, c_prev):
    h = np.zeros(c_prev.shape)
    c = np.zeros(c_prev.shape)
    cache = np.zeros((5,) + c_prev.shape)
    kernels.cell_forward(preact, c_prev, h, c, cache)
    return h, c, cache


def _run_backward(dh, dc, cache, c_prev):
    # A two-step sequence whose first cell state is c_prev; step 1 is the
    # step under test.
    cells = np.stack([c_prev, np.zeros_like(c_prev)])
    caches = np.stack([np.zeros_like(cache), cache])
    factors = np.empty((2, 7) + c_prev.shape)
    network._backward_factors(caches, cells, 0, factors)
    dpre = np.zeros((4,) + c_prev.shape)
    dcp = dc.copy()
    kernels.cell_backward(dh, dcp, cache, factors[1], dpre, dcp)
    return dpre, dcp


def test_zero_preactivation_zero_cell_gives_zero_hidden():
    hidden = 6
    h, c, cache = _run_forward(np.zeros((4, 1, hidden)), np.zeros((1, hidden)))
    np.testing.assert_array_equal(h, 0.0)
    np.testing.assert_array_equal(c, 0.0)
    np.testing.assert_allclose(cache[0], 0.5)  # all gates sit at sigmoid(0)


def test_forward_matches_direct_formula():
    rng = np.random.default_rng(0)
    hidden = 5
    preact, c_prev = _random_cell_inputs(rng, hidden)
    h, c, cache = _run_forward(preact, c_prev)
    i, f, o = (1.0 / (1.0 + np.exp(-preact[k])) for k in range(3))
    g = np.tanh(preact[3])
    np.testing.assert_allclose(c, f * c_prev + i * g, atol=1e-15)
    np.testing.assert_allclose(h, o * np.tanh(c), atol=1e-15)


def test_backward_matches_finite_differences_pointwise():
    rng = np.random.default_rng(9)
    hidden = 4
    preact, c_prev = _random_cell_inputs(rng, hidden)
    weights = rng.normal(size=(1, hidden))  # loss = weights . h + 0.5*|c|^2

    def loss(pre, cp):
        h, c, _ = _run_forward(pre, cp)
        return float((weights * h).sum() + 0.5 * (c ** 2).sum())

    h, c, cache = _run_forward(preact, c_prev)
    dpre, dcp = _run_backward(weights.copy(), c.copy(), cache, c_prev)
    eps = 1e-6
    for index in np.ndindex(preact.shape):
        probe = preact.copy()
        probe[index] += eps
        up = loss(probe, c_prev)
        probe[index] -= 2 * eps
        down = loss(probe, c_prev)
        assert abs((up - down) / (2 * eps) - dpre[index]) < 1e-8
    for index in np.ndindex(c_prev.shape):
        probe = c_prev.copy()
        probe[index] += eps
        up = loss(preact, probe)
        probe[index] -= 2 * eps
        down = loss(preact, probe)
        assert abs((up - down) / (2 * eps) - dcp[index]) < 1e-8


def test_a_stack_of_two_equals_two_single_cells_bit_for_bit():
    rng = np.random.default_rng(12)
    hidden = 7
    # Large preactivations, so that some sigmoid gates saturate at 0 or 1.
    preact, c_prev = _random_cell_inputs(rng, hidden, stack=2)
    preact *= 8.0
    dh = rng.normal(size=(2, hidden))
    dc = rng.normal(size=(2, hidden))
    with np.errstate(over="ignore"):
        h, c, cache = _run_forward(preact, c_prev)
        dpre, dcp = _run_backward(dh, dc, cache, c_prev)
    for d in range(2):
        with np.errstate(over="ignore"):
            h_d, c_d, cache_d = _run_forward(preact[:, d:d + 1], c_prev[d:d + 1])
            dpre_d, dcp_d = _run_backward(dh[d:d + 1], dc[d:d + 1], cache_d,
                                          c_prev[d:d + 1])
        for stacked, single in ((h, h_d), (c, c_d), (cache, cache_d),
                                (dpre, dpre_d), (dcp, dcp_d)):
            assert np.array_equal(stacked[..., d:d + 1, :], single)
        # And each cell equals the one-cell reference with its own layout.
        ref_h, ref_c, ref_cache = reference_nets.cell_forward(
            preact[:, d].reshape(-1), c_prev[d])
        ref_dpre, ref_dcp = reference_nets.cell_backward(dh[d], dc[d], ref_cache,
                                                         c_prev[d])
        assert np.array_equal(h[d], ref_h) and np.array_equal(c[d], ref_c)
        assert np.array_equal(cache[:, d], ref_cache)
        assert np.array_equal(dpre[:, d].reshape(-1), ref_dpre)
        assert np.array_equal(dcp[d], ref_dcp)


def test_selected_backend_exposes_kernel_api():
    assert kernels.BACKEND == "python"
    assert callable(kernels.cell_forward)
    assert callable(kernels.cell_backward)
