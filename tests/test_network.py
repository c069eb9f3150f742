import warnings

import numpy as np
import pytest

from conjparse import kernels, network

import reference_nets
from conftest import peak_bytes, whole_step

# Golden values below were produced by an independent scalar simulation of
# the gate equations (plain math.exp/math.tanh loops) and frozen here.

GOLD_W_X = np.array([
    [0.1, -0.2], [0.3, 0.1], [-0.1, 0.2], [0.2, 0.05],
    [0.05, 0.1], [-0.3, 0.2], [0.1, 0.1], [0.2, -0.1],
])
GOLD_W_H = np.array([
    [0.1, 0.0], [0.0, 0.1], [0.2, -0.1], [-0.1, 0.1],
    [0.0, 0.2], [0.1, 0.1], [-0.2, 0.1], [0.1, 0.0],
])
GOLD_B = np.array([0.01, -0.02, 0.03, 0.0, -0.01, 0.02, 0.05, -0.05])
GOLD_X = np.array([[0.5, -0.3], [-0.2, 0.4]])
GOLD_H = np.array([
    [0.018371219203625472, 0.018958676660198324],
    [0.026434211840368128, -0.022579576385176922],
])
GOLD_C = np.array([
    [0.037037009593269159, 0.041908967324593115],
    [0.05229454865087857, -0.04177321058481609],
])


def _one(*arrays):
    """Each array as a stack of one LSTM."""
    return [a[np.newaxis] for a in arrays]


def test_lstm_forward_matches_hand_simulation():
    hidden, cache = network.lstm_forward(*_one(GOLD_X, GOLD_W_X, GOLD_W_H, GOLD_B))
    np.testing.assert_allclose(hidden[0], GOLD_H, atol=1e-15)
    np.testing.assert_allclose(cache.cells[:, 0], GOLD_C, atol=1e-15)


def test_lstm_zero_parameters_give_zero_states():
    inputs = np.random.default_rng(0).normal(size=(4, 3))
    hidden, cache = network.lstm_forward(
        *_one(inputs, np.zeros((8, 3)), np.zeros((8, 2)), np.zeros(8))
    )
    np.testing.assert_array_equal(hidden, 0.0)
    np.testing.assert_array_equal(cache.cells, 0.0)


def test_lstm_layer_gradients():
    rng = np.random.default_rng(4)
    steps, dim, hidden_size = 5, 3, 4
    inputs = rng.normal(size=(steps, dim))
    w_x = rng.normal(size=(4 * hidden_size, dim)) * 0.5
    w_h = rng.normal(size=(4 * hidden_size, hidden_size)) * 0.5
    b = rng.normal(size=4 * hidden_size) * 0.5
    mix = rng.normal(size=(steps, hidden_size))

    def loss(i_, wx_, wh_, b_):
        h, _ = network.lstm_forward(*_one(i_, wx_, wh_, b_))
        return float((mix * h[0]).sum())

    hidden, cache = network.lstm_forward(*_one(inputs, w_x, w_h, b))
    # Filled with NaN: the backward pass must write every element.
    out = [np.full((1,) + a.shape, np.nan) for a in (w_x, w_h, b)]
    d_inputs = network.lstm_backward(mix[np.newaxis].copy(), cache,
                                     *_one(w_x, w_h), out)[0]
    d_wx, d_wh, d_b = (grad[0] for grad in out)
    eps = 1e-6
    for arr, grad in ((inputs, d_inputs), (w_x, d_wx), (w_h, d_wh), (b, d_b)):
        for index in np.ndindex(arr.shape):
            orig = arr[index]
            arr[index] = orig + eps
            up = loss(inputs, w_x, w_h, b)
            arr[index] = orig - eps
            down = loss(inputs, w_x, w_h, b)
            arr[index] = orig
            numeric = (up - down) / (2 * eps)
            assert abs(numeric - grad[index]) < 1e-7


MLP_W1 = np.array([[0.2, -0.1, 0.4], [-0.3, 0.25, 0.1]])
MLP_B1 = np.array([0.05, -0.15])
MLP_W2 = np.array([[0.1, -0.2], [0.3, 0.4], [-0.5, 0.2], [0.25, 0.05]])
MLP_B2 = np.array([0.0, 0.1, -0.1, 0.2])
MLP_X = np.array([0.3, -0.6, 0.9])
MLP_GOLD_HIDDEN = np.array([0.48538109060537149, -0.29131261245159085])
MLP_GOLD_OUT = np.array([
    0.10680063155085533, 0.1290892822009751,
    -0.40095306779300388, 0.30677964202876334,
])


def test_mlp_forward_golden():
    out, hidden = network.mlp_forward(MLP_X @ MLP_W1.T, MLP_B1, MLP_W2, MLP_B2)
    np.testing.assert_allclose(hidden, MLP_GOLD_HIDDEN, atol=1e-15)
    np.testing.assert_allclose(out, MLP_GOLD_OUT, atol=1e-15)


def test_mlp_zero_parameters():
    out, _ = network.mlp_forward(
        MLP_X @ np.zeros((2, 3)).T, np.zeros(2), np.zeros((4, 2)), np.zeros(4)
    )
    np.testing.assert_array_equal(out, 0.0)


def test_mlp_bias_forces_argmax():
    b2 = np.zeros(4)
    b2[2] = 1.0
    out, _ = network.mlp_forward(
        MLP_X @ np.zeros((2, 3)).T, np.zeros(2), np.zeros((4, 2)), b2
    )
    assert int(np.argmax(out)) == 2


def test_mlp_backward_finite_differences():
    rng = np.random.default_rng(8)
    d_out = rng.normal(size=(3, 4))

    def loss(pre, b1, w2, b2):
        out, _ = network.mlp_forward(pre, b1, w2, b2)
        return float((d_out * out).sum())

    rows = np.vstack([MLP_X, -MLP_X, rng.normal(size=3)]) @ MLP_W1.T
    params = [rows, MLP_B1.copy(), MLP_W2.copy(), MLP_B2.copy()]
    out, hidden = network.mlp_forward(*params)
    grads = network.mlp_backward(d_out, hidden, params[2])
    eps = 1e-6
    for arr, grad in zip(params, grads):
        for index in np.ndindex(arr.shape):
            orig = arr[index]
            arr[index] = orig + eps
            up = loss(*params)
            arr[index] = orig - eps
            down = loss(*params)
            arr[index] = orig
            assert abs((up - down) / (2 * eps) - grad[index]) < 1e-8


def _bilstm_params(rng, dim, hidden_size, n_layers=2, scale=0.4):
    """Name-keyed parameters and the per-layer direction stacks of them."""
    params = {}
    for layer in range(n_layers):
        d_in = dim if layer == 0 else 2 * hidden_size
        for direction in network.DIRECTIONS:
            prefix = f"lstm.{layer}.{direction}"
            params[f"{prefix}.w_x"] = rng.normal(size=(4 * hidden_size, d_in)) * scale
            params[f"{prefix}.w_h"] = rng.normal(
                size=(4 * hidden_size, hidden_size)) * scale
            params[f"{prefix}.b"] = rng.normal(size=4 * hidden_size) * 0.1
    return params, _stacks(params, n_layers)


def _flat(stacks):
    """The arrays of per-layer stacks, layer by layer."""
    return [array for stack in stacks for array in stack]


def _stacks(arrays, n_layers):
    return [tuple(np.stack([arrays[f"lstm.{layer}.{direction}.{kind}"]
                            for direction in network.DIRECTIONS])
                  for kind in ("w_x", "w_h", "b"))
            for layer in range(n_layers)]


def test_bilstm_output_shape():
    rng = np.random.default_rng(2)
    steps, dim, hidden_size = 6, 4, 3
    _, layers = _bilstm_params(rng, dim, hidden_size)
    inputs = rng.normal(size=(steps, dim))
    out, _ = network.bilstm_forward(inputs, layers)
    assert out.shape == (steps, 2 * hidden_size)


def test_bilstm_backward_finite_differences():
    # Both directions of both layers, so every flip between sequence order
    # and the backward direction's reading order is on the path.
    rng = np.random.default_rng(6)
    steps, dim, hidden_size = 4, 3, 2
    params, layers = _bilstm_params(rng, dim, hidden_size)
    inputs = rng.normal(size=(steps, dim))
    mix = rng.normal(size=(steps, 2 * hidden_size))

    def loss():
        out, _ = network.bilstm_forward(inputs, layers)
        return float((mix * out).sum())

    _, caches = network.bilstm_forward(inputs, layers)
    grads = [tuple(np.full_like(a, np.nan) for a in stack) for stack in layers]
    d_inputs = network.bilstm_backward(mix.copy(), caches, layers, grads,
                                       lambda: None)
    eps = 1e-6
    checks = [(inputs, d_inputs)] + [
        (weights, grad) for stack, grad_stack in zip(layers, grads)
        for weights, grad in zip(stack, grad_stack)]
    for arr, grad in checks:
        for index in np.ndindex(arr.shape):
            orig = arr[index]
            arr[index] = orig + eps
            up = loss()
            arr[index] = orig - eps
            down = loss()
            arr[index] = orig
            assert abs((up - down) / (2 * eps) - grad[index]) < 1e-7


@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("steps", [1, 2, 7, 40])
def test_bilstm_is_bit_identical_to_the_per_direction_loop(steps, n_layers):
    rng = np.random.default_rng(100 * steps + n_layers)
    dim, hidden_size = 6, 5
    # Large weights, so that some gates saturate and exp overflows.
    params, layers = _bilstm_params(rng, dim, hidden_size, n_layers, scale=3.0)
    inputs = rng.normal(size=(steps, dim))
    d_output = rng.normal(size=(steps, 2 * hidden_size))
    with np.errstate(over="ignore"):
        out, caches = network.bilstm_forward(inputs, layers)
        ref_out, ref_caches = reference_nets.bilstm_forward(inputs, params, n_layers)
    assert np.array_equal(out, ref_out)
    grads = [tuple(np.full_like(a, np.nan) for a in stack) for stack in layers]
    ref_grads = {key: np.zeros_like(value) for key, value in params.items()}
    ref_d_inputs = reference_nets.bilstm_backward(d_output, ref_caches, params,
                                                  ref_grads, n_layers)
    for _ in range(2):  # the second pass overwrites the first
        d_inputs = network.bilstm_backward(d_output, caches, layers, grads,
                                           lambda: None)
        assert np.array_equal(d_inputs, ref_d_inputs)
        assert all(np.array_equal(grad, expected) for grad, expected
                   in zip(_flat(grads), _flat(_stacks(ref_grads, n_layers))))


def _whole_table_lstm_backward(d_hidden, cache, w_x, w_h):
    """``lstm_backward`` from one factor table for the whole sequence and a
    contiguous copy of the hidden states; returns (d_inputs, d_w_x, d_w_h,
    d_b)."""
    stack, steps, hidden_size = d_hidden.shape
    gates = cache.gates
    factors = np.empty((steps, 7, stack, hidden_size))
    factors[:, :3] = 1.0 - gates[:, :3]
    factors[:, 3] = 1.0 - gates[:, 4] * gates[:, 4]
    factors[:, 4] = 1.0 - gates[:, 3] * gates[:, 3]
    factors[:, 5] = gates[:, 3]
    factors[0, 6] = 0.0
    factors[1:, 6] = cache.cells[:-1]
    d_preacts = np.empty((stack, steps, 4 * hidden_size))
    d_gates = np.empty((4, stack, hidden_size))
    dc = np.zeros((stack, hidden_size))
    dh_rec = np.zeros((stack, hidden_size))
    for t in range(steps - 1, -1, -1):
        kernels.cell_backward(d_hidden[:, t] + dh_rec, dc, gates[t], factors[t],
                              d_gates, dc)
        d_preacts.reshape(stack, steps, 4, hidden_size)[:, t] = (
            d_gates.transpose(1, 0, 2))
        dh_rec = np.matmul(w_h.transpose(0, 2, 1),
                           d_preacts[:, t, :, np.newaxis])[:, :, 0]
    hidden = np.ascontiguousarray(cache.hidden[:-1].transpose(1, 0, 2))
    return (np.matmul(d_preacts, w_x),
            np.matmul(d_preacts.transpose(0, 2, 1), cache.inputs),
            np.matmul(d_preacts[:, 1:].transpose(0, 2, 1), hidden),
            np.sum(d_preacts, axis=1))


_BLOCK = network._FACTOR_BLOCK


@pytest.mark.parametrize("steps", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                   2 * _BLOCK + 3])
def test_blocked_factors_give_the_whole_table_bits(steps):
    rng = np.random.default_rng(steps)
    stack, dim, hidden_size = 2, 6, 5
    # Large weights, so that some gates saturate and exp overflows.
    w_x = rng.normal(size=(stack, 4 * hidden_size, dim)) * 3.0
    w_h = rng.normal(size=(stack, 4 * hidden_size, hidden_size)) * 3.0
    b = rng.normal(size=(stack, 4 * hidden_size))
    with np.errstate(over="ignore"):
        _, cache = network.lstm_forward(rng.normal(size=(stack, steps, dim)),
                                        w_x, w_h, b)
    d_hidden = rng.normal(size=(stack, steps, hidden_size))
    out = [np.full_like(a, np.nan) for a in (w_x, w_h, b)]
    d_inputs = network.lstm_backward(d_hidden, cache, w_x, w_h, out)
    expected = _whole_table_lstm_backward(d_hidden, cache, w_x, w_h)
    for got, want in zip([d_inputs] + out, expected):
        assert np.array_equal(got, want)


def test_adam_zero_gradient_leaves_params_unchanged():
    params = np.array([1.0, -2.0, 3.0])
    opt = network.Adam(params)
    before = params.copy()
    whole_step(opt, np.zeros(3))
    np.testing.assert_array_equal(params, before)


def test_adam_descends_on_quadratic():
    params = np.array([5.0])
    opt = network.Adam(params, learning_rate=0.1)
    for _ in range(500):
        whole_step(opt, 2.0 * params)
    assert abs(params[0]) < 0.5


@pytest.mark.parametrize("size", [5, network._ADAM_BLOCK, 2 * network._ADAM_BLOCK + 3])
def test_flat_adam_is_bit_identical_to_the_per_key_loop(size):
    rng = np.random.default_rng(size)
    flat = rng.normal(size=size)
    # The same values cut into keys of uneven sizes.
    cuts = sorted(rng.choice(np.arange(1, size), size=min(3, size - 1), replace=False))
    keyed = {str(k): part.copy() for k, part in enumerate(np.split(flat, cuts))}
    hyper = dict(learning_rate=0.05, beta1=0.8, beta2=0.99, eps=1e-6)
    opt = network.Adam(flat, **hyper)
    reference = reference_nets.KeyedAdam(keyed, **hyper)
    for _ in range(5):
        grads = rng.normal(size=size) * rng.choice([1e-8, 1.0, 1e3], size=size)
        whole_step(opt, grads.copy())
        reference.step(dict(zip(keyed, np.split(grads, cuts))))
        assert np.array_equal(flat, np.concatenate(list(keyed.values())))
        assert np.array_equal(opt.m, np.concatenate(list(reference.m.values())))
        assert np.array_equal(opt.v, np.concatenate(list(reference.v.values())))


def test_adam_keeps_the_bits_of_signed_zeros_and_subnormals():
    # The first update writes the moments without reading them: whatever
    # the buffers held, they come out as moments that started at zero, down
    # to the sign of a zero that a tiny negative gradient rounds to.
    size = 2 * network._ADAM_BLOCK + 3
    rng = np.random.default_rng(29)
    flat = rng.normal(size=size)
    keyed = {"all": flat.copy()}
    opt = network.Adam(flat)
    opt.m.fill(np.nan)
    opt.v.fill(np.nan)
    reference = reference_nets.KeyedAdam(keyed)
    tiny = -np.finfo(float).smallest_subnormal * np.arange(1, 9)
    for _ in range(3):
        grads = rng.normal(size=size)
        grads[rng.random(size) < 0.2] = -0.0
        subnormal = rng.random(size) < 0.2
        grads[subnormal] = rng.choice(tiny, size=subnormal.sum())
        assert (grads == -0.0).any() and (grads == tiny[0]).any()
        whole_step(opt, grads.copy())
        reference.step({"all": grads})
        for mine, theirs in ((flat, keyed["all"]), (opt.m, reference.m["all"]),
                             (opt.v, reference.v["all"])):
            assert mine.tobytes() == theirs.tobytes()


def test_adam_is_the_textbook_update_up_to_rounding():
    # Kingma & Ba's efficient order against their Algorithm 1, written out:
    # the same moments, and updates equal to within rounding.
    size = 2 * network._ADAM_BLOCK + 3
    rng = np.random.default_rng(11)
    params = rng.normal(size=size)
    opt = network.Adam(params.copy())
    lr, beta1, beta2, eps = opt.learning_rate, opt.beta1, opt.beta2, opt.eps
    m, v = np.zeros(size), np.zeros(size)
    idle = rng.random(size) < 0.01  # elements whose gradient is always zero
    for t in range(1, 61):
        grads = rng.normal(size=size) * 10.0 ** rng.uniform(-8, 3, size=size)
        grads[idle] = 0.0
        m = beta1 * m + (1.0 - beta1) * grads
        v = beta2 * v + (1.0 - beta2) * (grads * grads)
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        textbook = lr * m_hat / (np.sqrt(v_hat) + eps)
        params -= textbook
        whole_step(opt, grads)
        assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v)
        assert np.all(np.abs(grads - textbook) <= 1e-11 * np.abs(textbook))
        assert np.all(np.abs(opt.params - params) <= 1e-11 * np.abs(params))
        assert np.all(grads[idle] == 0.0)
    assert np.array_equal(opt.params[idle], params[idle])


def test_adam_step_outside_an_update_raises_and_changes_nothing():
    size = 2 * network._ADAM_BLOCK + 3
    rng = np.random.default_rng(0)
    opt = network.Adam(rng.normal(size=size))
    whole_step(opt, rng.normal(size=size))
    before = [opt.params.copy(), opt.m.copy(), opt.v.copy()]
    grads = rng.normal(size=size)
    saved_grads = grads.copy()
    with pytest.raises(RuntimeError, match="open update"):
        opt.step(grads, 0)
    assert opt.t == 1
    for after, saved in zip((opt.params, opt.m, opt.v, grads),
                            before + [saved_grads]):
        assert np.array_equal(after, saved)


def test_a_two_block_update_keeps_the_callers_errstate():
    size = 2 * network._ADAM_BLOCK
    opt = network.Adam(np.ones(size))
    # g * g overflows in every block.
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="ignore"):
        warnings.simplefilter("always")
        whole_step(opt, np.full(size, 1e200))
    assert [str(warning.message) for warning in caught] == []
    assert np.isinf(opt.v).all()


def test_a_first_update_that_raises_counts_for_nothing():
    size = 2 * network._ADAM_BLOCK
    opt = network.Adam(np.ones(size))
    grads = np.ones(size)
    grads[network._ADAM_BLOCK:] = 1e200  # the second block only
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        whole_step(opt, grads)
    # The next update zeroes the moments again.
    assert opt.t == 0
    whole_step(opt, np.ones(size))
    assert opt.t == 1
    assert np.array_equal(opt.m, np.full(size, 1.0 - opt.beta1))


@pytest.mark.parametrize("seed", [1, 2])
def test_adam_leaves_the_update_it_subtracted_in_the_gradient(seed):
    size = 2 * network._ADAM_BLOCK + 3
    rng = np.random.default_rng(seed)
    opt = network.Adam(rng.normal(size=size), learning_rate=0.05)
    for _ in range(3):
        before = opt.params.copy()
        grads = rng.normal(size=size)
        whole_step(opt, grads)
        assert np.array_equal(opt.params, before - grads)


@pytest.mark.parametrize("regions", [1, 2])
def test_adam_allocates_its_moments_and_one_block_per_thread(regions):
    # One thread, so one scratch block, however many regions an update has.
    size = 4 * network._ADAM_BLOCK + 5
    rng = np.random.default_rng(0)
    params, grads = rng.normal(size=size), rng.normal(size=size)
    bounds = np.linspace(0, size, regions + 1).astype(int)

    def first_step():
        opt = network.Adam(params)
        with opt.update():
            for low, high in zip(bounds, bounds[1:]):
                opt.step(grads[low:high], low)

    _, peak = peak_bytes(first_step)
    block = network._ADAM_BLOCK * params.itemsize
    assert peak <= 2 * params.nbytes + block + 64 * 1024


def _regions(rng, size, count):
    """``count`` (start, stop) regions that cover ``range(size)`` once, shuffled."""
    cuts = np.sort(rng.choice(np.arange(1, size), size=count - 1, replace=False))
    bounds = [0, *cuts.tolist(), size]
    regions = list(zip(bounds, bounds[1:]))
    return [regions[i] for i in rng.permutation(count)]


@pytest.mark.parametrize("seed", [1, 2])
def test_an_update_region_by_region_gives_the_bits_of_one_whole_step(monkeypatch,
                                                                    seed):
    monkeypatch.setattr(network, "_ADAM_BLOCK", 64)
    size = 10 * network._ADAM_BLOCK + 7
    rng = np.random.default_rng(seed)
    hyper = dict(learning_rate=0.05, beta1=0.8, beta2=0.99, eps=1e-6)
    start = rng.normal(size=size)
    regions_by_region = network.Adam(start.copy(), **hyper)
    whole = network.Adam(start.copy(), **hyper)
    for count in (1, 2, 5, 9):
        grads = rng.normal(size=size) * rng.choice([1e-8, 1.0, 1e3], size=size)
        updates = grads.copy()
        with regions_by_region.update():
            for low, high in _regions(rng, size, count):
                regions_by_region.step(updates[low:high], low)
        whole_step(whole, grads)
        for one, other in ((regions_by_region.params, whole.params),
                           (regions_by_region.m, whole.m),
                           (regions_by_region.v, whole.v), (updates, grads)):
            assert np.array_equal(one, other)
    assert regions_by_region.t == whole.t == 4


@pytest.mark.parametrize("low, high, ndim", [(-1, 4, 1), (90, 101, 1), (0, 10, 2)],
                         ids=["before", "past the end", "two-dimensional"])
def test_an_update_refuses_a_region_outside_the_vector(low, high, ndim):
    size = 100
    opt = network.Adam(np.ones(size))
    whole_step(opt, np.ones(size))
    before = [opt.params.copy(), opt.m.copy(), opt.v.copy()]
    grads = np.ones(high - low).reshape((1,) * (ndim - 1) + (-1,))
    with pytest.raises(ValueError, match="is not inside the 100 parameters"):
        with opt.update():
            opt.step(grads, low)
    for after, saved in zip((opt.params, opt.m, opt.v), before):
        assert np.array_equal(after, saved)


def test_an_update_refuses_regions_that_do_not_cover_the_vector_once():
    size = 100
    opt = network.Adam(np.ones(size))
    with pytest.raises(ValueError, match="overlaps the update's region 0:60"):
        with opt.update():
            opt.step(np.ones(60), 0)
            before = [opt.params.copy(), opt.m.copy(), opt.v.copy()]
            opt.step(np.ones(41), 59)
    for after, saved in zip((opt.params, opt.m, opt.v), before):
        assert np.array_equal(after, saved)
    # A failed first update counts for nothing.
    assert opt.t == 0
    with pytest.raises(ValueError, match="regions cover 99 of 100 parameters"):
        with opt.update():
            opt.step(np.ones(60), 40)
            opt.step(np.ones(39), 1)
    with pytest.raises(RuntimeError, match="already open"):
        with opt.update(), opt.update():
            pass
    whole_step(opt, np.ones(size))
    assert opt.t == 1
