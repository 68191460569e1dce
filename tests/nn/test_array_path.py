"""The array path (forward_array / vjp / flat Adam) against finite differences
and, bit for bit, against the autograd tape it replaces in training."""

import numpy as np
import pytest

from repro.nn import (
    MLP,
    SGD,
    Adam,
    Identity,
    LeakyReLU,
    Linear,
    ReLU,
    Sigmoid,
    Tanh,
    Tensor,
    mse_loss,
    mse_value_and_grad,
)

ACTIVATIONS = [ReLU(), LeakyReLU(0.1), Tanh(), Sigmoid(), Identity()]


def central_difference(fn, x, eps=1e-6):
    """Gradient of the scalar ``fn`` at array ``x`` (modified in place, restored)."""
    grad = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        orig = x[i]
        x[i] = orig + eps
        hi = fn()
        x[i] = orig - eps
        lo = fn()
        x[i] = orig
        grad[i] = (hi - lo) / (2 * eps)
    return grad


def random_shape(rng):
    return int(rng.integers(1, 7)), int(rng.integers(1, 6))


def away_from_kinks(rng, shape):
    """Inputs at least 0.05 from ReLU's kink, so central differences are exact enough."""
    x = rng.normal(size=shape)
    return np.where(np.abs(x) < 0.05, 0.1 * np.sign(x) + 0.05, x)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("module", ACTIVATIONS, ids=lambda m: type(m).__name__)
def test_activation_vjp_matches_finite_differences(module, seed):
    rng = np.random.default_rng(seed)
    shape = random_shape(rng)
    x = away_from_kinks(rng, shape)
    cotangent = rng.normal(size=shape)
    y = module.forward_array(x)
    expected = central_difference(lambda: float(np.sum(cotangent * module.forward_array(x))), x)
    np.testing.assert_allclose(module.vjp(cotangent, x, y), expected, atol=1e-6)


@pytest.mark.parametrize("module", ACTIVATIONS, ids=lambda m: type(m).__name__)
def test_activation_array_path_is_the_tape_bitwise(module):
    rng = np.random.default_rng(7)
    x_data = rng.normal(size=(9, 5)) * 3.0
    cotangent = rng.normal(size=(9, 5))
    x = Tensor(x_data.copy(), requires_grad=True)
    y = module(x)
    y.backward(cotangent)
    y_array = module.forward_array(x_data)
    assert np.array_equal(y_array, y.data)
    assert np.array_equal(module.vjp(cotangent, x_data, y_array), x.grad)


@pytest.mark.parametrize("seed", range(4))
def test_linear_vjp_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    batch, n_in = random_shape(rng)
    n_out = int(rng.integers(1, 6))
    layer = Linear(n_in, n_out, rng=rng)
    layer.bias.data[:] = rng.normal(size=n_out)
    x = rng.normal(size=(batch, n_in))
    cotangent = rng.normal(size=(batch, n_out))
    grads = (np.empty((n_in, n_out)), np.empty(n_out))
    grad_x = layer.vjp(cotangent, x, grads=grads)

    def objective():
        return float(np.sum(cotangent * layer.forward_array(x)))

    np.testing.assert_allclose(grad_x, central_difference(objective, x), atol=1e-6)
    np.testing.assert_allclose(grads[0], central_difference(objective, layer.weight.data),
                               atol=1e-6)
    np.testing.assert_allclose(grads[1], central_difference(objective, layer.bias.data),
                               atol=1e-6)
    assert layer.vjp(cotangent, x, grads=grads, wrt_input=False) is None


@pytest.mark.parametrize("hidden,activation,output", [
    ((5,), "relu", "identity"),
    ((4, 3), "tanh", "tanh"),
    ((3, 3, 3), "leaky_relu", "sigmoid"),
])
@pytest.mark.parametrize("seed", range(3))
def test_mlp_vjp_matches_finite_differences(hidden, activation, output, seed):
    rng = np.random.default_rng(seed)
    batch, n_in = random_shape(rng)
    n_out = int(rng.integers(1, 4))
    net = MLP(n_in, n_out, hidden, activation=activation, output_activation=output, rng=rng)
    net.flat[:] += rng.normal(scale=0.1, size=net.flat.size)  # non-zero biases too
    x = rng.normal(size=(batch, n_in))
    cotangent = rng.normal(size=(batch, n_out))
    grad_x = net.vjp(net.forward_array(x), cotangent)

    def objective():
        return float(np.sum(cotangent * net.forward_array(x)[-1]))

    np.testing.assert_allclose(grad_x, central_difference(objective, x), atol=1e-6)
    np.testing.assert_allclose(net.grad, central_difference(objective, net.flat), atol=1e-6)


def test_mse_value_and_grad_matches_finite_differences():
    rng = np.random.default_rng(3)
    prediction = rng.normal(size=(6, 3))
    target = rng.normal(size=(6, 3))
    value, grad = mse_value_and_grad(prediction, target)
    assert value == pytest.approx(np.mean((prediction - target) ** 2))
    expected = central_difference(lambda: mse_value_and_grad(prediction, target)[0], prediction)
    np.testing.assert_allclose(grad, expected, atol=1e-7)


def tape_gradients(net, x, cotangent):
    """Tape output, flat parameter gradient and input gradient of ``net`` at ``x``."""
    x_t = Tensor(x, requires_grad=True)
    net.zero_grad()
    out = net(x_t)
    out.backward(cotangent)
    return out.data, np.concatenate([p.grad.ravel() for p in net.parameters()]), x_t.grad


@pytest.mark.parametrize("hidden,activation,output", [
    ((64, 64), "relu", "identity"),
    ((32,), "relu", "tanh"),
    ((16, 16, 16), "relu", "identity"),
    ((8, 8), "sigmoid", "leaky_relu"),
])
def test_mlp_array_path_is_the_tape_bitwise(hidden, activation, output):
    rng = np.random.default_rng(11)
    net = MLP(10, 7, hidden, activation=activation, output_activation=output, rng=rng)
    net.flat[:] += rng.normal(scale=0.05, size=net.flat.size)
    x = rng.normal(size=(37, 10))
    cotangent = rng.normal(size=(37, 7))
    out, grad_params, grad_x = tape_gradients(net, x, cotangent)
    activations = net.forward_array(x)
    assert np.array_equal(activations[-1], out)
    assert np.array_equal(net.predict(x), out)
    assert np.array_equal(net.vjp(activations, cotangent), grad_x)
    assert np.array_equal(net.grad, grad_params)
    assert net.vjp(activations, cotangent, wrt_input=False) is None


def test_mse_value_and_grad_is_the_tape_bitwise():
    rng = np.random.default_rng(5)
    prediction = rng.normal(size=(13, 4))
    target = rng.normal(size=(13, 4))
    p = Tensor(prediction, requires_grad=True)
    loss = mse_loss(p, Tensor(target))
    loss.backward()
    value, grad = mse_value_and_grad(prediction, target)
    assert value == loss.item()
    assert np.array_equal(grad, p.grad)


def test_flat_vector_backs_every_parameter():
    rng = np.random.default_rng(0)
    net = MLP(3, 2, (4, 5), rng=rng)
    params = net.parameters()
    assert net.flat.size == net.num_parameters() == net.grad.size
    for param in params:
        assert np.shares_memory(param.data, net.flat)
    net.flat[:] = np.arange(net.flat.size)
    assert params[0].data[0, 0] == 0.0 and params[-1].data[-1] == net.flat.size - 1
    flat = net.flat_parameter()
    assert flat.data is net.flat and flat.grad is net.grad
    assert flat not in params  # the per-layer parameter list is unchanged


def test_flat_parameter_readopts_rebound_arrays():
    net = MLP(3, 2, (4,), rng=np.random.default_rng(0))
    weight = net.parameters()[0]
    weight.data = weight.data + 1.0
    rebound = weight.data.copy()
    net.flat_parameter()
    assert np.shares_memory(weight.data, net.flat)
    assert np.array_equal(weight.data, rebound)


def test_mlp_init_consumes_the_same_draws():
    """Flat storage must not change initialization: same rng, same weights."""
    rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
    net = MLP(6, 3, (8, 8), rng=rng_a)
    expected = [rng_b.normal(0.0, np.sqrt(2.0 / 6), size=(6, 8)), np.zeros(8),
                rng_b.normal(0.0, np.sqrt(2.0 / 8), size=(8, 8)), np.zeros(8),
                rng_b.normal(0.0, np.sqrt(2.0 / 11), size=(8, 3)), np.zeros(3)]
    for param, array in zip(net.parameters(), expected):
        assert np.array_equal(param.data, array)
    assert rng_a.random() == rng_b.random()


def test_adam_in_place_step_is_the_textbook_update_bitwise():
    """In-place Adam keeps the arithmetic of ``p = p - lr * m_hat / (sqrt(v_hat) + eps)``."""
    rng = np.random.default_rng(8)
    param = Tensor(rng.normal(size=50))
    reference = param.data.copy()
    optimizer = Adam([param], lr=3e-3)
    m = np.zeros(50)
    v = np.zeros(50)
    for t in range(1, 40):
        param.grad = rng.normal(size=50)
        optimizer.step()
        m = 0.9 * m + (1.0 - 0.9) * param.grad
        v = 0.999 * v + (1.0 - 0.999) * param.grad**2
        m_hat = m / (1.0 - 0.9**t)
        v_hat = v / (1.0 - 0.999**t)
        reference = reference - 3e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.array_equal(param.data, reference)


def test_flat_adam_step_is_the_per_parameter_step_bitwise():
    rng = np.random.default_rng(9)
    net_a = MLP(5, 3, (6, 6), rng=np.random.default_rng(1))
    net_b = MLP(5, 3, (6, 6), rng=np.random.default_rng(1))
    flat_opt = Adam([net_a.flat_parameter()], lr=1e-2)
    per_param_opt = Adam(net_b.parameters(), lr=1e-2)
    for _ in range(25):
        g = rng.normal(size=net_a.flat.size)
        net_a.grad[:] = g
        offset = 0
        for param in net_b.parameters():
            param.grad = g[offset:offset + param.size].reshape(param.shape).copy()
            offset += param.size
        flat_opt.step()
        per_param_opt.step()
    assert np.array_equal(net_a.flat, net_b.flat)
    assert all(np.shares_memory(p.data, net_b.flat) for p in net_b.parameters())


def test_sgd_updates_in_place():
    net = MLP(2, 1, (3,), rng=np.random.default_rng(0))
    before = net.flat.copy()
    param = net.flat_parameter()
    net.grad[:] = 1.0
    SGD([param], lr=0.5).step()
    np.testing.assert_array_equal(net.flat, before - 0.5)
    assert all(np.shares_memory(p.data, net.flat) for p in net.parameters())
