"""Critic/actor training on the array path, bit for bit against the autograd
tape, and the hand-written FoM gradient against finite differences."""

import numpy as np
import pytest

from repro.core import Actor, Critic, fom_normalized, fom_tensor, fom_vjp
from repro.nn import Adam, Tensor, concatenate, maximum, mse_loss


# ----------------------------------------------------------------------
# Tape oracles: the autograd training loops the array path replaced.
# ----------------------------------------------------------------------
def tape_critic_fit(critic, inputs, targets):
    scaled = critic.target_scaler.fit_transform(targets)
    optimizer = Adam(critic.net.parameters(), lr=critic.lr)
    n = len(inputs)
    batch = min(critic.batch_size, n)
    last_loss = np.inf
    for _ in range(critic.epochs):
        order = critic.rng.permutation(n)
        losses = []
        for start in range(0, n, batch):
            rows = order[start:start + batch]
            loss = mse_loss(critic.net(Tensor(inputs[rows])), Tensor(scaled[rows]))
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        last_loss = float(np.mean(losses))
    critic._trained = True
    return last_loss


def tape_actor_fit(actor, critic, anchors, lb_rest, ub_rest, *, w0, weights, lam=100.0):
    span = ub_rest - lb_rest
    actor.step_scale = np.maximum(span, 1e-6)
    batch = [anchors]
    for _ in range(actor.jitter_copies):
        jitter = actor.rng.normal(0.0, 0.15, size=anchors.shape) * span
        batch.append(np.clip(anchors + jitter, 0.0, 1.0))
    x_const = Tensor(np.vstack(batch))
    lb_t = Tensor(lb_rest.reshape(1, -1))
    ub_t = Tensor(ub_rest.reshape(1, -1))
    critic_params = critic.net.parameters()
    for p in critic_params:
        p.requires_grad = False
    optimizer = Adam(actor.net.parameters(), lr=actor.lr)
    last = np.inf
    try:
        for _ in range(actor.epochs):
            dx = actor.net(x_const) * actor.step_scale
            prediction = critic.forward_tensor(concatenate([x_const, dx], axis=1))
            g = fom_tensor(prediction, w0, weights)
            moved = x_const + dx
            viol = maximum(lb_t - moved, 0.0) + maximum(moved - ub_t, 0.0)
            penalty = ((viol * lam) ** 2).sum(axis=1)
            loss = (g + penalty).mean()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            last = loss.item()
    finally:
        for p in critic_params:
            p.requires_grad = True
    return float(last)


def archive(n, d, outputs, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, d))
    Y = np.column_stack([np.sum((X - 0.4) ** 2, axis=1)]
                        + [X[:, i % d] - 0.5 + 0.1 * i for i in range(outputs - 1)])
    return X, Y


def twin_critics(d, outputs, hidden, seed, **kwargs):
    return (Critic(d, outputs, hidden=hidden, rng=np.random.default_rng(seed), **kwargs),
            Critic(d, outputs, hidden=hidden, rng=np.random.default_rng(seed), **kwargs))


# hidden widths, archive rows, design dim, critic outputs, critic batch size
CASES = [
    pytest.param((64, 64), 200, 4, 5, 64, id="64x64-partial-last-batch"),
    pytest.param((32,), 45, 3, 3, 128, id="32-n-below-batch"),
    pytest.param((16, 16, 16), 150, 2, 1, 32, id="16x16x16-single-output"),
    pytest.param((64, 64), 256, 6, 31, 128, id="64x64-31-outputs"),
]


@pytest.mark.parametrize("hidden,n,d,outputs,batch_size", CASES)
def test_critic_fit_is_the_tape_bitwise(hidden, n, d, outputs, batch_size):
    rng = np.random.default_rng(0)
    inputs = rng.uniform(-1.0, 1.0, size=(n, 2 * d))
    targets = rng.normal(size=(n, outputs)) * np.linspace(0.5, 3.0, outputs)
    fused, tape = twin_critics(d, outputs, hidden, seed=d, epochs=6, batch_size=batch_size)
    loss_fused = fused.fit(inputs, targets)
    loss_tape = tape_critic_fit(tape, inputs, targets)
    assert loss_fused == loss_tape
    assert np.array_equal(fused.net.flat, tape.net.flat)
    # Same rng consumption: one permutation per epoch.
    assert fused.rng.random() == tape.rng.random()


@pytest.mark.parametrize("hidden,n,d,outputs,batch_size", CASES)
def test_actor_fit_is_the_tape_bitwise(hidden, n, d, outputs, batch_size):
    X, Y = archive(n=max(n // 10, 6), d=d, outputs=outputs, seed=d)
    rng = np.random.default_rng(0)
    inputs = np.hstack([np.repeat(X, len(X), axis=0), np.tile(X, (len(X), 1))
                        - np.repeat(X, len(X), axis=0)])
    targets = np.tile(Y, (len(X), 1))
    critic = Critic(d, outputs, hidden=hidden, epochs=4, batch_size=batch_size, rng=rng)
    critic.fit(inputs, targets)
    critic_before = critic.net.flat.copy()

    weights = np.linspace(0.5, 4.0, outputs - 1)
    lb = np.full(d, 0.3)
    ub = np.full(d, 0.6)  # anchors outside the region: the penalty is active
    actors = [Actor(d, hidden=hidden, epochs=15, rng=np.random.default_rng(5))
              for _ in range(2)]
    loss_fused = actors[0].fit(critic, X[:4], lb, ub, w0=1.3, weights=weights)
    loss_tape = tape_actor_fit(actors[1], critic, X[:4], lb, ub, w0=1.3, weights=weights)
    assert loss_fused == loss_tape
    assert np.array_equal(actors[0].net.flat, actors[1].net.flat)
    assert np.array_equal(actors[0].step_scale, actors[1].step_scale)
    assert actors[0].rng.random() == actors[1].rng.random()  # same jitter draws
    assert np.array_equal(critic.net.flat, critic_before)  # the critic stays frozen
    assert np.array_equal(actors[0].propose(X), actors[1].propose(X))


def test_inference_is_the_tape_forward_bitwise():
    X, Y = archive(n=12, d=3, outputs=4, seed=2)
    rng = np.random.default_rng(2)
    critic = Critic(3, 4, epochs=3, rng=rng)
    inputs = np.hstack([X, X[::-1] - X])
    critic.fit(inputs, Y)
    x, dx = X, X[::-1] - X
    via_tape = critic.forward_tensor(Tensor(np.concatenate([x, dx], axis=1))).data
    assert np.array_equal(critic.predict(x, dx), via_tape)
    rmse = np.sqrt(np.mean((via_tape - Y) ** 2))
    assert critic.validation_rmse(inputs, Y) == rmse

    actor = Actor(3, epochs=2, rng=rng)
    actor.fit(critic, X[:3], np.zeros(3), np.ones(3), w0=1.0, weights=np.ones(3))
    via_tape = (actor.net(Tensor(X)) * actor.step_scale).data
    assert np.array_equal(actor.propose(X), via_tape)


def test_training_and_inference_build_no_tape(monkeypatch):
    X, Y = archive(n=6, d=2, outputs=2, seed=0)
    critic = Critic(2, 2, epochs=2, rng=np.random.default_rng(0))
    actor = Actor(2, epochs=2, rng=np.random.default_rng(1))
    created = []
    original = Tensor.__init__

    def counting(self, *args, **kwargs):
        created.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting)
    critic.fit(np.hstack([X, X - X[::-1]]), Y)
    actor.fit(critic, X[:2], np.zeros(2), np.ones(2), w0=1.0, weights=np.ones(1))
    assert len(created) == 2  # each fit wraps its flat vector once for Adam
    critic.predict(X, X)
    critic.validation_rmse(np.hstack([X, X]), Y)
    actor.propose(X)
    assert len(created) == 2


# ----------------------------------------------------------------------
# FoM vector-Jacobian product (Eq. 4).
# ----------------------------------------------------------------------
def fom_rows(rng, n, columns, weights):
    """Random normalized rows whose weighted constraints sit clear of the clip edges."""
    Fn = rng.normal(scale=0.8, size=(n, columns))
    if columns > 1:
        scaled = Fn[:, 1:] * weights
        for edge in (0.0, 1.0):
            near = np.abs(scaled - edge) < 0.02
            scaled[near] = edge + 0.05
        Fn[:, 1:] = scaled / weights
    return Fn


@pytest.mark.parametrize("columns", [1, 2, 5])
@pytest.mark.parametrize("seed", range(3))
def test_fom_vjp_matches_finite_differences(columns, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    weights = rng.uniform(0.5, 3.0, size=columns - 1)
    Fn = fom_rows(rng, n, columns, weights)
    cotangent = rng.normal(size=n)
    w0 = float(rng.uniform(0.5, 2.0))
    grad = fom_vjp(Fn, w0, weights, cotangent)
    assert grad.shape == Fn.shape
    eps = 1e-6
    expected = np.zeros_like(Fn)
    for i in np.ndindex(Fn.shape):
        hi, lo = Fn.copy(), Fn.copy()
        hi[i] += eps
        lo[i] -= eps
        expected[i] = (cotangent @ fom_normalized(hi, w0, weights)
                       - cotangent @ fom_normalized(lo, w0, weights)) / (2 * eps)
    np.testing.assert_allclose(grad, expected, atol=1e-6)


@pytest.mark.parametrize("columns", [1, 4])
def test_fom_vjp_is_the_tape_bitwise(columns):
    rng = np.random.default_rng(3)
    Fn = rng.normal(size=(40, columns))
    Fn[::7, 1:] = 0.0  # exact clip edges route gradient like the tape does
    weights = rng.uniform(0.5, 3.0, size=columns - 1)
    cotangent = rng.normal(size=40)
    prediction = Tensor(Fn, requires_grad=True)
    g = fom_tensor(prediction, 0.7, weights)
    g.backward(cotangent)
    assert np.array_equal(fom_normalized(Fn, 0.7, weights), g.data)
    assert np.array_equal(fom_vjp(Fn, 0.7, weights, cotangent), prediction.grad)
