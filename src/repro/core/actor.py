"""Actor network — proposes design changes, trained through the critic (Eq. 5-6).

The actor ``mu(x) -> dx`` is an MLP with a tanh output scaled by the span of
the elite-restricted search region, so a saturated output can move a design
across the whole region but never (by construction) far beyond it.  Training
minimizes the FoM of the critic's prediction at the displaced design plus a
large quadratic penalty on leaving the restricted region:

    L = mean_k g[Q(x_k, mu(x_k))] + || lambda * viol_k ||^2        (Eq. 5)
    viol = max(0, lb - (x + dx)) + max(0, (x + dx) - ub)           (Eq. 6)

Critic weights are frozen during actor training; gradients flow through the
critic's *inputs* into the actor parameters, exactly as in DDPG.
"""

from __future__ import annotations

import numpy as np

from ..nn import MLP, Adam
from .critic import Critic
from .fom import fom_normalized, fom_vjp

__all__ = ["Actor"]


class Actor:
    """Trainable proposal network ``mu(x) -> dx`` over normalized designs."""

    def __init__(self, dim: int, *, hidden: tuple[int, ...] = (64, 64), lr: float = 1e-3,
                 epochs: int = 30, jitter_copies: int = 4,
                 rng: np.random.Generator):
        self.dim = int(dim)
        self.rng = rng
        self.net = MLP(self.dim, self.dim, hidden, activation="relu",
                       output_activation="tanh", rng=rng)
        self.lr = float(lr)
        self.epochs = int(epochs)
        self.jitter_copies = int(jitter_copies)
        self.step_scale = np.ones(self.dim)

    def fit(self, critic: Critic, anchors: np.ndarray, lb_rest: np.ndarray,
            ub_rest: np.ndarray, *, w0: float, weights: np.ndarray,
            lam: float = 100.0) -> float:
        """Train against the frozen ``critic``; returns the final loss value.

        ``anchors`` are the elite designs (normalized coordinates); the
        training batch augments them with jittered copies inside the
        restricted region so the actor generalizes over the whole region
        rather than memorizing ``n_elite`` points.
        """
        anchors = np.atleast_2d(anchors)
        lb_rest = np.asarray(lb_rest, dtype=np.float64)
        ub_rest = np.asarray(ub_rest, dtype=np.float64)
        span = ub_rest - lb_rest
        self.step_scale = np.maximum(span, 1e-6)

        batch = [anchors]
        for _ in range(self.jitter_copies):
            jitter = self.rng.normal(0.0, 0.15, size=anchors.shape) * span
            batch.append(np.clip(anchors + jitter, 0.0, 1.0))
        x_train = np.vstack(batch)

        critic._check_trained()
        optimizer = Adam([self.net.flat_parameter()], lr=self.lr)
        n = len(x_train)
        grad_rows = np.full(n, 1.0 / n)  # cotangent of each row's g + penalty
        last = np.inf
        for _ in range(self.epochs):
            activations = self.net.forward_array(x_train)
            dx = activations[-1] * self.step_scale
            critic_activations = critic.net.forward_array(np.concatenate([x_train, dx], axis=1))
            prediction = critic.target_scaler.inverse_transform(critic_activations[-1])
            below = lb_rest.reshape(1, -1) - (x_train + dx)
            above = (x_train + dx) - ub_rest.reshape(1, -1)
            lam_viol = (np.maximum(below, 0.0) + np.maximum(above, 0.0)) * lam
            g = fom_normalized(prediction, w0, weights)
            last = float((g + (lam_viol**2.0).sum(axis=1)).sum() * (1.0 / n))
            # Backward: L's autograd graph op for op, so bit-identical (x**1.0 == x).
            grad_viol = ((grad_rows[:, None] * 2.0) * lam_viol) * lam
            grad_pred = fom_vjp(prediction, w0, weights, grad_rows) * critic.target_scaler.scale_
            grad_input = critic.net.vjp(critic_activations, grad_pred, wrt_params=False)
            grad_dx = (grad_viol * (above >= 0.0) - grad_viol * (below >= 0.0)
                       + grad_input[:, self.dim:])
            self.net.vjp(activations, grad_dx * self.step_scale, wrt_input=False)
            optimizer.step()
        return last

    def propose(self, x: np.ndarray) -> np.ndarray:
        """Proposed displacement ``dx`` for each design row of ``x``."""
        out = self.net.predict(np.atleast_2d(x))
        return out * self.step_scale
