"""Figure-of-Merit function g(.) — Eq. 4 of the paper.

    g[f(x)] = w0 * f0(x) + sum_i min(1, max(0, wi * fi(x)))

operating on *normalized* performance rows (objective divided by its
reference scale, constraints in the ``fi <= 0`` violation form).  The
``max`` clip equates all designs once a constraint is met; the ``min`` clip
stops one badly-violated constraint from dominating.  The NumPy version
serves ranking, selection, curves and the actor's training loss (Eq. 5),
whose gradient is the hand-written :func:`fom_vjp`.  The autograd version
:func:`fom_tensor` computes the same function and is the reference that
:func:`fom_vjp` is tested against, bit for bit.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..nn import Tensor

__all__ = ["fom_normalized", "fom_from_raw", "fom_vjp", "fom_tensor"]


def fom_normalized(Fn: np.ndarray, w0: float, weights: np.ndarray) -> np.ndarray:
    """FoM for normalized rows ``[f0n, f1n.. fmn]``; returns shape ``(n,)``."""
    Fn = np.atleast_2d(np.asarray(Fn, dtype=np.float64))
    values = w0 * Fn[:, 0]
    if Fn.shape[1] > 1:
        clipped = np.clip(np.asarray(weights) * Fn[:, 1:], 0.0, 1.0)
        values = values + clipped.sum(axis=1)
    return values


def fom_from_raw(problem: Any, F_raw: np.ndarray) -> np.ndarray:
    """FoM directly from raw performance rows of ``problem``."""
    Fn = np.atleast_2d(problem.normalize(F_raw))
    return fom_normalized(Fn, problem.objective.weight, problem.constraint_weights())


def fom_vjp(Fn: np.ndarray, w0: float, weights: np.ndarray,
            grad: np.ndarray) -> np.ndarray:
    """Vector-Jacobian product of :func:`fom_normalized` at rows ``Fn``.

    ``grad`` is the cotangent of the ``(n,)`` FoM values; returns the
    ``(n, m+1)`` cotangent of ``Fn``.  Like :func:`fom_tensor`, the objective
    term passes gradient everywhere and each constraint term only while
    ``0 <= wi fi <= 1`` (the clip's subgradient); the expressions mirror the
    autograd graph's, so both give the same bits.
    """
    Fn = np.atleast_2d(np.asarray(Fn, dtype=np.float64))
    column = np.asarray(grad, dtype=np.float64).reshape(-1, 1)
    out = np.zeros_like(Fn)
    out[:, :1] += column * w0
    if Fn.shape[1] > 1:
        weights_row = np.asarray(weights, dtype=np.float64).reshape(1, -1)
        scaled = Fn[:, 1:] * weights_row
        active = (scaled >= 0.0) & (scaled <= 1.0)
        out[:, 1:] += (column * active) * weights_row
    return out


def fom_tensor(prediction: Tensor, w0: float, weights: np.ndarray) -> Tensor:
    """Differentiable FoM of critic predictions, shape ``(n, m+1) -> (n,)``.

    Gradients flow through the objective term everywhere and through each
    constraint term only while ``0 < wi fi < 1`` (the clip's subgradient),
    matching the behaviour implied by Eq. 5.
    """
    objective = prediction[:, 0:1] * w0
    if prediction.shape[1] > 1:
        weights_row = np.asarray(weights, dtype=np.float64).reshape(1, -1)
        clipped = (prediction[:, 1:] * weights_row).clip(0.0, 1.0)
        return (objective + clipped.sum(axis=1, keepdims=True)).sum(axis=1)
    return objective.sum(axis=1)
