"""Loss functions for :mod:`repro.nn`."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["mse_loss", "mse_value_and_grad", "mae_loss", "huber_loss"]


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements (Eq. 3 of the paper)."""
    diff = prediction - target
    return (diff * diff).mean()


def mse_value_and_grad(prediction: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """:func:`mse_loss` on arrays: its value and its gradient w.r.t. ``prediction``.

    Bit-identical to the tape, where the gradient is the sum of the two
    ``diff * diff`` factors' branches, ``diff/size + diff/size``.
    """
    diff = prediction - target
    scale = 1.0 / diff.size
    grad = diff * scale
    grad += grad
    return float((diff * diff).sum() * scale), grad


def mae_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error over all elements."""
    return (prediction - target).abs().mean()


def huber_loss(prediction: Tensor, target: Tensor, delta: float = 1.0) -> Tensor:
    """Huber loss: quadratic near zero, linear in the tails."""
    diff = (prediction - target).abs()
    quadratic = diff.clip(None, delta)
    linear = diff - quadratic
    return (quadratic * quadratic * 0.5 + linear * delta).mean()
