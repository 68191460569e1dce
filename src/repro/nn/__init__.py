"""A small NumPy deep-learning substrate (layers, gradients, optimizers).

This package replaces PyTorch for the DNN-Opt reproduction: MLP building
blocks, Adam/SGD optimizers and the losses/scalers the paper's actor-critic
needs.  Production training and inference run on plain arrays: an
:class:`MLP` keeps its weights in one flat vector, ``forward_array``/``vjp``
give the output and its hand-written gradients with respect to parameters
and inputs, and one in-place :class:`Adam` step updates the whole vector.
The reverse-mode autograd tape (:class:`Tensor`) is the gradient oracle the
array path is tested against, bit for bit; no training loop uses it.
"""

from .tensor import Tensor, concatenate, maximum, minimum, where
from .layers import MLP, Identity, LeakyReLU, Linear, Module, ReLU, Sequential, Sigmoid, Tanh
from .optim import SGD, Adam, Optimizer
from .losses import huber_loss, mae_loss, mse_loss, mse_value_and_grad
from .scaler import MinMaxScaler, StandardScaler

__all__ = [
    "Tensor",
    "concatenate",
    "maximum",
    "minimum",
    "where",
    "Module",
    "Linear",
    "MLP",
    "Sequential",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "Identity",
    "Optimizer",
    "SGD",
    "Adam",
    "mse_loss",
    "mse_value_and_grad",
    "mae_loss",
    "huber_loss",
    "StandardScaler",
    "MinMaxScaler",
]
