"""Neural-network layers built on :class:`repro.nn.tensor.Tensor`.

The paper's actor and critic are plain multi-layer perceptrons; this module
provides the :class:`Module` base class, :class:`Linear` affine maps, the
usual activations and a convenience :class:`MLP` factory.

:class:`Linear`, the activations and :class:`MLP` have two forward paths.
``module(tensor)`` records the autograd tape (:mod:`repro.nn.tensor`);
``forward_array``/``vjp`` run on plain arrays with hand-written
vector-Jacobian products.  Training and inference use the array path.  It
mirrors the tape's NumPy expressions op for op, so both give bit-identical
outputs and gradients, and the tape is its reference in the tests.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = [
    "Module",
    "Linear",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "Identity",
    "Sequential",
    "MLP",
]

_ACTIVATIONS = {}


class Module:
    """Base class: tracks parameters and sub-modules for optimizers."""

    def parameters(self) -> list[Tensor]:
        params: list[Tensor] = []
        for value in self.__dict__.values():
            if isinstance(value, Tensor) and value.requires_grad:
                params.append(value)
            elif isinstance(value, Module):
                params.extend(value.parameters())
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        params.extend(item.parameters())
                    elif isinstance(item, Tensor) and item.requires_grad:
                        params.append(item)
        return params

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def state_dict(self) -> list[np.ndarray]:
        """Flat list of parameter arrays (copies), in parameter order."""
        return [p.data.copy() for p in self.parameters()]

    def load_state_dict(self, state: list[np.ndarray]) -> None:
        params = self.parameters()
        if len(state) != len(params):
            raise ValueError(f"state has {len(state)} arrays, model has {len(params)} parameters")
        for param, array in zip(params, state):
            if param.data.shape != array.shape:
                raise ValueError(f"shape mismatch: {param.data.shape} vs {array.shape}")
            param.data[...] = array  # in place: an MLP's parameters view its flat vector

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)

    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError


class Linear(Module):
    """Affine layer ``y = x W + b`` with He/Xavier initialization."""

    def __init__(self, in_features: int, out_features: int, *, rng: np.random.Generator,
                 init: str = "he"):
        if init == "he":
            scale = np.sqrt(2.0 / in_features)
        elif init == "xavier":
            scale = np.sqrt(2.0 / (in_features + out_features))
        elif init == "small":
            scale = 1e-3
        else:
            raise ValueError(f"unknown init scheme: {init!r}")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(rng.normal(0.0, scale, size=(in_features, out_features)),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weight.data + self.bias.data

    def vjp(self, grad: np.ndarray, x: np.ndarray, *,
            grads: tuple[np.ndarray, np.ndarray] | None = None,
            wrt_input: bool = True) -> np.ndarray | None:
        """Cotangent of the input ``x`` given the output cotangent ``grad``
        (``None`` unless ``wrt_input``); with ``grads=(dW, db)`` the weight
        and bias cotangents are also written into those arrays."""
        if grads is not None:
            np.matmul(x.T, grad, out=grads[0])
            np.sum(grad, axis=0, out=grads[1])
        return grad @ self.weight.data.T if wrt_input else None


# Like Linear, the activations run on plain arrays too: ``forward_array(x)``
# and ``vjp(grad, x, y)``, the cotangent of input ``x`` given output ``y`` and
# its cotangent ``grad``.  The expressions are the Tensor methods' own, so the
# two paths agree bit for bit.
class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)

    def vjp(self, grad: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return grad * (x > 0.0)


class LeakyReLU(Module):
    def __init__(self, slope: float = 0.01):
        self.slope = slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.slope)

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        return np.where(x > 0.0, x, self.slope * x)

    def vjp(self, grad: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return grad * np.where(x > 0.0, 1.0, self.slope)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)

    def vjp(self, grad: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return grad * (1.0 - y**2)


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))

    def vjp(self, grad: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return grad * y * (1.0 - y)


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        return x

    def vjp(self, grad: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return grad


_ACTIVATIONS.update({
    "relu": ReLU,
    "leaky_relu": LeakyReLU,
    "tanh": Tanh,
    "sigmoid": Sigmoid,
    "identity": Identity,
})


class Sequential(Module):
    """Apply modules in order."""

    def __init__(self, *modules: Module):
        self.modules = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.modules:
            x = module(x)
        return x


class MLP(Module):
    """Multi-layer perceptron ``in -> hidden... -> out``.

    All weights and biases live in one flat float64 vector, :attr:`flat`;
    each parameter's array is a view into it, so one vectorised optimizer
    step (:meth:`flat_parameter`) updates the whole network.  The array path
    (:meth:`forward_array`, :meth:`vjp`) gives the output and its gradients
    with respect to the parameters and to the input without an autograd
    graph.

    Parameters
    ----------
    in_features, out_features:
        Input/output widths.
    hidden:
        Sequence of hidden-layer widths.
    activation:
        Name of the hidden activation (``relu``, ``tanh``, ...).
    output_activation:
        Name of the output activation (default ``identity``).
    rng:
        Random generator for weight initialization (required so optimization
        runs are reproducible).
    """

    def __init__(self, in_features: int, out_features: int, hidden: tuple[int, ...] = (64, 64),
                 *, activation: str = "relu", output_activation: str = "identity",
                 rng: np.random.Generator):
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation: {activation!r}")
        if output_activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation: {output_activation!r}")
        init = "he" if activation in ("relu", "leaky_relu") else "xavier"
        widths = [in_features, *hidden]
        layers: list[Module] = []
        for w_in, w_out in zip(widths[:-1], widths[1:]):
            layers.append(Linear(w_in, w_out, rng=rng, init=init))
            layers.append(_ACTIVATIONS[activation]())
        layers.append(Linear(widths[-1], out_features, rng=rng, init="xavier"))
        layers.append(_ACTIVATIONS[output_activation]())
        self.net = Sequential(*layers)
        self.in_features = in_features
        self.out_features = out_features
        params = self.parameters()
        self.flat = np.concatenate([p.data.ravel() for p in params])
        self.grad = np.zeros_like(self.flat)
        self._views: list[np.ndarray] = []
        grad_views = []
        offset = 0
        for param in params:
            param.data = self.flat[offset:offset + param.size].reshape(param.shape)
            self._views.append(param.data)
            grad_views.append(self.grad[offset:offset + param.size].reshape(param.shape))
            offset += param.size
        # (dW, db) views of :attr:`grad`, one pair per Linear layer.
        self._grads = list(zip(grad_views[0::2], grad_views[1::2]))

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)

    def flat_parameter(self) -> Tensor:
        """Every weight and bias as one Tensor, for a single optimizer step.

        Its ``data`` is :attr:`flat` and its ``grad`` is :attr:`grad`, the
        buffer :meth:`vjp` writes.  A parameter whose array was rebound
        (``param.data = ...``) is first copied back into the flat vector.
        """
        for param, view in zip(self.parameters(), self._views):
            if param.data is not view:
                view[...] = param.data
                param.data = view
        flat = Tensor(self.flat)
        flat.grad = self.grad
        return flat

    def forward_array(self, x: np.ndarray) -> list[np.ndarray]:
        """Forward pass on a raw array; returns the input and every layer's output.

        The last entry is the network output; :meth:`vjp` takes the whole list.
        """
        activations = [np.asarray(x, dtype=np.float64)]
        for module in self.net.modules:
            activations.append(module.forward_array(activations[-1]))
        return activations

    def vjp(self, activations: list[np.ndarray], grad: np.ndarray, *,
            wrt_params: bool = True, wrt_input: bool = True) -> np.ndarray | None:
        """Vector-Jacobian product of :meth:`forward_array` for the output cotangent ``grad``.

        With ``wrt_params`` the parameter cotangent is written into
        :attr:`grad`; with ``wrt_input`` the input cotangent is returned
        (else ``None``).
        """
        modules = self.net.modules
        for i in range(len(modules) - 1, -1, -1):
            module = modules[i]
            if isinstance(module, Linear):
                grad = module.vjp(grad, activations[i],
                                  grads=self._grads[i // 2] if wrt_params else None,
                                  wrt_input=wrt_input or i > 0)
            else:
                grad = module.vjp(grad, activations[i], activations[i + 1])
        return grad

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Forward pass on a raw array without building the autograd graph."""
        return self.forward_array(np.atleast_2d(x))[-1]
