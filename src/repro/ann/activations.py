"""Activation functions for the feed-forward neural networks.

The paper uses the classic sigmoid unit (its Figure 5 reproduces the textbook
diagram from Mitchell's *Machine Learning*); any "nonlinear, monotonic and
differentiable" activation would do, so a few common alternatives are
provided for the ablation studies.  Each activation is a small object with a
``value`` and a ``derivative`` method; derivatives are expressed in terms of
the activation *output* where that is cheaper (sigmoid, tanh), which is what
the backpropagation implementation expects.  ``value`` writes into ``out``
when given one (the forward pass passes the layer's own buffer, so the
activation runs in place); without it, ``value`` leaves its input alone.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

__all__ = [
    "Activation",
    "Sigmoid",
    "Tanh",
    "ReLU",
    "Identity",
    "get_activation",
    "ACTIVATIONS",
]


class Activation:
    """Base class for activations used by :class:`repro.ann.network.NeuralNetwork`."""

    name = "base"

    def value(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Apply the activation element-wise.

        The result goes into ``out`` when given (it may be ``x`` itself),
        else into a new array; ``x`` is changed only when it is ``out``.
        """
        raise NotImplementedError

    def derivative_from_output(self, y: np.ndarray) -> np.ndarray:
        """Derivative of the activation expressed via its output ``y``.

        For activations whose derivative is not expressible from the output
        alone, implementations may raise and the trainer will fall back to
        :meth:`derivative_from_input`.
        """
        raise NotImplementedError

    def derivative_from_input(self, x: np.ndarray) -> np.ndarray:
        """Derivative of the activation at pre-activation input ``x``."""
        return self.derivative_from_output(self.value(x))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class Sigmoid(Activation):
    """Logistic sigmoid ``1 / (1 + exp(-x))`` — the paper's choice."""

    name = "sigmoid"

    def value(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        # Clipping keeps exp() finite for extreme pre-activations without
        # changing the result materially.  Each step is the elementwise
        # operation of 1 / (1 + exp(-clip(x))), so every element rounds
        # the same in place or not.
        out = np.clip(x, -60.0, 60.0, out=out)
        np.negative(out, out=out)
        np.exp(out, out=out)
        out += 1.0
        return np.divide(1.0, out, out=out)

    def derivative_from_output(self, y: np.ndarray) -> np.ndarray:
        return y * (1.0 - y)


class Tanh(Activation):
    """Hyperbolic tangent activation."""

    name = "tanh"

    def value(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        return np.tanh(x, out=out)

    def derivative_from_output(self, y: np.ndarray) -> np.ndarray:
        return 1.0 - y * y


class ReLU(Activation):
    """Rectified linear unit (provided for ablations; not used by the paper)."""

    name = "relu"

    def value(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        return np.maximum(x, 0.0, out=out)

    def derivative_from_output(self, y: np.ndarray) -> np.ndarray:
        return (y > 0.0).astype(y.dtype)


class Identity(Activation):
    """Identity activation, used for linear regression output layers."""

    name = "identity"

    def value(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        if out is None or out is x:
            return x
        np.copyto(out, x)
        return out

    def derivative_from_output(self, y: np.ndarray) -> np.ndarray:
        return np.ones_like(y)


ACTIVATIONS: Dict[str, Activation] = {
    a.name: a for a in (Sigmoid(), Tanh(), ReLU(), Identity())
}


def get_activation(name: str) -> Activation:
    """Look up an activation by name (``sigmoid``, ``tanh``, ``relu``, ``identity``)."""
    try:
        return ACTIVATIONS[name.lower()]
    except KeyError as exc:
        raise KeyError(
            f"unknown activation {name!r}; available: {sorted(ACTIVATIONS)}"
        ) from exc
