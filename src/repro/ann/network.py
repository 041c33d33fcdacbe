"""Fully connected feed-forward neural networks (multi-layer perceptrons).

The paper's predictor is the textbook three-layer feed-forward ANN of
Mitchell's *Machine Learning*: an input layer, one (or more) hidden layers of
sigmoid units, and an output layer, with every unit connected to all units of
the next layer by weighted edges (its Figure 4).  This module implements that
network from scratch on top of numpy:

* weights are initialized near zero (small uniform values), matching the
  paper's description that "weights are initialized near zero ... as weights
  grow, the network becomes increasingly nonlinear";
* :meth:`NeuralNetwork.forward` caches per-layer activations so
  :meth:`NeuralNetwork.backward` can compute exact gradients via
  backpropagation;
* parameters can be flattened to / restored from a single vector, which the
  early-stopping trainer uses to snapshot the best-so-far model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .activations import Activation, Identity, Sigmoid, get_activation

__all__ = ["LayerGradients", "NeuralNetwork", "require_batch_matrix"]


def require_batch_matrix(inputs: np.ndarray) -> np.ndarray:
    """Validate the strict ``(batch, features)`` contract of predict_batch.

    Shared by every batched path — network, ensemble and the predictor
    layer — so the interchangeable model kinds all catch a stray 1-D vector
    the same way.
    """
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2:
        raise ValueError(
            f"predict_batch expects a 2-D (batch, features) array, "
            f"got ndim={inputs.ndim}"
        )
    return inputs


@dataclass
class LayerGradients:
    """Gradients of the loss with respect to one layer's parameters."""

    weights: np.ndarray
    biases: np.ndarray


def _feed_forward(
    layers: Sequence[Tuple[np.ndarray, np.ndarray]],
    inputs: np.ndarray,
    hidden_activation: Activation,
    output_activation: Activation,
) -> List[np.ndarray]:
    """Activations of every layer, input first, for one network or a stack.

    ``layers`` holds each layer's ``(weights, biases)``.  One network has
    ``(fan_in, fan_out)`` weights, ``(fan_out,)`` biases and a
    ``(batch, features)`` input.  A stack of same-shaped networks adds
    leading axes to all three (biases ``(..., 1, fan_out)``) that broadcast
    against each other, and each layer is then one batched matmul over the
    whole stack.  Each layer lives in one buffer: the matmul's result, then
    the bias add and the activation in place.
    """
    activations = [inputs]
    last = len(layers) - 1
    for layer, (weights, biases) in enumerate(layers):
        values = activations[-1] @ weights
        values += biases
        activation = output_activation if layer == last else hidden_activation
        activations.append(activation.value(values, out=values))
    return activations


def _backpropagate(
    layers: Sequence[Tuple[np.ndarray, np.ndarray]],
    activations: Sequence[np.ndarray],
    targets: np.ndarray,
    hidden_activation: Activation,
    output_activation: Activation,
) -> List[LayerGradients]:
    """Batch-averaged mean-squared-error gradients of every layer.

    Takes the shapes :func:`_feed_forward` takes, for one network or a
    stack; a stack's gradients keep its leading members axis (bias
    gradients ``(members, fan_out)``).
    """
    outputs = activations[-1]
    # dL/dy for L = mean over batch of 0.5*(y-t)^2 summed over outputs.
    delta = (outputs - targets) / outputs.shape[-2]
    delta = delta * output_activation.derivative_from_output(outputs)
    gradients: List[Optional[LayerGradients]] = [None] * len(layers)
    for layer in range(len(layers) - 1, -1, -1):
        gradients[layer] = LayerGradients(
            weights=np.swapaxes(activations[layer], -1, -2) @ delta,
            biases=delta.sum(axis=-2),
        )
        if layer > 0:
            delta = delta @ np.swapaxes(layers[layer][0], -1, -2)
            delta = delta * hidden_activation.derivative_from_output(
                activations[layer]
            )
    return gradients  # type: ignore[return-value]


class NeuralNetwork:
    """A fully connected feed-forward network.

    Parameters
    ----------
    layer_sizes:
        Sizes of every layer including input and output, e.g.
        ``(13, 16, 1)`` for the paper's 12 event rates + sampled IPC in, one
        hidden layer of 16 sigmoid units, one IPC output.
    hidden_activation:
        Activation of the hidden layers (name or instance); sigmoid by
        default, as in the paper.
    output_activation:
        Activation of the output layer; identity by default so the network
        performs unconstrained regression on the (scaled) target.
    seed:
        Seed for weight initialization.
    init_scale:
        Half-width of the uniform distribution used to initialize weights
        ("initialized near zero").
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        hidden_activation: str | Activation = "sigmoid",
        output_activation: str | Activation = "identity",
        seed: int = 0,
        init_scale: float = 0.15,
    ) -> None:
        sizes = tuple(int(s) for s in layer_sizes)
        if len(sizes) < 2:
            raise ValueError("a network needs at least an input and an output layer")
        if any(s <= 0 for s in sizes):
            raise ValueError("all layer sizes must be positive")
        if init_scale <= 0:
            raise ValueError("init_scale must be positive")
        self.layer_sizes: Tuple[int, ...] = sizes
        self.hidden_activation = (
            get_activation(hidden_activation)
            if isinstance(hidden_activation, str)
            else hidden_activation
        )
        self.output_activation = (
            get_activation(output_activation)
            if isinstance(output_activation, str)
            else output_activation
        )
        rng = np.random.default_rng(seed)
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            self.weights.append(
                rng.uniform(-init_scale, init_scale, size=(fan_in, fan_out))
            )
            self.biases.append(np.zeros(fan_out))

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        """Number of weight layers (connections), not counting the input."""
        return len(self.weights)

    @property
    def num_inputs(self) -> int:
        """Dimensionality of the input layer."""
        return self.layer_sizes[0]

    @property
    def num_outputs(self) -> int:
        """Dimensionality of the output layer."""
        return self.layer_sizes[-1]

    def num_parameters(self) -> int:
        """Total number of trainable parameters."""
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------
    def forward(self, inputs: np.ndarray) -> List[np.ndarray]:
        """Run the network forward, returning the activations of every layer.

        ``activations[0]`` is the input batch and ``activations[-1]`` the
        network output; intermediate entries are hidden-layer outputs.
        """
        x = np.atleast_2d(np.asarray(inputs, dtype=float))
        if x.shape[1] != self.num_inputs:
            raise ValueError(
                f"expected {self.num_inputs} input features, got {x.shape[1]}"
            )
        return _feed_forward(
            list(zip(self.weights, self.biases)),
            x,
            self.hidden_activation,
            self.output_activation,
        )

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Network output for ``inputs`` (shape preserved for single samples)."""
        inputs = np.asarray(inputs, dtype=float)
        single = inputs.ndim == 1
        output = self.forward(inputs)[-1]
        return output[0] if single else output

    def predict_batch(self, inputs: np.ndarray) -> np.ndarray:
        """Batched network output: ``(batch, features)`` in, ``(batch, outputs)`` out.

        The whole batch flows through the layers as ``(batch, features)``
        matrices in single NumPy operations — no per-sample Python loop.
        Row ``i`` of the result equals ``predict(inputs[i])``.
        """
        return self.forward(require_batch_matrix(inputs))[-1]

    def backward(
        self, activations: List[np.ndarray], targets: np.ndarray
    ) -> List[LayerGradients]:
        """Backpropagate mean-squared-error gradients through the network.

        Parameters
        ----------
        activations:
            The list produced by :meth:`forward` for the same batch.
        targets:
            Target outputs of shape (batch, num_outputs).

        Returns
        -------
        list of LayerGradients
            Gradients of the mean-squared error (averaged over the batch)
            for every layer, ordered input-to-output.
        """
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        outputs = activations[-1]
        if targets.shape != outputs.shape:
            raise ValueError(
                f"target shape {targets.shape} does not match output shape {outputs.shape}"
            )
        return _backpropagate(
            list(zip(self.weights, self.biases)),
            activations,
            targets,
            self.hidden_activation,
            self.output_activation,
        )

    # ------------------------------------------------------------------
    # parameter (de)serialization
    # ------------------------------------------------------------------
    def get_parameters(self) -> np.ndarray:
        """Flatten all weights and biases into one vector."""
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b.ravel())
        return np.concatenate(parts)

    def parameter_mask(self, weights_value: float = 1.0, biases_value: float = 0.0) -> np.ndarray:
        """Flat vector marking weight entries vs bias entries.

        Used by the trainer to apply L2 decay to weights only in a single
        vectorized update over the flattened parameter vector.
        """
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(np.full(w.size, weights_value))
            parts.append(np.full(b.size, biases_value))
        return np.concatenate(parts)

    def set_parameters(self, vector: np.ndarray) -> None:
        """Restore weights and biases from a vector produced by :meth:`get_parameters`."""
        vector = np.asarray(vector, dtype=float)
        if vector.size != self.num_parameters():
            raise ValueError(
                f"expected {self.num_parameters()} parameters, got {vector.size}"
            )
        offset = 0
        for layer in range(self.num_layers):
            w_size = self.weights[layer].size
            b_size = self.biases[layer].size
            self.weights[layer] = vector[offset : offset + w_size].reshape(
                self.weights[layer].shape
            )
            offset += w_size
            self.biases[layer] = vector[offset : offset + b_size].copy()
            offset += b_size

    def clone_structure(self, seed: int = 0) -> "NeuralNetwork":
        """Create a new, freshly initialized network with the same structure."""
        return NeuralNetwork(
            self.layer_sizes,
            hidden_activation=self.hidden_activation,
            output_activation=self.output_activation,
            seed=seed,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NeuralNetwork(layers={self.layer_sizes}, "
            f"hidden={self.hidden_activation.name}, "
            f"output={self.output_activation.name})"
        )
