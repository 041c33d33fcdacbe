"""Backpropagation training with early stopping, many networks in lockstep.

The paper trains its networks with gradient descent on the squared error
(the classic weight-update rule ``w <- w - eta * dE/dw`` of its Equation 1)
and counters overfitting with *early stopping*: part of the training data is
held aside as a validation set and training halts when accuracy on that set
starts to degrade.  :class:`BackpropTrainer` implements exactly that recipe
(plus the standard momentum term and mini-batches, which only affect how fast
the same optimum is reached).

Lockstep training
-----------------
A predictor fits many small networks: one cross-validation ensemble per
target configuration, *n* members each.  One loop trains them together.
Members that share the :class:`TrainingConfig`, layer sizes, activations and
train/stop row counts form a *stack*; any other member gets a stack of its
own (fold sizes differ by one when the row count does not divide by the fold
count, so an ensemble can span two stacks).  A stack keeps its parameters as
the rows of one ``(members, parameters)`` array: every layer is one batched
matmul per mini-batch step, and the momentum update is one vectorized
expression over the stack.

Each member still runs its own training:

* it draws from its own trainer's random stream in the one-network order:
  the validation split first (when no stop set is given), then one
  permutation per epoch it runs;
* it keeps its own momentum, early-stopping count and best-epoch snapshot,
  and leaves the stack at the end of the epoch in which it stops;
* NumPy runs each 2-D slice of a stacked matmul through the same BLAS call
  as a 2-D matmul, and the loop keeps the one-network elementwise order, so
  a member ends with bit-for-bit the parameters and history it gets when
  trained alone.

:meth:`BackpropTrainer.train` is the one-member call of that loop, and
:func:`~repro.ann.ensemble.fit_ensembles` its many-ensemble call.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .network import NeuralNetwork, _backpropagate, _feed_forward

__all__ = ["TrainingConfig", "TrainingHistory", "BackpropTrainer"]


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters of the backpropagation trainer.

    Attributes
    ----------
    learning_rate:
        Step size ``eta`` of the gradient-descent update.
    momentum:
        Momentum coefficient applied to the previous update.
    max_epochs:
        Hard cap on the number of passes over the training data.
    batch_size:
        Mini-batch size; ``0`` means full-batch gradient descent.
    patience:
        Early stopping patience: training halts after this many consecutive
        epochs without improvement of the validation error.
    min_delta:
        Minimum decrease of the validation error that counts as an
        improvement.
    validation_fraction:
        Fraction of the training data held aside for early stopping when an
        explicit validation set is not supplied.
    shuffle:
        Whether to reshuffle the training samples every epoch.
    l2:
        L2 weight-decay coefficient.
    """

    learning_rate: float = 0.05
    momentum: float = 0.9
    max_epochs: int = 600
    batch_size: int = 16
    patience: int = 40
    min_delta: float = 1e-6
    validation_fraction: float = 0.2
    shuffle: bool = True
    l2: float = 1e-5

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.batch_size < 0:
            raise ValueError("batch_size must be >= 0")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not 0.0 < self.validation_fraction < 0.9:
            raise ValueError("validation_fraction must be in (0, 0.9)")
        if self.l2 < 0:
            raise ValueError("l2 must be non-negative")


@dataclass
class TrainingHistory:
    """Per-epoch record of a training run."""

    train_errors: List[float] = field(default_factory=list)
    validation_errors: List[float] = field(default_factory=list)
    best_epoch: int = -1
    best_validation_error: float = float("inf")
    stopped_early: bool = False

    @property
    def epochs_run(self) -> int:
        """Number of epochs actually executed."""
        return len(self.train_errors)


@dataclass
class _Member:
    """One network queued for lockstep training, its stop set split off."""

    trainer: "BackpropTrainer"
    network: NeuralNetwork
    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray

    def stack_key(self) -> tuple:
        """Members with equal keys train as one stack."""
        network = self.network
        return (
            self.trainer.config,
            network.layer_sizes,
            network.hidden_activation,
            network.output_activation,
            self.train_x.shape[0],
            self.val_x.shape[0],
        )


class BackpropTrainer:
    """Trains a :class:`~repro.ann.network.NeuralNetwork` by backpropagation.

    :meth:`train` is the one-member call of the lockstep loop (see the
    module docstring): a stack of one, with no separate one-network path.
    A trainer holds one member's random stream, so every network trained
    in a stack has a trainer of its own.

    Parameters
    ----------
    config:
        Training hyper-parameters.
    seed:
        Seed used for mini-batch shuffling and validation splitting.
    """

    def __init__(self, config: Optional[TrainingConfig] = None, seed: int = 0) -> None:
        self.config = config or TrainingConfig()
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def _split_validation(
        self, inputs: np.ndarray, targets: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        n = inputs.shape[0]
        n_val = max(1, int(round(n * self.config.validation_fraction)))
        if n - n_val < 1:
            n_val = n - 1
        order = self._rng.permutation(n)
        val_idx = order[:n_val]
        train_idx = order[n_val:]
        return inputs[train_idx], targets[train_idx], inputs[val_idx], targets[val_idx]

    def _prepare(
        self,
        network: NeuralNetwork,
        inputs: np.ndarray,
        targets: np.ndarray,
        validation_inputs: Optional[np.ndarray] = None,
        validation_targets: Optional[np.ndarray] = None,
    ) -> _Member:
        """Check one run's data and split off its stop set (the first draw)."""
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        if targets.shape[0] != inputs.shape[0]:
            raise ValueError("inputs and targets must have the same number of samples")
        if inputs.shape[0] < 2:
            raise ValueError("training requires at least two samples")
        if targets.shape[1] != network.num_outputs:
            raise ValueError(
                f"target shape {targets.shape} does not match the network's "
                f"{network.num_outputs} outputs"
            )
        if validation_inputs is None or validation_targets is None:
            train_x, train_y, val_x, val_y = self._split_validation(inputs, targets)
        else:
            train_x, train_y = inputs, targets
            val_x = np.atleast_2d(np.asarray(validation_inputs, dtype=float))
            val_y = np.asarray(validation_targets, dtype=float)
            # The validation error compares flattened arrays, so any layout
            # holding one target per output per sample is accepted.
            if val_x.shape[0] < 1 or val_y.size != val_x.shape[0] * network.num_outputs:
                raise ValueError(
                    f"validation targets of shape {val_y.shape} do not match "
                    f"{val_x.shape[0]} samples of {network.num_outputs} outputs"
                )
            val_y = val_y.reshape(val_x.shape[0], network.num_outputs)
        if inputs.shape[1] != network.num_inputs or val_x.shape[1] != network.num_inputs:
            raise ValueError(f"expected {network.num_inputs} input features")
        return _Member(self, network, train_x, train_y, val_x, val_y)

    # ------------------------------------------------------------------
    def train(
        self,
        network: NeuralNetwork,
        inputs: np.ndarray,
        targets: np.ndarray,
        validation_inputs: Optional[np.ndarray] = None,
        validation_targets: Optional[np.ndarray] = None,
    ) -> TrainingHistory:
        """Train ``network`` in place and return the training history.

        Parameters
        ----------
        network:
            The network to train (modified in place; the parameters of the
            best validation epoch are restored before returning).
        inputs, targets:
            Training data, shapes (samples, features) and (samples, outputs).
        validation_inputs, validation_targets:
            Explicit validation set used for early stopping.  When omitted,
            ``validation_fraction`` of the training data is held out.
        """
        member = self._prepare(
            network, inputs, targets, validation_inputs, validation_targets
        )
        return _train_lockstep([member])[0]


def _train_lockstep(members: Sequence[_Member]) -> List[TrainingHistory]:
    """Train every member, one lockstep loop per stack; histories in order."""
    stacks: Dict[tuple, List[int]] = {}
    for index, member in enumerate(members):
        stacks.setdefault(member.stack_key(), []).append(index)
    histories: List[Optional[TrainingHistory]] = [None] * len(members)
    for indices in stacks.values():
        trained = _train_stack([members[i] for i in indices])
        for index, history in zip(indices, trained):
            histories[index] = history
    return histories  # type: ignore[return-value]


def _layer_views(
    parameters: np.ndarray, network: NeuralNetwork
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per-layer ``(weights, biases)`` views into a ``(members, P)`` stack.

    The flat layout is :meth:`NeuralNetwork.get_parameters`'.  Weights view
    as ``(members, fan_in, fan_out)`` and biases as ``(members, 1,
    fan_out)``, so in-place updates of ``parameters`` reach every view.
    """
    members = parameters.shape[0]
    views = []
    offset = 0
    for weights in network.weights:
        fan_in, fan_out = weights.shape
        w = parameters[:, offset : offset + weights.size]
        offset += weights.size
        b = parameters[:, offset : offset + fan_out]
        offset += fan_out
        views.append((w.reshape(members, fan_in, fan_out), b[:, None, :]))
    return views


def _mean_squared_errors(targets: np.ndarray, outputs: np.ndarray) -> np.ndarray:
    """Each member's MSE over its flattened (samples, outputs) error."""
    squared = np.square(targets - outputs)
    return squared.reshape(squared.shape[0], -1).mean(axis=1)


def _train_stack(members: List[_Member]) -> List[TrainingHistory]:
    """Train members that share a stack key in one loop.

    Every member keeps its own state: RNG stream (one permutation per epoch
    it runs), momentum, best validation error and best-epoch parameters.
    A member that stops early leaves the stack at the end of that epoch.
    """
    cfg = members[0].trainer.config
    reference = members[0].network
    hidden = reference.hidden_activation
    output = reference.output_activation
    histories = [TrainingHistory() for _ in members]

    live = np.arange(len(members))
    params = np.stack([m.network.get_parameters() for m in members])
    best_params = params.copy()
    velocity = np.zeros_like(params)
    l2_mask = cfg.l2 * reference.parameter_mask() if cfg.l2 > 0 else None
    train_x = np.stack([m.train_x for m in members])
    train_y = np.stack([m.train_y for m in members])
    val_x = np.stack([m.val_x for m in members])
    val_y = np.stack([m.val_y for m in members])
    best_error = np.full(len(members), np.inf)
    epochs_since_best = np.zeros(len(members), dtype=int)

    n_train = train_x.shape[1]
    batch = cfg.batch_size if cfg.batch_size > 0 else n_train
    batch = min(batch, n_train)
    layers = _layer_views(params, reference)
    # Step buffers, reused by every mini-batch step: the gradient and the
    # update term (``(l2 * mask) * params``, then ``lr * grad``).
    grad, step = np.empty_like(params), np.empty_like(params)

    for epoch in range(cfg.max_epochs):
        if cfg.shuffle:
            orders = np.stack(
                [members[i].trainer._rng.permutation(n_train) for i in live]
            )
            rows = np.arange(len(live))[:, None]
            epoch_x, epoch_y = train_x[rows, orders], train_y[rows, orders]
        else:
            epoch_x, epoch_y = train_x, train_y
        for start in range(0, n_train, batch):
            activations = _feed_forward(
                layers, epoch_x[:, start : start + batch], hidden, output
            )
            gradients = _backpropagate(
                layers, activations, epoch_y[:, start : start + batch], hidden, output
            )
            np.concatenate(
                [
                    part.reshape(len(live), -1)
                    for g in gradients
                    for part in (g.weights, g.biases)
                ],
                axis=1,
                out=grad,
            )
            # In place, but in the one-network order: grad + (l2 * mask) *
            # params, then momentum * velocity - lr * grad, then params +
            # velocity, so every element rounds as it does there.
            if l2_mask is not None:
                grad += np.multiply(l2_mask, params, out=step)
            velocity *= cfg.momentum
            velocity -= np.multiply(cfg.learning_rate, grad, out=step)
            params += velocity

        train_error = _mean_squared_errors(
            train_y, _feed_forward(layers, train_x, hidden, output)[-1]
        )
        val_error = _mean_squared_errors(
            val_y, _feed_forward(layers, val_x, hidden, output)[-1]
        )
        improved = val_error < best_error - cfg.min_delta
        best_error[improved] = val_error[improved]
        best_params[live[improved]] = params[improved]
        epochs_since_best = np.where(improved, 0, epochs_since_best + 1)
        stopped = epochs_since_best >= cfg.patience
        for j, index in enumerate(live):
            history = histories[index]
            history.train_errors.append(float(train_error[j]))
            history.validation_errors.append(float(val_error[j]))
            if improved[j]:
                history.best_validation_error = float(val_error[j])
                history.best_epoch = epoch
            elif stopped[j]:
                history.stopped_early = True

        if stopped.any():
            keep = ~stopped
            if not keep.any():
                break
            live = live[keep]
            params, velocity = params[keep], velocity[keep]
            train_x, train_y = train_x[keep], train_y[keep]
            val_x, val_y = val_x[keep], val_y[keep]
            best_error = best_error[keep]
            epochs_since_best = epochs_since_best[keep]
            layers = _layer_views(params, reference)
            grad, step = grad[: len(live)], step[: len(live)]

    for member, parameters in zip(members, best_params):
        member.network.set_parameters(parameters)
    return histories
