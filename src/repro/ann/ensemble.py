"""Cross-validation ensembles of neural networks.

The paper mitigates overfitting with an ensemble method it calls cross
validation: the training set is split into *n* equal folds; for each of the
*n* rotations one fold is used to estimate generalization, one for early
stopping, and the remaining *n-2* for weight updates; the *n* resulting
networks are averaged at prediction time.  "Each ANN in the ensemble sees a
subset of training data, but the group as a whole tends to perform better
than a single network."

:class:`CrossValidationEnsemble` implements that scheme, including the
per-fold generalization estimates, on top of
:class:`~repro.ann.network.NeuralNetwork` and
:class:`~repro.ann.training.BackpropTrainer`.  Input/target scaling is
handled internally so callers work in natural units (event rates in, IPC
out).  :func:`fit_ensembles` fits several ensembles in one call, training
all their members in lockstep; :meth:`CrossValidationEnsemble.fit` is its
one-ensemble call.

Prediction mirrors that: an :class:`EnsembleStack` stacks several fitted
ensembles' parameters and scalers so one forward pass scores them all on
the same rows, and :func:`predict_ensembles` is its one-call form.
:meth:`CrossValidationEnsemble.predict_batch` runs a stack of one, which
the ensemble keeps until its next fit.  A stack gives every ensemble
bit-for-bit what its own ``predict_batch`` gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .exceptions import NotFittedError
from .metrics import mean_squared_error
from .network import NeuralNetwork, _feed_forward, require_batch_matrix
from .scaling import StandardScaler
from .training import (
    BackpropTrainer,
    TrainingConfig,
    TrainingHistory,
    _Member,
    _train_lockstep,
)

__all__ = [
    "FoldResult",
    "CrossValidationEnsemble",
    "EnsembleStack",
    "fit_ensembles",
    "predict_ensembles",
]

#: Most elements a fused forward pass holds in one hidden layer's
#: activations (8 MiB of float64).  :class:`EnsembleStack` scores as many
#: ensembles per pass as fit in it, so a large batch runs in several
#: passes rather than one whose working set grows with ensembles x rows.
FUSED_PASS_ELEMENTS = 1 << 20


@dataclass
class FoldResult:
    """Outcome of training one member of the ensemble.

    Attributes
    ----------
    fold_index:
        Index of the rotation (0-based).
    history:
        Training history of the member network.
    holdout_mse:
        Mean squared error on the fold held out entirely from training
        (the paper's per-fold estimate of model performance).
    """

    fold_index: int
    history: TrainingHistory
    holdout_mse: float


@dataclass
class CrossValidationEnsemble:
    """An averaged ensemble of identically structured networks.

    Parameters
    ----------
    hidden_layers:
        Sizes of the hidden layers shared by all members.
    folds:
        Number of folds / ensemble members (the paper's example uses 10).
    config:
        Trainer hyper-parameters shared by all members.
    seed:
        Base seed; member *k* uses ``seed + k`` for initialization and
        shuffling so the ensemble is reproducible but diverse.
    """

    hidden_layers: Tuple[int, ...] = (16,)
    folds: int = 10
    config: TrainingConfig = field(default_factory=TrainingConfig)
    seed: int = 0
    members: List[NeuralNetwork] = field(default_factory=list, repr=False)
    fold_results: List[FoldResult] = field(default_factory=list, repr=False)
    input_scaler: StandardScaler = field(default_factory=StandardScaler, repr=False)
    target_scaler: StandardScaler = field(default_factory=StandardScaler, repr=False)
    _num_outputs: int = 1
    _stack: Optional["EnsembleStack"] = field(default=None, repr=False, compare=False)
    #: Incremented by every completed :meth:`fit`; prediction caches keyed
    #: on this generation detect refits and invalidate themselves.
    fit_generation: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.folds < 3:
            raise ValueError(
                "cross-validation needs at least 3 folds (train/stop/holdout)"
            )
        if not self.hidden_layers or any(h <= 0 for h in self.hidden_layers):
            raise ValueError("hidden_layers must be non-empty positive sizes")

    # ------------------------------------------------------------------
    @property
    def trained(self) -> bool:
        """Whether :meth:`fit` has completed."""
        return bool(self.members)

    def _fold_indices(self, n_samples: int) -> List[np.ndarray]:
        rng = np.random.default_rng(self.seed)
        order = rng.permutation(n_samples)
        return [np.array(sorted(chunk)) for chunk in np.array_split(order, self.folds)]

    def fit(self, inputs: np.ndarray, targets: np.ndarray) -> List[FoldResult]:
        """Train the ensemble on (inputs, targets) and return per-fold results.

        The one-ensemble call of :func:`fit_ensembles`.
        """
        return fit_ensembles([self], [inputs], [targets])[0]

    def _checked(
        self, inputs: np.ndarray, targets: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        targets = np.asarray(targets, dtype=float)
        if targets.ndim == 1:
            targets = targets.reshape(-1, 1)
        if inputs.shape[0] != targets.shape[0]:
            raise ValueError("inputs and targets must have the same number of samples")
        if inputs.shape[0] < self.folds:
            raise ValueError(
                f"need at least {self.folds} samples for {self.folds}-fold training, "
                f"got {inputs.shape[0]}"
            )
        return inputs, targets

    def _fold_runs(
        self, inputs: np.ndarray, targets: np.ndarray
    ) -> List[Tuple[_Member, np.ndarray, np.ndarray]]:
        """Fit the scalers and set up every fold's network and trainer.

        Returns each fold's queued training run with its scaled holdout
        inputs and targets.
        """
        self._num_outputs = targets.shape[1]
        scaled_inputs = self.input_scaler.fit_transform(inputs)
        scaled_targets = self.target_scaler.fit_transform(targets)

        folds = self._fold_indices(inputs.shape[0])
        self.members = []
        self.fold_results = []
        self._stack = None
        layer_sizes = (inputs.shape[1], *self.hidden_layers, self._num_outputs)
        runs = []
        for k in range(self.folds):
            holdout_idx = folds[k]
            stop_idx = folds[(k + 1) % self.folds]
            train_idx = np.concatenate(
                [folds[j] for j in range(self.folds) if j not in (k, (k + 1) % self.folds)]
            )
            network = NeuralNetwork(layer_sizes, seed=self.seed + 101 * (k + 1))
            trainer = BackpropTrainer(self.config, seed=self.seed + 977 * (k + 1))
            member = trainer._prepare(
                network,
                scaled_inputs[train_idx],
                scaled_targets[train_idx],
                validation_inputs=scaled_inputs[stop_idx],
                validation_targets=scaled_targets[stop_idx],
            )
            runs.append((member, scaled_inputs[holdout_idx], scaled_targets[holdout_idx]))
        return runs

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Averaged ensemble prediction in natural (unscaled) units.

        A shape adapter over :meth:`predict_batch`: a 1-D feature vector is
        predicted as a one-row batch and gives a scalar (one row of outputs
        for multi-output ensembles); a 2-D batch gives what
        :meth:`predict_batch` gives.
        """
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim != 1:
            return self.predict_batch(inputs)
        output = self.predict_batch(inputs[None, :])
        return float(output[0]) if self._num_outputs == 1 else output[0]

    def predict_batch(self, inputs: np.ndarray) -> np.ndarray:
        """Batched ensemble prediction: ``(batch, features)`` rows in one shot.

        The one-ensemble call of :class:`EnsembleStack`: every member
        evaluates every row in one batched matmul per layer, and the
        members' scaled outputs are averaged.  The stack of one is built
        on first use and kept until the next fit.  Returns a ``(batch,)``
        vector for single-output ensembles, ``(batch, outputs)`` otherwise.
        """
        if self._stack is None:
            self._stack = EnsembleStack([self])
        return self._stack.predict(inputs)[0]

    def _shape(self) -> tuple:
        """Ensembles with equal shapes stack into one group."""
        reference = self.members[0]
        return (
            reference.layer_sizes,
            len(self.members),
            reference.hidden_activation,
            reference.output_activation,
        )

    def generalization_estimate(self) -> float:
        """Mean held-out-fold MSE (in scaled target units)."""
        if not self.fold_results:
            raise NotFittedError("ensemble must be fitted first")
        return float(np.mean([fr.holdout_mse for fr in self.fold_results]))


def fit_ensembles(
    ensembles: Sequence[CrossValidationEnsemble],
    inputs: Sequence[np.ndarray],
    targets: Sequence[np.ndarray],
) -> List[List[FoldResult]]:
    """Fit several ensembles at once, training all their members in lockstep.

    Ensemble ``i`` is fitted on ``inputs[i]`` and ``targets[i]``.  Each one
    gets its scalers, folds, initial networks and trainer seeds exactly as
    a lone :meth:`CrossValidationEnsemble.fit` sets them up, so every member
    ends with the parameters and history it would have there.  All members
    of all ensembles then train in one lockstep call
    (:mod:`repro.ann.training`): members that share the training config,
    layer sizes and train/stop row counts form one stack, so a predictor's
    per-target ensembles over one dataset train as a single stack (two when
    the row count does not divide by the fold count).

    Every fitted ensemble's cached prediction stack is dropped and its
    ``fit_generation`` bumped, so prediction caches see the refit.  Returns
    each ensemble's per-fold results, in order.
    """
    if not len(ensembles) == len(inputs) == len(targets):
        raise ValueError(
            "fit_ensembles needs one inputs and one targets array per ensemble"
        )
    if len({id(ensemble) for ensemble in ensembles}) != len(ensembles):
        raise ValueError("fit_ensembles got the same ensemble twice")
    checked = [
        ensemble._checked(x, y) for ensemble, x, y in zip(ensembles, inputs, targets)
    ]
    runs = [ensemble._fold_runs(x, y) for ensemble, (x, y) in zip(ensembles, checked)]
    histories = iter(
        _train_lockstep([member for ensemble_runs in runs for member, _, _ in ensemble_runs])
    )
    for ensemble, ensemble_runs in zip(ensembles, runs):
        for k, (member, holdout_x, holdout_y) in enumerate(ensemble_runs):
            holdout_mse = mean_squared_error(holdout_y, member.network.predict(holdout_x))
            ensemble.members.append(member.network)
            ensemble.fold_results.append(
                FoldResult(fold_index=k, history=next(histories), holdout_mse=holdout_mse)
            )
        ensemble.fit_generation += 1
    return [ensemble.fold_results for ensemble in ensembles]


class _StackGroup:
    """Same-shaped ensembles' parameters and scaler statistics, stacked.

    Layer ``l``'s weights stack into ``(ensembles, members, fan_in,
    fan_out)`` and its biases into ``(ensembles, members, 1, fan_out)``;
    the scalers' means and deviations into ``(ensembles, 1, columns)``.
    """

    def __init__(self, ensembles: Sequence[CrossValidationEnsemble], indices: List[int]):
        self.indices = indices
        reference = ensembles[0].members[0]
        self.hidden = reference.hidden_activation
        self.output = reference.output_activation
        self.single_output = reference.num_outputs == 1
        #: Elements per batch row of the widest hidden layer's activations.
        self.row_elements = len(ensembles[0].members) * max(reference.layer_sizes[1:-1])
        self.layers = [
            (
                np.array([[m.weights[layer] for m in e.members] for e in ensembles]),
                np.array([[m.biases[layer] for m in e.members] for e in ensembles])[
                    :, :, None, :
                ],
            )
            for layer in range(reference.num_layers)
        ]

        def scaler_stack(values):
            return np.array(values)[:, None, :]

        self.input_mean = scaler_stack([e.input_scaler.mean_ for e in ensembles])
        self.input_std = scaler_stack([e.input_scaler.std_ for e in ensembles])
        self.target_mean = scaler_stack([e.target_scaler.mean_ for e in ensembles])
        self.target_std = scaler_stack([e.target_scaler.std_ for e in ensembles])

    def predict(self, inputs: np.ndarray, outputs: List[Optional[np.ndarray]]) -> None:
        """Score ``inputs`` with every ensemble of the group into ``outputs``.

        Each pass runs the element-wise steps of
        :meth:`~repro.ann.scaling.StandardScaler.transform`, the members'
        mean and :meth:`~repro.ann.scaling.StandardScaler.inverse_transform`
        over the pass's ensembles at once, and each member's layer is still
        one ``(batch, fan_in) @ (fan_in, fan_out)`` matmul slice, so every
        value rounds as in a stack of one.
        """
        rows = max(1, inputs.shape[0])
        per_pass = max(1, FUSED_PASS_ELEMENTS // (self.row_elements * rows))
        for start in range(0, len(self.indices), per_pass):
            part = slice(start, start + per_pass)
            scaled = (inputs - self.input_mean[part]) / self.input_std[part]
            member_outputs = _feed_forward(
                [(weights[part], biases[part]) for weights, biases in self.layers],
                scaled[:, None],  # broadcast each ensemble's rows to its members
                self.hidden,
                self.output,
            )[-1]
            predicted = (
                member_outputs.mean(axis=1) * self.target_std[part] + self.target_mean[part]
            )
            if self.single_output:
                predicted = predicted[:, :, 0]
            for index, values in zip(self.indices[part], predicted):
                outputs[index] = values


class EnsembleStack:
    """Fitted ensembles stacked for fused prediction on shared rows.

    Ensembles of one shape (layer sizes, member count, activations) form a
    group whose parameters and scaler statistics are stacked along a
    leading ensembles axis, so :meth:`predict` scores the whole group with
    one :func:`~repro.ann.network._feed_forward` (a large batch in several
    passes, each holding at most ``FUSED_PASS_ELEMENTS`` hidden
    activations).  Building the stack copies the parameters: a refit does
    not reach it, so whoever keeps a stack rebuilds it after a fit.
    """

    def __init__(self, ensembles: Sequence[CrossValidationEnsemble]) -> None:
        ensembles = list(ensembles)
        self._count = len(ensembles)
        shapes: Dict[tuple, List[int]] = {}
        for index, ensemble in enumerate(ensembles):
            if not ensemble.trained:
                raise NotFittedError(
                    "CrossValidationEnsemble is not fitted; call fit(inputs, targets) "
                    "before predict_batch"
                )
            shapes.setdefault(ensemble._shape(), []).append(index)
        self._groups = [
            _StackGroup([ensembles[i] for i in indices], indices)
            for indices in shapes.values()
        ]

    def predict(self, inputs: np.ndarray) -> List[np.ndarray]:
        """Each ensemble's prediction for a ``(batch, features)`` matrix, in order.

        Entry ``i`` is the ``i``-th stacked ensemble's, and equals its
        ``predict_batch(inputs)`` bit for bit: a ``(batch,)`` vector, or
        ``(batch, outputs)`` for a multi-output ensemble.
        """
        inputs = require_batch_matrix(inputs)
        outputs: List[Optional[np.ndarray]] = [None] * self._count
        for group in self._groups:
            group.predict(inputs, outputs)
        return outputs  # type: ignore[return-value]


def predict_ensembles(
    ensembles: Sequence[CrossValidationEnsemble], inputs: np.ndarray
) -> List[np.ndarray]:
    """Score several fitted ensembles on the same rows in fused passes.

    The one-call form of :class:`EnsembleStack`, which it builds for this
    call; a caller that scores the same ensembles again keeps the stack, as
    :class:`repro.core.IPCPredictor` does.  Entry ``i`` equals
    ``ensembles[i].predict_batch(inputs)`` bit for bit.
    """
    return EnsembleStack(ensembles).predict(inputs)
