"""From-scratch artificial-neural-network library (numpy only).

Implements the modelling machinery of the paper: fully connected
feed-forward networks with sigmoid hidden units, backpropagation training
with early stopping, and n-fold cross-validation ensembles whose outputs are
averaged at prediction time.

Training in lockstep
--------------------
:class:`BackpropTrainer` trains same-shaped networks together: their
parameters stack into one ``(members, parameters)`` array and each
mini-batch step is one batched matmul per layer, while every member keeps
its own random stream, momentum and early stopping.  A member ends
bit-identical to training it alone.  :func:`fit_ensembles` fits several
ensembles at once, all their members in one lockstep call, as
:func:`repro.core.train_ipc_predictor` does for its per-target ensembles;
:meth:`CrossValidationEnsemble.fit` is its one-ensemble call.

Batched prediction API
----------------------
Every model has one arithmetic prediction path, ``predict_batch(X)``: a
strict ``(batch, features)`` matrix in, one batched result out.  The whole
batch flows through each layer as a single NumPy matmul.  An
:class:`EnsembleStack` stacks several fitted ensembles' member weights into
``(ensembles, members, fan_in, fan_out)`` tensors and runs them through the
same forward function training uses, so *many ensembles* are evaluated
with one batched matmul per layer — no Python loop over samples, members or
ensembles.  :func:`predict_ensembles` is its one-call form, and
:meth:`CrossValidationEnsemble.predict_batch` runs a stack of one (kept
until the next fit).  A stack gives each ensemble bit for bit what its own
``predict_batch`` gives: every member's layer is still one ``(batch,
fan_in) @ (fan_in, fan_out)`` matmul slice, and the scaling and member mean
keep their element-wise order.  It scores as many ensembles per pass as
keep one hidden layer's activations within ``FUSED_PASS_ELEMENTS``, so a
large batch runs in several passes with a bounded working set.
``predict(x)`` is a shape adapter over ``predict_batch``: a single feature
vector is a one-row batch and gives a scalar (a 1-D output for
multi-output models); a 2-D batch gives what ``predict_batch`` gives.

A row's prediction can differ in the last bits with the rows batched beside
it, because BLAS picks its matmul kernel by batch shape:
``predict_batch(X)[i]`` equals ``predict(X[i])`` to within floating-point
accumulation order (the property tests in ``tests/test_ann_batched.py``
assert agreement to 1e-10), not bit for bit.  Use ``predict_batch``
whenever more than a handful of feature vectors are pending — e.g. scoring
all target configurations for all phases at once, as
:meth:`repro.core.predictor.IPCPredictor.predict_batch` does::

    ensemble = CrossValidationEnsemble(folds=5)
    ensemble.fit(X_train, y_train)
    y = ensemble.predict_batch(X_pending)      # (batch,) in one shot
    ys = predict_ensembles([ensemble, other], X_pending)   # [y, other's]

Models raise :class:`NotFittedError` (a :class:`RuntimeError` subclass)
when asked to predict before being fitted.
"""

from .activations import (
    ACTIVATIONS,
    Activation,
    Identity,
    ReLU,
    Sigmoid,
    Tanh,
    get_activation,
)
from .ensemble import (
    CrossValidationEnsemble,
    EnsembleStack,
    FoldResult,
    fit_ensembles,
    predict_ensembles,
)
from .exceptions import NotFittedError
from .metrics import (
    error_cdf,
    fraction_below,
    mean_absolute_error,
    mean_squared_error,
    median_relative_error,
    r_squared,
    relative_errors,
    root_mean_squared_error,
)
from .network import LayerGradients, NeuralNetwork
from .scaling import MinMaxScaler, StandardScaler
from .training import BackpropTrainer, TrainingConfig, TrainingHistory

__all__ = [
    "ACTIVATIONS",
    "Activation",
    "BackpropTrainer",
    "CrossValidationEnsemble",
    "EnsembleStack",
    "FoldResult",
    "Identity",
    "LayerGradients",
    "MinMaxScaler",
    "NeuralNetwork",
    "NotFittedError",
    "ReLU",
    "Sigmoid",
    "StandardScaler",
    "Tanh",
    "TrainingConfig",
    "TrainingHistory",
    "error_cdf",
    "fit_ensembles",
    "fraction_below",
    "get_activation",
    "mean_absolute_error",
    "mean_squared_error",
    "median_relative_error",
    "predict_ensembles",
    "r_squared",
    "relative_errors",
    "root_mean_squared_error",
]
