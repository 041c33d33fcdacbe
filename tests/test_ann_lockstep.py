"""Bit-identity of lockstep ANN training against the per-network loop.

``BackpropTrainer`` trains every network of a stack in one loop over
``(members, parameters)`` arrays, and ``fit_ensembles`` trains all members of
several ensembles in one call.  The per-network loop they replaced lives on
here only, as :func:`_reference_train` (and :func:`_reference_fit` for an
ensemble's folds), so these tests can pin the contract the lockstep loop
must keep: every member ends with exactly the parameters, error histories,
best epoch, early-stopping flag and holdout error that the one-network loop
gives it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
import pytest

from repro.ann import (
    BackpropTrainer,
    CrossValidationEnsemble,
    NeuralNetwork,
    StandardScaler,
    TrainingConfig,
    TrainingHistory,
    fit_ensembles,
    mean_squared_error,
)
from repro.ann.training import _train_lockstep
from repro.core import (
    FULL_EVENT_SET,
    IPCPredictor,
    PredictionCache,
    PredictorBundle,
)


def _reference_train(
    config: TrainingConfig,
    seed: int,
    network: NeuralNetwork,
    inputs: np.ndarray,
    targets: np.ndarray,
    validation_inputs: Optional[np.ndarray] = None,
    validation_targets: Optional[np.ndarray] = None,
) -> TrainingHistory:
    """Replica of the per-network backprop loop the lockstep loop replaced."""
    rng = np.random.default_rng(seed)
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if validation_inputs is None or validation_targets is None:
        n = inputs.shape[0]
        n_val = max(1, int(round(n * config.validation_fraction)))
        if n - n_val < 1:
            n_val = n - 1
        order = rng.permutation(n)
        val_idx, train_idx = order[:n_val], order[n_val:]
        train_x, train_y = inputs[train_idx], targets[train_idx]
        val_x, val_y = inputs[val_idx], targets[val_idx]
    else:
        train_x, train_y = inputs, targets
        val_x = np.atleast_2d(np.asarray(validation_inputs, dtype=float))
        val_y = np.atleast_2d(np.asarray(validation_targets, dtype=float))

    history = TrainingHistory()
    parameters = network.get_parameters()
    velocity = np.zeros(network.num_parameters())
    l2_mask = network.parameter_mask()
    best_parameters = parameters
    epochs_since_best = 0
    n_train = train_x.shape[0]
    batch = config.batch_size if config.batch_size > 0 else n_train
    batch = min(batch, n_train)
    for epoch in range(config.max_epochs):
        order = rng.permutation(n_train) if config.shuffle else np.arange(n_train)
        for start in range(0, n_train, batch):
            idx = order[start : start + batch]
            activations = network.forward(train_x[idx])
            gradients = network.backward(activations, train_y[idx])
            grad = np.concatenate(
                [part.ravel() for g in gradients for part in (g.weights, g.biases)]
            )
            if config.l2 > 0:
                grad = grad + config.l2 * l2_mask * parameters
            velocity = config.momentum * velocity - config.learning_rate * grad
            parameters = parameters + velocity
            network.set_parameters(parameters)
        train_error = mean_squared_error(train_y, network.predict(train_x))
        val_error = mean_squared_error(val_y, network.predict(val_x))
        history.train_errors.append(float(train_error))
        history.validation_errors.append(float(val_error))
        if val_error < history.best_validation_error - config.min_delta:
            history.best_validation_error = float(val_error)
            history.best_epoch = epoch
            best_parameters = network.get_parameters()
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= config.patience:
                history.stopped_early = True
                break
    network.set_parameters(best_parameters)
    return history


def _reference_fit(
    ensemble: CrossValidationEnsemble, inputs: np.ndarray, targets: np.ndarray
) -> List[Tuple[np.ndarray, TrainingHistory, float]]:
    """Each fold's (parameters, history, holdout MSE), one network at a time."""
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float).reshape(inputs.shape[0], -1)
    scaled_x = StandardScaler().fit_transform(inputs)
    scaled_y = StandardScaler().fit_transform(targets)
    folds = ensemble._fold_indices(inputs.shape[0])
    sizes = (inputs.shape[1], *ensemble.hidden_layers, targets.shape[1])
    results = []
    for k in range(ensemble.folds):
        stop = (k + 1) % ensemble.folds
        train_idx = np.concatenate(
            [folds[j] for j in range(ensemble.folds) if j not in (k, stop)]
        )
        network = NeuralNetwork(sizes, seed=ensemble.seed + 101 * (k + 1))
        history = _reference_train(
            ensemble.config,
            ensemble.seed + 977 * (k + 1),
            network,
            scaled_x[train_idx],
            scaled_y[train_idx],
            scaled_x[folds[stop]],
            scaled_y[folds[stop]],
        )
        holdout = mean_squared_error(
            scaled_y[folds[k]], network.predict(scaled_x[folds[k]])
        )
        results.append((network.get_parameters(), history, holdout))
    return results


def _data(n: int, features: int, outputs: int = 1, seed: int = 0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, features))
    y = np.sin(2.0 * x[:, :1]) + 0.3 * x[:, -1:] ** 2 + 0.05 * rng.normal(size=(n, 1))
    y = np.hstack([y * (1.0 + 0.5 * j) + j for j in range(outputs)])
    return x, y


def _assert_same_history(actual: TrainingHistory, expected: TrainingHistory) -> None:
    assert actual.train_errors == expected.train_errors
    assert actual.validation_errors == expected.validation_errors
    assert actual.best_epoch == expected.best_epoch
    assert actual.best_validation_error == expected.best_validation_error
    assert actual.stopped_early == expected.stopped_early


def _assert_fit_matches_reference(ensemble, inputs, targets, results) -> None:
    expected = _reference_fit(ensemble, inputs, targets)
    assert len(results) == len(expected) == len(ensemble.members)
    for member, result, (parameters, history, holdout) in zip(
        ensemble.members, results, expected
    ):
        assert np.array_equal(member.get_parameters(), parameters)
        _assert_same_history(result.history, history)
        assert result.holdout_mse == holdout


_FAST = dict(max_epochs=50, patience=6, learning_rate=0.08)

ENSEMBLE_CASES = {
    # 23 rows in 5 folds: fold sizes 5,5,5,4,4, so train/stop row counts
    # differ between members and the members form several stacks.
    "ragged_folds": dict(rows=23, config=TrainingConfig(**_FAST)),
    "no_shuffle": dict(rows=30, config=TrainingConfig(shuffle=False, **_FAST)),
    "full_batch": dict(rows=30, config=TrainingConfig(batch_size=0, **_FAST)),
    "no_l2": dict(rows=30, config=TrainingConfig(l2=0.0, **_FAST)),
    "two_hidden_layers": dict(rows=30, hidden=(7, 5), config=TrainingConfig(**_FAST)),
    "two_outputs": dict(rows=30, outputs=2, config=TrainingConfig(**_FAST)),
    "odd_batch": dict(rows=31, config=TrainingConfig(batch_size=7, **_FAST)),
}


class TestEnsembleBitIdentity:
    @pytest.mark.parametrize("case", sorted(ENSEMBLE_CASES))
    def test_joint_fit_matches_the_per_network_loop(self, case):
        spec = ENSEMBLE_CASES[case]
        inputs, targets = _data(spec["rows"], 4, spec.get("outputs", 1), seed=3)
        ensembles = [
            CrossValidationEnsemble(
                hidden_layers=spec.get("hidden", (6,)),
                folds=5,
                config=spec["config"],
                seed=seed,
            )
            for seed in (0, 40, 80)
        ]
        shifted = [targets, targets * 2.0 + 1.0, np.cos(targets)]
        all_results = fit_ensembles(ensembles, [inputs] * 3, shifted)
        for ensemble, y, results in zip(ensembles, shifted, all_results):
            _assert_fit_matches_reference(ensemble, inputs, y, results)

    def test_ragged_folds_form_several_stacks(self):
        inputs, targets = _data(23, 4, seed=3)
        ensemble = CrossValidationEnsemble(
            hidden_layers=(6,), folds=5, config=TrainingConfig(**_FAST), seed=0
        )
        runs = ensemble._fold_runs(*ensemble._checked(inputs, targets))
        keys = {member.stack_key() for member, _, _ in runs}
        assert len(keys) >= 2

    def test_members_stop_at_different_epochs(self):
        inputs, targets = _data(40, 4, seed=5)
        config = TrainingConfig(max_epochs=80, patience=4, learning_rate=0.2)
        ensemble = CrossValidationEnsemble(
            hidden_layers=(8,), folds=5, config=config, seed=2
        )
        results = ensemble.fit(inputs, targets)
        epochs = {result.history.epochs_run for result in results}
        assert len(epochs) >= 2
        assert any(result.history.stopped_early for result in results)
        _assert_fit_matches_reference(ensemble, inputs, targets, results)

    def test_joint_fit_equals_each_fit_alone(self):
        config = TrainingConfig(**_FAST)
        inputs, targets = _data(27, 5, seed=9)
        other_inputs, other_targets = _data(22, 5, seed=10)
        data = [(inputs, targets), (inputs, targets * 3.0), (other_inputs, other_targets)]

        def ensembles():
            return [
                CrossValidationEnsemble(hidden_layers=(6,), folds=5, config=config, seed=s)
                for s in (1, 2, 3)
            ]

        joint, alone = ensembles(), ensembles()
        fit_ensembles(joint, [x for x, _ in data], [y for _, y in data])
        for ensemble, (x, y) in zip(alone, data):
            ensemble.fit(x, y)
        probe = inputs[:6]
        for a, b in zip(joint, alone):
            for member_a, member_b in zip(a.members, b.members):
                assert np.array_equal(member_a.get_parameters(), member_b.get_parameters())
            for fold_a, fold_b in zip(a.fold_results, b.fold_results):
                _assert_same_history(fold_a.history, fold_b.history)
                assert fold_a.holdout_mse == fold_b.holdout_mse
            assert np.array_equal(a.predict_batch(probe), b.predict_batch(probe))
            assert a.fit_generation == b.fit_generation == 1


class TestTrainerBitIdentity:
    @pytest.mark.parametrize(
        "config",
        [
            TrainingConfig(max_epochs=40, patience=5),
            TrainingConfig(max_epochs=25, shuffle=False, patience=25),
            TrainingConfig(max_epochs=25, batch_size=0),
            TrainingConfig(max_epochs=40, l2=0.0),
        ],
        ids=["default", "no_shuffle", "full_batch", "no_l2"],
    )
    @pytest.mark.parametrize("explicit_validation", [False, True])
    def test_train_matches_the_per_network_loop(self, config, explicit_validation):
        inputs, targets = _data(37, 3, seed=1)
        val_x, val_y = _data(11, 3, seed=2)
        validation = (val_x, val_y) if explicit_validation else ()
        for seed in (0, 7):
            expected_net = NeuralNetwork((3, 8, 1), seed=seed)
            expected = _reference_train(
                config, seed, expected_net, inputs, targets, *validation
            )
            net = NeuralNetwork((3, 8, 1), seed=seed)
            history = BackpropTrainer(config, seed=seed).train(
                net, inputs, targets, *validation
            )
            assert np.array_equal(net.get_parameters(), expected_net.get_parameters())
            _assert_same_history(history, expected)

    @pytest.mark.parametrize(
        "sizes,hidden",
        [((3, 7, 5, 1), "sigmoid"), ((3, 8, 1), "tanh"), ((3, 6, 2), "sigmoid")],
        ids=["two_hidden_layers", "tanh", "two_outputs"],
    )
    def test_train_matches_for_other_shapes(self, sizes, hidden):
        inputs, targets = _data(33, 3, outputs=sizes[-1], seed=4)
        config = TrainingConfig(max_epochs=40, patience=6)
        expected_net = NeuralNetwork(sizes, hidden_activation=hidden, seed=3)
        expected = _reference_train(config, 3, expected_net, inputs, targets)
        net = NeuralNetwork(sizes, hidden_activation=hidden, seed=3)
        history = BackpropTrainer(config, seed=3).train(net, inputs, targets)
        assert np.array_equal(net.get_parameters(), expected_net.get_parameters())
        _assert_same_history(history, expected)

    def test_implicit_splits_train_in_one_stack(self):
        # Members whose stop sets come from their own trainers' split draws
        # share a stack, and each keeps its own random stream.
        inputs, targets = _data(30, 3, seed=6)
        config = TrainingConfig(max_epochs=60, patience=5, learning_rate=0.15)
        seeds = (0, 1, 2, 3)
        members = [
            BackpropTrainer(config, seed=s)._prepare(
                NeuralNetwork((3, 6, 1), seed=s), inputs, targets * (1 + s)
            )
            for s in seeds
        ]
        assert len({m.stack_key() for m in members}) == 1
        histories = _train_lockstep(members)
        for s, member, history in zip(seeds, members, histories):
            expected_net = NeuralNetwork((3, 6, 1), seed=s)
            expected = _reference_train(config, s, expected_net, inputs, targets * (1 + s))
            assert np.array_equal(
                member.network.get_parameters(), expected_net.get_parameters()
            )
            _assert_same_history(history, expected)
        assert len({h.epochs_run for h in histories}) >= 2

    def test_one_dimensional_validation_targets_are_accepted(self):
        inputs, targets = _data(20, 3, seed=8)
        val_x, val_y = _data(6, 3, seed=9)
        config = TrainingConfig(max_epochs=15, patience=15)
        expected_net = NeuralNetwork((3, 5, 1), seed=1)
        expected = _reference_train(config, 1, expected_net, inputs, targets, val_x, val_y.ravel())
        net = NeuralNetwork((3, 5, 1), seed=1)
        history = BackpropTrainer(config, seed=1).train(net, inputs, targets, val_x, val_y.ravel())
        assert np.array_equal(net.get_parameters(), expected_net.get_parameters())
        _assert_same_history(history, expected)

    @pytest.mark.parametrize(
        "inputs,targets,val_x,val_y",
        [
            (np.zeros((6, 2)), np.zeros((6, 1)), None, None),
            (np.zeros((6, 3)), np.zeros((6, 2)), None, None),
            (np.zeros((6, 3)), np.zeros((6, 1)), np.zeros((2, 2)), np.zeros((2, 1))),
            (np.zeros((6, 3)), np.zeros((6, 1)), np.zeros((2, 3)), np.zeros((3, 1))),
            (np.zeros((6, 3)), np.zeros((6, 1)), np.zeros((0, 3)), np.zeros((0, 1))),
        ],
        ids=["input_width", "target_width", "val_width", "val_targets", "empty_val"],
    )
    def test_mismatched_shapes_raise_value_error(self, inputs, targets, val_x, val_y):
        with pytest.raises(ValueError):
            BackpropTrainer(TrainingConfig(max_epochs=2)).train(
                NeuralNetwork((3, 4, 1)), inputs, targets, val_x, val_y
            )


class TestJointRefit:
    def test_fit_ensembles_checks_its_arguments(self):
        ensemble = CrossValidationEnsemble(folds=3)
        x, y = _data(9, 2)
        with pytest.raises(ValueError):
            fit_ensembles([ensemble], [x, x], [y])
        with pytest.raises(ValueError):
            fit_ensembles([ensemble, ensemble], [x, x], [y, y])
        with pytest.raises(ValueError):
            fit_ensembles([ensemble], [x[:2]], [y[:2]])
        assert not ensemble.trained

    def test_joint_refit_bumps_every_generation_and_misses_the_cache(self):
        event_set = FULL_EVENT_SET
        rng = np.random.default_rng(4)
        features = rng.uniform(0.1, 2.0, size=(25, event_set.num_features))
        names = ("1", "2a", "2b")
        config = TrainingConfig(max_epochs=20, patience=5)
        ensembles = [
            CrossValidationEnsemble(hidden_layers=(5,), folds=5, config=config, seed=i)
            for i in range(len(names))
        ]
        fit_ensembles(
            ensembles,
            [features] * 3,
            [features[:, 0] * (1.0 + i) for i in range(3)],
        )
        assert [e.fit_generation for e in ensembles] == [1, 1, 1]
        predictor = IPCPredictor.from_ensembles(
            event_set=event_set,
            sample_configuration="4",
            ensembles=dict(zip(names, ensembles)),
        )
        bundle = PredictorBundle(full=predictor, cache=PredictionCache(capacity=8))
        ipc = float(features[0, 0])
        rates = dict(zip(event_set.events, features[0, 1:]))
        stale = bundle.predict_batch_from_rates([(ipc, rates)])[0]
        assert bundle.predict_batch_from_rates([(ipc, rates)])[0] == stale
        assert (bundle.cache_info().hits, bundle.cache_info().misses) == (1, 1)

        fit_ensembles(
            ensembles,
            [features] * 3,
            [features[:, 1] * -5.0 + i for i in range(3)],
        )
        assert [e.fit_generation for e in ensembles] == [2, 2, 2]
        assert all(e._stack is None for e in ensembles)
        fresh = bundle.predict_batch_from_rates([(ipc, rates)])[0]
        # The refit dropped the cache, counters included: one fresh miss.
        assert (bundle.cache_info().hits, bundle.cache_info().misses) == (0, 1)
        for name in names:
            assert fresh[name] != pytest.approx(stale[name])
