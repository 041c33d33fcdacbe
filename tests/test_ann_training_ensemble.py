"""Tests for backpropagation training, early stopping and CV ensembles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ann import (
    BackpropTrainer,
    CrossValidationEnsemble,
    NeuralNetwork,
    TrainingConfig,
    mean_squared_error,
)


def _toy_regression(n: int = 120, seed: int = 0):
    """A smooth nonlinear 2-D regression problem."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, 2))
    y = np.sin(2.0 * x[:, 0]) + 0.5 * x[:, 1] ** 2
    return x, y.reshape(-1, 1)


class TestTrainingConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"momentum": 1.5},
            {"max_epochs": 0},
            {"batch_size": -1},
            {"patience": 0},
            {"validation_fraction": 0.95},
            {"l2": -1.0},
        ],
    )
    def test_invalid_hyperparameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainingConfig(**kwargs)


class TestBackpropTrainer:
    def test_training_reduces_error(self):
        x, y = _toy_regression()
        net = NeuralNetwork((2, 12, 1), seed=1)
        before = mean_squared_error(y, net.predict(x))
        trainer = BackpropTrainer(
            TrainingConfig(max_epochs=200, patience=50, learning_rate=0.1), seed=1
        )
        history = trainer.train(net, x, y)
        after = mean_squared_error(y, net.predict(x))
        assert after < before * 0.5
        assert history.epochs_run > 0
        assert history.best_epoch >= 0

    def test_early_stopping_triggers_on_noise_only_target(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(60, 3))
        y = rng.normal(size=(60, 1))  # pure noise: no generalizable signal
        net = NeuralNetwork((3, 16, 1), seed=2)
        trainer = BackpropTrainer(
            TrainingConfig(max_epochs=400, patience=10, learning_rate=0.2), seed=2
        )
        history = trainer.train(net, x, y)
        assert history.stopped_early
        assert history.epochs_run < 400

    def test_explicit_validation_set_used(self):
        x, y = _toy_regression(80)
        val_x, val_y = _toy_regression(30, seed=9)
        net = NeuralNetwork((2, 8, 1), seed=4)
        history = BackpropTrainer(
            TrainingConfig(max_epochs=50, patience=50), seed=4
        ).train(net, x, y, validation_inputs=val_x, validation_targets=val_y)
        assert len(history.validation_errors) == history.epochs_run

    def test_best_parameters_restored(self):
        x, y = _toy_regression(60)
        net = NeuralNetwork((2, 8, 1), seed=5)
        trainer = BackpropTrainer(TrainingConfig(max_epochs=80, patience=10), seed=5)
        history = trainer.train(net, x, y)
        # The restored network's validation error equals the best recorded one.
        assert min(history.validation_errors) == pytest.approx(
            history.best_validation_error, rel=1e-9
        )

    def test_requires_at_least_two_samples(self):
        net = NeuralNetwork((2, 4, 1))
        with pytest.raises(ValueError):
            BackpropTrainer().train(net, np.zeros((1, 2)), np.zeros((1, 1)))

    def test_mismatched_sample_counts_rejected(self):
        net = NeuralNetwork((2, 4, 1))
        with pytest.raises(ValueError):
            BackpropTrainer().train(net, np.zeros((4, 2)), np.zeros((3, 1)))

    def test_full_batch_mode(self):
        x, y = _toy_regression(40)
        net = NeuralNetwork((2, 6, 1), seed=6)
        history = BackpropTrainer(
            TrainingConfig(max_epochs=30, patience=30, batch_size=0), seed=6
        ).train(net, x, y)
        assert history.epochs_run == 30


class TestCrossValidationEnsemble:
    def test_fit_produces_one_member_per_fold(self):
        x, y = _toy_regression(100)
        ensemble = CrossValidationEnsemble(
            hidden_layers=(8,),
            folds=5,
            config=TrainingConfig(max_epochs=60, patience=10),
            seed=0,
        )
        results = ensemble.fit(x, y)
        assert len(results) == 5
        assert len(ensemble.members) == 5
        assert ensemble.trained
        assert ensemble.generalization_estimate() >= 0.0

    def test_ensemble_learns_the_function(self):
        x, y = _toy_regression(150)
        ensemble = CrossValidationEnsemble(
            hidden_layers=(12,),
            folds=5,
            config=TrainingConfig(max_epochs=150, patience=25, learning_rate=0.1),
            seed=1,
        )
        ensemble.fit(x, y)
        predictions = ensemble.predict(x)
        assert mean_squared_error(y, predictions) < 0.05

    def test_prediction_shapes(self):
        x, y = _toy_regression(60)
        ensemble = CrossValidationEnsemble(
            folds=3, config=TrainingConfig(max_epochs=20, patience=5), seed=2
        )
        ensemble.fit(x, y)
        assert np.isscalar(ensemble.predict(x[0]))
        assert ensemble.predict(x[:7]).shape == (7,)

    def test_predict_before_fit_raises(self):
        ensemble = CrossValidationEnsemble(folds=3)
        with pytest.raises(RuntimeError):
            ensemble.predict(np.zeros(3))
        with pytest.raises(RuntimeError):
            ensemble.generalization_estimate()

    def test_requires_enough_samples(self):
        ensemble = CrossValidationEnsemble(folds=10)
        with pytest.raises(ValueError):
            ensemble.fit(np.zeros((5, 2)), np.zeros(5))

    def test_requires_at_least_three_folds(self):
        with pytest.raises(ValueError):
            CrossValidationEnsemble(folds=2)

    def test_mismatched_targets_rejected(self):
        ensemble = CrossValidationEnsemble(folds=3)
        with pytest.raises(ValueError):
            ensemble.fit(np.zeros((10, 2)), np.zeros(9))

    def test_deterministic_given_seed(self):
        x, y = _toy_regression(60)
        config = TrainingConfig(max_epochs=25, patience=5)
        a = CrossValidationEnsemble(folds=3, config=config, seed=11)
        b = CrossValidationEnsemble(folds=3, config=config, seed=11)
        a.fit(x, y)
        b.fit(x, y)
        assert np.allclose(a.predict(x[:5]), b.predict(x[:5]))
