"""Property-based equivalence tests for the batched prediction engine.

The batched paths (``predict_batch``) must agree with one-sample predictions
(``predict``, or a one-row ``predict_batch`` for the linear baseline) to
1e-10 for every model — network, ensemble and linear baseline — across
dtypes and batch sizes 1 / 7 / 256.  Hypothesis drives randomized feature
matrices; the models themselves are trained once per module on seeded data
so the properties run fast.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ann import CrossValidationEnsemble, NeuralNetwork, NotFittedError, TrainingConfig
from repro.core import LinearIPCModel

BATCH_SIZES = (1, 7, 256)
DTYPES = (np.float64, np.float32)
N_FEATURES = 5

#: Equivalence bound demanded by the batched engine's acceptance criteria.
ATOL = 1e-10


def _random_batch(draw_seed: int, batch: int, dtype) -> np.ndarray:
    rng = np.random.default_rng(draw_seed)
    return rng.normal(0.0, 2.0, size=(batch, N_FEATURES)).astype(dtype)


def _per_member_reference(ensemble, inputs: np.ndarray) -> np.ndarray:
    """Each member network's own ``predict``, averaged and unscaled.

    Independent of the stacked forward pass ``predict_batch`` runs, so it
    checks that the member parameters were stacked and evaluated right.
    """
    scaled = ensemble.input_scaler.transform(np.atleast_2d(inputs))
    mean = np.mean([member.predict(scaled) for member in ensemble.members], axis=0)
    return ensemble.target_scaler.inverse_transform(mean).ravel()


@pytest.fixture(scope="module")
def network():
    return NeuralNetwork((N_FEATURES, 11, 3), seed=3)


@pytest.fixture(scope="module")
def fitted_ensemble():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(72, N_FEATURES))
    y = x @ rng.normal(size=N_FEATURES) + 0.3 * np.sin(x[:, 0])
    ensemble = CrossValidationEnsemble(
        hidden_layers=(8,),
        folds=4,
        config=TrainingConfig(max_epochs=25, patience=6),
        seed=4,
    )
    ensemble.fit(x, y)
    return ensemble


@pytest.fixture(scope="module")
def fitted_linear():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(60, N_FEATURES))
    y = 1.5 + x @ rng.normal(size=N_FEATURES)
    return LinearIPCModel().fit(x, y)


class TestNetworkBatched:
    @pytest.mark.parametrize("dtype", DTYPES, ids=["f64", "f32"])
    @pytest.mark.parametrize("batch", BATCH_SIZES)
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_batch_rows_equal_single_predictions(self, network, batch, dtype, seed):
        inputs = _random_batch(seed, batch, dtype)
        batched = network.predict_batch(inputs)
        assert batched.shape == (batch, 3)
        for i in range(batch):
            single = network.predict(inputs[i])
            np.testing.assert_allclose(batched[i], single, atol=ATOL, rtol=0.0)

    def test_rejects_non_2d_input(self, network):
        with pytest.raises(ValueError):
            network.predict_batch(np.zeros(N_FEATURES))
        with pytest.raises(ValueError):
            network.predict_batch(np.zeros((2, 2, N_FEATURES)))

    def test_rejects_wrong_feature_count(self, network):
        with pytest.raises(ValueError):
            network.predict_batch(np.zeros((4, N_FEATURES + 1)))


class TestEnsembleBatched:
    @pytest.mark.parametrize("dtype", DTYPES, ids=["f64", "f32"])
    @pytest.mark.parametrize("batch", BATCH_SIZES)
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_batch_rows_equal_single_predictions(self, fitted_ensemble, batch, dtype, seed):
        inputs = _random_batch(seed, batch, dtype)
        batched = fitted_ensemble.predict_batch(inputs)
        assert batched.shape == (batch,)
        for i in range(batch):
            single = fitted_ensemble.predict(inputs[i])
            np.testing.assert_allclose(batched[i], single, atol=ATOL, rtol=0.0)

    def test_batch_matches_per_member_reference(self, fitted_ensemble):
        inputs = _random_batch(99, 64, np.float64)
        reference = _per_member_reference(fitted_ensemble, inputs)
        np.testing.assert_allclose(
            fitted_ensemble.predict_batch(inputs), reference, atol=ATOL, rtol=0.0
        )
        np.testing.assert_allclose(
            fitted_ensemble.predict(inputs), reference, atol=ATOL, rtol=0.0
        )
        for i in range(3):
            np.testing.assert_allclose(
                fitted_ensemble.predict(inputs[i]), reference[i], atol=ATOL, rtol=0.0
            )

    def test_stacked_parameters_invalidated_by_refit(self, fitted_ensemble):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(48, N_FEATURES))
        y = x[:, 0] * 0.5
        ensemble = CrossValidationEnsemble(
            hidden_layers=(8,),
            folds=4,
            config=TrainingConfig(max_epochs=10, patience=4),
            seed=5,
        )
        ensemble.fit(x, y)
        before = ensemble.predict_batch(x[:3])
        ensemble.fit(x, -y)  # retrain on a different target
        after = ensemble.predict_batch(x[:3])
        assert not np.allclose(before, after)
        # And the refreshed stack matches the refit members themselves.
        np.testing.assert_allclose(
            after, _per_member_reference(ensemble, x[:3]), atol=ATOL, rtol=0.0
        )
        for i in range(3):
            np.testing.assert_allclose(
                ensemble.predict(x[i]),
                _per_member_reference(ensemble, x[i])[0],
                atol=ATOL,
                rtol=0.0,
            )

    def test_unfitted_raises_not_fitted_error(self):
        ensemble = CrossValidationEnsemble(folds=3)
        with pytest.raises(NotFittedError):
            ensemble.predict_batch(np.zeros((2, N_FEATURES)))
        with pytest.raises(NotFittedError):
            ensemble.predict(np.zeros(N_FEATURES))

    def test_rejects_non_2d_input(self, fitted_ensemble):
        with pytest.raises(ValueError):
            fitted_ensemble.predict_batch(np.zeros(N_FEATURES))


class TestLinearBatched:
    @pytest.mark.parametrize("dtype", DTYPES, ids=["f64", "f32"])
    @pytest.mark.parametrize("batch", BATCH_SIZES)
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_batch_rows_equal_single_predictions(self, fitted_linear, batch, dtype, seed):
        inputs = _random_batch(seed, batch, dtype)
        batched = fitted_linear.predict_batch(inputs)
        assert batched.shape == (batch,)
        for i in range(batch):
            np.testing.assert_allclose(
                batched[i],
                fitted_linear.predict_batch(inputs[i : i + 1])[0],
                atol=ATOL,
                rtol=0.0,
            )

    def test_rejects_non_2d_input_like_the_ann_paths(self, fitted_linear):
        """The interchangeable model kinds enforce the same strict contract."""
        with pytest.raises(ValueError):
            fitted_linear.predict_batch(np.zeros(N_FEATURES))
