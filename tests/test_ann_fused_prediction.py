"""Fused prediction: a predictor's ensemble-backed targets in one stack.

:class:`repro.ann.EnsembleStack` scores several ensembles on the same rows,
one forward pass per group of same-shaped ensembles, and
``IPCPredictor.predict_batch`` sends all its ensemble-backed targets
through one cached stack.  These tests pin that every target's vector is
bit for bit what its own ensemble's ``predict_batch`` gives, at every batch
size, and that the cached stack follows refits and replacements.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.ann.ensemble as ensemble_module
from repro.ann import (
    ACTIVATIONS,
    CrossValidationEnsemble,
    NotFittedError,
    TrainingConfig,
    predict_ensembles,
)
from repro.core import (
    FULL_EVENT_SET,
    IPCPredictor,
    LinearIPCModel,
    train_predictor_bundle,
)
from repro.core.predictor import FrequencyRatioModel

BATCH_SIZES = (1, 2, 16, 64, 257, 8442)


def _features(num_features: int, rows: int, seed: int = 0) -> np.ndarray:
    """Counter-like rows: a sampled IPC and small event rates."""
    rng = np.random.default_rng(seed)
    features = np.abs(rng.normal(0.02, 0.01, size=(rows, num_features)))
    features[:, 0] = np.abs(rng.normal(0.9, 0.3, size=rows))
    return features


def _assert_each_target_is_its_own(predictor: IPCPredictor, features: np.ndarray):
    fused = predictor.predict_batch(features)
    assert list(fused) == list(predictor.models)
    for name, model in predictor.models.items():
        assert np.array_equal(fused[name], model.predict_batch(features)), name


def _ensemble(hidden=(6,), seed=0, outputs=1, rows=40, sign=1.0):
    """A small fitted ensemble over FULL_EVENT_SET's feature layout."""
    x = _features(FULL_EVENT_SET.num_features, rows, seed=100 + seed)
    y = sign * (x[:, :outputs] * 2.0 + x[:, 1:2] * 30.0)
    ensemble = CrossValidationEnsemble(
        hidden_layers=hidden,
        folds=4,
        config=TrainingConfig(max_epochs=15, patience=5),
        seed=seed,
    )
    ensemble.fit(x, y if outputs > 1 else y[:, 0])
    return ensemble


def _predictor(ensembles) -> IPCPredictor:
    return IPCPredictor.from_ensembles(
        event_set=FULL_EVENT_SET, sample_configuration="4", ensembles=ensembles
    )


@pytest.fixture(scope="module")
def dvfs_bundle(machine, suite, fast_options):
    """An ANN bundle over the placement x P-state and heterogeneous targets."""
    return train_predictor_bundle(
        machine,
        [suite.get("CG"), suite.get("MG")],
        options=fast_options,
        include_reduced=False,
        pstate_table=machine.pstate_table,
        include_heterogeneous=True,
    )


class TestEveryTargetIsItsOwnEnsemble:
    @pytest.mark.parametrize("rows", BATCH_SIZES)
    def test_session_bundle(self, trained_bundle, rows):
        for predictor in (trained_bundle.full, trained_bundle.reduced):
            features = _features(predictor.event_set.num_features, rows, seed=rows)
            _assert_each_target_is_its_own(predictor, features)

    @pytest.mark.parametrize("rows", BATCH_SIZES)
    def test_dvfs_heterogeneous_bundle(self, dvfs_bundle, rows):
        predictor = dvfs_bundle.full
        assert len(predictor.models) > 20
        assert any("/" in name for name in predictor.models)
        features = _features(predictor.event_set.num_features, rows, seed=rows)
        _assert_each_target_is_its_own(predictor, features)

    def test_same_shaped_targets_share_one_cached_stack(self, dvfs_bundle):
        predictor = dvfs_bundle.full
        features = _features(predictor.event_set.num_features, 3)
        predictor.predict_batch(features)
        names, stack = predictor._fused_targets()
        assert names == list(predictor.models)
        assert len(stack._groups) == 1
        predictor.predict_batch(features)
        assert predictor._fused_targets()[1] is stack

    def test_passes_of_any_size_give_the_same_values(self, dvfs_bundle, monkeypatch):
        predictor = dvfs_bundle.full
        features = _features(predictor.event_set.num_features, 64, seed=7)
        whole = predictor.predict_batch(features)
        # One ensemble per pass, then five ensembles per pass.
        for budget in (1, 5 * 64 * 10 * 4):
            monkeypatch.setattr(ensemble_module, "FUSED_PASS_ELEMENTS", budget)
            passes = predictor.predict_batch(features)
            for name in predictor.models:
                assert np.array_equal(passes[name], whole[name]), (budget, name)


class TestGroupsAndMixedTargets:
    def test_two_hidden_sizes_form_two_groups(self):
        ensembles = {
            "a": _ensemble(hidden=(4,), seed=1),
            "b": _ensemble(hidden=(6,), seed=2),
            "c": _ensemble(hidden=(4,), seed=3),
        }
        predictor = _predictor(ensembles)
        stack = predictor._fused_targets()[1]
        assert sorted(len(group.indices) for group in stack._groups) == [1, 2]
        for rows in (1, 9):
            features = _features(FULL_EVENT_SET.num_features, rows, seed=rows)
            _assert_each_target_is_its_own(predictor, features)
            fused = predict_ensembles(list(ensembles.values()), features)
            for values, ensemble in zip(fused, ensembles.values()):
                assert np.array_equal(values, ensemble.predict_batch(features))

    def test_linear_and_ratio_targets_are_unchanged(self):
        features = _features(FULL_EVENT_SET.num_features, 30, seed=4)
        linear = LinearIPCModel().fit(features, features[:, 0] * 1.2)
        ratio = LinearIPCModel().fit(features, 1.0 + features[:, 2])
        predictor = _predictor({"ann": _ensemble(seed=5), "ann2": _ensemble(seed=6)})
        ensemble_model = predictor.models["ann"]
        predictor.models = {
            "lin": linear,
            "ann": ensemble_model,
            "ratio": FrequencyRatioModel(linear, ratio),
            "ann-ratio": FrequencyRatioModel(ensemble_model, ratio),
            "ann2": predictor.models["ann2"],
        }
        rows = features[:5]
        fused = predictor.predict_batch(rows)
        assert list(fused) == ["lin", "ann", "ratio", "ann-ratio", "ann2"]
        assert predictor._fused_targets()[0] == ["ann", "ann2"]
        assert np.array_equal(fused["lin"], linear.predict_batch(rows))
        assert np.array_equal(
            fused["ratio"], linear.predict_batch(rows) * ratio.predict_batch(rows)
        )
        assert np.array_equal(
            fused["ann-ratio"],
            ensemble_model.predict_batch(rows) * ratio.predict_batch(rows),
        )
        _assert_each_target_is_its_own(predictor, rows)


class TestTheCachedStackFollowsTheModels:
    def test_refitting_one_ensemble_reaches_the_next_prediction(self):
        ensembles = {"a": _ensemble(seed=1), "b": _ensemble(seed=2)}
        predictor = _predictor(ensembles)
        features = _features(FULL_EVENT_SET.num_features, 4, seed=9)
        before = predictor.predict_batch(features)
        x = _features(FULL_EVENT_SET.num_features, 40, seed=10)
        ensembles["b"].fit(x, -40.0 * x[:, 3])
        after = predictor.predict_batch(features)
        assert np.array_equal(after["a"], before["a"])
        assert not np.allclose(after["b"], before["b"])
        _assert_each_target_is_its_own(predictor, features)

    def test_replacing_a_target_reaches_the_next_prediction(self):
        predictor = _predictor({"a": _ensemble(seed=1), "b": _ensemble(seed=2)})
        features = _features(FULL_EVENT_SET.num_features, 4, seed=11)
        before = predictor.predict_batch(features)
        replacement = _predictor({"b": _ensemble(seed=3, sign=-1.0)}).models["b"]
        predictor.models["b"] = replacement
        after = predictor.predict_batch(features)
        assert np.array_equal(after["b"], replacement.predict_batch(features))
        assert not np.allclose(after["b"], before["b"])
        linear = LinearIPCModel().fit(features, features[:, 1])
        predictor.models["a"] = linear
        assert np.array_equal(
            predictor.predict_batch(features)["a"], linear.predict_batch(features)
        )
        assert predictor._fused_targets()[0] == ["b"]

    def test_a_target_replaced_twice_reaches_the_next_prediction(self):
        # The second replacement is allocated until it takes the id() of the
        # model the stack was built from, if CPython hands that memory out
        # again; the stack must be rebuilt all the same.
        predictor = _predictor({"a": _ensemble(seed=1), "b": _ensemble(seed=2)})
        features = _features(FULL_EVENT_SET.num_features, 4, seed=12)
        before = predictor.predict_batch(features)
        model_type = type(predictor.models["b"])
        built_from = id(predictor.models["b"])
        predictor.models["b"] = model_type(_ensemble(seed=3))
        fresh = _ensemble(seed=4, sign=-1.0)
        allocated = []
        for _ in range(100):
            replacement = model_type(fresh)
            if id(replacement) == built_from:
                break
            allocated.append(replacement)
        predictor.models["b"] = replacement
        after = predictor.predict_batch(features)
        assert np.array_equal(after["b"], fresh.predict_batch(features))
        assert not np.allclose(after["b"], before["b"])

    def test_an_unfitted_ensemble_raises_not_fitted_error(self):
        unfitted = CrossValidationEnsemble(hidden_layers=(6,), folds=4)
        fitted = _ensemble(seed=1)
        predictor = _predictor({"a": fitted, "b": unfitted})
        features = _features(FULL_EVENT_SET.num_features, 2)
        with pytest.raises(NotFittedError, match="not fitted"):
            predictor.predict_batch(features)
        with pytest.raises(NotFittedError, match="not fitted"):
            predict_ensembles([fitted, unfitted], features)
        x = _features(FULL_EVENT_SET.num_features, 40, seed=13)
        unfitted.fit(x, x[:, 0])
        _assert_each_target_is_its_own(predictor, features)


class TestMultiOutputEnsembles:
    def test_multi_output_ensembles_behave_as_before(self):
        ensembles = [_ensemble(seed=1, outputs=2), _ensemble(seed=2, outputs=2)]
        features = _features(FULL_EVENT_SET.num_features, 6, seed=14)
        fused = predict_ensembles(ensembles, features)
        for values, ensemble in zip(fused, ensembles):
            assert values.shape == (6, 2)
            assert np.array_equal(values, ensemble.predict_batch(features))
            # The members' own forward passes, averaged and unscaled.
            scaled = ensemble.input_scaler.transform(features)
            mean = np.mean([m.predict(scaled) for m in ensemble.members], axis=0)
            np.testing.assert_allclose(
                values, ensemble.target_scaler.inverse_transform(mean), atol=1e-10, rtol=0
            )
            assert ensemble.predict(features[0]).shape == (2,)
            assert np.array_equal(ensemble.predict(features[0]), values[0])


class TestActivationsInPlace:
    @pytest.mark.parametrize("name", sorted(ACTIVATIONS))
    def test_value_leaves_its_input_alone_unless_it_is_out(self, name):
        activation = ACTIVATIONS[name]
        x = np.random.default_rng(15).normal(0.0, 40.0, size=(3, 7))
        x[0, 0], x[0, 1] = 1e6, -1e6
        original = x.copy()
        expected = activation.value(x)
        assert np.array_equal(x, original)
        assert activation.value(x, out=x) is x
        assert np.array_equal(x, expected)
        out = np.empty_like(original)
        assert activation.value(original, out=out) is out
        assert np.array_equal(out, expected)
