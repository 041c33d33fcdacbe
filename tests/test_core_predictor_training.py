"""Tests for the IPC predictor, the linear baseline and the training pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    FULL_EVENT_SET,
    IPCPredictor,
    LinearIPCModel,
    PredictorBundle,
    REDUCED_EVENT_SET,
    collect_training_dataset,
    train_ipc_predictor,
    train_linear_predictor,
)
from repro.machine import CONFIG_2B


class TestLinearIPCModel:
    def test_recovers_linear_relationship(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(80, 3))
        targets = 2.0 + features @ np.array([0.5, -1.0, 0.25])
        model = LinearIPCModel().fit(features, targets)
        assert model.intercept == pytest.approx(2.0, abs=1e-8)
        for i, expected in enumerate([0.5, -1.0, 0.25]):
            assert model.coefficients[i] == pytest.approx(expected, abs=1e-8)
        assert model.predict_batch(features[:1])[0] == pytest.approx(targets[0], abs=1e-8)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LinearIPCModel().predict_batch(np.zeros((1, 3)))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            LinearIPCModel().fit(np.zeros((5, 2)), np.zeros(4))


class TestDatasetCollection:
    def test_dataset_covers_all_phases(self, machine, mini_training_workloads):
        dataset = collect_training_dataset(
            machine, mini_training_workloads, samples_per_phase=2, seed=1
        )
        expected_phases = sum(w.num_phases for w in mini_training_workloads)
        assert len(dataset) == expected_phases * 2
        assert dataset.event_set is FULL_EVENT_SET
        assert dataset.sample_configuration == "4"
        assert set(dataset.target_configurations) == {"1", "2a", "2b", "3"}

    def test_features_are_finite_and_positive_ipc(self, machine, mini_training_workloads):
        dataset = collect_training_dataset(
            machine, mini_training_workloads[:2], samples_per_phase=1, seed=2
        )
        features = dataset.feature_matrix()
        assert np.isfinite(features).all()
        assert (features[:, 0] > 0).all()  # sampled IPC

    def test_noise_produces_distinct_repetitions(self, machine, mini_training_workloads):
        dataset = collect_training_dataset(
            machine, mini_training_workloads[:1], samples_per_phase=3,
            measurement_noise=0.1, seed=3,
        )
        features = dataset.feature_matrix()
        phase_rows = features[:3]
        assert not np.allclose(phase_rows[0], phase_rows[1])

    def test_zero_noise_repetitions_identical(self, machine, mini_training_workloads):
        dataset = collect_training_dataset(
            machine, mini_training_workloads[:1], samples_per_phase=2,
            measurement_noise=0.0, seed=3,
        )
        features = dataset.feature_matrix()
        assert np.allclose(features[0], features[1])

    def test_invalid_arguments(self, machine, mini_training_workloads):
        with pytest.raises(ValueError):
            collect_training_dataset(machine, mini_training_workloads, samples_per_phase=0)
        with pytest.raises(KeyError):
            collect_training_dataset(
                machine, mini_training_workloads, target_configurations=("9",)
            )


class TestPredictorTraining:
    def test_ann_predictor_has_one_model_per_target(self, trained_bundle):
        predictor = trained_bundle.full
        assert predictor.kind == "ann"
        assert set(predictor.target_configurations) == {"1", "2a", "2b", "3"}
        assert predictor.event_set.name == "full"

    def test_reduced_member_present(self, trained_bundle):
        reduced = trained_bundle.for_event_set("reduced")
        assert reduced.event_set is REDUCED_EVENT_SET

    def test_unknown_event_set_raises(self, trained_bundle):
        with pytest.raises(KeyError):
            trained_bundle.for_event_set("gigantic")

    def test_feature_vector_layout_and_missing_events(self, trained_bundle):
        predictor = trained_bundle.full
        vector = predictor.feature_vector(1.5, {"PAPI_L2_TCM": 0.01})
        assert vector.shape == (13,)
        assert vector[0] == pytest.approx(1.5)
        # Missing events are filled with zero.
        assert np.count_nonzero(vector[1:]) == 1

    def test_predictions_are_positive_and_plausible(
        self, machine, suite, trained_bundle
    ):
        from repro.machine import CONFIG_4

        predictor = trained_bundle.full
        phase = suite.get("FT").phases[0]
        # Build rates from the sample configuration for a quick sanity check.
        sample = machine.execute(phase.work, CONFIG_4.placement, apply_noise=False)
        rates = {
            e: sample.event_counts.get(e, 0.0) / sample.cycles
            for e in predictor.event_set.events
        }
        predictions = predictor.predict_from_rates(sample.ipc, rates)
        assert set(predictions) == {"1", "2a", "2b", "3"}
        for value in predictions.values():
            assert 0.0 < value < 10.0

    def test_wrong_feature_count_rejected(self, trained_bundle):
        with pytest.raises(ValueError):
            trained_bundle.full.predict_batch(np.zeros((1, 5)))

    def test_linear_predictor_trains_and_predicts(self, machine, mini_training_workloads):
        dataset = collect_training_dataset(
            machine, mini_training_workloads, samples_per_phase=2, seed=4
        )
        predictor = train_linear_predictor(dataset)
        assert predictor.kind == "linear"
        sample = dataset.samples[0]
        predictions = predictor.predict_batch(np.array([sample.features]))
        assert set(predictions) == set(dataset.target_configurations)

    def test_training_requires_enough_samples_for_folds(
        self, machine, mini_training_workloads, fast_options
    ):
        dataset = collect_training_dataset(
            machine, mini_training_workloads[:1], samples_per_phase=1, seed=5
        )
        from repro.core import ANNTrainingOptions

        options = ANNTrainingOptions(folds=50)
        with pytest.raises(ValueError):
            train_ipc_predictor(dataset, options)

    def test_predictor_accuracy_on_training_phases(
        self, machine, suite, trained_bundle
    ):
        """Sanity: on a benchmark seen during training, the median relative
        error of the ANN predictor should be well below 30%."""
        from repro.machine import CONFIG_4

        predictor = trained_bundle.full
        errors = []
        workload = suite.get("CG")
        for phase in workload.phases:
            sample = machine.execute(phase.work, CONFIG_4.placement, apply_noise=False)
            rates = {
                e: sample.event_counts.get(e, 0.0) / sample.cycles
                for e in predictor.event_set.events
            }
            predictions = predictor.predict_from_rates(sample.ipc, rates)
            for config, predicted in predictions.items():
                from repro.machine import configuration_by_name

                actual = machine.execute(
                    phase.work, configuration_by_name(config).placement, apply_noise=False
                ).ipc
                errors.append(abs(actual - predicted) / actual)
        assert np.median(errors) < 0.30


class TestPredictorBundle:
    def test_bundle_exposes_shared_metadata(self, trained_bundle):
        assert trained_bundle.sample_configuration == "4"
        assert set(trained_bundle.target_configurations) == {"1", "2a", "2b", "3"}

    def test_bundle_without_reduced_member(self, trained_bundle):
        bundle = PredictorBundle(full=trained_bundle.full, reduced=None)
        with pytest.raises(KeyError):
            bundle.for_event_set("reduced")
