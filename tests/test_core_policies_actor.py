"""Tests for the adaptation policies and the ACTOR runtime manager."""

from __future__ import annotations

import pytest

from repro.core import (
    ACTOR,
    OracleGlobalPolicy,
    OraclePhasePolicy,
    PredictionPolicy,
    SearchPolicy,
    StaticPolicy,
    measure_oracle,
    train_predictor_bundle,
)
from repro.machine import CONFIG_2B, CONFIG_4
from repro.openmp import OpenMPRuntime


@pytest.fixture(scope="module")
def sp_workload(suite):
    # A shortened SP keeps policy runs fast while leaving enough timesteps
    # for the full sampling schedule (budget 20% of 40 = 8 > 6 groups).
    return suite.get("SP").with_timesteps(40)


@pytest.fixture(scope="module")
def is_workload(suite):
    return suite.get("IS")


class TestStaticPolicy:
    def test_always_uses_fixed_configuration(self, machine, sp_workload):
        actor = ACTOR(OpenMPRuntime(machine, seed=1))
        policy = StaticPolicy(CONFIG_2B)
        report = actor.run_with_policy(sp_workload, policy)
        for summary in report.phases.values():
            assert summary.dominant_configuration() == "2b"
        assert policy.name == "static-2b"
        assert policy.decisions() == {}


class TestOraclePolicies:
    def test_phase_oracle_assigns_best_config_per_phase(self, machine, sp_oracle, sp_workload):
        policy = OraclePhasePolicy(sp_oracle)
        expected = sp_oracle.phase_optimal_configurations()
        assert policy.decisions() == expected
        actor = ACTOR(OpenMPRuntime(machine, seed=2))
        report = actor.run_with_policy(sp_workload, policy)
        assert report.phase_configurations() == expected

    def test_global_oracle_uses_single_configuration(self, machine, sp_oracle, sp_workload):
        policy = OracleGlobalPolicy(sp_oracle)
        assert policy.configuration.name == sp_oracle.global_optimal_configuration()
        actor = ACTOR(OpenMPRuntime(machine, seed=3))
        report = actor.run_with_policy(sp_workload, policy)
        assert set(report.phase_configurations().values()) == {policy.configuration.name}

    def test_phase_oracle_beats_static_default(self, machine, sp_oracle, sp_workload):
        actor = ACTOR(OpenMPRuntime(machine, seed=4, keep_executions=False))
        static = actor.run_with_policy(sp_workload, StaticPolicy(CONFIG_4))
        oracle = actor.run_with_policy(sp_workload, OraclePhasePolicy(sp_oracle))
        assert oracle.time_seconds < static.time_seconds
        assert oracle.ed2 < static.ed2


class TestSearchPolicy:
    def test_search_tries_every_configuration_then_locks(self, machine, sp_workload):
        policy = SearchPolicy()
        actor = ACTOR(OpenMPRuntime(machine, seed=5))
        report = actor.run_with_policy(sp_workload, policy)
        decisions = policy.decisions()
        assert set(decisions) == set(sp_workload.phase_names())
        # Every phase tried all five configurations once.
        for summary in report.phases.values():
            assert sum(summary.configurations.values()) == sp_workload.timesteps
            assert len(summary.configurations) >= 4

    def test_search_decisions_are_reasonable(self, machine, is_oracle, is_workload):
        policy = SearchPolicy()
        actor = ACTOR(OpenMPRuntime(machine, seed=6))
        actor.run_with_policy(is_workload, policy)
        # For the dominant IS phase the search should avoid the tightly
        # coupled two-thread configuration, which is clearly the worst.
        decision = policy.decisions()["is.rank"]
        assert decision != "2a"


class TestPredictionPolicy:
    def test_sampling_then_lock(self, machine, trained_bundle, sp_workload):
        policy = PredictionPolicy(trained_bundle)
        actor = ACTOR(OpenMPRuntime(machine, seed=7))
        report = actor.run_with_policy(sp_workload, policy)
        decisions = policy.decisions()
        assert set(decisions) == set(sp_workload.phase_names())
        # All sampling instances ran on the sample configuration (4).
        for phase, summary in report.phases.items():
            sampled = summary.configurations.get("4", 0)
            assert sampled >= policy._states[phase].sampler.instances_sampled
        # Rankings were produced for every phase.
        assert set(policy.rankings()) == set(decisions)

    def test_uses_full_event_set_for_long_runs(self, machine, trained_bundle, sp_workload):
        policy = PredictionPolicy(trained_bundle)
        policy.prepare(sp_workload)
        actor = ACTOR(OpenMPRuntime(machine, seed=8))
        actor.run_with_policy(sp_workload, policy)
        state = next(iter(policy._states.values()))
        assert state.predictor.event_set.name == "full"

    def test_uses_reduced_event_set_for_short_runs(self, machine, trained_bundle, is_workload):
        policy = PredictionPolicy(trained_bundle)
        actor = ACTOR(OpenMPRuntime(machine, seed=9))
        actor.run_with_policy(is_workload, policy)
        state = next(iter(policy._states.values()))
        assert state.predictor.event_set.name == "reduced"

    def test_prediction_improves_on_static_for_poorly_scaling_code(
        self, machine, trained_bundle, is_workload
    ):
        actor = ACTOR(OpenMPRuntime(machine, seed=10, keep_executions=False))
        static = actor.run_with_policy(is_workload, StaticPolicy(CONFIG_4))
        adapted = actor.run_with_policy(is_workload, PredictionPolicy(trained_bundle))
        assert adapted.ed2 < static.ed2

    def test_prediction_sits_between_static_and_phase_oracle(
        self, machine, trained_bundle, sp_oracle, sp_workload
    ):
        actor = ACTOR(OpenMPRuntime(machine, seed=11, keep_executions=False))
        static = actor.run_with_policy(sp_workload, StaticPolicy(CONFIG_4))
        oracle = actor.run_with_policy(sp_workload, OraclePhasePolicy(sp_oracle))
        adapted = actor.run_with_policy(sp_workload, PredictionPolicy(trained_bundle))
        assert adapted.time_seconds <= static.time_seconds * 1.02
        assert adapted.time_seconds >= oracle.time_seconds * 0.98

    def test_regression_policy_reports_its_name(self, machine, mini_training_workloads, fast_options):
        linear_bundle = train_predictor_bundle(
            machine, mini_training_workloads, options=fast_options, linear=True
        )
        policy = PredictionPolicy(linear_bundle)
        assert policy.name == "regression"


class TestACTOR:
    def test_default_policy_is_static_all_cores(self, machine, tiny_workload):
        actor = ACTOR(OpenMPRuntime(machine, seed=12))
        report = actor.run(tiny_workload)
        assert set(report.phase_configurations().values()) == {"4"}
        assert actor.machine is machine

    def test_compare_policies_normalization(self, machine, sp_oracle, sp_workload):
        actor = ACTOR(OpenMPRuntime(machine, seed=13, keep_executions=False))
        comparison = actor.compare_policies(
            sp_workload,
            [StaticPolicy(CONFIG_4), OraclePhasePolicy(sp_oracle)],
            baseline="static-4",
        )
        normalized = comparison.normalized("time_seconds")
        assert normalized["static-4"] == pytest.approx(1.0)
        assert normalized["phase-optimal"] < 1.0
        assert "phase-optimal" in comparison.summary()

    def test_compare_policies_requires_valid_baseline(self, machine, sp_oracle, sp_workload):
        actor = ACTOR(OpenMPRuntime(machine, seed=14, keep_executions=False))
        comparison = actor.compare_policies(
            sp_workload, [OraclePhasePolicy(sp_oracle)], baseline="static-4"
        )
        with pytest.raises(KeyError):
            comparison.normalized("time_seconds")

    def test_standard_comparison_contains_paper_strategies(
        self, machine, trained_bundle, is_workload
    ):
        actor = ACTOR(OpenMPRuntime(machine, seed=15, keep_executions=False))
        comparison = actor.standard_comparison(is_workload, trained_bundle)
        assert set(comparison.reports) == {
            "static-4",
            "global-optimal",
            "phase-optimal",
            "prediction",
        }
        ed2 = comparison.normalized("ed2")
        assert ed2["phase-optimal"] <= ed2["global-optimal"] * 1.01
        assert ed2["prediction"] < 1.0
