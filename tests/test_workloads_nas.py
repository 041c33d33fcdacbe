"""Tests for the calibrated NAS-like benchmark models.

These tests pin the *shape* of the paper's Section III findings: which
benchmarks scale, which flatten, and which degrade, plus the calibration of
single-thread execution times.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.machine import CONFIG_1, Machine
from repro.workloads import (
    NAS_BENCHMARK_NAMES,
    SCALING_CLASSES,
    build_benchmark,
    nas_suite,
    seconds_per_instruction,
)
from repro.workloads.calibrate import _PROBE_INSTRUCTIONS
from repro.workloads.nas import _BENCHMARK_SIZES


@pytest.fixture(scope="module")
def app_times(machine, suite, configurations):
    """Whole-application execution time per benchmark per configuration."""
    times = {}
    for workload in suite:
        per_config = {}
        for config in configurations:
            total = 0.0
            for phase in workload.phases:
                result = machine.execute(phase.work, config, apply_noise=False)
                total += result.time_seconds * phase.invocations_per_timestep
            per_config[config.name] = total * workload.timesteps
        times[workload.name] = per_config
    return times


class TestSuiteConstruction:
    def test_suite_contains_all_eight_benchmarks(self, suite):
        assert suite.names() == list(NAS_BENCHMARK_NAMES)

    def test_scaling_classes_assigned(self, suite):
        for workload in suite:
            assert workload.scaling_class == SCALING_CLASSES[workload.name]

    def test_sp_has_eleven_phases(self, suite):
        assert suite.get("SP").num_phases == 11

    def test_every_benchmark_has_multiple_phases(self, suite):
        for workload in suite:
            assert workload.num_phases >= 3

    def test_subset_selection(self):
        small = nas_suite(machine=Machine(noise_sigma=0.0), names=["IS", "MG"])
        assert small.names() == ["IS", "MG"]

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            build_benchmark("XX")

    def test_build_benchmark_overrides(self, machine):
        workload = build_benchmark("IS", machine=machine, timesteps=5)
        assert workload.timesteps == 5


class TestCalibration:
    @pytest.mark.parametrize("name", NAS_BENCHMARK_NAMES)
    def test_single_thread_time_matches_target(self, app_times, name):
        target, _ = _BENCHMARK_SIZES[name]
        assert app_times[name]["1"] == pytest.approx(target, rel=0.05)

    def test_seconds_per_instruction_positive(self, machine, suite):
        work = suite.get("BT").phases[0].work
        assert seconds_per_instruction(work, machine) > 0

    def test_seconds_per_instruction_matches_scalar_execute(self, suite):
        """The one-cell probe sweep is bit-identical to the scalar path."""
        work = suite.get("BT").phases[0].work
        probe = replace(work, instructions=_PROBE_INSTRUCTIONS)
        reference = Machine(noise_sigma=0.0).execute(
            probe, CONFIG_1, apply_noise=False
        )
        assert seconds_per_instruction(work, Machine(noise_sigma=0.0)) == (
            reference.time_seconds / _PROBE_INSTRUCTIONS
        )

    def test_probe_cell_is_simulated_once_then_served_from_the_memo(self, suite):
        work = suite.get("CG").phases[0].work
        machine = Machine(noise_sigma=0.0)
        first = seconds_per_instruction(work, machine)
        info = machine.execution_memo_info()
        assert (info.hits, info.misses) == (0, 1)
        # The cold probe took the small-batch scalar short-circuit.
        assert machine.small_batch_shortcircuits == 1
        assert seconds_per_instruction(work, machine) == first
        info = machine.execution_memo_info()
        assert (info.hits, info.misses) == (1, 1)
        assert machine.batch_cells_computed == 1


class TestScalingShape:
    """The paper's Section III taxonomy must hold on the simulator."""

    @pytest.mark.parametrize("name", ["BT", "FT", "LU-HP"])
    def test_scalable_class_gains_from_every_core(self, app_times, name):
        times = app_times[name]
        speedup_4 = times["1"] / times["4"]
        assert speedup_4 > 2.0
        # Four cores beat the best two-core configuration.
        assert times["4"] < min(times["2a"], times["2b"])

    @pytest.mark.parametrize("name", ["CG", "LU", "SP"])
    def test_flat_class_saturates_after_two_cores(self, app_times, name):
        times = app_times[name]
        best_two = min(times["2a"], times["2b"])
        # Using four cores changes execution time by less than 15% compared
        # with the best two-core configuration (the paper reports ~7%).
        assert abs(times["4"] - best_two) / best_two < 0.25
        # But two cores clearly beat one.
        assert times["1"] / best_two > 1.3

    @pytest.mark.parametrize("name", ["IS", "MG"])
    def test_degrading_class_is_best_on_two_loose_cores(self, app_times, name):
        times = app_times[name]
        assert min(times, key=times.get) == "2b"
        assert times["4"] > times["2b"] * 1.15

    def test_is_suffers_on_tightly_coupled_cores(self, app_times):
        times = app_times["IS"]
        # The paper reports a 2.04x gap between 2b and 2a for IS.
        assert times["2a"] / times["2b"] > 1.4

    def test_is_does_not_benefit_from_four_cores(self, app_times):
        times = app_times["IS"]
        assert times["4"] >= times["1"] * 0.95

    def test_bt_is_the_most_scalable_benchmark(self, app_times):
        speedups = {
            name: app_times[name]["1"] / app_times[name]["4"]
            for name in NAS_BENCHMARK_NAMES
        }
        assert max(speedups, key=speedups.get) in ("BT", "LU-HP")

    def test_suite_effective_scaling_stops_at_two_cores(self, app_times):
        """Averaged over the suite, most of the gain comes from two cores."""
        gain_two = []
        gain_four = []
        for name in NAS_BENCHMARK_NAMES:
            times = app_times[name]
            best_two = min(times["2a"], times["2b"])
            gain_two.append(times["1"] / best_two)
            gain_four.append(times["1"] / times["4"])
        avg_two = sum(gain_two) / len(gain_two)
        avg_four = sum(gain_four) / len(gain_four)
        assert avg_two > 1.5
        assert avg_four - avg_two < 0.45


class TestPhaseHeterogeneity:
    def test_sp_phases_prefer_different_configurations(self, machine, suite, configurations):
        best = set()
        for phase in suite.get("SP").phases:
            times = {
                c.name: machine.execute(phase.work, c, apply_noise=False).time_seconds
                for c in configurations
            }
            best.add(min(times, key=times.get))
        assert len(best) >= 2

    def test_sp_phase_ipc_range_is_wide(self, machine, suite, configurations):
        max_ipcs = []
        for phase in suite.get("SP").phases:
            ipcs = [
                machine.execute(phase.work, c, apply_noise=False).ipc
                for c in configurations
            ]
            max_ipcs.append(max(ipcs))
        assert min(max_ipcs) < 1.0
        assert max(max_ipcs) > 3.5
