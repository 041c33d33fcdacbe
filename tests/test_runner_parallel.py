"""Golden-value tests for the concurrent experiment cell runner.

The parallel runner must be a pure performance feature: for a fixed seed,
fanning cells out over a process pool must produce bit-identical
``WorkloadRunReport`` aggregates to running the same cells serially — even
when a worker process crashes mid-sweep (the runner falls back to serial
re-execution) or when the cell list is empty.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.experiments import (
    POLICY_BUILDERS,
    RunCell,
    build_cell_policy,
    execute_cell,
    run_cells,
)
from repro.core import StaticPolicy
from repro.machine import CONFIG_2B
from repro.openmp import PhaseDirective


CELLS = (
    RunCell(workload="IS", policy="static-4", seed=1, max_timesteps=3),
    RunCell(workload="IS", policy="static-2b", seed=2, max_timesteps=3),
    RunCell(workload="CG", policy="search", seed=3, max_timesteps=6),
    RunCell(workload="MG", policy="static-1", seed=4, max_timesteps=2),
)


def _aggregates(report):
    """Everything a WorkloadRunReport accumulates, as comparable values."""
    return {
        "workload": report.workload_name,
        "controller": report.controller_name,
        "time": report.time_seconds,
        "energy": report.energy_joules,
        "overhead": report.sampling_overhead_seconds,
        "power": report.average_power_watts,
        "ed2": report.ed2,
        "phases": {
            name: (
                summary.instances,
                summary.time_seconds,
                summary.energy_joules,
                summary.overhead_seconds,
                dict(summary.configurations),
            )
            for name, summary in report.phases.items()
        },
    }


class TestGoldenSerialVsParallel:
    def test_parallel_reports_bit_identical_to_serial(self):
        serial = run_cells(CELLS)
        parallel = run_cells(CELLS, processes=4)
        assert len(serial) == len(parallel) == len(CELLS)
        for s, p in zip(serial, parallel):
            # Exact equality, not approx: identical seeds must give
            # identical floating-point aggregates.
            assert _aggregates(s) == _aggregates(p)

    def test_shared_memo_keeps_serial_and_parallel_bit_identical(self, tmp_path):
        """A memo store seeds every cell without perturbing any report.

        Memoized cells are deterministic and noise-free, so sharing them
        across the pool is a pure performance feature: reports must equal
        the no-store golden run exactly, serially and in parallel.  What the
        store actually carries are the suite-calibration probe cells every
        cell execution otherwise re-simulates from scratch.
        """
        from repro.store import MemoStore

        golden = run_cells(CELLS)

        # Cold store: the first cell simulates the calibration probes and
        # publishes them; later cells seed from what it published.
        store = MemoStore(tmp_path / "memo")
        serial = run_cells(CELLS, memo_store=store)
        assert store.info().cells_appended > 0
        segments = store.info().segment_files

        # Warm store: the workers recalibrate entirely from disk — nothing
        # is re-simulated, so no worker publishes a segment.
        parallel = run_cells(CELLS, processes=4, memo_store=store)
        assert store.info().segment_files == segments

        for g, s, p in zip(golden, serial, parallel):
            assert _aggregates(g) == _aggregates(s) == _aggregates(p)

    def test_cells_are_order_independent(self):
        reversed_reports = run_cells(list(reversed(CELLS)))
        forward_reports = run_cells(CELLS)
        for fwd, rev in zip(forward_reports, reversed(reversed_reports)):
            assert _aggregates(fwd) == _aggregates(rev)

    def test_repeated_execution_is_deterministic(self):
        cell = CELLS[0]
        assert _aggregates(execute_cell(cell)) == _aggregates(execute_cell(cell))

    def test_distinct_seeds_differ(self):
        noisy_a = execute_cell(RunCell("IS", "static-4", seed=10, max_timesteps=3))
        noisy_b = execute_cell(RunCell("IS", "static-4", seed=11, max_timesteps=3))
        assert noisy_a.time_seconds != noisy_b.time_seconds


class TestEdgeCells:
    def test_empty_cell_list_is_noop(self):
        assert run_cells([]) == []
        assert run_cells([], processes=4) == []

    def test_unknown_policy_spec_raises(self):
        with pytest.raises(KeyError):
            build_cell_policy("nonexistent-policy")

    def test_prediction_spec_requires_bundle(self):
        with pytest.raises(ValueError):
            build_cell_policy("prediction", bundle=None)

    def test_unknown_policy_in_parallel_surfaces_in_caller(self):
        bad = [RunCell("IS", "nonexistent-policy", seed=1, max_timesteps=2)]
        # The pool retries, warns, and the serial fallback then raises the
        # real error with an ordinary traceback.
        with pytest.warns(RuntimeWarning, match="re-running them serially"):
            with pytest.raises(KeyError):
                run_cells(bad, processes=2)


class _CrashInWorkerPolicy(StaticPolicy):
    """Static policy that kills the process — but only inside pool workers.

    In the parent process it behaves exactly like ``StaticPolicy`` so the
    serial fallback produces the golden report.
    """

    def before_phase(self, region, timestep):
        if multiprocessing.parent_process() is not None:
            os._exit(13)  # simulate a hard worker crash (no exception, no cleanup)
        return super().before_phase(region, timestep)


class TestWorkerCrashRecovery:
    @pytest.fixture(autouse=True)
    def crashy_policy(self):
        POLICY_BUILDERS["crash-in-worker"] = lambda bundle: _CrashInWorkerPolicy(
            CONFIG_2B
        )
        yield
        POLICY_BUILDERS.pop("crash-in-worker", None)

    def test_crashed_cells_recovered_serially_with_identical_aggregates(self):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("crash-policy registration requires fork start method")
        cells = [
            RunCell("IS", "static-4", seed=1, max_timesteps=3),
            RunCell("IS", "crash-in-worker", seed=2, max_timesteps=3),
            RunCell("IS", "static-2b", seed=3, max_timesteps=3),
        ]
        golden = [
            execute_cell(cells[0]),
            execute_cell(RunCell("IS", "static-2b", seed=2, max_timesteps=3)),
            execute_cell(cells[2]),
        ]
        with pytest.warns(RuntimeWarning, match="re-running them serially"):
            reports = run_cells(cells, processes=2)
        assert len(reports) == 3
        # The crashing cell was re-run serially (where the policy is benign
        # and equals static-2b); the healthy cells are unaffected.
        for report, expected in zip(reports, golden):
            assert report.time_seconds == expected.time_seconds
            assert report.energy_joules == expected.energy_joules
        assert reports[1].controller_name.startswith("static")

    def test_crash_without_retry_raises(self):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("crash-policy registration requires fork start method")
        cells = [RunCell("IS", "crash-in-worker", seed=2, max_timesteps=3)]
        with pytest.raises(RuntimeError, match="failed in worker"):
            run_cells(cells, processes=2, retry_failed_serially=False)


class _FailInWorkerPolicy(StaticPolicy):
    """Raises inside pool workers only; benign in the parent process.

    Unlike ``_CrashInWorkerPolicy`` the pool itself survives, so the cell
    fails in *both* pool generations and lands in the serial fallback —
    exercising the retry-seeding path without breaking its neighbours.
    """

    def before_phase(self, region, timestep):
        if multiprocessing.parent_process() is not None:
            raise RuntimeError("deliberate worker-only failure")
        return super().before_phase(region, timestep)


class TestRetryGenerationMemoSeeding:
    """Retried cells must seed from what earlier cells have published.

    Regression test: the retry pool and the serial fallback used to re-seed
    from a stale call-time snapshot, re-simulating every calibration cell
    the first generation had already simulated.
    """

    @pytest.fixture(autouse=True)
    def faily_policy(self):
        POLICY_BUILDERS["fail-in-worker"] = lambda bundle: _FailInWorkerPolicy(
            CONFIG_2B
        )
        yield
        POLICY_BUILDERS.pop("fail-in-worker", None)

    def test_serial_fallback_seeds_from_absorbed_deltas(self, tmp_path):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("fail-policy registration requires fork start method")
        from repro.store import MemoStore

        healthy = RunCell("IS", "static-4", seed=1, max_timesteps=3)
        flaky = RunCell("IS", "fail-in-worker", seed=2, max_timesteps=3)
        golden = execute_cell(RunCell("IS", "static-2b", seed=2, max_timesteps=3))

        # The flaky cell fails in both pool generations and is recovered by
        # the serial fallback in the caller (where the policy equals
        # static-2b).  Both are IS cells sharing calibration probes, so the
        # fallback seeds every probe from the healthy cell's segment and
        # publishes nothing through the caller's store.
        store = MemoStore(tmp_path / "memo")
        with pytest.warns(RuntimeWarning, match="re-running them serially"):
            reports = run_cells([healthy, flaky], processes=2, memo_store=store)
        assert len(reports) == 2
        assert reports[1].time_seconds == golden.time_seconds
        assert reports[1].energy_joules == golden.energy_joules
        assert store.info().cells_appended == 0
        assert store.info().segment_files == 1
