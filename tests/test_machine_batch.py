"""Equivalence tests for one-phase sweeps: one-row ``Machine.execute_grid``.

A sweep of one phase over a configuration space is a one-row grid,
``execute_grid([work], configs)`` read at row 0 — the shape that workload
calibration and training collection issue, and the one
``benchmarks/bench_machine_batch.py`` times.  It must reproduce looped
``Machine.execute`` calls to tight tolerance across the full placement ×
P-state cross-product — for the headline metric arrays, the lazily
materialized :class:`ExecutionResult` objects and the synthesized hardware
event counts — on every NAS workload phase.  Multi-row grids are covered by
``test_machine_grid.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine import (
    CONFIG_2B,
    CONFIG_4,
    Machine,
    ThreadPlacement,
    WorkRequest,
    dvfs_configurations,
    enumerate_configurations,
    standard_configurations,
)
from repro.machine.topology import dual_socket_xeon

#: Relative tolerance for sweep-vs-loop equivalence.  The vectorized kernel
#: mirrors the scalar arithmetic operation for operation, so agreement is
#: at the last-ulp level; 1e-12 leaves margin for platform libm differences.
_RTOL = 1e-12

_SCALAR_METRICS = (
    "time_seconds",
    "cycles",
    "instructions",
    "ipc",
    "power_watts",
    "energy_joules",
    "frequency_ghz",
)


@pytest.fixture(scope="module")
def cross_product(machine):
    """The full placement × P-state cross-product of the default machine."""
    return dvfs_configurations(
        standard_configurations(machine.topology), machine.pstate_table
    )


def _assert_result_equivalent(reference, materialized):
    for attribute in _SCALAR_METRICS:
        assert getattr(materialized, attribute) == pytest.approx(
            getattr(reference, attribute), rel=_RTOL
        ), attribute
    assert materialized.thread_ipcs == pytest.approx(
        reference.thread_ipcs, rel=_RTOL
    )
    assert materialized.pstate == reference.pstate
    assert set(materialized.event_counts) == set(reference.event_counts)
    for event, value in reference.event_counts.items():
        assert materialized.event_counts[event] == pytest.approx(
            value, rel=_RTOL, abs=1e-9
        ), event
    assert materialized.bus.utilization == pytest.approx(
        reference.bus.utilization, rel=_RTOL
    )
    assert materialized.power.total_watts == pytest.approx(
        reference.power.total_watts, rel=_RTOL
    )


class TestCrossProductEquivalence:
    def test_every_nas_phase_matches_looped_execute(
        self, machine, suite, cross_product
    ):
        """Noise-free one-row sweep == loop across the suite × cross-product."""
        sweep_machine = Machine(noise_sigma=0.0)
        for workload in suite:
            for phase in workload.phases:
                sweep = sweep_machine.execute_grid(
                    [phase.work], cross_product, use_memo=False
                )
                assert sweep.shape == (1, len(cross_product))
                for index, config in enumerate(cross_product):
                    reference = machine.execute(
                        phase.work, config, apply_noise=False
                    )
                    assert float(sweep.time_seconds[0, index]) == pytest.approx(
                        reference.time_seconds, rel=_RTOL
                    ), (workload.name, phase.name, config.name)
                    assert float(sweep.ipc[0, index]) == pytest.approx(
                        reference.ipc, rel=_RTOL
                    )
                    assert float(sweep.power_watts[0, index]) == pytest.approx(
                        reference.power_watts, rel=_RTOL
                    )

    def test_materialized_results_match_in_full(self, machine, suite, cross_product):
        """Lazily materialized ExecutionResults agree field by field."""
        work = suite.get("SP").phases[0].work
        sweep = machine.execute_grid([work], cross_product, use_memo=False)
        for index, config in enumerate(cross_product):
            reference = machine.execute(work, config, apply_noise=False)
            _assert_result_equivalent(reference, sweep.result(0, index))

    def test_default_configurations_are_the_cross_product(
        self, machine, cross_product
    ):
        sweep = machine.execute_grid(
            [WorkRequest(instructions=1.5e8)], use_memo=False
        )
        assert sweep.names() == [c.name for c in cross_product]

    def test_heterogeneous_thread_counts_on_dual_socket(self, suite):
        """Padded cells (1..8 threads) match the scalar path on 8 cores."""
        topology = dual_socket_xeon()
        machine = Machine(topology=topology, noise_sigma=0.0)
        configs = enumerate_configurations(topology)
        work = suite.get("IS").phases[0].work
        sweep = machine.execute_grid([work], configs, use_memo=False)
        for index, config in enumerate(configs):
            reference = machine.execute(work, config, apply_noise=False)
            _assert_result_equivalent(reference, sweep.result(0, index))

    def test_noisy_batch_consumes_the_scalar_rng_stream(self, suite, cross_product):
        """apply_noise=True draws one jitter per cell, in input order."""
        work = suite.get("CG").phases[0].work
        loop_machine = Machine(seed=911, noise_sigma=0.01)
        sweep_machine = Machine(seed=911, noise_sigma=0.01)
        looped = [
            loop_machine.execute(work, config, apply_noise=True)
            for config in cross_product
        ]
        sweep = sweep_machine.execute_grid([work], cross_product, apply_noise=True)
        for index, reference in enumerate(looped):
            assert float(sweep.time_seconds[0, index]) == pytest.approx(
                reference.time_seconds, rel=_RTOL
            )


class TestBatchResultInterface:
    def test_accepts_raw_placements(self, machine, compute_work):
        placement = ThreadPlacement((0, 2))
        sweep = machine.execute_grid([compute_work], [placement], use_memo=False)
        reference = machine.execute(compute_work, placement, apply_noise=False)
        assert float(sweep.time_seconds[0, 0]) == pytest.approx(
            reference.time_seconds, rel=_RTOL
        )

    def test_empty_configuration_list_rejected(self, machine, compute_work):
        with pytest.raises(ValueError):
            machine.execute_grid([compute_work], [])

    def test_unknown_core_rejected(self, machine, compute_work):
        with pytest.raises(KeyError):
            machine.execute_grid([compute_work], [ThreadPlacement((0, 9))])

    def test_metric_and_lookup_helpers(self, machine, compute_work, cross_product):
        sweep = machine.execute_grid([compute_work], cross_product)
        times = sweep.metric("time_seconds")
        assert times.shape == (1, len(cross_product))
        index = sweep.index_of("2b@1.6GHz")
        assert sweep.names()[index] == "2b@1.6GHz"
        assert sweep.result_for(0, "2b@1.6GHz").time_seconds == float(
            times[0, index]
        )
        with pytest.raises(KeyError):
            sweep.index_of("nonexistent")
        with pytest.raises(KeyError):
            sweep.metric("not_a_metric")

    def test_derived_metric_arrays_are_consistent(
        self, machine, compute_work, cross_product
    ):
        sweep = machine.execute_grid([compute_work], cross_product)
        assert np.allclose(
            sweep.energy_joules, sweep.power_watts * sweep.time_seconds
        )
        assert np.allclose(sweep.edp, sweep.energy_joules * sweep.time_seconds)
        assert np.allclose(
            sweep.ed2, sweep.energy_joules * sweep.time_seconds ** 2
        )

    def test_best_matches_argmin_of_loop(self, machine, compute_work, cross_product):
        sweep = machine.execute_grid([compute_work], cross_product)
        times = {
            c.name: machine.execute(compute_work, c, apply_noise=False).time_seconds
            for c in cross_product
        }
        (best,) = sweep.best("time_seconds")
        assert best.name == min(times, key=times.get)

    def test_results_materialize_every_cell_once(self, machine, compute_work):
        sweep = machine.execute_grid([compute_work], [CONFIG_2B, CONFIG_4])
        results = [sweep.result(0, index) for index in range(len(sweep))]
        assert len(results) == 2
        assert [r.placement for r in results] == [
            CONFIG_2B.placement,
            CONFIG_4.placement,
        ]
        assert results[0] is sweep.result(0, 0)  # cached, not rebuilt
