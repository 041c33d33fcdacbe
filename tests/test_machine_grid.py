"""Equivalence suite for the 2-D phase × configuration grid kernel.

``Machine.execute_grid`` stacks many phases and many configurations into one
vectorized pass; it must reproduce looped ``Machine.execute`` calls to tight
tolerance on every metric, for every (work, configuration) cell — pinned
here across the whole NAS suite × the full placement × P-state cross-product
and, via hypothesis, across random synthetic ``WorkRequest`` grids.  The
grid is the engine underneath oracle construction and training collection,
so any divergence silently corrupts everything downstream.

The small-batch short-circuit (cold cells below ``DEFAULT_SMALL_BATCH_CUTOFF``
go through the memoized scalar path instead of the vectorized kernel) is
pinned here behaviourally via the machine's counters; its cold-latency
claim is asserted by ``benchmarks/bench_machine_grid.py`` (wall-clock
measurement belongs in the bench tier).
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.machine import (
    CONFIG_1,
    CONFIG_2A,
    CONFIG_2B,
    CONFIG_4,
    BusState,
    CPIBreakdown,
    Machine,
    PowerBreakdown,
    ThreadPlacement,
    WorkRequest,
    configuration_by_name,
    default_pstate_table,
    dvfs_configurations,
    heterogeneous_ladders,
    standard_configurations,
)
from repro.machine.machine import DEFAULT_SMALL_BATCH_CUTOFF
from repro.machine.topology import dual_socket_xeon

#: Relative tolerance for grid-vs-loop equivalence.  The grid kernel mirrors
#: the scalar arithmetic operation for operation (per-work scalars simply
#: become per-row columns), so agreement is at the last-ulp level; 1e-12
#: leaves margin for platform libm differences.
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

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def work_requests(draw) -> WorkRequest:
    """Random but physically admissible phase characterizations."""
    mem = draw(st.floats(0.1, 0.5))
    flop = draw(st.floats(0.0, 0.9 - mem))
    return WorkRequest(
        instructions=draw(st.floats(1e6, 5e9)),
        mem_fraction=mem,
        flop_fraction=flop,
        branch_fraction=draw(st.floats(0.0, 0.2)),
        l1_miss_rate=draw(st.floats(0.0, 0.3)),
        l2_miss_rate_solo=draw(st.floats(0.0, 0.9)),
        working_set_mb=draw(st.floats(0.1, 32.0)),
        locality_exponent=draw(st.floats(0.0, 4.0)),
        sharing_fraction=draw(st.floats(0.0, 1.0)),
        bandwidth_sensitivity=draw(st.floats(0.3, 1.5)),
        serial_fraction=draw(st.floats(0.0, 0.5)),
        load_imbalance=draw(st.floats(1.0, 1.3)),
        barriers=draw(st.integers(0, 30)),
        sync_cycles_per_barrier=draw(st.floats(0.0, 10_000.0)),
        prefetch_friendliness=draw(st.floats(0.0, 0.95)),
        base_cpi=draw(st.floats(0.3, 1.5)),
    )


@pytest.fixture(scope="module")
def cross_product(machine):
    """The full placement × P-state cross-product of the default machine."""
    return dvfs_configurations(
        standard_configurations(machine.topology), machine.pstate_table
    )


def _assert_cell_matches(grid, wi, ci, reference, context):
    for attribute in ("time_seconds", "cycles", "instructions", "ipc",
                      "power_watts", "energy_joules", "frequency_ghz"):
        assert float(getattr(grid, attribute)[wi, ci]) == pytest.approx(
            getattr(reference, attribute), rel=_RTOL
        ), (attribute, *context)


class TestGridEquivalence:
    def test_every_nas_phase_row_matches_looped_execute(
        self, machine, suite, cross_product
    ):
        """One grid over the whole suite == scalar loops, cell for cell."""
        grid_machine = Machine(noise_sigma=0.0)
        labels = [
            (workload.name, phase.name)
            for workload in suite
            for phase in workload.phases
        ]
        works = [
            phase.work for workload in suite for phase in workload.phases
        ]
        grid = grid_machine.execute_grid(works, cross_product, use_memo=False)
        assert grid.shape == (len(works), len(cross_product))
        for wi, work in enumerate(works):
            for ci, config in enumerate(cross_product):
                reference = machine.execute(work, config, apply_noise=False)
                _assert_cell_matches(
                    grid, wi, ci, reference, (*labels[wi], config.name)
                )

    def test_grid_rows_equal_per_phase_batches(self, machine, suite, cross_product):
        """Each grid row is bit-compatible with a one-phase execute_batch."""
        works = [phase.work for phase in suite.get("CG").phases]
        grid = machine.execute_grid(works, cross_product, use_memo=False)
        for wi, work in enumerate(works):
            batch = machine.execute_batch(work, cross_product, use_memo=False)
            for metric in ("time_seconds", "ipc", "power_watts", "ed2"):
                np.testing.assert_allclose(
                    getattr(grid, metric)[wi],
                    getattr(batch, metric),
                    rtol=_RTOL,
                )

    def test_materialized_results_match_in_full(self, machine, suite, cross_product):
        """Lazily materialized ExecutionResults agree field by field.

        Covers homogeneous configurations and every heterogeneous ladder of
        the standard placements, whose bus demand, capacity and
        transactions are in per-nanosecond units.
        """
        works = [suite.get("SP").phases[0].work, suite.get("IS").phases[0].work]
        ladders = [
            ladder
            for base in standard_configurations(machine.topology)
            for ladder in heterogeneous_ladders(base, machine.pstate_table)
        ]
        configs = [
            cross_product[0],
            cross_product[len(cross_product) // 2],
            cross_product[-1],
            *ladders,
        ]
        grid = machine.execute_grid(works, configs, use_memo=False)
        for wi, work in enumerate(works):
            for ci, config in enumerate(configs):
                context = (wi, config.name)
                reference = machine.execute(work, config, apply_noise=False)
                materialized = grid.result(wi, ci)
                assert materialized.pstate == reference.pstate, context
                assert materialized.pstates == reference.pstates, context
                assert materialized.frequency_ghz == reference.frequency_ghz, context
                assert materialized.thread_ipcs == pytest.approx(
                    reference.thread_ipcs, rel=_RTOL
                ), context
                assert len(materialized.thread_cpi) == len(reference.thread_cpi)
                for got, want in zip(materialized.thread_cpi, reference.thread_cpi):
                    for f in dataclass_fields(CPIBreakdown):
                        assert getattr(got, f.name) == pytest.approx(
                            getattr(want, f.name), rel=_RTOL
                        ), (*context, "cpi", f.name)
                for f in dataclass_fields(BusState):
                    assert getattr(materialized.bus, f.name) == pytest.approx(
                        getattr(reference.bus, f.name), rel=_RTOL
                    ), (*context, "bus", f.name)
                for f in dataclass_fields(PowerBreakdown):
                    if f.name != "components":
                        assert getattr(materialized.power, f.name) == pytest.approx(
                            getattr(reference.power, f.name), rel=_RTOL
                        ), (*context, "power", f.name)
                assert materialized.power.components == pytest.approx(
                    reference.power.components, rel=_RTOL
                ), context
                assert set(materialized.event_counts) == set(reference.event_counts)
                for event, value in reference.event_counts.items():
                    assert materialized.event_counts[event] == pytest.approx(
                        value, rel=_RTOL, abs=1e-9
                    ), (*context, event)

    def test_heterogeneous_thread_counts_on_dual_socket(self, suite):
        """Padded rows (1..8 threads) match the scalar path on 8 cores."""
        from repro.machine import enumerate_configurations

        topology = dual_socket_xeon()
        machine = Machine(topology=topology, noise_sigma=0.0)
        configs = enumerate_configurations(topology)
        works = [suite.get("IS").phases[0].work, suite.get("BT").phases[0].work]
        grid = machine.execute_grid(works, configs, use_memo=False)
        for wi, work in enumerate(works):
            for ci, config in enumerate(configs):
                reference = machine.execute(work, config, apply_noise=False)
                _assert_cell_matches(grid, wi, ci, reference, (wi, config.name))

    def test_noisy_grid_consumes_the_scalar_rng_stream(self, suite, cross_product):
        """apply_noise=True draws one jitter per cell, in row-major order."""
        works = [p.work for p in suite.get("CG").phases[:2]]
        loop_machine = Machine(seed=911, noise_sigma=0.01)
        grid_machine = Machine(seed=911, noise_sigma=0.01)
        looped = [
            [
                loop_machine.execute(work, config, apply_noise=True)
                for config in cross_product
            ]
            for work in works
        ]
        grid = grid_machine.execute_grid(works, cross_product, apply_noise=True)
        for wi in range(len(works)):
            for ci in range(len(cross_product)):
                assert float(grid.time_seconds[wi, ci]) == pytest.approx(
                    looped[wi][ci].time_seconds, rel=_RTOL
                )

    @given(works=st.lists(work_requests(), min_size=1, max_size=3))
    @_SETTINGS
    def test_random_work_grids_match_looped_execute(self, works):
        """Property: any admissible work grid == scalar loops on all metrics."""
        machine = Machine(noise_sigma=0.0)
        configs = standard_configurations(machine.topology)
        grid = machine.execute_grid(works, configs, use_memo=False)
        for wi, work in enumerate(works):
            for ci, config in enumerate(configs):
                reference = machine.execute(work, config, apply_noise=False)
                _assert_cell_matches(grid, wi, ci, reference, (wi, config.name))


#: Index pool for random per-core P-state vectors over the default table.
_PSTATE_INDICES = st.integers(0, len(default_pstate_table()) - 1)


@st.composite
def pstate_vectors(draw, num_threads: int):
    """A random per-core P-state vector of the default frequency ladder."""
    table = default_pstate_table()
    indices = draw(
        st.lists(_PSTATE_INDICES, min_size=num_threads, max_size=num_threads)
    )
    return tuple(table.states[i] for i in indices)


class TestHeterogeneousGrid:
    """Per-core P-state vectors through the grid kernel vs the scalar path."""

    def test_nas_phases_with_ladders_match_looped_execute(self, machine, suite):
        """NAS phases × (cross-product + every ladder) == scalar loops."""
        grid_machine = Machine(noise_sigma=0.0)
        configs = dvfs_configurations(
            standard_configurations(grid_machine.topology),
            grid_machine.pstate_table,
            include_heterogeneous=True,
        )
        assert any(c.is_heterogeneous for c in configs)
        works = [p.work for p in suite.get("IS").phases] + [
            p.work for p in suite.get("BT").phases[:2]
        ]
        grid = grid_machine.execute_grid(works, configs, use_memo=False)
        for wi, work in enumerate(works):
            for ci, config in enumerate(configs):
                reference = machine.execute(work, config, apply_noise=False)
                _assert_cell_matches(grid, wi, ci, reference, (wi, config.name))

    @given(
        work=work_requests(),
        vectors=st.lists(pstate_vectors(num_threads=4), min_size=1, max_size=3),
    )
    @_SETTINGS
    def test_random_pstate_vectors_match_scalar_execute(self, work, vectors):
        """Property: any per-core vector — grid kernel == per-cell scalar."""
        machine = Machine(noise_sigma=0.0)
        configs = [
            CONFIG_4.with_pstate_vector(v, nominal=machine.pstate_table.nominal)
            for v in vectors
        ]
        grid = machine.execute_grid([work], configs, use_memo=False)
        for ci, (config, vector) in enumerate(zip(configs, vectors)):
            reference = machine.execute(
                work, CONFIG_4.placement, apply_noise=False, pstate=vector
            )
            _assert_cell_matches(grid, 0, ci, reference, (config.name,))

    @given(work=work_requests(), index=_PSTATE_INDICES)
    @_SETTINGS
    def test_all_equal_vector_reproduces_homogeneous_exactly(self, work, index):
        """Invariance: the degenerate vector IS the homogeneous execution."""
        machine = Machine(noise_sigma=0.0)
        table = machine.pstate_table
        state = table.states[index]
        uniform = machine.execute(
            work, CONFIG_4.placement, apply_noise=False, pstate=(state,) * 4
        )
        homogeneous = machine.execute(
            work, CONFIG_4.placement, apply_noise=False, pstate=state
        )
        # Bit-identity, not tolerance: the vector collapses to the scalar
        # path before any arithmetic runs.
        assert uniform.time_seconds == homogeneous.time_seconds
        assert uniform.cycles == homogeneous.cycles
        assert uniform.ipc == homogeneous.ipc
        assert uniform.power_watts == homogeneous.power_watts
        assert uniform.pstates is None
        assert uniform.pstate == state
        # The configuration constructor collapses too.
        config = CONFIG_4.with_pstate_vector((state,) * 4, nominal=table.nominal)
        assert not config.is_heterogeneous
        assert config.pstate == state

    def test_mixed_homogeneous_and_heterogeneous_calls_partition(
        self, machine, compute_work, bandwidth_work
    ):
        """One grid call mixing shared-clock and per-core rows stays
        cell-exact."""
        table = machine.pstate_table
        configs = [
            configuration_by_name("4", table),
            configuration_by_name("4@2.4/2.4/1.6/1.6GHz", table),
            configuration_by_name("2b@1.6GHz", table),
            configuration_by_name("2b@2.4/1.6GHz", table),
        ]
        grid_machine = Machine(noise_sigma=0.0)
        grid = grid_machine.execute_grid(
            [compute_work, bandwidth_work], configs, use_memo=False
        )
        for wi, work in enumerate((compute_work, bandwidth_work)):
            for ci, config in enumerate(configs):
                reference = machine.execute(work, config, apply_noise=False)
                _assert_cell_matches(grid, wi, ci, reference, (wi, config.name))

    def test_noisy_mixed_grid_consumes_the_scalar_rng_stream(self, suite):
        """Mixed rows draw one jitter per cell in row-major order."""
        table = default_pstate_table()
        configs = [
            configuration_by_name("4", table),
            configuration_by_name("4@2.4/2.4/1.6/1.6GHz", table),
            configuration_by_name("4@1.6GHz", table),
        ]
        works = [p.work for p in suite.get("CG").phases[:2]]
        loop_machine = Machine(seed=913, noise_sigma=0.01)
        grid_machine = Machine(seed=913, noise_sigma=0.01)
        looped = [
            [
                loop_machine.execute(work, config, apply_noise=True)
                for config in configs
            ]
            for work in works
        ]
        grid = grid_machine.execute_grid(works, configs, apply_noise=True)
        for wi in range(len(works)):
            for ci in range(len(configs)):
                assert float(grid.time_seconds[wi, ci]) == pytest.approx(
                    looped[wi][ci].time_seconds, rel=_RTOL
                )

    def test_ladder_names_round_trip_through_configuration_by_name(self):
        table = default_pstate_table()
        for base in standard_configurations():
            for ladder in heterogeneous_ladders(base, table):
                assert ladder.is_heterogeneous
                resolved = configuration_by_name(ladder.name, table)
                assert resolved == ladder

    def test_master_boost_ladder_wins_ed2_on_serial_heavy_phases(self):
        """The physics the ladders exist for: a serial-dominated phase runs
        its Amdahl portion on the boosted master core while the trailing
        cores coast, beating *both* uniform states on ED² under the
        CPU-dominated power profile."""
        from repro.machine import dvfs_power_parameters, quad_core_xeon
        from repro.machine.power import PowerModel

        table = default_pstate_table()
        topology = quad_core_xeon()
        machine = Machine(
            topology=topology,
            power_model=PowerModel(
                topology, dvfs_power_parameters(), pstate_table=table
            ),
            noise_sigma=0.0,
        )
        work = WorkRequest(
            instructions=2e8,
            serial_fraction=0.6,
            mem_fraction=0.30,
            l1_miss_rate=0.02,
            l2_miss_rate_solo=0.06,
            working_set_mb=1.0,
            prefetch_friendliness=0.4,
            bandwidth_sensitivity=0.8,
            barriers=2,
        )

        def ed2(name):
            return machine.execute(
                work, configuration_by_name(name, table), apply_noise=False
            ).ed2

        ladder = ed2("4@2.4/1.6/1.6/1.6GHz")
        assert ladder < ed2("4")
        assert ladder < ed2("4@1.6GHz")


class TestGridInterface:
    def test_shape_len_and_metric_lookup(self, machine, compute_work, bandwidth_work):
        grid = machine.execute_grid(
            [compute_work, bandwidth_work], [CONFIG_1, CONFIG_2B, CONFIG_4]
        )
        assert grid.shape == (2, 3)
        assert len(grid) == 6
        assert grid.names() == ["1", "2b", "4"]
        assert grid.metric("time_seconds").shape == (2, 3)
        assert grid.index_of("2b") == 1
        with pytest.raises(KeyError):
            grid.index_of("nonexistent")
        with pytest.raises(KeyError):
            grid.metric("not_a_metric")

    def test_derived_metric_arrays_are_consistent(
        self, machine, compute_work, bandwidth_work
    ):
        grid = machine.execute_grid(
            [compute_work, bandwidth_work], [CONFIG_2A, CONFIG_4]
        )
        assert np.allclose(grid.energy_joules, grid.power_watts * grid.time_seconds)
        assert np.allclose(grid.edp, grid.energy_joules * grid.time_seconds)
        assert np.allclose(grid.ed2, grid.energy_joules * grid.time_seconds ** 2)

    def test_best_per_row_matches_argmin(self, machine, compute_work, bandwidth_work):
        configs = standard_configurations(machine.topology)
        grid = machine.execute_grid([compute_work, bandwidth_work], configs)
        best = grid.best("time_seconds")
        assert len(best) == 2
        for wi, work in enumerate((compute_work, bandwidth_work)):
            times = {
                c.name: machine.execute(work, c, apply_noise=False).time_seconds
                for c in configs
            }
            assert best[wi].name == min(times, key=times.get)

    def test_row_adapter_returns_batch_view(self, machine, compute_work):
        configs = [CONFIG_1, CONFIG_4]
        grid = machine.execute_grid([compute_work], configs)
        row = grid.row(0)
        assert row.names() == ["1", "4"]
        np.testing.assert_array_equal(row.time_seconds, grid.time_seconds[0])
        assert row.result(1).ipc == grid.result(0, 1).ipc

    def test_result_for_and_result_cache(self, machine, compute_work):
        grid = machine.execute_grid([compute_work], [CONFIG_2B, CONFIG_4])
        assert grid.result_for(0, "4") is grid.result(0, 1)

    def test_accepts_raw_placements_and_default_configs(
        self, machine, compute_work, cross_product
    ):
        placement = ThreadPlacement((0, 2))
        grid = machine.execute_grid([compute_work], [placement], use_memo=False)
        reference = machine.execute(compute_work, placement, apply_noise=False)
        assert float(grid.time_seconds[0, 0]) == pytest.approx(
            reference.time_seconds, rel=_RTOL
        )
        default = machine.execute_grid([compute_work])
        assert default.names() == [c.name for c in cross_product]

    def test_empty_inputs_rejected(self, machine, compute_work):
        with pytest.raises(ValueError):
            machine.execute_grid([], [CONFIG_4])
        with pytest.raises(ValueError):
            machine.execute_grid([compute_work], [])

    def test_unknown_core_rejected(self, machine, compute_work):
        with pytest.raises(KeyError):
            machine.execute_grid([compute_work], [ThreadPlacement((0, 9))])


class TestGridMemo:
    def test_second_grid_is_all_hits(self, compute_work, bandwidth_work):
        machine = Machine(noise_sigma=0.0)
        works = [compute_work, bandwidth_work]
        configs = standard_configurations(machine.topology)
        first = machine.execute_grid(works, configs)
        assert (first.memo_hits, first.memo_misses) == (0, len(works) * len(configs))
        second = machine.execute_grid(works, configs)
        assert (second.memo_hits, second.memo_misses) == (
            len(works) * len(configs),
            0,
        )
        np.testing.assert_array_equal(first.time_seconds, second.time_seconds)

    def test_grid_reuses_cells_warmed_by_batches(
        self, compute_work, bandwidth_work, cross_product
    ):
        """A ragged warm set: only the cold cells are simulated."""
        machine = Machine(noise_sigma=0.0)
        warm = machine.execute_batch(compute_work, cross_product)
        assert warm.memo_misses == len(cross_product)
        grid = machine.execute_grid([compute_work, bandwidth_work], cross_product)
        assert grid.memo_hits == len(cross_product)
        assert grid.memo_misses == len(cross_product)
        np.testing.assert_array_equal(grid.time_seconds[0], warm.time_seconds)
        # The cold row (above the short-circuit cutoff) went through the
        # compacted kernel — only the works and configs with cold cells are
        # set up; values still match the scalar path.
        assert len(cross_product) >= DEFAULT_SMALL_BATCH_CUTOFF
        reference = Machine(noise_sigma=0.0)
        for ci, config in enumerate(cross_product):
            expected = reference.execute(bandwidth_work, config, apply_noise=False)
            assert float(grid.time_seconds[1, ci]) == pytest.approx(
                expected.time_seconds, rel=_RTOL
            )

    def test_row_views_carry_per_row_memo_accounting(
        self, compute_work, bandwidth_work
    ):
        machine = Machine(noise_sigma=0.0)
        configs = standard_configurations(machine.topology)
        machine.execute_batch(compute_work, configs)  # warm row 0 only
        grid = machine.execute_grid([compute_work, bandwidth_work], configs)
        warm_row, cold_row = grid.row(0), grid.row(1)
        assert (warm_row.memo_hits, warm_row.memo_misses) == (len(configs), 0)
        assert (cold_row.memo_hits, cold_row.memo_misses) == (0, len(configs))

    def test_duplicate_cold_cells_are_simulated_once(self, compute_work):
        machine = Machine(noise_sigma=0.0)
        clone = WorkRequest(**compute_work.feature_dict())
        assert clone.fingerprint() == compute_work.fingerprint()
        grid = machine.execute_grid(
            [compute_work, clone], [CONFIG_1, CONFIG_1, CONFIG_4]
        )
        # 6 requested cells collapse onto 2 distinct memo keys: misses count
        # the cells actually simulated, the shared copies count as hits.
        assert (grid.memo_hits, grid.memo_misses) == (4, 2)
        assert machine.batch_cells_computed == 2
        info = machine.execution_memo_info()
        assert (info.hits, info.misses) == (4, 2)
        np.testing.assert_array_equal(grid.time_seconds[0], grid.time_seconds[1])
        assert float(grid.time_seconds[0, 0]) == float(grid.time_seconds[0, 1])

    def test_grid_counters_track_calls_and_cells(self, compute_work):
        machine = Machine(noise_sigma=0.0)
        machine.execute_grid([compute_work], [CONFIG_1, CONFIG_4])
        machine.execute_grid([compute_work], [CONFIG_1, CONFIG_4])
        assert machine.grid_calls == 2
        assert machine.grid_cells == 4
        assert machine.batch_cells_computed == 2  # second call was all hits


class TestSmallBatchShortCircuit:
    def test_cold_sub_cutoff_sweep_takes_the_scalar_path(self, suite, machine):
        """Sweeps below the crossover short-circuit, with identical results."""
        fresh = Machine(noise_sigma=0.0)
        configs = standard_configurations(fresh.topology)
        assert len(configs) < DEFAULT_SMALL_BATCH_CUTOFF
        work = suite.get("SP").phases[0].work
        batch = fresh.execute_batch(work, configs)
        assert fresh.small_batch_shortcircuits == 1
        assert batch.memo_misses == len(configs)
        for ci, config in enumerate(configs):
            reference = machine.execute(work, config, apply_noise=False)
            assert float(batch.time_seconds[ci]) == pytest.approx(
                reference.time_seconds, rel=_RTOL
            )
            assert float(batch.power_watts[ci]) == pytest.approx(
                reference.power_watts, rel=_RTOL
            )
        # Repeat sweeps are pure memo hits, no further scalar detours.
        again = fresh.execute_batch(work, configs)
        assert again.memo_hits == len(configs)
        assert fresh.small_batch_shortcircuits == 1

    def test_paper_cross_product_stays_on_the_kernel(self, suite, cross_product):
        """At 15 cells the kernel already beats the scalar loop (measured
        crossover ~6 cells), so the cross-product must not short-circuit."""
        fresh = Machine(noise_sigma=0.0)
        work = suite.get("SP").phases[0].work
        assert len(cross_product) >= DEFAULT_SMALL_BATCH_CUTOFF
        fresh.execute_batch(work, cross_product)
        assert fresh.small_batch_shortcircuits == 0

    def test_grids_above_the_cutoff_use_the_kernel(self, suite, cross_product):
        fresh = Machine(noise_sigma=0.0)
        works = [p.work for w in suite for p in w.phases][:4]
        assert len(works) * len(cross_product) >= DEFAULT_SMALL_BATCH_CUTOFF
        fresh.execute_grid(works, cross_product)
        assert fresh.small_batch_shortcircuits == 0

    def test_memo_bypass_always_uses_the_kernel(self, suite):
        fresh = Machine(noise_sigma=0.0)
        configs = standard_configurations(fresh.topology)
        assert len(configs) < DEFAULT_SMALL_BATCH_CUTOFF  # would short-circuit
        work = suite.get("SP").phases[0].work
        fresh.execute_batch(work, configs, use_memo=False)
        assert fresh.small_batch_shortcircuits == 0

    def test_single_cell_batches_avoid_the_kernel(self, suite):
        """The dominant small-batch shape — one sample cell per phase —
        takes the scalar path for every phase of a benchmark.  (The latency
        claim itself is asserted in benchmarks/bench_machine_grid.py, where
        wall-clock measurement belongs.)"""
        fresh = Machine(noise_sigma=0.0)
        for phase in suite.get("CG").phases:
            fresh.execute_batch(phase.work, [CONFIG_4])
        assert fresh.small_batch_shortcircuits == len(suite.get("CG").phases)
        assert fresh.batch_cells_computed == len(suite.get("CG").phases)
