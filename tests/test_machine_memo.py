"""Tests for the deterministic execution memo and scalar-path memoization.

The memo caches noise-free execution cells keyed by
``(work fingerprint, placement cores, P-state)`` so oracle construction and
training collection never simulate the same cell twice.  These tests pin its
accounting, its LRU bound, its noise-gating, and its isolation between
machines built with different model parameters — plus the satellite
memoizations of the scalar path (``configuration_by_name`` and placement
validation), the snapshot protocol
(:meth:`~repro.machine.Machine.export_execution_memo` /
:meth:`~repro.machine.Machine.merge_execution_memo`: schema-guarded
export/merge, noisy executions never exported) and the journal of newly
simulated cells that :meth:`~repro.machine.Machine.drain_new_cells` hands
to the memo store.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.core import build_oracle_table, collect_training_dataset, measure_oracle
from repro.machine import (
    CONFIG_4,
    CPUModel,
    Machine,
    PowerModel,
    PowerParameters,
    WorkRequest,
    configuration_by_name,
    quad_core_xeon,
    standard_configurations,
)
from repro.workloads import nas_suite


@pytest.fixture()
def fresh_machine():
    """A private machine so memo accounting is not shared across tests."""
    return Machine(noise_sigma=0.0)


@pytest.fixture(scope="module")
def phase_work():
    return WorkRequest(instructions=2.5e8, working_set_mb=6.0)


class TestMemoAccounting:
    def test_second_batch_is_all_hits(self, fresh_machine, phase_work):
        configs = standard_configurations(fresh_machine.topology)
        first = fresh_machine.execute_grid([phase_work], configs)
        assert (first.memo_hits, first.memo_misses) == (0, len(configs))
        second = fresh_machine.execute_grid([phase_work], configs)
        assert (second.memo_hits, second.memo_misses) == (len(configs), 0)
        info = fresh_machine.execution_memo_info()
        assert info.hits == len(configs)
        assert info.misses == len(configs)
        assert info.size == len(configs)

    def test_memoized_cells_are_bit_identical(self, fresh_machine, phase_work):
        configs = standard_configurations(fresh_machine.topology)
        first = fresh_machine.execute_grid([phase_work], configs)
        second = fresh_machine.execute_grid([phase_work], configs)
        assert list(first.time_seconds[0]) == list(second.time_seconds[0])
        assert first.result(0, 0).event_counts == second.result(0, 0).event_counts

    def test_equal_value_works_share_cells(self, fresh_machine, phase_work):
        """Two WorkRequests with equal fields hit the same memo entries."""
        clone = WorkRequest(instructions=2.5e8, working_set_mb=6.0)
        assert clone is not phase_work
        assert clone.fingerprint() == phase_work.fingerprint()
        fresh_machine.execute_grid([phase_work], [CONFIG_4])
        sweep = fresh_machine.execute_grid([clone], [CONFIG_4])
        assert sweep.memo_hits == 1

    def test_nominal_pstate_and_plain_placement_share_cells(
        self, fresh_machine, phase_work
    ):
        """pstate=None and an explicitly pinned nominal state are one cell."""
        plain = CONFIG_4  # no pinned P-state: runs at the nominal clock
        pinned = CONFIG_4.with_pstate(
            fresh_machine.pstate_table.nominal, nominal=True
        )
        assert pinned.pstate is not None
        fresh_machine.execute_grid([phase_work], [plain])
        sweep = fresh_machine.execute_grid([phase_work], [pinned])
        assert sweep.memo_hits == 1
        # The materialized result still reflects the *requested* view.
        assert sweep.result(0, 0).pstate == fresh_machine.pstate_table.nominal

    def test_use_memo_false_bypasses_entirely(self, fresh_machine, phase_work):
        fresh_machine.execute_grid([phase_work], [CONFIG_4], use_memo=False)
        assert fresh_machine.execution_memo_info().size == 0
        fresh_machine.execute_grid([phase_work], [CONFIG_4])
        again = fresh_machine.execute_grid([phase_work], [CONFIG_4], use_memo=False)
        assert (again.memo_hits, again.memo_misses) == (0, 1)

    def test_clear_resets_cells_and_counters(self, fresh_machine, phase_work):
        fresh_machine.execute_grid([phase_work], [CONFIG_4])
        fresh_machine.execute_grid([phase_work], [CONFIG_4])
        fresh_machine.clear_execution_memo()
        info = fresh_machine.execution_memo_info()
        assert (info.hits, info.misses, info.size) == (0, 0, 0)
        sweep = fresh_machine.execute_grid([phase_work], [CONFIG_4])
        assert sweep.memo_misses == 1


class TestMemoGating:
    def test_noisy_executions_are_never_cached(self, phase_work):
        machine = Machine(noise_sigma=0.01, seed=5)
        machine.execute_grid([phase_work], [CONFIG_4], apply_noise=True)
        assert machine.execution_memo_info().size == 0
        # Two noisy sweeps must see different jitter, not a cached cell.
        a = machine.execute_grid([phase_work], [CONFIG_4], apply_noise=True)
        b = machine.execute_grid([phase_work], [CONFIG_4], apply_noise=True)
        assert float(a.time_seconds[0, 0]) != float(b.time_seconds[0, 0])

    def test_memo_size_zero_disables(self, phase_work):
        machine = Machine(noise_sigma=0.0, memo_size=0)
        machine.execute_grid([phase_work], [CONFIG_4])
        sweep = machine.execute_grid([phase_work], [CONFIG_4])
        assert sweep.memo_hits == 0
        assert machine.execution_memo_info().size == 0

    def test_memo_is_lru_bounded(self, phase_work):
        machine = Machine(noise_sigma=0.0, memo_size=3)
        configs = standard_configurations(machine.topology)
        machine.execute_grid([phase_work], configs)  # 5 cells through a 3-slot memo
        info = machine.execution_memo_info()
        assert info.size == 3
        assert info.maxsize == 3
        # The oldest cells were evicted: re-running misses on the first two.
        again = machine.execute_grid([phase_work], configs)
        assert again.memo_hits < len(configs)

    def test_negative_memo_size_rejected(self):
        with pytest.raises(ValueError):
            Machine(memo_size=-1)


class TestMemoIsolation:
    """Machines built with different model parameters never share cells."""

    def test_different_power_model_changes_results(self, phase_work):
        base = Machine(noise_sigma=0.0)
        topology = quad_core_xeon()
        heavy = Machine(
            topology=topology,
            power_model=PowerModel(
                topology, PowerParameters(core_dynamic_watts=40.0)
            ),
            noise_sigma=0.0,
        )
        a = base.execute_grid([phase_work], [CONFIG_4])
        b = heavy.execute_grid([phase_work], [CONFIG_4])
        assert float(a.power_watts[0, 0]) != float(b.power_watts[0, 0])
        # Both simulated their own cell — no cross-machine cache leak.
        assert a.memo_misses == 1 and b.memo_misses == 1

    def test_different_cpu_model_changes_results(self, phase_work):
        base = Machine(noise_sigma=0.0)
        slow = Machine(
            cpu_model=CPUModel(branch_misprediction_rate=0.08), noise_sigma=0.0
        )
        a = base.execute_grid([phase_work], [CONFIG_4])
        b = slow.execute_grid([phase_work], [CONFIG_4])
        assert float(a.time_seconds[0, 0]) < float(b.time_seconds[0, 0])
        assert b.memo_misses == 1

    def test_different_noise_parameters_have_private_memos(self, phase_work):
        a = Machine(noise_sigma=0.0)
        b = Machine(noise_sigma=0.02, seed=11)
        a.execute_grid([phase_work], [CONFIG_4])
        sweep = b.execute_grid([phase_work], [CONFIG_4])  # noise-free call
        assert sweep.memo_misses == 1  # not served by machine a's memo


class TestMemoSnapshot:
    def test_export_merge_roundtrip_serves_hits(self, fresh_machine, phase_work):
        configs = standard_configurations(fresh_machine.topology)
        fresh_machine.execute_grid([phase_work], configs)
        snapshot = fresh_machine.export_execution_memo()
        assert len(snapshot) == len(configs)
        other = Machine(noise_sigma=0.0)
        assert other.merge_execution_memo(snapshot) == len(configs)
        sweep = other.execute_grid([phase_work], configs)
        assert (sweep.memo_hits, sweep.memo_misses) == (len(configs), 0)

    def test_snapshot_survives_pickling(self, fresh_machine, phase_work):
        fresh_machine.execute_grid([phase_work], [CONFIG_4])
        snapshot = pickle.loads(pickle.dumps(fresh_machine.export_execution_memo()))
        other = Machine(noise_sigma=0.0)
        assert other.merge_execution_memo(snapshot) == 1
        assert other.execute_grid([phase_work], [CONFIG_4]).memo_hits == 1

    def test_schema_mismatch_rejects_stale_snapshots(self, fresh_machine, phase_work):
        fresh_machine.execute_grid([phase_work], [CONFIG_4])
        snapshot = fresh_machine.export_execution_memo()
        stale = replace(snapshot, schema=("memo-v0",) + snapshot.schema[1:])
        with pytest.raises(ValueError, match="stale execution-memo snapshot"):
            Machine(noise_sigma=0.0).merge_execution_memo(stale)

    def test_noisy_executions_are_never_exported(self, phase_work):
        machine = Machine(noise_sigma=0.01, seed=5)
        machine.execute_grid([phase_work], [CONFIG_4], apply_noise=True)
        machine.execute(phase_work, CONFIG_4, apply_noise=True)
        assert len(machine.export_execution_memo()) == 0

    def test_merge_keeps_existing_cells_and_respects_lru_bound(self, phase_work):
        donor = Machine(noise_sigma=0.0)
        configs = standard_configurations(donor.topology)
        donor.execute_grid([phase_work], configs)
        snapshot = donor.export_execution_memo()
        small = Machine(noise_sigma=0.0, memo_size=3)
        assert small.merge_execution_memo(snapshot) <= len(configs)
        assert small.execution_memo_info().size == 3
        # Re-merging adds nothing new for cells already present.
        already = Machine(noise_sigma=0.0)
        already.execute_grid([phase_work], configs)
        assert already.merge_execution_memo(snapshot) == 0

    def test_memo_disabled_machine_merges_no_cells(self, fresh_machine, phase_work):
        fresh_machine.execute_grid([phase_work], [CONFIG_4])
        snapshot = fresh_machine.export_execution_memo()
        disabled = Machine(noise_sigma=0.0, memo_size=0)
        assert disabled.merge_execution_memo(snapshot) == 0
        assert disabled.execution_memo_info().size == 0

class TestPerCoreMemoKeys:
    """The memo key space under heterogeneous per-core P-states."""

    def test_heterogeneous_cells_are_memoized_and_replayed(self, phase_work):
        machine = Machine(noise_sigma=0.0)
        ladder = configuration_by_name(
            "4@2.4/2.4/1.6/1.6GHz", machine.pstate_table
        )
        first = machine.execute_grid([phase_work], [ladder])
        assert first.memo_misses == 1
        second = machine.execute_grid([phase_work], [ladder])
        assert second.memo_hits == 1
        assert float(first.time_seconds[0, 0]) == float(second.time_seconds[0, 0])
        materialized = second.result(0, 0)
        assert materialized.pstates == ladder.pstate_vector
        assert materialized.pstate is None

    def test_heterogeneous_keys_never_alias_homogeneous_cells(self, phase_work):
        """A ladder and its member frequencies are three distinct cells."""
        machine = Machine(noise_sigma=0.0)
        table = machine.pstate_table
        names = ["4", "4@1.6GHz", "4@2.4/2.4/1.6/1.6GHz"]
        configs = [configuration_by_name(name, table) for name in names]
        sweep = machine.execute_grid([phase_work], configs)
        assert sweep.memo_misses == len(configs)
        assert machine.execution_memo_info().size == len(configs)
        times = {name: float(t) for name, t in zip(names, sweep.time_seconds[0])}
        assert len(set(times.values())) == len(times)

    def test_all_equal_vector_shares_the_homogeneous_cell(self, phase_work):
        """The degenerate vector canonicalizes onto the scalar key."""
        machine = Machine(noise_sigma=0.0)
        table = machine.pstate_table
        machine.execute_grid([phase_work], [configuration_by_name("4@1.6GHz", table)])
        degenerate = configuration_by_name("4@1.6/1.6/1.6/1.6GHz", table)
        assert not degenerate.is_heterogeneous
        sweep = machine.execute_grid([phase_work], [degenerate])
        assert sweep.memo_hits == 1

    def test_shares_memo_cell_understands_vectors(self, fresh_machine):
        table = fresh_machine.pstate_table
        ladder = configuration_by_name("4@2.4/2.4/1.6/1.6GHz", table)
        other_split = configuration_by_name("4@2.4/1.6/1.6/1.6GHz", table)
        assert fresh_machine.shares_memo_cell(ladder, ladder)
        assert not fresh_machine.shares_memo_cell(ladder, other_split)
        assert not fresh_machine.shares_memo_cell(
            ladder, configuration_by_name("4", table)
        )

    def test_snapshots_carry_heterogeneous_cells(self, phase_work):
        machine = Machine(noise_sigma=0.0)
        ladder = configuration_by_name(
            "2b@2.4/1.6GHz", machine.pstate_table
        )
        machine.execute_grid([phase_work], [ladder])
        snapshot = pickle.loads(pickle.dumps(machine.export_execution_memo()))
        other = Machine(noise_sigma=0.0)
        assert other.merge_execution_memo(snapshot) == 1
        assert other.execute_grid([phase_work], [ladder]).memo_hits == 1


class TestNewCellJournal:
    """The journal of newly simulated cells behind ``drain_new_cells``.

    The memo store publishes exactly what a drain returns, so the journal
    must hold every cell the machine simulated itself — once, in
    simulation order — and nothing it merely merged or served.
    """

    def test_seeding_merging_and_hits_do_not_journal(self, phase_work):
        donor = Machine(noise_sigma=0.0)
        configs = standard_configurations(donor.topology)
        donor.execute_grid([phase_work], configs)
        seeded = Machine(noise_sigma=0.0)
        assert seeded.merge_execution_memo(donor.export_execution_memo()) == len(
            configs
        )
        assert len(seeded.drain_new_cells()) == 0
        sweep = seeded.execute_grid([phase_work], configs)  # all hits
        assert sweep.memo_hits == len(configs)
        assert len(seeded.drain_new_cells()) == 0
        fresh = configuration_by_name("4@1.6GHz", seeded.pstate_table)
        seeded.execute_grid([phase_work], [fresh])
        (cell,) = seeded.drain_new_cells().cells
        assert cell == seeded.export_execution_memo().cells[-1]

    def test_duplicate_keys_within_one_call_journal_once(
        self, fresh_machine, phase_work
    ):
        clone = WorkRequest(instructions=2.5e8, working_set_mb=6.0)
        grid = fresh_machine.execute_grid([phase_work, clone], [CONFIG_4, CONFIG_4])
        assert (grid.memo_hits, grid.memo_misses) == (3, 1)
        assert len(fresh_machine.drain_new_cells()) == 1

    def test_noisy_bypassed_and_disabled_calls_journal_nothing(self, phase_work):
        configs = standard_configurations(Machine(noise_sigma=0.0).topology)
        noisy = Machine(noise_sigma=0.01, seed=5)
        noisy.execute_grid([phase_work], configs, apply_noise=True)
        noisy.execute(phase_work, CONFIG_4, apply_noise=True)
        assert len(noisy.drain_new_cells()) == 0
        bypassed = Machine(noise_sigma=0.0)
        bypassed.execute_grid([phase_work], configs, use_memo=False)
        assert len(bypassed.drain_new_cells()) == 0
        disabled = Machine(noise_sigma=0.0, memo_size=0)
        disabled.execute_grid([phase_work], configs)
        assert len(disabled.drain_new_cells()) == 0

    def test_journal_keeps_the_newest_memo_size_cells(self, phase_work):
        configs = standard_configurations(Machine(noise_sigma=0.0).topology)
        roomy = Machine(noise_sigma=0.0)
        roomy.execute_grid([phase_work], configs)
        small = Machine(noise_sigma=0.0, memo_size=3)
        small.execute_grid([phase_work], configs)  # 5 new cells, 3 slots
        drained = small.drain_new_cells()
        assert drained.cells == roomy.drain_new_cells().cells[-3:]

    def test_clear_empties_the_journal_and_a_drain_empties_it(
        self, fresh_machine, phase_work
    ):
        fresh_machine.execute_grid([phase_work], [CONFIG_4])
        fresh_machine.clear_execution_memo()
        assert len(fresh_machine.drain_new_cells()) == 0
        fresh_machine.execute_grid([phase_work], [CONFIG_4])
        assert len(fresh_machine.drain_new_cells()) == 1
        assert len(fresh_machine.drain_new_cells()) == 0


class TestWorkFingerprint:
    def test_fingerprint_tracks_field_values(self):
        a = WorkRequest(instructions=1e8)
        b = WorkRequest(instructions=1e8)
        c = WorkRequest(instructions=1e8, mem_fraction=0.4)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_work_requests_are_hashable_dict_keys(self):
        a = WorkRequest(instructions=1e8)
        b = WorkRequest(instructions=1e8)
        assert {a: 1}[b] == 1


class TestScalarPathMemoization:
    def test_configuration_by_name_returns_cached_instances(self):
        assert configuration_by_name("2b@1.6GHz") is configuration_by_name(
            "2b@1.6GHz"
        )
        assert configuration_by_name("4") is configuration_by_name("4")

    def test_unknown_names_still_raise(self):
        with pytest.raises(KeyError):
            configuration_by_name("9z")

    def test_placement_validation_is_cached(self, fresh_machine, phase_work):
        fresh_machine.execute(phase_work, CONFIG_4, apply_noise=False)
        assert CONFIG_4.placement.cores in fresh_machine._validated_placements


class TestHotConsumersUseTheBatchPath:
    """Oracle building and training collection run through execute_grid."""

    def test_oracle_table_goes_through_one_grid_call(self, phase_work):
        machine = Machine(noise_sigma=0.0)
        suite = nas_suite(machine=Machine(noise_sigma=0.0), names=["CG"])
        workload = suite.get("CG")
        assert machine.grid_calls == 0
        table = build_oracle_table(machine, workload)
        assert machine.grid_calls == 1
        assert machine.grid_cells == len(workload.phases) * len(
            table.configurations
        )
        assert machine.batch_cells_computed > 0
        # A rebuild is served entirely from the memo.
        computed_before = machine.batch_cells_computed
        rebuilt = measure_oracle(machine, workload)
        assert machine.batch_cells_computed == computed_before
        for phase in workload.phases:
            for config in table.configuration_names():
                assert rebuilt.measurement(phase.name, config) == table.measurement(
                    phase.name, config
                )

    def test_training_collection_reuses_oracle_cells(self):
        machine = Machine(noise_sigma=0.0)
        suite = nas_suite(machine=Machine(noise_sigma=0.0), names=["CG"])
        workload = suite.get("CG")
        build_oracle_table(machine, workload)
        hits_before = machine.execution_memo_info().hits
        collect_training_dataset(
            machine, [workload], samples_per_phase=2, seed=3
        )
        # Ground-truth target cells were already measured by the oracle.
        assert machine.execution_memo_info().hits > hits_before

    def test_measure_oracle_is_build_oracle_table(self):
        assert measure_oracle is build_oracle_table
