"""Tests for the fleet layer: nodes, membership, the scheduler, memo sharing.

The cluster package's core guarantee is bit-reproducibility: the same
fleet + jobs + cap must yield an identical schedule across repeated calls
and across process restarts through the shared
:class:`~repro.store.MemoStore`.  These tests pin that guarantee along
with the membership semantics and the scheduler's structural invariants;
the randomized counterparts live in ``test_cluster_properties.py``.
"""

from __future__ import annotations

import pytest

from repro.cluster import (
    Fleet,
    FleetJob,
    FleetScheduler,
    Node,
    PowerCapInfeasibleError,
    jobs_from_workload,
)
from repro.machine import Machine, dual_socket_xeon
from repro.workloads import nas_suite


@pytest.fixture(scope="module")
def fleet_suite(machine):
    return nas_suite(machine=machine, names=["CG", "IS"], variability=0.0)


@pytest.fixture(scope="module")
def fleet_jobs(fleet_suite):
    return [job for w in fleet_suite for job in jobs_from_workload(w)]


def _make_fleet():
    return Fleet(
        [
            Node("alpha", Machine(noise_sigma=0.0)),
            Node("bravo", Machine(noise_sigma=0.0), straggler_factor=1.4),
            Node("charlie", Machine(topology=dual_socket_xeon(), noise_sigma=0.0)),
        ]
    )


class TestFleetMembership:
    def test_add_lookup_and_sorted_iteration(self):
        fleet = Fleet()
        for name in ("zulu", "alpha", "mike"):
            fleet.add(Node(name, Machine(noise_sigma=0.0)))
        assert fleet.names() == ["alpha", "mike", "zulu"]
        assert [node.name for node in fleet] == ["alpha", "mike", "zulu"]
        assert fleet.node("mike").name == "mike"
        assert "zulu" in fleet and "nope" not in fleet

    def test_duplicate_name_is_an_error(self):
        fleet = Fleet([Node("alpha", Machine(noise_sigma=0.0))])
        with pytest.raises(ValueError, match="already registered"):
            fleet.add(Node("alpha", Machine(noise_sigma=0.0)))

    def test_unknown_lookup_and_remove_raise(self):
        fleet = Fleet([Node("alpha", Machine(noise_sigma=0.0))])
        with pytest.raises(KeyError, match=r"no node 'ghost'.*known: \['alpha'\]"):
            fleet.node("ghost")
        with pytest.raises(KeyError, match="no node 'ghost'"):
            fleet.remove("ghost")

    def test_remove_returns_the_node(self):
        fleet = Fleet()
        node = fleet.add(Node("alpha", Machine(noise_sigma=0.0)))
        assert fleet.remove("alpha") is node
        assert len(fleet) == 0


class TestNode:
    def test_name_and_straggler_validation(self):
        with pytest.raises(ValueError, match="non-empty string name"):
            Node("", Machine(noise_sigma=0.0))
        with pytest.raises(ValueError, match="straggler_factor"):
            Node("slow", Machine(noise_sigma=0.0), straggler_factor=0.5)

    def test_kind_distinguishes_machine_parameterizations(self):
        quad = Node("a", Machine(noise_sigma=0.0))
        quad_twin = Node("b", Machine(noise_sigma=0.0))
        dual = Node("c", Machine(topology=dual_socket_xeon(), noise_sigma=0.0))
        assert quad.kind == quad_twin.kind
        assert quad.kind != dual.kind

    def test_sweep_requires_a_noise_free_machine(self, fleet_jobs):
        noisy = Node("noisy", Machine())
        with pytest.raises(ValueError, match="noise-free"):
            noisy.sweep([job.work for job in fleet_jobs[:1]])

    def test_straggler_inflates_time_not_power(self, fleet_jobs):
        works = [job.work for job in fleet_jobs[:2]]
        healthy = Node("h", Machine(noise_sigma=0.0)).sweep(works)
        slow = Node("s", Machine(noise_sigma=0.0), straggler_factor=1.5).sweep(works)
        assert slow.time_seconds == pytest.approx(1.5 * healthy.time_seconds)
        assert slow.power_watts == pytest.approx(healthy.power_watts)


class TestFleet:
    def test_membership_and_aggregates(self):
        fleet = _make_fleet()
        assert fleet.names() == ["alpha", "bravo", "charlie"]
        assert len(fleet.kinds()) == 2
        assert fleet.idle_power_watts() == pytest.approx(
            sum(node.idle_power_watts() for node in fleet)
        )
        removed = fleet.remove("bravo")
        assert removed.name == "bravo"
        assert "bravo" not in fleet
        fleet.add(removed)
        assert fleet.names() == ["alpha", "bravo", "charlie"]

    def test_attach_store_groups_by_machine_kind(self, tmp_path):
        fleet = _make_fleet()
        fleet.attach_store(tmp_path / "memo")
        # Two quad-core nodes share one store; the dual-socket box gets
        # its own (memo keys do not encode machine parameters).
        assert fleet.node("alpha").memo_store is fleet.node("bravo").memo_store
        assert fleet.node("alpha").memo_store is not fleet.node("charlie").memo_store
        # A late joiner of a known kind inherits the existing store.
        late = fleet.add(Node("delta", Machine(noise_sigma=0.0)))
        assert late.memo_store is fleet.node("alpha").memo_store


class TestFleetScheduler:
    def test_schedule_covers_every_job_exactly_once(self, fleet_jobs):
        schedule = FleetScheduler(_make_fleet()).schedule(fleet_jobs)
        assert len(schedule.decisions) == len(fleet_jobs)
        assert [d.job.name for d in schedule.decisions] == [
            j.name for j in fleet_jobs
        ]
        placed = [
            name
            for alloc in schedule.allocations.values()
            for name in alloc.job_names
        ]
        assert sorted(placed) == sorted(j.name for j in fleet_jobs)

    def test_repeat_call_is_bit_identical(self, fleet_jobs):
        scheduler = FleetScheduler(_make_fleet())
        first = scheduler.schedule(fleet_jobs, 420.0)
        second = scheduler.schedule(fleet_jobs, 420.0)
        assert first.to_dict() == second.to_dict()

    def test_fresh_fleet_is_bit_identical(self, fleet_jobs):
        """Two independently built fleets agree exactly (no hidden state)."""
        first = FleetScheduler(_make_fleet()).schedule(fleet_jobs, 420.0)
        second = FleetScheduler(_make_fleet()).schedule(fleet_jobs, 420.0)
        assert first.to_dict() == second.to_dict()

    def test_restart_through_shared_store_is_bit_identical(
        self, tmp_path, fleet_jobs
    ):
        """A rebuilt fleet seeded from the store re-decides identically,
        and answers from disk instead of re-simulating."""
        first_fleet = _make_fleet()
        first_fleet.attach_store(tmp_path / "memo")
        first = FleetScheduler(first_fleet).schedule(fleet_jobs, 420.0)

        second_fleet = _make_fleet()
        second_fleet.attach_store(tmp_path / "memo")
        second = FleetScheduler(second_fleet).schedule(fleet_jobs, 420.0)
        assert first.to_dict() == second.to_dict()
        for node in second_fleet:
            info = node.machine.execution_memo_info()
            assert info.misses == 0, (
                f"{node.name} re-simulated {info.misses} cells the store "
                f"should have served"
            )

    def test_infeasible_cap_raises_typed_error(self, fleet_jobs):
        scheduler = FleetScheduler(_make_fleet())
        floor = scheduler.schedule(fleet_jobs).min_feasible_watts
        with pytest.raises(PowerCapInfeasibleError) as excinfo:
            scheduler.schedule(fleet_jobs, floor - 1.0)
        assert excinfo.value.required_watts == pytest.approx(floor)
        assert excinfo.value.cap_watts == pytest.approx(floor - 1.0)

    def test_one_node_fleet_matches_single_machine_selection(self, fleet_jobs):
        """The degenerate fleet reproduces plain grid selection, bitwise."""
        schedule = FleetScheduler(
            Fleet([Node("solo", Machine(noise_sigma=0.0))])
        ).schedule(fleet_jobs)
        reference = Machine(noise_sigma=0.0)
        grid = reference.execute_grid(
            [j.work for j in fleet_jobs], reference.default_configurations()
        )
        best = grid.best("time_seconds")
        times = grid.metric("time_seconds")
        for row, (decision, config) in enumerate(zip(schedule.decisions, best)):
            assert decision.configuration == config.name
            assert decision.time_seconds == times[row, grid.index_of(config.name)]

    def test_empty_fleet_and_bad_jobs_are_rejected(self, fleet_jobs):
        with pytest.raises(ValueError, match="empty fleet"):
            FleetScheduler(Fleet()).schedule(fleet_jobs)
        with pytest.raises(ValueError, match="weight must be positive"):
            FleetJob(name="bad", work=fleet_jobs[0].work, weight=0.0)

    def test_empty_job_stream_idles_the_fleet(self):
        fleet = _make_fleet()
        schedule = FleetScheduler(fleet).schedule([])
        assert schedule.throughput == 0.0
        assert schedule.total_power_watts == pytest.approx(
            fleet.idle_power_watts()
        )
        assert all(alloc.idle for alloc in schedule.allocations.values())

    def test_jobs_from_workload_weights_follow_invocations(self, fleet_suite):
        workload = fleet_suite.get("CG")
        jobs = jobs_from_workload(workload)
        assert len(jobs) == len(workload.phases)
        for job, phase in zip(jobs, workload.phases):
            assert job.name == f"{workload.name}/{phase.name}"
            assert job.weight == pytest.approx(
                phase.invocations_per_timestep * workload.timesteps
            )
