"""Fault-injection tests for fleet scenarios and the fleet service tier.

Three failure modes the cluster layer must absorb without losing work:

* a node dies mid-round — its jobs are carried and reassigned, and every
  job still completes exactly once (including a failure in the *final*
  round, which forces a flush round);
* a straggler degrades the fleet's p99 latency but not correctness: the
  same jobs complete, deterministically;
* the service stops while a fleet schedule is in flight — the TCP client
  gets a structured ``shutting_down`` answer, not a dropped socket.

A fleet cap below the fleet's floor is a typed failure on the wire too:
``power_cap_infeasible`` with the cap and the minimum feasible draw, which
the TCP client raises as :class:`PowerCapInfeasibleError` without retrying.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading

import pytest

from repro.cluster import (
    CapStep,
    Fleet,
    FleetJob,
    FleetScheduler,
    Node,
    NodeFailure,
    NodeJoin,
    PowerCapInfeasibleError,
    ScenarioRound,
    StragglerOnset,
    jobs_from_workload,
    run_scenario,
)
from repro.machine import Machine, WorkRequest
from repro.service import (
    AdaptationServer,
    FleetHandler,
    GridProbeRequest,
    TCPAdaptationClient,
)
from repro.workloads import nas_suite


@pytest.fixture(scope="module")
def scenario_jobs(machine):
    suite = nas_suite(machine=machine, names=["CG", "IS"], variability=0.0)
    return [job for w in suite for job in jobs_from_workload(w)]


def _two_node_fleet():
    return Fleet(
        [
            Node("east", Machine(noise_sigma=0.0)),
            Node("west", Machine(noise_sigma=0.0)),
        ]
    )


def _waves(jobs, count):
    """Split jobs into ``count`` arrival waves (round-robin, order kept)."""
    waves = [[] for _ in range(count)]
    for i, job in enumerate(jobs):
        waves[i % count].append(job)
    return [tuple(w) for w in waves]


class TestNodeFailure:
    def test_mid_run_failure_reassigns_jobs_and_loses_none(self, scenario_jobs):
        wave_a, wave_b = _waves(scenario_jobs, 2)
        report = run_scenario(
            _two_node_fleet(),
            [
                ScenarioRound(jobs=wave_a, events=(NodeFailure("west"),)),
                ScenarioRound(jobs=wave_b),
            ],
        )
        # The failed node's jobs were carried out of round 0...
        first = report.rounds[0]
        assert first.failed_nodes == ("west",)
        assert first.carried_jobs  # west had work when it died
        assert first.active_nodes == ("east",)
        # ...and re-placed on the survivor in a later round.
        assert set(first.carried_jobs) <= set(
            name
            for record in report.rounds[1:]
            for name in record.completed_jobs
        )
        # Every job completes exactly once, none double-counted or lost.
        assert report.completions() == {j.name: 1 for j in scenario_jobs}

    def test_failure_in_final_round_forces_a_flush_round(self, scenario_jobs):
        wave = tuple(scenario_jobs[:4])
        report = run_scenario(
            _two_node_fleet(),
            [ScenarioRound(jobs=wave, events=(NodeFailure("east"),))],
        )
        # The carried jobs got an extra, event-free round on the survivor.
        assert len(report.rounds) == 2
        assert report.rounds[1].active_nodes == ("west",)
        assert report.completions() == {j.name: 1 for j in wave}

    def test_pending_jobs_with_no_fleet_left_is_an_error(self, scenario_jobs):
        fleet = Fleet([Node("only", Machine(noise_sigma=0.0))])
        with pytest.raises(ValueError, match="pending jobs but the fleet is empty"):
            run_scenario(
                fleet,
                [
                    ScenarioRound(
                        jobs=tuple(scenario_jobs[:2]),
                        events=(NodeFailure("only"),),
                    )
                ],
            )

    def test_join_replaces_failed_capacity(self, scenario_jobs):
        wave_a, wave_b = _waves(scenario_jobs, 2)
        report = run_scenario(
            _two_node_fleet(),
            [
                ScenarioRound(jobs=wave_a, events=(NodeFailure("west"),)),
                ScenarioRound(
                    jobs=wave_b,
                    events=(NodeJoin(Node("north", Machine(noise_sigma=0.0))),),
                ),
            ],
        )
        assert report.rounds[1].active_nodes == ("east", "north")
        assert report.completions() == {j.name: 1 for j in scenario_jobs}


class TestStraggler:
    def test_straggler_degrades_p99_but_not_correctness(self, scenario_jobs):
        wave_a, wave_b = _waves(scenario_jobs, 2)
        rounds = [ScenarioRound(jobs=wave_a), ScenarioRound(jobs=wave_b)]
        healthy = run_scenario(_two_node_fleet(), list(rounds))
        degraded_rounds = [
            ScenarioRound(
                jobs=wave_a, events=(StragglerOnset("west", 1.6),)
            ),
            ScenarioRound(jobs=wave_b),
        ]
        degraded = run_scenario(_two_node_fleet(), degraded_rounds)
        # Latency tail suffers...
        assert degraded.p99_time_seconds() > healthy.p99_time_seconds()
        # ...but the same jobs complete, exactly once each.
        assert degraded.completions() == healthy.completions()
        # And the degraded run is still deterministic.
        rerun = run_scenario(_two_node_fleet(), list(degraded_rounds))
        assert rerun.p99_time_seconds() == degraded.p99_time_seconds()
        assert [r.total_power_watts for r in rerun.rounds] == [
            r.total_power_watts for r in degraded.rounds
        ]


class TestCapSteps:
    def test_cap_is_respected_every_round_through_steps(self, scenario_jobs):
        wave_a, wave_b = _waves(scenario_jobs, 2)
        fleet = _two_node_fleet()
        # Size the stepped-down cap off an unconstrained rehearsal.
        rehearsal = run_scenario(_two_node_fleet(), [ScenarioRound(jobs=wave_a)])
        peak = rehearsal.max_total_power_watts()
        floor = rehearsal.rounds[0].schedule.min_feasible_watts
        mid_cap = floor + 0.5 * (peak - floor)
        report = run_scenario(
            fleet,
            [
                ScenarioRound(jobs=wave_a),
                ScenarioRound(jobs=wave_b, events=(CapStep(mid_cap),)),
                ScenarioRound(events=(CapStep(None),)),
            ],
        )
        for record in report.rounds:
            if record.power_cap_watts is not None:
                assert record.total_power_watts <= record.power_cap_watts
        assert report.rounds[1].power_cap_watts == pytest.approx(mid_cap)
        assert report.completions() == {j.name: 1 for j in scenario_jobs}


class _BlockingFleetHandler(FleetHandler):
    """Fleet handler that parks in the worker thread until released."""

    def __init__(self, fleet):
        super().__init__(fleet)
        self.release = threading.Event()

    def handle_batch(self, requests):
        assert self.release.wait(timeout=10.0), "test never released the handler"
        return super().handle_batch(requests)


class TestFleetServiceShutdown:
    def test_stop_during_inflight_fleet_schedule_answers_shutting_down(self):
        work = WorkRequest(
            instructions=2e8,
            mem_fraction=0.3,
            flop_fraction=0.3,
            l1_miss_rate=0.05,
            l2_miss_rate_solo=0.3,
            working_set_mb=2.0,
        )

        async def main():
            handler = _BlockingFleetHandler(
                Fleet([Node("solo", Machine(noise_sigma=0.0))])
            )
            server = AdaptationServer(
                handler, max_batch_size=1, max_batch_window=0.0
            )
            try:
                host, port = await server.serve_tcp(host="127.0.0.1", port=0)
            except OSError:
                return None
            request = GridProbeRequest(client_id="c0", phase="p0", work=work)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                json.dumps(dict(request.to_payload(), kind="grid_probe")).encode()
                + b"\n"
            )
            await writer.drain()
            await asyncio.sleep(0.1)  # the schedule is now parked in flight
            stop = asyncio.create_task(server.stop())
            response = json.loads(await reader.readline())
            handler.release.set()
            await stop
            writer.close()
            await writer.wait_closed()
            return response

        response = asyncio.run(main())
        if response is None:
            pytest.skip("loopback sockets unavailable in this environment")
        assert response["ok"] is False
        assert response["error"] == "shutting_down"


class TestFleetServiceInfeasibleCap:
    def test_cap_below_the_floor_answers_power_cap_infeasible(self, caplog):
        work = WorkRequest(
            instructions=2e8,
            mem_fraction=0.3,
            flop_fraction=0.3,
            l1_miss_rate=0.05,
            l2_miss_rate_solo=0.3,
            working_set_mb=2.0,
        )
        cap = 1.0  # far below the idle platform floor
        fleet = Fleet([Node("solo", Machine(noise_sigma=0.0))])
        with pytest.raises(PowerCapInfeasibleError) as direct:
            FleetScheduler(fleet).schedule([FleetJob(name="c0/p0", work=work)], cap)

        async def main():
            handler = FleetHandler(
                Fleet([Node("solo", Machine(noise_sigma=0.0))]), power_cap_watts=cap
            )
            server = AdaptationServer(handler, max_batch_size=1, max_batch_window=0.0)
            try:
                host, port = await server.serve_tcp(host="127.0.0.1", port=0)
            except OSError:
                return None
            try:
                request = GridProbeRequest(client_id="c0", phase="p0", work=work)
                line = json.dumps(dict(request.to_payload(), kind="grid_probe"))
                reader, writer = await asyncio.open_connection(host, port)
                answers = []
                for _ in range(2):  # the connection keeps serving
                    writer.write(line.encode() + b"\n")
                    await writer.drain()
                    answers.append(json.loads(await reader.readline()))
                writer.close()
                await writer.wait_closed()
                async with TCPAdaptationClient(host, port) as client:
                    with pytest.raises(PowerCapInfeasibleError) as raised:
                        await client.request(request)
                    retries = client.retries
                return answers, raised.value, retries
            finally:
                await server.stop()

        with caplog.at_level(logging.WARNING):
            outcome = asyncio.run(main())
        if outcome is None:
            pytest.skip("loopback sockets unavailable in this environment")
        answers, raised, retries = outcome
        for answer in answers:
            assert answer == {
                "ok": False,
                "error": "power_cap_infeasible",
                "cap_watts": cap,
                "min_feasible_watts": direct.value.required_watts,
            }
        assert raised.cap_watts == cap
        assert raised.required_watts == direct.value.required_watts
        assert retries == 0
        server_records = [r for r in caplog.records if r.name == "repro.service.server"]
        assert [r.levelno for r in server_records] == [logging.WARNING] * 3
        assert all("power cap" in r.getMessage() for r in server_records)
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]
