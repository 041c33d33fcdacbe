"""Benchmark: memo-backed fleet scheduling versus cold simulation.

One :class:`~repro.cluster.FleetScheduler` decision sweep costs one
memo-backed grid evaluation per node; every schedule after the first —
re-planning under a new cap, a scenario round, a restarted process
seeded from the shared :class:`~repro.store.MemoStore` — must be served
from the memo, not re-simulated.  This bench pins that story:

* **cold**: a fresh fleet schedules the job stream from nothing (every
  grid cell is a real fixed-point solve);
* **warm**: the same fleet re-plans a full cap sweep from its memos,
  which must be at least ``SPEEDUP_FLOOR`` x faster per schedule;
* **restart**: a rebuilt fleet seeded from the store re-decides
  bit-identically with zero memo misses.

The sweep itself doubles as the cap-safety check: across every cap
level, allocated power never exceeds the cap — a violation fails the
bench outright.  Results land in ``BENCH_fleet.json`` at the repository
root.  The floor is pure memo-vs-simulation arithmetic (no threading),
so it holds on a single-core host too — no waiver needed.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import pytest
from _host import host_info

from repro.cluster import Fleet, FleetJob, FleetScheduler, Node
from repro.machine import Machine, WorkRequest, dual_socket_xeon

_ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_fleet.json"

N_JOBS = 24
#: Cap levels (fractions of the floor-to-peak span) the warm phase replans.
CAP_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)
#: Warm re-planning must beat cold simulation by at least this factor.
SPEEDUP_FLOOR = 5.0


def _available_cores() -> int:
    """CPU cores this process may run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _fleet_jobs(count):
    """``count`` weighted jobs, every one a distinct workload fingerprint."""
    jobs = []
    for i in range(count):
        work = WorkRequest(
            instructions=1.0e8 * (1.0 + 0.003 * i),
            mem_fraction=0.25 + 0.002 * (i % 13),
            flop_fraction=0.30,
            l1_miss_rate=0.02 + 0.0005 * (i % 7),
            l2_miss_rate_solo=0.15,
            working_set_mb=1.0 + 0.1 * (i % 19),
            serial_fraction=0.01,
            barriers=3,
        )
        jobs.append(FleetJob(name=f"job-{i}", work=work, weight=1.0 + (i % 3)))
    return jobs


def _build_fleet(store_dir=None):
    """A fresh heterogeneous fleet (two quad-core Xeons, one dual-socket)."""
    fleet = Fleet(
        [
            Node("xeon-a", Machine(noise_sigma=0.0)),
            Node("xeon-b", Machine(noise_sigma=0.0)),
            Node("dual-a", Machine(topology=dual_socket_xeon(), noise_sigma=0.0)),
        ]
    )
    if store_dir is not None:
        fleet.attach_store(store_dir)
    return fleet


@pytest.mark.perf_smoke
def test_memo_backed_fleet_replanning_beats_cold_simulation(tmp_path):
    """Warm cap-sweep >= 5x cold; zero cap violations; restart re-decides."""
    jobs = _fleet_jobs(N_JOBS)
    store_dir = tmp_path / "fleet-memo"

    # Warm-up pass on a throwaway fleet (placement statics, NumPy buffers).
    FleetScheduler(_build_fleet()).schedule(jobs)

    # Cold: a fresh fleet simulates every (job, configuration) cell.
    fleet = _build_fleet(store_dir)
    scheduler = FleetScheduler(fleet)
    start = time.perf_counter()
    unconstrained = scheduler.schedule(jobs)
    cold_seconds = time.perf_counter() - start

    floor = unconstrained.min_feasible_watts
    peak = unconstrained.total_power_watts
    caps = [floor + f * (peak - floor) for f in CAP_FRACTIONS]

    # Warm: replan the whole cap sweep from the memo, best-of-3.
    cap_rows = []
    warm_sweeps = []
    for _ in range(3):
        start = time.perf_counter()
        schedules = [scheduler.schedule(jobs, cap) for cap in caps]
        warm_sweeps.append((time.perf_counter() - start) / len(caps))
    warm_seconds = min(warm_sweeps)
    violations = 0
    for cap, schedule in zip(caps, schedules):
        if schedule.total_power_watts > cap:
            violations += 1
        cap_rows.append(
            {
                "cap_watts": cap,
                "total_power_watts": schedule.total_power_watts,
                "throughput": schedule.throughput,
                "upgrades_applied": len(schedule.upgrades),
            }
        )
    assert violations == 0, f"{violations} cap level(s) exceeded their budget"

    speedup = cold_seconds / warm_seconds

    # Restart: a rebuilt fleet seeded from the shared store re-decides
    # bit-identically without re-simulating a single cell.
    restarted = _build_fleet(store_dir)
    restart_schedule = FleetScheduler(restarted).schedule(jobs, caps[2])
    assert restart_schedule.to_dict() == schedules[2].to_dict()
    restart_misses = sum(
        node.machine.execution_memo_info().misses for node in restarted
    )
    assert restart_misses == 0, (
        f"restarted fleet re-simulated {restart_misses} cells the store "
        f"should have served"
    )

    artifact = {
        "benchmark": "fleet cap-sweep replanning: warm memo vs cold simulation",
        "host": host_info(),
        "load": {
            "jobs": N_JOBS,
            "nodes": fleet.names(),
            "cap_levels": len(caps),
            "grid_cells_per_node": {
                node.name: N_JOBS * len(node.configurations) for node in fleet
            },
        },
        "cold_schedule_seconds": cold_seconds,
        "warm_schedule_seconds": warm_seconds,
        "speedup": speedup,
        "cap_sweep": cap_rows,
        "cap_violations": violations,
        "restart": {
            "bit_identical": True,
            "memo_misses": restart_misses,
        },
        "available_cores": _available_cores(),
        "floors": {"speedup": SPEEDUP_FLOOR},
    }
    _ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")

    print(
        f"\nfleet replanning ({N_JOBS} jobs x {len(fleet.names())} nodes): "
        f"cold {cold_seconds * 1e3:.1f} ms, warm {warm_seconds * 1e3:.2f} ms "
        f"per schedule, speedup {speedup:.1f}x; "
        f"{len(caps)} cap levels, 0 violations; restart served "
        f"{sum(1 for _ in restarted)} nodes with 0 memo misses"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"memo-backed replanning only {speedup:.2f}x over cold simulation "
        f"(cold {cold_seconds:.3f}s vs warm {warm_seconds:.3f}s per schedule)"
    )
