"""Benchmark: the sharded adaptation fleet versus a single shard.

An open-loop client fleet fires grid-probe requests — every one a distinct
workload fingerprint, so each batch is cold, real simulation work — at two
:class:`~repro.service.ShardedAdaptationServer` fleets built from identical
parts:

* **4 shards** — four event-loop threads, four :class:`GridHandler`
  workers scoring batches concurrently.  The grid kernels are NumPy
  array programs that release the GIL for the bulk of their runtime, so
  shards overlap on real cores;
* **1 shard** — the same front door, routing, and cross-loop plumbing with
  a single worker: the baseline that isolates what sharding buys.

The fleet must sustain at least 2x the single shard's aggregate
decisions/sec whenever at least two CPU cores are available; on a
single-core machine no thread layout can beat serial compute, so the
speedup floor is waived (and recorded as such in the artifact) while every
correctness invariant — bit-identical decisions, balanced routing, the
store bounds below — still holds.  A second phase exercises the durable-store story under the
same load: all four shards publish deltas into ONE shared
:class:`~repro.store.MemoStore` directory governed by a
:class:`~repro.store.CompactionPolicy`, whose background passes must keep
the segment count at or under the threshold without losing a single memo
cell.  Results land in ``BENCH_shard.json`` at the repository root.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib

import pytest
from _host import host_info

from repro.machine import Machine, WorkRequest
from repro.service import (
    GridHandler,
    GridProbeRequest,
    ShardedAdaptationServer,
    run_open_loop,
)
from repro.store import CompactionPolicy, MemoStore

_ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_shard.json"

N_REQUESTS = 192
CONCURRENCY = 32
NUM_SHARDS = 4
BATCH_SIZE = 16
BATCH_WINDOW = 0.002
# Shard-balance guard: with CRC32 routing over distinct fingerprints no
# shard should serve more than half the stream.
MAX_SHARD_SHARE = 0.5
# Policy for the shared-store phase: fold the log whenever four delta
# segments accumulate.
MAX_SEGMENT_FILES = 4
# The acceptance bar on multi-core hosts.  The grid kernels are single
# NumPy launches over batch x configuration cells, so four shard threads
# overlap on real cores; with one core the ratio degenerates to ~1x and
# the floor is waived below.
SPEEDUP_FLOOR = 2.0


def _available_cores() -> int:
    """CPU cores this process may run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _grid_requests(count):
    """``count`` grid probes, every one a distinct workload fingerprint.

    Distinct fingerprints keep each batch cold (no memo hits), so the bench
    measures simulation throughput — the GIL-releasing NumPy path sharding
    is built to overlap — rather than dict lookups.
    """
    requests = []
    for i in range(count):
        work = WorkRequest(
            instructions=1.0e8 * (1.0 + 0.001 * i),
            mem_fraction=0.30 + 0.001 * (i % 17),
            flop_fraction=0.35,
            l1_miss_rate=0.02 + 0.0005 * (i % 11),
            l2_miss_rate_solo=0.10,
            working_set_mb=1.0 + 0.05 * (i % 29),
            serial_fraction=0.005,
            barriers=2,
        )
        requests.append(
            GridProbeRequest(client_id=f"app-{i % CONCURRENCY}", phase=f"p{i}", work=work)
        )
    return requests


def _serve_fleet(num_shards, requests, store_dir=None, policy=None):
    """One open-loop run against a fresh fleet (fresh machines, cold memo).

    Shards probe the machine's full placement x P-state cross-product, the
    candidate space a DVFS-aware fleet controller would serve — and enough
    per-decision kernel work that the bench measures simulation, not
    request plumbing.
    """
    stores = []

    def factory(index):
        machine = Machine(noise_sigma=0.0)
        store = None
        if store_dir is not None:
            store = MemoStore(store_dir, policy=policy)
            stores.append(store)
        return GridHandler(
            machine=machine,
            configurations=machine.default_configurations(),
            memo_store=store,
        )

    async def main():
        async with ShardedAdaptationServer(
            factory,
            num_shards=num_shards,
            max_batch_size=BATCH_SIZE,
            max_batch_window=BATCH_WINDOW,
            max_queue_depth=4 * len(requests),
        ) as fleet:
            return await run_open_loop(fleet, requests, concurrency=CONCURRENCY)

    return asyncio.run(main()), stores


@pytest.mark.perf_smoke
def test_sharded_fleet_scales_and_compacts(tmp_path):
    """4 shards >= 2x one shard (given cores), identical decisions, bounded store."""
    cores = _available_cores()
    requests = _grid_requests(N_REQUESTS)

    # Warm-up (placement statics, NumPy buffers, thread spin-up), then
    # best-of-3 per fleet size.  Every run rebuilds its machines, so each
    # one re-simulates the full request set from cold.
    _serve_fleet(NUM_SHARDS, requests)
    sharded_runs = [_serve_fleet(NUM_SHARDS, requests)[0] for _ in range(3)]
    single_runs = [_serve_fleet(1, requests)[0] for _ in range(3)]
    sharded = max(sharded_runs, key=lambda r: r.decisions_per_second)
    single = max(single_runs, key=lambda r: r.decisions_per_second)
    speedup = sharded.decisions_per_second / single.decisions_per_second

    # Sharding is purely a scale-out feature: the fleet's decisions must be
    # bit-identical to the single worker's over the same request stream.
    assert [d.to_payload() for d in sharded.decisions] == [
        d.to_payload() for d in single.decisions
    ]
    shard_decisions = [s["decisions"] for s in sharded.metrics["per_shard"]]
    assert sum(shard_decisions) == N_REQUESTS
    assert max(shard_decisions) <= MAX_SHARD_SHARE * N_REQUESTS, (
        f"routing imbalance: per-shard decisions {shard_decisions}"
    )

    # Shared-store phase: the same load with all shards publishing into one
    # store directory.  Background compaction must hold the segment bound
    # and a fresh seed must reproduce every simulated cell.
    store_dir = tmp_path / "fleet-memo"
    policy = CompactionPolicy(max_segment_files=MAX_SEGMENT_FILES)
    stored, stores = _serve_fleet(
        NUM_SHARDS, requests, store_dir=store_dir, policy=policy
    )
    for store in stores:
        assert store.wait_for_compaction(timeout=30.0)
    compactions = sum(s.compactions_triggered for s in stores)
    compaction_errors = sum(s.compaction_errors for s in stores)
    store_info = MemoStore(store_dir).info()
    assert compactions >= 1, "the bench load never tripped the policy"
    assert compaction_errors == 0
    assert store_info.segment_files <= MAX_SEGMENT_FILES, (
        f"compaction fell behind: {store_info.segment_files} segments on disk "
        f"(policy bound {MAX_SEGMENT_FILES})"
    )
    # Zero lost cells: seeding a fresh machine from the compacted store
    # reproduces exactly the union of what the shards simulated.
    seeded = Machine(noise_sigma=0.0)
    MemoStore(store_dir).seed(seeded)
    reference = Machine(noise_sigma=0.0)
    reference.execute_grid(
        [r.work for r in requests], reference.default_configurations()
    )
    assert set(seeded.export_execution_memo().keys()) == set(
        reference.export_execution_memo().keys()
    )

    artifact = {
        "benchmark": "sharded adaptation fleet: 4 shards vs 1 shard, cold grid load",
        "host": host_info(),
        "load": {
            "requests": N_REQUESTS,
            "concurrency": CONCURRENCY,
            "num_shards": NUM_SHARDS,
            "max_batch_size": BATCH_SIZE,
            "max_batch_window_seconds": BATCH_WINDOW,
        },
        "sharded": {
            "decisions_per_second": sharded.decisions_per_second,
            "elapsed_seconds": sharded.elapsed_seconds,
            "per_shard_decisions": shard_decisions,
            "latency_p50_seconds": sharded.metrics["latency_seconds"]["p50"],
            "latency_p99_seconds": sharded.metrics["latency_seconds"]["p99"],
            "rejections": sharded.metrics["rejections"],
        },
        "single_shard": {
            "decisions_per_second": single.decisions_per_second,
            "elapsed_seconds": single.elapsed_seconds,
            "latency_p50_seconds": single.metrics["latency_seconds"]["p50"],
            "latency_p99_seconds": single.metrics["latency_seconds"]["p99"],
        },
        "speedup": speedup,
        "available_cores": cores,
        "speedup_floor_enforced": cores >= 2,
        "shared_store": {
            "decisions_per_second": stored.decisions_per_second,
            "compactions_triggered": compactions,
            "compaction_errors": compaction_errors,
            "final_segment_files": store_info.segment_files,
            "final_replay_bytes": store_info.replay_bytes,
            "policy_max_segment_files": MAX_SEGMENT_FILES,
        },
        "floors": {"speedup": SPEEDUP_FLOOR if cores >= 2 else None},
    }
    _ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")

    print(
        f"\nsharded fleet ({N_REQUESTS} cold grid probes, {CONCURRENCY} "
        f"clients): {NUM_SHARDS} shards "
        f"{sharded.decisions_per_second:,.0f} decisions/s "
        f"(per-shard {shard_decisions}, "
        f"p99 {sharded.metrics['latency_seconds']['p99'] * 1e3:.2f} ms), "
        f"1 shard {single.decisions_per_second:,.0f} decisions/s, "
        f"speedup {speedup:.2f}x on {cores} core(s); shared store compacted "
        f"{compactions}x to {store_info.segment_files} segments"
    )
    if cores >= 2:
        assert speedup >= SPEEDUP_FLOOR, (
            f"{NUM_SHARDS} shards only {speedup:.2f}x over one shard "
            f"(sharded {sharded.decisions_per_second:,.0f}/s vs "
            f"{single.decisions_per_second:,.0f}/s) on {cores} cores"
        )
    else:
        # One core cannot run two compute threads faster than one; the
        # artifact records the measured ratio and that the floor was
        # waived.  Sharding must still not fall off a cliff even here.
        print(
            f"single-core host: the {SPEEDUP_FLOOR:.0f}x speedup floor is "
            f"waived (measured {speedup:.2f}x)"
        )
        assert speedup >= 0.5, (
            f"sharding collapsed to {speedup:.2f}x even for its plumbing "
            f"overhead on a single core"
        )
