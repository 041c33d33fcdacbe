"""Benchmark: the micro-batching adaptation service under open-loop load.

A synthetic fleet of clients fires phase-sample requests at an
:class:`~repro.service.AdaptationServer` as fast as the service admits
them.  The comparison is the whole point of the service tier:

* **batched** — the production shape: requests coalesce in the bounded
  micro-batching window and each batch is scored through ONE
  ``PredictorBundle.predict_batch`` forward pass;
* **one-at-a-time** — the same server with ``max_batch_size=1``, i.e. the
  per-request serving loop a naive RPC wrapper around the library would
  run.  Both paths pay identical asyncio/executor plumbing, so the ratio
  isolates what batching buys.

The bundle is a linear DVFS bundle over the heterogeneous placement ×
P-state cross-product (36 targets), the shape a fleet-wide energy
controller would serve.  Decisions must be identical between both paths —
batching is purely a throughput feature — and the batched server must
sustain at least 5x the one-at-a-time throughput plus an absolute
decisions/sec floor.  Results land in ``BENCH_service.json`` at the
repository root.
"""

from __future__ import annotations

import asyncio
import json
import pathlib

import pytest
from _host import host_info

from repro.core import PredictionCache, PredictorBundle, train_predictor_bundle
from repro.machine import CONFIG_4, Machine
from repro.service import AdaptationServer, PhaseSampleRequest, PredictionHandler, run_open_loop
from repro.workloads import nas_suite

_ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_service.json"

N_REQUESTS = 768
# The fleet must outnumber the batch cap, or batch formation is limited by
# clients-in-flight instead of the scheduler (each client is closed-loop on
# its own decisions; the *fleet* is what keeps the service saturated).
CONCURRENCY = 64
BATCH_SIZE = 64
BATCH_WINDOW = 0.002
# Measured on the dev container: batched ~14k decisions/s vs ~2.1k
# one-at-a-time (6.5x).  Floors keep ~30% slack for loaded CI machines.
SPEEDUP_FLOOR = 5.0
DECISIONS_PER_SECOND_FLOOR = 4000.0


def _dvfs_bundle(machine):
    """Linear bundle over the heterogeneous placement x P-state targets."""
    suite = nas_suite(machine=Machine(noise_sigma=0.0), variability=0.0)
    return train_predictor_bundle(
        machine,
        [suite.get("CG"), suite.get("MG")],
        linear=True,
        include_reduced=False,
        pstate_table=machine.pstate_table,
        include_heterogeneous=True,
    )


def _phase_sample_requests(machine, bundle, count):
    """``count`` distinct requests cycled over every NAS phase.

    Replicas are jittered well above the prediction cache's quantization
    step, so every request is a distinct cache key and the bench measures
    model evaluation throughput, not cache lookups.
    """
    suite = nas_suite(machine=Machine(noise_sigma=0.0), variability=0.0)
    base = []
    for workload in suite:
        for phase in workload.phases:
            result = machine.execute(phase.work, CONFIG_4.placement, apply_noise=False)
            rates = {
                event: result.event_counts.get(event, 0.0) / result.cycles
                for event in bundle.full.event_set.events
            }
            base.append((f"{workload.name}/{phase.name}", result.ipc, rates))
    requests = []
    for i in range(count):
        name, ipc, rates = base[i % len(base)]
        scale = 1.0 + (i // len(base)) * 1e-3
        requests.append(
            PhaseSampleRequest(
                client_id=f"app-{i % CONCURRENCY}",
                phase=f"{name}#{i}",
                ipc_sample=ipc * scale,
                rates={event: rate * scale for event, rate in rates.items()},
            )
        )
    return requests


def _serve(bundle, requests, max_batch_size, max_batch_window):
    """One open-loop run against a server with a fresh prediction cache."""
    fresh = PredictorBundle(
        full=bundle.full, cache=PredictionCache(capacity=len(requests) + 64)
    )

    async def main():
        handler = PredictionHandler(fresh)
        async with AdaptationServer(
            handler,
            max_batch_size=max_batch_size,
            max_batch_window=max_batch_window,
            max_queue_depth=4 * len(requests),
        ) as server:
            return await run_open_loop(
                server, requests, concurrency=CONCURRENCY
            )

    return asyncio.run(main())


@pytest.mark.perf_smoke
def test_service_sustains_batched_throughput_floor_and_artifact():
    """Batched serving >= 5x one-at-a-time, identical decisions, artifact."""
    machine = Machine(noise_sigma=0.0)
    bundle = _dvfs_bundle(machine)
    requests = _phase_sample_requests(machine, bundle, N_REQUESTS)
    targets = len(bundle.target_configurations)

    # Warm-up run (placement statics, NumPy buffers, thread pool spin-up),
    # then best-of-3 for each serving shape.
    _serve(bundle, requests, BATCH_SIZE, BATCH_WINDOW)
    batched_runs = [
        _serve(bundle, requests, BATCH_SIZE, BATCH_WINDOW) for _ in range(3)
    ]
    serial_runs = [_serve(bundle, requests, 1, 0.0) for _ in range(3)]
    batched = max(batched_runs, key=lambda r: r.decisions_per_second)
    serial = max(serial_runs, key=lambda r: r.decisions_per_second)
    speedup = batched.decisions_per_second / serial.decisions_per_second

    # Batching is purely a throughput feature: both shapes must produce
    # bit-identical decisions for the same request stream.
    assert [d.to_payload() for d in batched.decisions] == [
        d.to_payload() for d in serial.decisions
    ]

    artifact = {
        "benchmark": "adaptation service: micro-batched vs one-at-a-time serving",
        "host": host_info(),
        "load": {
            "requests": N_REQUESTS,
            "concurrency": CONCURRENCY,
            "target_configurations": targets,
            "max_batch_size": BATCH_SIZE,
            "max_batch_window_seconds": BATCH_WINDOW,
        },
        "batched": {
            "decisions_per_second": batched.decisions_per_second,
            "elapsed_seconds": batched.elapsed_seconds,
            "mean_batch_size": batched.metrics["mean_batch_size"],
            "batches": batched.metrics["batches"],
            "latency_p50_seconds": batched.metrics["latency_seconds"]["p50"],
            "latency_p99_seconds": batched.metrics["latency_seconds"]["p99"],
            "rejections": batched.metrics["rejections"],
            "client_retries": batched.retries,
        },
        "one_at_a_time": {
            "decisions_per_second": serial.decisions_per_second,
            "elapsed_seconds": serial.elapsed_seconds,
            "mean_batch_size": serial.metrics["mean_batch_size"],
            "latency_p50_seconds": serial.metrics["latency_seconds"]["p50"],
            "latency_p99_seconds": serial.metrics["latency_seconds"]["p99"],
        },
        "speedup": speedup,
        "floors": {
            "speedup": SPEEDUP_FLOOR,
            "decisions_per_second": DECISIONS_PER_SECOND_FLOOR,
        },
    }
    _ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")

    print(
        f"\nadaptation service ({N_REQUESTS} requests x {targets} targets, "
        f"{CONCURRENCY} clients): batched "
        f"{batched.decisions_per_second:,.0f} decisions/s "
        f"(mean batch {batched.metrics['mean_batch_size']:.1f}, "
        f"p99 {batched.metrics['latency_seconds']['p99'] * 1e3:.2f} ms), "
        f"one-at-a-time {serial.decisions_per_second:,.0f} decisions/s, "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"micro-batching only {speedup:.1f}x over one-at-a-time serving "
        f"(batched {batched.decisions_per_second:,.0f}/s vs "
        f"{serial.decisions_per_second:,.0f}/s)"
    )
    assert batched.decisions_per_second >= DECISIONS_PER_SECOND_FLOOR, (
        f"batched server sustained only {batched.decisions_per_second:,.0f} "
        f"decisions/s (floor {DECISIONS_PER_SECOND_FLOOR:,.0f})"
    )
