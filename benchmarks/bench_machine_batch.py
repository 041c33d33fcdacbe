"""Benchmark: one-phase configuration sweeps through the vectorized kernel.

Old-vs-new on the simulation side, mirroring the batched *prediction* bench:
one one-row ``Machine.execute_grid`` pass (one phase) over a placement ×
P-state cross-product versus the same cells through looped
``Machine.execute`` calls.  The
acceptance bar is a >= 10x speedup with numerical equivalence, measured on
the dense configuration space the ROADMAP's many-core / many-P-state
scaling work grows toward (an 8-core topology under a 24-point frequency
ladder — 312 cells); the paper's own 5 x 3 quad-core cross-product is also
timed and reported.  The run writes ``BENCH_machine_batch.json`` at the
repository root — throughput, speedup and cells/s per space — so the repo
carries a perf trajectory artifact future PRs can diff against.

Numerical equivalence across the *full* cross-product for every NAS phase
is pinned by the fast tier (``tests/test_machine_grid.py``); this file
asserts the throughput claim.
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np
import pytest
from _host import host_info

from repro.machine import (
    Machine,
    dvfs_configurations,
    enumerate_configurations,
    standard_configurations,
)
from repro.machine.dvfs import PState, PStateTable
from repro.machine.topology import dual_socket_xeon
from repro.workloads import nas_suite

_ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_machine_batch.json"

#: A one-row grid over the dense space vs looped scalar ``execute``.
BATCH_SPEEDUP_FLOOR = 10.0
#: Memo-warm sweep vs looped scalar ``execute``.
MEMO_WARM_SPEEDUP_FLOOR = 20.0


def _dense_pstate_table(points: int = 24) -> PStateTable:
    """A dense frequency ladder (2.4 GHz down to 1.25 GHz)."""
    frequencies = np.linspace(2.4, 1.25, points)
    voltages = np.linspace(1.300, 0.950, points)
    return PStateTable(
        states=tuple(
            PState(name=f"P{i}", frequency_ghz=float(f), voltage=float(v))
            for i, (f, v) in enumerate(zip(frequencies, voltages))
        )
    )


def _best_of(repetitions: int, *fns):
    """Best wall time of each of ``fns`` over ``repetitions`` rounds.

    Each round runs every function in turn, so a slow stretch of the host
    that covers one round slows every side alike instead of sinking one
    side's whole block.  Each timed call follows an untimed call of the
    same function: timed straight after the other side, a sweep runs on
    CPU caches that side evicted (a memo-warm sweep ~40% slower).
    """
    timings = [[] for _ in fns]
    for _ in range(repetitions):
        for fn, fn_timings in zip(fns, timings):
            fn()
            started = time.perf_counter()
            fn()
            fn_timings.append(time.perf_counter() - started)
    return [min(fn_timings) for fn_timings in timings]


def _sp_phase_work():
    suite = nas_suite(machine=Machine(noise_sigma=0.0), names=["SP"])
    return suite.get("SP").phases[0].work


def _measure_space(machine: Machine, configs, work) -> dict:
    """Equivalence-checked loop/batch/memo timings for one config space."""

    def looped():
        return [machine.execute(work, config, apply_noise=False) for config in configs]

    def batched():
        return machine.execute_grid([work], configs, use_memo=False)

    # Warm both paths (placement statics, validation caches, NumPy buffers),
    # then check numerical equivalence before timing anything.
    loop_results = looped()
    batch_results = batched()
    for attribute in ("time_seconds", "ipc", "power_watts"):
        loop_column = np.array([getattr(r, attribute) for r in loop_results])
        assert np.allclose(
            loop_column, getattr(batch_results, attribute)[0], rtol=1e-9, atol=0.0
        ), attribute

    loop_seconds, batch_seconds = _best_of(3, looped, batched)

    # A memo-warm sweep for the trajectory artifact.
    machine.execute_grid([work], configs)
    (memo_seconds,) = _best_of(3, lambda: machine.execute_grid([work], configs))

    cells = len(configs)
    return {
        "cells": cells,
        "loop_seconds": loop_seconds,
        "batch_seconds": batch_seconds,
        "memo_warm_seconds": memo_seconds,
        "speedup": loop_seconds / batch_seconds,
        "memo_speedup_vs_loop": loop_seconds / memo_seconds,
        "loop_cells_per_second": cells / loop_seconds,
        "batch_cells_per_second": cells / batch_seconds,
        "memo_cells_per_second": cells / memo_seconds,
    }


@pytest.mark.perf_smoke
def test_batch_execution_throughput_and_artifact():
    """Batch >= 10x looped execute on the cross-product, equivalent results."""
    work = _sp_phase_work()

    # The scaling space: 8 cores, compact + scattered placements, 24 P-states.
    table = _dense_pstate_table()
    topology = dual_socket_xeon()
    dense_machine = Machine(topology=topology, pstate_table=table, noise_sigma=0.0)
    dense_configs = dvfs_configurations(enumerate_configurations(topology), table)
    dense = _measure_space(dense_machine, dense_configs, work)

    # The paper's quad-core placement x frequency cross-product (15 cells).
    paper_machine = Machine(noise_sigma=0.0)
    paper_configs = dvfs_configurations(
        standard_configurations(paper_machine.topology), paper_machine.pstate_table
    )
    paper = _measure_space(paper_machine, paper_configs, work)

    artifact = {
        "benchmark": "one-row machine.execute_grid vs looped machine.execute",
        "host": host_info(),
        "workload_phase": "SP/phase0",
        "dense_8core_24pstates": dense,
        "paper_quadcore_cross_product": paper,
        "floors": {
            "dense_speedup": BATCH_SPEEDUP_FLOOR,
            "memo_warm_speedup": MEMO_WARM_SPEEDUP_FLOOR,
        },
    }
    _ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")

    print(
        f"\nbatch execution ({dense['cells']} cells): "
        f"loop {dense['loop_cells_per_second']:,.0f} cells/s, "
        f"batched {dense['batch_cells_per_second']:,.0f} cells/s, "
        f"memo-warm {dense['memo_cells_per_second']:,.0f} cells/s, "
        f"speedup {dense['speedup']:.1f}x"
    )
    print(
        f"paper cross-product ({paper['cells']} cells): "
        f"speedup {paper['speedup']:.1f}x, memo-warm "
        f"{paper['memo_speedup_vs_loop']:.1f}x"
    )
    assert dense["speedup"] >= BATCH_SPEEDUP_FLOOR, (
        f"batched execution only {dense['speedup']:.1f}x faster than the loop "
        f"(loop {dense['loop_seconds'] * 1e3:.2f} ms, "
        f"batch {dense['batch_seconds'] * 1e3:.2f} ms for {dense['cells']} cells)"
    )


@pytest.mark.perf_smoke
def test_execution_memo_makes_repeat_sweeps_nearly_free():
    """A memo-warm sweep beats the scalar loop by a wide margin (>= 20x)."""
    machine = Machine(noise_sigma=0.0)
    configs = machine.default_configurations()
    suite = nas_suite(machine=Machine(noise_sigma=0.0), names=["IS"])
    work = suite.get("IS").phases[0].work

    machine.execute_grid([work], configs)  # populate the memo
    warm = machine.execute_grid([work], configs)
    assert warm.memo_hits == len(configs)

    loop_seconds, memo_seconds = _best_of(
        3,
        lambda: [
            machine.execute(work, config, apply_noise=False) for config in configs
        ],
        lambda: machine.execute_grid([work], configs),
    )
    speedup = loop_seconds / memo_seconds
    print(f"\nmemo-warm sweep: {speedup:.1f}x over the scalar loop")
    assert speedup >= MEMO_WARM_SPEEDUP_FLOOR, (
        f"memo-warm sweep only {speedup:.1f}x faster than the loop "
        f"(loop {loop_seconds * 1e3:.2f} ms, warm {memo_seconds * 1e3:.2f} ms)"
    )
