"""Benchmark: the 2-D phase × configuration grid execution kernel.

Old-vs-new on the phase axis, mirroring the configuration-axis bench
(``bench_machine_batch.py``): one ``Machine.execute_grid`` pass over the
*entire* NAS-like suite — every phase of every benchmark against the full
placement × P-state cross-product — versus the same cells through one
one-row ``Machine.execute_grid`` launch per phase (how oracle construction
swept before the grid rewiring).  The acceptance bar is a >= 3x speedup with
numerical equivalence on the full sweep.

The run also times both sides of the small-batch scalar short-circuit —
cold 1-cell and 15-cell one-row sweeps through the default path, against
the same cells forced through the kernel (a memo-bypassing call always
launches it) or through looped scalar ``execute`` calls — and the memo-warm
grid, and writes ``BENCH_machine_grid.json`` at the repository root so the
repo carries a perf trajectory artifact future PRs can diff against.

Numerical equivalence of the grid against looped scalar ``execute`` for
every NAS phase × cross-product cell is pinned by the fast tier
(``tests/test_machine_grid.py``); this file asserts the throughput claim.
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np
import pytest
from _host import host_info

from repro.machine import (
    CONFIG_4,
    Machine,
    dvfs_configurations,
    standard_configurations,
)
from repro.workloads import nas_suite

_ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_machine_grid.json"

#: Full-suite grid vs one one-row ``execute_grid`` launch per phase.
GRID_SPEEDUP_FLOOR = 3.0
#: A cold 1-cell sweep may take at most this multiple of the kernel's time.
ONE_CELL_SCALAR_SLACK = 1.5
#: A cold 15-cell kernel sweep may take at most this multiple of the
#: forced scalar path's time.
PAPER_KERNEL_SLACK = 1.5
#: Snapshot-seeded sweep vs a cold machine.
SEEDED_SPEEDUP_FLOOR = 2.0


def _best_of(repetitions: int, fn):
    timings = []
    for _ in range(repetitions):
        started = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - started)
    return min(timings)


def _suite_works():
    suite = nas_suite(machine=Machine(noise_sigma=0.0), variability=0.0)
    return [phase.work for workload in suite for phase in workload.phases]


@pytest.mark.perf_smoke
def test_grid_vs_per_phase_batch_throughput_and_artifact():
    """Grid >= 3x per-phase one-row grids on the full NAS sweep, equivalent."""
    machine = Machine(noise_sigma=0.0)
    configs = dvfs_configurations(
        standard_configurations(machine.topology), machine.pstate_table
    )
    works = _suite_works()
    cells = len(works) * len(configs)

    def per_phase_batches():
        return [
            machine.execute_grid([work], configs, use_memo=False) for work in works
        ]

    def grid():
        return machine.execute_grid(works, configs, use_memo=False)

    # Warm both paths (placement statics, NumPy buffers), then check
    # numerical equivalence before timing anything.
    batches = per_phase_batches()
    grid_result = grid()
    for attribute in ("time_seconds", "ipc", "power_watts"):
        batch_rows = np.array([getattr(b, attribute)[0] for b in batches])
        assert np.allclose(
            batch_rows, getattr(grid_result, attribute), rtol=1e-9, atol=0.0
        ), attribute

    batch_seconds = _best_of(3, per_phase_batches)
    grid_seconds = _best_of(3, grid)
    speedup = batch_seconds / grid_seconds

    # A memo-warm grid sweep for the trajectory artifact.
    machine.execute_grid(works, configs)
    warm_seconds = _best_of(3, lambda: machine.execute_grid(works, configs))

    # Small-batch cold latency on both sides of the short-circuit
    # crossover: the dominant 1-cell shape (default = scalar path, vs the
    # kernel forced by bypassing the memo) and the paper's 15-cell
    # cross-product (default = kernel, vs the scalar path forced by
    # looping execute()).
    def cold_sweep(configurations, use_memo=True) -> float:
        best = float("inf")
        for _ in range(5):
            fresh = Machine(noise_sigma=0.0)
            fresh.execute_grid([works[0]], configurations)
            fresh.clear_execution_memo()
            started = time.perf_counter()
            fresh.execute_grid([works[0]], configurations, use_memo=use_memo)
            best = min(best, time.perf_counter() - started)
        return best

    def scalar_loop(configurations) -> float:
        best = float("inf")
        for _ in range(5):
            fresh = Machine(noise_sigma=0.0)
            for config in configurations:
                fresh.execute(works[0], config, apply_noise=False)
            started = time.perf_counter()
            for config in configurations:
                fresh.execute(works[0], config, apply_noise=False)
            best = min(best, time.perf_counter() - started)
        return best

    one_cell_scalar = cold_sweep([CONFIG_4])
    one_cell_kernel = cold_sweep([CONFIG_4], use_memo=False)
    paper_kernel = cold_sweep(configs)
    paper_scalar = scalar_loop(configs)

    artifact = {
        "benchmark": "machine.execute_grid: full suite vs one one-row grid per phase",
        "host": host_info(),
        "sweep": "full NAS suite x placement x P-state cross-product",
        "grid_full_suite": {
            "works": len(works),
            "configurations": len(configs),
            "cells": cells,
            "per_phase_batch_seconds": batch_seconds,
            "grid_seconds": grid_seconds,
            "memo_warm_grid_seconds": warm_seconds,
            "speedup": speedup,
            "batch_cells_per_second": cells / batch_seconds,
            "grid_cells_per_second": cells / grid_seconds,
            "memo_warm_cells_per_second": cells / warm_seconds,
        },
        "small_batch_shortcircuit": {
            "one_cell_scalar_seconds": one_cell_scalar,
            "one_cell_kernel_seconds": one_cell_kernel,
            "one_cell_speedup": one_cell_kernel / one_cell_scalar,
            "paper_15cell_kernel_seconds": paper_kernel,
            "paper_15cell_forced_scalar_seconds": paper_scalar,
        },
        "floors": {
            "grid_speedup": GRID_SPEEDUP_FLOOR,
            "one_cell_scalar_over_kernel_max": ONE_CELL_SCALAR_SLACK,
            "paper_kernel_over_scalar_max": PAPER_KERNEL_SLACK,
            "seeded_sweep_speedup": SEEDED_SPEEDUP_FLOOR,
        },
    }
    _ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")

    print(
        f"\ngrid execution ({len(works)} phases x {len(configs)} configs = "
        f"{cells} cells): per-phase rows {cells / batch_seconds:,.0f} cells/s, "
        f"grid {cells / grid_seconds:,.0f} cells/s, memo-warm "
        f"{cells / warm_seconds:,.0f} cells/s, speedup {speedup:.1f}x"
    )
    print(
        f"small-batch cold latency: 1 cell {one_cell_scalar * 1e3:.3f} ms scalar "
        f"vs {one_cell_kernel * 1e3:.3f} ms kernel "
        f"({one_cell_kernel / one_cell_scalar:.1f}x)"
    )
    # The short-circuit's reason to exist: a cold 1-cell sweep must not pay
    # the kernel's fixed setup cost.  Measured gap is ~3x; parity-with-slack
    # keeps the pin robust on loaded machines while still catching a
    # regression that reroutes small batches back through the kernel.
    assert one_cell_scalar <= one_cell_kernel * ONE_CELL_SCALAR_SLACK, (
        f"cold 1-cell sweep via the scalar short-circuit took "
        f"{one_cell_scalar * 1e3:.3f} ms vs {one_cell_kernel * 1e3:.3f} ms "
        f"through the vectorized kernel"
    )
    # ... and the flip side pins the cutoff's calibration: at 15 cells the
    # kernel must already win, so the default cutoff (measured crossover
    # ~6 cells) keeps the paper cross-product on the vectorized path.
    assert paper_kernel <= paper_scalar * PAPER_KERNEL_SLACK, (
        f"cold 15-cell sweep through the kernel took {paper_kernel * 1e3:.3f} ms "
        f"vs {paper_scalar * 1e3:.3f} ms via the forced scalar path — the "
        f"small-batch cutoff is miscalibrated"
    )
    assert speedup >= GRID_SPEEDUP_FLOOR, (
        f"grid only {speedup:.1f}x faster than per-phase one-row grids "
        f"(per phase {batch_seconds * 1e3:.2f} ms, grid {grid_seconds * 1e3:.2f} ms "
        f"for {cells} cells)"
    )


@pytest.mark.perf_smoke
def test_memo_snapshot_seeding_skips_resimulation():
    """A worker machine seeded from a snapshot re-simulates nothing."""
    parent = Machine(noise_sigma=0.0)
    configs = dvfs_configurations(
        standard_configurations(parent.topology), parent.pstate_table
    )
    works = _suite_works()
    parent.execute_grid(works, configs)
    snapshot = parent.export_execution_memo()

    def cold_sweep() -> None:
        fresh = Machine(noise_sigma=0.0)
        fresh.execute_grid(works, configs)

    cold_seconds = _best_of(3, cold_sweep)

    def seeded_sweep() -> None:
        fresh = Machine(noise_sigma=0.0)
        fresh.merge_execution_memo(snapshot)
        grid = fresh.execute_grid(works, configs)
        assert grid.memo_misses == 0

    warm_seconds = _best_of(3, seeded_sweep)

    speedup = cold_seconds / warm_seconds
    print(f"\nsnapshot-seeded sweep: {speedup:.1f}x over a cold machine")
    assert speedup >= SEEDED_SPEEDUP_FLOOR, (
        f"seeded sweep only {speedup:.1f}x faster than cold "
        f"(cold {cold_seconds * 1e3:.2f} ms, seeded {warm_seconds * 1e3:.2f} ms)"
    )
