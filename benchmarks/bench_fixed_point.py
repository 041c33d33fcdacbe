"""Benchmark: safeguarded Newton vs bisection on the throughput fixed point.

Every cold cell resolves the coupled throughput/bus-utilization fixed point
``u = implied(u)``.  Bisection pays ~30 full model sweeps per grid to reach
the 1e-9 tolerance; the safeguarded Newton/secant solver reaches the same
points (equivalence ≤ 1e-9 is pinned by the fast tier in
``tests/test_fixed_point.py``) in ~6.  The bisection runs are the machine
with the reference ``fixedpoint._bisect_vector`` patched in place of its
solver.

Two ratchets are asserted on the cold NAS × DVFS sweep:

* **fixed-point stage throughput >= 2.5x** — the solver stage is isolated
  by subtracting a zero-sweep baseline (a machine whose tolerance is so
  loose every lane converges at the bracketing sweep, so the kernel runs
  its full setup/assembly but zero solver sweeps) from each solver's total;
  what remains is exactly the per-cell fixed-point resolution cost.
* **full cold-grid wall clock strictly faster under newton** — the
  end-to-end win is smaller (~1.5x: cell setup, per-cell entry assembly
  and result packing are solver-independent and now dominate; the columnar
  payload lever in ROADMAP attacks those), but it must not regress.

Writes ``BENCH_fixed_point.json`` at the repository root so the repo
carries a perf trajectory artifact future PRs can diff against.
"""

from __future__ import annotations

import json
import pathlib
import time
from contextlib import nullcontext
from unittest import mock

import pytest
from _host import host_info

from repro.machine import (
    CONFIG_4,
    Machine,
    dvfs_configurations,
    heterogeneous_ladders,
    standard_configurations,
)
from repro.machine import machine as machine_module
from repro.machine.fixedpoint import _bisect_vector
from repro.workloads import nas_suite

_ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_fixed_point.json"

#: Newton must spend at most 1/this of bisection's model sweeps.
SWEEP_RATIO_FLOOR = 2.0
#: Fixed-point stage speedup of newton over bisection.
STAGE_SPEEDUP_FLOOR = 2.5
#: Newton's full cold grid must take at most this fraction of bisection's.
GRID_SECONDS_RATIO_MAX = 0.9


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


def _cold_sweep_stats(works, configs, bisect=False, **machine_kwargs):
    """Best-of-5 cold grid seconds plus the machine's model-sweep count.

    ``bisect=True`` resolves the fixed point with the reference bisection.
    """
    machine = Machine(noise_sigma=0.0, **machine_kwargs)
    solver = (
        mock.patch.object(machine_module, "solve_fixed_point_vector", _bisect_vector)
        if bisect
        else nullcontext()
    )
    with solver:
        machine.execute_grid(works, configs, use_memo=False)  # warm buffers
        machine.solver_iterations = machine.solver_evaluations = 0
        machine.execute_grid(works, configs, use_memo=False)
        evaluations = machine.solver_evaluations
        seconds = _best_of(
            5, lambda: machine.execute_grid(works, configs, use_memo=False)
        )
    return seconds, evaluations


@pytest.mark.perf_smoke
def test_newton_vs_bisect_cold_grid_throughput_and_artifact():
    """Newton >= 2.5x bisect on the cold cells' fixed-point stage."""
    machine = Machine(noise_sigma=0.0)
    configs = dvfs_configurations(
        standard_configurations(machine.topology), machine.pstate_table
    )
    works = _suite_works()
    cells = len(works) * len(configs)

    newton_seconds, newton_evals = _cold_sweep_stats(works, configs)
    bisect_seconds, bisect_evals = _cold_sweep_stats(works, configs, bisect=True)
    # Zero-sweep baseline: with an (absurdly) loose tolerance every lane is
    # converged at the bracketing sweep, so this run pays the kernel's full
    # solver-independent cost — setup, gathers, breakdown/power grids, entry
    # assembly — and not one solver sweep.  Subtracting it isolates the
    # fixed-point stage both solvers actually compete on.
    baseline_seconds, baseline_evals = _cold_sweep_stats(
        works, configs, fixed_point_tolerance=1e6
    )
    newton_stage = newton_seconds - baseline_seconds
    bisect_stage = bisect_seconds - baseline_seconds
    stage_speedup = bisect_stage / newton_stage
    grid_speedup = bisect_seconds / newton_seconds

    # Per-core P-state ladders share the kernel and solver; record their
    # ratio too (informational — the asserted floors are the homogeneous
    # sweep).
    ladders = heterogeneous_ladders(CONFIG_4, machine.pstate_table)
    hetero_newton, _ = _cold_sweep_stats(works, ladders)
    hetero_bisect, _ = _cold_sweep_stats(works, ladders, bisect=True)

    artifact = {
        "benchmark": "newton vs reference bisection, cold execute_grid",
        "host": host_info(),
        "sweep": "full NAS suite x placement x P-state cross-product",
        "tolerance": machine.fixed_point_tolerance,
        "homogeneous": {
            "works": len(works),
            "configurations": len(configs),
            "cells": cells,
            "newton_seconds": newton_seconds,
            "bisect_seconds": bisect_seconds,
            "zero_sweep_baseline_seconds": baseline_seconds,
            "fixed_point_stage_newton_seconds": newton_stage,
            "fixed_point_stage_bisect_seconds": bisect_stage,
            "fixed_point_stage_speedup": stage_speedup,
            "grid_speedup": grid_speedup,
            "newton_cells_per_second": cells / newton_seconds,
            "bisect_cells_per_second": cells / bisect_seconds,
            "newton_model_sweeps": newton_evals,
            "bisect_model_sweeps": bisect_evals,
            "baseline_model_sweeps": baseline_evals,
        },
        "heterogeneous": {
            "ladders": len(ladders),
            "cells": len(works) * len(ladders),
            "newton_seconds": hetero_newton,
            "bisect_seconds": hetero_bisect,
            "grid_speedup": hetero_bisect / hetero_newton,
        },
        "floors": {
            "model_sweep_ratio": SWEEP_RATIO_FLOOR,
            "fixed_point_stage_speedup": STAGE_SPEEDUP_FLOOR,
            "newton_over_bisect_grid_seconds_max": GRID_SECONDS_RATIO_MAX,
        },
    }
    _ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")

    print(
        f"\nfixed-point stage ({cells} cold cells): newton "
        f"{newton_stage * 1e3:.2f} ms ({newton_evals} model sweeps), bisect "
        f"{bisect_stage * 1e3:.2f} ms ({bisect_evals} sweeps), stage speedup "
        f"{stage_speedup:.1f}x; full cold grid {newton_seconds * 1e3:.2f} ms "
        f"vs {bisect_seconds * 1e3:.2f} ms ({grid_speedup:.2f}x); "
        f"heterogeneous grid {hetero_bisect / hetero_newton:.2f}x"
    )
    assert newton_evals <= bisect_evals / SWEEP_RATIO_FLOOR, (
        f"newton spent {newton_evals} model sweeps vs bisect's {bisect_evals} "
        f"— the secant step is not cutting evaluation counts"
    )
    assert stage_speedup >= STAGE_SPEEDUP_FLOOR, (
        f"newton's fixed-point stage only {stage_speedup:.1f}x faster than "
        f"bisect's (newton {newton_stage * 1e3:.2f} ms, bisect "
        f"{bisect_stage * 1e3:.2f} ms over {cells} cells)"
    )
    # End-to-end ratchet: the full cold grid must stay strictly faster under
    # the default solver (parity-with-slack guards loaded machines).
    assert newton_seconds <= bisect_seconds * GRID_SECONDS_RATIO_MAX, (
        f"cold grid under newton ({newton_seconds * 1e3:.2f} ms) is not "
        f"beating bisect ({bisect_seconds * 1e3:.2f} ms)"
    )
