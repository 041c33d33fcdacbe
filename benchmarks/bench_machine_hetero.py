"""Benchmark: heterogeneous per-core P-states through the grid kernel.

The per-core frequency axis multiplies the configuration space (the bounded
two-level ladders alone add 21 configurations per quad-core placement set),
so it only stays usable if the heterogeneous cells run through the
vectorized grid kernel rather than one scalar ``execute`` per cell.  This
bench sweeps every NAS-like phase against the heterogeneous ladders — one
``Machine.execute_grid`` launch versus the per-cell scalar loop the kernel
replaces — asserts the >= 3x floor after checking numerical equivalence,
and writes ``BENCH_machine_hetero.json`` at the repository root so the repo
carries a perf trajectory artifact future PRs can diff against.

Cell-exact equivalence of heterogeneous grid cells against the scalar path
(1e-12, including grids mixing homogeneous and heterogeneous rows and the
noisy RNG stream) is pinned by the fast tier (``tests/test_machine_grid.py``
/ ``tests/test_machine_dvfs.py``); this file asserts the throughput claim.
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
    standard_configurations,
)
from repro.workloads import nas_suite

_ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_machine_hetero.json"


def _best_of(repetitions: int, fn):
    timings = []
    for _ in range(repetitions):
        started = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - started)
    return min(timings)


@pytest.mark.perf_smoke
def test_heterogeneous_grid_vs_scalar_throughput_and_artifact():
    """Heterogeneous grid >= 3x per-cell scalar loops, equivalent results."""
    machine = Machine(noise_sigma=0.0)
    enlarged = dvfs_configurations(
        standard_configurations(machine.topology),
        machine.pstate_table,
        include_heterogeneous=True,
    )
    hetero_configs = [c for c in enlarged if c.is_heterogeneous]
    assert hetero_configs, "the enlarged cross-product must contain ladders"
    suite = nas_suite(machine=Machine(noise_sigma=0.0), variability=0.0)
    works = [phase.work for workload in suite for phase in workload.phases]
    cells = len(works) * len(hetero_configs)

    def scalar_cells():
        return [
            machine.execute(work, config, apply_noise=False)
            for work in works
            for config in hetero_configs
        ]

    def grid():
        return machine.execute_grid(works, hetero_configs, use_memo=False)

    # Warm both paths, then check numerical equivalence before timing.
    scalar_results = scalar_cells()
    grid_result = grid()
    for attribute in ("time_seconds", "ipc", "power_watts"):
        scalar_rows = np.array(
            [getattr(r, attribute) for r in scalar_results]
        ).reshape(len(works), len(hetero_configs))
        assert np.allclose(
            scalar_rows, getattr(grid_result, attribute), rtol=1e-9, atol=0.0
        ), attribute

    scalar_seconds = _best_of(3, scalar_cells)
    grid_seconds = _best_of(3, grid)
    speedup = scalar_seconds / grid_seconds

    # The enlarged (homogeneous + ladders) sweep in one kernel launch, plus
    # a memo-warm repeat, for the trajectory artifact.
    machine.execute_grid(works, enlarged)
    enlarged_cold_seconds = _best_of(
        3, lambda: machine.execute_grid(works, enlarged, use_memo=False)
    )
    enlarged_warm_seconds = _best_of(
        3, lambda: machine.execute_grid(works, enlarged)
    )
    enlarged_cells = len(works) * len(enlarged)

    artifact = {
        "benchmark": "heterogeneous Machine.execute_grid vs per-cell scalar execute",
        "host": host_info(),
        "sweep": "full NAS suite x bounded per-core P-state ladders",
        "hetero_grid": {
            "works": len(works),
            "configurations": len(hetero_configs),
            "cells": cells,
            "scalar_seconds": scalar_seconds,
            "grid_seconds": grid_seconds,
            "speedup": speedup,
            "scalar_cells_per_second": cells / scalar_seconds,
            "grid_cells_per_second": cells / grid_seconds,
        },
        "enlarged_cross_product": {
            "configurations": len(enlarged),
            "cells": enlarged_cells,
            "cold_grid_seconds": enlarged_cold_seconds,
            "memo_warm_grid_seconds": enlarged_warm_seconds,
            "cold_cells_per_second": enlarged_cells / enlarged_cold_seconds,
            "memo_warm_cells_per_second": enlarged_cells / enlarged_warm_seconds,
        },
    }
    _ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")

    print(
        f"\nheterogeneous grid ({len(works)} phases x {len(hetero_configs)} "
        f"ladders = {cells} cells): scalar {cells / scalar_seconds:,.0f} cells/s, "
        f"grid {cells / grid_seconds:,.0f} cells/s, speedup {speedup:.1f}x"
    )
    print(
        f"enlarged cross-product ({enlarged_cells} cells): cold "
        f"{enlarged_cells / enlarged_cold_seconds:,.0f} cells/s, memo-warm "
        f"{enlarged_cells / enlarged_warm_seconds:,.0f} cells/s"
    )
    assert speedup >= 3.0, (
        f"heterogeneous grid only {speedup:.1f}x faster than per-cell scalar "
        f"execution (scalar {scalar_seconds * 1e3:.2f} ms, grid "
        f"{grid_seconds * 1e3:.2f} ms for {cells} cells)"
    )
