"""Benchmark: warm-starting a restarted process from the durable memo store.

A cold process sweeps the full NAS-like suite against the placement ×
P-state cross-product, simulating every cell, then publishes its memo to a
:class:`~repro.store.MemoStore`.  A "restarted" process — a fresh machine
plus a fresh store handle on the same directory, exactly what a new OS
process would construct — seeds from disk and repeats the sweep.  The
acceptance bar is a >= 10x reduction in cold cells (in fact the restarted
sweep must re-simulate **zero** previously stored cells); the artifact also
times the disk seed itself and a compacted-store seed, and records the
store's file shape.

Writes ``BENCH_memo_store.json`` at the repository root so the repo carries
a perf trajectory artifact future PRs can diff against.  Crash-path
correctness (torn tails, stale schemas, concurrent writers) is pinned by
the fast tier (``tests/test_memo_store.py``); this file asserts the
warm-start claim.
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest
from _host import host_info

from repro.machine import Machine, dvfs_configurations, standard_configurations
from repro.store import MemoStore
from repro.workloads import nas_suite

_ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_memo_store.json"


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
def test_store_warm_restart_skips_cold_cells(tmp_path):
    """A restarted process against a populated store re-simulates nothing."""
    directory = tmp_path / "memo"
    works = _suite_works()
    reference = Machine(noise_sigma=0.0)
    configs = dvfs_configurations(
        standard_configurations(reference.topology), reference.pstate_table
    )
    cells = len(works) * len(configs)

    # --- cold run: empty store, every cell simulated, memo published ----
    cold_machine = Machine(noise_sigma=0.0)
    cold_store = MemoStore(directory)
    cold_store.seed(cold_machine)
    cold_started = time.perf_counter()
    cold_grid = cold_machine.execute_grid(works, configs)
    cold_seconds = time.perf_counter() - cold_started
    cold_misses = cold_grid.memo_misses
    absorb_started = time.perf_counter()
    appended = cold_store.absorb(cold_machine)
    absorb_seconds = time.perf_counter() - absorb_started
    # Duplicate work fingerprints across workloads dedup in the memo, so
    # the store holds exactly the cells the cold run actually simulated.
    assert appended == cold_misses

    # --- restarted run: fresh machine + fresh handle on the same dir ----
    warm_machine = Machine(noise_sigma=0.0)
    warm_store = MemoStore(directory)
    seed_started = time.perf_counter()
    seeded = warm_store.seed(warm_machine)
    seed_seconds = time.perf_counter() - seed_started
    assert seeded == appended
    seeded_snapshot = warm_machine.export_execution_memo()
    warm_started = time.perf_counter()
    warm_grid = warm_machine.execute_grid(works, configs)
    warm_seconds = time.perf_counter() - warm_started
    warm_misses = warm_grid.memo_misses

    assert warm_misses == 0, (
        f"restarted process re-simulated {warm_misses} cells that the store "
        f"already held"
    )
    assert warm_misses * 10 <= cold_misses, (
        f"store-warm run computed {warm_misses} cold cells vs {cold_misses} "
        f"on the cold run — the >= 10x warm-start floor does not hold"
    )
    # Nothing new was computed beyond the seed, so the restarted
    # process publishes nothing.
    assert warm_store.absorb(warm_machine, since=seeded_snapshot) == 0

    # --- compaction: fold the segment log, seed again from the base ------
    compaction = warm_store.compact()
    compact_seed_seconds = _best_of(
        3, lambda: MemoStore(directory).seed(Machine(noise_sigma=0.0))
    )

    miss_ratio = cold_misses / max(warm_misses, 1)
    artifact = {
        "benchmark": "MemoStore warm restart vs cold process",
        "host": host_info(),
        "sweep": "full NAS suite x placement x P-state cross-product",
        "cells": cells,
        "cold": {
            "grid_seconds": cold_seconds,
            "memo_misses": cold_misses,
            "absorb_seconds": absorb_seconds,
            "cells_appended": appended,
        },
        "warm_restart": {
            "seed_seconds": seed_seconds,
            "cells_seeded": seeded,
            "grid_seconds": warm_seconds,
            "memo_misses": warm_misses,
        },
        "cold_to_warm_miss_ratio": miss_ratio,
        "grid_speedup": cold_seconds / max(warm_seconds, 1e-12),
        "compaction": {
            "folded_files": compaction.folded_files,
            "cells": compaction.cells,
            "base_seed_seconds": compact_seed_seconds,
        },
        "store": warm_store.info().as_dict(),
    }
    _ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")

    print(
        f"\nmemo store warm restart ({cells} cells): cold grid "
        f"{cold_seconds * 1e3:.1f} ms / {cold_misses} misses, disk seed "
        f"{seed_seconds * 1e3:.1f} ms, warm grid {warm_seconds * 1e3:.1f} ms / "
        f"{warm_misses} misses (miss ratio {miss_ratio:,.0f}x, grid speedup "
        f"{cold_seconds / max(warm_seconds, 1e-12):.1f}x)"
    )
    print(
        f"compaction folded {compaction.folded_files} segment(s) into "
        f"{compaction.cells} cells; compacted-base seed "
        f"{compact_seed_seconds * 1e3:.1f} ms"
    )
