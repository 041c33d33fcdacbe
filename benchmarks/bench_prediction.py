"""Benchmark: fused prediction of every target against one call per ensemble.

The e2e ``predict-ann`` server's predictor has 36 placement x P-state
targets, each a 5-member cross-validation ensemble of 13-12-1 networks.
``IPCPredictor.predict_batch`` scores all of them in the fused forward
passes of one cached ``EnsembleStack``.  The reference calls the same
ensembles' ``CrossValidationEnsemble.predict_batch`` one at a time.  Both
sides score the same rows, first one row per call and then ``BATCH`` rows
per call.  The two sides alternate within every repetition, each run is
timed after an untimed warm-up run of the same side, and the best of
``REPETITIONS`` counts.  Every target's values must be equal (``==``) on
both sides.

Writes ``BENCH_prediction.json`` at the repository root, with the host, the
predictor's shape, both sides' cost per row, the speedups and their floors.
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np
import pytest
from _host import host_info

from repro.core import train_predictor_bundle
from repro.experiments import ExperimentContext
from repro.machine import Machine
from repro.workloads import nas_suite

_ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_prediction.json"

#: Rows scored per timed run, one per call or ``BATCH`` per call.
ROWS = 64
BATCH = 16
REPETITIONS = 5
#: The fused predictor must beat one call per ensemble by these factors.
#: Measured on 2 cores over 7 runs: 9.5-14.5x one row per call and
#: 3.7-4.7x 16 rows per call; each floor is about 60% of the median.
FLOORS = {"one_row": 6.0, "batch_16": 2.5}


def _predictor():
    """The e2e ``predict-ann`` server's predictor (``workloads.train_bundle``)."""
    machine = Machine(noise_sigma=0.0)
    return train_predictor_bundle(
        machine,
        nas_suite(machine=Machine(noise_sigma=0.0)),
        options=ExperimentContext(fast=True, seed=2007).training_options(),
        include_reduced=False,
        pstate_table=machine.pstate_table,
        include_heterogeneous=True,
    ).full


def _rows(predictor) -> np.ndarray:
    """Counter-sample-like rows: a sampled IPC and small event rates."""
    rng = np.random.default_rng(2007)
    rows = np.abs(rng.normal(0.02, 0.01, size=(ROWS, predictor.event_set.num_features)))
    rows[:, 0] = np.abs(rng.normal(0.9, 0.3, size=ROWS))
    return rows


def _fused(predictor, chunks):
    return [predictor.predict_batch(chunk) for chunk in chunks]


def _per_ensemble(predictor, chunks):
    return [
        {name: model.ensemble.predict_batch(chunk) for name, model in predictor.models.items()}
        for chunk in chunks
    ]


def _timed(fn, *args) -> float:
    fn(*args)  # warm-up: the other side ran last
    started = time.perf_counter()
    fn(*args)
    return time.perf_counter() - started


@pytest.mark.perf_smoke
def test_fused_prediction_beats_one_call_per_ensemble():
    predictor = _predictor()
    rows = _rows(predictor)
    shapes = {
        "one_row": [rows[i : i + 1] for i in range(ROWS)],
        "batch_16": [rows[i : i + BATCH] for i in range(0, ROWS, BATCH)],
    }
    for chunks in shapes.values():
        for fused, reference in zip(
            _fused(predictor, chunks), _per_ensemble(predictor, chunks)
        ):
            assert list(fused) == list(reference)
            for name, values in reference.items():
                assert np.array_equal(fused[name], values), name

    timings = {shape: {"fused": [], "per_ensemble": []} for shape in shapes}
    for _ in range(REPETITIONS):
        for shape, chunks in shapes.items():
            timings[shape]["fused"].append(_timed(_fused, predictor, chunks))
            timings[shape]["per_ensemble"].append(_timed(_per_ensemble, predictor, chunks))

    members = {len(model.ensemble.members) for model in predictor.models.values()}
    layers = {model.ensemble.members[0].layer_sizes for model in predictor.models.values()}
    results = {}
    for shape, sides in timings.items():
        fused_s, reference_s = min(sides["fused"]), min(sides["per_ensemble"])
        results[shape] = {
            "rows_per_call": 1 if shape == "one_row" else BATCH,
            "fused_us_per_row": fused_s / ROWS * 1e6,
            "per_ensemble_us_per_row": reference_s / ROWS * 1e6,
            "speedup": reference_s / fused_s,
        }
    artifact = {
        "benchmark": "fused prediction of every target vs one call per ensemble",
        "host": host_info(),
        "predictor": {
            "targets": len(predictor.models),
            "members_per_target": sorted(members),
            "layer_sizes": sorted(layers),
        },
        "rows": ROWS,
        "repetitions": REPETITIONS,
        "results": results,
        "bit_identical": True,
        "floors": {f"{shape}_speedup": floor for shape, floor in FLOORS.items()},
    }
    _ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")
    for shape, result in results.items():
        print(
            f"\n{shape}: fused {result['fused_us_per_row']:.1f} us/row, one call per "
            f"ensemble {result['per_ensemble_us_per_row']:.1f} us/row "
            f"({result['speedup']:.1f}x)"
        )
    for shape, floor in FLOORS.items():
        speedup = results[shape]["speedup"]
        assert speedup >= floor, (
            f"fused prediction ({shape}) is only {speedup:.2f}x faster than one "
            f"call per ensemble (floor {floor}x)"
        )
