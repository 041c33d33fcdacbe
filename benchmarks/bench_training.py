"""Benchmark: lockstep ANN training against one network at a time.

The e2e ``predict-ann`` server trains one cross-validation ensemble per
placement x P-state target.  ``train_ipc_predictor`` trains every member of
every target's ensemble in one lockstep loop; the reference trains the same
members one ``BackpropTrainer.train`` call each.  This bench times both on a
subset of that corpus's targets (the first ``TARGETS``, so it stays at a few
seconds), alternating the two runs and keeping the best of ``REPETITIONS``,
and asserts the trained parameters are bit-identical.

Writes ``BENCH_training.json`` at the repository root, with the host, the
member and epoch counts, both times and the speedup floor.
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np
import pytest
from _host import host_info

from repro.ann import CrossValidationEnsemble
from repro.core import FULL_EVENT_SET, collect_training_dataset, train_ipc_predictor
from repro.experiments import ExperimentContext
from repro.machine import Machine, dvfs_configurations, standard_configurations
from repro.workloads import nas_suite

_ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_training.json"

#: Targets of the e2e corpus trained here (it has 36).
TARGETS = 12
REPETITIONS = 2
#: Lockstep must train the members at least this many times faster.
SPEEDUP_FLOOR = 3.5


def _dataset():
    """The e2e ``predict-ann`` training corpus, restricted to ``TARGETS``."""
    machine = Machine(noise_sigma=0.0)
    options = ExperimentContext(fast=True, seed=2007).training_options()
    names = [
        config.name
        for config in dvfs_configurations(
            standard_configurations(machine.topology),
            machine.pstate_table,
            include_heterogeneous=True,
        )
    ]
    dataset = collect_training_dataset(
        machine,
        nas_suite(machine=Machine(noise_sigma=0.0)),
        event_set=FULL_EVENT_SET,
        target_configurations=names[:TARGETS],
        samples_per_phase=options.samples_per_phase,
        measurement_noise=options.measurement_noise,
        seed=options.seed,
        pstate_table=machine.pstate_table,
        include_heterogeneous=True,
    )
    return dataset, options


def _one_at_a_time(dataset, options):
    """Every member ``train_ipc_predictor`` trains, one ``train`` call each."""
    features = dataset.feature_matrix()
    parameters, epochs = [], []
    for index, name in enumerate(dataset.target_configurations):
        ensemble = CrossValidationEnsemble(
            hidden_layers=options.hidden_layers,
            folds=options.folds,
            config=options.training,
            seed=options.seed + 1000 * (index + 1),
        )
        checked = ensemble._checked(features, dataset.target_vector(name))
        for member, _, _ in ensemble._fold_runs(*checked):
            history = member.trainer.train(
                member.network,
                member.train_x,
                member.train_y,
                member.val_x,
                member.val_y,
            )
            parameters.append(member.network.get_parameters())
            epochs.append(history.epochs_run)
    return parameters, epochs


def _lockstep(dataset, options):
    predictor = train_ipc_predictor(dataset, options)
    return [
        member.get_parameters()
        for name in dataset.target_configurations
        for member in predictor.models[name].ensemble.members
    ]


@pytest.mark.perf_smoke
def test_lockstep_training_beats_one_network_at_a_time():
    dataset, options = _dataset()
    lockstep_times, single_times = [], []
    for _ in range(REPETITIONS):
        started = time.perf_counter()
        lockstep = _lockstep(dataset, options)
        lockstep_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        single, epochs = _one_at_a_time(dataset, options)
        single_times.append(time.perf_counter() - started)

    assert len(lockstep) == len(single) == TARGETS * options.folds
    for a, b in zip(lockstep, single):
        assert np.array_equal(a, b), "lockstep parameters differ from one-at-a-time"

    lockstep_s, single_s = min(lockstep_times), min(single_times)
    speedup = single_s / lockstep_s
    artifact = {
        "benchmark": "lockstep ANN training vs one network at a time",
        "host": host_info(),
        "corpus": (
            f"e2e predict-ann training set ({len(dataset)} rows), "
            f"first {TARGETS} of its 36 targets"
        ),
        "members": len(single),
        "epochs": {
            "total": int(sum(epochs)),
            "mean": float(np.mean(epochs)),
            "max": int(max(epochs)),
        },
        "repetitions": REPETITIONS,
        "lockstep_seconds": lockstep_s,
        "one_at_a_time_seconds": single_s,
        "speedup": speedup,
        "bit_identical": True,
        "floors": {"speedup": SPEEDUP_FLOOR},
    }
    _ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")
    print(
        f"\nlockstep training ({len(single)} members, {sum(epochs)} epochs): "
        f"{lockstep_s:.3f} s vs {single_s:.3f} s one at a time ({speedup:.1f}x)"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"lockstep training is only {speedup:.2f}x faster than one network "
        f"at a time (floor {SPEEDUP_FLOOR}x)"
    )
