"""Benchmarks: online overhead of ACTOR's building blocks.

The paper emphasizes that prediction-based adaptation must have low online
overhead (counter collection plus model evaluation) compared with empirical
search.  These micro-benchmarks measure the per-call cost of the pieces that
run online — phase execution on the simulator, a counter-sampled execution,
an ANN ensemble prediction — and of the offline training step.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import (
    collect_training_dataset,
    train_ipc_predictor,
    train_linear_predictor,
)
from repro.core.training import ANNTrainingOptions
from repro.ann import TrainingConfig
from repro.machine import CONFIG_4, Machine
from repro.openmp import OpenMPRuntime, PhaseDirective
from repro.workloads import nas_suite


@pytest.fixture(scope="module")
def small_predictor(machine):
    """A small but real ANN predictor trained on a two-benchmark corpus."""
    suite = nas_suite(machine=Machine(noise_sigma=0.0), names=["CG", "FT"])
    dataset = collect_training_dataset(
        machine, list(suite), samples_per_phase=3, seed=17
    )
    options = ANNTrainingOptions(
        hidden_layers=(12,),
        folds=4,
        training=TrainingConfig(max_epochs=60, patience=10),
        samples_per_phase=3,
    )
    return train_ipc_predictor(dataset, options)


def test_machine_execute_throughput(benchmark, suite, machine):
    """Cost of one analytical phase execution (the simulator's hot path)."""
    work = suite.get("SP").phases[0].work

    def execute():
        return machine.execute(work, CONFIG_4, apply_noise=False)

    result = benchmark(execute)
    assert result.time_seconds > 0


def test_sampled_region_execution(benchmark, suite):
    """Cost of executing a region with two hardware counters programmed."""
    machine = Machine()
    runtime = OpenMPRuntime(machine, seed=1)
    workload = suite.get("SP")
    region = runtime.register_regions(workload)[0]
    directive = PhaseDirective(
        configuration=CONFIG_4, sample_events=("PAPI_L2_TCM", "PAPI_BUS_TRN")
    )

    execution = benchmark(lambda: runtime.execute_region(region, 0, directive))
    assert execution.reading is not None


def test_online_prediction_latency(benchmark, warm_ctx):
    """Cost of one ensemble prediction for all target configurations.

    This is ACTOR's online model-evaluation overhead; the paper argues it is
    comparable to the regression baseline and far cheaper than search.
    """
    bundle = warm_ctx.bundle_for_held_out("SP")
    predictor = bundle.full
    rng = np.random.default_rng(0)
    features = {
        event: abs(rng.normal(0.01, 0.005)) for event in predictor.event_set.events
    }

    predictions = benchmark(lambda: predictor.predict_from_rates(0.8, features))
    assert set(predictions) == {"1", "2a", "2b", "3"}


@pytest.mark.perf_smoke
def test_batched_prediction_throughput(small_predictor):
    """256 pending rows in one predict_batch call vs 256 one-row calls.

    The batched engine evaluates all target configurations for all rows with
    one matmul per layer over every target's ensemble members, stacked
    together; the acceptance bar is a >= 10x speedup over 256 sequential
    one-row ``predict_batch`` calls (the path a one-sample prediction takes,
    which is fused the same way), with numerical equivalence to them.
    """
    predictor = small_predictor
    rng = np.random.default_rng(123)
    rows = 256
    features = np.column_stack(
        [np.abs(rng.normal(0.9, 0.2, size=rows))]
        + [np.abs(rng.normal(0.01, 0.005, size=rows)) for _ in predictor.event_set.events]
    )

    def sequential():
        return [predictor.predict_batch(features[i : i + 1]) for i in range(rows)]

    def batched():
        return predictor.predict_batch(features)

    # Warm both paths (builds the predictor's cached ensemble stack).
    loop_results = sequential()
    batch_results = batched()

    # Numerical equivalence of the two engines.
    for config in predictor.target_configurations:
        loop_column = np.array([row[config][0] for row in loop_results])
        assert np.allclose(loop_column, batch_results[config], atol=1e-10, rtol=0.0)

    def best_of_three(fn):
        timings = []
        for _ in range(3):
            started = time.perf_counter()
            fn()
            timings.append(time.perf_counter() - started)
        return min(timings)

    loop_seconds = best_of_three(sequential)
    batch_seconds = best_of_three(batched)
    speedup = loop_seconds / batch_seconds
    print(
        f"\nprediction throughput: loop {rows / loop_seconds:,.0f} rows/s, "
        f"batched {rows / batch_seconds:,.0f} rows/s, speedup {speedup:.1f}x"
    )
    assert speedup >= 10.0, (
        f"batched prediction only {speedup:.1f}x faster than the sequential "
        f"loop (loop {loop_seconds * 1e3:.2f} ms, batched {batch_seconds * 1e3:.2f} ms)"
    )


@pytest.mark.perf_smoke
def test_linear_batched_prediction_matches_loop(machine):
    """The regression baseline's rows are bit-identical in any batch.

    Each row of a 256-row batch equals its own one-row batch exactly: the
    linear model reduces each row on its own, so batch composition cannot
    move a prediction.
    """
    suite = nas_suite(machine=Machine(noise_sigma=0.0), names=["CG"])
    dataset = collect_training_dataset(
        machine, list(suite), samples_per_phase=2, seed=19
    )
    predictor = train_linear_predictor(dataset)
    rng = np.random.default_rng(7)
    features = np.abs(rng.normal(0.05, 0.02, size=(256, dataset.event_set.num_features)))
    batched = predictor.predict_batch(features)
    for config in predictor.target_configurations:
        loop = np.array(
            [predictor.predict_batch(features[i : i + 1])[config][0] for i in range(256)]
        )
        assert np.array_equal(loop, batched[config])


def test_offline_training_cost(benchmark, machine):
    """Cost of the offline training pipeline on a two-benchmark corpus."""
    suite = nas_suite(machine=Machine(noise_sigma=0.0), names=["CG", "FT"])
    options = ANNTrainingOptions(
        hidden_layers=(8,),
        folds=3,
        training=TrainingConfig(max_epochs=40, patience=8),
        samples_per_phase=2,
    )

    def train():
        dataset = collect_training_dataset(
            machine, list(suite), samples_per_phase=2, seed=3
        )
        return train_ipc_predictor(dataset, options)

    predictor = benchmark.pedantic(train, rounds=1, iterations=1, warmup_rounds=0)
    assert predictor.target_configurations == ["1", "2a", "2b", "3"]
