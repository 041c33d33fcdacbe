"""Ablation studies over ACTOR's design choices.

The paper motivates several design decisions qualitatively — ANNs over
linear regression and empirical search, a 20 % sampling cap, cross-validation
ensembles, a twelve-event input set.  These drivers quantify each choice on
the simulator:

* :func:`run_ablation_policies` — prediction vs. regression vs. empirical
  search vs. the static default, on end-to-end time/energy/ED²;
* :func:`run_ablation_event_sets` — full twelve-event features vs. the
  reduced four-event set, on prediction error;
* :func:`run_ablation_folds` — ensemble size (number of cross-validation
  folds) vs. prediction error;
* :func:`run_ablation_hidden_width` — hidden-layer width vs. prediction
  error;
* :func:`run_ablation_sampling_fraction` — sampling budget vs. end-to-end
  ED² of the prediction policy (more sampling costs more time at the
  unadapted configuration).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..analysis.metrics import geometric_mean
from ..analysis.reporting import Figure, format_nested_table, format_series
from ..ann.metrics import median_relative_error
from ..core.actor import ACTOR
from ..core.events import FULL_EVENT_SET, REDUCED_EVENT_SET
from ..core.policies import (
    PredictionPolicy,
    SearchPolicy,
    StaticPolicy,
)
from ..core.training import (
    ANNTrainingOptions,
    collect_training_dataset,
    train_ipc_predictor,
    train_linear_predictor,
    train_predictor_bundle,
)
from ..machine.placement import CONFIG_4
from .common import ExperimentContext

__all__ = [
    "run_ablation_policies",
    "run_ablation_event_sets",
    "run_ablation_folds",
    "run_ablation_hidden_width",
    "run_ablation_sampling_fraction",
]

#: Benchmarks used for the end-to-end ablations (one per scaling class).
_ABLATION_BENCHMARKS = ("IS", "SP", "BT")


def _heldout_error(ctx: ExperimentContext, predictor, held_out: str) -> float:
    """Median relative IPC error of ``predictor`` on one held-out benchmark."""
    workload = ctx.suite.get(held_out)
    oracle = ctx.oracle(held_out)
    rng = np.random.default_rng(ctx.seed + 123)
    noise = ctx.training_options().measurement_noise
    actual: List[float] = []
    predicted: List[float] = []
    # One grid pass covers every phase's sample cell — typically a pure
    # memo hit after oracle construction.
    sample_grid = ctx.machine.execute_grid(
        [phase.work for phase in workload.phases], [CONFIG_4.placement]
    )
    for phase_index, phase in enumerate(workload.phases):
        result = sample_grid.result(phase_index, 0)
        rates = {}
        for event in predictor.event_set.events:
            count = float(result.event_counts.get(event, 0.0))
            count *= float(np.clip(1.0 + rng.normal(0.0, noise), 0.5, 1.5))
            rates[event] = count / result.cycles
        predictions = predictor.predict_from_rates(result.ipc, rates)
        true_ipcs = oracle.phase_metric(phase.name, "ipc")
        for config, value in predictions.items():
            actual.append(true_ipcs[config])
            predicted.append(value)
    return median_relative_error(np.array(actual), np.array(predicted))


def run_ablation_policies(ctx: ExperimentContext) -> Figure:
    """Compare adaptation policies end to end on representative benchmarks."""
    metrics: Dict[str, Dict[str, float]] = {}
    for index, name in enumerate(_ABLATION_BENCHMARKS):
        workload = ctx.suite.get(name)
        training_workloads, _ = ctx.suite.leave_one_out(name)
        ann_bundle = ctx.bundle_for_held_out(name)
        linear_bundle = train_predictor_bundle(
            ctx.machine,
            training_workloads,
            options=ctx.training_options(),
            linear=True,
        )
        runtime = ctx.new_runtime(seed_offset=50 + index)
        actor = ACTOR(runtime)
        policies = {
            "static-4": StaticPolicy(CONFIG_4),
            "search": SearchPolicy(ctx.configurations),
            "regression": PredictionPolicy(linear_bundle),
            "prediction": PredictionPolicy(ann_bundle),
        }
        reports = {
            label: actor.run_with_policy(workload, policy)
            for label, policy in policies.items()
        }
        base = reports["static-4"]
        metrics[name] = {
            f"{label}:ed2": report.ed2 / base.ed2
            for label, report in reports.items()
            if label != "static-4"
        }
        metrics[name].update(
            {
                f"{label}:time": report.time_seconds / base.time_seconds
                for label, report in reports.items()
                if label != "static-4"
            }
        )
    text = format_nested_table(metrics, row_label="benchmark")
    return Figure(
        figure_id="ablation-policies",
        title="Adaptation policies: search vs regression vs ANN prediction",
        data={"normalized": metrics},
        text=text,
        notes=(
            "All values normalized to the static all-cores run; lower is better. "
            "Search pays exploration overhead on every phase; regression and "
            "prediction differ only in the model family."
        ),
    )


def run_ablation_event_sets(ctx: ExperimentContext, held_out: str = "SP") -> Figure:
    """Full twelve-event features versus the reduced four-event set."""
    training_workloads, _ = ctx.suite.leave_one_out(held_out)
    options = ctx.training_options()
    errors: Dict[str, float] = {}
    for event_set in (FULL_EVENT_SET, REDUCED_EVENT_SET):
        dataset = collect_training_dataset(
            ctx.machine,
            training_workloads,
            event_set=event_set,
            samples_per_phase=options.samples_per_phase,
            measurement_noise=options.measurement_noise,
            seed=options.seed,
        )
        predictor = train_ipc_predictor(dataset, options)
        errors[event_set.name] = _heldout_error(ctx, predictor, held_out)
    text = format_series(errors, name="median relative error")
    return Figure(
        figure_id="ablation-events",
        title="Event-set size versus prediction error",
        data={"median_error": errors, "held_out": held_out},
        text=text,
        notes=(
            "The paper accepts a small accuracy loss from the reduced event set "
            "for applications with few iterations."
        ),
    )


def run_ablation_folds(
    ctx: ExperimentContext,
    held_out: str = "SP",
    folds: Sequence[int] = (3, 5, 10),
) -> Figure:
    """Ensemble size (cross-validation folds) versus prediction error."""
    training_workloads, _ = ctx.suite.leave_one_out(held_out)
    base = ctx.training_options()
    dataset = collect_training_dataset(
        ctx.machine,
        training_workloads,
        samples_per_phase=base.samples_per_phase,
        measurement_noise=base.measurement_noise,
        seed=base.seed,
    )
    errors: Dict[str, float] = {}
    for k in folds:
        options = ANNTrainingOptions(
            hidden_layers=base.hidden_layers,
            folds=k,
            training=base.training,
            samples_per_phase=base.samples_per_phase,
            measurement_noise=base.measurement_noise,
            seed=base.seed,
        )
        predictor = train_ipc_predictor(dataset, options)
        errors[f"{k} folds"] = _heldout_error(ctx, predictor, held_out)
    text = format_series(errors, name="median relative error")
    return Figure(
        figure_id="ablation-folds",
        title="Cross-validation ensemble size versus prediction error",
        data={"median_error": errors, "held_out": held_out},
        text=text,
        notes="The paper uses a 10-fold ensemble to reduce error variance.",
    )


def run_ablation_hidden_width(
    ctx: ExperimentContext,
    held_out: str = "SP",
    widths: Sequence[int] = (4, 8, 16, 32),
) -> Figure:
    """Hidden-layer width versus prediction error."""
    training_workloads, _ = ctx.suite.leave_one_out(held_out)
    base = ctx.training_options()
    dataset = collect_training_dataset(
        ctx.machine,
        training_workloads,
        samples_per_phase=base.samples_per_phase,
        measurement_noise=base.measurement_noise,
        seed=base.seed,
    )
    errors: Dict[str, float] = {}
    for width in widths:
        options = ANNTrainingOptions(
            hidden_layers=(width,),
            folds=base.folds,
            training=base.training,
            samples_per_phase=base.samples_per_phase,
            measurement_noise=base.measurement_noise,
            seed=base.seed,
        )
        predictor = train_ipc_predictor(dataset, options)
        errors[f"{width} hidden units"] = _heldout_error(ctx, predictor, held_out)
    text = format_series(errors, name="median relative error")
    return Figure(
        figure_id="ablation-hidden",
        title="Hidden-layer width versus prediction error",
        data={"median_error": errors, "held_out": held_out},
        text=text,
        notes="Any reasonably sized hidden layer suffices; tiny layers underfit.",
    )


def run_ablation_sampling_fraction(
    ctx: ExperimentContext,
    benchmark: str = "IS",
    fractions: Sequence[float] = (0.1, 0.2, 0.4),
) -> Figure:
    """Sampling budget versus end-to-end normalized time and ED².

    Sampling instances run at maximal concurrency even when a smaller
    configuration would be better, so a larger budget costs more of the run
    at the unadapted configuration — the trade-off behind the paper's 20 %
    cap.
    """
    workload = ctx.suite.get(benchmark)
    bundle = ctx.bundle_for_held_out(benchmark)
    results: Dict[str, Dict[str, float]] = {}
    for index, fraction in enumerate(fractions):
        runtime = ctx.new_runtime(seed_offset=80 + index)
        actor = ACTOR(runtime)
        baseline = actor.run_with_policy(workload, StaticPolicy(CONFIG_4))
        policy = PredictionPolicy(bundle, sampling_fraction=fraction)
        report = actor.run_with_policy(workload, policy)
        results[f"{fraction:.0%}"] = {
            "time": report.time_seconds / baseline.time_seconds,
            "ed2": report.ed2 / baseline.ed2,
        }
    text = format_nested_table(results, row_label="sampling budget")
    return Figure(
        figure_id="ablation-sampling",
        title="Sampling budget versus end-to-end benefit",
        data={"normalized": results, "benchmark": benchmark},
        text=text,
        notes="The paper caps sampling at 20% of the timesteps of each phase.",
    )
