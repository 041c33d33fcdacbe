"""Figure 8 — prediction-based concurrency throttling versus alternatives.

The paper's headline evaluation: for every benchmark, compare four execution
strategies, all normalized to the all-cores default (configuration 4):

* **4 Cores** — the static default of a performance-oriented developer;
* **Global Optimal** — the oracle-derived best single static configuration;
* **Phase Optimal** — the oracle-derived best configuration per phase;
* **Prediction** — ACTOR's ANN-driven, phase-granularity adaptation (trained
  leave-one-application-out).

The paper reports, averaged over the suite: 6.5 % faster execution, 1.5 %
*higher* power, 5.2 % lower energy and 17.2 % lower ED² for the prediction
policy, with the phase optimal reaching a 29 % ED² improvement and IS gaining
71.6 % in ED².
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.metrics import geometric_mean
from ..analysis.reporting import Figure, format_nested_table
from ..core.actor import ACTOR
from ..core.policies import (
    OracleGlobalPolicy,
    OraclePhasePolicy,
    PredictionPolicy,
    StaticPolicy,
)
from ..machine.placement import CONFIG_4
from .common import ExperimentContext

__all__ = ["run_fig8", "STRATEGY_NAMES"]

#: Strategy labels in the paper's plotting order.
STRATEGY_NAMES = ("4-cores", "global-optimal", "phase-optimal", "prediction")

_METRICS = {
    "time": "time_seconds",
    "power": "average_power_watts",
    "energy": "energy_joules",
    "ed2": "ed2",
}


def run_fig8(ctx: ExperimentContext) -> Figure:
    """Regenerate the Figure 8 data (normalized time/power/energy/ED² per strategy)."""
    normalized: Dict[str, Dict[str, Dict[str, float]]] = {
        metric: {} for metric in _METRICS
    }
    decisions: Dict[str, Dict[str, str]] = {}

    for index, workload in enumerate(ctx.suite):
        oracle = ctx.oracle(workload.name)
        bundle = ctx.bundle_for_held_out(workload.name)
        runtime = ctx.new_runtime(seed_offset=index)
        actor = ACTOR(runtime)
        policies = {
            "4-cores": StaticPolicy(CONFIG_4),
            "global-optimal": OracleGlobalPolicy(oracle),
            "phase-optimal": OraclePhasePolicy(oracle),
            "prediction": PredictionPolicy(bundle),
        }
        reports = {
            name: actor.run_with_policy(workload, policy)
            for name, policy in policies.items()
        }
        decisions[workload.name] = policies["prediction"].decisions()
        base = reports["4-cores"]
        for metric, attribute in _METRICS.items():
            base_value = getattr(base, attribute)
            normalized[metric][workload.name] = {
                name: getattr(report, attribute) / base_value
                for name, report in reports.items()
            }

    # Suite-level averages (geometric mean across benchmarks, as in the
    # paper's AVG bars).
    averages: Dict[str, Dict[str, float]] = {}
    for metric in _METRICS:
        averages[metric] = {
            strategy: geometric_mean(
                normalized[metric][w.name][strategy] for w in ctx.suite
            )
            for strategy in STRATEGY_NAMES
        }
        normalized[metric]["AVG"] = averages[metric]

    text_blocks: List[str] = []
    for metric in _METRICS:
        text_blocks.append(f"Normalized {metric} (baseline: 4 cores)")
        text_blocks.append(
            format_nested_table(
                normalized[metric], columns=list(STRATEGY_NAMES), row_label="benchmark"
            )
        )
        text_blocks.append("")
    prediction_avg = {metric: averages[metric]["prediction"] for metric in _METRICS}
    text_blocks.append(
        "prediction policy vs 4 cores: "
        f"time {100 * (1 - prediction_avg['time']):.1f}% faster, "
        f"power {100 * (prediction_avg['power'] - 1):+.1f}%, "
        f"energy {100 * (1 - prediction_avg['energy']):.1f}% lower, "
        f"ED2 {100 * (1 - prediction_avg['ed2']):.1f}% lower"
    )
    return Figure(
        figure_id="fig8",
        title=(
            "Execution time, power, energy and ED2 of prediction-based adaptation "
            "compared to alternative execution strategies"
        ),
        data={
            "normalized": normalized,
            "averages": averages,
            "prediction_decisions": decisions,
            "is_ed2_prediction": normalized["ed2"].get("IS", {}).get("prediction"),
        },
        text="\n".join(text_blocks),
        notes=(
            "Paper averages for the prediction policy: -6.5% time, +1.5% power, "
            "-5.2% energy, -17.2% ED2; phase optimal -29% ED2; IS -71.6% ED2."
        ),
    )
