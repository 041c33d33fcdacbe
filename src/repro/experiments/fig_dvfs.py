"""DVFS extension — time-optimal versus energy-aware joint adaptation.

The paper adapts only the concurrency/placement dimension; its follow-up
line of work combines concurrency throttling with dynamic voltage and
frequency scaling to optimize energy-delay products.  This experiment
reproduces that comparison on the simulator: for every NAS-like benchmark,
four execution strategies normalized to the all-cores default —

* **4-cores** — the static all-cores, nominal-frequency default;
* **prediction** — time-optimal placement adaptation (the paper's policy,
  regression-backed so both adaptive strategies share a predictor family);
* **energy-energy** — joint placement × frequency adaptation minimizing
  estimated energy;
* **energy-ed2** — joint placement × frequency adaptation minimizing
  estimated ED² (the headline metric of the DVFS follow-up work).

Both energy-aware strategies score the entire placement × frequency
cross-product with the batched prediction engine (one model per
(placement, P-state) target) and select with the analytic
:class:`~repro.core.selector.EnergyCostModel`.  The offline side of the
sweep — collecting each held-out DVFS training dataset over the whole
cross-product — runs through the machine's vectorized grid engine
(:meth:`~repro.machine.Machine.execute_grid`), whose execution memo
deduplicates cells shared between the full- and reduced-event passes.

The comparison runs on the CPU-dominated power profile of the DVFS
follow-up work (:func:`~repro.machine.power.dvfs_power_parameters`): behind
the paper's ~105 W wall-measurement platform floor, system ED² is a pure
race-to-idle and no P-state below nominal can ever pay off — the follow-up
papers evaluate on platforms where the package dominates the controllable
power, which is what gives the frequency axis real energy-delay leverage.
IPC predictions are power-independent, so the context's cached bundles
remain valid.

The qualitative expectation: on memory- and bandwidth-bound codes the
frequency axis is nearly free (DRAM nanoseconds dominate), so the
ED²-optimal strategy should beat the time-optimal one on ED² for a majority
of the suite, while compute-bound codes race to idle at nominal frequency
and show little difference.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.metrics import geometric_mean
from ..analysis.reporting import Figure, format_nested_table
from ..core.actor import ACTOR
from ..core.policies import PredictionPolicy, StaticPolicy
from ..machine.machine import Machine
from ..machine.placement import CONFIG_4, dvfs_configurations
from ..machine.power import PowerModel, dvfs_power_parameters
from ..openmp.runtime import OpenMPRuntime
from .common import ExperimentContext

__all__ = ["run_fig_dvfs", "run_heterogeneous_sweep", "DVFS_STRATEGY_NAMES"]

#: Strategy labels in plotting order.
DVFS_STRATEGY_NAMES = ("4-cores", "prediction", "energy-energy", "energy-ed2")

_METRICS = {
    "time": "time_seconds",
    "power": "average_power_watts",
    "energy": "energy_joules",
    "ed2": "ed2",
}


def run_heterogeneous_sweep(ctx: ExperimentContext) -> Dict[str, Dict[str, object]]:
    """Offline per-core P-state sweep: ladders versus the homogeneous space.

    For every benchmark, one :meth:`~repro.machine.Machine.execute_grid`
    launch evaluates all phases against the homogeneous placement ×
    P-state cross-product *plus* the bounded heterogeneous ladders
    (:func:`~repro.machine.placement.heterogeneous_ladders`) on the
    CPU-dominated power profile, and the phase-optimal ED² of the enlarged
    space is compared against the homogeneous-only optimum.  The machine
    model charges every thread the critical path's instruction share, so
    heterogeneous ladders win exactly where their physics says they should
    — phases whose serial fraction rides the boosted master core while the
    trailing cores coast — and the sweep quantifies how much of the suite
    that is.
    """
    table = ctx.pstate_table
    homogeneous = dvfs_configurations(ctx.configurations, table)
    enlarged = dvfs_configurations(
        ctx.configurations, table, include_heterogeneous=True
    )
    homogeneous_names = {c.name for c in homogeneous}
    machine = Machine(
        topology=ctx.machine.topology,
        power_model=PowerModel(
            ctx.machine.topology, dvfs_power_parameters(), pstate_table=table
        ),
        pstate_table=table,
        noise_sigma=0.0,
        seed=ctx.seed,
    )
    sweep: Dict[str, Dict[str, object]] = {}
    for workload in ctx.suite:
        grid = machine.execute_grid(
            [phase.work for phase in workload.phases], enlarged
        )
        ed2 = grid.ed2
        homogeneous_columns = [
            index
            for index, config in enumerate(enlarged)
            if config.name in homogeneous_names
        ]
        phase_best_all = ed2.min(axis=1)
        phase_best_homogeneous = ed2[:, homogeneous_columns].min(axis=1)
        winners = [enlarged[int(column)].name for column in ed2.argmin(axis=1)]
        sweep[workload.name] = {
            "phase_optimal_ed2": float(phase_best_all.sum()),
            "phase_optimal_ed2_homogeneous": float(phase_best_homogeneous.sum()),
            "ed2_gain": float(
                1.0 - phase_best_all.sum() / phase_best_homogeneous.sum()
            ),
            "phase_winners": dict(
                zip([phase.name for phase in workload.phases], winners)
            ),
            "heterogeneous_wins": sum(
                1 for name in winners if name not in homogeneous_names
            ),
        }
    return sweep


def run_fig_dvfs(ctx: ExperimentContext) -> Figure:
    """Regenerate the DVFS-extension comparison (normalized per strategy)."""
    normalized: Dict[str, Dict[str, Dict[str, float]]] = {
        metric: {} for metric in _METRICS
    }
    decisions: Dict[str, Dict[str, str]] = {}
    ed2_by_strategy: Dict[str, Dict[str, float]] = {}

    power_parameters = dvfs_power_parameters()
    for index, workload in enumerate(ctx.suite):

        def fresh_actor() -> ACTOR:
            # Same topology and timing physics as the context's machine,
            # but with the CPU-dominated power profile (predicted IPCs are
            # power-independent, so the cached bundles stay valid).  Every
            # strategy gets a *fresh* runtime seeded identically — a paired
            # design: all strategies observe the same machine-noise and
            # measurement-noise realizations, so their deltas reflect
            # decisions, not luck of the noise draw.
            machine = Machine(
                topology=ctx.machine.topology,
                power_model=PowerModel(
                    ctx.machine.topology,
                    power_parameters,
                    pstate_table=ctx.pstate_table,
                ),
                pstate_table=ctx.pstate_table,
                noise_sigma=ctx.machine.noise_sigma,
                seed=ctx.seed + 31 * index,
            )
            runtime = OpenMPRuntime(
                machine, seed=ctx.seed + 1000 + index, keep_executions=False
            )
            return ACTOR(runtime)

        policies = {
            "4-cores": StaticPolicy(CONFIG_4),
            "prediction": PredictionPolicy(
                ctx.linear_bundle_for_held_out(workload.name)
            ),
            "energy-energy": ctx.energy_policy(
                workload.name, objective="energy", power_parameters=power_parameters
            ),
            "energy-ed2": ctx.energy_policy(
                workload.name, objective="ed2", power_parameters=power_parameters
            ),
        }
        reports = {
            name: fresh_actor().run_with_policy(workload, policy)
            for name, policy in policies.items()
        }
        decisions[workload.name] = policies["energy-ed2"].decisions()
        ed2_by_strategy[workload.name] = {
            name: report.ed2 for name, report in reports.items()
        }
        base = reports["4-cores"]
        for metric, attribute in _METRICS.items():
            base_value = getattr(base, attribute)
            normalized[metric][workload.name] = {
                name: getattr(report, attribute) / base_value
                for name, report in reports.items()
            }

    averages: Dict[str, Dict[str, float]] = {}
    for metric in _METRICS:
        averages[metric] = {
            strategy: geometric_mean(
                normalized[metric][w.name][strategy] for w in ctx.suite
            )
            for strategy in DVFS_STRATEGY_NAMES
        }
        normalized[metric]["AVG"] = averages[metric]

    #: Benchmarks where joint DVFS × placement adaptation beats the
    #: time-optimal policy on the run's ED².
    ed2_wins = [
        w.name
        for w in ctx.suite
        if ed2_by_strategy[w.name]["energy-ed2"]
        < ed2_by_strategy[w.name]["prediction"]
    ]

    text_blocks: List[str] = []
    for metric in _METRICS:
        text_blocks.append(f"Normalized {metric} (baseline: 4 cores @ nominal)")
        text_blocks.append(
            format_nested_table(
                normalized[metric],
                columns=list(DVFS_STRATEGY_NAMES),
                row_label="benchmark",
            )
        )
        text_blocks.append("")
    text_blocks.append(
        f"ED2-optimal beats time-optimal on ED2 for {len(ed2_wins)} of "
        f"{len(list(ctx.suite))} benchmarks: {', '.join(ed2_wins)}"
    )

    heterogeneous_sweep = run_heterogeneous_sweep(ctx)
    hetero_winners = [
        name
        for name, row in heterogeneous_sweep.items()
        if row["heterogeneous_wins"] > 0
    ]
    text_blocks.append(
        "Per-core ladder sweep: heterogeneous P-states improve the "
        f"phase-optimal ED2 of {len(hetero_winners)} of "
        f"{len(heterogeneous_sweep)} benchmarks"
        + (f" ({', '.join(hetero_winners)})" if hetero_winners else "")
    )
    return Figure(
        figure_id="fig-dvfs",
        title=(
            "Joint DVFS x concurrency adaptation: time-optimal vs "
            "energy/ED2-optimal selection over the placement x frequency space"
        ),
        data={
            "normalized": normalized,
            "averages": averages,
            "ed2_by_strategy": ed2_by_strategy,
            "ed2_wins": ed2_wins,
            "energy_ed2_decisions": decisions,
            "pstates": [s.label for s in ctx.pstate_table],
            "heterogeneous_sweep": heterogeneous_sweep,
        },
        text="\n".join(text_blocks),
        notes=(
            "Follow-up-work expectation: ED2-optimal joint adaptation matches "
            "or beats time-optimal adaptation on ED2 for most benchmarks; "
            "memory-bound codes gain the most from lower P-states."
        ),
    )
