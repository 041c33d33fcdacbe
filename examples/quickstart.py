#!/usr/bin/env python
"""Quickstart: run one benchmark with and without ACTOR's adaptation.

This example builds the simulated quad-core Xeon, trains the ANN-based IPC
predictor on every NAS-like benchmark except SP (leave-one-application-out,
as in the paper), and then runs SP twice: once with the static all-cores
default and once under ACTOR's prediction-based concurrency throttling.
It prints the per-phase configuration decisions and the resulting
time/power/energy/ED² improvements.

It then demonstrates the seven scaling features of the serving path:

* the **batched prediction engine** — one ``predict_batch`` /
  ``predict_batch_from_rates`` call scores every target configuration for
  every pending phase sample at once (with an LRU cache keyed on quantized
  counter rates in front of it);
* the **batched simulation engine** — one ``Machine.execute_grid`` call
  evaluates phases across the whole placement × P-state cross-product in
  a single NumPy pass (a one-phase sweep is a one-row grid, >= 10x over
  looped ``execute``), with a
  deterministic execution memo keyed on
  ``(work fingerprint, placement, P-state)`` so oracle building and
  training collection never simulate the same cell twice; every cold cell
  resolves its throughput/bus fixed point through a shared safeguarded
  Newton/secant solver (same answers as bisection to ≤ 1e-9, ~3x fewer
  model sweeps), whose cumulative cost is observable as the
  ``solver_iterations`` / ``solver_evaluations`` counters on
  ``execution_memo_info()`` and in the service ``cache_info()`` block;
* the **frequency axis (DVFS)** — ``Configuration`` is a placement ×
  frequency pair (``Configuration(name, placement, pstate)``, names like
  ``"2b@1.6GHz"``) or, for heterogeneous per-core P-states, a placement ×
  frequency *vector* (``pstate_vector``, names like
  ``"4@2.4/2.4/1.6/1.6GHz"``; all-equal vectors collapse to the
  homogeneous form); ``train_predictor_bundle(..., pstate_table=...,
  include_heterogeneous=True)`` trains one model per target so a single
  ``predict_batch`` call scores the whole (optionally ladder-enlarged)
  cross-product, and ``EnergyAwarePolicy(bundle, objective="ed2")``
  selects by energy, EDP or ED² instead of raw predicted IPC;
* the **adaptation service** — ``repro.service.AdaptationServer`` turns
  the predict-and-select loop into a micro-batching asyncio server: many
  concurrent clients' phase samples coalesce in a bounded window and are
  scored through one batched pass, with backpressure (bounded queue,
  reject-with-retry-after) and a plain-dict metrics surface — decisions
  identical to serial per-phase selection;
* the **concurrent experiment runner** — independent workload × policy
  cells fan out over a process pool with seeded, reproducible RNG streams
  (``run_cells(..., processes=N)``; the full figure sweep — now including
  the DVFS comparison ``fig-dvfs`` — accepts the same fan-out via
  ``python -m repro.experiments.runner --parallel N``);
* the **persistent memo store** — ``repro.store.MemoStore`` makes the
  execution memo durable across process restarts, runs and hosts: an
  append-only segment log with atomic publication, torn-tail crash
  recovery, cross-revision schema guards and non-blocking compaction,
  wired into ``run_cells(..., memo_store=...)`` and
  ``GridHandler(memo_store=...)`` so a restarted sweep or adaptation
  server re-simulates nothing it already knows — the store is the one
  channel through which the memo is shared;
* the **cluster fleet under a global power cap** — ``repro.cluster``
  registers N heterogeneous ``Node``s in a ``Fleet`` and lets the
  ``FleetScheduler`` place a weighted job stream and water-fill a hard
  global power budget from per-node upgrade chains: deterministic,
  bit-reproducible schedules whose total draw never exceeds the cap,
  with ``run_scenario`` driving node churn, mid-round failures,
  stragglers and cap steps without ever losing (or double-running) a
  job.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.ann import TrainingConfig
from repro.core import (
    ACTOR,
    ANNTrainingOptions,
    EnergyAwarePolicy,
    PredictionPolicy,
    StaticPolicy,
    train_default_predictor,
    train_predictor_bundle,
)
from repro.experiments import RunCell, run_cells
from repro.machine import (
    CONFIG_4,
    Machine,
    default_pstate_table,
    dvfs_power_parameters,
    quad_core_xeon,
)
from repro.machine.power import PowerModel
from repro.openmp import OpenMPRuntime
from repro.store import MemoStore
from repro.workloads import nas_suite


def main() -> None:
    # 1. The simulated platform: a quad-core Xeon QX6600 lookalike with two
    #    shared 4 MB L2 caches and a single front-side bus.
    machine = Machine()
    print(machine.topology.describe())
    print()

    # 2. The workload: the calibrated NAS-like suite; we adapt SP.
    suite = nas_suite(machine=Machine(noise_sigma=0.0))
    target = suite.get("SP")

    # 3. Train the predictor on the *other* benchmarks (moderate effort so
    #    the example runs in a few seconds; drop `options` for full fidelity).
    options = ANNTrainingOptions(
        folds=5,
        training=TrainingConfig(max_epochs=150, patience=20),
        samples_per_phase=3,
    )
    bundle = train_default_predictor(machine, exclude="SP", suite=suite, options=options)

    # 4. Run SP under the static all-cores default and under ACTOR.
    runtime = OpenMPRuntime(machine)
    actor = ACTOR(runtime)
    baseline = actor.run_with_policy(target, StaticPolicy(CONFIG_4))
    policy = PredictionPolicy(bundle)
    adapted = actor.run_with_policy(target, policy)

    # 5. Report.
    print("Per-phase configurations chosen by ACTOR:")
    for phase, config in sorted(policy.decisions().items()):
        print(f"  {phase:20s} -> configuration {config}")
    print()
    print(f"{'metric':22s} {'all cores (4)':>15s} {'ACTOR':>15s} {'change':>9s}")
    for label, attr in [
        ("time (s)", "time_seconds"),
        ("power (W)", "average_power_watts"),
        ("energy (J)", "energy_joules"),
        ("ED^2 (J*s^2)", "ed2"),
    ]:
        before = getattr(baseline, attr)
        after = getattr(adapted, attr)
        print(
            f"{label:22s} {before:15.1f} {after:15.1f} "
            f"{100.0 * (after - before) / before:+8.1f}%"
        )

    # 6. The batched prediction engine: score every target configuration
    #    for many pending phase samples in one call.  Sampled rates are
    #    quantized and cached, so repeated phases skip model evaluation.
    predictor = bundle.full
    samples = []
    for phase in target.phases:
        result = machine.execute(phase.work, CONFIG_4.placement, apply_noise=False)
        rates = {
            event: result.event_counts.get(event, 0.0) / result.cycles
            for event in predictor.event_set.events
        }
        samples.append((result.ipc, rates))
    batched = bundle.predict_batch_from_rates(samples)
    print()
    print("Batched predictions (one call for all phases x all configurations):")
    for phase, predictions in zip(target.phases, batched):
        ranked = ", ".join(
            f"{cfg}={ipc:.2f}" for cfg, ipc in sorted(predictions.items())
        )
        print(f"  {phase.name:20s} {ranked}")
    info = bundle.cache_info()
    print(f"  prediction cache: {info.hits} hits / {info.misses} misses")

    # The same engine also takes a raw (batch, features) matrix:
    matrix = np.array(
        [predictor.feature_vector(ipc, rates) for ipc, rates in samples]
    )
    per_config = predictor.predict_batch(matrix)
    assert all(len(v) == len(samples) for v in per_config.values())

    # 6b. The batched *simulation* engine: one vectorized pass evaluates a
    #     phase across the machine's whole placement x P-state cross-product
    #     as a one-row grid (noise-free results match looped `execute` to
    #     floating-point accuracy).  A deterministic execution memo keyed on
    #     (work fingerprint, placement, P-state) serves repeated cells —
    #     oracle building and training collection share it automatically.
    phase0 = target.phases[0].work
    sweep = machine.execute_grid([phase0])  # default: full cross-product
    print()
    print(f"Batched simulation over {len(sweep.configurations)} configurations:")
    for metric in ("time_seconds", "energy_joules", "ed2"):
        best = sweep.best(metric)[0]
        print(f"  min {metric:14s} -> {best.name}")
    sweep = machine.execute_grid([phase0])  # repeat: served from the memo
    memo = machine.execution_memo_info()
    print(
        f"  execution memo: {memo.hits} hits / {memo.misses} misses "
        f"({memo.size} cells cached)"
    )

    #     Under the hood each cold cell resolves the coupled throughput/bus
    #     fixed point with a shared safeguarded Newton/secant solver (same
    #     answers as bisection to <= 1e-9).  The memo info carries
    #     cumulative solver cost, so a production sweep can see what it
    #     spent:
    print(
        f"  fixed-point solver: {memo.solver_iterations} iterations, "
        f"{memo.solver_evaluations} model sweeps so far"
    )

    # 6c. The 2-D grid engine and the shareable memo: stack *all* phases of
    #     a benchmark (or several benchmarks) against a configuration space
    #     in one kernel launch — this is what oracle construction and
    #     training collection run on — and ship the resulting memo cells to
    #     other processes as a picklable snapshot (section 10 shares them
    #     through a durable memo store instead).
    grid = machine.execute_grid([p.work for p in target.phases])
    print()
    print(
        f"Grid simulation over {grid.shape[0]} phases x {grid.shape[1]} "
        f"configurations ({grid.memo_hits} cells straight from the memo):"
    )
    for index, best in enumerate(grid.best("time_seconds")):
        print(f"  {target.phases[index].name:20s} -> fastest on {best.name}")
    snapshot = machine.export_execution_memo()
    worker_machine = Machine(noise_sigma=0.0)
    worker_machine.merge_execution_memo(snapshot)  # e.g. in a pool worker
    reheated = worker_machine.execute_grid([p.work for p in target.phases])
    print(
        f"  snapshot: {len(snapshot)} cells -> seeded machine re-simulated "
        f"{reheated.memo_misses} cells"
    )

    # 6d. Heterogeneous per-core P-states: real DVFS hardware clocks each
    #     core independently.  A Configuration may pin one PState per
    #     active core (names like "4@2.4/2.4/1.6/1.6GHz"; an all-equal
    #     vector collapses to the homogeneous form), dvfs_configurations(
    #     include_heterogeneous=True) appends the bounded two-level ladders
    #     — fast master block, slow trailing block — and the grid kernel
    #     evaluates the enlarged space in the same vectorized pass.  The
    #     staged EnergyAwarePolicy selection (and train_predictor_bundle(
    #     include_heterogeneous=True)) rank the ladders alongside the
    #     homogeneous cross-product; ladders earn their keep on phases
    #     whose Amdahl (serial) portion rides the boosted master core.
    from repro.machine import configuration_by_name, dvfs_configurations

    enlarged = dvfs_configurations(
        None, machine.pstate_table, include_heterogeneous=True
    )
    ladder_sweep = machine.execute_grid([phase0], enlarged)
    ladders = [c.name for c in enlarged if c.is_heterogeneous]
    print()
    print(
        f"Heterogeneous ladders: {len(ladders)} of {len(enlarged)} "
        f"configurations (e.g. {ladders[-1]})"
    )
    boosted = configuration_by_name("4@2.4/1.6/1.6/1.6GHz", machine.pstate_table)
    boosted_result = machine.execute(phase0, boosted, apply_noise=False)
    print(
        f"  {boosted.name}: master core at "
        f"{boosted_result.frequency_ghz:g} GHz, {boosted_result.power_watts:.1f} W "
        f"(vs {machine.execute(phase0, configuration_by_name('4'), apply_noise=False).power_watts:.1f} W all-nominal)"
    )
    print(f"  best ED2 over the enlarged space: {ladder_sweep.best('ed2')[0].name}")

    # 7. Serving adaptation decisions: the same predict-and-select loop as
    #    a micro-batching asyncio service.  Many concurrent clients submit
    #    phase samples; the server coalesces whatever arrives inside a
    #    bounded batching window (max batch size OR max latency, whichever
    #    first; a lone request long after the previous lone one skips the
    #    window) and scores each batch through ONE predict_batch pass —
    #    decisions are identical to calling the selector per phase, so
    #    batching is purely a throughput feature.  A bounded queue rejects
    #    overload with a retry-after hint the client shim honours.
    import asyncio

    from repro.service import (
        AdaptationServer,
        PhaseSampleRequest,
        PredictionHandler,
        run_open_loop,
    )

    service_requests = [
        PhaseSampleRequest(
            client_id=f"app-{i % 4}",
            phase=phase.name,
            ipc_sample=ipc,
            rates=rates,
        )
        for i, (phase, (ipc, rates)) in enumerate(zip(target.phases, samples))
    ]

    async def serve_fleet():
        handler = PredictionHandler(bundle)
        async with AdaptationServer(
            handler, max_batch_size=32, max_batch_window=0.002
        ) as server:
            return await run_open_loop(server, service_requests, concurrency=4)

    fleet = asyncio.run(serve_fleet())
    print()
    print(
        f"Adaptation service: {len(fleet.decisions)} decisions at "
        f"{fleet.decisions_per_second:,.0f}/s "
        f"(mean batch {fleet.metrics['mean_batch_size']:.1f}, "
        f"p99 latency {fleet.metrics['latency_seconds']['p99'] * 1e3:.2f} ms)"
    )
    for decision in fleet.decisions[:3]:
        print(
            f"  {decision.client_id} {decision.phase:20s} -> "
            f"{decision.configuration}"
        )

    # 8. The frequency axis: expand the target space to the placement x
    #    P-state cross-product (regression-backed; closed-form training)
    #    and adapt MG for minimal ED^2 on a CPU-dominated platform.
    table = default_pstate_table()
    training = [w for w in suite if w.name != "MG"]
    dvfs_bundle = train_predictor_bundle(
        machine, training, linear=True, pstate_table=table
    )
    print()
    print(
        f"DVFS cross-product: {len(dvfs_bundle.target_configurations)} targets "
        f"({', '.join(dvfs_bundle.target_configurations[:6])}, ...)"
    )
    topology = quad_core_xeon()
    dvfs_machine = Machine(
        topology=topology,
        power_model=PowerModel(
            topology, dvfs_power_parameters(), pstate_table=table
        ),
    )
    dvfs_runtime = OpenMPRuntime(dvfs_machine)
    dvfs_actor = ACTOR(dvfs_runtime)
    energy_policy = EnergyAwarePolicy(
        dvfs_bundle,
        objective="ed2",
        pstate_table=table,
        power_parameters=dvfs_power_parameters(),
    )
    mg_report = dvfs_actor.run_with_policy(suite.get("MG"), energy_policy)
    print("Energy-aware (min-ED^2) decisions for MG:")
    for phase, config in sorted(energy_policy.decisions().items()):
        print(f"  {phase:20s} -> {config}")
    print(
        f"  MG under {energy_policy.name}: {mg_report.time_seconds:.2f} s, "
        f"{mg_report.energy_joules:.0f} J, ED2 {mg_report.ed2:.3e}"
    )

    # 9. The concurrent experiment runner: independent workload x policy
    #    cells fan out over a process pool, each with its own seeded RNG
    #    streams, so results are bit-identical to a serial run.
    cells = [
        RunCell(workload="SP", policy="static-4", seed=1, max_timesteps=4),
        RunCell(workload="SP", policy="search", seed=2, max_timesteps=8),
        RunCell(workload="IS", policy="static-2b", seed=3, max_timesteps=4),
    ]
    reports = run_cells(cells, bundle=bundle, processes=2)
    print()
    print("Parallel cell sweep (2 worker processes):")
    for cell, report in zip(cells, reports):
        print(
            f"  {cell.workload:4s} {cell.policy:12s} "
            f"{report.time_seconds:7.2f} s  {report.energy_joules:8.0f} J"
        )

    # 10. The persistent memo store: a directory-backed segment log that
    #     carries the deterministic execution memo across process restarts.
    #     Writers publish atomic delta segments (crash-safe: a torn tail is
    #     detected and truncated on the next read, losing only the torn
    #     record; records from a different code revision are skipped with a
    #     logged count, never silently merged), `compact()` folds the log
    #     into one base without blocking readers, and both `run_cells` and
    #     the service's `GridHandler` accept `memo_store=` to warm-start
    #     from it and publish what they simulate.  Here a "restarted"
    #     sweep — a fresh store handle on the same directory, as a new
    #     process would construct — re-simulates, and so appends, zero
    #     previously stored cells.
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch) / "memo-store"
        run_cells(cells, bundle=bundle, memo_store=MemoStore(directory))
        restarted_store = MemoStore(directory)
        run_cells(cells, bundle=bundle, memo_store=restarted_store)
        info = restarted_store.info()
        compaction = restarted_store.compact()
        print()
        print(
            f"Persistent memo store: restarted sweep re-simulated "
            f"{info.cells_appended} cells ({info.segments_replayed} segment "
            f"replays from disk); compacted {compaction.folded_files} "
            f"segment(s) into a {compaction.cells}-cell base"
        )

    # 11. The cluster fleet under a global power cap: heterogeneous nodes
    #     (here two quad-core Xeons — one a straggler — and a dual-socket
    #     box), one memo-backed grid sweep per node, and a water-filling
    #     budget redistribution whose decisions are bit-reproducible and
    #     never exceed the cap.  A scenario then kills a node mid-round:
    #     its jobs are carried and re-placed, and every job still
    #     completes exactly once.
    from repro.cluster import (
        Fleet,
        FleetScheduler,
        Node,
        NodeFailure,
        ScenarioRound,
        jobs_from_workload,
        run_scenario,
    )
    from repro.machine import dual_socket_xeon

    def small_fleet() -> Fleet:
        return Fleet(
            [
                Node("xeon-a", Machine(noise_sigma=0.0)),
                Node("xeon-b", Machine(noise_sigma=0.0), straggler_factor=1.5),
                Node(
                    "dual-a",
                    Machine(topology=dual_socket_xeon(), noise_sigma=0.0),
                ),
            ]
        )

    fleet = small_fleet()
    jobs = [
        job
        for name in ("CG", "IS")
        for job in jobs_from_workload(suite.get(name))
    ]
    scheduler = FleetScheduler(fleet)
    unconstrained = scheduler.schedule(jobs)
    floor = unconstrained.min_feasible_watts
    peak = unconstrained.total_power_watts
    print()
    print(
        f"Fleet of {len(fleet.names())} nodes, {len(jobs)} jobs: "
        f"feasible caps span {floor:.0f} W .. {peak:.0f} W"
    )
    for fraction in (0.0, 0.5, 1.0):
        cap = floor + fraction * (peak - floor)
        capped = scheduler.schedule(jobs, cap)
        print(
            f"  cap {cap:6.1f} W -> draw {capped.total_power_watts:6.1f} W, "
            f"throughput {capped.throughput:.3f} jobs/s "
            f"({len(capped.upgrades)} upgrades applied)"
        )

    half = len(jobs) // 2
    report = run_scenario(
        small_fleet(),
        [
            ScenarioRound(
                jobs=tuple(jobs[:half]), events=(NodeFailure("xeon-b"),)
            ),
            ScenarioRound(jobs=tuple(jobs[half:])),
        ],
    )
    reassigned = sum(len(r.carried_jobs) for r in report.rounds)
    completions = report.completions()
    print(
        f"Scenario: xeon-b failed mid-round, {reassigned} jobs reassigned; "
        f"{len(report.completed)} completed, every job exactly once: "
        f"{set(completions.values()) == {1}}"
    )


if __name__ == "__main__":
    main()
