"""Shared infrastructure for the experiment drivers.

Every figure of the paper is regenerated by a function ``run_figN`` that takes
an :class:`ExperimentContext` and returns a
:class:`repro.analysis.reporting.Figure`.  The context owns the machine, the
calibrated NAS-like suite, the exhaustive oracle measurements and the
leave-one-application-out predictor bundles, all lazily computed and cached so
that a full experiment sweep does each expensive step once.

A ``fast`` context shrinks the training configuration and the number of
sampling repetitions so the whole sweep remains usable in unit tests and
continuous integration; the default context matches the paper's methodology
(10-fold cross-validation, the full event set, 20 % sampling budget).

This module also provides the concurrent cell runner: a :class:`RunCell`
names one independent workload × policy × seed measurement, and
:func:`run_cells` executes any number of them — serially or fanned out over
a process pool — with fully deterministic, per-cell RNG streams, so the
parallel execution produces bit-identical :class:`WorkloadRunReport`
aggregates to the serial one.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..ann.training import TrainingConfig
from ..core.actor import ACTOR
from ..core.oracle import OracleTable, measure_oracle
from ..core.policies import (
    AdaptationPolicy,
    EnergyAwarePolicy,
    PredictionPolicy,
    SearchPolicy,
    StaticPolicy,
)
from ..core.predictor import PredictorBundle
from ..core.selector import ConfigurationSelector, rank_of_selection
from ..core.training import (
    ANNTrainingOptions,
    train_predictor_bundle,
)
from ..machine.dvfs import PStateTable, default_pstate_table
from ..machine.machine import Machine
from ..machine.placement import (
    CONFIG_4,
    Configuration,
    configuration_by_name,
    standard_configurations,
)
from ..openmp.runtime import OpenMPRuntime, WorkloadRunReport
from ..store.memo_store import MemoStore
from ..workloads.base import Workload, WorkloadSuite
from ..workloads.nas import nas_suite

__all__ = [
    "PhasePredictionRecord",
    "ExperimentContext",
    "RunCell",
    "POLICY_BUILDERS",
    "build_cell_policy",
    "execute_cell",
    "run_cells",
]


@dataclass(frozen=True)
class PhasePredictionRecord:
    """Leave-one-out prediction outcome for one phase.

    Attributes
    ----------
    workload:
        Held-out benchmark the phase belongs to.
    phase:
        Phase name.
    sample_ipc:
        IPC observed on the sample configuration (noisy, as online).
    predictions:
        Predicted IPC per target configuration.
    true_ipcs:
        Ground-truth IPC per configuration (including the sample
        configuration).
    selected:
        Configuration the selector would choose for this phase.
    selected_rank:
        Rank of the selected configuration within the true IPC ordering
        (1 = truly the best).
    """

    workload: str
    phase: str
    sample_ipc: float
    predictions: Mapping[str, float]
    true_ipcs: Mapping[str, float]
    selected: str
    selected_rank: int

    def relative_errors(self) -> Dict[str, float]:
        """Relative IPC prediction error per target configuration."""
        errors: Dict[str, float] = {}
        for config, predicted in self.predictions.items():
            actual = self.true_ipcs[config]
            if abs(actual) > 1e-12:
                errors[config] = abs((actual - predicted) / actual)
        return errors


@dataclass
class ExperimentContext:
    """Shared, cached state for the experiment drivers.

    Parameters
    ----------
    machine:
        The simulated platform; a fresh QX6600-like machine by default.
    suite:
        The benchmark suite; the calibrated NAS-like suite by default.
    fast:
        Shrink training effort and sampling repetitions for quick runs.
    seed:
        Base seed for the measurement-noise generators.
    """

    machine: Machine = field(default_factory=Machine)
    suite: Optional[WorkloadSuite] = None
    fast: bool = False
    seed: int = 2007
    configurations: List[Configuration] = field(default_factory=list)
    pstate_table: Optional[PStateTable] = None
    _oracles: Dict[str, OracleTable] = field(default_factory=dict, repr=False)
    _bundles: Dict[str, PredictorBundle] = field(default_factory=dict, repr=False)
    _linear_bundles: Dict[str, PredictorBundle] = field(
        default_factory=dict, repr=False
    )
    _dvfs_bundles: Dict[str, PredictorBundle] = field(default_factory=dict, repr=False)
    _prediction_records: Optional[List[PhasePredictionRecord]] = field(
        default=None, repr=False
    )

    def __post_init__(self) -> None:
        if self.suite is None:
            self.suite = nas_suite(machine=Machine(noise_sigma=0.0))
        if not self.configurations:
            self.configurations = standard_configurations(self.machine.topology)
        if self.pstate_table is None:
            # Match the machine's frequency ladder (its nominal state is
            # the topology's actual clock), as Machine itself does.
            self.pstate_table = self.machine.pstate_table

    # ------------------------------------------------------------------
    # configuration of training effort
    # ------------------------------------------------------------------
    def training_options(self) -> ANNTrainingOptions:
        """Training hyper-parameters for the current speed setting."""
        if self.fast:
            return ANNTrainingOptions(
                hidden_layers=(12,),
                folds=5,
                training=TrainingConfig(
                    learning_rate=0.06,
                    momentum=0.9,
                    max_epochs=120,
                    batch_size=16,
                    patience=15,
                ),
                samples_per_phase=3,
                seed=self.seed,
            )
        return ANNTrainingOptions(seed=self.seed)

    def new_runtime(self, seed_offset: int = 0, keep_executions: bool = False) -> OpenMPRuntime:
        """A fresh OpenMP runtime bound to the context's machine."""
        return OpenMPRuntime(
            self.machine,
            seed=self.seed + seed_offset,
            keep_executions=keep_executions,
        )

    # ------------------------------------------------------------------
    # cached expensive artefacts
    # ------------------------------------------------------------------
    def configuration_names(self) -> List[str]:
        """Names of the evaluated configurations, paper order."""
        return [c.name for c in self.configurations]

    def oracle(self, workload_name: str) -> OracleTable:
        """Exhaustive oracle measurements for one benchmark (cached)."""
        if workload_name not in self._oracles:
            workload = self.suite.get(workload_name)
            self._oracles[workload_name] = measure_oracle(
                self.machine, workload, self.configurations
            )
        return self._oracles[workload_name]

    def oracles(self) -> Dict[str, OracleTable]:
        """Oracle measurements for every benchmark of the suite."""
        for workload in self.suite:
            self.oracle(workload.name)
        return dict(self._oracles)

    def _cached_bundle(
        self, cache: Dict[str, PredictorBundle], workload_name: str, **kwargs
    ) -> PredictorBundle:
        """Leave-one-out train-and-memoize shared by the bundle variants."""
        if workload_name not in cache:
            training_workloads, _ = self.suite.leave_one_out(workload_name)
            cache[workload_name] = train_predictor_bundle(
                self.machine,
                training_workloads,
                options=self.training_options(),
                **kwargs,
            )
        return cache[workload_name]

    def bundle_for_held_out(self, workload_name: str) -> PredictorBundle:
        """Predictor bundle trained with ``workload_name`` left out (cached)."""
        return self._cached_bundle(self._bundles, workload_name)

    def linear_bundle_for_held_out(self, workload_name: str) -> PredictorBundle:
        """Regression (linear) bundle with ``workload_name`` left out (cached)."""
        return self._cached_bundle(self._linear_bundles, workload_name, linear=True)

    def dvfs_bundle_for_held_out(self, workload_name: str) -> PredictorBundle:
        """Regression bundle over the placement × frequency space (cached).

        The DVFS cross-product multiplies the target count (one model per
        (placement, P-state) pair), so the frequency-aware experiments use
        the paper line's regression predictor — closed-form least squares
        per target — rather than retraining ANN ensembles for every
        operating point.
        """
        return self._cached_bundle(
            self._dvfs_bundles,
            workload_name,
            linear=True,
            pstate_table=self.pstate_table,
        )

    def energy_policy(
        self,
        workload_name: str,
        objective: str = "ed2",
        power_parameters=None,
    ) -> EnergyAwarePolicy:
        """An energy-aware DVFS policy using the leave-one-out DVFS bundle."""
        return EnergyAwarePolicy(
            self.dvfs_bundle_for_held_out(workload_name),
            objective=objective,
            topology=self.machine.topology,
            pstate_table=self.pstate_table,
            power_parameters=power_parameters,
        )

    # ------------------------------------------------------------------
    # leave-one-out prediction evaluation (shared by Figures 6 and 7)
    # ------------------------------------------------------------------
    def prediction_records(self) -> List[PhasePredictionRecord]:
        """Per-phase leave-one-out prediction records for the whole suite."""
        if self._prediction_records is not None:
            return self._prediction_records
        rng = np.random.default_rng(self.seed + 99)
        selector = ConfigurationSelector()
        sample_config = CONFIG_4
        records: List[PhasePredictionRecord] = []
        noise = self.training_options().measurement_noise
        for workload in self.suite:
            bundle = self.bundle_for_held_out(workload.name)
            predictor = bundle.full
            oracle = self.oracle(workload.name)
            # One grid pass per workload covers every phase's sample cell;
            # usually pure memo hits after oracle construction.
            sample_grid = self.machine.execute_grid(
                [phase.work for phase in workload.phases],
                [sample_config.placement],
            )
            for phase_index, phase in enumerate(workload.phases):
                true_ipcs = oracle.phase_metric(phase.name, "ipc")
                sample_result = sample_grid.result(phase_index, 0)
                rates: Dict[str, float] = {}
                for event in predictor.event_set.events:
                    count = float(sample_result.event_counts.get(event, 0.0))
                    if noise > 0:
                        count *= float(
                            np.clip(1.0 + rng.normal(0.0, noise), 0.5, 1.5)
                        )
                    rates[event] = count / sample_result.cycles
                sample_ipc = sample_result.ipc * float(
                    np.clip(1.0 + rng.normal(0.0, noise * 0.4), 0.8, 1.2)
                )
                predictions = predictor.predict_from_rates(sample_ipc, rates)
                ranking = selector.rank(
                    predictions, measured_sample=(sample_config.name, sample_ipc)
                )
                rank = rank_of_selection(ranking.best, true_ipcs, higher_is_better=True)
                records.append(
                    PhasePredictionRecord(
                        workload=workload.name,
                        phase=phase.name,
                        sample_ipc=sample_ipc,
                        predictions=predictions,
                        true_ipcs=true_ipcs,
                        selected=ranking.best,
                        selected_rank=rank,
                    )
                )
        self._prediction_records = records
        return records

    def prediction_policy(self, workload_name: str) -> PredictionPolicy:
        """A prediction policy using the leave-one-out bundle for a benchmark."""
        return PredictionPolicy(self.bundle_for_held_out(workload_name))


# ----------------------------------------------------------------------
# concurrent experiment cells
# ----------------------------------------------------------------------

#: Offset folded into a cell's seed for the machine's noise generator so the
#: machine and runtime streams of one cell never coincide.
_CELL_MACHINE_SEED_BASE = 20070917

#: Extension point: extra policy builders keyed by policy-spec name.  Each
#: builder receives the (possibly ``None``) predictor bundle and returns a
#: fresh policy instance.  :func:`run_cells` ships a snapshot of this
#: registry to every worker through the pool initializer, so registrations
#: made before the call work regardless of the multiprocessing start method
#: (under ``spawn``/``forkserver`` the builders must be picklable).
POLICY_BUILDERS: Dict[str, Callable[[Optional[PredictorBundle]], AdaptationPolicy]] = {}


@dataclass(frozen=True)
class RunCell:
    """One independent workload × policy × seed measurement.

    Cells are self-describing and cheap to pickle: the executing process —
    whether the caller or a pool worker — reconstructs the machine, suite,
    runtime and policy purely from this description (plus an optional shared
    predictor bundle), with every RNG stream seeded from ``seed``.  Two
    executions of the same cell therefore produce bit-identical
    :class:`~repro.openmp.runtime.WorkloadRunReport` aggregates, regardless
    of which process runs them or in which order.

    Attributes
    ----------
    workload:
        Name of the NAS-like benchmark to run (e.g. ``"SP"``).
    policy:
        Policy spec: ``"static-<config>"`` (e.g. ``static-4``),
        ``"search"``, ``"prediction"`` (requires a bundle),
        ``"energy-<objective>"`` (e.g. ``energy-ed2``; requires a
        DVFS-trained bundle), or any key registered in
        :data:`POLICY_BUILDERS`.
    seed:
        Seed of the cell's private machine/runtime RNG streams.
    max_timesteps:
        Optional truncation of the run (useful for quick sweeps and tests).
    """

    workload: str
    policy: str
    seed: int = 0
    max_timesteps: Optional[int] = None


def build_cell_policy(
    spec: str, bundle: Optional[PredictorBundle] = None
) -> AdaptationPolicy:
    """Instantiate the policy named by a :class:`RunCell` policy spec."""
    if spec in POLICY_BUILDERS:
        return POLICY_BUILDERS[spec](bundle)
    if spec.startswith("static-"):
        return StaticPolicy(configuration_by_name(spec[len("static-"):]))
    if spec == "search":
        return SearchPolicy()
    if spec == "prediction":
        if bundle is None:
            raise ValueError(
                f"policy spec {spec!r} needs a trained PredictorBundle; "
                "pass one via run_cells(..., bundle=...)"
            )
        return PredictionPolicy(bundle)
    if spec.startswith("energy-"):
        if bundle is None:
            raise ValueError(
                f"policy spec {spec!r} needs a DVFS-trained PredictorBundle; "
                "pass one via run_cells(..., bundle=...)"
            )
        # Cells execute on the default (paper wall-power) machine, so the
        # policy's cost model keeps the matching default profile: cost
        # estimates and measured energy stay consistent.  Under that
        # profile ED² is race-to-idle dominated and low P-states rarely
        # pay off — for DVFS-meaningful comparisons on a CPU-dominated
        # platform use the fig-dvfs experiment (dvfs_power_parameters).
        return EnergyAwarePolicy(bundle, objective=spec[len("energy-"):])
    raise KeyError(
        f"unknown policy spec {spec!r}; expected static-<config>, search, "
        f"prediction, energy-<objective> or a POLICY_BUILDERS key"
    )


def execute_cell(
    cell: RunCell,
    bundle: Optional[PredictorBundle] = None,
    memo_store: Optional[MemoStore] = None,
) -> WorkloadRunReport:
    """Execute one cell from scratch, deterministically in its own seed.

    Builds a fresh machine, suite, runtime and policy so the outcome depends
    only on the cell description (and the bundle, for prediction policies) —
    never on shared mutable state of the calling process.

    The noise-free work a cell repeats — the suite calibration probes, one
    per NAS phase — runs on a default-parameter calibration machine.  With
    a ``memo_store`` that machine is seeded from the store before the cell
    runs, so a warm store means zero re-simulation, and the cells it
    simulated itself are published back with
    :meth:`~repro.store.MemoStore.absorb` afterwards.  Memoized cells are
    deterministic, so seeding never changes a report.  The noisy cell
    machine itself never memoizes, so nothing noisy is ever published.
    """
    machine = Machine(seed=_CELL_MACHINE_SEED_BASE + cell.seed)
    calibration = Machine(noise_sigma=0.0)
    if memo_store is not None:
        memo_store.seed(calibration)
    suite = nas_suite(machine=calibration)
    workload = suite.get(cell.workload)
    runtime = OpenMPRuntime(machine, seed=cell.seed, keep_executions=False)
    actor = ACTOR(runtime)
    policy = build_cell_policy(cell.policy, bundle)
    report = actor.run_with_policy(workload, policy, max_timesteps=cell.max_timesteps)
    if memo_store is not None:
        memo_store.absorb(calibration)
    return report


#: Bundle and memo store of a pool worker, set once by the pool initializer
#: rather than shipped with every submitted cell.
_WORKER_BUNDLE: Optional[PredictorBundle] = None
_WORKER_STORE: Optional[MemoStore] = None


def _init_cell_worker(
    bundle: Optional[PredictorBundle],
    builders: Dict[str, Callable[[Optional[PredictorBundle]], AdaptationPolicy]],
    store_directory: Optional[str] = None,
) -> None:
    global _WORKER_BUNDLE, _WORKER_STORE
    _WORKER_BUNDLE = bundle
    # A MemoStore holds locks and does not pickle: each worker opens its
    # own handle on the directory.  Compaction stays with the caller's
    # store, so workers open it without a policy.
    _WORKER_STORE = None if store_directory is None else MemoStore(store_directory)
    # Ship the caller's policy registry explicitly instead of relying on the
    # fork start method copying module state (spawn/forkserver workers
    # re-import this module with an empty registry).
    POLICY_BUILDERS.update(builders)


def _cell_worker(cell: RunCell) -> WorkloadRunReport:
    return execute_cell(cell, _WORKER_BUNDLE, _WORKER_STORE)


def run_cells(
    cells: Sequence[RunCell],
    bundle: Optional[PredictorBundle] = None,
    processes: int = 1,
    retry_failed_serially: bool = True,
    memo_store: Optional[MemoStore] = None,
) -> List[WorkloadRunReport]:
    """Run every cell and return its report, in input order.

    Parameters
    ----------
    cells:
        The workload × policy cells to execute; an empty sequence is a
        no-op returning ``[]``.
    bundle:
        Trained predictor bundle shared by ``prediction`` cells; shipped to
        each worker process once through the pool initializer.
    processes:
        ``1`` (default) executes serially in the calling process; larger
        values fan the cells out over a process pool of that size.  Because
        each cell reconstructs its state from its own seed, the parallel
        path returns bit-identical reports to the serial one.
    retry_failed_serially:
        When cells still fail after the pool-level retry (see below),
        re-run them serially in the calling process instead of losing the
        whole sweep.  Cells whose failure is deterministic will then raise
        in the caller with an ordinary traceback.
    memo_store:
        Durable :class:`~repro.store.MemoStore` sharing the noise-free
        execution memo between cells, processes, runs and hosts.  Every
        cell — serial, in a pool worker, retried or in the serial
        fallback — seeds its calibration machine from the store before it
        runs and publishes the cells it simulated itself afterwards (see
        :func:`execute_cell`), so each cell starts from whatever earlier
        cells have published.  Pool workers open their own handle on the
        store's directory; the caller's store checks its compaction policy
        once the pool drains.  Memoized cells are deterministic, so
        reports stay bit-identical with or without a store.

    Notes
    -----
    A hard worker crash breaks the whole pool, failing every outstanding
    future; cells that only failed as collateral of a crashed neighbour are
    resubmitted to a fresh pool so the sweep keeps its parallelism.  Only
    cells that fail in both pool generations fall back to the serial path
    (with a ``RuntimeWarning`` naming how many).
    """
    cells = list(cells)
    if processes <= 1:
        return [execute_cell(cell, bundle, memo_store) for cell in cells]

    store_directory = None if memo_store is None else str(memo_store.directory)
    results: Dict[int, WorkloadRunReport] = {}
    pending = list(range(len(cells)))
    for _pool_generation in range(2):
        if not pending:
            break
        failed: List[int] = []
        max_workers = min(processes, len(pending), os.cpu_count() or 1)
        with ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=_init_cell_worker,
            initargs=(bundle, dict(POLICY_BUILDERS), store_directory),
        ) as pool:
            futures = {index: pool.submit(_cell_worker, cells[index]) for index in pending}
            for index, future in futures.items():
                try:
                    results[index] = future.result()
                except Exception:
                    # Covers both a cell raising inside its worker and the
                    # pool dying underneath it (BrokenProcessPool fails every
                    # outstanding future); the next generation sorts out which.
                    failed.append(index)
        pending = failed
    if memo_store is not None:
        memo_store.maybe_compact()
    if pending:
        if not retry_failed_serially:
            raise RuntimeError(
                f"{len(pending)} of {len(cells)} cells failed in worker processes "
                f"(first failed cell: {cells[pending[0]]})"
            )
        warnings.warn(
            f"{len(pending)} of {len(cells)} cells failed in two worker-pool "
            f"generations; re-running them serially in the caller",
            RuntimeWarning,
            stacklevel=2,
        )
        for index in pending:
            results[index] = execute_cell(cells[index], bundle, memo_store)
    return [results[index] for index in range(len(cells))]
