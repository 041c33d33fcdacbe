"""Offline training pipeline for the ANN-based IPC predictor.

The paper trains its models offline, once per platform, on counter samples
collected from a set of training applications; the trained models are then
used online for any application (evaluated with leave-one-application-out
splits so the target application is never part of its own training set).

This module implements that pipeline against the simulator:

* :func:`collect_training_dataset` — run every phase of the training
  workloads once per configuration to obtain ground-truth IPCs, and several
  times on the sample configuration with realistic measurement noise to
  obtain the feature vectors;
* :func:`train_ipc_predictor` / :func:`train_linear_predictor` — fit one
  cross-validation ANN ensemble (or least-squares model) per target
  configuration;
* :func:`train_predictor_bundle` — produce the full-event and reduced-event
  predictors used by the online policy;
* :func:`train_default_predictor` — convenience wrapper over the NAS-like
  suite with optional leave-one-out exclusion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..ann.ensemble import CrossValidationEnsemble, fit_ensembles
from ..ann.training import TrainingConfig
from ..machine.dvfs import PStateTable
from ..machine.machine import Machine
from ..machine.placement import (
    CONFIG_4,
    Configuration,
    dvfs_configurations,
    standard_configurations,
)
from ..workloads.base import Workload, WorkloadSuite
from .dataset import PredictionDataset, TrainingSample
from .events import FULL_EVENT_SET, REDUCED_EVENT_SET, EventSet
from .predictor import (
    ConfigurationModel,
    FrequencyRatioModel,
    IPCPredictor,
    LinearIPCModel,
    PredictorBundle,
)

__all__ = [
    "ANNTrainingOptions",
    "collect_training_dataset",
    "train_ipc_predictor",
    "train_linear_predictor",
    "train_predictor_bundle",
    "train_default_predictor",
    "DEFAULT_TARGET_CONFIGURATIONS",
]

#: The paper predicts IPC for configurations 1, 2a, 2b and 3 from samples
#: taken on configuration 4 (which is measured directly).
DEFAULT_TARGET_CONFIGURATIONS: Tuple[str, ...] = ("1", "2a", "2b", "3")


@dataclass(frozen=True)
class ANNTrainingOptions:
    """Hyper-parameters of the predictor training pipeline.

    Attributes
    ----------
    hidden_layers:
        Hidden layer sizes of every ensemble member.
    folds:
        Number of cross-validation folds (ensemble members).
    training:
        Backpropagation hyper-parameters.
    samples_per_phase:
        Number of noisy sampling repetitions collected per phase; more
        repetitions expose the models to realistic measurement noise.
    measurement_noise:
        Relative standard deviation of the multiplicative noise applied to
        counter values when collecting features.
    seed:
        Base random seed of the pipeline.
    """

    hidden_layers: Tuple[int, ...] = (16,)
    folds: int = 10
    training: TrainingConfig = field(
        default_factory=lambda: TrainingConfig(
            learning_rate=0.05,
            momentum=0.9,
            max_epochs=300,
            batch_size=16,
            patience=30,
        )
    )
    samples_per_phase: int = 4
    measurement_noise: float = 0.10
    seed: int = 7


def _noisy_rates(
    result_counts: Mapping[str, float],
    cycles: float,
    events: Sequence[str],
    rng: np.random.Generator,
    noise: float,
) -> Dict[str, float]:
    """Per-cycle event rates with multiplicative measurement noise."""
    rates: Dict[str, float] = {}
    for event in events:
        count = float(result_counts.get(event, 0.0))
        if noise > 0:
            count *= float(np.clip(1.0 + rng.normal(0.0, noise), 0.5, 1.5))
        rates[event] = count / cycles if cycles > 0 else 0.0
    return rates


def collect_training_dataset(
    machine: Machine,
    workloads: Iterable[Workload],
    event_set: EventSet = FULL_EVENT_SET,
    sample_configuration: Configuration = CONFIG_4,
    target_configurations: Optional[Sequence[str]] = None,
    samples_per_phase: int = 4,
    measurement_noise: float = 0.10,
    seed: int = 7,
    pstate_table: Optional[PStateTable] = None,
    include_heterogeneous: bool = False,
) -> PredictionDataset:
    """Collect a training dataset from the phases of ``workloads``.

    For every phase the ground-truth IPC under every target configuration is
    measured once (noise-free), and ``samples_per_phase`` noisy feature
    vectors are generated from the phase's behaviour on the sample
    configuration, mimicking the short, multiplexed counter sampling ACTOR
    performs online.

    All ground-truth measurements run through the machine's vectorized
    grid engine (:meth:`~repro.machine.Machine.execute_grid`): a single
    fused kernel pass covers every phase of **every** workload under every
    target configuration *and* the sample configuration (phases are flat
    grid rows; per-workload slices are recovered afterwards), and the
    execution memo shares cells with oracle construction and with the
    second (reduced-event-set) collection pass of
    :func:`train_predictor_bundle`.

    When a ``pstate_table`` is supplied the frequency axis joins the target
    space: the candidate configurations become the placement × P-state
    cross-product (``dvfs_configurations``), the default targets become
    every cross-product member except the sample configuration, and the
    ground-truth IPCs are measured at each configuration's pinned frequency.
    ``include_heterogeneous=True`` additionally appends the bounded
    per-core ladders (:func:`~repro.machine.placement.heterogeneous_ladders`)
    to the candidate space, so the trained models can rank heterogeneous
    per-core operating points too.
    """
    if samples_per_phase < 1:
        raise ValueError("samples_per_phase must be >= 1")
    if include_heterogeneous and pstate_table is None:
        raise ValueError(
            "include_heterogeneous requires a pstate_table: heterogeneous "
            "ladders are generated from the frequency ladder"
        )
    rng = np.random.default_rng(seed)
    base_configs = standard_configurations(machine.topology)
    if pstate_table is not None:
        candidates = dvfs_configurations(
            base_configs,
            pstate_table,
            include_heterogeneous=include_heterogeneous,
        )
    else:
        candidates = base_configs
    all_configs = {c.name: c for c in candidates}
    if target_configurations is not None:
        target_names = tuple(target_configurations)
    elif pstate_table is not None:
        # The whole cross-product, including the sample configuration: its
        # nominal point is measured directly online, but the lower P-states
        # of the sample placement are modelled as ratios on top of it.
        target_names = tuple(all_configs)
    else:
        target_names = DEFAULT_TARGET_CONFIGURATIONS
    for name in target_names:
        if name not in all_configs:
            raise KeyError(f"unknown target configuration {name!r}")

    dataset = PredictionDataset(
        event_set=event_set,
        sample_configuration=sample_configuration.name,
        target_configurations=target_names,
    )
    target_configs = [all_configs[name] for name in target_names]

    # The sample configuration rides along as a grid column.  When a target
    # already covers it — same placement at the same *physical* operating
    # point the bare placement runs at, as in the DVFS cross-product built
    # from the machine's own ladder — reuse that column instead of
    # appending a duplicate cell.  Physical equivalence is the machine's
    # own memo-key rule (a supplied table whose "nominal" differs from the
    # topology clock does NOT cover the sample).
    bare_sample = Configuration(
        sample_configuration.name, sample_configuration.placement
    )
    sample_column = next(
        (
            i
            for i, c in enumerate(target_configs)
            if machine.shares_memo_cell(c, bare_sample)
        ),
        None,
    )
    if sample_column is None:
        grid_configs = target_configs + [bare_sample]
        sample_column = len(target_configs)
    else:
        grid_configs = target_configs
    # One fused kernel launch for the whole workload list: every phase of
    # every workload becomes one flat grid row, and each workload's slice
    # is recovered by a running row index below.  Row-major noise draws and
    # lane-independent solver trajectories keep every sample bit-identical
    # to the former one-launch-per-workload loop.
    workload_list = list(workloads)
    all_works = [
        phase.work for workload in workload_list for phase in workload.phases
    ]
    grid = machine.execute_grid(all_works, grid_configs) if all_works else None
    row = 0
    for workload in workload_list:
        for phase in workload.phases:
            targets = {
                name: float(ipc)
                for name, ipc in zip(target_names, grid.ipc[row])
            }
            sample_result = grid.result(row, sample_column)
            row += 1
            for _ in range(samples_per_phase):
                rates = _noisy_rates(
                    sample_result.event_counts,
                    sample_result.cycles,
                    event_set.events,
                    rng,
                    measurement_noise,
                )
                ipc_noise = 1.0
                if measurement_noise > 0:
                    ipc_noise = float(
                        np.clip(1.0 + rng.normal(0.0, measurement_noise * 0.4), 0.8, 1.2)
                    )
                features = (sample_result.ipc * ipc_noise,) + tuple(
                    rates[e] for e in event_set.events
                )
                dataset.add(
                    TrainingSample(
                        phase_id=f"{workload.name}:{phase.name}",
                        workload=workload.name,
                        features=features,
                        targets=targets,
                    )
                )
    return dataset


def train_ipc_predictor(
    dataset: PredictionDataset,
    options: Optional[ANNTrainingOptions] = None,
) -> IPCPredictor:
    """Fit one cross-validation ANN ensemble per target configuration.

    All the ensembles are fitted in one :func:`~repro.ann.fit_ensembles`
    call, so every member of every target's ensemble trains in one lockstep
    loop; each ensemble ends exactly as its own ``fit`` would leave it.
    """
    options = options or ANNTrainingOptions()
    if len(dataset) < options.folds:
        raise ValueError(
            f"dataset has {len(dataset)} samples but {options.folds}-fold "
            "cross-validation was requested"
        )
    features = dataset.feature_matrix()
    names = list(dataset.target_configurations)
    ensembles = [
        CrossValidationEnsemble(
            hidden_layers=options.hidden_layers,
            folds=options.folds,
            config=options.training,
            seed=options.seed + 1000 * (index + 1),
        )
        for index in range(len(names))
    ]
    fit_ensembles(
        ensembles,
        [features] * len(names),
        [dataset.target_vector(name) for name in names],
    )
    return IPCPredictor.from_ensembles(
        event_set=dataset.event_set,
        sample_configuration=dataset.sample_configuration,
        ensembles=dict(zip(names, ensembles)),
        kind="ann",
    )


def train_linear_predictor(dataset: PredictionDataset) -> IPCPredictor:
    """Fit one least-squares model per target configuration (baseline [3]).

    Frequency-suffixed targets whose base placement is also a target are
    fitted as :class:`FrequencyRatioModel`: the base placement's absolute
    model times a least-squares model of the cross-frequency IPC *ratio*.
    The ratio is bounded and tracks the phase's memory-boundedness, so this
    structure generalizes far better across frequencies than independent
    absolute models.  The rule covers both homogeneous suffixes
    (``"2b@1.6GHz"``) and heterogeneous per-core vectors
    (``"4@2.4/2.4/1.6/1.6GHz"``): each heterogeneous ladder gets its own
    ratio model against the same base placement, so per-core operating
    points inherit the base's placement accuracy just like the homogeneous
    P-states do.
    """
    features = dataset.feature_matrix()
    models: Dict[str, "ConfigurationModel"] = {}
    names = list(dataset.target_configurations)
    # Nominal placements first: they serve as bases for the ratio models.
    for config_name in names:
        if "@" not in config_name:
            targets = dataset.target_vector(config_name)
            models[config_name] = LinearIPCModel().fit(features, targets)
    for config_name in names:
        if "@" in config_name:
            base_name = config_name.split("@", 1)[0]
            targets = dataset.target_vector(config_name)
            if base_name in models:
                base_targets = dataset.target_vector(base_name)
                ratios = targets / np.maximum(base_targets, 1e-9)
                ratio_model = LinearIPCModel().fit(features, ratios)
                models[config_name] = FrequencyRatioModel(
                    models[base_name], ratio_model
                )
            else:
                models[config_name] = LinearIPCModel().fit(features, targets)
    return IPCPredictor(
        event_set=dataset.event_set,
        sample_configuration=dataset.sample_configuration,
        models=models,
        kind="linear",
    )


def train_predictor_bundle(
    machine: Machine,
    workloads: Sequence[Workload],
    options: Optional[ANNTrainingOptions] = None,
    include_reduced: bool = True,
    linear: bool = False,
    target_configurations: Optional[Sequence[str]] = None,
    pstate_table: Optional[PStateTable] = None,
    include_heterogeneous: bool = False,
) -> PredictorBundle:
    """Train the full-event (and optionally reduced-event) predictors.

    Parameters
    ----------
    machine:
        Machine used to collect training measurements.
    workloads:
        Training applications.
    options:
        Training hyper-parameters.
    include_reduced:
        Whether to also train the reduced-event predictor used for phases
        whose sampling budget cannot cover the full event set.
    linear:
        Train least-squares models instead of ANN ensembles (the paper's
        regression baseline).
    pstate_table:
        When supplied, the targets span the placement × frequency
        cross-product so one ``predict_batch`` call scores the whole DVFS
        space (used by :class:`~repro.core.policies.EnergyAwarePolicy`).
    include_heterogeneous:
        With a ``pstate_table``, additionally train targets for the
        bounded heterogeneous per-core ladders; heterogeneous targets
        (``"4@2.4/2.4/1.6/1.6GHz"``) are fitted as
        :class:`~repro.core.predictor.FrequencyRatioModel` on top of their
        base placement, exactly like the homogeneous frequency suffixes.
    """
    options = options or ANNTrainingOptions()

    def _train(event_set: EventSet, seed_offset: int) -> IPCPredictor:
        dataset = collect_training_dataset(
            machine,
            workloads,
            event_set=event_set,
            target_configurations=target_configurations,
            samples_per_phase=options.samples_per_phase,
            measurement_noise=options.measurement_noise,
            seed=options.seed + seed_offset,
            pstate_table=pstate_table,
            include_heterogeneous=include_heterogeneous,
        )
        if linear:
            return train_linear_predictor(dataset)
        return train_ipc_predictor(dataset, options)

    full = _train(FULL_EVENT_SET, 0)
    reduced = _train(REDUCED_EVENT_SET, 13) if include_reduced else None
    return PredictorBundle(full=full, reduced=reduced)


def train_default_predictor(
    machine: Machine,
    exclude: Optional[str] = None,
    suite: Optional[WorkloadSuite] = None,
    options: Optional[ANNTrainingOptions] = None,
    linear: bool = False,
) -> PredictorBundle:
    """Train a predictor bundle on the NAS-like suite.

    Parameters
    ----------
    machine:
        Machine used for training measurements.
    exclude:
        Optional workload name to hold out (leave-one-application-out, as
        in the paper's evaluation methodology).
    suite:
        Suite to train on; defaults to the calibrated NAS-like suite.
    options:
        Training hyper-parameters.
    linear:
        Train the regression baseline instead of the ANN ensembles.
    """
    from ..workloads.nas import nas_suite  # local import to avoid cycles

    suite = suite or nas_suite(machine=machine)
    if exclude is not None:
        training_workloads, _ = suite.leave_one_out(exclude)
    else:
        training_workloads = list(suite)
    return train_predictor_bundle(
        machine, training_workloads, options=options, linear=linear
    )
