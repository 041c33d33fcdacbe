"""Concurrency-adaptation policies (ACTOR controllers).

Every policy implements the :class:`repro.openmp.runtime.ConcurrencyController`
protocol — the pair of instrumentation calls the paper inserts around each
OpenMP phase — and decides, per phase, which threading configuration to use:

* :class:`StaticPolicy` — a fixed configuration for everything (the paper's
  baseline is the all-cores configuration ``4``);
* :class:`PredictionPolicy` — the paper's contribution: sample hardware
  counters at maximal concurrency for the first few instances of each phase,
  predict the IPC of every configuration with the ANN ensembles, and lock the
  phase to the configuration with the highest predicted IPC; over a bundle of
  the multiple-linear-regression models of the paper's earlier work [3]
  (``train_predictor_bundle(..., linear=True)``) the same policy is that
  work's regression baseline and names itself ``"regression"``;
* :class:`SearchPolicy` — the empirical-search baseline [17]: try every
  candidate configuration on successive instances and keep the best measured
  one;
* :class:`EnergyAwarePolicy` — the DVFS extension: identical sampling flow,
  but the candidate set is the placement × frequency cross-product and the
  selection objective is an energy metric (energy, EDP or ED²) instead of
  raw predicted IPC;
* :class:`OraclePhasePolicy` / :class:`OracleGlobalPolicy` — the two
  oracle-derived comparison strategies built from exhaustive offline
  measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..machine.dvfs import PStateTable, default_pstate_table
from ..machine.placement import (
    CONFIG_4,
    Configuration,
    configuration_by_name,
    standard_configurations,
)
from ..machine.power import PowerParameters
from ..machine.topology import Topology
from ..openmp.region import ParallelRegion
from ..openmp.runtime import PhaseDirective, PhaseObservation
from ..workloads.base import Workload
from .events import DEFAULT_SAMPLING_FRACTION, select_event_set
from .oracle import OracleTable
from .predictor import IPCPredictor, PredictorBundle, UnknownEventSetError
from .sampler import PhaseSampler
from .selector import ConfigurationSelector, EnergyCostModel, RankedPrediction

__all__ = [
    "AdaptationPolicy",
    "StaticPolicy",
    "PredictionPolicy",
    "EnergyAwarePolicy",
    "SearchPolicy",
    "OraclePhasePolicy",
    "OracleGlobalPolicy",
]


class AdaptationPolicy:
    """Base class for ACTOR policies.

    Subclasses implement :meth:`before_phase` / :meth:`after_phase`; the
    optional :meth:`prepare` hook gives the policy access to the workload
    about to run (e.g. its timestep count, which defines the sampling
    budget).
    """

    #: Short name used in reports and experiment tables.
    name = "policy"

    def prepare(self, workload: Workload) -> None:
        """Called by ACTOR before a run starts (default: no-op)."""

    def before_phase(self, region: ParallelRegion, timestep: int) -> PhaseDirective:
        """Decide the configuration (and sampling) of the next instance."""
        raise NotImplementedError

    def after_phase(self, observation: PhaseObservation) -> None:
        """Observe the outcome of the instance just executed (default: no-op)."""

    def decisions(self) -> Dict[str, str]:
        """Final configuration decision per phase (empty if not applicable)."""
        return {}


class StaticPolicy(AdaptationPolicy):
    """Always run every phase on one fixed configuration."""

    def __init__(self, configuration: Configuration = CONFIG_4) -> None:
        self.configuration = configuration
        self.name = f"static-{configuration.name}"

    def before_phase(self, region: ParallelRegion, timestep: int) -> PhaseDirective:
        return PhaseDirective(configuration=self.configuration)

    def decisions(self) -> Dict[str, str]:
        return {}


@dataclass
class _PredictionPhaseState:
    """Per-phase bookkeeping of the prediction policy."""

    sampler: PhaseSampler
    predictor: IPCPredictor
    decision: Optional[Configuration] = None
    ranking: Optional[RankedPrediction] = None


class PredictionPolicy(AdaptationPolicy):
    """ANN-prediction-based concurrency throttling (the paper's ACTOR policy).

    Parameters
    ----------
    bundle:
        Trained full-event / reduced-event predictors.
    sample_configuration:
        Configuration used during the sampling period (the paper samples at
        maximal concurrency so contention is maximally visible).
    sampling_fraction:
        Cap on the fraction of a phase's timesteps spent sampling.
    counter_registers:
        Number of simultaneously measurable events.
    selector:
        Ranking/selection strategy (defaults to highest predicted IPC).
    """

    name = "prediction"

    def __init__(
        self,
        bundle: PredictorBundle,
        sample_configuration: Optional[Configuration] = None,
        sampling_fraction: float = DEFAULT_SAMPLING_FRACTION,
        counter_registers: int = 2,
        selector: Optional[ConfigurationSelector] = None,
    ) -> None:
        self.bundle = bundle
        self.sample_configuration = sample_configuration or configuration_by_name(
            bundle.sample_configuration
        )
        self.sampling_fraction = sampling_fraction
        self.counter_registers = counter_registers
        self.selector = selector or ConfigurationSelector()
        self._states: Dict[str, _PredictionPhaseState] = {}
        self._timesteps: int = 20
        if bundle.full.kind == "linear":
            self.name = "regression"

    # ------------------------------------------------------------------
    def prepare(self, workload: Workload) -> None:
        self._timesteps = workload.timesteps
        self._states = {}

    def _state_for(self, region: ParallelRegion) -> _PredictionPhaseState:
        key = region.phase_name
        if key not in self._states:
            event_set = select_event_set(
                self._timesteps,
                fraction=self.sampling_fraction,
                registers=self.counter_registers,
            )
            try:
                predictor = self.bundle.for_event_set(event_set.name)
            except UnknownEventSetError:
                predictor = self.bundle.full
                event_set = predictor.event_set
            self._states[key] = _PredictionPhaseState(
                sampler=PhaseSampler(
                    event_set=event_set,
                    timesteps=self._timesteps,
                    sampling_fraction=self.sampling_fraction,
                ),
                predictor=predictor,
            )
        return self._states[key]

    # ------------------------------------------------------------------
    def _decision_configuration(self, name: str) -> Configuration:
        """Resolve a ranked configuration name into a configuration."""
        return configuration_by_name(name)

    def before_phase(self, region: ParallelRegion, timestep: int) -> PhaseDirective:
        state = self._state_for(region)
        if state.decision is not None:
            return PhaseDirective(configuration=state.decision)
        return PhaseDirective(
            configuration=self.sample_configuration,
            sample_events=state.sampler.next_events(),
        )

    def after_phase(self, observation: PhaseObservation) -> None:
        state = self._states.get(observation.phase_name)
        if state is None or state.decision is not None:
            return
        if observation.reading is None:
            return
        state.sampler.record(observation.reading)
        if not state.sampler.complete:
            return
        aggregate = state.sampler.aggregate()
        predictions = state.predictor.predict_from_rates(
            aggregate.ipc_sample, aggregate.rates
        )
        ranking = self.selector.rank(
            predictions,
            measured_sample=(self.sample_configuration.name, aggregate.ipc_sample),
        )
        state.ranking = ranking
        state.decision = self._decision_configuration(ranking.best)

    # ------------------------------------------------------------------
    def decisions(self) -> Dict[str, str]:
        return {
            phase: state.decision.name
            for phase, state in self._states.items()
            if state.decision is not None
        }

    def rankings(self) -> Dict[str, RankedPrediction]:
        """Per-phase prediction rankings (for accuracy analysis)."""
        return {
            phase: state.ranking
            for phase, state in self._states.items()
            if state.ranking is not None
        }


class EnergyAwarePolicy(PredictionPolicy):
    """Joint DVFS × concurrency adaptation minimizing an energy objective.

    The sampling flow is identical to :class:`PredictionPolicy` — counters
    are sampled at maximal concurrency and nominal frequency — but the
    predictor bundle scores the full placement × frequency cross-product
    (one model per (placement, P-state) target, evaluated in a single
    ``predict_batch``), and the selector minimizes an energy objective
    using the analytic :class:`~repro.core.selector.EnergyCostModel`
    instead of maximizing raw predicted IPC (which, being a per-cycle
    quantity, would wrongly favour low clocks).

    The candidate space may also include heterogeneous per-core P-state
    ladders (targets like ``"4@2.4/2.4/1.6/1.6GHz"`` from
    ``train_predictor_bundle(..., include_heterogeneous=True)``): their
    names resolve through the same ``configuration_by_name`` path, the cost
    model charges each core its own f·V² scale and converts predicted IPCs
    to time through the master (thread-0) clock the simulator defines
    heterogeneous IPC in, and staged selection ranks them within their base
    placement's frequency pool.

    Parameters
    ----------
    bundle:
        Predictors whose target configurations span the placement ×
        frequency cross-product (see
        ``train_predictor_bundle(..., pstate_table=...)``), optionally
        enlarged by the bounded heterogeneous ladders.
    objective:
        ``"energy"``, ``"edp"``, ``"ed2"`` (the paper line's headline
        metric, default) or ``"time"``.
    topology:
        Platform structure used by the power estimates; the paper's
        quad-core Xeon by default.
    pstate_table:
        DVFS table the bundle's frequency-suffixed target names resolve
        against; the default three-point ladder when omitted.
    power_parameters:
        Wall-power coefficients of the cost model.
    guard_band:
        Hysteresis of the selection (see
        :class:`~repro.core.selector.ConfigurationSelector`): a candidate
        only displaces the time-optimal choice when its estimated
        objective score is at least this fraction better.
    two_stage:
        Staged adaptation (default, as in the DVFS follow-up work): fix
        the placement by highest predicted nominal-frequency IPC, then
        optimize the energy objective across that placement's P-states.
        ``False`` selects jointly over the whole cross-product.
    """

    name = "energy-aware"

    def __init__(
        self,
        bundle: PredictorBundle,
        objective: str = "ed2",
        topology: Optional[Topology] = None,
        pstate_table: Optional[PStateTable] = None,
        power_parameters: Optional[PowerParameters] = None,
        guard_band: float = 0.0,
        two_stage: bool = True,
        sample_configuration: Optional[Configuration] = None,
        sampling_fraction: float = DEFAULT_SAMPLING_FRACTION,
        counter_registers: int = 2,
    ) -> None:
        self.pstate_table = pstate_table or default_pstate_table()
        candidate_names = list(bundle.target_configurations)
        if bundle.sample_configuration not in candidate_names:
            candidate_names.append(bundle.sample_configuration)
        candidates = [
            configuration_by_name(name, self.pstate_table) for name in candidate_names
        ]
        cost_model = EnergyCostModel(
            candidates,
            topology=topology,
            power_parameters=power_parameters,
            pstate_table=self.pstate_table,
        )
        selector = ConfigurationSelector(
            objective=objective,
            cost_model=cost_model,
            guard_band=guard_band,
            two_stage=two_stage,
        )
        super().__init__(
            bundle,
            sample_configuration=sample_configuration,
            sampling_fraction=sampling_fraction,
            counter_registers=counter_registers,
            selector=selector,
        )
        self.objective = objective
        self.cost_model = cost_model
        self.name = f"energy-{objective}"

    def _decision_configuration(self, name: str) -> Configuration:
        return configuration_by_name(name, self.pstate_table)


@dataclass
class _SearchPhaseState:
    """Per-phase bookkeeping of the empirical search policy."""

    remaining: List[Configuration]
    observations: Dict[str, float] = field(default_factory=dict)
    pending: Optional[str] = None
    decision: Optional[Configuration] = None


class SearchPolicy(AdaptationPolicy):
    """Empirical search over configurations (the paper's earlier approach [17]).

    Each candidate configuration is executed for one instance of the phase;
    the configuration with the highest observed IPC is then locked in.  The
    search overhead grows linearly with the number of candidate
    configurations, which is the scalability concern that motivates the
    prediction-based approach.
    """

    name = "search"

    def __init__(self, configurations: Optional[Sequence[Configuration]] = None) -> None:
        self.configurations = list(configurations or standard_configurations())
        self._states: Dict[str, _SearchPhaseState] = {}

    def prepare(self, workload: Workload) -> None:
        self._states = {}

    def _state_for(self, region: ParallelRegion) -> _SearchPhaseState:
        key = region.phase_name
        if key not in self._states:
            self._states[key] = _SearchPhaseState(remaining=list(self.configurations))
        return self._states[key]

    def before_phase(self, region: ParallelRegion, timestep: int) -> PhaseDirective:
        state = self._state_for(region)
        if state.decision is not None:
            return PhaseDirective(configuration=state.decision)
        candidate = state.remaining[0]
        state.pending = candidate.name
        return PhaseDirective(configuration=candidate)

    def after_phase(self, observation: PhaseObservation) -> None:
        state = self._states.get(observation.phase_name)
        if state is None or state.decision is not None or state.pending is None:
            return
        state.observations[state.pending] = observation.ipc
        state.remaining = [c for c in state.remaining if c.name != state.pending]
        state.pending = None
        if not state.remaining:
            best = max(state.observations, key=state.observations.get)  # type: ignore[arg-type]
            state.decision = configuration_by_name(best)

    def decisions(self) -> Dict[str, str]:
        return {
            phase: state.decision.name
            for phase, state in self._states.items()
            if state.decision is not None
        }


class OraclePhasePolicy(AdaptationPolicy):
    """Use the true best configuration of every phase (the paper's phase optimal)."""

    name = "phase-optimal"

    def __init__(self, oracle: OracleTable, metric: str = "time_seconds") -> None:
        self.oracle = oracle
        self.metric = metric
        self._assignment = {
            phase: configuration_by_name(config)
            for phase, config in oracle.phase_optimal_configurations(metric).items()
        }

    def before_phase(self, region: ParallelRegion, timestep: int) -> PhaseDirective:
        configuration = self._assignment.get(region.phase_name, CONFIG_4)
        return PhaseDirective(configuration=configuration)

    def decisions(self) -> Dict[str, str]:
        return {phase: config.name for phase, config in self._assignment.items()}


class OracleGlobalPolicy(AdaptationPolicy):
    """Use the true best single configuration for the whole application."""

    name = "global-optimal"

    def __init__(self, oracle: OracleTable, metric: str = "time_seconds") -> None:
        self.oracle = oracle
        self.metric = metric
        self.configuration = configuration_by_name(
            oracle.global_optimal_configuration(metric)
        )

    def before_phase(self, region: ParallelRegion, timestep: int) -> PhaseDirective:
        return PhaseDirective(configuration=self.configuration)

    def decisions(self) -> Dict[str, str]:
        return {
            phase: self.configuration.name for phase in self.oracle.phase_names()
        }
