"""Batch decision handlers: many requests in, one kernel call, decisions out.

A handler is the stateless-looking tier between the batching scheduler and
the array-shaped engines of the library.  It receives the whole coalesced
batch at once and must answer it with **one** vectorized pass — that single
call is the entire point of micro-batching:

* :class:`PredictionHandler` — the online path.  Every request carries a
  sampled phase (IPC + counter rates); the handler scores all target
  configurations for all pending samples through the bundle's quantized
  cache and one :meth:`~repro.core.predictor.IPCPredictor.predict_batch`
  forward pass, then ranks each row with the exact
  :class:`~repro.core.selector.ConfigurationSelector` the in-process
  policies use — so batched decisions are identical to serial per-phase
  selection on the same inputs.
* :class:`GridHandler` — the fingerprint path.  Requests carry full
  :class:`~repro.machine.work.WorkRequest` characterizations; the handler
  evaluates the whole batch against the candidate space in one shared,
  memo-backed :meth:`~repro.machine.Machine.execute_grid` launch and picks
  each row's best configuration under the configured objective.  Repeated
  fingerprints (fleets run the same phases over and over) are pure memo
  hits.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from ..core.selector import ConfigurationSelector
from ..core.predictor import PredictorBundle
from ..machine.machine import Machine
from ..machine.placement import Configuration, standard_configurations
from ..store.memo_store import MemoStore
from .messages import AdaptationDecision, GridProbeRequest, PhaseSampleRequest

__all__ = ["DecisionHandler", "PredictionHandler", "GridHandler", "FleetHandler"]

#: Objective aliases accepted by :class:`GridHandler`, mapped to the metric
#: arrays of :class:`~repro.machine.machine.GridExecutionResult` and whether
#: the metric is minimized.
_GRID_OBJECTIVES: Dict[str, tuple] = {
    "ipc": ("ipc", False),
    "time": ("time_seconds", True),
    "energy": ("energy_joules", True),
    "edp": ("edp", True),
    "ed2": ("ed2", True),
}


class DecisionHandler:
    """Interface of a batch decision handler."""

    def handle_batch(self, requests: Sequence) -> List[AdaptationDecision]:
        """Answer every request of one coalesced batch, in input order."""
        raise NotImplementedError

    def cache_info(self) -> Dict[str, Dict[str, float]]:
        """Per-cache counters to merge into the metrics snapshot."""
        return {}


class PredictionHandler(DecisionHandler):
    """Predict-and-select for a batch of phase samples in one forward pass.

    Parameters
    ----------
    bundle:
        Trained predictor bundle (its quantized LRU cache fronts the
        batched path, so repeated phase samples skip model evaluation).
    selector:
        Ranking strategy; the paper's highest-predicted-IPC selector by
        default.  Pass an energy-objective selector (with its cost model)
        for DVFS-aware serving.
    include_measured_sample:
        Include the directly measured sample-configuration IPC in each
        ranking, exactly as :class:`~repro.core.policies.PredictionPolicy`
        does (default).
    """

    def __init__(
        self,
        bundle: PredictorBundle,
        selector: Optional[ConfigurationSelector] = None,
        include_measured_sample: bool = True,
    ) -> None:
        self.bundle = bundle
        self.selector = selector or ConfigurationSelector()
        self.include_measured_sample = include_measured_sample

    def handle_batch(
        self, requests: Sequence[PhaseSampleRequest]
    ) -> List[AdaptationDecision]:
        decisions: List[Optional[AdaptationDecision]] = [None] * len(requests)
        # One predict_batch per event set present in the batch (almost
        # always exactly one); rows keep their input positions.
        groups: Dict[Optional[str], List[int]] = {}
        for index, request in enumerate(requests):
            groups.setdefault(request.event_set, []).append(index)
        for event_set, indices in groups.items():
            samples = [
                (requests[i].ipc_sample, requests[i].rates_dict()) for i in indices
            ]
            rows = self.bundle.predict_batch_from_rates(samples, event_set=event_set)
            for i, predictions in zip(indices, rows):
                request = requests[i]
                measured = (
                    (self.bundle.sample_configuration, request.ipc_sample)
                    if self.include_measured_sample
                    else None
                )
                ranking = self.selector.rank(predictions, measured_sample=measured)
                decisions[i] = AdaptationDecision(
                    client_id=request.client_id,
                    phase=request.phase,
                    configuration=ranking.best,
                    objective=self.selector.objective,
                    ranking=ranking.ranking,
                    predicted=ranking.predictions,
                )
        return decisions  # type: ignore[return-value]

    def cache_info(self) -> Dict[str, Dict[str, float]]:
        info = self.bundle.cache_info()
        return {
            "prediction_cache": {
                "hits": info.hits,
                "misses": info.misses,
                "evictions": info.evictions,
                "size": info.size,
                "capacity": info.capacity,
                "hit_rate": info.hit_rate,
            }
        }


class GridHandler(DecisionHandler):
    """Evaluate a batch of work fingerprints in one shared grid launch.

    Parameters
    ----------
    machine:
        Noise-free machine hosting the shared execution memo; a default
        deterministic platform when omitted.  Handing several handlers the
        same machine shares one memo across them.
    configurations:
        Candidate space (default: the paper's five placements).  Pass
        ``dvfs_configurations(...)`` for the placement × P-state
        cross-product.
    objective:
        ``"ipc"`` (maximize) or ``"time"`` / ``"energy"`` / ``"edp"`` /
        ``"ed2"`` (minimize), resolved against the grid's measured metric
        arrays.
    memo_store:
        Durable :class:`~repro.store.MemoStore` backing the machine's
        memo across server restarts.  The handler seeds its machine from
        the store at construction — a restarted adaptation server answers
        previously seen fingerprints from disk without re-simulating —
        and publishes each batch's freshly simulated cells as an atomic
        delta segment right after scoring it.
    """

    def __init__(
        self,
        machine: Optional[Machine] = None,
        configurations: Optional[Sequence[Configuration]] = None,
        objective: str = "time",
        memo_store: Optional[MemoStore] = None,
    ) -> None:
        if objective not in _GRID_OBJECTIVES:
            raise ValueError(
                f"unknown objective {objective!r}; expected one of "
                f"{sorted(_GRID_OBJECTIVES)}"
            )
        self.machine = machine or Machine(noise_sigma=0.0)
        if self.machine.noise_sigma > 0:
            raise ValueError(
                "GridHandler needs a noise-free machine: decisions must be "
                "deterministic and memoizable (use Machine(noise_sigma=0.0))"
            )
        self.configurations = list(
            configurations or standard_configurations(self.machine.topology)
        )
        self.objective = objective
        self._metric, self._minimize = _GRID_OBJECTIVES[objective]
        self.memo_store = memo_store
        self._persisted_keys: Optional[set] = None
        if memo_store is not None:
            memo_store.seed(self.machine)
            self._persisted_keys = set(self.machine.export_execution_memo().keys())

    def _persist_new_cells(self) -> None:
        """Publish cells simulated since the last persisted batch.

        One scheduler dispatches batches strictly sequentially, so this
        runs unraced.  Already-published cells are tracked as a growing
        key set extended in place with each delta's keys, so a persist
        costs one O(memo) dict scan plus O(new cells) copying and IO —
        no snapshot-tuple rebuild growing with server lifetime.
        """
        if self.memo_store is None:
            return
        assert self._persisted_keys is not None
        delta = self.machine.export_execution_memo(since=self._persisted_keys)
        if len(delta) == 0:
            return
        self.memo_store.append(delta)
        self._persisted_keys.update(delta.keys())

    def handle_batch(
        self, requests: Sequence[GridProbeRequest]
    ) -> List[AdaptationDecision]:
        grid = self.machine.execute_grid(
            [request.work for request in requests], self.configurations
        )
        self._persist_new_cells()
        values = grid.metric(self._metric)
        best = grid.best(self._metric, minimize=self._minimize)
        names = grid.names()
        decisions = []
        for row, (request, choice) in enumerate(zip(requests, best)):
            scores = {name: float(v) for name, v in zip(names, values[row])}
            sign = 1.0 if self._minimize else -1.0
            # Tie-break by name so rankings are deterministic.
            ranking = tuple(sorted(scores, key=lambda n: (sign * scores[n], n)))
            decisions.append(
                AdaptationDecision(
                    client_id=request.client_id,
                    phase=request.phase,
                    configuration=choice.name,
                    objective=self.objective,
                    ranking=ranking,
                    predicted=scores,
                )
            )
        return decisions

    def cache_info(self) -> Dict[str, Dict[str, float]]:
        info = self.machine.execution_memo_info()
        total = info.hits + info.misses
        caches = {
            "execution_memo": {
                "hits": info.hits,
                "misses": info.misses,
                "size": info.size,
                "maxsize": info.maxsize,
                "merged_hits": info.merged_hits,
                "merged_misses": info.merged_misses,
                "hit_rate": info.hits / total if total else 0.0,
                "solver_iterations": info.solver_iterations,
                "solver_evaluations": info.solver_evaluations,
            }
        }
        if self.memo_store is not None:
            store = self.memo_store.info()
            caches["memo_store"] = {
                "segment_files": store.segment_files,
                "replay_bytes": store.replay_bytes,
                "segments_replayed": store.segments_replayed,
                "cells_appended": store.cells_appended,
                "stale_records_skipped": store.stale_records_skipped,
                "corrupt_records_skipped": store.corrupt_records_skipped,
                "torn_tails_truncated": store.torn_tails_truncated,
                "compactions_triggered": store.compactions_triggered,
                "compaction_errors": store.compaction_errors,
            }
        return caches


class FleetHandler(DecisionHandler):
    """Serve fleet scheduling decisions through the micro-batcher.

    The datacenter tier of the service: requests are
    :class:`~repro.service.messages.GridProbeRequest` work
    characterizations, and each coalesced batch is scheduled **as one
    fleet decision** — one memo-backed sweep per node plus the
    water-filling power redistribution of
    :class:`~repro.cluster.FleetScheduler` — under the handler's global
    power cap.  Each request is answered with the chosen configuration
    *and* the node the job was placed on
    (:attr:`~repro.service.messages.AdaptationDecision.node`).

    Batching is semantically meaningful here, beyond amortizing kernel
    launches: jobs that arrive together are placed together, so they
    share the cap optimally instead of being fitted one at a time.

    Parameters
    ----------
    fleet:
        The :class:`~repro.cluster.Fleet` to schedule onto.  Node
        machines must be noise-free (enforced at sweep time).
    power_cap_watts:
        Hard global cap applied to every batch (``None`` = uncapped).
        A batch the cap cannot accommodate at all fails with
        :class:`~repro.cluster.PowerCapInfeasibleError`, surfaced to TCP
        clients as a typed ``power_cap_infeasible`` answer carrying the cap
        and the minimum feasible draw.
    """

    def __init__(self, fleet, power_cap_watts: Optional[float] = None) -> None:
        from ..cluster import FleetScheduler

        if not len(fleet):
            raise ValueError("FleetHandler needs a fleet with at least one node")
        self.fleet = fleet
        self.power_cap_watts = power_cap_watts
        self.scheduler = FleetScheduler(fleet)

    def handle_batch(
        self, requests: Sequence[GridProbeRequest]
    ) -> List[AdaptationDecision]:
        from ..cluster import FleetJob

        jobs = [
            FleetJob(name=f"{r.client_id}/{r.phase}", work=r.work)
            for r in requests
        ]
        schedule = self.scheduler.schedule(jobs, self.power_cap_watts)
        decisions = []
        for request, decision in zip(requests, schedule.decisions):
            decisions.append(
                AdaptationDecision(
                    client_id=request.client_id,
                    phase=request.phase,
                    configuration=decision.configuration,
                    objective="fleet-throughput",
                    ranking=(decision.configuration,),
                    predicted={
                        "time_seconds": decision.time_seconds,
                        "power_watts": decision.power_watts,
                        "fleet_power_watts": schedule.total_power_watts,
                    },
                    node=decision.node,
                )
            )
        return decisions

    def cache_info(self) -> Dict[str, Dict[str, float]]:
        """Execution-memo counters summed over the fleet's nodes."""
        totals = {"hits": 0.0, "misses": 0.0, "size": 0.0, "merged_hits": 0.0}
        for node in self.fleet:
            info = node.machine.execution_memo_info()
            totals["hits"] += info.hits
            totals["misses"] += info.misses
            totals["size"] += info.size
            totals["merged_hits"] += info.merged_hits
        served = totals["hits"] + totals["misses"]
        totals["hit_rate"] = totals["hits"] / served if served else 0.0
        totals["nodes"] = float(len(self.fleet))
        return {"fleet_memo": totals}
