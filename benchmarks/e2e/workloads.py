"""The four workloads: what each sends, which server answers, and the reference.

Inputs derive only from the run's ``--seed``; the servers themselves are
built from fixed constants, identically on every commit.  The same builders
make the server's handler (in the launcher) and the reference handler that
re-checks every answer (in the benchmark process).
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core import FULL_EVENT_SET, train_predictor_bundle
from repro.experiments import ExperimentContext
from repro.experiments.fig_cluster import build_reference_fleet
from repro.machine import CONFIG_4, Machine
from repro.service import (
    FleetHandler,
    GridHandler,
    GridProbeRequest,
    PhaseSampleRequest,
    PredictionHandler,
)
from repro.store import CompactionPolicy, MemoStore
from repro.workloads import nas_suite
from repro.workloads.generator import SyntheticWorkloadGenerator

__all__ = [
    "WORKLOADS",
    "Inputs",
    "Workload",
    "build_handler",
    "check_answers",
    "encode",
    "open_store",
    "prefill_store",
    "request_id",
]

#: Global power cap of the fleet workload (watts).
FLEET_CAP_WATTS = 420.0
#: Synthetic works in the warm pool, next to the 45 NAS phases.
WARM_POOL_SYNTHETIC = 200
#: Share of fleet requests that are new synthetic works.
FLEET_NEW_SHARE = 0.25
#: Relative tolerance of the correctness gate.  ANN matmuls may differ in
#: the last bit across batch shapes, so exact equality is too strict.
RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the ladder constants that judge it."""

    name: str
    light_rate: float  # requests/s at ladder step 0
    limit_ms: float  # tail (p90) latency limit of every ladder step
    peak_requests: int  # closed-loop requests at --seconds 15
    uses_store: bool
    #: Servers set up per untraced run; setup_s is their median.  A set-up
    #: that trains the ANN takes seconds, the others about half a second,
    #: which host noise moves by a third, so they are repeated more.
    setups: int


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("predict-ann", 100.0, 20.0, 2000, False, 3),
        Workload("grid-cold", 25.0, 250.0, 500, True, 7),
        Workload("grid-warm", 50.0, 50.0, 1400, True, 7),
        Workload("fleet-mixed", 100.0, 50.0, 1800, False, 7),
    )
}


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(tag.encode("utf-8"))])


def _synthetic(seed: int, tag: str) -> SyntheticWorkloadGenerator:
    state = np.random.SeedSequence([seed, zlib.crc32(tag.encode("utf-8"))])
    return SyntheticWorkloadGenerator(seed=int(state.generate_state(1)[0]))


class Inputs:
    """Seeded request streams of one workload.

    ``requests(tag, count)`` is a pure function of ``(seed, tag, count)``:
    each phase of a run draws from its own stream, so the peak phase sends
    the same requests however many ladder steps ran before it.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        suite = nas_suite(machine=Machine(noise_sigma=0.0))
        self.nas = [
            (f"{w.name}/{p.name}", p.work) for w in suite for p in w.phases
        ]
        self.pool = list(self.nas)
        if workload.name == "grid-warm":
            generator = _synthetic(seed, "pool")
            self.pool += [
                (f"syn{i}", generator.random_work())
                for i in range(WARM_POOL_SYNTHETIC)
            ]
        if workload.name == "predict-ann":
            self.samples = self._phase_samples()

    def _phase_samples(self):
        """Counter rates of every NAS phase on the sample configuration."""
        machine = Machine(noise_sigma=0.0)
        samples = []
        for name, work in self.nas:
            result = machine.execute(work, CONFIG_4.placement, apply_noise=False)
            rates = {
                event: result.event_counts.get(event, 0.0) / result.cycles
                for event in FULL_EVENT_SET.events
            }
            samples.append((name, result.ipc, rates))
        return samples

    def requests(self, tag: str, count: int) -> List[object]:
        rng = _rng(self.seed, tag)
        name = self.workload.name
        out: List[object] = []
        if name == "predict-ann":
            # A factor in [0.8, 1.2] per request keeps every sample a
            # distinct prediction-cache key: every request runs the ANN.
            picks = rng.integers(0, len(self.samples), count)
            factors = rng.uniform(0.8, 1.2, count)
            for i, (pick, factor) in enumerate(zip(picks, factors)):
                phase, ipc, rates = self.samples[pick]
                out.append(
                    PhaseSampleRequest(
                        client_id="e2e",
                        phase=f"{tag}.{i}:{phase}",
                        ipc_sample=float(ipc * factor),
                        rates={e: float(r * factor) for e, r in rates.items()},
                    )
                )
            return out
        if name == "grid-cold":
            generator = _synthetic(self.seed, tag)
            works = [("syn", generator.random_work()) for _ in range(count)]
        elif name == "grid-warm":
            works = [self.pool[j] for j in rng.integers(0, len(self.pool), count)]
        else:  # fleet-mixed
            generator = _synthetic(self.seed, tag)
            works = []
            for new, j in zip(
                rng.random(count) < FLEET_NEW_SHARE,
                rng.integers(0, len(self.nas), count),
            ):
                works.append(("syn", generator.random_work()) if new else self.nas[j])
        return [
            GridProbeRequest(client_id="e2e", phase=f"{tag}.{i}:{label}", work=work)
            for i, (label, work) in enumerate(works)
        ]


def encode(request) -> bytes:
    payload = {"kind": "grid_probe" if isinstance(request, GridProbeRequest) else "phase_sample"}
    payload.update(request.to_payload())
    return json.dumps(payload).encode("utf-8") + b"\n"


def request_id(request) -> str:
    return f"{request.client_id}/{request.phase}"


# ----------------------------------------------------------------------
# servers
# ----------------------------------------------------------------------
def train_bundle():
    """The paper's ANN over the 36 placement x P-state targets."""
    machine = Machine(noise_sigma=0.0)
    return train_predictor_bundle(
        machine,
        nas_suite(machine=Machine(noise_sigma=0.0)),
        options=ExperimentContext(fast=True, seed=2007).training_options(),
        include_reduced=False,
        pstate_table=machine.pstate_table,
        include_heterogeneous=True,
    )


def open_store(directory: str) -> MemoStore:
    return MemoStore(directory, CompactionPolicy())


def build_handler(name: str, store: Optional[MemoStore] = None):
    """The handler the server of workload ``name`` runs."""
    if name == "predict-ann":
        return PredictionHandler(train_bundle())
    if name == "fleet-mixed":
        return FleetHandler(build_reference_fleet(), power_cap_watts=FLEET_CAP_WATTS)
    machine = Machine(noise_sigma=0.0)
    return GridHandler(
        machine,
        configurations=machine.default_configurations(),
        objective="ed2",
        memo_store=store,
    )


def prefill_store(inputs: Inputs, directory: str) -> int:
    """Write every cell of the warm pool into a compacted store."""
    machine = Machine(noise_sigma=0.0)
    machine.execute_grid([work for _, work in inputs.pool], machine.default_configurations())
    store = MemoStore(directory)
    cells = store.absorb(machine)
    store.compact()
    return cells


# ----------------------------------------------------------------------
# the correctness gate
# ----------------------------------------------------------------------
def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def _check_scores(decision: dict, reference) -> Optional[str]:
    predicted = decision.get("predicted") or {}
    if set(predicted) != set(reference.predicted):
        return "scored a different set of configurations"
    for key, value in reference.predicted.items():
        if not _close(float(predicted[key]), value):
            return f"score of {key} is {predicted[key]!r}, reference {value!r}"
    chosen, best = decision.get("configuration"), reference.configuration
    if chosen != best and not (
        chosen in reference.predicted
        and _close(reference.predicted[chosen], reference.predicted[best])
    ):
        return f"chose {chosen}, reference chose {best}"
    return None


def _check_fleet(decision: dict, request, fleet, grids, rows) -> Optional[str]:
    predicted = decision.get("predicted") or {}
    if not predicted.get("fleet_power_watts", float("inf")) <= FLEET_CAP_WATTS:
        return f"fleet power {predicted.get('fleet_power_watts')} W exceeds the cap"
    node = decision.get("node")
    if node not in fleet:
        return f"unknown node {node!r}"
    names = [c.name for c in fleet.node(node).configurations]
    if decision.get("configuration") not in names:
        return f"configuration {decision.get('configuration')!r} is not on {node}"
    row, column = rows[request.work.fingerprint()], names.index(decision["configuration"])
    for metric in ("time_seconds", "power_watts"):
        expected = float(grids[node].metric(metric)[row, column])
        if not _close(float(predicted.get(metric, float("nan"))), expected):
            return f"{metric} {predicted.get(metric)!r}, reference {expected!r}"
    return None


def check_answers(
    name: str, requests: Sequence[object], answers: Sequence[Optional[dict]]
) -> List[str]:
    """Mismatches between the ok answers of workload ``name`` and a
    reference computed in this process, untimed."""
    served = [
        (request, answer["decision"])
        for request, answer in zip(requests, answers)
        if answer is not None and answer.get("ok") is True
    ]
    errors = [
        f"{request_id(request)}: answer echoes another request"
        for request, decision in served
        if (decision.get("client_id"), decision.get("phase"))
        != (request.client_id, request.phase)
    ]
    if not served:
        return errors
    if name == "fleet-mixed":
        # Placement depends on which jobs shared a batch, so each answer is
        # checked against its node's own grid rather than a re-run schedule.
        fleet = build_reference_fleet()
        works = {request.work.fingerprint(): request.work for request, _ in served}
        rows = {fingerprint: i for i, fingerprint in enumerate(works)}
        grids = {
            node.name: node.machine.execute_grid(list(works.values()), node.configurations)
            for node in fleet
        }
        problems = [
            (request, _check_fleet(decision, request, fleet, grids, rows))
            for request, decision in served
        ]
    else:
        references = build_handler(name).handle_batch([request for request, _ in served])
        problems = [
            (request, _check_scores(decision, reference))
            for (request, decision), reference in zip(served, references)
        ]
    return errors + [f"{request_id(r)}: {problem}" for r, problem in problems if problem]
