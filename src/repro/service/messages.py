"""Request and decision types exchanged with the adaptation service.

Requests are immutable, hashable value objects so handlers may key caches
on them and tests may compare them; both request kinds serialize to plain
JSON-able dicts for the TCP endpoint (see :mod:`repro.service.server`).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from ..machine.work import WorkRequest

__all__ = [
    "PhaseSampleRequest",
    "GridProbeRequest",
    "AdaptationDecision",
    "ServiceOverloadedError",
    "ServiceStoppedError",
]


@dataclass(frozen=True)
class PhaseSampleRequest:
    """One phase sample from an adapting client.

    This is the payload ACTOR's sampling period produces online: the IPC
    observed on the sample configuration plus the hardware-counter *rates*
    (events per cycle) of the same instance.  The service predicts the IPC
    of every target configuration from it and returns a decision.

    Attributes
    ----------
    client_id:
        Opaque identifier of the submitting application (echoed back in
        the decision so multiplexed clients can demux responses).
    phase:
        Phase name the sample belongs to (echoed back).
    ipc_sample:
        IPC measured on the sample configuration.
    rates:
        Event-name → per-cycle rate mapping observed during sampling.
    event_set:
        Name of the event set the rates were collected under; ``None``
        selects the bundle's full event set.
    """

    client_id: str
    phase: str
    ipc_sample: float
    rates: Mapping[str, float] = field(default_factory=dict)
    event_set: Optional[str] = None

    def __post_init__(self) -> None:
        # Freeze the mapping so requests stay hashable value objects.
        rates = tuple(sorted(dict(self.rates).items()))
        # JSON decoders accept NaN and Infinity; a non-finite sample would
        # be ranked on NaN predictions and cached under a key no later
        # sample can hit, so it is refused here (a wire bad_request).
        if not math.isfinite(self.ipc_sample):
            raise ValueError(f"ipc_sample must be finite, got {self.ipc_sample}")
        for name, value in rates:
            if not math.isfinite(value):
                raise ValueError(f"rate {name!r} must be finite, got {value}")
        object.__setattr__(self, "rates", rates)

    def rates_dict(self) -> Dict[str, float]:
        """The sampled rates as a plain mapping."""
        return dict(self.rates)

    def to_payload(self) -> Dict[str, object]:
        """JSON-able wire representation."""
        return {
            "client_id": self.client_id,
            "phase": self.phase,
            "ipc_sample": self.ipc_sample,
            "rates": self.rates_dict(),
            "event_set": self.event_set,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "PhaseSampleRequest":
        """Rebuild a request from its wire representation."""
        return cls(
            client_id=str(payload["client_id"]),
            phase=str(payload["phase"]),
            ipc_sample=float(payload["ipc_sample"]),  # type: ignore[arg-type]
            rates={str(k): float(v) for k, v in dict(payload.get("rates") or {}).items()},  # type: ignore[arg-type]
            event_set=(
                None if payload.get("event_set") is None else str(payload["event_set"])
            ),
        )


@dataclass(frozen=True)
class GridProbeRequest:
    """A decision request carrying a full phase characterization.

    Clients that know their phase's :class:`~repro.machine.work.WorkRequest`
    fingerprint (e.g. replayed traces, offline planners) skip prediction
    entirely: the service evaluates the phase across the candidate space
    through one shared memo-backed grid call and returns the best
    configuration under the handler's objective.
    """

    client_id: str
    phase: str
    work: WorkRequest

    def to_payload(self) -> Dict[str, object]:
        """JSON-able wire representation."""
        return {
            "client_id": self.client_id,
            "phase": self.phase,
            "work": dataclasses.asdict(self.work),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "GridProbeRequest":
        """Rebuild a request from its wire representation."""
        return cls(
            client_id=str(payload["client_id"]),
            phase=str(payload["phase"]),
            work=WorkRequest(**dict(payload["work"])),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class AdaptationDecision:
    """The service's answer to one request.

    Attributes
    ----------
    client_id / phase:
        Echoed from the request.
    configuration:
        Name of the selected :class:`~repro.machine.placement.Configuration`
        (resolve with :func:`~repro.machine.placement.configuration_by_name`).
    objective:
        Objective the selection was made under.
    ranking:
        Candidate configuration names in decreasing order of preference.
    predicted:
        Per-candidate predicted IPC (prediction tier) or measured objective
        metric (grid tier) backing the ranking.
    """

    client_id: str
    phase: str
    configuration: str
    objective: str = "ipc"
    ranking: Tuple[str, ...] = ()
    predicted: Mapping[str, float] = field(default_factory=dict)
    #: Fleet tier only: the node the job was placed on (``None`` for
    #: single-machine decisions, and then absent from the payload so the
    #: single-machine wire format is unchanged).
    node: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "predicted", dict(self.predicted))

    def to_payload(self) -> Dict[str, object]:
        """JSON-able wire representation."""
        payload: Dict[str, object] = {
            "client_id": self.client_id,
            "phase": self.phase,
            "configuration": self.configuration,
            "objective": self.objective,
            "ranking": list(self.ranking),
            "predicted": dict(self.predicted),
        }
        if self.node is not None:
            payload["node"] = self.node
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "AdaptationDecision":
        """Rebuild a decision from its wire representation."""
        return cls(
            client_id=str(payload["client_id"]),
            phase=str(payload["phase"]),
            configuration=str(payload["configuration"]),
            objective=str(payload.get("objective", "ipc")),
            ranking=tuple(payload.get("ranking") or ()),  # type: ignore[arg-type]
            predicted={
                str(k): float(v)
                for k, v in dict(payload.get("predicted") or {}).items()  # type: ignore[arg-type]
            },
            node=(
                str(payload["node"]) if payload.get("node") is not None else None
            ),
        )


class ServiceStoppedError(RuntimeError):
    """The service was stopped before this request could be served.

    Raised by :meth:`~repro.service.batcher.MicroBatcher.stop` on every
    queued or in-flight future, and surfaced to TCP clients as a structured
    ``{"ok": false, "error": "shutting_down"}`` response instead of a
    dropped connection.  Retrying against the same endpoint is pointless —
    the server is going away — so client shims treat it as non-retriable.

    Subclasses :class:`RuntimeError` so pre-existing callers catching the
    old bare ``RuntimeError("adaptation service stopped before serving")``
    keep working.
    """

    def __init__(self, detail: str = "adaptation service stopped before serving"):
        super().__init__(detail)


class ServiceOverloadedError(RuntimeError):
    """Backpressure rejection: the request queue is saturated.

    Carries a ``retry_after`` hint (seconds) estimated from the scheduler's
    recent drain rate, so well-behaved clients back off instead of
    hammering a saturated server (see
    :class:`~repro.service.client.AdaptationClient`).
    """

    def __init__(self, retry_after: float, queue_depth: int, max_queue_depth: int):
        super().__init__(
            f"adaptation service overloaded: queue depth {queue_depth} at its "
            f"bound {max_queue_depth}; retry in {retry_after:.4f} s"
        )
        self.retry_after = float(retry_after)
        self.queue_depth = int(queue_depth)
        self.max_queue_depth = int(max_queue_depth)
