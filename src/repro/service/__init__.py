"""Adaptation-as-a-service: a micro-batching prediction/control server.

The ACTOR loop of the paper makes its (placement × P-state) decisions as a
library call inside one process.  This package turns that call into a
service tier, so one trained predictor (and one shared execution memo) can
serve a fleet of adapting applications:

* :mod:`repro.service.messages` — the wire-level request/decision types and
  the backpressure rejection (:class:`ServiceOverloadedError`);
* :mod:`repro.service.handlers` — stateless batch handlers mapping a list
  of requests onto **one** array-shaped kernel call:
  :class:`PredictionHandler` scores every pending phase sample through a
  single :meth:`~repro.core.predictor.PredictorBundle.predict_batch` pass,
  :class:`GridHandler` resolves work-fingerprint probes through a single
  memo-backed :meth:`~repro.machine.Machine.execute_grid` launch, and
  :class:`FleetHandler` schedules each batch onto a power-capped
  :class:`~repro.cluster.Fleet` as one decision;
* :mod:`repro.service.batcher` — the bounded request queue and the
  micro-batching scheduler (dispatch on ``max_batch_size`` OR the
  ``max_batch_window`` latency deadline, whichever fires first, except
  that a lone request arriving more than one window after the previous
  lone request dispatches at once; reject with a retry-after hint once
  the queue is saturated);
* :mod:`repro.service.metrics` — the exported counters (decisions/sec,
  batch-size histogram, queue depth, p50/p99 latency, cache hit rates) as
  a plain dict for tests, benches and dashboards;
* :mod:`repro.service.server` — :class:`AdaptationServer`, the asyncio
  front door tying the tiers together, plus an optional JSON-lines TCP
  endpoint.  A connection may pipeline lines (up to ``max_batch_size``
  unanswered, answered in request order), so one connection's lines can
  share a batch.  Errors are structured ``overloaded`` /
  ``shutting_down`` / ``bad_request`` / ``power_cap_infeasible`` /
  ``internal`` responses, never a silently dropped connection;
* :mod:`repro.service.client` — the client shims (bounded retry on
  backpressure) and the closed-loop synthetic load generator used by the
  service benchmark.

Batched decisions select what serial per-phase selection selects on the
same inputs: the handlers reuse the quantized-cache prediction path and
:class:`~repro.core.selector.ConfigurationSelector` ranking the in-process
policies run.  A served prediction can differ from a one-sample prediction
in the last bits, with the rows that shared its forward pass.
"""

from .batcher import MicroBatcher
from .client import AdaptationClient, OpenLoopResult, TCPAdaptationClient, run_open_loop
from .handlers import DecisionHandler, FleetHandler, GridHandler, PredictionHandler
from .messages import (
    AdaptationDecision,
    GridProbeRequest,
    PhaseSampleRequest,
    ServiceOverloadedError,
    ServiceStoppedError,
)
from .metrics import ServiceMetrics
from .server import MAX_REQUEST_LINE_BYTES, AdaptationServer, parse_request_line

__all__ = [
    "AdaptationClient",
    "AdaptationDecision",
    "AdaptationServer",
    "DecisionHandler",
    "FleetHandler",
    "GridHandler",
    "GridProbeRequest",
    "MicroBatcher",
    "OpenLoopResult",
    "PhaseSampleRequest",
    "MAX_REQUEST_LINE_BYTES",
    "PredictionHandler",
    "parse_request_line",
    "ServiceMetrics",
    "ServiceOverloadedError",
    "ServiceStoppedError",
    "TCPAdaptationClient",
    "run_open_loop",
]
