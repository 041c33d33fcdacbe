"""Client shims and the closed-loop synthetic load generator.

:class:`AdaptationClient` wraps an in-process
:class:`~repro.service.server.AdaptationServer` with a bounded
retry-on-backpressure loop: a well-behaved client sleeps a capped,
attempt-scaled, per-client-jittered derivative of the server's
``retry_after`` hint and resubmits, up to ``max_retries`` times — the
jitter is deterministic (seeded per client), so concurrent retriers
desynchronize without sacrificing reproducible tests.
:class:`TCPAdaptationClient` speaks the JSON-lines TCP protocol with the
same retry discipline.

:func:`run_open_loop` is the synthetic fleet used by the service benchmark:
``concurrency`` independent clients, each sending its share of the request
list one at a time.  Despite the name it is a closed loop — each client
waits for its own decision before sending its next request, so at most
``concurrency`` requests are in the service at once; clients never wait
for each other.  It returns an :class:`OpenLoopResult` with the achieved
decisions/sec and every decision in submission order, so benches can both
assert throughput floors and check bit-identical agreement with serial
selection.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..cluster.scheduler import PowerCapInfeasibleError
from .messages import (
    AdaptationDecision,
    GridProbeRequest,
    PhaseSampleRequest,
    ServiceOverloadedError,
    ServiceStoppedError,
)
from .server import AdaptationServer

__all__ = [
    "AdaptationClient",
    "TCPAdaptationClient",
    "OpenLoopResult",
    "run_open_loop",
]

Request = Union[PhaseSampleRequest, GridProbeRequest]

#: Distinct default jitter seeds handed out per constructed client, so a
#: fleet built without explicit seeds still desynchronizes — and does so
#: deterministically: creation order alone defines each client's stream.
_DEFAULT_JITTER_SEEDS = itertools.count()


class _RetryBackoff:
    """Shared retry-backoff discipline of the client shims.

    Every rejected client sleeping the server's identical ``retry_after``
    hint and resubmitting in lockstep recreates the overload as one
    synchronized wave (a retry stampede).  Both shims therefore derive
    each sleep from :meth:`next_retry_delay`: the hint, capped, scaled by
    the retry attempt, and multiplied by a *deterministic per-client*
    jitter factor — seeded, so tests (and the service bench) stay
    reproducible while concurrent retriers spread out.
    """

    def _init_backoff(
        self,
        max_retries: int,
        backoff_cap: float,
        backoff_factor: float,
        jitter: float,
        jitter_seed: Optional[int],
    ) -> None:
        if backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        self.max_retries = max_retries
        self.backoff_cap = backoff_cap
        self.backoff_factor = backoff_factor
        self.jitter = jitter
        self.retries = 0
        self._rng = random.Random(
            next(_DEFAULT_JITTER_SEEDS) if jitter_seed is None else jitter_seed
        )

    def next_retry_delay(self, retry_after: float, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based) of a rejected request.

        The server's hint is clamped to ``[0, backoff_cap]``, scaled by
        ``backoff_factor ** (attempt - 1)`` (re-capped, so repeated
        rejections back off harder but never stall unboundedly), then
        multiplied by this client's jitter draw in ``(1 - jitter, 1]`` —
        clients rejected together wake apart, even at the cap.
        """
        base = min(max(retry_after, 0.0), self.backoff_cap)
        scaled = min(
            base * self.backoff_factor ** max(attempt - 1, 0), self.backoff_cap
        )
        return scaled * (1.0 - self.jitter * self._rng.random())


class AdaptationClient(_RetryBackoff):
    """In-process client with bounded, jittered retry on backpressure.

    Parameters
    ----------
    server:
        The server to submit against.
    max_retries:
        How many times a rejected request is resubmitted before the
        :class:`~repro.service.messages.ServiceOverloadedError` propagates.
    backoff_cap:
        Upper bound (seconds) on any single retry sleep, so a pessimistic
        ``retry_after`` hint cannot stall a client indefinitely.
    backoff_factor:
        Attempt-scaling of the hint: retry ``n`` sleeps up to
        ``hint * backoff_factor ** (n - 1)`` (still capped).
    jitter:
        Fraction of each sleep subject to the per-client jitter draw
        (``0`` restores identical lockstep sleeps).
    jitter_seed:
        Seed of this client's deterministic jitter stream; by default each
        constructed client draws the next seed from a process-wide
        counter, so fleets desynchronize reproducibly.
    """

    def __init__(
        self,
        server: AdaptationServer,
        max_retries: int = 8,
        backoff_cap: float = 0.25,
        backoff_factor: float = 2.0,
        jitter: float = 0.5,
        jitter_seed: Optional[int] = None,
    ) -> None:
        self.server = server
        self._init_backoff(max_retries, backoff_cap, backoff_factor, jitter, jitter_seed)

    async def request(self, request: Request) -> AdaptationDecision:
        """Submit one request, retrying on backpressure with the hint."""
        attempts = 0
        while True:
            try:
                return await self.server.submit(request)
            except ServiceOverloadedError as exc:
                attempts += 1
                if attempts > self.max_retries:
                    raise
                self.retries += 1
                await asyncio.sleep(self.next_retry_delay(exc.retry_after, attempts))


class TCPAdaptationClient(_RetryBackoff):
    """JSON-lines TCP client mirroring :class:`AdaptationClient`'s retry.

    It sends one line at a time and reads that line's answer before the
    next.  The server also accepts pipelined lines and answers them in
    order, but it needs no change here: a caller wanting more requests in
    flight opens more clients.
    """

    def __init__(
        self,
        host: str,
        port: int,
        max_retries: int = 8,
        backoff_cap: float = 0.25,
        backoff_factor: float = 2.0,
        jitter: float = 0.5,
        jitter_seed: Optional[int] = None,
    ) -> None:
        self.host = host
        self.port = port
        self._init_backoff(max_retries, backoff_cap, backoff_factor, jitter, jitter_seed)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        self._reader = None
        self._writer = None

    async def __aenter__(self) -> "TCPAdaptationClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    async def request(self, request: Request) -> AdaptationDecision:
        """Send one request over the wire, retrying on backpressure."""
        if self._reader is None or self._writer is None:
            raise RuntimeError("TCPAdaptationClient is not connected")
        payload = request.to_payload()
        payload["kind"] = (
            "grid_probe" if isinstance(request, GridProbeRequest) else "phase_sample"
        )
        line = json.dumps(payload).encode("utf-8") + b"\n"
        attempts = 0
        while True:
            self._writer.write(line)
            await self._writer.drain()
            raw = await self._reader.readline()
            if not raw:
                raise ConnectionError("adaptation service closed the connection")
            response = json.loads(raw.decode("utf-8"))
            if response.get("ok"):
                return AdaptationDecision.from_payload(response["decision"])
            error = response.get("error")
            if error == "overloaded":
                attempts += 1
                if attempts > self.max_retries:
                    raise ServiceOverloadedError(
                        retry_after=float(response.get("retry_after", 0.0)),
                        queue_depth=int(response.get("queue_depth", 0)),
                        max_queue_depth=int(response.get("max_queue_depth", 0)),
                    )
                self.retries += 1
                await asyncio.sleep(
                    self.next_retry_delay(
                        float(response.get("retry_after", 0.0)), attempts
                    )
                )
                continue
            if error == "shutting_down":
                # Non-retriable: the server is going away, and unlike a
                # backpressure rejection there is no future capacity to
                # wait for on this endpoint.
                raise ServiceStoppedError(
                    str(
                        response.get("detail")
                        or "adaptation service stopped before serving"
                    )
                )
            if error == "power_cap_infeasible":
                # Non-retriable: resubmitting cannot lower the batch's
                # minimum draw below the cap.
                raise PowerCapInfeasibleError(
                    float(response["cap_watts"]),
                    float(response["min_feasible_watts"]),
                )
            if error == "internal":
                raise RuntimeError(
                    "adaptation service internal error: "
                    f"{response.get('detail')}"
                )
            raise ValueError(
                f"adaptation service rejected request: {response.get('detail')}"
            )


@dataclass
class OpenLoopResult:
    """Outcome of one :func:`run_open_loop` run (a closed-loop client fleet)."""

    decisions: List[AdaptationDecision]
    elapsed_seconds: float
    retries: int
    metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def decisions_per_second(self) -> float:
        """Achieved end-to-end decision throughput."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return len(self.decisions) / self.elapsed_seconds


async def run_open_loop(
    server: AdaptationServer,
    requests: Sequence[Request],
    concurrency: int = 8,
    max_retries: int = 64,
    backoff_cap: float = 0.05,
) -> OpenLoopResult:
    """Drive ``requests`` through ``server`` with a closed-loop client fleet.

    The request list is dealt round-robin to ``concurrency`` clients; each
    client sends its share sequentially, awaiting each decision before its
    next request, so the service holds at most ``concurrency`` requests at
    a time.  Decisions come back in the original request order.
    """
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    clients = [
        AdaptationClient(
            server,
            max_retries=max_retries,
            backoff_cap=backoff_cap,
            jitter_seed=i,
        )
        for i in range(concurrency)
    ]
    slots: List[Optional[AdaptationDecision]] = [None] * len(requests)

    async def drive(client_index: int) -> None:
        client = clients[client_index]
        for i in range(client_index, len(requests), concurrency):
            slots[i] = await client.request(requests[i])

    start = time.perf_counter()
    await asyncio.gather(*(drive(i) for i in range(len(clients))))
    elapsed = time.perf_counter() - start
    missing = [i for i, d in enumerate(slots) if d is None]
    if missing:
        raise RuntimeError(f"client fleet left {len(missing)} requests unanswered")
    return OpenLoopResult(
        decisions=list(slots),  # type: ignore[arg-type]
        elapsed_seconds=elapsed,
        retries=sum(client.retries for client in clients),
        metrics=server.metrics(),
    )
