"""The asyncio front door: :class:`AdaptationServer` ties the tiers together.

One server = one handler + one micro-batching scheduler + one metrics sink.
In-process callers ``await server.submit(request)``; remote callers speak a
one-line-of-JSON-per-message TCP protocol (:meth:`AdaptationServer.serve_tcp`)
handled by the same batcher, so local and remote requests coalesce into the
same batches.

The JSON-lines endpoint itself lives in :class:`JsonLinesEndpoint`, a mixin
over anything with an async ``submit(request)`` — the sharded front door
(:class:`~repro.service.shard.ShardedAdaptationServer`) reuses it verbatim,
so every fix to the wire protocol's error mapping applies fleet-wide.

The server is an async context manager::

    async with AdaptationServer(PredictionHandler(bundle)) as server:
        decision = await server.submit(request)
        stats = server.metrics()          # plain dict, JSON-able
"""

from __future__ import annotations

import asyncio
import json
import logging
from typing import Dict, Optional, Sequence, Union

from ..cluster.scheduler import PowerCapInfeasibleError
from .batcher import MicroBatcher
from .handlers import DecisionHandler
from .messages import (
    AdaptationDecision,
    GridProbeRequest,
    PhaseSampleRequest,
    ServiceOverloadedError,
    ServiceStoppedError,
)
from .metrics import ServiceMetrics

__all__ = [
    "AdaptationServer",
    "JsonLinesEndpoint",
    "MAX_REQUEST_LINE_BYTES",
    "parse_request_line",
]

logger = logging.getLogger(__name__)

Request = Union[PhaseSampleRequest, GridProbeRequest]

#: Upper bound on one request line.  Matches asyncio's default
#: ``StreamReader`` limit, so a line the reader would refuse to frame is
#: rejected here as a structured ``bad_request`` instead of surfacing as a
#: transport-level error; a legitimate request is a few hundred bytes.
MAX_REQUEST_LINE_BYTES = 64 * 1024


def parse_request_line(line: bytes) -> Request:
    """Decode one JSON-lines request; raises ``ValueError``-family on junk."""
    if len(line) > MAX_REQUEST_LINE_BYTES:
        raise ValueError(
            f"request line of {len(line)} bytes exceeds the "
            f"{MAX_REQUEST_LINE_BYTES}-byte limit"
        )
    payload = json.loads(line.decode("utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    kind = payload.get("kind", "phase_sample")
    if kind == "phase_sample":
        return PhaseSampleRequest.from_payload(payload)
    if kind == "grid_probe":
        return GridProbeRequest.from_payload(payload)
    raise ValueError(f"unknown request kind {kind!r}")


class JsonLinesEndpoint:
    """The JSON-lines TCP protocol over any async ``submit(request)``.

    Protocol: one JSON object per line.  Requests are
    ``{"kind": "phase_sample" | "grid_probe", ...payload}``; responses are

    * ``{"ok": true, "decision": {...}}`` — served;
    * ``{"ok": false, "error": "overloaded", "retry_after": s, ...}`` —
      backpressure rejection, retriable after the hint;
    * ``{"ok": false, "error": "shutting_down", "detail": ...}`` — the
      service stopped before this request was served (non-retriable
      against this endpoint);
    * ``{"ok": false, "error": "bad_request", "detail": ...}`` — the line
      did not parse into a request;
    * ``{"ok": false, "error": "power_cap_infeasible", "cap_watts": w,
      "min_feasible_watts": w}`` — a fleet handler's power cap is below the
      minimum draw of this request's batch (non-retriable while the cap
      stands);
    * ``{"ok": false, "error": "internal", "detail": ...}`` — the handler
      failed on this request's batch.  The connection stays open and keeps
      serving subsequent lines: one poisoned batch must not silently tear
      down every client multiplexed onto the connection.
    """

    _tcp_server: Optional[asyncio.AbstractServer] = None
    _tcp_connections: Optional[set] = None

    async def submit(self, request: Request) -> AdaptationDecision:
        raise NotImplementedError  # pragma: no cover - mixin contract

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def serve_tcp(self, host: str = "127.0.0.1", port: int = 0) -> tuple:
        """Expose the endpoint over TCP; returns the bound ``(host, port)``.

        Raises ``RuntimeError`` when a listener is already active: silently
        replacing it would leak the first socket (nothing would ever close
        it) while ``stop()`` only knew about the last.  Stop the server
        first to rebind.
        """
        if self._tcp_server is not None:
            raise RuntimeError(
                "serve_tcp() called twice: a TCP listener is already active "
                "on this server; stop() it before binding another endpoint"
            )
        await self._start_for_tcp()
        if self._tcp_connections is None:
            self._tcp_connections = set()
        # Frame up to twice the protocol's line limit so an oversized line
        # is answered structurally by parse_request_line's guard instead of
        # tripping the StreamReader's own limit mid-frame.
        self._tcp_server = await asyncio.start_server(
            self._handle_connection,
            host=host,
            port=port,
            limit=2 * MAX_REQUEST_LINE_BYTES,
        )
        sockname = self._tcp_server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def _start_for_tcp(self) -> None:
        """Hook: bring the serving machinery up before binding the socket."""

    def _begin_tcp_shutdown(self) -> Optional[asyncio.AbstractServer]:
        """Phase 1 of shutdown: stop accepting new connections.

        Returns the listener for :meth:`_finish_tcp_shutdown`.  Split in
        two because ``Server.wait_closed`` waits for *active connections*:
        the serving machinery must fail in-flight requests between the
        phases so each connection can still answer ``shutting_down``
        before its socket goes away — waiting first would deadlock against
        a connection blocked in ``submit()``.
        """
        server, self._tcp_server = self._tcp_server, None
        if server is not None:
            server.close()
        return server

    async def _finish_tcp_shutdown(
        self, server: Optional[asyncio.AbstractServer]
    ) -> None:
        """Phase 2: flush pending answers, close connections, reap the listener."""
        if server is None:
            return
        # The failed futures have scheduled their connection tasks; yield
        # so each can write its structured shutting_down response before
        # the transports close (close() still flushes buffered writes).
        for _ in range(2):
            await asyncio.sleep(0)
        for writer in list(self._tcp_connections or ()):
            writer.close()
        await server.wait_closed()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._tcp_connections is not None:
            self._tcp_connections.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError as exc:
                    # The line overran even the enlarged reader limit; the
                    # stream's framing is gone, so answer once and close
                    # rather than dropping the connection with no response.
                    writer.write(
                        json.dumps(
                            {
                                "ok": False,
                                "error": "bad_request",
                                "detail": f"request line too long: {exc}",
                            }
                        ).encode("utf-8")
                        + b"\n"
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                response = await self._answer_line(line)
                writer.write(json.dumps(response).encode("utf-8") + b"\n")
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if self._tcp_connections is not None:
                self._tcp_connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _answer_line(self, line: bytes) -> Dict[str, object]:
        try:
            request = parse_request_line(line)
        except (ValueError, KeyError, TypeError) as exc:
            return {"ok": False, "error": "bad_request", "detail": str(exc)}
        try:
            decision = await self.submit(request)
        except ServiceOverloadedError as exc:
            return {
                "ok": False,
                "error": "overloaded",
                "retry_after": exc.retry_after,
                "queue_depth": exc.queue_depth,
                "max_queue_depth": exc.max_queue_depth,
            }
        except ServiceStoppedError as exc:
            return {"ok": False, "error": "shutting_down", "detail": str(exc)}
        except PowerCapInfeasibleError as exc:
            logger.warning("fleet schedule rejected: %s", exc)
            return {
                "ok": False,
                "error": "power_cap_infeasible",
                "cap_watts": exc.cap_watts,
                "min_feasible_watts": exc.required_watts,
            }
        except Exception as exc:
            # A handler exception fails its whole batch and surfaces here
            # through submit(); without this catch it would propagate out
            # of _handle_connection and kill the TCP connection with no
            # response at all — a silent drop the client cannot tell from
            # a network failure.  Answer structurally and keep serving.
            logger.exception("adaptation request failed in the handler")
            return {
                "ok": False,
                "error": "internal",
                "detail": f"{type(exc).__name__}: {exc}",
            }
        return {"ok": True, "decision": decision.to_payload()}


class AdaptationServer(JsonLinesEndpoint):
    """Micro-batching adaptation server over one decision handler.

    Parameters
    ----------
    handler:
        The batch handler answering coalesced requests
        (:class:`~repro.service.handlers.PredictionHandler` or
        :class:`~repro.service.handlers.GridHandler`).
    max_batch_size / max_batch_window / max_queue_depth:
        Batching and backpressure knobs, passed to
        :class:`~repro.service.batcher.MicroBatcher`.
    metrics:
        Shared metrics sink (a private one is created when omitted).
    offload_handler:
        Score batches in a worker thread (default) so the event loop keeps
        accepting submissions while a batch is in flight.
    """

    def __init__(
        self,
        handler: DecisionHandler,
        max_batch_size: int = 64,
        max_batch_window: float = 0.002,
        max_queue_depth: int = 1024,
        metrics: Optional[ServiceMetrics] = None,
        offload_handler: bool = True,
    ) -> None:
        self.handler = handler
        self._metrics = metrics or ServiceMetrics()
        self.batcher = MicroBatcher(
            handler.handle_batch,
            max_batch_size=max_batch_size,
            max_batch_window=max_batch_window,
            max_queue_depth=max_queue_depth,
            metrics=self._metrics,
            offload_handler=offload_handler,
        )
        self._tcp_server = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the batching scheduler."""
        await self.batcher.start()

    async def _start_for_tcp(self) -> None:
        await self.start()

    async def stop(self) -> None:
        """Stop the TCP endpoint (if any) and the scheduler.

        Ordering matters: the listener stops accepting first, then the
        batcher fails every queued/in-flight request with
        :class:`ServiceStoppedError`, and only then are live connections
        drained — so each one answers ``shutting_down`` instead of seeing
        its socket silently drop.
        """
        listener = self._begin_tcp_shutdown()
        await self.batcher.stop()
        await self._finish_tcp_shutdown(listener)

    async def __aenter__(self) -> "AdaptationServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # in-process API
    # ------------------------------------------------------------------
    async def submit(self, request: Request) -> AdaptationDecision:
        """Submit one request; resolves when its batch has been scored.

        Raises :class:`~repro.service.messages.ServiceOverloadedError` when
        the request queue is at its bound.
        """
        decision = await self.batcher.submit(request)
        return decision  # type: ignore[return-value]

    async def submit_many(
        self, requests: Sequence[Request]
    ) -> Sequence[AdaptationDecision]:
        """Submit several requests concurrently, preserving input order."""
        return await asyncio.gather(
            *(self.submit(request) for request in requests)
        )

    def metrics(self) -> Dict[str, object]:
        """The full metrics surface as one plain dict."""
        return self._metrics.snapshot(
            queue_depth=self.batcher.queue_depth(),
            caches=self.handler.cache_info(),
        )
