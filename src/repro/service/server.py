"""The asyncio front door: :class:`AdaptationServer` ties the tiers together.

One server = one handler + one micro-batching scheduler (which owns the
metrics sink).  In-process callers ``await server.submit(request)``; remote
callers speak a one-line-of-JSON-per-message TCP protocol
(:meth:`AdaptationServer.serve_tcp`) handled by the same batcher, so local
and remote requests coalesce into the same batches.  Every TCP line gets an
answer: a decision, or a structured ``overloaded`` / ``shutting_down`` /
``bad_request`` / ``power_cap_infeasible`` / ``internal`` error — never a
silently dropped connection.

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

__all__ = [
    "AdaptationServer",
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


class AdaptationServer:
    """Micro-batching adaptation server over one decision handler.

    Parameters
    ----------
    handler:
        The batch handler answering coalesced requests
        (:class:`~repro.service.handlers.PredictionHandler`,
        :class:`~repro.service.handlers.GridHandler` or
        :class:`~repro.service.handlers.FleetHandler`).
    max_batch_size / max_batch_window / max_queue_depth:
        Batching and backpressure knobs, passed to
        :class:`~repro.service.batcher.MicroBatcher`.

    TCP protocol (:meth:`serve_tcp`): one JSON object per line.  Requests
    are ``{"kind": "phase_sample" | "grid_probe", ...payload}``; responses
    are

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

    def __init__(
        self,
        handler: DecisionHandler,
        max_batch_size: int = 64,
        max_batch_window: float = 0.002,
        max_queue_depth: int = 1024,
    ) -> None:
        self.handler = handler
        self.batcher = MicroBatcher(
            handler.handle_batch,
            max_batch_size=max_batch_size,
            max_batch_window=max_batch_window,
            max_queue_depth=max_queue_depth,
        )
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._tcp_connections: set = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the batching scheduler."""
        await self.batcher.start()

    async def serve_tcp(self, host: str = "127.0.0.1", port: int = 0) -> tuple:
        """Expose the server over TCP; returns the bound ``(host, port)``.

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
        await self.start()
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

    async def stop(self) -> None:
        """Stop the TCP endpoint (if any) and the scheduler.

        Ordering matters: the listener stops accepting first, then the
        batcher fails every queued/in-flight request with
        :class:`ServiceStoppedError`, and only then are live connections
        drained — so each one answers ``shutting_down`` instead of seeing
        its socket silently drop.
        """
        listener, self._tcp_server = self._tcp_server, None
        if listener is not None:
            listener.close()
        await self.batcher.stop()
        if listener is None:
            return
        # The failed futures have scheduled their connection tasks; yield
        # so each can write its structured shutting_down response before
        # the transports close (close() still flushes buffered writes).
        for _ in range(2):
            await asyncio.sleep(0)
        for writer in list(self._tcp_connections):
            writer.close()
        # Server.wait_closed waits for active connections, so it comes
        # last: waiting before the batcher failed the in-flight requests
        # would deadlock against a connection blocked in submit().
        await listener.wait_closed()

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
        return self.batcher.metrics.snapshot(
            queue_depth=self.batcher.queue_depth(),
            caches=self.handler.cache_info(),
        )

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
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
