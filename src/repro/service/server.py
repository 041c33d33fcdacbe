"""The asyncio front door: :class:`AdaptationServer` ties the tiers together.

One server = one handler + one micro-batching scheduler (which owns the
metrics sink).  In-process callers ``await server.submit(request)``; remote
callers speak a one-line-of-JSON-per-message TCP protocol
(:meth:`AdaptationServer.serve_tcp`) handled by the same batcher, so local
and remote requests coalesce into the same batches.  A connection may
pipeline lines: each line is submitted as soon as it is read, up to
``max_batch_size`` unanswered lines per connection, so one connection's
lines can share a batch; answers are written in request order.  Every TCP
line gets an answer: a decision, or a structured ``overloaded`` /
``shutting_down`` / ``bad_request`` / ``power_cap_infeasible`` /
``internal`` error — never a silently dropped connection.

The server is an async context manager::

    async with AdaptationServer(PredictionHandler(bundle)) as server:
        decision = await server.submit(request)
        stats = server.metrics()          # plain dict, JSON-able
"""

from __future__ import annotations

import asyncio
import json
import logging
from typing import Dict, Optional, Sequence, Tuple, Union

from ..cluster.scheduler import PowerCapInfeasibleError
from ..core.predictor import UnknownEventSetError
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
    try:
        payload = json.loads(line.decode("utf-8"))
    except RecursionError as exc:
        # A deeply nested line (say 60,000 ``[``) fits the byte limit but
        # exhausts the decoder's recursion depth.
        raise ValueError("request line is nested too deeply to decode") from exc
    if not isinstance(payload, dict):
        raise ValueError(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    kind = payload.get("kind", "phase_sample")
    try:
        if kind == "phase_sample":
            return PhaseSampleRequest.from_payload(payload)
        if kind == "grid_probe":
            return GridProbeRequest.from_payload(payload)
    except OverflowError as exc:
        # ``json`` keeps an integer literal exact, so one past the largest
        # float (say ``1`` and 400 zeros) overflows ``float()``.
        raise ValueError(f"request has a number too large for a float: {exc}") from exc
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
        :class:`~repro.service.batcher.MicroBatcher`.  A batch dispatches
        when it holds ``max_batch_size`` requests or ``max_batch_window``
        seconds after its first request was dequeued; a lone request
        arriving more than one window after the previous lone request
        dispatches at once (``window_skips`` in :meth:`metrics`).

    TCP protocol (:meth:`serve_tcp`): one JSON object per line.  A client
    may write its next lines before the earlier answers arrive.  The
    server submits each line to the batcher as soon as it reads it, holds
    at most ``max_batch_size`` unanswered lines per connection (at that
    bound it stops reading the socket, and TCP flow control holds the
    client back) and writes the answers in request order.  At end of
    input, including a half-close, it answers every line already read and
    then closes.  Requests are
    ``{"kind": "phase_sample" | "grid_probe", ...payload}``; responses are

    * ``{"ok": true, "decision": {...}}`` — served;
    * ``{"ok": false, "error": "overloaded", "retry_after": s, ...}`` —
      backpressure rejection, retriable after the hint;
    * ``{"ok": false, "error": "shutting_down", "detail": ...}`` — the
      service stopped before this request was served (non-retriable
      against this endpoint);
    * ``{"ok": false, "error": "bad_request", "detail": ...}`` — the line
      did not parse into a request, or it names an event set the handler's
      bundle has no predictor for (the requests batched with it are still
      served).  A line too long to frame is answered after the answers to
      the lines before it, and the connection then closes;
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
        #: Live connection tasks -> (their line-reading task, their writer).
        self._tcp_connections: Dict[
            asyncio.Task, Tuple[asyncio.Task, asyncio.StreamWriter]
        ] = {}

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
        :class:`ServiceStoppedError`, and only then does each live
        connection stop reading, write the answer to every line it read
        (served or ``shutting_down``) and close — so no client sees its
        socket silently drop.  Returns once every connection task has
        finished; a connection whose client has not taken its answers
        within 5 s is aborted.
        """
        listener, self._tcp_server = self._tcp_server, None
        if listener is not None:
            listener.close()
        await self.batcher.stop()
        connections = dict(self._tcp_connections)
        for reading, _ in connections.values():
            reading.cancel()
        if connections:
            # Every answer is settled now, so a connection waits only for
            # its client to take the answers; abort one that does not.
            _, late = await asyncio.wait(connections, timeout=5.0)
            if late:
                for task in late:
                    connections[task][1].transport.abort()
                _, late = await asyncio.wait(late, timeout=1.0)
            if late:
                logger.warning(
                    "stop(): %d connection task(s) still running after "
                    "their transports were aborted",
                    len(late),
                )
        if listener is not None:
            # Only from Python 3.12 does this also wait for the connections,
            # hence the explicit wait above.
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
        """Write the answers of one connection, in request order.

        A child task reads the lines (:meth:`_read_lines`); this task is
        never cancelled, because on Python 3.11 a cancelled connection
        task makes asyncio log an error.
        """
        answers: asyncio.Queue = asyncio.Queue()
        # One slot per unanswered line, released as its answer is written.
        slots = asyncio.Semaphore(self.batcher.max_batch_size)
        reading = asyncio.create_task(self._read_lines(reader, answers, slots))
        # Reading ends with None on the queue, after every answer it queued
        # -- also when it is cancelled before its first step.
        reading.add_done_callback(lambda _: answers.put_nowait(None))
        this = asyncio.current_task()
        self._tcp_connections[this] = (reading, writer)
        try:
            while (answer := await answers.get()) is not None:
                response = await answer
                writer.write(json.dumps(response).encode("utf-8") + b"\n")
                slots.release()
                await writer.drain()
        except OSError:
            pass  # the connection failed; its pending answers are cancelled below
        finally:
            reading.cancel()
            unanswered = [reading]
            while not answers.empty():
                answer = answers.get_nowait()
                if answer is not None:
                    answer.cancel()
                    unanswered.append(answer)
            await asyncio.wait(unanswered)
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass
            # Last, so that stop() waits for a connection already closing.
            del self._tcp_connections[this]

    async def _read_lines(
        self,
        reader: asyncio.StreamReader,
        answers: asyncio.Queue,
        slots: asyncio.Semaphore,
    ) -> None:
        """Submit each line as it is read, queueing its answer task in order.

        Reads only while a slot is free; returns at end of input, on a read
        error or after an unframeable line.
        """
        try:
            while True:
                await slots.acquire()
                try:
                    line = await reader.readline()
                except ValueError as exc:
                    # The line overran even the enlarged reader limit; the
                    # stream's framing is gone, so answer once and stop
                    # rather than dropping the connection with no response.
                    answer = asyncio.get_running_loop().create_future()
                    answer.set_result(
                        {
                            "ok": False,
                            "error": "bad_request",
                            "detail": f"request line too long: {exc}",
                        }
                    )
                    answers.put_nowait(answer)
                    return
                if not line:
                    return
                answers.put_nowait(asyncio.create_task(self._answer_line(line)))
        except OSError:
            pass  # the connection failed; writing its answers fails too

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
        except UnknownEventSetError as exc:
            return {"ok": False, "error": "bad_request", "detail": str(exc)}
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
