"""The micro-batching tier: bounded queue, latency window, one dispatch.

:class:`MicroBatcher` owns the request queue and the scheduler task of an
adaptation server.  Submissions enqueue a ``(request, future, t0)`` triple;
the scheduler coalesces queued requests into batches and hands each batch
to the handler **once**, resolving every request's future with its decision.
A submission cancelled before its batch is dispatched is dropped from the
batch and never counted as a decision.

Dispatch policy.  The scheduler first drains whatever is already queued,
without yielding.  A batch then dispatches at once when the signs say no
company is coming: it is a single request, the previous batch as collected
was a single request too, and that request was submitted more than
``max_batch_window`` before this one.  So requests arriving further apart
than the window pay no window wait.  Otherwise the batch dispatches when
whichever fires first:

* the batch reached ``max_batch_size``, or
* ``max_batch_window`` seconds elapsed since the batch's first request was
  dequeued (the latency budget a request pays waiting for company).

A fresh batcher waits the window for its first batch.  A lone request that
follows a batch of several, or arrives within one window of the previous
lone request, waits too, so the batches of a burst keep their shape.

Backpressure: the queue is bounded by ``max_queue_depth``.  A submission
finding it full is rejected immediately with
:class:`~repro.service.messages.ServiceOverloadedError` carrying a
retry-after hint derived from the scheduler's recent drain rate — the
client-visible contract is "come back in ~this long", not an unbounded
in-server wait.

The handler runs in a worker thread (``loop.run_in_executor``) so the event
loop keeps accepting submissions while a batch is being scored; batches are
still strictly sequential (one scheduler, one in-flight batch), which keeps
the decision stream deterministic.
"""

from __future__ import annotations

import asyncio
import math
import time
from typing import Awaitable, Callable, List, Optional, Sequence, Tuple

from .messages import ServiceOverloadedError, ServiceStoppedError
from .metrics import ServiceMetrics

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """Bounded micro-batching scheduler in front of a batch handler.

    Parameters
    ----------
    handle_batch:
        Callable mapping a list of requests to a list of responses of the
        same length, in input order.  A response that is an exception
        instance fails its own request with that exception and is not
        counted as a decision; the other requests are still resolved.
    max_batch_size:
        Dispatch as soon as this many requests are coalesced.
    max_batch_window:
        Dispatch at latest this many seconds after a batch's first request
        was dequeued (``0`` dispatches whatever is immediately queued).  A
        lone request submitted more than this long after the previous lone
        request dispatches at once.
    max_queue_depth:
        Bound of the request queue; submissions beyond it are rejected.
    metrics:
        Shared metrics sink (a private one is created when omitted).
    """

    def __init__(
        self,
        handle_batch: Callable[[List[object]], Sequence[object]],
        max_batch_size: int = 64,
        max_batch_window: float = 0.002,
        max_queue_depth: int = 1024,
        metrics: Optional[ServiceMetrics] = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_batch_window < 0:
            raise ValueError("max_batch_window must be >= 0")
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        self.handle_batch = handle_batch
        self.max_batch_size = max_batch_size
        self.max_batch_window = max_batch_window
        self.max_queue_depth = max_queue_depth
        self.metrics = metrics or ServiceMetrics()
        # A single dispatched batch leaves the metrics no [first, last]
        # dispatch span to divide by; the batching window is the natural
        # elapsed floor (a fresh batcher's first batch waits one window
        # unless it fills), so a warm server never reports 0.0
        # decisions/sec — which would push retry_after_hint into its
        # worst-case cold fallback.
        self.metrics.elapsed_floor = max(
            self.metrics.elapsed_floor, self.max_batch_window
        )
        self._queue: Optional[asyncio.Queue] = None
        self._scheduler: Optional[asyncio.Task] = None
        # Submit time of the previous batch when it was a lone request,
        # else None (also before the first batch, which waits the window).
        self._lone_submitted: Optional[float] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """Whether the scheduler task is live."""
        return self._scheduler is not None and not self._scheduler.done()

    async def start(self) -> None:
        """Create the queue and spawn the scheduler on the running loop."""
        if self.running:
            return
        self._queue = asyncio.Queue()
        self._scheduler = asyncio.get_running_loop().create_task(
            self._run(), name="repro-service-batcher"
        )

    async def stop(self) -> None:
        """Stop the scheduler; queued-but-unserved requests are rejected.

        A cancellation of the task running ``stop()`` (say, a ``wait_for``
        timeout while the scheduler is slow to finish) still rejects the
        queued requests, then propagates to the caller.
        """
        scheduler, self._scheduler = self._scheduler, None
        try:
            if scheduler is not None:
                scheduler.cancel()
                try:
                    await scheduler
                except asyncio.CancelledError:
                    # The scheduler's own cancellation is expected; one
                    # aimed at this task is not.
                    if asyncio.current_task().cancelling():
                        raise
        finally:
            queue, self._queue = self._queue, None
            if queue is not None:
                while not queue.empty():
                    _, future, _ = queue.get_nowait()
                    if not future.done():
                        future.set_exception(ServiceStoppedError())

    # ------------------------------------------------------------------
    # submission path
    # ------------------------------------------------------------------
    def queue_depth(self) -> int:
        """Requests currently queued (not yet dequeued into a batch)."""
        return 0 if self._queue is None else self._queue.qsize()

    def retry_after_hint(self, queue_depth: Optional[int] = None) -> float:
        """Estimated time until the *current* backlog has drained.

        Charged from the live ``qsize()`` (or an explicit ``queue_depth``)
        rather than the worst-case ``max_queue_depth``, so a rejection
        racing a nearly drained queue — e.g. concurrent submits colliding
        at the bound — advises a short backoff instead of the full-queue
        drain time.  The hint grows monotonically with the depth.  Uses
        the sustained decision rate observed so far; before any batch has
        completed, falls back to assuming one full batch per window.
        """
        depth = self.queue_depth() if queue_depth is None else int(queue_depth)
        depth = max(depth, 1)  # the rejected request still needs one slot
        window = max(self.max_batch_window, 1e-4)
        throughput = self.metrics.decisions_per_second()
        if throughput <= 0.0:
            return window * math.ceil(depth / self.max_batch_size)
        return window + depth / throughput

    async def submit(self, request: object) -> object:
        """Enqueue one request and await its decision.

        Raises
        ------
        ServiceOverloadedError
            When the queue is at its bound (carries ``retry_after``).
        ServiceStoppedError
            When the batcher is not running (never started, or stopped) —
            a ``RuntimeError`` subclass, so it maps to the structured
            ``shutting_down`` wire response instead of a dropped socket.
        """
        if not self.running or self._queue is None:
            raise ServiceStoppedError(
                "MicroBatcher is not running; call start() first"
            )
        if self._queue.qsize() >= self.max_queue_depth:
            self.metrics.record_rejection()
            raise ServiceOverloadedError(
                retry_after=self.retry_after_hint(),
                queue_depth=self._queue.qsize(),
                max_queue_depth=self.max_queue_depth,
            )
        future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait((request, future, time.perf_counter()))
        return await future

    # ------------------------------------------------------------------
    # scheduler
    # ------------------------------------------------------------------
    async def _collect_batch(
        self, batch: List[Tuple[object, asyncio.Future, float]]
    ) -> None:
        """Dequeue one batch into ``batch``: first item blocks, then
        size/window race, unless a lone request skips the window.

        Fills the caller's list in place, so when a cancellation lands
        inside the window the entries already taken stay where
        :meth:`_run` can fail them.
        """
        assert self._queue is not None
        batch.append(await self._queue.get())
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.max_batch_window
        while len(batch) < self.max_batch_size:
            # Drain whatever is already queued without yielding.
            try:
                batch.append(self._queue.get_nowait())
                continue
            except asyncio.QueueEmpty:
                pass
            remaining = deadline - loop.time()
            if remaining <= 0:
                break
            if (
                len(batch) == 1
                and self._lone_submitted is not None
                and batch[0][2] - self._lone_submitted > self.max_batch_window
            ):
                # A lone request a window after the previous lone one:
                # no company is coming, so do not wait for it.
                self.metrics.record_window_skip()
                break
            try:
                batch.append(
                    await asyncio.wait_for(self._queue.get(), timeout=remaining)
                )
            except asyncio.TimeoutError:
                break
            if self._scheduler is not asyncio.current_task():
                # stop() detached and cancelled this scheduler, but the
                # cancellation landed as the get completed, and wait_for
                # (Python 3.11) returned the item instead of raising.
                raise asyncio.CancelledError
        self._lone_submitted = batch[0][2] if len(batch) == 1 else None

    async def _dispatch(
        self, batch: List[Tuple[object, asyncio.Future, float]]
    ) -> None:
        requests = [request for request, _, _ in batch]
        try:
            responses = await asyncio.get_running_loop().run_in_executor(
                None, self.handle_batch, requests
            )
            if len(responses) != len(requests):
                raise RuntimeError(
                    f"handler answered {len(responses)} responses for "
                    f"{len(requests)} requests"
                )
        except Exception as exc:
            # A failing batch fails exactly its own requests; the scheduler
            # survives to serve the next batch.
            for _, future, _ in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        now = time.perf_counter()
        latencies = []
        for (_, future, submitted), response in zip(batch, responses):
            if future.done():  # cancelled while the handler ran
                continue
            if isinstance(response, Exception):
                future.set_exception(response)
                continue
            future.set_result(response)
            latencies.append(now - submitted)
        if latencies:
            self.metrics.record_batch(len(latencies), latencies)

    async def _run(self) -> None:
        while True:
            batch: List[Tuple[object, asyncio.Future, float]] = []
            try:
                await self._collect_batch(batch)
                # A submitter cancelled while queued (say, its connection
                # dropped) awaits no answer: spend no handler work on it.
                batch = [entry for entry in batch if not entry[1].done()]
                if batch:
                    await self._dispatch(batch)
            except asyncio.CancelledError:
                # stop() cancelled the scheduler inside the batch window or
                # mid-dispatch.  This batch is off the queue, so stop()
                # cannot see it: fail its futures here instead of
                # abandoning their awaiters.
                for _, future, _ in batch:
                    if not future.done():
                        future.set_exception(ServiceStoppedError())
                raise
