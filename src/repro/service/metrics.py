"""The service's metrics surface: plain-dict counters for tests and benches.

One :class:`ServiceMetrics` instance sits behind each server.  The batching
scheduler feeds it per-batch observations (size, per-request latencies)
and the batches it dispatched without waiting out its window, the submit
path feeds it rejections, and :meth:`ServiceMetrics.snapshot`
exports everything as a JSON-able dict — decisions/sec, the batch-size
histogram, queue depth, latency percentiles and the handler's cache hit
rates — so a bench artifact or a dashboard scrape is one call.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from typing import Callable, Deque, Dict, Mapping, Optional, Sequence

import numpy as np

__all__ = ["ServiceMetrics"]

#: Number of most-recent per-request latencies kept for the percentile
#: estimates (a bounded deque, so a long-running server's metrics stay O(1)
#: in memory).
LATENCY_WINDOW = 4096


class ServiceMetrics:
    """Counters of one adaptation server.

    Parameters
    ----------
    clock:
        Monotonic time source (injectable for tests).

    Attributes
    ----------
    elapsed_floor:
        Lower bound on the dispatch span :meth:`decisions_per_second`
        divides by.  The batcher sets it to its batching window, so a
        server that has dispatched only one batch (first == last dispatch,
        an empty span) still reports a finite, meaningful rate instead of
        0.0.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.elapsed_floor = 0.0
        self.decisions = 0
        self.batches = 0
        self.rejections = 0
        self.window_skips = 0
        self.batch_size_histogram: Counter = Counter()
        self._latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._first_dispatch: Optional[float] = None
        self._last_dispatch: Optional[float] = None

    # ------------------------------------------------------------------
    # observation hooks (called by the batcher / submit path)
    # ------------------------------------------------------------------
    def record_batch(self, size: int, latencies: Sequence[float]) -> None:
        """One dispatched batch of ``size`` decisions with its latencies."""
        now = self._clock()
        if self._first_dispatch is None:
            self._first_dispatch = now
        self._last_dispatch = now
        self.batches += 1
        self.decisions += size
        self.batch_size_histogram[size] += 1
        self._latencies.extend(float(x) for x in latencies)

    def record_rejection(self) -> None:
        """One request rejected by backpressure."""
        self.rejections += 1

    def record_window_skip(self) -> None:
        """One batch dispatched without waiting out the batching window."""
        self.window_skips += 1

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    def decisions_per_second(self) -> float:
        """Sustained throughput across the dispatch span observed so far.

        A single dispatch (or a clock too coarse to separate two) leaves
        an empty [first, last] span; ``elapsed_floor`` — the batcher's
        batching window — stands in for it so a warm server reports its
        batch-per-window rate rather than 0.0.
        """
        if self._first_dispatch is None or self._last_dispatch is None:
            return 0.0
        elapsed = max(self._last_dispatch - self._first_dispatch, self.elapsed_floor)
        if elapsed <= 0.0:
            return 0.0
        return self.decisions / elapsed

    def mean_batch_size(self) -> float:
        """Average dispatched batch size."""
        return self.decisions / self.batches if self.batches else 0.0

    def latency_percentile(self, q: float) -> float:
        """Latency percentile (``q`` in [0, 100]) over the recent window."""
        if not self._latencies:
            return 0.0
        return float(np.percentile(np.fromiter(self._latencies, dtype=float), q))

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def snapshot(
        self,
        queue_depth: int = 0,
        caches: Optional[Mapping[str, Mapping[str, float]]] = None,
    ) -> Dict[str, object]:
        """Everything as one plain dict (JSON-able, stable keys).

        Parameters
        ----------
        queue_depth:
            Current depth of the request queue (the server passes it in —
            the metrics object itself holds no live references).
        caches:
            Per-cache counter dicts from the handler (prediction cache,
            execution memo), included verbatim under ``"caches"``.
        """
        latencies = (
            np.fromiter(self._latencies, dtype=float) if self._latencies else None
        )
        return {
            "decisions": self.decisions,
            "batches": self.batches,
            "rejections": self.rejections,
            "window_skips": self.window_skips,
            "decisions_per_second": self.decisions_per_second(),
            "mean_batch_size": self.mean_batch_size(),
            "batch_size_histogram": {
                str(size): count
                for size, count in sorted(self.batch_size_histogram.items())
            },
            "queue_depth": int(queue_depth),
            "latency_seconds": {
                "count": 0 if latencies is None else int(latencies.size),
                "mean": 0.0 if latencies is None else float(latencies.mean()),
                "p50": self.latency_percentile(50),
                "p99": self.latency_percentile(99),
                "max": 0.0 if latencies is None else float(latencies.max()),
            },
            "caches": {name: dict(info) for name, info in (caches or {}).items()},
        }
