"""In-memory timing spans and the statistics the benchmark derives from them.

A span is one timed call at a layer boundary: ``name``, ``start`` and
``end`` (``time.perf_counter`` seconds), the ``parent`` span that was open
on the same thread when it began, and ``rid``, the request id(s) it served
(``client_id/phase``).  Counters observed at the boundary ride along as
extra keys.  Spans stay in memory until the traced process stops; then
:meth:`Tracer.dump` writes them as JSON lines.

This module imports nothing from the code under test, so the harness
self-tests run without the simulator.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

__all__ = [
    "Tracer",
    "durations",
    "load_spans",
    "percentile",
    "self_times",
    "spans_in",
]


class Tracer:
    """Collects spans from any thread; parents follow each thread's stack.

    ``enabled`` is for the wrappers that call :meth:`span`: while it is
    false they should call through without timing anything.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.enabled = True
        self.spans: List[Dict[str, object]] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid: object = None) -> Iterator[Dict[str, object]]:
        """Time the enclosed block; the yielded record takes extra counters."""
        stack = self._stack()
        record: Dict[str, object] = {
            "id": next(self._ids),
            "name": name,
            "parent": stack[-1] if stack else None,
            "rid": rid,
        }
        stack.append(record["id"])  # type: ignore[arg-type]
        record["start"] = self.clock()
        try:
            yield record
        finally:
            record["end"] = self.clock()
            stack.pop()
            self.spans.append(record)

    def record(
        self, name: str, start: float, end: float, rid: object = None, **counters: float
    ) -> None:
        """Add a root span timed by the caller (for coroutines, which
        interleave on one thread and so cannot use the thread's stack)."""
        self.spans.append(
            {
                "id": next(self._ids),
                "name": name,
                "parent": None,
                "rid": rid,
                "start": start,
                "end": end,
                **counters,
            }
        )

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def load_spans(path: str) -> List[Dict[str, object]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def self_times(spans: Sequence[Mapping[str, object]]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Mapping[str, object]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)  # type: ignore[arg-type]
    result: Dict[int, float] = {}
    for span in spans:
        start, end = float(span["start"]), float(span["end"])  # type: ignore[arg-type]
        intervals = sorted(
            (max(start, float(c["start"])), min(end, float(c["end"])))  # type: ignore[arg-type]
            for c in children.get(span["id"], ())  # type: ignore[arg-type]
        )
        covered = 0.0
        cursor = start
        for low, high in intervals:
            low = max(low, cursor)
            if high > low:
                covered += high - low
                cursor = high
        result[span["id"]] = (end - start) - covered  # type: ignore[index]
    return result


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def durations(spans: Iterable[Mapping[str, object]], name: str) -> List[float]:
    """Durations (seconds) of the spans called ``name``."""
    return [
        float(s["end"]) - float(s["start"])  # type: ignore[arg-type]
        for s in spans
        if s["name"] == name
    ]


def spans_in(
    spans: Iterable[Mapping[str, object]], windows: Iterable[Tuple[float, float]]
) -> List[Mapping[str, object]]:
    """Spans that began inside any of the ``[start, end)`` windows."""
    windows = list(windows)
    return [
        s
        for s in spans
        if any(start <= float(s["start"]) < end for start, end in windows)  # type: ignore[arg-type]
    ]
