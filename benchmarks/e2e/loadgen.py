"""The load generator: open-loop rate steps and a closed-loop peak over TCP.

Requests are pre-encoded JSON lines, dealt round-robin over the
connections.  The server answers the lines of one connection in order, so
the i-th answer read from a connection belongs to the i-th line written to
it.

* **Open loop** (:func:`open_loop`): request ``i`` is due at
  ``t0 + i / rate`` and is written then, whether or not earlier answers
  have arrived.  Latency runs from the due time, so a stall is charged to
  every request queued behind it, and the generator's own lateness (write
  time minus due time) is kept as ``lag``.
* **Closed loop** (:func:`closed_loop`): each connection keeps ``depth``
  requests outstanding and writes the next one when an answer arrives.
  Latency runs from the write.

The generator never retries: an answer with ``"ok": false`` counts as a
failure of its ``error`` kind and a request never answered within the
timeout as ``no_answer``.

``repro.service.run_open_loop`` is not used here: despite its name each
of its clients waits for an answer before sending again, which is a closed
loop per client.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from spans import percentile

__all__ = ["PhaseResult", "closed_loop", "ladder", "open_loop"]

Address = Tuple[str, int]

#: Seconds to wait for the last answers after the last request was written.
DRAIN_TIMEOUT = 60.0
#: The tail percentile a latency limit applies to.  Runs this short hold a
#: few hundred samples per step, and p90 still has tens beyond it.
TAIL = 90


@dataclass
class PhaseResult:
    """What one phase sent and got back, indexed by request."""

    count: int
    rate: Optional[float] = None
    due: List[float] = field(init=False)
    sent: List[float] = field(init=False)
    done: List[Optional[float]] = field(init=False)
    answers: List[Optional[dict]] = field(init=False)

    def __post_init__(self) -> None:
        self.due = [0.0] * self.count
        self.sent = [0.0] * self.count
        self.done = [None] * self.count
        self.answers = [None] * self.count

    @property
    def started(self) -> float:
        return min(self.sent) if self.count else 0.0

    @property
    def ended(self) -> float:
        finished = [t for t in self.done if t is not None]
        return max(finished) if finished else self.started

    def ok(self) -> List[int]:
        """Indices of requests answered with ``"ok": true``."""
        return [
            i
            for i, answer in enumerate(self.answers)
            if answer is not None and answer.get("ok") is True
        ]

    def failures(self) -> Dict[str, int]:
        """Failed requests by kind (the server's ``error`` or ``no_answer``)."""
        kinds: Counter = Counter()
        for answer in self.answers:
            if answer is None:
                kinds["no_answer"] += 1
            elif answer.get("ok") is not True:
                kinds[str(answer.get("error", "malformed"))] += 1
        return dict(kinds)

    def failed(self) -> int:
        return sum(self.failures().values())

    def latencies_ms(self) -> List[float]:
        """Latency of every successful request, from its due time."""
        return [(self.done[i] - self.due[i]) * 1e3 for i in self.ok()]  # type: ignore[operator]

    def lag_ms(self) -> List[float]:
        """How late the generator wrote each request."""
        return [(s - d) * 1e3 for s, d in zip(self.sent, self.due)]

    def throughput(self) -> float:
        """Successful answers per second of phase wall time."""
        span = self.ended - self.started
        return len(self.ok()) / span if span > 0 else 0.0

    def passes(self, limit_ms: float) -> bool:
        """Nothing failed and the tail latency is within ``limit_ms``."""
        return self.failed() == 0 and percentile(self.latencies_ms(), TAIL) <= limit_ms


class _Connection:
    """One JSON-lines connection feeding answers into a :class:`PhaseResult`."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        result: PhaseResult,
        answered: Callable[["_Connection"], None],
    ) -> None:
        self.writer = writer
        self.result = result
        self.answered = answered
        self.pending: deque = deque()
        #: Answer lines by request index, parsed once the phase is over so
        #: the generator spends no CPU on them while the server is measured.
        self.raw: Dict[int, bytes] = {}
        self.task = asyncio.get_running_loop().create_task(self._read(reader))

    def send(self, index: int, line: bytes, due: Optional[float] = None) -> None:
        now = time.perf_counter()
        self.result.due[index] = now if due is None else due
        self.result.sent[index] = now
        self.pending.append(index)
        self.writer.write(line)

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.perf_counter()
            if not self.pending:
                raise RuntimeError(f"unsolicited answer from the server: {line[:200]!r}")
            index = self.pending.popleft()
            self.result.done[index] = now
            self.raw[index] = line
            self.answered(self)


class _Phase:
    """Connections plus the bookkeeping to know when every answer is in."""

    def __init__(self, count: int, rate: Optional[float] = None) -> None:
        self.result = PhaseResult(count, rate)
        self.remaining = count
        self.all_answered = asyncio.Event()
        if count == 0:
            self.all_answered.set()
        self.on_answer: Callable[[_Connection], None] = lambda conn: None
        self.connections: List[_Connection] = []

    def _answered(self, conn: _Connection) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            self.all_answered.set()
        self.on_answer(conn)

    async def open(self, address: Address, connections: int) -> None:
        for _ in range(connections):
            reader, writer = await asyncio.open_connection(*address)
            self.connections.append(
                _Connection(reader, writer, self.result, self._answered)
            )

    async def finish(self, timeout: float) -> PhaseResult:
        try:
            await asyncio.wait_for(self.all_answered.wait(), timeout)
        except asyncio.TimeoutError:
            pass  # unanswered requests stay None and count as no_answer
        for conn in self.connections:
            conn.writer.close()
        for conn in self.connections:
            conn.task.cancel()
            try:
                await conn.task
            except (asyncio.CancelledError, ConnectionError):
                pass
            try:
                await conn.writer.wait_closed()
            except ConnectionError:
                pass
            for index, line in conn.raw.items():
                self.result.answers[index] = json.loads(line)
        return self.result


async def open_loop(
    address: Address,
    lines: Sequence[bytes],
    rate: float,
    connections: int = 2,
    drain_timeout: float = DRAIN_TIMEOUT,
) -> PhaseResult:
    """Write ``lines`` evenly at ``rate`` per second; wait for answers."""
    phase = _Phase(len(lines), rate)
    await phase.open(address, connections)
    t0 = time.perf_counter() + 0.005
    for i, line in enumerate(lines):
        due = t0 + i / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        phase.connections[i % connections].send(i, line, due)
    return await phase.finish(drain_timeout)


async def closed_loop(
    address: Address,
    lines: Sequence[bytes],
    depth: int,
    connections: int = 2,
    timeout: float = DRAIN_TIMEOUT,
) -> PhaseResult:
    """Keep ``depth`` requests outstanding per connection until all are
    answered, or ``timeout`` seconds have passed."""
    phase = _Phase(len(lines))
    await phase.open(address, connections)
    cursor = iter(range(len(lines)))

    def refill(conn: _Connection) -> None:
        index = next(cursor, None)
        if index is not None:
            conn.send(index, lines[index])

    phase.on_answer = refill
    for _ in range(depth):
        for conn in phase.connections:
            refill(conn)
    return await phase.finish(timeout)


async def ladder(
    address: Address,
    step_lines: Callable[[int, float], Sequence[bytes]],
    light_rate: float,
    limit_ms: float,
    steps: int,
    factor: float,
    connections: int = 2,
    start: int = 0,
) -> Tuple[float, List[PhaseResult]]:
    """Open-loop steps at ``light_rate * factor**k`` until one fails.

    Returns the highest passing rate (0.0 when step 0 fails) and the
    results of the steps run.  Step 0 is the light load; a caller that has
    already judged steps below ``start`` begins there.
    """
    capacity = light_rate * factor ** (start - 1) if start else 0.0
    results: List[PhaseResult] = []
    for k in range(start, steps):
        rate = light_rate * factor**k
        result = await open_loop(address, step_lines(k, rate), rate, connections)
        results.append(result)
        if not result.passes(limit_ms):
            break
        capacity = rate
    return capacity, results
