"""Self-tests of the benchmark harness.

The load generator runs against an in-process stub JSON-lines server that
answers each connection's lines in order, like the real endpoint, and
obeys two optional request fields: ``delay_ms`` (sleep before answering)
and ``error`` (answer ``{"ok": false, "error": ...}``).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

import loadgen
from spans import Tracer, self_times


async def _answer(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            request = json.loads(line)
            if request.get("delay_ms"):
                await asyncio.sleep(request["delay_ms"] / 1e3)
            if request.get("error"):
                answer = {"ok": False, "error": request["error"]}
            else:
                answer = {
                    "ok": True,
                    "decision": {"client_id": request["client_id"], "phase": request["phase"]},
                }
            writer.write(json.dumps(answer).encode("utf-8") + b"\n")
            await writer.drain()
    finally:
        writer.close()


async def _with_stub(body):
    server = await asyncio.start_server(_answer, "127.0.0.1", 0)
    try:
        return await body(server.sockets[0].getsockname()[:2])
    finally:
        server.close()
        await server.wait_closed()


def _line(i: int, **fields) -> bytes:
    return json.dumps({"client_id": "t", "phase": str(i), **fields}).encode("utf-8") + b"\n"


def test_latency_is_charged_from_the_due_time():
    """A 200 ms stall delays the requests queued behind it, and a generator
    that writes late is charged for its own lateness."""
    lines = [_line(i, delay_ms=200 if i == 10 else 0) for i in range(40)]

    async def body(address):
        loop = asyncio.get_running_loop()
        # Block the generator's own loop for 80 ms around request 30.
        loop.call_later(0.305, time.sleep, 0.08)
        return await loadgen.open_loop(address, lines, rate=100.0, connections=1)

    result = asyncio.run(_with_stub(body))
    latency = result.latencies_ms()
    assert result.failed() == 0
    assert max(latency[:10]) < 50
    # Due 10..190 ms after the stalled request, answered after it.
    assert all(latency[i] > 190 - 10 * (i - 10) - 20 for i in range(11, 20))
    late = [i for i, lag in enumerate(result.lag_ms()) if lag > 40]
    assert late, "the blocked loop should have made the generator late"
    assert all(latency[i] >= result.lag_ms()[i] for i in late)


def test_ladder_stops_at_the_first_failing_step():
    steps = []

    def step_lines(k, rate):
        steps.append(k)
        if k == 2:  # step 2 blows the latency limit
            return [_line(i, delay_ms=60) for i in range(5)]
        return [_line(i) for i in range(5)]

    async def body(address):
        return await loadgen.ladder(address, step_lines, 50.0, 50.0, steps=6, factor=2.0)

    capacity, results = asyncio.run(_with_stub(body))
    assert steps == [0, 1, 2]
    assert len(results) == 3
    assert capacity == 100.0

    # A caller that judged step 0 itself starts at step 1.
    steps.clear()

    async def from_step_one(address):
        return await loadgen.ladder(
            address, step_lines, 50.0, 50.0, steps=6, factor=2.0, start=1
        )

    capacity, results = asyncio.run(_with_stub(from_step_one))
    assert steps == [1, 2] and len(results) == 2
    assert capacity == 100.0


def test_ladder_reports_zero_when_step_zero_fails():
    async def body(address):
        return await loadgen.ladder(
            address, lambda k, r: [_line(0, error="internal")], 50.0, 50.0, steps=3, factor=2.0
        )

    capacity, results = asyncio.run(_with_stub(body))
    assert capacity == 0.0 and len(results) == 1


def test_error_answers_count_as_failures_by_kind():
    kinds = ["overloaded", "bad_request", "internal", "overloaded"]
    lines = [_line(i, error=kind) for i, kind in enumerate(kinds)] + [_line(9)]

    async def body(address):
        return await loadgen.closed_loop(address, lines, depth=2, connections=2)

    result = asyncio.run(_with_stub(body))
    assert result.failures() == {"overloaded": 2, "bad_request": 1, "internal": 1}
    assert result.ok() == [4]
    assert not result.passes(limit_ms=1e9)


def test_unanswered_requests_count_as_no_answer():
    lines = [_line(0), _line(1, delay_ms=2000)]

    async def body(address):
        return await loadgen.open_loop(
            address, lines, rate=100.0, connections=1, drain_timeout=0.2
        )

    result = asyncio.run(_with_stub(body))
    assert result.failures() == {"no_answer": 1}


@pytest.mark.parametrize("workload", ["predict-ann", "grid-cold", "grid-warm", "fleet-mixed"])
def test_same_seed_same_request_lines(workload):
    import workloads as wl

    def lines(seed):
        inputs = wl.Inputs(wl.WORKLOADS[workload], seed)
        return b"".join(wl.encode(r) for r in inputs.requests("s0", 25))

    assert lines(7) == lines(7)
    assert lines(7) != lines(8)


def test_self_time_is_duration_minus_children():
    ticks = iter([0.0, 1.0, 3.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("parent"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    by_name = {s["name"]: s for s in tracer.spans}
    selfs = self_times(tracer.spans)
    assert by_name["a"]["parent"] == by_name["parent"]["id"]
    assert by_name["c"]["parent"] == by_name["b"]["id"]
    assert selfs[by_name["parent"]["id"]] == pytest.approx(10.0 - 2.0 - 4.0)
    assert selfs[by_name["b"]["id"]] == pytest.approx(4.0 - 1.0)
    assert selfs[by_name["c"]["id"]] == pytest.approx(1.0)
