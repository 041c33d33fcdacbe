"""Tests for the micro-batching adaptation service.

Covers the batching window semantics in both directions (size-triggered
dispatch beats the window; the window flushes undersized batches) and the
rule that lets a lone request skip the window: only when the previous batch
was a lone request too, submitted more than one window earlier.  A fresh
batcher, a lone request after a batch of several and one within a window of
the previous lone request all still wait, so a burst keeps its batches.  The
bounded-queue backpressure contract (reject with retry-after, client shim
retries), and the central determinism guarantee: decisions served through
the batching path select what serial per-phase selection selects — the
prediction tier against one-sample predictions ranked by direct
:class:`ConfigurationSelector` calls (predictions to 1e-12), the grid tier
against a direct :meth:`Machine.execute_grid` launch.  A request naming an
event set the bundle lacks fails alone, in-process and on the wire.  The TCP
classes pin the wire contract: pipelined lines share batches and are
answered in request order, read-ahead stops at ``max_batch_size``, and end
of input, an unframeable line, ``stop()`` and a client reset each leave
every line read answered or its connection cleanly closed.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import logging
import socket
import struct
import threading
import time

import pytest

from repro.core import (
    ConfigurationSelector,
    PredictionCache,
    PredictorBundle,
    UnknownEventSetError,
)
from repro.machine import CONFIG_4, Machine, WorkRequest
from repro.service import (
    MAX_REQUEST_LINE_BYTES,
    AdaptationClient,
    AdaptationDecision,
    AdaptationServer,
    DecisionHandler,
    GridHandler,
    GridProbeRequest,
    MicroBatcher,
    PhaseSampleRequest,
    PredictionHandler,
    ServiceMetrics,
    ServiceOverloadedError,
    ServiceStoppedError,
    TCPAdaptationClient,
    run_open_loop,
)


def _sample_for(machine, predictor, phase):
    """Noise-free sampled IPC and event rates for one phase."""
    result = machine.execute(phase.work, CONFIG_4.placement, apply_noise=False)
    rates = {
        event: result.event_counts.get(event, 0.0) / result.cycles
        for event in predictor.event_set.events
    }
    return result.ipc, rates


def _phase_requests(machine, bundle, phases):
    return [
        PhaseSampleRequest(
            client_id=f"client-{i}",
            phase=phase.name,
            ipc_sample=ipc,
            rates=rates,
        )
        for i, (phase, (ipc, rates)) in enumerate(
            (p, _sample_for(machine, bundle.full, p)) for p in phases
        )
    ]


class _EchoHandler(DecisionHandler):
    """Trivial handler recording the batch sizes it was dispatched."""

    def __init__(self):
        self.batch_sizes = []

    def handle_batch(self, requests):
        self.batch_sizes.append(len(requests))
        return [
            AdaptationDecision(
                client_id=r.client_id, phase=r.phase, configuration="4"
            )
            for r in requests
        ]


class _BlockingHandler(_EchoHandler):
    """Echo handler that parks in the worker thread until released."""

    def __init__(self):
        super().__init__()
        self.release = threading.Event()

    def handle_batch(self, requests):
        assert self.release.wait(timeout=10.0), "test never released the handler"
        return super().handle_batch(requests)


def _request(i):
    return PhaseSampleRequest(
        client_id=f"c{i}", phase=f"p{i}", ipc_sample=1.0, rates={"x": 0.1}
    )


class TestBatchingWindow:
    def test_full_batch_dispatches_before_the_window_expires(self):
        async def main():
            handler = _EchoHandler()
            async with AdaptationServer(
                handler, max_batch_size=4, max_batch_window=5.0
            ) as server:
                start = time.perf_counter()
                await server.submit_many([_request(i) for i in range(4)])
                return handler.batch_sizes, time.perf_counter() - start

        sizes, elapsed = asyncio.run(main())
        # Size cap fired: one full batch, long before the 5 s window.
        assert sizes == [4]
        assert elapsed < 2.0

    def test_window_flushes_an_undersized_batch(self):
        async def main():
            handler = _EchoHandler()
            async with AdaptationServer(
                handler, max_batch_size=64, max_batch_window=0.05
            ) as server:
                decisions = await server.submit_many([_request(i) for i in range(3)])
                return handler.batch_sizes, decisions

        sizes, decisions = asyncio.run(main())
        # Window fired: all three coalesced, none waited for a full batch.
        assert sizes == [3]
        assert [d.client_id for d in decisions] == ["c0", "c1", "c2"]

    def test_responses_preserve_request_order_across_batches(self):
        async def main():
            handler = _EchoHandler()
            async with AdaptationServer(
                handler, max_batch_size=3, max_batch_window=0.01
            ) as server:
                return await server.submit_many([_request(i) for i in range(10)])

        decisions = asyncio.run(main())
        assert [d.client_id for d in decisions] == [f"c{i}" for i in range(10)]
        assert [d.phase for d in decisions] == [f"p{i}" for i in range(10)]

    def test_handler_errors_fail_only_their_own_batch(self):
        class _FlakyHandler(_EchoHandler):
            def handle_batch(self, requests):
                if any(r.client_id == "c1" for r in requests):
                    raise RuntimeError("poisoned batch")
                return super().handle_batch(requests)

        async def main():
            handler = _FlakyHandler()
            async with AdaptationServer(
                handler, max_batch_size=1, max_batch_window=0.0
            ) as server:
                good = await server.submit(_request(0))
                with pytest.raises(RuntimeError, match="poisoned batch"):
                    await server.submit(_request(1))
                # The scheduler survived the failing batch.
                again = await server.submit(_request(2))
                return good, again

        good, again = asyncio.run(main())
        assert (good.client_id, again.client_id) == ("c0", "c2")

    @staticmethod
    def _lone_latency(window, *prelude):
        """Serve each ``prelude`` step, then time one lone request.

        A step is a list of requests submitted together (answered before
        the next step), or a number of seconds to sleep.  Returns the
        batch sizes, the lone request's latency and ``window_skips``.
        """

        async def main():
            handler = _EchoHandler()
            async with AdaptationServer(
                handler, max_batch_window=window
            ) as server:
                for step in prelude:
                    if isinstance(step, list):
                        await server.submit_many(step)
                    else:
                        await asyncio.sleep(step)
                start = time.perf_counter()
                await server.submit(_request(99))
                elapsed = time.perf_counter() - start
                return handler.batch_sizes, elapsed, server.metrics()["window_skips"]

        return asyncio.run(main())

    def test_lone_request_a_window_after_the_previous_dispatches_at_once(self):
        # The first request waits its 1 s window, so the second arrives
        # more than a window after it.
        sizes, elapsed, skips = self._lone_latency(1.0, [_request(0)], 0.05)
        assert sizes == [1, 1]
        assert elapsed < 0.5
        assert skips == 1

    def test_fresh_batcher_waits_the_window_for_its_first_request(self):
        sizes, elapsed, skips = self._lone_latency(0.3)
        assert sizes == [1]
        assert elapsed >= 0.9 * 0.3
        assert skips == 0

    def test_lone_request_after_a_batch_of_several_waits_the_window(self):
        sizes, elapsed, skips = self._lone_latency(
            0.3, [_request(i) for i in range(3)], 0.05
        )
        assert sizes == [3, 1]
        assert elapsed >= 0.9 * 0.3
        assert skips == 0

    def test_lone_request_within_a_window_of_the_previous_waits(self):
        # Request 1 skips the window; the timed one follows it at once.
        sizes, elapsed, skips = self._lone_latency(
            0.3, [_request(0)], 0.05, [_request(1)]
        )
        assert sizes == [1, 1, 1]
        assert elapsed >= 0.9 * 0.3
        assert skips == 1

    def test_requests_queued_together_wait_the_window_for_company(self):
        async def main():
            handler = _EchoHandler()
            async with AdaptationServer(handler, max_batch_window=0.3) as server:
                await server.submit(_request(0))  # waits its window
                await asyncio.sleep(0.05)
                # Two requests queued together, a window after the lone
                # one: they still wait, and the third joins them.
                pair = asyncio.ensure_future(
                    server.submit_many([_request(1), _request(2)])
                )
                await asyncio.sleep(0.05)
                await server.submit(_request(3))
                await pair
                return handler.batch_sizes, server.metrics()["window_skips"]

        sizes, skips = asyncio.run(main())
        assert sizes == [1, 3]
        assert skips == 0

    def test_pipelined_burst_after_lone_requests_keeps_full_batches(self):
        window = 0.2

        class _SleepyHandler(_EchoHandler):
            def handle_batch(self, requests):
                time.sleep(0.001)
                return super().handle_batch(requests)

        async def main():
            handler = _SleepyHandler()
            server = AdaptationServer(handler, max_batch_window=window)
            try:
                host, port = await server.serve_tcp(host="127.0.0.1", port=0)
            except OSError:
                return None
            connections = []
            try:
                # Lone requests more than a window apart: all but the
                # first skip the window.
                reader, writer = await asyncio.open_connection(host, port)
                connections.append(writer)
                for i in range(3):
                    writer.write(_line(i))
                    await _answers(reader, 1)
                    await asyncio.sleep(window + 0.05)
                lone_sizes = list(handler.batch_sizes)
                lone_skips = server.metrics()["window_skips"]
                # Then 2 connections pipeline 8 lines each, a line every
                # 2 ms, as a closed loop ramps up.
                pipes = [await asyncio.open_connection(host, port) for _ in range(2)]
                connections.extend(w for _, w in pipes)
                for i in range(8):
                    for c, (_, w) in enumerate(pipes):
                        w.write(_line(10 + 8 * c + i))
                        await w.drain()
                        await asyncio.sleep(0.002)
                answers = [await _answers(r, 8) for r, _ in pipes]
                burst_sizes = handler.batch_sizes[len(lone_sizes):]
                burst_skips = server.metrics()["window_skips"] - lone_skips
                return lone_sizes, lone_skips, answers, burst_sizes, burst_skips
            finally:
                for writer in connections:
                    writer.close()
                await server.stop()

        outcome = asyncio.run(main())
        if outcome is None:
            pytest.skip("loopback sockets unavailable in this environment")
        lone_sizes, lone_skips, answers, burst_sizes, burst_skips = outcome
        assert lone_sizes == [1, 1, 1]
        assert lone_skips == 2
        for c, lines in enumerate(answers):
            assert [a["decision"]["client_id"] for a in lines] == [
                f"c{10 + 8 * c + i}" for i in range(8)
            ]
        # At most the burst's first line goes alone; the rest wait for
        # company and share full batches.
        assert sum(burst_sizes) == 16
        assert all(size > 1 for size in burst_sizes[1:]), burst_sizes
        assert burst_skips <= 1


class TestBackpressure:
    def test_saturated_queue_rejects_with_retry_after(self):
        async def main():
            handler = _BlockingHandler()
            async with AdaptationServer(
                handler,
                max_batch_size=1,
                max_batch_window=0.0,
                max_queue_depth=2,
            ) as server:
                # Request 0 is taken by the scheduler and parks in the
                # handler; requests 1 and 2 then fill the queue to its bound.
                tasks = [asyncio.create_task(server.submit(_request(0)))]
                await asyncio.sleep(0.05)
                tasks += [
                    asyncio.create_task(server.submit(_request(i))) for i in (1, 2)
                ]
                await asyncio.sleep(0.05)
                assert server.batcher.queue_depth() == 2
                with pytest.raises(ServiceOverloadedError) as excinfo:
                    await server.submit(_request(3))
                error = excinfo.value
                handler.release.set()
                await asyncio.gather(*tasks)
                return error, server.metrics()

        error, metrics = asyncio.run(main())
        assert error.queue_depth == 2
        assert error.max_queue_depth == 2
        assert error.retry_after > 0.0
        assert metrics["rejections"] == 1
        assert metrics["decisions"] == 3

    def test_client_retries_through_a_transient_overload(self):
        async def main():
            handler = _BlockingHandler()
            async with AdaptationServer(
                handler,
                max_batch_size=1,
                max_batch_window=0.0,
                max_queue_depth=1,
            ) as server:
                tasks = [asyncio.create_task(server.submit(_request(0)))]
                await asyncio.sleep(0.05)
                tasks.append(asyncio.create_task(server.submit(_request(1))))
                await asyncio.sleep(0.05)
                client = AdaptationClient(server, max_retries=200, backoff_cap=0.01)
                retried = asyncio.create_task(client.request(_request(9)))
                await asyncio.sleep(0.05)  # let it hit the full queue at least once
                handler.release.set()
                decision = await retried
                await asyncio.gather(*tasks)
                return client.retries, decision

        retries, decision = asyncio.run(main())
        assert retries > 0
        assert decision.client_id == "c9"

    def test_zero_retries_client_propagates_the_rejection(self):
        async def main():
            handler = _BlockingHandler()
            async with AdaptationServer(
                handler,
                max_batch_size=1,
                max_batch_window=0.0,
                max_queue_depth=1,
            ) as server:
                tasks = [asyncio.create_task(server.submit(_request(0)))]
                await asyncio.sleep(0.05)
                tasks.append(asyncio.create_task(server.submit(_request(1))))
                await asyncio.sleep(0.05)
                client = AdaptationClient(server, max_retries=0)
                with pytest.raises(ServiceOverloadedError):
                    await client.request(_request(9))
                handler.release.set()
                await asyncio.gather(*tasks)

        asyncio.run(main())


def _own_cache_bundle(trained_bundle, with_reduced=True):
    """The ``trained_bundle`` fixture's members with a private prediction
    cache, so no server or reference answers from entries another filled."""
    return PredictorBundle(
        full=trained_bundle.full,
        reduced=trained_bundle.reduced if with_reduced else None,
        cache=PredictionCache(),
    )


def _assert_same_selection(decision, configuration, ranking, predicted):
    """Equal selection and ranking; predictions equal to 1e-12, since the
    rows sharing a forward pass can move a prediction in the last bits."""
    assert decision.configuration == configuration
    assert decision.ranking == ranking
    assert decision.predicted.keys() == predicted.keys()
    for name, value in predicted.items():
        assert decision.predicted[name] == pytest.approx(value, rel=1e-12)


class TestPredictionServiceDeterminism:
    """Batched decisions select what serial per-phase selection selects."""

    def test_batched_decisions_match_direct_selector_calls(
        self, machine, suite, trained_bundle
    ):
        phases = suite.get("SP").phases[:6]
        requests = _phase_requests(machine, trained_bundle, phases)
        selector = ConfigurationSelector()

        # Serial reference: one sample at a time, as PredictionPolicy does.
        reference_bundle = _own_cache_bundle(trained_bundle)
        reference = []
        for request in requests:
            predictions = reference_bundle.predict_batch_from_rates(
                [(request.ipc_sample, request.rates_dict())]
            )[0]
            reference.append(
                selector.rank(
                    predictions,
                    measured_sample=(
                        trained_bundle.sample_configuration,
                        request.ipc_sample,
                    ),
                )
            )

        async def main():
            handler = PredictionHandler(
                _own_cache_bundle(trained_bundle), selector=selector
            )
            async with AdaptationServer(
                handler, max_batch_size=len(requests), max_batch_window=0.05
            ) as server:
                return await server.submit_many(requests), server.metrics()

        decisions, metrics = asyncio.run(main())
        for request, decision, ranked in zip(requests, decisions, reference):
            assert decision.client_id == request.client_id
            assert decision.phase == request.phase
            _assert_same_selection(
                decision, ranked.best, ranked.ranking, ranked.predictions
            )
            assert decision.objective == selector.objective
        assert metrics["decisions"] == len(requests)
        assert metrics["batches"] == 1
        assert metrics["caches"]["prediction_cache"]["hits"] == 0

    def test_one_at_a_time_server_agrees_with_batched_server(
        self, machine, suite, trained_bundle
    ):
        phases = suite.get("BT").phases[:4]
        requests = _phase_requests(machine, trained_bundle, phases)

        async def run_with(batch_size):
            handler = PredictionHandler(_own_cache_bundle(trained_bundle))
            async with AdaptationServer(
                handler, max_batch_size=batch_size, max_batch_window=0.02
            ) as server:
                return await server.submit_many(requests), server.metrics()

        batched, batched_metrics = asyncio.run(run_with(len(requests)))
        serial, serial_metrics = asyncio.run(run_with(1))
        assert batched_metrics["batches"] == 1
        assert serial_metrics["batches"] == len(requests)
        for metrics in (batched_metrics, serial_metrics):
            assert metrics["caches"]["prediction_cache"]["hits"] == 0
        for one, other in zip(serial, batched):
            assert (one.client_id, one.phase, one.objective) == (
                other.client_id,
                other.phase,
                other.objective,
            )
            _assert_same_selection(
                one, other.configuration, other.ranking, other.predicted
            )


def _unknown_event_set_batch(machine, suite, trained_bundle):
    """Five valid SP samples and, fourth, one naming the missing ``reduced``."""
    requests = _phase_requests(
        machine, trained_bundle, suite.get("SP").phases[:6]
    )
    requests[3] = dataclasses.replace(requests[3], event_set="reduced")
    return requests


class TestUnknownEventSet:
    """A request naming an event set the bundle lacks fails alone."""

    def test_other_requests_of_the_batch_are_decided(
        self, machine, suite, trained_bundle
    ):
        requests = _unknown_event_set_batch(machine, suite, trained_bundle)

        async def main():
            handler = PredictionHandler(
                _own_cache_bundle(trained_bundle, with_reduced=False)
            )
            async with AdaptationServer(
                handler, max_batch_size=8, max_batch_window=0.05
            ) as server:
                outcomes = await asyncio.gather(
                    *(server.submit(r) for r in requests), return_exceptions=True
                )
                return outcomes, server.metrics()

        outcomes, metrics = asyncio.run(main())
        assert metrics["batches"] == 1
        assert isinstance(outcomes[3], UnknownEventSetError)
        assert "reduced" in str(outcomes[3])
        served = [o for i, o in enumerate(outcomes) if i != 3]
        assert all(isinstance(o, AdaptationDecision) for o in served)
        assert [d.client_id for d in served] == [
            r.client_id for i, r in enumerate(requests) if i != 3
        ]
        assert metrics["decisions"] == 5

    def test_tcp_line_answers_bad_request_and_connection_stays_open(
        self, machine, suite, trained_bundle
    ):
        requests = _unknown_event_set_batch(machine, suite, trained_bundle)

        def line(request):
            payload = dict(request.to_payload(), kind="phase_sample")
            return json.dumps(payload).encode() + b"\n"

        async def main():
            server = AdaptationServer(
                PredictionHandler(
                    _own_cache_bundle(trained_bundle, with_reduced=False)
                ),
                max_batch_size=8,
                max_batch_window=0.05,
            )
            try:
                host, port = await server.serve_tcp(host="127.0.0.1", port=0)
            except OSError:
                return None
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"".join(line(r) for r in requests))
                await writer.drain()
                answers = await _answers(reader, len(requests))
                # The same connection keeps serving after the bad line.
                writer.write(line(requests[0]))
                await writer.drain()
                after = json.loads(await _next_line(reader))
                writer.close()
                await writer.wait_closed()
                return answers, after
            finally:
                await server.stop()

        outcome = asyncio.run(main())
        if outcome is None:
            pytest.skip("loopback sockets unavailable in this environment")
        answers, after = outcome
        assert answers[3] == {
            "ok": False,
            "error": "bad_request",
            "detail": "no predictor available for event set 'reduced'",
        }
        for i, (request, answer) in enumerate(zip(requests, answers)):
            if i != 3:
                assert answer["ok"] is True
                assert answer["decision"]["client_id"] == request.client_id
        assert after["ok"] is True


class TestGridService:
    def test_grid_decisions_match_direct_grid_best(self, suite):
        phases = suite.get("CG").phases[:4]
        handler = GridHandler(objective="time")
        requests = [
            GridProbeRequest(client_id=f"g{i}", phase=p.name, work=p.work)
            for i, p in enumerate(phases)
        ]
        grid = handler.machine.execute_grid(
            [p.work for p in phases], handler.configurations
        )
        expected = [c.name for c in grid.best("time_seconds", minimize=True)]

        async def main():
            async with AdaptationServer(
                handler, max_batch_size=len(requests), max_batch_window=0.05
            ) as server:
                first = await server.submit_many(requests)
                second = await server.submit_many(requests)
                return first, second, server.metrics()

        first, second, metrics = asyncio.run(main())
        assert [d.configuration for d in first] == expected
        # Repeats are pure memo hits and bit-identical.
        assert [d.to_payload() for d in first] == [d.to_payload() for d in second]
        memo = metrics["caches"]["execution_memo"]
        assert memo["hits"] >= len(requests)
        assert memo["hit_rate"] > 0.0

    def test_grid_handler_rejects_noisy_machines_and_bad_objectives(self):
        with pytest.raises(ValueError, match="noise-free"):
            GridHandler(machine=Machine(noise_sigma=0.05))
        with pytest.raises(ValueError, match="unknown objective"):
            GridHandler(objective="happiness")


class TestMetricsSurface:
    def test_snapshot_shape_and_json_round_trip(self):
        async def main():
            handler = _EchoHandler()
            async with AdaptationServer(
                handler, max_batch_size=4, max_batch_window=0.01
            ) as server:
                await server.submit_many([_request(i) for i in range(10)])
                return server.metrics()

        snapshot = asyncio.run(main())
        assert set(snapshot) == {
            "decisions",
            "batches",
            "rejections",
            "window_skips",
            "decisions_per_second",
            "mean_batch_size",
            "batch_size_histogram",
            "queue_depth",
            "latency_seconds",
            "caches",
        }
        assert snapshot["decisions"] == 10
        assert snapshot["window_skips"] == 0  # no lone batch to skip
        assert sum(
            int(size) * count
            for size, count in snapshot["batch_size_histogram"].items()
        ) == 10
        latency = snapshot["latency_seconds"]
        assert latency["count"] == 10
        assert 0.0 <= latency["p50"] <= latency["p99"] <= latency["max"]
        json.dumps(snapshot)  # must be a plain JSON-able dict

    def test_metrics_object_derived_quantities(self):
        clock = iter([0.0, 1.0, 2.0])
        metrics = ServiceMetrics(clock=lambda: next(clock))
        metrics.record_batch(4, [0.01, 0.02, 0.03, 0.04])
        metrics.record_batch(2, [0.05, 0.06])
        metrics.record_batch(3, [0.07, 0.08, 0.09])
        assert metrics.decisions == 9
        assert metrics.decisions_per_second() == pytest.approx(4.5)
        assert metrics.mean_batch_size() == pytest.approx(3.0)
        assert metrics.latency_percentile(100) == pytest.approx(0.09)


class TestOpenLoopClientFleet:
    def test_open_loop_answers_everything_in_order(self):
        async def main():
            handler = _EchoHandler()
            async with AdaptationServer(
                handler, max_batch_size=8, max_batch_window=0.005
            ) as server:
                requests = [_request(i) for i in range(40)]
                return await run_open_loop(server, requests, concurrency=8), requests

        result, requests = asyncio.run(main())
        assert [d.client_id for d in result.decisions] == [
            r.client_id for r in requests
        ]
        assert result.decisions_per_second > 0
        assert result.metrics["decisions"] == len(requests)


class TestWireProtocol:
    def test_payload_round_trips(self):
        request = _request(7)
        assert PhaseSampleRequest.from_payload(request.to_payload()) == request
        probe = GridProbeRequest(
            client_id="g", phase="p", work=WorkRequest(instructions=2e8)
        )
        assert GridProbeRequest.from_payload(probe.to_payload()) == probe
        decision = AdaptationDecision(
            client_id="c",
            phase="p",
            configuration="2b",
            objective="ipc",
            ranking=("2b", "4"),
            predicted={"2b": 1.5, "4": 1.2},
        )
        assert AdaptationDecision.from_payload(decision.to_payload()) == decision

    def test_tcp_round_trip_matches_in_process_submission(self):
        async def main():
            handler = _EchoHandler()
            server = AdaptationServer(handler, max_batch_size=4, max_batch_window=0.01)
            try:
                host, port = await server.serve_tcp(host="127.0.0.1", port=0)
            except OSError:
                return None
            try:
                async with TCPAdaptationClient(host, port) as client:
                    remote = await client.request(_request(0))
                local = await server.submit(_request(0))
                return remote, local
            finally:
                await server.stop()

        outcome = asyncio.run(main())
        if outcome is None:
            pytest.skip("loopback sockets unavailable in this environment")
        remote, local = outcome
        assert remote.to_payload() == local.to_payload()

    def test_tcp_rejects_malformed_requests(self):
        async def main():
            handler = _EchoHandler()
            server = AdaptationServer(handler, max_batch_window=0.01)
            try:
                host, port = await server.serve_tcp(host="127.0.0.1", port=0)
            except OSError:
                return None
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b'{"kind": "nope"}\n')
                await writer.drain()
                response = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return response
            finally:
                await server.stop()

        response = asyncio.run(main())
        if response is None:
            pytest.skip("loopback sockets unavailable in this environment")
        assert response["ok"] is False
        assert response["error"] == "bad_request"


class TestLifecycle:
    def test_submitting_to_a_stopped_server_raises(self):
        async def main():
            handler = _EchoHandler()
            server = AdaptationServer(handler)
            async with server:
                await server.submit(_request(0))
            with pytest.raises(RuntimeError, match="not running"):
                await server.submit(_request(1))

        asyncio.run(main())

    def test_stop_rejects_requests_never_served(self):
        async def main():
            handler = _BlockingHandler()
            server = AdaptationServer(
                handler, max_batch_size=1, max_batch_window=0.0, max_queue_depth=8
            )
            await server.start()
            # Request 0 parks in the handler, requests 1/2 stay queued;
            # stopping must fail all three (in-flight and queued alike)
            # instead of abandoning their awaiters.
            tasks = [
                asyncio.create_task(server.submit(_request(i))) for i in range(3)
            ]
            await asyncio.sleep(0.1)
            await server.stop()
            handler.release.set()  # unpark the worker thread
            return await asyncio.gather(*tasks, return_exceptions=True)

        outcomes = asyncio.run(main())
        assert len(outcomes) == 3
        assert all(isinstance(o, RuntimeError) for o in outcomes)
        assert any("stopped before serving" in str(o) for o in outcomes)

    def test_stop_inside_the_batch_window_fails_every_collected_request(self):
        async def trial(yields):
            batcher = MicroBatcher(
                lambda requests: list(requests),
                max_batch_size=8,
                max_batch_window=1.0,
            )
            await batcher.start()
            first = asyncio.create_task(batcher.submit("r0"))
            await asyncio.sleep(0.05)  # r0 is off the queue, in its window
            second = asyncio.create_task(batcher.submit("r1"))
            # Let r1's arrival get that many steps along before stop().
            for _ in range(yields):
                await asyncio.sleep(0)
            loop = asyncio.get_running_loop()
            started = loop.time()
            await asyncio.wait_for(batcher.stop(), timeout=5.0)
            stop_s = loop.time() - started
            outcomes = await asyncio.wait_for(
                asyncio.gather(first, second, return_exceptions=True), timeout=5.0
            )
            return [type(outcome).__name__ for outcome in outcomes], stop_s

        for yields in range(6):
            outcomes, stop_s = asyncio.run(trial(yields))
            assert outcomes == ["ServiceStoppedError"] * 2, yields
            assert stop_s < 0.5, yields  # not the rest of the 1 s window

    def test_cancelled_stop_propagates_to_its_caller(self):
        # A scheduler that takes 1 s to honour its cancellation: a
        # wait_for timeout on stop() must raise, not wait it out and
        # return None, and the queued request is still rejected.
        class _SlowToCancel(MicroBatcher):
            async def _run(self):
                self.task = asyncio.current_task()
                try:
                    await asyncio.Event().wait()
                except asyncio.CancelledError:
                    await asyncio.sleep(1.0)
                    raise

        async def main():
            batcher = _SlowToCancel(lambda requests: list(requests))
            await batcher.start()
            queued = asyncio.create_task(batcher.submit("r0"))
            await asyncio.sleep(0.01)
            loop = asyncio.get_running_loop()
            started = loop.time()
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(batcher.stop(), timeout=0.2)
            elapsed = loop.time() - started
            outcome = await asyncio.wait_for(
                asyncio.gather(queued, return_exceptions=True), timeout=5.0
            )
            with pytest.raises(asyncio.CancelledError):
                await batcher.task
            return elapsed, outcome[0]

        elapsed, outcome = asyncio.run(main())
        assert elapsed < 0.8
        assert isinstance(outcome, ServiceStoppedError)

    def test_double_start_is_idempotent(self):
        async def main():
            handler = _EchoHandler()
            server = AdaptationServer(handler, max_batch_window=0.0)
            await server.start()
            await server.start()
            decision = await server.submit(_request(0))
            await server.stop()
            await server.stop()
            return decision

        assert asyncio.run(main()).client_id == "c0"


class TestRetryAfterHint:
    """The backpressure hint tracks the live backlog, not the worst case."""

    def _warm_batcher(self, max_batch_size=8, window=0.002):
        # Deterministic throughput: 3 batches over 2 fake seconds.
        clock = iter([0.0, 1.0, 2.0])
        metrics = ServiceMetrics(clock=lambda: next(clock))
        batcher = MicroBatcher(
            lambda requests: requests,
            max_batch_size=max_batch_size,
            max_batch_window=window,
            metrics=metrics,
        )
        for size in (8, 8, 8):
            metrics.record_batch(size, [0.01] * size)
        return batcher

    def test_hint_grows_monotonically_with_queue_depth(self):
        batcher = self._warm_batcher()
        hints = [batcher.retry_after_hint(queue_depth=d) for d in (1, 8, 64, 256)]
        assert hints == sorted(hints)
        assert len(set(hints)) == len(hints)  # strictly increasing here

    def test_nearly_drained_queue_advises_much_less_than_full(self):
        batcher = self._warm_batcher()
        light = batcher.retry_after_hint(queue_depth=1)
        full = batcher.retry_after_hint(queue_depth=batcher.max_queue_depth)
        assert light < full / 10

    def test_default_depth_is_the_live_queue_not_the_bound(self):
        batcher = self._warm_batcher()
        # Not started: the live queue is empty, so the hint must match the
        # minimal-depth estimate, not a max_queue_depth drain time.
        assert batcher.queue_depth() == 0
        assert batcher.retry_after_hint() == batcher.retry_after_hint(queue_depth=1)

    def test_cold_fallback_scales_with_whole_batches(self):
        metrics = ServiceMetrics(clock=lambda: 0.0)
        batcher = MicroBatcher(
            lambda requests: requests,
            max_batch_size=8,
            max_batch_window=0.002,
            metrics=metrics,
        )
        metrics.elapsed_floor = 0.0  # force the no-throughput fallback
        assert metrics.decisions_per_second() == 0.0
        one_batch = batcher.retry_after_hint(queue_depth=8)
        two_batches = batcher.retry_after_hint(queue_depth=9)
        assert one_batch == pytest.approx(0.002)
        assert two_batches == pytest.approx(0.004)

    def test_live_rejection_carries_a_backlog_shaped_hint(self):
        async def main():
            handler = _BlockingHandler()
            async with AdaptationServer(
                handler,
                max_batch_size=1,
                max_batch_window=0.0,
                max_queue_depth=2,
            ) as server:
                tasks = [asyncio.create_task(server.submit(_request(0)))]
                await asyncio.sleep(0.05)
                tasks += [
                    asyncio.create_task(server.submit(_request(i))) for i in (1, 2)
                ]
                await asyncio.sleep(0.05)
                with pytest.raises(ServiceOverloadedError) as excinfo:
                    await server.submit(_request(3))
                # Depth-2 backlog: the hint must stay within the live
                # estimate for that depth, far below a deep-bound drain.
                live = server.batcher.retry_after_hint(queue_depth=2)
                worst = server.batcher.retry_after_hint(queue_depth=1024)
                handler.release.set()
                await asyncio.gather(*tasks)
                return excinfo.value.retry_after, live, worst

        retry_after, live, worst = asyncio.run(main())
        assert retry_after <= live
        assert retry_after < worst


class TestSingleBatchThroughput:
    """decisions_per_second is finite after one dispatched batch."""

    def test_raw_metrics_still_report_zero_without_a_floor(self):
        metrics = ServiceMetrics(clock=lambda: 1.5)
        metrics.record_batch(64, [0.01] * 64)
        assert metrics.decisions_per_second() == 0.0

    def test_batcher_floor_makes_a_single_batch_rate_finite(self):
        metrics = ServiceMetrics(clock=lambda: 1.5)
        MicroBatcher(
            lambda requests: requests,
            max_batch_size=64,
            max_batch_window=0.004,
            metrics=metrics,
        )
        metrics.record_batch(64, [0.01] * 64)
        assert metrics.decisions_per_second() == pytest.approx(64 / 0.004)

    def test_explicit_floor_survives_a_larger_preset(self):
        metrics = ServiceMetrics()
        metrics.elapsed_floor = 1.0
        MicroBatcher(lambda requests: requests, max_batch_window=0.002, metrics=metrics)
        assert metrics.elapsed_floor == 1.0  # max(), never lowered

    def test_served_single_batch_reports_finite_throughput(self):
        async def main():
            handler = _EchoHandler()
            async with AdaptationServer(
                handler, max_batch_size=64, max_batch_window=0.005
            ) as server:
                await server.submit_many([_request(i) for i in range(3)])
                return server.metrics()

        snapshot = asyncio.run(main())
        assert snapshot["batches"] == 1
        assert snapshot["decisions_per_second"] > 0.0

    def test_snapshot_percentiles_match_latency_percentile(self):
        metrics = ServiceMetrics(clock=lambda: 0.0)
        metrics.record_batch(5, [0.010, 0.020, 0.030, 0.040, 0.500])
        snapshot = metrics.snapshot()
        assert snapshot["latency_seconds"]["p50"] == metrics.latency_percentile(50)
        assert snapshot["latency_seconds"]["p99"] == metrics.latency_percentile(99)
        assert snapshot["latency_seconds"]["p50"] == pytest.approx(0.030)


class TestRetryBackoffJitter:
    """Rejected clients back off apart instead of retrying in lockstep."""

    def test_same_seed_reproduces_the_delay_stream(self):
        a = AdaptationClient(None, jitter_seed=7)
        b = AdaptationClient(None, jitter_seed=7)
        assert [a.next_retry_delay(0.01, n) for n in range(1, 6)] == [
            b.next_retry_delay(0.01, n) for n in range(1, 6)
        ]

    def test_distinct_seeds_desynchronize_the_first_retry(self):
        clients = [AdaptationClient(None, jitter_seed=i) for i in range(8)]
        delays = {client.next_retry_delay(0.01, 1) for client in clients}
        assert len(delays) == len(clients)
        assert all(0.0 < d <= 0.01 for d in delays)

    def test_default_seeds_are_distinct_per_client(self):
        clients = [AdaptationClient(None) for _ in range(8)]
        delays = {client.next_retry_delay(0.01, 1) for client in clients}
        assert len(delays) == len(clients)

    def test_attempt_scaling_is_monotone_and_capped(self):
        client = AdaptationClient(None, backoff_cap=0.08, jitter=0.0)
        delays = [client.next_retry_delay(0.01, n) for n in range(1, 8)]
        assert delays == sorted(delays)
        assert delays[0] == pytest.approx(0.01)
        assert delays[1] == pytest.approx(0.02)
        assert delays[-1] == pytest.approx(0.08)  # capped, never unbounded
        assert max(delays) <= client.backoff_cap

    def test_jitter_still_separates_clients_pinned_at_the_cap(self):
        # A hint far above the cap used to collapse every client onto the
        # identical capped sleep; jitter applies after capping.
        clients = [
            AdaptationClient(None, backoff_cap=0.05, jitter_seed=i) for i in range(6)
        ]
        delays = {client.next_retry_delay(10.0, 9) for client in clients}
        assert len(delays) == len(clients)
        assert all(0.0 < d <= 0.05 for d in delays)

    def test_tcp_client_shares_the_same_backoff_discipline(self):
        tcp = TCPAdaptationClient("localhost", 1, jitter_seed=3)
        in_process = AdaptationClient(None, jitter_seed=3)
        assert [tcp.next_retry_delay(0.02, n) for n in range(1, 5)] == [
            in_process.next_retry_delay(0.02, n) for n in range(1, 5)
        ]

    def test_invalid_backoff_parameters_are_rejected(self):
        with pytest.raises(ValueError, match="backoff_factor"):
            AdaptationClient(None, backoff_factor=0.5)
        with pytest.raises(ValueError, match="jitter"):
            AdaptationClient(None, jitter=1.0)

    def test_concurrent_retriers_sleep_apart(self):
        class RecordingClient(AdaptationClient):
            def __init__(self, server, **kwargs):
                super().__init__(server, **kwargs)
                self.recorded = []

            def next_retry_delay(self, retry_after, attempt):
                delay = super().next_retry_delay(retry_after, attempt)
                self.recorded.append(delay)
                return min(delay, 0.001)  # keep the test fast

        async def main():
            handler = _BlockingHandler()
            async with AdaptationServer(
                handler,
                max_batch_size=1,
                max_batch_window=0.0,
                max_queue_depth=1,
            ) as server:
                tasks = [asyncio.create_task(server.submit(_request(0)))]
                await asyncio.sleep(0.05)
                tasks.append(asyncio.create_task(server.submit(_request(1))))
                await asyncio.sleep(0.05)
                clients = [
                    RecordingClient(
                        server, max_retries=500, backoff_cap=0.02, jitter_seed=i
                    )
                    for i in range(3)
                ]
                retriers = [
                    asyncio.create_task(client.request(_request(10 + i)))
                    for i, client in enumerate(clients)
                ]
                await asyncio.sleep(0.1)  # let every client hit the full queue
                handler.release.set()
                decisions = await asyncio.gather(*retriers)
                await asyncio.gather(*tasks)
                return clients, decisions

        clients, decisions = asyncio.run(main())
        assert all(client.retries > 0 for client in clients)
        assert {d.client_id for d in decisions} == {"c10", "c11", "c12"}
        # The first planned sleep of each client is distinct: no lockstep
        # retry wave even though all were rejected with the same hint.
        first_delays = {client.recorded[0] for client in clients}
        assert len(first_delays) == len(clients)


class _PoisonHandler(_EchoHandler):
    """Echo handler that raises whenever a batch contains a poison phase."""

    def handle_batch(self, requests):
        if any("poison" in r.phase for r in requests):
            raise ValueError("simulated handler failure")
        return super().handle_batch(requests)


def _poison_request():
    return PhaseSampleRequest(
        client_id="px", phase="poison", ipc_sample=1.0, rates={"x": 0.1}
    )


class TestTCPSilentDropFixes:
    """The TCP endpoint answers structurally instead of dropping the socket."""

    def test_handler_exception_answers_internal_and_connection_survives(self):
        async def main():
            server = AdaptationServer(
                _PoisonHandler(), max_batch_size=1, max_batch_window=0.0
            )
            try:
                host, port = await server.serve_tcp(host="127.0.0.1", port=0)
            except OSError:
                return None
            try:
                reader, writer = await asyncio.open_connection(host, port)
                poison = dict(_poison_request().to_payload(), kind="phase_sample")
                good = dict(_request(1).to_payload(), kind="phase_sample")
                # The poisoned batch must answer an internal error...
                writer.write(json.dumps(poison).encode() + b"\n")
                await writer.drain()
                first = json.loads(await reader.readline())
                # ...and the SAME connection must keep serving afterwards.
                writer.write(json.dumps(good).encode() + b"\n")
                await writer.drain()
                second = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return first, second
            finally:
                await server.stop()

        outcome = asyncio.run(main())
        if outcome is None:
            pytest.skip("loopback sockets unavailable in this environment")
        first, second = outcome
        assert first["ok"] is False
        assert first["error"] == "internal"
        assert "simulated handler failure" in first["detail"]
        assert second["ok"] is True
        assert second["decision"]["client_id"] == "c1"

    def test_tcp_client_surfaces_internal_error_and_keeps_connection(self):
        async def main():
            server = AdaptationServer(
                _PoisonHandler(), max_batch_size=1, max_batch_window=0.0
            )
            try:
                host, port = await server.serve_tcp(host="127.0.0.1", port=0)
            except OSError:
                return None
            try:
                async with TCPAdaptationClient(host, port) as client:
                    try:
                        await client.request(_poison_request())
                    except RuntimeError as exc:
                        error = exc
                    else:
                        error = None
                    decision = await client.request(_request(2))
                    return error, decision, client.retries
            finally:
                await server.stop()

        outcome = asyncio.run(main())
        if outcome is None:
            pytest.skip("loopback sockets unavailable in this environment")
        error, decision, retries = outcome
        assert error is not None
        assert "internal error" in str(error)
        assert "simulated handler failure" in str(error)
        assert decision.client_id == "c2"
        assert retries == 0

    def test_stop_during_inflight_tcp_request_answers_shutting_down(self):
        async def main():
            handler = _BlockingHandler()
            server = AdaptationServer(
                handler, max_batch_size=1, max_batch_window=0.0
            )
            try:
                host, port = await server.serve_tcp(host="127.0.0.1", port=0)
            except OSError:
                return None
            reader, writer = await asyncio.open_connection(host, port)
            line = json.dumps(
                dict(_request(0).to_payload(), kind="phase_sample")
            ).encode() + b"\n"
            writer.write(line)
            await writer.drain()
            await asyncio.sleep(0.1)  # request is now parked in the handler
            stop = asyncio.create_task(server.stop())
            response = json.loads(await reader.readline())
            handler.release.set()  # unpark the worker thread
            await stop
            # After the response the server closes the connection (EOF),
            # rather than leaving the client hanging.
            assert await reader.readline() == b""
            writer.close()
            await writer.wait_closed()
            return response

        response = asyncio.run(main())
        if response is None:
            pytest.skip("loopback sockets unavailable in this environment")
        assert response["ok"] is False
        assert response["error"] == "shutting_down"

    def test_stop_answers_queued_requests_shutting_down_across_connections(self):
        async def main():
            handler = _BlockingHandler()
            server = AdaptationServer(
                handler, max_batch_size=1, max_batch_window=0.0, max_queue_depth=8
            )
            try:
                host, port = await server.serve_tcp(host="127.0.0.1", port=0)
            except OSError:
                return None
            connections = []
            for i in range(3):
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    json.dumps(
                        dict(_request(i).to_payload(), kind="phase_sample")
                    ).encode()
                    + b"\n"
                )
                await writer.drain()
                connections.append((reader, writer))
            await asyncio.sleep(0.1)  # one in flight, two queued
            stop = asyncio.create_task(server.stop())
            responses = [
                json.loads(await reader.readline()) for reader, _ in connections
            ]
            handler.release.set()
            await stop
            for _, writer in connections:
                writer.close()
                await writer.wait_closed()
            return responses

        responses = asyncio.run(main())
        if responses is None:
            pytest.skip("loopback sockets unavailable in this environment")
        assert len(responses) == 3
        for response in responses:
            assert response["ok"] is False
            assert response["error"] == "shutting_down"

    def test_tcp_client_treats_shutting_down_as_non_retriable(self):
        async def main():
            handler = _BlockingHandler()
            server = AdaptationServer(
                handler, max_batch_size=1, max_batch_window=0.0
            )
            try:
                host, port = await server.serve_tcp(host="127.0.0.1", port=0)
            except OSError:
                return None
            client = TCPAdaptationClient(host, port)
            await client.connect()
            request_task = asyncio.create_task(client.request(_request(0)))
            await asyncio.sleep(0.1)
            stop = asyncio.create_task(server.stop())
            try:
                await request_task
            except ServiceStoppedError as exc:
                outcome = exc
            else:
                outcome = None
            handler.release.set()
            await stop
            await client.close()
            return outcome, client.retries

        result = asyncio.run(main())
        if result is None:
            pytest.skip("loopback sockets unavailable in this environment")
        outcome, retries = result
        assert isinstance(outcome, ServiceStoppedError)
        assert retries == 0  # never retried: the server is going away

    def test_stopped_batcher_raises_typed_service_stopped_error(self):
        async def main():
            server = AdaptationServer(_EchoHandler())
            async with server:
                await server.submit(_request(0))
            with pytest.raises(ServiceStoppedError):
                await server.submit(_request(1))

        asyncio.run(main())


class TestServeTcpDoubleBind:
    """A second serve_tcp() must not silently leak the first listener."""

    def test_double_serve_tcp_raises_and_first_listener_survives(self):
        async def main():
            server = AdaptationServer(_EchoHandler(), max_batch_window=0.0)
            try:
                host, port = await server.serve_tcp(host="127.0.0.1", port=0)
            except OSError:
                return None
            try:
                with pytest.raises(RuntimeError, match="serve_tcp"):
                    await server.serve_tcp(host="127.0.0.1", port=0)
                # The original endpoint is still serving.
                async with TCPAdaptationClient(host, port) as client:
                    decision = await client.request(_request(0))
                return decision
            finally:
                await server.stop()

        decision = asyncio.run(main())
        if decision is None:
            pytest.skip("loopback sockets unavailable in this environment")
        assert decision.client_id == "c0"

    def test_rebinding_after_stop_works(self):
        async def main():
            server = AdaptationServer(_EchoHandler(), max_batch_window=0.0)
            try:
                first = await server.serve_tcp(host="127.0.0.1", port=0)
            except OSError:
                return None
            await server.stop()
            second = await server.serve_tcp(host="127.0.0.1", port=0)
            try:
                async with TCPAdaptationClient(*second) as client:
                    decision = await client.request(_request(5))
                return first, second, decision
            finally:
                await server.stop()

        outcome = asyncio.run(main())
        if outcome is None:
            pytest.skip("loopback sockets unavailable in this environment")
        first, second, decision = outcome
        assert decision.client_id == "c5"


class TestCancelledSubmissions:
    def test_cancelled_submission_never_reaches_the_handler(self):
        async def main():
            handler = _BlockingHandler()
            server = AdaptationServer(
                handler, max_batch_size=1, max_batch_window=0.0
            )
            await server.start()
            tasks = [
                asyncio.create_task(server.submit(_request(i))) for i in range(3)
            ]
            await asyncio.sleep(0.1)  # c0 parks in the handler, c1/c2 queue
            tasks[1].cancel()
            handler.release.set()
            served = await asyncio.gather(tasks[0], tasks[2])
            decisions = server.metrics()["decisions"]
            await server.stop()
            return served, tasks[1].cancelled(), handler.batch_sizes, decisions

        served, cancelled, sizes, decisions = asyncio.run(main())
        assert [d.client_id for d in served] == ["c0", "c2"]
        assert cancelled
        assert sizes == [1, 1]  # c1 was dropped before dispatch
        assert decisions == 2

    def test_batch_whose_submitters_all_left_is_not_recorded(self):
        async def main():
            handler = _BlockingHandler()
            server = AdaptationServer(
                handler, max_batch_size=1, max_batch_window=0.0
            )
            await server.start()
            left = asyncio.create_task(server.submit(_request(0)))
            await asyncio.sleep(0.1)  # c0 parks in the handler
            left.cancel()
            handler.release.set()
            served = await server.submit(_request(1))
            metrics = server.metrics()
            await server.stop()
            return served, handler.batch_sizes, metrics

        served, sizes, metrics = asyncio.run(main())
        assert served.client_id == "c1"
        assert sizes == [1, 1]  # c0 was already in the handler
        assert metrics["batches"] == 1
        assert metrics["decisions"] == 1
        assert metrics["batch_size_histogram"] == {"1": 1}


def _line(i):
    """Request ``i`` as one line of the JSON-lines protocol."""
    payload = dict(_request(i).to_payload(), kind="phase_sample")
    return json.dumps(payload).encode() + b"\n"


async def _next_line(reader):
    return await asyncio.wait_for(reader.readline(), timeout=10.0)


async def _answers(reader, count):
    return [json.loads(await _next_line(reader)) for _ in range(count)]


async def _answers_until_eof(reader):
    """Every answer the server writes before it closes the connection."""
    answers = []
    while line := await _next_line(reader):
        answers.append(json.loads(line))
    return answers


def _asyncio_errors(caplog):
    return [
        record.getMessage()
        for record in caplog.records
        if record.name == "asyncio" and record.levelno >= logging.ERROR
    ]


class _GateHandler(_BlockingHandler):
    """Blocking handler that also records each batch's size as it enters."""

    def __init__(self):
        super().__init__()
        self.entered = []

    def handle_batch(self, requests):
        self.entered.append(len(requests))
        return super().handle_batch(requests)


class TestPipelinedTCP:
    """A client may write lines ahead; the server answers them in order."""

    def test_pipelined_lines_share_a_batch_and_answer_in_order(self):
        async def main():
            handler = _EchoHandler()
            server = AdaptationServer(handler, max_batch_window=0.01)
            try:
                host, port = await server.serve_tcp(host="127.0.0.1", port=0)
            except OSError:
                return None
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"".join(_line(i) for i in range(10)))
                await writer.drain()
                answers = await _answers(reader, 10)
                writer.close()
                await writer.wait_closed()
                return answers, handler.batch_sizes
            finally:
                await server.stop()

        outcome = asyncio.run(main())
        if outcome is None:
            pytest.skip("loopback sockets unavailable in this environment")
        answers, sizes = outcome
        assert [a["decision"]["client_id"] for a in answers] == [
            f"c{i}" for i in range(10)
        ]
        assert max(sizes) > 1  # one connection's lines coalesced

    def test_read_ahead_stops_at_max_batch_size(self):
        async def main():
            handler = _GateHandler()
            server = AdaptationServer(
                handler, max_batch_size=4, max_batch_window=0.01
            )
            try:
                host, port = await server.serve_tcp(host="127.0.0.1", port=0)
            except OSError:
                return None
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"".join(_line(i) for i in range(12)))
                await writer.drain()

                def held():
                    return server.batcher.queue_depth() + sum(handler.entered)

                loop = asyncio.get_running_loop()
                deadline = loop.time() + 5.0
                while held() < 4 and loop.time() < deadline:
                    await asyncio.sleep(0.01)
                await asyncio.sleep(0.1)  # time to overrun the bound, if it could
                before_release = held()
                handler.release.set()
                answers = await _answers(reader, 12)
                writer.close()
                await writer.wait_closed()
                return before_release, answers
            finally:
                handler.release.set()
                await server.stop()

        outcome = asyncio.run(main())
        if outcome is None:
            pytest.skip("loopback sockets unavailable in this environment")
        before_release, answers = outcome
        assert before_release == 4
        assert [a["decision"]["client_id"] for a in answers] == [
            f"c{i}" for i in range(12)
        ]

    def test_half_close_answers_every_line_then_closes(self):
        async def main():
            server = AdaptationServer(_EchoHandler(), max_batch_window=0.01)
            try:
                host, port = await server.serve_tcp(host="127.0.0.1", port=0)
            except OSError:
                return None
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"".join(_line(i) for i in range(5)))
                writer.write_eof()
                answers = await _answers_until_eof(reader)
                writer.close()
                await writer.wait_closed()
                return answers
            finally:
                await server.stop()

        answers = asyncio.run(main())
        if answers is None:
            pytest.skip("loopback sockets unavailable in this environment")
        assert [a["decision"]["client_id"] for a in answers] == [
            f"c{i}" for i in range(5)
        ]

    def test_unframeable_line_is_answered_after_the_lines_before_it(self):
        async def main():
            server = AdaptationServer(_EchoHandler(), max_batch_window=0.01)
            try:
                host, port = await server.serve_tcp(host="127.0.0.1", port=0)
            except OSError:
                return None
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    b"".join(_line(i) for i in range(3))
                    + b"x" * (3 * MAX_REQUEST_LINE_BYTES)
                    + b"\n"
                )
                answers = await _answers_until_eof(reader)
                writer.close()
                await writer.wait_closed()
                return answers
            finally:
                await server.stop()

        answers = asyncio.run(main())
        if answers is None:
            pytest.skip("loopback sockets unavailable in this environment")
        assert [a["decision"]["client_id"] for a in answers[:3]] == [
            "c0",
            "c1",
            "c2",
        ]
        assert len(answers) == 4
        assert answers[3]["error"] == "bad_request"
        assert "too long" in answers[3]["detail"]

    def test_stop_answers_every_pipelined_line_shutting_down(self):
        async def main():
            handler = _BlockingHandler()
            server = AdaptationServer(
                handler, max_batch_size=8, max_batch_window=0.0
            )
            try:
                host, port = await server.serve_tcp(host="127.0.0.1", port=0)
            except OSError:
                return None
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"".join(_line(i) for i in range(5)))
            await writer.drain()
            await asyncio.sleep(0.1)  # all five are in the handler or queued
            stop = asyncio.create_task(server.stop())
            answers = await _answers_until_eof(reader)
            handler.release.set()
            await asyncio.wait_for(stop, timeout=10.0)
            writer.close()
            await writer.wait_closed()
            return answers

        answers = asyncio.run(main())
        if answers is None:
            pytest.skip("loopback sockets unavailable in this environment")
        assert [a["error"] for a in answers] == ["shutting_down"] * 5

    def test_stop_inside_the_batch_window_answers_shutting_down(self):
        async def main():
            handler = _EchoHandler()
            server = AdaptationServer(handler, max_batch_window=1.0)
            try:
                host, port = await server.serve_tcp(host="127.0.0.1", port=0)
            except OSError:
                return None
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"".join(_line(i) for i in range(3)))
            await writer.drain()
            # The batch is off the queue, collecting until the window ends.
            await asyncio.sleep(0.05)
            loop = asyncio.get_running_loop()
            started = loop.time()
            await asyncio.wait_for(server.stop(), timeout=10.0)
            stop_s = loop.time() - started
            answers = await _answers_until_eof(reader)
            writer.close()
            await writer.wait_closed()
            return answers, handler.batch_sizes, stop_s

        outcome = asyncio.run(main())
        if outcome is None:
            pytest.skip("loopback sockets unavailable in this environment")
        answers, sizes, stop_s = outcome
        assert [a["error"] for a in answers] == ["shutting_down"] * 3
        assert sizes == []  # the window never closed, so nothing was served
        assert stop_s < 1.0

    def test_client_reset_mid_pipeline_leaves_the_server_serving(self, caplog):
        caplog.set_level(logging.ERROR, logger="asyncio")

        async def main():
            handler = _BlockingHandler()
            server = AdaptationServer(
                handler, max_batch_size=8, max_batch_window=0.0
            )
            try:
                host, port = await server.serve_tcp(host="127.0.0.1", port=0)
            except OSError:
                return None
            try:
                _, writer = await asyncio.open_connection(host, port)
                writer.write(b"".join(_line(i) for i in range(6)))
                await writer.drain()
                await asyncio.sleep(0.1)  # the lines are in the handler or queued
                # A zero linger turns the close into a reset.
                writer.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
                writer.transport.abort()
                await asyncio.sleep(0.1)
                handler.release.set()
                async with TCPAdaptationClient(host, port) as client:
                    return await asyncio.wait_for(
                        client.request(_request(9)), timeout=10.0
                    )
            finally:
                handler.release.set()
                await server.stop()

        decision = asyncio.run(main())
        if decision is None:
            pytest.skip("loopback sockets unavailable in this environment")
        assert decision.client_id == "c9"
        assert _asyncio_errors(caplog) == []

    def test_stop_finishes_every_connection_task(self, caplog):
        caplog.set_level(logging.ERROR, logger="asyncio")

        async def main():
            server = AdaptationServer(_EchoHandler())
            try:
                host, port = await server.serve_tcp(host="127.0.0.1", port=0)
            except OSError:
                return None
            clients = [await asyncio.open_connection(host, port) for _ in range(3)]
            await asyncio.sleep(0.05)  # the server has accepted all three
            await asyncio.wait_for(server.stop(), timeout=10.0)
            pending = [
                task.get_coro().__qualname__
                for task in asyncio.all_tasks()
                if task is not asyncio.current_task()
            ]
            eofs = [await _next_line(reader) for reader, _ in clients]
            for _, writer in clients:
                writer.close()
                await writer.wait_closed()
            return pending, eofs

        outcome = asyncio.run(main())
        if outcome is None:
            pytest.skip("loopback sockets unavailable in this environment")
        pending, eofs = outcome
        assert pending == []
        assert eofs == [b""] * 3
        assert _asyncio_errors(caplog) == []
