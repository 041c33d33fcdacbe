"""Tests for the JSON-lines wire protocol's malformed-input handling.

``parse_request_line`` is the single choke point every TCP byte passes
through; these tests pin its rejection paths (oversized lines, junk
bytes, non-object JSON, unknown kinds, missing fields, non-finite
numbers, integers too large for a float) and the connection-level
behavior when a line overruns even the stream reader's enlarged framing
limit: one structured ``bad_request`` answer, then a clean close — never
a silent drop.
"""

from __future__ import annotations

import asyncio
import json
import logging
import re

import pytest

from repro.service import (
    MAX_REQUEST_LINE_BYTES,
    AdaptationDecision,
    AdaptationServer,
    DecisionHandler,
    GridProbeRequest,
    PhaseSampleRequest,
    parse_request_line,
)


#: One number-valued field per request entry point: ``(line template, the
#: field's name in the rejection message)``.
_NUMBER_FIELDS = [
    (
        b'{"client_id": "c", "phase": "p", "ipc_sample": %s, "rates": {}}',
        "ipc_sample",
    ),
    (
        b'{"client_id": "c", "phase": "p", "ipc_sample": 1.0, '
        b'"rates": {"l2": %s}}',
        "rate 'l2'",
    ),
    (
        b'{"kind": "grid_probe", "client_id": "c", "phase": "p", '
        b'"work": {"instructions": 1e8, "working_set_mb": %s}}',
        "working_set_mb",
    ),
]

#: A JSON integer beyond the largest float (``float()`` raises OverflowError).
_HUGE_INTEGER = b"1" + b"0" * 400


class TestParseRequestLine:
    def test_oversized_line_is_rejected_with_the_limit_in_the_message(self):
        line = b'{"pad": "' + b"x" * MAX_REQUEST_LINE_BYTES + b'"}'
        with pytest.raises(ValueError, match=str(MAX_REQUEST_LINE_BYTES)):
            parse_request_line(line)

    def test_a_line_at_the_limit_is_still_parsed(self):
        payload = {"client_id": "c", "phase": "p", "ipc_sample": 1.0, "rates": {}}
        line = json.dumps(payload).encode()
        line += b" " * (MAX_REQUEST_LINE_BYTES - len(line))
        request = parse_request_line(line)
        assert isinstance(request, PhaseSampleRequest)

    def test_junk_bytes_raise_value_error(self):
        with pytest.raises(ValueError):
            parse_request_line(b"not json at all\n")

    def test_non_object_json_is_rejected(self):
        with pytest.raises(ValueError, match="must be a JSON object, got list"):
            parse_request_line(b"[1, 2, 3]")
        with pytest.raises(ValueError, match="must be a JSON object, got int"):
            parse_request_line(b"42")

    def test_unknown_kind_is_rejected(self):
        payload = {"kind": "warp_drive", "client_id": "c", "phase": "p"}
        with pytest.raises(ValueError, match="unknown request kind 'warp_drive'"):
            parse_request_line(json.dumps(payload).encode())

    def test_missing_required_fields_raise(self):
        # phase_sample without its sample; grid_probe without its work.
        with pytest.raises(KeyError):
            parse_request_line(b'{"client_id": "c", "phase": "p"}')
        with pytest.raises(KeyError):
            parse_request_line(
                b'{"kind": "grid_probe", "client_id": "c", "phase": "p"}'
            )

    def test_kind_defaults_to_phase_sample(self):
        payload = {"client_id": "c", "phase": "p", "ipc_sample": 1.2, "rates": {}}
        request = parse_request_line(json.dumps(payload).encode())
        assert isinstance(request, PhaseSampleRequest)
        assert request.ipc_sample == 1.2

    def test_deeply_nested_line_raises_value_error(self):
        # Inside the byte limit, but deep enough to exhaust json's recursion.
        line = b"[" * 60000 + b"\n"
        assert len(line) <= MAX_REQUEST_LINE_BYTES
        with pytest.raises(ValueError, match="nested too deeply"):
            parse_request_line(line)

    def test_valid_requests_round_trip(self):
        sample = PhaseSampleRequest(
            client_id="c", phase="p", ipc_sample=1.5, rates={"l2": 0.01}
        )
        parsed = parse_request_line(
            json.dumps(dict(sample.to_payload(), kind="phase_sample")).encode()
        )
        assert parsed == sample

    @pytest.mark.parametrize("number", [b"NaN", b"Infinity", b"-Infinity", b"1e400"])
    @pytest.mark.parametrize("template, field", _NUMBER_FIELDS)
    def test_non_finite_numbers_are_rejected(self, template, field, number):
        # json.loads accepts NaN and +-Infinity, and 1e400 parses to inf.
        with pytest.raises(ValueError, match=re.escape(f"{field} must be finite")):
            parse_request_line(template % number)

    @pytest.mark.parametrize("template", [template for template, _ in _NUMBER_FIELDS])
    def test_integers_too_large_for_a_float_are_rejected(self, template):
        # json.loads keeps an integer literal exact, so float() overflows.
        with pytest.raises(ValueError, match="too large for a float"):
            parse_request_line(template % _HUGE_INTEGER)


class _EchoHandler(DecisionHandler):
    def handle_batch(self, requests):
        return [
            AdaptationDecision(
                client_id=r.client_id, phase=r.phase, configuration="4"
            )
            for r in requests
        ]


class TestOversizedLinesOverTCP:
    def test_oversized_but_frameable_line_answers_bad_request(self):
        """~70 KB exceeds the protocol limit but not the reader's framing
        limit: the guard in parse_request_line answers structurally and the
        connection keeps serving."""

        async def main():
            server = AdaptationServer(_EchoHandler())
            try:
                host, port = await server.serve_tcp(host="127.0.0.1", port=0)
            except OSError:
                return None
            try:
                reader, writer = await asyncio.open_connection(
                    host, port, limit=4 * MAX_REQUEST_LINE_BYTES
                )
                writer.write(
                    b'{"pad": "' + b"x" * (70 * 1024) + b'"}\n'
                )
                await writer.drain()
                first = json.loads(await reader.readline())
                # The connection is still alive for well-formed requests.
                writer.write(
                    json.dumps(
                        {
                            "client_id": "c",
                            "phase": "p",
                            "ipc_sample": 1.0,
                            "rates": {},
                        }
                    ).encode()
                    + b"\n"
                )
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
        assert first["error"] == "bad_request"
        assert "exceeds" in first["detail"]
        assert second["ok"] is True
        assert second["decision"]["configuration"] == "4"

    def test_unframeable_line_answers_once_then_closes(self):
        """>128 KB overruns even the enlarged StreamReader limit: framing
        is unrecoverable, so the server answers one bad_request and closes."""

        async def main():
            server = AdaptationServer(_EchoHandler())
            try:
                host, port = await server.serve_tcp(host="127.0.0.1", port=0)
            except OSError:
                return None
            try:
                reader, writer = await asyncio.open_connection(
                    host, port, limit=8 * MAX_REQUEST_LINE_BYTES
                )
                writer.write(b"x" * (3 * MAX_REQUEST_LINE_BYTES) + b"\n")
                await writer.drain()
                response = json.loads(await reader.readline())
                eof = await reader.readline()
                writer.close()
                await writer.wait_closed()
                return response, eof
            finally:
                await server.stop()

        outcome = asyncio.run(main())
        if outcome is None:
            pytest.skip("loopback sockets unavailable in this environment")
        response, eof = outcome
        assert response["ok"] is False
        assert response["error"] == "bad_request"
        assert "too long" in response["detail"]
        assert eof == b""  # server closed after the one answer


class TestNonFiniteNumbersOverTCP:
    def test_nan_line_answers_bad_request_and_never_reaches_the_handler(self):
        class _RecordingHandler(_EchoHandler):
            def __init__(self):
                self.seen = []

            def handle_batch(self, requests):
                self.seen.extend(requests)
                return super().handle_batch(requests)

        handler = _RecordingHandler()

        async def main():
            server = AdaptationServer(handler)
            try:
                host, port = await server.serve_tcp(host="127.0.0.1", port=0)
            except OSError:
                return None
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    b'{"client_id": "bad", "phase": "p", "ipc_sample": NaN, '
                    b'"rates": {}}\n'
                )
                await writer.drain()
                first = json.loads(await reader.readline())
                good = {"client_id": "good", "phase": "p", "ipc_sample": 1.0}
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
        assert first["error"] == "bad_request"
        assert "ipc_sample must be finite" in first["detail"]
        assert second["ok"] is True
        assert second["decision"]["client_id"] == "good"
        assert [r.client_id for r in handler.seen] == ["good"]


class TestDeeplyNestedLineOverTCP:
    def test_nested_line_answers_bad_request_and_the_connection_serves_on(
        self, caplog
    ):
        caplog.set_level(logging.ERROR, logger="asyncio")

        async def main():
            server = AdaptationServer(_EchoHandler())
            try:
                host, port = await server.serve_tcp(host="127.0.0.1", port=0)
            except OSError:
                return None
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"[" * 60000 + b"\n")
                await writer.drain()
                first = json.loads(
                    await asyncio.wait_for(reader.readline(), timeout=10.0)
                )
                good = {"client_id": "good", "phase": "p", "ipc_sample": 1.0}
                writer.write(json.dumps(good).encode() + b"\n")
                await writer.drain()
                second = json.loads(
                    await asyncio.wait_for(reader.readline(), timeout=10.0)
                )
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
        assert first["error"] == "bad_request"
        assert "nested too deeply" in first["detail"]
        assert second["ok"] is True
        assert second["decision"]["client_id"] == "good"
        errors = [
            record.getMessage()
            for record in caplog.records
            if record.name == "asyncio" and record.levelno >= logging.ERROR
        ]
        assert errors == []


class TestOverflowingIntegerOverTCP:
    def test_pipelined_overflow_line_answers_bad_request_between_good_ones(
        self, caplog
    ):
        caplog.set_level(logging.ERROR, logger="asyncio")

        async def main():
            server = AdaptationServer(_EchoHandler())
            try:
                host, port = await server.serve_tcp(host="127.0.0.1", port=0)
            except OSError:
                return None
            try:
                reader, writer = await asyncio.open_connection(host, port)
                good = {"phase": "p", "ipc_sample": 1.0}
                lines = [
                    json.dumps(dict(good, client_id="ok1")).encode(),
                    b'{"client_id": "huge", "phase": "p", "ipc_sample": %s}'
                    % _HUGE_INTEGER,
                    json.dumps(dict(good, client_id="ok2")).encode(),
                ]
                writer.write(b"".join(line + b"\n" for line in lines))
                await writer.drain()
                answers = [
                    json.loads(await asyncio.wait_for(reader.readline(), timeout=10.0))
                    for _ in lines
                ]
                still_open = not reader.at_eof()
                writer.close()
                await writer.wait_closed()
                return answers, still_open
            finally:
                await server.stop()

        outcome = asyncio.run(main())
        if outcome is None:
            pytest.skip("loopback sockets unavailable in this environment")
        answers, still_open = outcome
        assert [a["ok"] for a in answers] == [True, False, True]
        assert answers[0]["decision"]["client_id"] == "ok1"
        assert answers[1]["error"] == "bad_request"
        assert "too large for a float" in answers[1]["detail"]
        assert answers[2]["decision"]["client_id"] == "ok2"
        assert still_open
        errors = [
            record.getMessage()
            for record in caplog.records
            if record.name == "asyncio" and record.levelno >= logging.ERROR
        ]
        assert errors == []
