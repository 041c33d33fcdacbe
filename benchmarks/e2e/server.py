"""Launcher: serve one workload's handler from a child process.

    python benchmarks/e2e/server.py --workload NAME [--store DIR] [--trace FILE]

Builds the workload's handler, serves it over TCP on an ephemeral
localhost port with the ``AdaptationServer`` defaults (batch 64, window
2 ms, queue 1024), prints ``PORT <n>`` and serves until its standard input
closes.  ``run.py`` starts it with ``src`` on ``PYTHONPATH``.

With ``--trace`` the launcher first wraps the layers' public calls in
timing spans from outside (the package's own code is unchanged) and, on
exit, writes the spans to FILE as JSON lines.  The lines ``trace 0`` and
``trace 1`` on standard input switch recording off and on; each is
acknowledged with ``ok``.  The wrapped calls:

* ``repro.service.server.parse_request_line`` (module attribute),
  ``server.submit`` and ``handler.handle_batch`` (installed before the
  server is built, because the batcher binds it);
* ``bundle.predict_batch_from_rates`` and ``selector.rank``;
* ``machine.execute_grid`` of every machine;
* ``memo_store.seed``, ``memo_store.append`` and ``memo_store.compact``;
* ``scheduler.schedule`` and every ``node.sweep``.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import threading
from typing import Callable, Dict, Optional

sys.dont_write_bytecode = True

import repro.service.server as server_module  # noqa: E402
from repro.service import AdaptationServer  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def wrap(
    tracer: Tracer,
    owner: object,
    attr: str,
    name: str,
    rid: Optional[Callable[..., object]] = None,
    size: Optional[Callable[..., Dict[str, float]]] = None,
    counters: Optional[Callable[[], Dict[str, float]]] = None,
) -> None:
    """Replace ``owner.attr`` with a span-timed call.

    ``rid(*args)`` names the request(s) served and ``size(*args)`` adds
    sizes; both are read before the span starts.  ``counters()`` is read
    before and after the call, outside the span, which keeps their
    differences.  While tracing is off the wrapper only forwards the call.
    """
    original = getattr(owner, attr)

    def timed(*args, **kwargs):
        if not tracer.enabled:
            return original(*args, **kwargs)
        extra = size(*args, **kwargs) if size else {}
        before = counters() if counters else None
        with tracer.span(name, rid(*args) if rid else None) as span:
            result = original(*args, **kwargs)
        span.update(extra)
        if before is not None:
            after = counters()
            span.update({key: after[key] - before[key] for key in after})
        return result

    setattr(owner, attr, timed)


def _memo_counters(machine) -> Callable[[], Dict[str, float]]:
    def read() -> Dict[str, float]:
        info = machine.execution_memo_info()
        return {"hits": info.hits, "misses": info.misses, "sweeps": info.solver_evaluations}

    return read


def _grid_size(works, configurations=None, *rest, **kwargs) -> Dict[str, float]:
    return {"cells": len(works) * len(configurations or ())}


def instrument_machine(tracer: Tracer, machine) -> None:
    wrap(
        tracer, machine, "execute_grid", "machine.execute_grid",
        size=_grid_size, counters=_memo_counters(machine),
    )


def instrument_store(tracer: Tracer, store, seeded: Dict[str, int]) -> None:
    """Wrap the store's calls; ``seeded["cells"]`` records what seed() added."""
    original_seed = store.seed

    def seed(machine):
        with tracer.span("store.seed"):
            added = original_seed(machine)
        seeded["cells"] = seeded.get("cells", 0) + added
        return added

    store.seed = seed
    wrap(
        tracer, store, "append", "store.append",
        size=lambda snapshot: {"cells": len(snapshot)},
    )
    # Compaction runs on the store's background thread; the segment count
    # it starts from is the log's high-water mark.
    wrap(
        tracer, store, "compact", "store.compact",
        size=lambda *args, **kwargs: {"segment_files": store.info().segment_files},
    )


def instrument_handler(tracer: Tracer, handler) -> None:
    wrap(
        tracer, handler, "handle_batch", "service.handle_batch",
        rid=lambda requests: [workloads.request_id(r) for r in requests],
    )
    if hasattr(handler, "bundle"):
        cache = handler.bundle.cache
        wrap(
            tracer, handler.bundle, "predict_batch_from_rates", "core.predict",
            size=lambda samples, *rest, **kw: {"rows": len(samples)},
            counters=lambda: {"cache_hits": cache.hits, "cache_misses": cache.misses},
        )
        wrap(tracer, handler.selector, "rank", "core.rank")
    if hasattr(handler, "scheduler"):
        wrap(
            tracer, handler.scheduler, "schedule", "cluster.schedule",
            size=lambda jobs, *rest, **kw: {"jobs": len(jobs)},
        )
        for node in handler.fleet:
            wrap(tracer, node, "sweep", "cluster.sweep")
            instrument_machine(tracer, node.machine)
    if hasattr(handler, "machine"):
        instrument_machine(tracer, handler.machine)


def instrument_parse(tracer: Tracer) -> None:
    original = server_module.parse_request_line

    def parse(line: bytes):
        if not tracer.enabled:
            return original(line)
        with tracer.span("service.parse") as span:
            request = original(line)
        span["rid"] = workloads.request_id(request)
        return request

    server_module.parse_request_line = parse


def instrument_submit(tracer: Tracer, server: AdaptationServer) -> None:
    original = server.submit

    async def submit(request):
        if not tracer.enabled:
            return await original(request)
        start = tracer.clock()
        try:
            return await original(request)
        finally:
            tracer.record("service.submit", start, tracer.clock(), workloads.request_id(request))

    server.submit = submit  # type: ignore[method-assign]


async def serve(handler, tracer: Optional[Tracer]) -> None:
    """Serve until standard input closes.

    Each input line is a command, acknowledged with ``ok``: ``trace 0`` and
    ``trace 1`` switch span recording off and on.
    """
    server = AdaptationServer(handler)
    if tracer is not None:
        instrument_submit(tracer, server)
    _, port = await server.serve_tcp("127.0.0.1", 0)
    loop = asyncio.get_running_loop()
    stdin_closed = asyncio.Event()

    def read_commands() -> None:
        for line in sys.stdin.buffer:
            command = line.split()
            if tracer is not None and command[:1] == [b"trace"]:
                tracer.enabled = command[1:] == [b"1"]
            print("ok", flush=True)
        loop.call_soon_threadsafe(stdin_closed.set)

    threading.Thread(target=read_commands, daemon=True).start()
    print(f"PORT {port}", flush=True)
    try:
        await stdin_closed.wait()
    finally:
        await server.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--store", help="memo store directory (grid workloads)")
    parser.add_argument("--trace", help="write spans to this file")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    store = workloads.open_store(args.store) if args.store else None
    seeded: Dict[str, int] = {}
    if tracer is not None:
        instrument_parse(tracer)
        if store is not None:
            instrument_store(tracer, store, seeded)
    handler = workloads.build_handler(args.workload, store)
    if tracer is not None:
        instrument_handler(tracer, handler)
    asyncio.run(serve(handler, tracer))
    if store is not None:
        store.wait_for_compaction(timeout=60)
    if tracer is not None:
        tracer.enabled = False
        if store is not None:
            # Replay bytes per cell after a final, untraced fold of the log.
            store.compact()
            info = store.info()
            now = tracer.clock()
            tracer.record(
                "store.final", now, now,
                replay_bytes=info.replay_bytes,
                cells=seeded.get("cells", 0) + info.cells_appended,
            )
        tracer.dump(args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
