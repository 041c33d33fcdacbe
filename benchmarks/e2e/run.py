"""End-to-end benchmark of the adaptation service over TCP.

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N]
                                  [--seconds S] [--trace 0|1] [--out PATH]

For each workload the real ``AdaptationServer`` runs in a child process
(``server.py``) and this process drives it over two TCP connections from
one asyncio thread.  Every answer is re-checked against a reference
handler built the same way, and the run exits nonzero on any mismatch.
``src/`` is found from this file's location; no ``PYTHONPATH`` is needed.

Untraced (``--trace 0``):

``SERVERS`` servers are started one after another, and each goes through
the steps below; then more servers, up to the workload's ``setups``, only
go through step 1.

1. **setup** -- spawn the server and time until it answers one warm-up
   probe; ``setup_s`` is the median over all servers.
2. **light and peak windows**, interleaved ``WINDOWS_PER_SERVER`` times.
   A light window is ladder step 0: open loop, evenly spaced at the
   workload's light rate.  A peak window is a closed loop with
   ``PEAK_DEPTH`` requests outstanding per connection.  Over the windows
   of all servers, ``p50_ms`` and ``p90_ms`` pool the latencies of the
   faster half of the light windows and ``peak_dps`` the answers of the
   faster half of the peak windows (see :func:`faster_half`).
3. **ladder** (open loop, last server only) -- offered rate
   ``light * 1.5**k`` for k = 1..8, stopping at the first step whose p90
   exceeds the workload's limit or that has a failure; ``capacity_dps``
   is the highest passing rate.

Traced (``--trace 1``): one server with the launcher's spans installed
runs untraced and traced light windows in alternation, and traced peak
windows; the per-layer metrics print.

Phase sizes scale with ``--seconds``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(name -> value and unit).  ``--out`` also writes the full result, with
provenance, for ``compare.py``.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import asyncio  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Sequence, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import loadgen  # noqa: E402
import workloads as wl  # noqa: E402
from spans import durations, load_spans, percentile, self_times, spans_in  # noqa: E402

CONNECTIONS = 2
PEAK_DEPTH = 8
LADDER_STEPS = 9
LADDER_FACTOR = 1.5
#: Servers started per untraced run, one after another.  Spreading the
#: windows over them and over the run's whole length keeps one slow
#: process or one slow stretch of the host out of the metrics.
SERVERS = 3
#: Light and peak windows per server, interleaved (light, peak, ...).
WINDOWS_PER_SERVER = 2
WINDOWS = SERVERS * WINDOWS_PER_SERVER
#: Share of --seconds the light step runs for (over all its windows), and
#: each later ladder step.
LIGHT_SHARE = 0.6
STEP_SHARE = 0.05
#: The peak phase sends ``peak_requests * seconds / PEAK_SECONDS`` requests.
PEAK_SECONDS = 15.0
START_TIMEOUT = 120.0
STOP_TIMEOUT = 90.0

#: Printed and kept in --out results, but not BENCHMARK.json metrics: the
#: capacity moves in 1.5x ladder rungs, and the failed share is 0 when
#: nothing fails (failures are also the result line's ``failed``).
INFO_UNITS = {"capacity_dps": "1/s", "failed_frac": "fraction"}


# ----------------------------------------------------------------------
# the server child
# ----------------------------------------------------------------------
class Server:
    """One launcher child; a context manager that always reaps it."""

    def __init__(
        self,
        workload: wl.Workload,
        work_dir: Path,
        tag: str,
        template: Optional[Path] = None,
        trace: bool = False,
    ) -> None:
        command = [sys.executable, str(HERE / "server.py"), "--workload", workload.name]
        if workload.uses_store:
            store = work_dir / f"store-{tag}"
            if template is not None:
                shutil.copytree(template, store)
            command += ["--store", str(store)]
        self.trace_path = work_dir / f"spans-{tag}.jsonl" if trace else None
        if self.trace_path is not None:
            command += ["--trace", str(self.trace_path)]
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env
        )
        line = self._line()
        if not line.startswith(b"PORT "):
            self.kill()
            raise RuntimeError(f"the {workload.name} server did not start")
        self.address = ("127.0.0.1", int(line.split()[1]))

    def _line(self) -> bytes:
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT)
        return self.proc.stdout.readline() if ready else b""

    def command(self, text: str) -> None:
        """Send a launcher command (``trace 0`` / ``trace 1``) and await its ack."""
        self.proc.stdin.write(text.encode("utf-8") + b"\n")
        self.proc.stdin.flush()
        if self._line() != b"ok\n":
            raise RuntimeError(f"the server did not acknowledge {text!r}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()

    def stop(self) -> None:
        self.proc.stdin.close()
        try:
            code = self.proc.wait(STOP_TIMEOUT)
        finally:
            self.kill()
        if code != 0:
            raise RuntimeError(f"the server exited with code {code}")

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, exc_type, *rest) -> None:
        if exc_type is None:
            self.stop()
        else:
            self.kill()


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
class Session:
    """Requests sent and answers received in one workload run."""

    def __init__(self, workload: wl.Workload, seed: int, seconds: float, work_dir: Path):
        self.workload = workload
        self.seconds = seconds
        self.work_dir = work_dir
        self.inputs = wl.Inputs(workload, seed)
        self.probe = self.inputs.requests("probe", 1)
        self.template: Optional[Path] = None
        if workload.name == "grid-warm":
            self.template = work_dir / "warm-template"
            wl.prefill_store(self.inputs, str(self.template))
        self.phases: Dict[str, Tuple[Sequence[object], loadgen.PhaseResult]] = {}
        self.setups: List[float] = []
        self.capacity: Optional[float] = None

    def server(self, tag: str, trace: bool = False) -> Server:
        return Server(self.workload, self.work_dir, tag, self.template, trace)

    def _requests(self, tag: str, count: float) -> List[object]:
        return self.inputs.requests(tag, max(1, int(round(count))))

    async def setup(self, server: Server) -> None:
        line = wl.encode(self.probe[0])
        result = await loadgen.closed_loop(server.address, [line], depth=1, connections=1)
        self.phases[f"probe.{len(self.setups)}"] = (self.probe, result)
        if result.failed():
            raise RuntimeError(f"warm-up probe failed: {result.answers[0]}")
        self.setups.append(result.done[0] - server.spawned)  # type: ignore[operator]

    async def light(self, server: Server, window: int, prefix: str = "L") -> loadgen.PhaseResult:
        """One open-loop window at the light rate (ladder step 0)."""
        tag = f"{prefix}{window}"
        count = self.workload.light_rate * LIGHT_SHARE * self.seconds / WINDOWS
        requests = self._requests(tag, count)
        result = await loadgen.open_loop(
            server.address, [wl.encode(r) for r in requests], self.workload.light_rate,
            CONNECTIONS,
        )
        self.phases[tag] = (requests, result)
        return result

    async def peak(self, server: Server, window: int) -> loadgen.PhaseResult:
        """One closed-loop window at ``PEAK_DEPTH`` outstanding per connection."""
        tag = f"P{window}"
        count = self.workload.peak_requests * self.seconds / PEAK_SECONDS / WINDOWS
        requests = self._requests(tag, count)
        result = await loadgen.closed_loop(
            server.address, [wl.encode(r) for r in requests], PEAK_DEPTH, CONNECTIONS
        )
        self.phases[tag] = (requests, result)
        return result

    async def ladder(self, server: Server, lights: Sequence[loadgen.PhaseResult]) -> None:
        """Steps 1.. of the ladder, once all light windows (step 0) passed."""
        step0 = _pooled(lights)
        if any(r.failed() for r in lights) or percentile(step0, loadgen.TAIL) > self.workload.limit_ms:
            self.capacity = 0.0
            return
        sent: Dict[int, List[object]] = {}

        def lines(k: int, rate: float) -> List[bytes]:
            sent[k] = self._requests(f"s{k}", rate * STEP_SHARE * self.seconds)
            return [wl.encode(r) for r in sent[k]]

        self.capacity, results = await loadgen.ladder(
            server.address, lines, self.workload.light_rate,
            self.workload.limit_ms, LADDER_STEPS, LADDER_FACTOR, CONNECTIONS, start=1,
        )
        for k, result in enumerate(results, start=1):
            self.phases[f"s{k}"] = (sent[k], result)

    def check(self) -> List[str]:
        requests = [r for batch, _ in self.phases.values() for r in batch]
        answers = [a for _, result in self.phases.values() for a in result.answers]
        return wl.check_answers(self.workload.name, requests, answers)


def _pooled(results: Sequence[loadgen.PhaseResult]) -> List[float]:
    return [latency for r in results for latency in r.latencies_ms()]


def faster_half(results: Sequence[loadgen.PhaseResult], key) -> List[loadgen.PhaseResult]:
    """The ceil(n/2) windows that rank first by ``key`` (lower is faster).

    The host's CPU speed can drop by up to ~2x for seconds at a time when
    neighbours are busy; pooling the faster half of interleaved windows
    keeps such an episode out of a metric unless it covers most of a run.
    """
    return sorted(results, key=key)[: (len(results) + 1) // 2]


def light_latency(lights: Sequence[loadgen.PhaseResult], q: float) -> float:
    """Percentile ``q`` of the light latencies, pooled over the faster half
    of the windows ranked by their own percentile ``q``."""
    key = lambda r: percentile(r.latencies_ms(), q)  # noqa: E731
    return percentile(_pooled(faster_half(lights, key)), q)


def _throughput(results: Sequence[loadgen.PhaseResult]) -> float:
    return sum(len(r.ok()) for r in results) / sum(r.ended - r.started for r in results)


async def end_to_end(session: Session) -> Dict[str, float]:
    lights, peaks = [], []
    for i in range(max(SERVERS, session.workload.setups)):
        with session.server(f"main{i}") as server:
            await session.setup(server)
            if i >= SERVERS:
                continue  # set-up only
            for _ in range(WINDOWS_PER_SERVER):
                lights.append(await session.light(server, len(lights)))
                peaks.append(await session.peak(server, len(peaks)))
            if i == SERVERS - 1:
                await session.ladder(server, lights)
    return {
        "setup_s": statistics.median(session.setups),
        "p50_ms": light_latency(lights, 50),
        "p90_ms": light_latency(lights, 90),
        "peak_dps": _throughput(faster_half(peaks, key=lambda r: -r.throughput())),
    }


async def traced(session: Session) -> Dict[str, float]:
    """One traced server whose light windows alternate tracing off and on,
    so the tracing overhead is measured in one process under one load.

    The untraced windows send their own requests (repeats would hit the
    caches), and which of the pair runs first alternates, so state that
    grows over the run (the grid-cold store) favours neither side.
    """
    plain, lights, peaks = [], [], []
    with session.server("traced", trace=True) as server:
        await session.setup(server)
        for window in range(WINDOWS):
            for traced_now in (window % 2 == 1, window % 2 == 0):
                server.command(f"trace {int(traced_now)}")
                if traced_now:
                    lights.append(await session.light(server, window))
                else:
                    plain.append(await session.light(server, window, prefix="U"))
            server.command("trace 1")
            peaks.append(await session.peak(server, window))
    spans = load_spans(str(server.trace_path))
    windows = [session.phases[f"L{w}"] for w in range(WINDOWS)]
    return layer_metrics(spans, windows, peaks, plain)


# ----------------------------------------------------------------------
# per-layer metrics from the spans
# ----------------------------------------------------------------------
def _ms(values: Sequence[float], q: float) -> float:
    return percentile(values, q) * 1e3


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _windows(results: Sequence[loadgen.PhaseResult]):
    return [(r.started, r.ended) for r in results]


def layer_metrics(spans, light_windows, peaks, untraced_lights) -> Dict[str, float]:
    """The per-layer metrics of a traced run.

    Latency-side service metrics come from the light windows (they explain
    ``p50_ms``), everything else from the peak windows, except the store's
    set-up replay and its size after the final compaction.
    """
    lights = [result for _, result in light_windows]
    lspans, pspans = spans_in(spans, _windows(lights)), spans_in(spans, _windows(peaks))
    selfs = self_times(spans)
    dur = lambda s: s["end"] - s["start"]  # noqa: E731

    submits = {s["rid"]: s for s in lspans if s["name"] == "service.submit"}
    parses = {s["rid"]: s for s in lspans if s["name"] == "service.parse"}
    waits = [
        batch["start"] - submits[rid]["start"]
        for batch in lspans
        if batch["name"] == "service.handle_batch"
        for rid in batch["rid"]
        if rid in submits
    ]
    wire = []
    for requests, light in light_windows:
        for i in light.ok():
            rid = wl.request_id(requests[i])
            if rid in submits and rid in parses:
                client = light.done[i] - light.sent[i]
                wire.append(client - dur(submits[rid]) - dur(parses[rid]))

    batches = [s for s in pspans if s["name"] == "service.handle_batch"]
    batch_time = sum(dur(s) for s in batches)
    predicts = [s for s in pspans if s["name"] == "core.predict"]
    grids = [s for s in pspans if s["name"] == "machine.execute_grid"]
    cold = [s for s in grids if s["misses"] > 0]
    warm = [s for s in grids if s["misses"] == 0]
    appends = [s for s in pspans if s["name"] == "store.append"]
    compacts = [s for s in pspans if s["name"] == "store.compact"]
    schedules = [s for s in pspans if s["name"] == "cluster.schedule"]
    final = [s for s in spans if s["name"] == "store.final"]
    hits = sum(s["cache_hits"] for s in predicts)
    lookups = hits + sum(s["cache_misses"] for s in predicts)
    memo_hits = sum(s["hits"] for s in grids)
    traced_p50 = light_latency(lights, 50)
    untraced_p50 = light_latency(untraced_lights, 50)

    return {
        "service.queue_wait_ms_p50": _ms(waits, 50),
        "service.queue_wait_ms_p99": _ms(waits, 99),
        "service.batch_size_mean": _ratio(sum(len(s["rid"]) for s in batches), len(batches)),
        "service.batches": float(len(batches)),
        "service.dispatch_ms_p50": _ms([dur(s) for s in batches], 50),
        "service.dispatch_ms_p99": _ms([dur(s) for s in batches], 99),
        "service.parse_us_p50": percentile(durations(lspans, "service.parse"), 50) * 1e6,
        "service.wire_ms_p50": _ms(wire, 50),
        "service.busy_frac": _ratio(batch_time, sum(r.ended - r.started for r in peaks)),
        "core.predict_us_per_row": _ratio(
            sum(dur(s) for s in predicts), sum(s["rows"] for s in predicts)
        ) * 1e6,
        "core.rank_us_p50": percentile(durations(pspans, "core.rank"), 50) * 1e6,
        "core.cache_hit_ratio": _ratio(hits, lookups),
        "machine.grid_ms_p50": _ms([dur(s) for s in grids], 50),
        "machine.cells_per_call": _ratio(sum(s["cells"] for s in grids), len(grids)),
        "machine.memo_hit_ratio": _ratio(memo_hits, memo_hits + sum(s["misses"] for s in grids)),
        "machine.cold_cell_us": _ratio(
            sum(dur(s) for s in cold), sum(s["misses"] for s in cold)
        ) * 1e6,
        "machine.warm_cell_us": _ratio(
            sum(dur(s) for s in warm), sum(s["cells"] for s in warm)
        ) * 1e6,
        "machine.solver_sweeps_per_call": _ratio(sum(s["sweeps"] for s in grids), len(grids)),
        "store.seed_ms": sum(durations(spans, "store.seed")) * 1e3,
        "store.bytes_per_cell": _ratio(
            sum(s["replay_bytes"] for s in final), sum(s["cells"] for s in final)
        ),
        "store.append_ms_p50": _ms([dur(s) for s in appends], 50),
        "store.append_ms_p99": _ms([dur(s) for s in appends], 99),
        "store.compactions": float(len(compacts)),
        "store.compact_ms_p50": _ms([dur(s) for s in compacts], 50),
        "store.segment_files_max": float(max((s["segment_files"] for s in compacts), default=0)),
        "cluster.schedule_ms_p50": _ms([dur(s) for s in schedules], 50),
        "cluster.schedule_self_ms_p50": _ms([selfs[s["id"]] for s in schedules], 50),
        "cluster.sweep_ms_p50": _ms(durations(pspans, "cluster.sweep"), 50),
        "cluster.jobs_per_schedule": _ratio(sum(s["jobs"] for s in schedules), len(schedules)),
        "trace.overhead_frac": _ratio(traced_p50, untraced_p50) - 1.0,
        "trace.dispatch_covered_frac": _ratio(
            sum(dur(s) - selfs[s["id"]] for s in batches), batch_time
        ),
    }


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def phase_summary(tag: str, result: loadgen.PhaseResult) -> Dict[str, object]:
    latencies = result.latencies_ms()
    return {
        "phase": tag,
        "rate": result.rate,
        "sent": result.count,
        "succeeded": len(result.ok()),
        "failed": result.failures(),
        "samples": len(latencies),
        "p50_ms": percentile(latencies, 50),
        "p99_ms": percentile(latencies, 99),
        "throughput_dps": result.throughput(),
        "lag_p99_ms": percentile(result.lag_ms(), 99),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    workload = wl.WORKLOADS[name]
    work_dir = ROOT / ".e2e_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    started = time.perf_counter()
    try:
        session = Session(workload, seed, seconds, work_dir)
        metrics = asyncio.run(traced(session) if trace else end_to_end(session))
        wall = time.perf_counter() - started
        mismatches = session.check()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a parallel run
            work_dir.parent.rmdir()
    phases = [phase_summary(tag, result) for tag, (_, result) in session.phases.items()]
    attempted = sum(p["sent"] for p in phases)
    failed = sum(sum(p["failed"].values()) for p in phases)
    info = {"failed_frac": _ratio(failed, attempted)}
    if session.capacity is not None:
        info["capacity_dps"] = session.capacity
    return {
        "workload": name,
        "metrics": metrics,
        "info": info,
        "setups_s": session.setups,
        "phases": phases,
        "attempted": attempted,
        "failed": failed,
        "lag_p99_ms": max((p["lag_p99_ms"] for p in phases), default=0.0),
        "wall_s": wall,
        "mismatches": mismatches,
    }


def print_report(result: Dict[str, object], units: Dict[str, str]) -> None:
    print(f"== {result['workload']}  (wall {result['wall_s']:.1f} s)")
    for name, value in result["metrics"].items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    for name, value in result["info"].items():
        print(f"  {name:32s} {value:14.6g} {INFO_UNITS[name]}  (not gated)")
    print(f"  {'generator lag p99':32s} {result['lag_p99_ms']:14.6g} ms")
    for p in result["phases"]:
        rate = f"{p['rate']:.1f}/s" if p["rate"] else "closed"
        print(
            f"  phase {p['phase']:12s} {rate:>10s} sent {p['sent']:5d} "
            f"ok {p['succeeded']:5d} failed {p['failed'] or 0} samples {p['samples']} "
            f"p50 {p['p50_ms']:.3f} ms p99 {p['p99_ms']:.3f} ms "
            f"{p['throughput_dps']:.1f}/s lag p99 {p['lag_p99_ms']:.3f} ms"
        )
    for line in result["mismatches"][:20]:
        print(f"  MISMATCH {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(wl.WORKLOADS),
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result JSON here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    names = args.workload or list(wl.WORKLOADS)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    host = provenance(args.seed, args.seconds, bool(args.trace))
    print("provenance " + json.dumps(host))
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if set(result["metrics"]) != set(units):
            raise RuntimeError("the metrics computed differ from those BENCHMARK.json lists")
        print_report(result, units)
        results.append(result)

    correct = all(not r["mismatches"] for r in results)
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r['workload']}/"
        for name, value in r["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    line = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    if args.out:
        Path(args.out).write_text(
            json.dumps({**line, "provenance": host, "workloads": results}, indent=1) + "\n"
        )
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
