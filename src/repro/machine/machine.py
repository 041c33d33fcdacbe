"""The phase execution engine: the simulated quad-core platform.

:class:`Machine` combines the topology, cache, memory, CPU and power models
into a single entry point::

    machine = Machine()                               # QX6600-like platform
    result = machine.execute(work, CONFIG_2B.placement)
    result.time_seconds, result.ipc, result.power_watts, result.event_counts

For configuration sweeps, :meth:`Machine.execute_grid` evaluates phases ×
configurations (the full placement × P-state cross-product by default) in
one vectorized kernel launch, returning ``(W, C)`` metric arrays; a
one-phase sweep is a one-row grid::

    grid = machine.execute_grid([p.work for p in workload.phases])
    grid.time_seconds[w, c], grid.best("ed2")[w]      # arrays, row-major
    grid.result(w, c), grid.result_for(w, "2b@1.6GHz")  # lazy full results
    sweep = machine.execute_grid([work]); sweep.ipc[0]  # one phase, row 0

Noise-free grid results match looped ``execute`` calls to
floating-point accuracy, and a per-machine LRU memo (keyed by work
fingerprint, placement and per-core P-state operating points) serves
repeated cells without re-simulation — oracle construction and
training-data collection share it automatically.  Every cell the machine
simulates itself is also recorded in a bounded journal, which
:meth:`Machine.drain_new_cells` hands over as a picklable snapshot; the
durable :class:`~repro.store.MemoStore` is the one channel that shares and
persists the memo across processes and restarts (``seed`` merges a
snapshot in, ``absorb`` publishes the drained journal).  Calls with fewer
than ``DEFAULT_SMALL_BATCH_CUTOFF`` cold cells skip the kernel's fixed
setup cost through the memoized scalar path.

Configurations may pin **heterogeneous per-core P-states**
(``Configuration(pstate_vector=...)``, names like
``"4@2.4/2.4/1.6/1.6GHz"``): each core runs at its own clock, the parallel
critical path is the slowest thread, and serial and synchronization
portions ride the master (thread-0) core.  There is one scalar path and one
vectorized kernel, both written for per-core clocks; a homogeneous
configuration enters them as an all-equal clock vector.  Bus traffic is
counted per cycle of a reference clock (the shared clock of a homogeneous
configuration, 1 GHz — per-nanosecond units — otherwise) and time in
master-clock cycles, so every clock ratio a homogeneous configuration sees
is exactly 1.0 and its results are *bit-identical* to a one-clock model.

Executing a phase under a placement proceeds in four steps:

1. the cache model resolves the per-thread L2 miss ratio from the placement's
   cache sharing pattern;
2. the memory and CPU models are iterated to a fixed point: thread throughput
   determines bus traffic, bus traffic determines queueing delay, queueing
   delay determines thread throughput;
3. the cycle counts of the serial part, the parallel part (critical-path
   thread including load imbalance) and the synchronization overhead are
   summed into wall-clock cycles and time;
4. the complete hardware event counts and the wall-power draw of the
   execution are derived.

The model is deterministic for a given seed; a small multiplicative
"operating system noise" term (disabled by setting ``noise_sigma=0``) makes
repeated executions of the same phase realistically non-identical, which
matters for the empirical-search baseline and for counter-sampling error.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .caches import CacheModel
from .cpu import CPIBreakdown, CPUModel
from .dvfs import PState, PStateTable, default_pstate_table
from .fixedpoint import solve_fixed_point_scalar, solve_fixed_point_vector
from .memory import BusState, MemoryModel
from .placement import (
    Configuration,
    ThreadPlacement,
    dvfs_configurations,
    enumerate_configurations,
    standard_configurations,
)
from .power import PowerBreakdown, PowerModel
from .topology import Topology, quad_core_xeon
from .work import WorkRequest, work_field_rows

__all__ = [
    "ExecutionMemoInfo",
    "ExecutionMemoSnapshot",
    "ExecutionResult",
    "GridExecutionResult",
    "Machine",
]

#: Instructions charged per thread per barrier for the synchronization code
#: itself (spin loops, flag updates); small but keeps counters consistent.
_SYNC_INSTRUCTIONS_PER_BARRIER = 400.0

#: Below this many cold (not-yet-memoized) cells, ``execute_grid`` serves
#: the cells through the memoized scalar path instead of launching the
#: vectorized kernel.  The kernel costs ~0.46 ms of fixed setup plus
#: ~20 µs per cell, against 80–180 µs per scalar cell (2-core x86-64 VM,
#: NumPy 2.4; see ``BENCH_machine_grid.json``), putting the crossover
#: near six cells — so 1-cell sample probes skip the setup cost while the
#: paper's 15-cell cross-product stays on the kernel.  The memo makes the
#: scalar detour a one-time cost per cell either way.
DEFAULT_SMALL_BATCH_CUTOFF = 6


@dataclass(frozen=True)
class ExecutionResult:
    """Complete outcome of executing one phase invocation on the machine.

    Attributes
    ----------
    work:
        The phase characterization that was executed.
    placement:
        Thread-to-core placement used.
    time_seconds:
        Wall-clock execution time.
    cycles:
        Wall-clock cycles (time multiplied by core frequency).
    instructions:
        Total instructions retired across all threads (including
        synchronization overhead instructions).
    ipc:
        Aggregate IPC: ``instructions / cycles``.  This is the quantity the
        paper predicts (its Figure 2 reports aggregate per-phase IPCs of up
        to ~4.6 on four cores).
    thread_ipcs:
        Per-thread IPC during the parallel portion.
    thread_cpi:
        Per-thread CPI breakdowns during the parallel portion.
    bus:
        Resolved front-side-bus state during the parallel portion.
    power:
        Wall-power breakdown during the execution.
    event_counts:
        Complete hardware event counts for the execution (the measurement
        layer decides which of these are actually visible).
    pstate:
        Homogeneous DVFS operating point the phase ran at (``None`` =
        nominal clock, or a heterogeneous per-core vector — see
        ``pstates``).
    frequency_ghz:
        Clock frequency the cores actually ran at.  Under a heterogeneous
        P-state vector this is the *master* (thread-0) core's clock — the
        clock ``cycles`` and therefore ``ipc`` are expressed in.
    miss_ratios:
        Per-thread L2 miss ratios (misses per L1 miss) resolved by the
        cache model for this placement, aligned with ``thread_cpi``.
    pstates:
        Heterogeneous per-core operating points in placement order, or
        ``None`` when all cores shared one state (see ``pstate``).
    """

    work: WorkRequest
    placement: ThreadPlacement
    time_seconds: float
    cycles: float
    instructions: float
    ipc: float
    thread_ipcs: Sequence[float]
    thread_cpi: Sequence[CPIBreakdown]
    bus: BusState
    power: PowerBreakdown
    event_counts: Dict[str, float] = field(default_factory=dict)
    pstate: Optional[PState] = None
    frequency_ghz: float = 0.0
    miss_ratios: Tuple[float, ...] = ()
    pstates: Optional[Tuple[PState, ...]] = None

    @property
    def power_watts(self) -> float:
        """Average wall power during the execution."""
        return self.power.total_watts

    @property
    def energy_joules(self) -> float:
        """Wall energy consumed by the execution."""
        return self.power_watts * self.time_seconds

    @property
    def edp(self) -> float:
        """Energy-delay product (J*s)."""
        return self.energy_joules * self.time_seconds

    @property
    def ed2(self) -> float:
        """Energy-delay-squared product (J*s^2), the paper's headline metric."""
        return self.energy_joules * self.time_seconds ** 2

    @property
    def num_threads(self) -> int:
        """Concurrency level used."""
        return self.placement.num_threads


class ExecutionMemoInfo(NamedTuple):
    """Hit/miss accounting of a machine's noise-free execution memo.

    ``solver_iterations`` / ``solver_evaluations`` expose the cumulative
    fixed-point solver cost behind every miss (steps taken, and model
    evaluations — scalar probes or full-width kernel sweeps — performed),
    so the cold-cell price of a workload is observable next to its memo
    accounting; both are independent of the memo key space.
    """

    hits: int
    misses: int
    size: int
    maxsize: int
    solver_iterations: int = 0
    solver_evaluations: int = 0


class _CellEntry(NamedTuple):
    """Compact record of one noise-free execution cell.

    Everything a full :class:`ExecutionResult` needs that is not derivable
    from ``(work, configuration)`` alone — kept as plain floats and tuples
    so memoized cells are cheap to store and to assemble into grid arrays.
    """

    time_seconds: float
    cycles: float
    instructions: float
    ipc: float
    frequency_ghz: float
    miss_ratios: Tuple[float, ...]
    l1_cpi: Tuple[float, ...]
    l2_cpi: Tuple[float, ...]
    thread_watts: Tuple[float, ...]
    bus: Tuple[float, float, float, float, float]
    power: Tuple[float, float, float, float, float]

    @classmethod
    def from_result(cls, result: "ExecutionResult") -> "_CellEntry":
        """Compact a scalar-path :class:`ExecutionResult` into a cell.

        The single counterpart of the array-assembly block at the end of
        :meth:`Machine._execute_cells_kernel`: both memo-cell producers
        (vectorized kernel and scalar short-circuit) feed one entry layout,
        so a new field only needs wiring in these two places.
        """
        return cls(
            time_seconds=result.time_seconds,
            cycles=result.cycles,
            instructions=result.instructions,
            ipc=result.ipc,
            frequency_ghz=result.frequency_ghz,
            miss_ratios=result.miss_ratios,
            l1_cpi=tuple(bd.l1_miss for bd in result.thread_cpi),
            l2_cpi=tuple(bd.l2_miss for bd in result.thread_cpi),
            thread_watts=tuple(
                result.power.components[f"core{core_id}"]
                for core_id in result.placement.cores
            ),
            bus=(
                result.bus.demand_bytes_per_cycle,
                result.bus.capacity_bytes_per_cycle,
                result.bus.utilization,
                result.bus.latency_stretch,
                result.bus.transactions_per_cycle,
            ),
            power=(
                result.power.platform_watts,
                result.power.cores_watts,
                result.power.caches_watts,
                result.power.uncore_watts,
                result.power.memory_watts,
            ),
        )


def _memo_schema() -> Tuple[str, ...]:
    """Fingerprint schema of the memo: work fields plus the cell layout.

    Snapshots record this so a snapshot pickled by an older (or newer) code
    revision — whose :class:`~repro.machine.work.WorkRequest` fields or
    :class:`_CellEntry` layout differ — is rejected at merge time instead of
    silently aliasing cells across incompatible key spaces.

    ``memo-v2-percore-pstate`` marks the heterogeneous-P-state key space:
    configurations may key as per-core ``(frequency, f_scale, v_scale)``
    triples, so ``memo-v1`` snapshots (single-triple keys only) are
    rejected rather than merged into a key space they never produced.
    """
    return (
        "memo-v2-percore-pstate",
        *(f.name for f in dataclass_fields(WorkRequest)),
        "|",
        *_CellEntry._fields,
    )


@dataclass(frozen=True)
class ExecutionMemoSnapshot:
    """Picklable snapshot of (part of) a machine's noise-free execution memo.

    Produced by :meth:`Machine.export_execution_memo` (the whole memo) and
    :meth:`Machine.drain_new_cells` (the cells simulated since the last
    drain), and absorbed by :meth:`Machine.merge_execution_memo`.  It is
    the record format of :class:`~repro.store.MemoStore`, through which
    processes seed their machines and publish freshly simulated cells.
    Only deterministic, noise-free cells ever live in the memo, so
    snapshots never carry noisy executions.

    Attributes
    ----------
    schema:
        Fingerprint schema the keys were built under (work-request fields
        plus cell layout); merge rejects snapshots with a different schema.
    cells:
        ``(key, entry)`` pairs in the exporting memo's LRU order (journal
        order for a drain).
    """

    schema: Tuple[str, ...]
    cells: Tuple[Tuple[tuple, _CellEntry], ...]

    def __len__(self) -> int:
        return len(self.cells)

    def keys(self) -> frozenset:
        """The memo keys contained in this snapshot."""
        return frozenset(key for key, _ in self.cells)


class _ConfigStatic(NamedTuple):
    """Kernel constants of one configuration, cached per machine.

    ``threads`` has one row per per-thread input — L1 and L2 hit latency,
    L2 domain size and occupants, core clock, bus ratio (clock / bus
    reference clock), time ratio (master clock / clock), DVFS frequency and
    voltage scale — which the kernel pads to a common width and gathers out
    to cells in one step.  ``scalars`` holds the thread count, the bus
    reference clock, the f·V² scale of the shared cache/uncore domains, the
    master core's L2 size and L1/L2 hit latencies (serial portion) and the
    number of active L2 domains.  Both clock ratios are exactly 1.0 on a
    homogeneous configuration.
    """

    n: int
    threads: np.ndarray
    scalars: Tuple[float, ...]


class GridExecutionResult:
    """Vectorized outcome of executing many phases under many configurations.

    Produced by :meth:`Machine.execute_grid`.  Metric arrays have shape
    ``(W, C)`` — row ``w`` is work (phase) ``w``, column ``c`` is
    configuration ``c`` — so a whole benchmark's oracle table, or the phases
    of several benchmarks at once, come out of one kernel pass; a one-phase
    sweep is the one-row grid.  Full :class:`ExecutionResult` objects —
    including hardware event counts — are materialized lazily per cell via
    :meth:`result`, so sweeps that only consume time/IPC/power never pay for
    per-cell Python object construction.

    Attributes
    ----------
    works:
        The executed phase characterizations, in input (row) order.
    configurations:
        The evaluated configurations, in input (column) order.
    time_seconds, cycles, instructions, ipc, power_watts, frequency_ghz,
    bus_utilization:
        ``(W, C)`` metric arrays.
    memo_hits, memo_misses:
        How many cells of *this call* were served from the machine's
        execution memo versus actually simulated.
    """

    _METRICS = (
        "time_seconds",
        "cycles",
        "instructions",
        "ipc",
        "power_watts",
        "energy_joules",
        "edp",
        "ed2",
        "frequency_ghz",
        "bus_utilization",
    )

    def __init__(
        self,
        works: List[WorkRequest],
        configurations: List[Configuration],
        machine: "Machine",
        entries: List[_CellEntry],
        memo_hits: int = 0,
        memo_misses: int = 0,
    ) -> None:
        self.works = works
        self.configurations = configurations
        self.memo_hits = memo_hits
        self.memo_misses = memo_misses
        self._machine = machine
        self._entries = entries  # flat, row-major: entry of (w, c) at w * C + c
        self._results: Dict[Tuple[int, int], ExecutionResult] = {}
        shape = (len(works), len(configurations))

        def column(values: List[float]) -> np.ndarray:
            return np.array(values).reshape(shape)

        self.time_seconds = column([e.time_seconds for e in entries])
        self.cycles = column([e.cycles for e in entries])
        self.instructions = column([e.instructions for e in entries])
        self.ipc = column([e.ipc for e in entries])
        self.power_watts = column(
            [
                e.power[0] + e.power[1] + e.power[2] + e.power[3] + e.power[4]
                for e in entries
            ]
        )
        self.frequency_ghz = column([e.frequency_ghz for e in entries])
        self.bus_utilization = column([e.bus[2] for e in entries])
        self._index: Dict[str, int] = {}
        for i, config in enumerate(configurations):
            self._index.setdefault(config.name, i)

    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        """``(num works, num configurations)``."""
        return (len(self.works), len(self.configurations))

    def __len__(self) -> int:
        """Total number of grid cells (works × configurations)."""
        return len(self._entries)

    @property
    def energy_joules(self) -> np.ndarray:
        """Per-cell wall energy."""
        return self.power_watts * self.time_seconds

    @property
    def edp(self) -> np.ndarray:
        """Per-cell energy-delay product."""
        return self.energy_joules * self.time_seconds

    @property
    def ed2(self) -> np.ndarray:
        """Per-cell energy-delay-squared product (the paper's metric)."""
        return self.energy_joules * self.time_seconds ** 2

    def names(self) -> List[str]:
        """Configuration names in input order."""
        return [c.name for c in self.configurations]

    def index_of(self, name: str) -> int:
        """Configuration position of ``name`` (first occurrence on ties)."""
        try:
            return self._index[name]
        except KeyError as exc:
            raise KeyError(
                f"configuration {name!r} is not part of this result; "
                f"evaluated: {self.names()}"
            ) from exc

    def metric(self, metric: str) -> np.ndarray:
        """Metric array by name (``time_seconds``, ``ipc``, ``ed2``, ...)."""
        if metric not in self._METRICS:
            raise KeyError(
                f"unknown metric {metric!r}; expected one of {self._METRICS}"
            )
        return getattr(self, metric)

    def best(
        self, metric: str = "time_seconds", minimize: bool = True
    ) -> List[Configuration]:
        """The best configuration of every work row under ``metric``."""
        values = self.metric(metric)
        indices = np.argmin(values, axis=1) if minimize else np.argmax(values, axis=1)
        return [self.configurations[int(i)] for i in indices]

    def result(self, work_index: int, config_index: int) -> ExecutionResult:
        """Materialize the full :class:`ExecutionResult` of one grid cell."""
        key = (work_index, config_index)
        cached = self._results.get(key)
        if cached is None:
            flat = work_index * len(self.configurations) + config_index
            cached = self._machine._materialize_result(
                self.works[work_index],
                self.configurations[config_index],
                self._entries[flat],
            )
            self._results[key] = cached
        return cached

    def result_for(self, work_index: int, name: str) -> ExecutionResult:
        """Materialize one cell addressed by configuration name."""
        return self.result(work_index, self.index_of(name))


class Machine:
    """The simulated multicore platform.

    Parameters
    ----------
    topology:
        Machine structure; defaults to the paper's quad-core Xeon.
    cache_model, memory_model, cpu_model, power_model:
        Component models; sensible defaults are constructed from the
        topology when omitted.
    pstate_table:
        DVFS operating points available to the cores (the default table's
        nominal state matches the topology's nominal clock).
    noise_sigma:
        Relative standard deviation of the multiplicative execution-time
        jitter applied per execution (models OS noise and run-to-run
        variability).  Set to 0 for a fully deterministic machine.
    seed:
        Seed of the machine's private random generator (used only for the
        noise term).
    fixed_point_iterations:
        Maximum iterations of the throughput/bus-latency fixed point.
    fixed_point_tolerance:
        Convergence threshold on ``|implied(u) - u|`` of the fixed point
        (because the map is monotone decreasing, this also bounds the
        distance to the true root).
    memo_size:
        Capacity (in cells) of the machine's noise-free execution memo,
        used by :meth:`execute_grid`; ``0`` disables memoization.  The memo
        is private to the machine instance (two machines built with
        different noise/power/CPU parameters never share cached cells)
        unless snapshots are exchanged explicitly, e.g. through a
        :class:`~repro.store.MemoStore`.  The same capacity bounds the
        journal of newly simulated cells (:meth:`drain_new_cells`), which
        drops its oldest cell when full.

    The fixed point is resolved by the safeguarded Newton/secant solver of
    :mod:`repro.machine.fixedpoint`; its cost is tracked in
    ``solver_iterations`` / ``solver_evaluations`` and surfaced via
    :meth:`execution_memo_info`.  Grid calls with fewer than
    ``DEFAULT_SMALL_BATCH_CUTOFF`` cold cells are served through the
    memoized scalar path instead of the vectorized kernel, whose fixed
    setup cost only amortizes across enough cells; memo-bypassing calls
    always use the kernel.
    """

    def __init__(
        self,
        topology: Optional[Topology] = None,
        cache_model: Optional[CacheModel] = None,
        memory_model: Optional[MemoryModel] = None,
        cpu_model: Optional[CPUModel] = None,
        power_model: Optional[PowerModel] = None,
        pstate_table: Optional[PStateTable] = None,
        noise_sigma: float = 0.004,
        seed: int = 20070917,
        fixed_point_iterations: int = 48,
        fixed_point_tolerance: float = 1e-9,
        memo_size: int = 4096,
    ) -> None:
        self.topology = topology or quad_core_xeon()
        self.pstate_table = pstate_table or default_pstate_table(
            self.topology.cores[0].frequency_ghz
        )
        self.cache_model = cache_model or CacheModel(self.topology)
        self.memory_model = memory_model or MemoryModel(self.topology)
        self.cpu_model = cpu_model or CPUModel()
        self.power_model = power_model or PowerModel(
            self.topology, pstate_table=self.pstate_table
        )
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        if memo_size < 0:
            raise ValueError("memo_size must be non-negative")
        self.noise_sigma = noise_sigma
        self._rng = np.random.default_rng(seed)
        self.fixed_point_iterations = fixed_point_iterations
        self.fixed_point_tolerance = fixed_point_tolerance
        self.memo_size = memo_size
        self._memo: "OrderedDict[tuple, _CellEntry]" = OrderedDict()
        #: Cells this machine simulated since the last drain, in simulation
        #: order (see :meth:`drain_new_cells`).
        self._journal: "OrderedDict[tuple, _CellEntry]" = OrderedDict()
        self._memo_hits = 0
        self._memo_misses = 0
        self._validated_placements: set = set()
        self._config_statics: Dict[Configuration, _ConfigStatic] = {}
        #: Number of :meth:`execute_grid` calls / grid cells served / cells
        #: that were actually simulated (by the vectorized kernel or the
        #: small-batch scalar short-circuit; the remainder came from the memo).
        self.grid_calls = 0
        self.grid_cells = 0
        self.batch_cells_computed = 0
        #: Number of grid calls whose cold cells were served through the
        #: memoized scalar path (see ``DEFAULT_SMALL_BATCH_CUTOFF``).
        self.small_batch_shortcircuits = 0
        #: Fixed-point solver cost: steps taken and model evaluations
        #: (scalar ``implied(u)`` probes or full-width kernel sweeps)
        #: performed across every execution so far, including each path's
        #: initial ``u = 0`` bracketing evaluation.  Surfaced through
        #: :meth:`execution_memo_info` and the service ``cache_info`` block.
        self.solver_iterations = 0
        self.solver_evaluations = 0

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _validate_placement(self, placement: ThreadPlacement) -> None:
        # Memoized: a placement that validated once against this topology
        # never pays the per-core lookups again (the scalar execution path
        # revalidates on every call).
        cores = placement.cores
        if cores in self._validated_placements:
            return
        for core in cores:
            self.topology.core(core)  # raises KeyError for unknown cores
        self._validated_placements.add(cores)

    def _line_bytes(self) -> int:
        return self.topology.caches[0].line_bytes

    def _frequency_ghz(self, placement: ThreadPlacement, pstate: Optional[PState]) -> float:
        if pstate is not None:
            return pstate.frequency_ghz
        return self.topology.core(placement.cores[0]).frequency_ghz

    # ------------------------------------------------------------------
    # fixed point between CPU throughput and bus latency
    # ------------------------------------------------------------------
    def _resolve_parallel(
        self,
        work: WorkRequest,
        placement: ThreadPlacement,
        frequencies_ghz: Sequence[float],
        reference_ghz: float,
        miss_ratios: Sequence[float],
    ) -> tuple[List[CPIBreakdown], BusState]:
        """Resolve self-consistent per-thread CPI and bus state.

        The coupling is a one-dimensional fixed point in the *demanded* bus
        utilization ``u``: higher assumed utilization raises the effective
        memory latency, which lowers thread throughput, which lowers the
        traffic demand.  The map from assumed to implied utilization is
        therefore monotonically decreasing, so the fixed point is unique,
        bracketed by ``[0, implied(0)]``, and resolved by the shared
        safeguarded Newton/secant solver (:mod:`repro.machine.fixedpoint`).

        Each core runs at its own clock ``frequencies_ghz[t]``.  A thread
        sees the unloaded DRAM nanoseconds converted into its *own* core
        cycles, so fast cores pay more latency cycles per miss than slow
        ones — the asymmetry heterogeneous ladders exploit; the latency is
        computed once per distinct clock.  Bus demand, capacity and the
        returned :class:`BusState` are expressed per cycle of
        ``reference_ghz`` (a thread at ``f`` retiring ``ipc`` instructions
        per cycle contributes ``bytes/cycle · f / reference_ghz``).  With
        one shared clock as the reference every ratio is exactly 1.0; at a
        reduced clock the same DRAM nanoseconds cost fewer core cycles and
        the bus delivers more bytes per cycle, so both sides of the fixed
        point shift in the memory system's favour.
        """
        line_bytes = self._line_bytes()
        n = placement.num_threads
        capacity = self.memory_model.effective_capacity_bytes_per_cycle(
            n, reference_ghz
        )
        l1_misses_per_instr = work.mem_fraction * work.l1_miss_rate
        clocks = list(dict.fromkeys(frequencies_ghz))
        threads = [
            (
                self.topology.core(core_id),
                self.topology.cache_of(core_id).hit_latency_cycles,
                miss_ratio,
                l1_misses_per_instr * miss_ratio,
                clocks.index(f),
                f / reference_ghz,
            )
            for core_id, miss_ratio, f in zip(
                placement.cores, miss_ratios, frequencies_ghz
            )
        ]
        latency_cycles = self.memory_model.effective_latency_cycles
        breakdown = self.cpu_model.breakdown

        def evaluate(assumed: float):
            latencies = []
            for f in clocks:
                latencies.append(
                    latency_cycles(assumed, work.prefetch_friendliness, f, n)
                )
            breakdowns: List[CPIBreakdown] = []
            demand = 0.0
            for core, l2_hit, miss_ratio, l2_misses, clock, bus_ratio in threads:
                bd = breakdown(work, core, miss_ratio, latencies[clock], l2_hit)
                breakdowns.append(bd)
                # traffic: L2 misses per instruction * instructions per cycle
                demand += l2_misses * bd.ipc * line_bytes * bus_ratio
            implied = demand / capacity if capacity > 0 else 0.0
            return implied, (breakdowns, demand)

        # Bracket the fixed point: at u=0 the implied utilization is maximal.
        implied0, (breakdowns, demand) = evaluate(0.0)
        self.solver_evaluations += 1
        if implied0 > self.fixed_point_tolerance:
            (breakdowns, demand), iterations, evaluations = solve_fixed_point_scalar(
                evaluate,
                implied0,
                (breakdowns, demand),
                self.fixed_point_tolerance,
                self.fixed_point_iterations,
            )
            self.solver_iterations += iterations
            self.solver_evaluations += evaluations
        bus_state = self.memory_model.resolve(
            demand,
            frequency_ghz=reference_ghz,
            line_bytes=line_bytes,
            active_requestors=n,
        )
        return breakdowns, bus_state

    def _resolve_serial(
        self, work: WorkRequest, core_id: int, frequency_ghz: Optional[float] = None
    ) -> CPIBreakdown:
        """CPI of the serial portion: one thread with a whole L2 to itself."""
        cache = self.topology.cache_of(core_id)
        latency = self.memory_model.effective_latency_cycles(
            0.0,
            prefetch_friendliness=work.prefetch_friendliness,
            frequency_ghz=frequency_ghz,
        )
        return self.cpu_model.breakdown(
            work,
            self.topology.core(core_id),
            l2_miss_ratio=self.cache_model.miss_ratio(work, cache.size_mb, 1),
            memory_latency_cycles=latency,
            l2_hit_latency_cycles=cache.hit_latency_cycles,
        )

    # ------------------------------------------------------------------
    # event count synthesis
    # ------------------------------------------------------------------
    def _event_counts(
        self,
        work: WorkRequest,
        placement: ThreadPlacement,
        instructions: float,
        cycles: float,
        breakdowns: Sequence[CPIBreakdown],
        miss_ratios: Sequence[float],
        bus: BusState,
    ) -> Dict[str, float]:
        n = placement.num_threads
        mem_instr = instructions * work.mem_fraction
        l1_misses = mem_instr * work.l1_miss_rate
        mean_miss_ratio = sum(miss_ratios) / len(miss_ratios)
        l2_accesses = l1_misses
        l2_total_misses = l1_misses * mean_miss_ratio
        l2_data_misses = l2_total_misses * 0.92
        stall_cycles = sum(
            bd.memory_cpi / bd.total for bd in breakdowns
        ) / n * cycles * n  # per-thread stall fraction * thread-cycles
        tlb_rate = min(0.02, 0.0004 * work.working_set_mb)
        counts = {
            "PAPI_TOT_INS": instructions,
            "PAPI_TOT_CYC": cycles,
            "PAPI_L1_DCA": mem_instr,
            "PAPI_L1_DCM": l1_misses,
            "PAPI_L2_DCA": l2_accesses,
            "PAPI_L2_DCM": l2_data_misses,
            "PAPI_L2_TCM": l2_total_misses,
            "PAPI_BUS_TRN": l2_total_misses * 1.05,
            "PAPI_RES_STL": stall_cycles,
            "PAPI_TLB_DM": mem_instr * tlb_rate,
            "PAPI_BR_INS": instructions * work.branch_fraction,
            "PAPI_BR_MSP": instructions
            * work.branch_fraction
            * self.cpu_model.branch_misprediction_rate,
            "PAPI_FP_OPS": instructions * work.flop_fraction,
            "PAPI_LST_INS": mem_instr,
        }
        return counts

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def execute(
        self,
        work: WorkRequest,
        placement: ThreadPlacement | Configuration,
        apply_noise: bool = True,
        pstate: PState | Sequence[PState] | None = None,
    ) -> ExecutionResult:
        """Execute one invocation of a phase under a placement.

        Parameters
        ----------
        work:
            Phase characterization (see :class:`repro.machine.work.WorkRequest`).
        placement:
            Either a raw :class:`ThreadPlacement` or a named
            :class:`Configuration` (whose pinned P-state — homogeneous or
            per-core vector — is honoured).
        apply_noise:
            Whether to apply the machine's run-to-run noise term to the
            execution time (the oracle measurement pipeline disables it).
        pstate:
            DVFS operating point to run at; overrides the configuration's
            pinned state.  ``None`` with a plain placement runs at the
            nominal clock.  A *sequence* of P-states (one per thread slot,
            in placement order) runs each core at its own clock; an
            all-equal sequence is exactly the homogeneous execution.

        With per-core clocks the parallel critical path is the slowest
        thread, ``instructions · CPI · f_master / f_thread`` in master-core
        cycles; the serial portion and the barrier synchronization execute
        on the master (thread-0) core, and reported ``cycles`` / ``ipc``
        are expressed in its clock.  Bus traffic is resolved per cycle of
        the shared clock, or of a 1 GHz reference (per nanosecond) when
        the cores disagree (see :meth:`_resolve_parallel`).
        """
        if isinstance(placement, Configuration):
            if pstate is None:
                pstate = (
                    placement.pstate_vector
                    if placement.pstate_vector is not None
                    else placement.pstate
                )
            placement = placement.placement
        self._validate_placement(placement)
        pstate, pstate_vector = self._normalize_pstates(placement, pstate)
        n = placement.num_threads
        if pstate_vector is None:
            reference_ghz = self._frequency_ghz(placement, pstate)
            frequencies = (reference_ghz,) * n
        else:
            reference_ghz = 1.0
            frequencies = tuple(p.frequency_ghz for p in pstate_vector)
        master_ghz = frequencies[0]

        # --- parallel portion -----------------------------------------
        miss_ratios = self.cache_model.per_thread_miss_ratios(work, placement)
        breakdowns, bus_state = self._resolve_parallel(
            work, placement, frequencies, reference_ghz, miss_ratios
        )
        parallel_instructions = work.instructions * (1.0 - work.serial_fraction)
        per_thread_instr = parallel_instructions / n
        critical_instr = per_thread_instr * (work.load_imbalance if n > 1 else 1.0)
        # Critical-path thread: the slowest thread, in master-clock cycles.
        parallel_cycles = max(
            critical_instr * bd.total * (master_ghz / f)
            for bd, f in zip(breakdowns, frequencies)
        )

        # --- serial portion (master core) -------------------------------
        serial_instructions = work.instructions * work.serial_fraction
        serial_cycles = 0.0
        if serial_instructions > 0:
            serial_bd = self._resolve_serial(work, placement.cores[0], master_ghz)
            serial_cycles = serial_instructions * serial_bd.total

        # --- synchronization (master core) ------------------------------
        sync_cycles = 0.0
        sync_instructions = 0.0
        if n > 1 and work.barriers > 0:
            per_barrier = work.sync_cycles_per_barrier + 450.0 * n
            sync_cycles = work.barriers * per_barrier
            sync_instructions = work.barriers * _SYNC_INSTRUCTIONS_PER_BARRIER * n

        total_cycles = parallel_cycles + serial_cycles + sync_cycles
        if apply_noise and self.noise_sigma > 0:
            jitter = float(
                np.clip(1.0 + self._rng.normal(0.0, self.noise_sigma), 0.9, 1.1)
            )
            total_cycles *= jitter

        total_instructions = work.instructions + sync_instructions
        time_seconds = total_cycles / (master_ghz * 1e9)
        ipc = total_instructions / total_cycles if total_cycles > 0 else 0.0

        # --- power -------------------------------------------------------
        power = self.power_model.evaluate(
            occupied_cores=placement.cores,
            thread_ipcs=[bd.ipc for bd in breakdowns],
            stall_fractions=[bd.stall_fraction for bd in breakdowns],
            bus_utilization=bus_state.utilization,
            pstate=pstate if pstate_vector is None else pstate_vector,
        )

        events = self._event_counts(
            work,
            placement,
            total_instructions,
            total_cycles,
            breakdowns,
            miss_ratios,
            bus_state,
        )
        return ExecutionResult(
            work=work,
            placement=placement,
            time_seconds=time_seconds,
            cycles=total_cycles,
            instructions=total_instructions,
            ipc=ipc,
            thread_ipcs=tuple(bd.ipc for bd in breakdowns),
            thread_cpi=tuple(breakdowns),
            bus=bus_state,
            power=power,
            event_counts=events,
            pstate=pstate,
            frequency_ghz=master_ghz,
            miss_ratios=tuple(miss_ratios),
            pstates=pstate_vector,
        )

    @staticmethod
    def _normalize_pstates(
        placement: ThreadPlacement, pstate: PState | Sequence[PState] | None
    ) -> Tuple[Optional[PState], Optional[Tuple[PState, ...]]]:
        """Split a P-state argument into ``(scalar, vector)`` canonical form.

        An all-equal vector collapses to its scalar state — the degenerate
        heterogeneous case *is* the homogeneous execution, keyed, reported
        and powered exactly like it.
        """
        if pstate is None or isinstance(pstate, PState):
            return pstate, None
        vector = tuple(pstate)
        if len(vector) != placement.num_threads:
            raise ValueError(
                f"pstate vector has {len(vector)} entries but the placement "
                f"binds {placement.num_threads} thread(s)"
            )
        if len(set(vector)) == 1:
            return vector[0], None
        return None, vector

    # ------------------------------------------------------------------
    # batched execution
    # ------------------------------------------------------------------
    def default_configurations(self) -> List[Configuration]:
        """The full placement × P-state cross-product for this machine.

        The paper's five placements when the topology is QX6600-shaped,
        otherwise the generalized compact/scattered enumeration — each
        expanded over the machine's P-state ladder.
        """
        try:
            bases = standard_configurations(self.topology)
        except ValueError:
            bases = enumerate_configurations(self.topology)
        return dvfs_configurations(bases, self.pstate_table)

    def _pstate_key(self, config: Configuration) -> tuple:
        """Physical operating point of a configuration, for memo keying.

        A cell's outcome depends on the clock the cores run at plus the
        power model's frequency/voltage scales — not on the ``PState``
        object identity — so ``pstate=None`` (run at the placement's
        nominal clock) and an explicitly pinned nominal state collapse to
        the same key and share their memoized cell.

        Homogeneous configurations key as one ``(frequency, f_scale,
        v_scale)`` triple; heterogeneous configurations as a tuple of one
        such triple *per core* in placement order.  The two shapes are
        structurally distinct, so a heterogeneous cell can never alias a
        homogeneous one (and an all-equal vector cannot occur here — it is
        canonicalized to the scalar form at construction).
        """
        if config.pstate_vector is not None:
            return tuple(
                (p.frequency_ghz,) + self.power_model.dvfs_scales(p)
                for p in config.pstate_vector
            )
        pstate = config.pstate
        if pstate is None:
            return (self._frequency_ghz(config.placement, None), 1.0, 1.0)
        f_scale, v_scale = self.power_model.dvfs_scales(pstate)
        return (pstate.frequency_ghz, f_scale, v_scale)

    def shares_memo_cell(self, a: Configuration, b: Configuration) -> bool:
        """Whether two configurations resolve to the same execution cell.

        True when both pin the same cores at the same physical operating
        point — the memo-key equivalence, under which ``pstate=None`` (run
        at the placement's nominal clock) and an explicitly pinned nominal
        state are one cell.  Callers that reuse measurement columns across
        nominally different configurations (e.g. training's sample column)
        should ask this instead of re-deriving the rule.
        """
        return a.placement.cores == b.placement.cores and self._pstate_key(
            a
        ) == self._pstate_key(b)

    def _config_static(self, config: Configuration) -> _ConfigStatic:
        """Kernel constants of ``config`` (see :class:`_ConfigStatic`)."""
        static = self._config_statics.get(config)
        if static is None:
            placement = config.placement
            self._validate_placement(placement)
            topology = self.topology
            cores = placement.cores
            n = len(cores)
            caches = [topology.cache_of(c) for c in cores]
            sharers = placement.sharers_by_cache(topology)
            occupants = {cid: len(cs) for cid, cs in sharers.items()}
            if config.pstate_vector is None:
                # One shared clock, which is also the bus reference clock.
                reference = self._frequency_ghz(placement, config.pstate)
                pstates = (config.pstate,) * n
                clocks = np.full(n, reference)
            else:
                # Per-core clocks: bus traffic in per-nanosecond units.
                reference = 1.0
                pstates = config.pstate_vector
                clocks = np.array([p.frequency_ghz for p in pstates])
            f_scale, v_scale = np.array(
                [self.power_model.dvfs_scales(p) for p in pstates]
            ).T
            dynamic = f_scale * v_scale ** 2
            # The shared domains scale by a homogeneous configuration's own
            # f·V² (the mean of n equal scales is not always bit-equal to
            # it), otherwise by the mean over the active cores.
            shared_scale = (
                dynamic[0] if config.pstate_vector is None else np.sum(dynamic) / n
            )
            threads = np.array(
                [
                    [topology.core(c).l1_hit_latency_cycles for c in cores],
                    [cache.hit_latency_cycles for cache in caches],
                    [cache.size_mb for cache in caches],
                    [occupants[topology.core(c).l2_cache_id] for c in cores],
                    clocks,
                    clocks / reference,
                    clocks[0] / clocks,
                    f_scale,
                    v_scale,
                ],
                dtype=np.float64,
            )
            static = _ConfigStatic(
                n=n,
                threads=threads,
                scalars=(
                    float(n),
                    reference,
                    float(shared_scale),
                    caches[0].size_mb,
                    topology.core(cores[0]).l1_hit_latency_cycles,
                    caches[0].hit_latency_cycles,
                    float(len(sharers)),
                ),
            )
            self._config_statics[config] = static
        return static

    def _execute_cells_kernel(
        self,
        works: Sequence[WorkRequest],
        work_rows: np.ndarray,
        configs: Sequence[Configuration],
        config_rows: np.ndarray,
        apply_noise: bool = False,
    ) -> List[_CellEntry]:
        """Simulate a flat list of (work, configuration) cells in one pass.

        Row ``i`` of the kernel is the pair ``(works[work_rows[i]],
        configs[config_rows[i]])``, so one kernel launch serves a full
        phase × configuration grid (row-major cell order) as well as the
        ragged miss sets a partially warm memo leaves behind.

        The arithmetic vectorizes :meth:`execute` operation for operation —
        including the throughput/bus fixed point, resolved by the shared
        safeguarded solver (:mod:`repro.machine.fixedpoint`) simultaneously
        for all cells with a per-row convergence mask — so every cell
        reproduces the scalar path to floating-point accuracy.  Per-work
        scalars become per-row columns and per-core quantities ``(rows,
        threads)`` matrices; a homogeneous configuration is a row of equal
        clocks, whose bus ratios ``f_thread / f_ref`` and time ratios
        ``f_master / f_thread`` are exactly 1.0.  With ``apply_noise`` one
        jitter per row is drawn from the machine RNG in row order — the
        stream a loop of noisy :meth:`execute` calls would consume — and
        multiplies the row's total cycles.
        """
        work_rows = np.asarray(work_rows)
        config_rows = np.asarray(config_rows)
        n_rows = len(work_rows)
        jitter: Optional[np.ndarray] = None
        if apply_noise and self.noise_sigma > 0:
            jitter = np.clip(
                1.0 + self._rng.normal(0.0, self.noise_sigma, size=n_rows),
                0.9,
                1.1,
            )
        # Compact to the works/configs actually referenced: a partially-warm
        # call may leave cold cells in only a few columns, and the setup
        # loops below (statics, scatter arrays, DVFS scales, field gathers)
        # should scale with the cold set, not the full space.  Padded-lane
        # width may shrink too; padded lanes are masked to exact zeros /
        # -inf, so row values are unaffected.
        used_configs = sorted({int(c) for c in config_rows})
        if len(used_configs) < len(configs):
            remap = {old: new for new, old in enumerate(used_configs)}
            configs = [configs[i] for i in used_configs]
            config_rows = np.array([remap[int(c)] for c in config_rows], dtype=np.intp)
        used_works = sorted({int(w) for w in work_rows})
        if len(used_works) < len(works):
            remap = {old: new for new, old in enumerate(used_works)}
            works = [works[i] for i in used_works]
            work_rows = np.array([remap[int(w)] for w in work_rows], dtype=np.intp)
        statics = [self._config_static(c) for c in configs]
        width = max(s.n for s in statics)
        # Padded thread lanes are 1.0 in every per-thread field, so
        # divisions stay finite; the mask zeroes their contributions exactly.
        threads_c = np.ones((len(statics[0].threads), len(configs), width))
        for i, s in enumerate(statics):
            threads_c[:, i, : s.n] = s.threads
        # Gather the per-config constants out to one row per cell.
        (
            l1_hit,
            l2_hit,
            capacity_mb,
            occupants,
            freq,  # (rows, width): one clock per thread
            bus_ratio,
            time_ratio,
            f_scale,
            v_scale,
        ) = threads_c[:, config_rows]
        (
            n,
            reference,
            shared_scale,
            serial_capacity_mb,
            serial_l1_hit,
            serial_l2_hit,
            active_caches,
        ) = np.array([s.scalars for s in statics]).T[:, config_rows]
        mask = np.arange(width) < n[:, None]
        master = freq[:, 0]
        maskf = mask.astype(np.float64)

        def wcol(attr: str) -> np.ndarray:
            """Per-row column of one work-request field."""
            return work_field_rows(works, work_rows, attr)

        instructions = wcol("instructions")
        mem_fraction = wcol("mem_fraction")
        l1_miss_rate = wcol("l1_miss_rate")
        prefetch = wcol("prefetch_friendliness")
        branch_fraction = wcol("branch_fraction")
        bandwidth = wcol("bandwidth_sensitivity")[:, None]
        base_cpi = wcol("base_cpi")[:, None]
        serial_fraction = wcol("serial_fraction")
        load_imbalance = wcol("load_imbalance")
        barriers = wcol("barriers")
        sync_cycles_per_barrier = wcol("sync_cycles_per_barrier")

        # --- parallel portion: vectorized fixed point ------------------
        # The inner solver sweep is the hot loop of the whole batch engine,
        # so the per-iteration quantities are inlined from the component grid
        # APIs with every latency-independent term hoisted out of the loop.
        # The operation order deliberately mirrors the scalar path
        # (`MemoryModel.latency_stretch` / `CPUModel.breakdown`) term for
        # term so both paths agree to floating-point accuracy.
        miss_ratios = self.cache_model.miss_ratio_grid(
            works, work_rows, capacity_mb, occupants
        )
        line_bytes = self._line_bytes()
        l1_misses_per_instr = (mem_fraction * l1_miss_rate)[:, None]
        l2_misses_per_instr = l1_misses_per_instr * miss_ratios
        l2_hits_per_instr = l1_misses_per_instr * (1.0 - miss_ratios)
        capacity = self.memory_model.effective_capacity_bytes_per_cycle_batch(
            n, reference
        )
        capacity_positive = capacity > 0
        safe_capacity = np.where(capacity_positive, capacity, 1.0)

        memory = self.memory_model
        onset = memory.contention_onset
        onset_span = 1.0 - onset
        max_stretch = memory.max_stretch
        conflict_coeff = memory.row_conflict_penalty * np.maximum(0.0, n - 1.0)
        # Each thread converts the DRAM nanoseconds into its own cycles.
        base_latency = self.topology.memory_latency_ns * freq
        exposed = np.maximum(0.0, 1.0 - prefetch)[:, None]
        hidden_latency = base_latency * (1.0 - exposed) * 0.05
        branch_component = (
            branch_fraction
            * self.cpu_model.branch_misprediction_rate
            * self.cpu_model.branch_penalty_cycles
        )[:, None]
        l1_component = (
            l2_hits_per_instr
            * np.maximum(0.0, l2_hit - l1_hit)
            * self.cpu_model.l2_hit_exposed_fraction
        )
        head_cpi = base_cpi + l1_component
        # line_bytes is a power of two on every shipped topology, so folding
        # it into the constant factor is exact (a pure exponent shift).
        traffic_coeff = (l2_misses_per_instr * line_bytes) * maskf

        def sweep(assumed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """Per-thread latency and aggregate demand at an assumed utilization."""
            rho = np.minimum(np.maximum(assumed, 0.0), 0.999)
            conflict = 1.0 + conflict_coeff * rho
            effective = (rho - onset) / onset_span
            stretch = (
                np.minimum(max_stretch, 1.0 / np.maximum(1e-3, 1.0 - effective))
                * conflict
            )
            stretch = np.where(rho <= onset, conflict, stretch)
            latency = base_latency * stretch[:, None] * exposed + hidden_latency
            total = (head_cpi + l2_misses_per_instr * latency * bandwidth) + branch_component
            thread_ipc = 1.0 / total
            demand = np.sum(traffic_coeff * thread_ipc * bus_ratio, axis=1)
            return latency, demand

        final_latency, final_demand = sweep(np.zeros(n_rows))
        self.solver_evaluations += 1
        implied0 = np.where(capacity_positive, final_demand / safe_capacity, 0.0)

        def evaluate(assumed: np.ndarray) -> np.ndarray:
            # Converged / inactive lanes arrive with their u frozen, so
            # recomputing them reproduces their final state bit for bit;
            # the solver guarantees the last sweep covered every lane.
            nonlocal final_latency, final_demand
            final_latency, final_demand = sweep(assumed)
            return np.where(capacity_positive, final_demand / safe_capacity, 0.0)

        iterations, evaluations = solve_fixed_point_vector(
            evaluate,
            implied0,
            self.fixed_point_tolerance,
            self.fixed_point_iterations,
        )
        self.solver_iterations += iterations
        self.solver_evaluations += evaluations

        breakdowns = self.cpu_model.breakdown_grid(
            works, work_rows, miss_ratios, final_latency, l2_hit, l1_hit
        )
        bus = self.memory_model.resolve_batch(final_demand, reference, line_bytes, n)

        parallel_instructions = instructions * (1.0 - serial_fraction)
        per_thread_instr = parallel_instructions / n
        critical_instr = per_thread_instr * np.where(n > 1, load_imbalance, 1.0)
        # Critical path: the slowest thread, in master-clock cycles.
        thread_cycles = critical_instr[:, None] * breakdowns.total * time_ratio
        parallel_cycles = np.max(np.where(mask, thread_cycles, -np.inf), axis=1)

        # --- serial portion (master core) -------------------------------
        # Rows with no serial fraction contribute exactly 0.0 cycles (the
        # multiplication by zero instructions is exact), matching the scalar
        # path's skip.
        serial_instructions = instructions * serial_fraction
        serial_miss = self.cache_model.miss_ratio_grid(
            works, work_rows, serial_capacity_mb, np.ones(n_rows)
        )
        serial_latency = self.memory_model.effective_latency_cycles_grid(
            np.zeros(n_rows),
            prefetch,
            master,
            np.ones(n_rows),
        )
        serial_breakdown = self.cpu_model.breakdown_grid(
            works, work_rows, serial_miss, serial_latency, serial_l2_hit, serial_l1_hit
        )
        serial_cycles = serial_instructions * serial_breakdown.total

        # --- synchronization (master core) ------------------------------
        sync_active = (n > 1) & (barriers > 0)
        per_barrier = sync_cycles_per_barrier + 450.0 * n
        sync_cycles = np.where(sync_active, barriers * per_barrier, 0.0)
        sync_instructions = np.where(
            sync_active, barriers * _SYNC_INSTRUCTIONS_PER_BARRIER * n, 0.0
        )

        total_cycles = parallel_cycles + serial_cycles + sync_cycles
        if jitter is not None:
            total_cycles = total_cycles * jitter

        total_instructions = instructions + sync_instructions
        time_seconds = total_cycles / (master * 1e9)
        safe_cycles = np.where(total_cycles > 0, total_cycles, 1.0)
        aggregate_ipc = np.where(
            total_cycles > 0, total_instructions / safe_cycles, 0.0
        )

        # --- power -----------------------------------------------------
        power = self.power_model.evaluate_grid(
            thread_mask=mask,
            thread_ipcs=breakdowns.ipc,
            stall_fractions=breakdowns.stall_fraction,
            bus_utilization=bus.utilization,
            active_cache_counts=active_caches,
            num_threads=n,
            f_scale=f_scale,
            v_scale=v_scale,
            shared_dynamic_scale=shared_scale,
        )

        # --- assemble compact per-cell entries -------------------------
        thread_counts = [s.n for s in statics]
        rows_k = [thread_counts[ci] for ci in config_rows.tolist()]
        bus_rows = zip(
            bus.demand_bytes_per_cycle.tolist(),
            bus.capacity_bytes_per_cycle.tolist(),
            bus.utilization.tolist(),
            bus.latency_stretch.tolist(),
            bus.transactions_per_cycle.tolist(),
        )
        power_rows = zip(
            power.platform_watts.tolist(),
            power.cores_watts.tolist(),
            power.caches_watts.tolist(),
            power.uncore_watts.tolist(),
            power.memory_watts.tolist(),
        )
        return [
            _CellEntry(
                time, cycles, instr, ipc, clock,
                tuple(miss[:k]), tuple(l1[:k]), tuple(l2[:k]), tuple(watts[:k]),
                bus_row, power_row,
            )
            for (
                time, cycles, instr, ipc, clock, miss, l1, l2, watts, k,
                bus_row, power_row,
            ) in zip(
                time_seconds.tolist(),
                total_cycles.tolist(),
                total_instructions.tolist(),
                aggregate_ipc.tolist(),
                master.tolist(),
                miss_ratios.tolist(),
                np.asarray(breakdowns.l1_miss).tolist(),
                np.asarray(breakdowns.l2_miss).tolist(),
                power.per_thread_watts.tolist(),
                rows_k,
                bus_rows,
                power_rows,
            )
        ]

    def _materialize_result(
        self, work: WorkRequest, config: Configuration, entry: _CellEntry
    ) -> ExecutionResult:
        """Rebuild a full :class:`ExecutionResult` from a compact cell entry."""
        branch_component = (
            work.branch_fraction
            * self.cpu_model.branch_misprediction_rate
            * self.cpu_model.branch_penalty_cycles
        )
        breakdowns = tuple(
            CPIBreakdown(
                base=work.base_cpi,
                l1_miss=l1,
                l2_miss=l2,
                branch=branch_component,
            )
            for l1, l2 in zip(entry.l1_cpi, entry.l2_cpi)
        )
        bus = BusState(*entry.bus)
        power = PowerBreakdown(
            platform_watts=entry.power[0],
            cores_watts=entry.power[1],
            caches_watts=entry.power[2],
            uncore_watts=entry.power[3],
            memory_watts=entry.power[4],
            components={
                f"core{core_id}": watts
                for core_id, watts in zip(config.placement.cores, entry.thread_watts)
            },
        )
        events = self._event_counts(
            work,
            config.placement,
            entry.instructions,
            entry.cycles,
            breakdowns,
            entry.miss_ratios,
            bus,
        )
        return ExecutionResult(
            work=work,
            placement=config.placement,
            time_seconds=entry.time_seconds,
            cycles=entry.cycles,
            instructions=entry.instructions,
            ipc=entry.ipc,
            thread_ipcs=tuple(bd.ipc for bd in breakdowns),
            thread_cpi=breakdowns,
            bus=bus,
            power=power,
            event_counts=events,
            pstate=config.pstate,
            frequency_ghz=entry.frequency_ghz,
            miss_ratios=entry.miss_ratios,
            pstates=config.pstate_vector,
        )

    def execute_grid(
        self,
        works: Sequence[WorkRequest],
        configurations: Optional[Sequence[Configuration | ThreadPlacement]] = None,
        apply_noise: bool = False,
        use_memo: bool = True,
    ) -> GridExecutionResult:
        """Execute many phases under many configurations in one NumPy pass.

        The kernel vectorizes everything :meth:`execute` composes — cache
        miss-ratio evaluation, the per-thread CPI stacks, the throughput/bus
        fixed point (resolved by the shared safeguarded solver
        simultaneously for every (work, configuration) cell, with a per-row
        convergence mask retiring converged lanes) and the power model — so
        all of a benchmark's phases (or the phases of several benchmarks
        stacked together) under a whole configuration space cost one array
        pass instead of one Python traversal per cell.  Oracle-table
        construction and training-data collection therefore pay one kernel
        launch per benchmark instead of one per phase; a one-phase sweep is
        ``execute_grid([work])``, read at row 0.  Noise-free results match
        looped :meth:`execute` calls to floating-point accuracy, cell for
        cell.

        Parameters
        ----------
        works:
            Phase characterizations, one grid row each.
        configurations:
            Configurations (or raw placements), one grid column each;
            defaults to the machine's full placement × P-state
            cross-product (:meth:`default_configurations`).
        apply_noise:
            Apply the machine's run-to-run noise term, drawing one jitter
            per cell in row-major order (work-major — the same stream a
            nested ``for work: for config:`` loop of noisy :meth:`execute`
            calls would consume).  Noisy cells are never memoized.
        use_memo:
            Serve noise-free cells from (and record them into) the
            machine's execution memo, keyed by
            ``(work fingerprint, placement cores, P-state)``, so repeated
            sweeps — oracle construction, training collection — never
            simulate the same cell twice; only the cells still missing are
            simulated.  ``False`` bypasses the memo entirely (neither reads
            nor writes).
        """
        works = list(works)
        if not works:
            raise ValueError("execute_grid needs at least one work request")
        if configurations is None:
            configurations = self.default_configurations()
        configs: List[Configuration] = [
            c
            if isinstance(c, Configuration)
            else Configuration("p" + "+".join(map(str, c.cores)), c)
            for c in configurations
        ]
        if not configs:
            raise ValueError("execute_grid needs at least one configuration")
        for config in configs:
            self._validate_placement(config.placement)
        self.grid_calls += 1
        self.grid_cells += len(works) * len(configs)
        entries, hits, misses = self._serve_cells(works, configs, apply_noise, use_memo)
        return GridExecutionResult(
            works=works,
            configurations=configs,
            machine=self,
            entries=entries,
            memo_hits=hits,
            memo_misses=misses,
        )

    # ------------------------------------------------------------------
    # cell-serving machinery (memo, short-circuit, kernel dispatch)
    # ------------------------------------------------------------------
    def _serve_cells(
        self,
        works: List[WorkRequest],
        configs: List[Configuration],
        apply_noise: bool,
        use_memo: bool,
    ) -> Tuple[List[_CellEntry], int, int]:
        """Serve the row-major (work × configuration) cell list.

        Cells already in the memo are returned directly; the remainder are
        simulated — through the vectorized kernel, or through the memoized
        scalar path when fewer than ``DEFAULT_SMALL_BATCH_CUTOFF`` cells are
        cold — and recorded into the memo and the journal of new cells.
        Cold cells with identical memo keys (duplicate configurations, or
        equal-valued works) are simulated once and shared — the copies
        count as hits (they are served from the just-recorded cell), so
        ``misses`` always equals the number of cells actually simulated.
        Returns ``(entries, hits, misses)``.
        """
        num_configs = len(configs)
        total = len(works) * num_configs
        memo_enabled = use_memo and not apply_noise and self.memo_size > 0
        entries: List[Optional[_CellEntry]] = [None] * total
        keys: List[tuple] = []
        hits = 0
        if memo_enabled:
            config_keys = [
                (c.placement.cores, self._pstate_key(c)) for c in configs
            ]
            keys = [
                (fingerprint, cores, pstate_key)
                for fingerprint in (w.fingerprint() for w in works)
                for cores, pstate_key in config_keys
            ]
            for i, key in enumerate(keys):
                cached = self._memo.get(key)
                if cached is not None:
                    self._memo.move_to_end(key)
                    entries[i] = cached
                    hits += 1
            self._memo_hits += hits

        miss_indices = [i for i, entry in enumerate(entries) if entry is None]
        if miss_indices:
            # Simulate each distinct memo key once; duplicate cold cells
            # (the memo can only dedup across calls) share the computed
            # entry.  Without the memo there are no keys to compare by.
            duplicate_of: Dict[int, int] = {}
            if memo_enabled:
                first_by_key: Dict[tuple, int] = {}
                unique_indices: List[int] = []
                for i in miss_indices:
                    first = first_by_key.setdefault(keys[i], i)
                    if first is i:
                        unique_indices.append(i)
                    else:
                        duplicate_of[i] = first
            else:
                unique_indices = miss_indices
            if (
                memo_enabled
                and 0 < len(unique_indices) < DEFAULT_SMALL_BATCH_CUTOFF
            ):
                # Small-batch short-circuit: below the cutoff the vectorized
                # kernel's fixed setup cost dominates, so cold cells go
                # through the scalar path and land in the memo like any
                # other cell.
                self.small_batch_shortcircuits += 1
                computed = [
                    self._execute_scalar_cell(
                        works[i // num_configs], configs[i % num_configs]
                    )
                    for i in unique_indices
                ]
            else:
                computed = self._execute_cells_kernel(
                    works,
                    np.array([i // num_configs for i in unique_indices], dtype=np.intp),
                    configs,
                    np.array([i % num_configs for i in unique_indices], dtype=np.intp),
                    apply_noise,
                )
            self.batch_cells_computed += len(unique_indices)
            if memo_enabled:
                self._memo_misses += len(unique_indices)
                for i, entry in zip(unique_indices, computed):
                    entries[i] = entry
                    self._memo[keys[i]] = entry
                    if len(self._memo) > self.memo_size:
                        self._memo.popitem(last=False)
                    self._journal[keys[i]] = entry
                    if len(self._journal) > self.memo_size:
                        self._journal.popitem(last=False)
                for i, first in duplicate_of.items():
                    entries[i] = entries[first]
                hits += len(duplicate_of)
                self._memo_hits += len(duplicate_of)
            else:
                for i, entry in zip(unique_indices, computed):
                    entries[i] = entry
        misses = len(miss_indices) - (len(duplicate_of) if miss_indices else 0)
        return entries, hits, misses  # type: ignore[return-value]

    def _execute_scalar_cell(
        self, work: WorkRequest, config: Configuration
    ) -> _CellEntry:
        """One noise-free cell through the scalar path, as a compact entry."""
        return _CellEntry.from_result(self.execute(work, config, apply_noise=False))

    # ------------------------------------------------------------------
    # execution memo introspection and cross-process sharing
    # ------------------------------------------------------------------
    def execution_memo_info(self) -> ExecutionMemoInfo:
        """Hit/miss accounting of the noise-free execution memo."""
        return ExecutionMemoInfo(
            hits=self._memo_hits,
            misses=self._memo_misses,
            size=len(self._memo),
            maxsize=self.memo_size,
            solver_iterations=self.solver_iterations,
            solver_evaluations=self.solver_evaluations,
        )

    def export_execution_memo(self) -> ExecutionMemoSnapshot:
        """Export the whole memo as a picklable :class:`ExecutionMemoSnapshot`."""
        return ExecutionMemoSnapshot(
            schema=_memo_schema(), cells=tuple(self._memo.items())
        )

    def drain_new_cells(self) -> ExecutionMemoSnapshot:
        """Hand over the journal of newly simulated cells and empty it.

        The journal holds every cell this machine simulated into its memo
        since the last drain, in simulation order, each key once — never
        cells that arrived by :meth:`merge_execution_memo`, memo hits,
        noisy cells or memo-bypassing calls.  It is bounded by
        ``memo_size`` and drops its oldest cell when full, so a machine
        that is never drained does not grow without limit.  Publishing a
        drain is O(new cells): :meth:`~repro.store.MemoStore.absorb` is
        its one consumer.
        """
        cells = tuple(self._journal.items())
        self._journal.clear()
        return ExecutionMemoSnapshot(schema=_memo_schema(), cells=cells)

    def merge_execution_memo(self, snapshot: ExecutionMemoSnapshot) -> int:
        """Absorb a snapshot's cells; returns how many were actually new.

        Cells already present locally are kept (never overwritten); merged
        cells respect the memo's LRU capacity and never enter the journal
        of new cells.  Snapshots whose fingerprint schema differs from this
        code revision's — e.g. pickled before a
        :class:`~repro.machine.work.WorkRequest` field was added — are
        rejected, because their keys would silently alias cells of
        incompatible characterizations.

        Merging is the caller's assertion that the exporting machine was
        built with equivalent model parameters; machines that never
        exchange snapshots keep fully private memos.
        """
        expected = _memo_schema()
        if snapshot.schema != expected:
            raise ValueError(
                "stale execution-memo snapshot: fingerprint schema "
                f"{snapshot.schema!r} does not match this revision's "
                f"{expected!r}"
            )
        added = 0
        if self.memo_size > 0:
            for key, entry in snapshot.cells:
                if key not in self._memo:
                    self._memo[key] = entry
                    added += 1
                    if len(self._memo) > self.memo_size:
                        self._memo.popitem(last=False)
        return added

    def clear_execution_memo(self) -> None:
        """Drop every memoized and journaled cell and reset the counters."""
        self._memo.clear()
        self._journal.clear()
        self._memo_hits = 0
        self._memo_misses = 0

    def idle_power_watts(self) -> float:
        """Wall power of the idle platform."""
        return self.power_model.idle_power_watts()
