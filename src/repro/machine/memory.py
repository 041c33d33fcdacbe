"""Front-side-bus and memory-bandwidth contention model.

The second scaling pathology the paper documents is saturation of the single
1066 MHz front-side bus: every L2 miss from every core crosses the same bus,
so once aggregate demand approaches the bus capacity the effective memory
latency seen by all threads rises sharply.  The paper's IS benchmark — highly
communication- and bandwidth-intensive — loses 40 % performance on four
threads relative to one because of exactly this effect.

The model here treats the bus as a single queueing resource:

* each thread generates off-chip traffic proportional to its L2 miss rate and
  its instruction throughput;
* the bus utilization is the aggregate traffic divided by the peak bandwidth;
* the effective memory latency is the unloaded DRAM latency multiplied by an
  M/M/1-like stretch factor ``1 / (1 - rho)`` (capped) so latency degrades
  smoothly as utilization approaches 1 and demand beyond capacity is
  throughput-limited.

Because the traffic depends on the threads' throughput, which depends on the
latency, which depends on the traffic, the machine model resolves the loop by
fixed-point iteration (see :mod:`repro.machine.machine`); this module only
provides the per-iteration primitives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topology import Topology

__all__ = ["BusState", "BusStateBatch", "MemoryModel"]


@dataclass(frozen=True)
class BusState:
    """Resolved state of the front-side bus for one phase execution.

    Attributes
    ----------
    demand_bytes_per_cycle:
        Aggregate off-chip traffic demanded by all threads, in bytes per
        core cycle, before any throttling by the bus itself.
    capacity_bytes_per_cycle:
        Peak bus capacity in bytes per core cycle.
    utilization:
        Delivered utilization of the bus in [0, 1].
    latency_stretch:
        Multiplier on the unloaded memory latency caused by queueing.
    transactions_per_cycle:
        Delivered bus transactions (cache-line transfers) per core cycle.
    """

    demand_bytes_per_cycle: float
    capacity_bytes_per_cycle: float
    utilization: float
    latency_stretch: float
    transactions_per_cycle: float


@dataclass(frozen=True)
class BusStateBatch:
    """Array-shaped :class:`BusState`: one resolved bus state per element.

    Every attribute is a NumPy array of a common shape (one entry per
    configuration of a batched execution).  ``state(i)`` materializes the
    scalar :class:`BusState` of one element.
    """

    demand_bytes_per_cycle: np.ndarray
    capacity_bytes_per_cycle: np.ndarray
    utilization: np.ndarray
    latency_stretch: np.ndarray
    transactions_per_cycle: np.ndarray

    def state(self, index: int) -> BusState:
        """The scalar :class:`BusState` of element ``index``."""
        return BusState(
            demand_bytes_per_cycle=float(self.demand_bytes_per_cycle[index]),
            capacity_bytes_per_cycle=float(self.capacity_bytes_per_cycle[index]),
            utilization=float(self.utilization[index]),
            latency_stretch=float(self.latency_stretch[index]),
            transactions_per_cycle=float(self.transactions_per_cycle[index]),
        )


class MemoryModel:
    """Queueing model of the shared front-side bus and DRAM.

    Parameters
    ----------
    topology:
        Machine description providing bus bandwidth and memory latency.
    max_stretch:
        Upper bound on the latency stretch factor; keeps the model finite
        when demand exceeds capacity (beyond saturation the system becomes
        throughput-bound, which the machine model captures by scaling
        delivered bandwidth).
    contention_onset:
        Utilization at which queueing delay starts to become noticeable.
        Below this point the bus is effectively uncontended.
    snoop_penalty_per_requestor:
        Fractional loss of effective bus capacity for every *additional*
        active requestor beyond the first.  The QX6600 front-side bus is a
        snoopy bus: every memory transaction is snooped by every other bus
        agent, and arbitration overhead grows with the number of agents, so
        the bandwidth actually deliverable to the cores drops as more cores
        issue misses concurrently.  This term is what allows heavily
        bandwidth-bound codes (IS in the paper) to run *slower* on four
        cores than on one.
    row_conflict_penalty:
        Additional latency multiplier per extra concurrent requestor at
        full utilization.  Independent access streams from different cores
        interleave badly in the DRAM banks (row-buffer conflicts) and on
        the shared bus (arbitration), so the *same* utilization costs more
        per access when it is produced by four cores than by one.
    """

    def __init__(
        self,
        topology: Topology,
        max_stretch: float = 12.0,
        contention_onset: float = 0.40,
        snoop_penalty_per_requestor: float = 0.08,
        row_conflict_penalty: float = 0.30,
    ) -> None:
        if max_stretch < 1.0:
            raise ValueError("max_stretch must be >= 1")
        if not 0.0 <= contention_onset < 1.0:
            raise ValueError("contention_onset must be in [0, 1)")
        if not 0.0 <= snoop_penalty_per_requestor < 0.5:
            raise ValueError("snoop_penalty_per_requestor must be in [0, 0.5)")
        if row_conflict_penalty < 0:
            raise ValueError("row_conflict_penalty must be non-negative")
        self.topology = topology
        self.max_stretch = max_stretch
        self.contention_onset = contention_onset
        self.snoop_penalty_per_requestor = snoop_penalty_per_requestor
        self.row_conflict_penalty = row_conflict_penalty

    # ------------------------------------------------------------------
    def unloaded_latency_cycles(self, frequency_ghz: float | None = None) -> float:
        """Unloaded off-chip access latency in core cycles."""
        return self.topology.memory_latency_cycles(frequency_ghz)

    def capacity_bytes_per_cycle(self, frequency_ghz: float | None = None) -> float:
        """Peak bus capacity in bytes per core cycle."""
        return self.topology.bus_bytes_per_cycle(frequency_ghz)

    def latency_stretch(self, utilization: float, active_requestors: int = 1) -> float:
        """Latency multiplier for a given bus utilization.

        Uses an M/M/1-like ``1/(1-rho)`` law shifted so that utilizations
        below :attr:`contention_onset` incur no penalty and capped at
        :attr:`max_stretch`, then multiplied by a row-conflict factor that
        grows with the number of concurrently active requestors (independent
        access streams interleave badly in the DRAM banks).
        """
        rho = min(max(utilization, 0.0), 0.999)
        extra = max(0, active_requestors - 1)
        conflict = 1.0 + self.row_conflict_penalty * extra * rho
        if rho <= self.contention_onset:
            return conflict
        effective = (rho - self.contention_onset) / (1.0 - self.contention_onset)
        stretch = 1.0 / max(1e-3, (1.0 - effective))
        return min(self.max_stretch, stretch) * conflict

    def latency_stretch_batch(
        self, utilization: np.ndarray, active_requestors: np.ndarray
    ) -> np.ndarray:
        """Array-shaped :meth:`latency_stretch`, broadcasting both inputs.

        Mirrors the scalar formula operation for operation; inputs are
        assumed valid (the machine layer produces them).
        """
        rho = np.minimum(np.maximum(utilization, 0.0), 0.999)
        extra = np.maximum(0.0, np.asarray(active_requestors, dtype=np.float64) - 1.0)
        conflict = 1.0 + self.row_conflict_penalty * extra * rho
        effective = (rho - self.contention_onset) / (1.0 - self.contention_onset)
        stretch = 1.0 / np.maximum(1e-3, 1.0 - effective)
        return np.where(
            rho <= self.contention_onset,
            conflict,
            np.minimum(self.max_stretch, stretch) * conflict,
        )

    def effective_capacity_bytes_per_cycle(
        self, active_requestors: int = 1, frequency_ghz: float | None = None
    ) -> float:
        """Bus capacity deliverable to the cores given snoop/arbitration load.

        Every requestor beyond the first costs
        :attr:`snoop_penalty_per_requestor` of the raw capacity (floored at
        half the raw capacity).
        """
        raw = self.capacity_bytes_per_cycle(frequency_ghz)
        extra = max(0, active_requestors - 1)
        factor = max(0.5, 1.0 - self.snoop_penalty_per_requestor * extra)
        return raw * factor

    def effective_capacity_bytes_per_cycle_batch(
        self, active_requestors: np.ndarray, frequency_ghz: np.ndarray
    ) -> np.ndarray:
        """Array-shaped :meth:`effective_capacity_bytes_per_cycle`."""
        raw = self.topology.bus_bandwidth_gbs / np.asarray(
            frequency_ghz, dtype=np.float64
        )
        extra = np.maximum(0.0, np.asarray(active_requestors, dtype=np.float64) - 1.0)
        factor = np.maximum(0.5, 1.0 - self.snoop_penalty_per_requestor * extra)
        return raw * factor

    def resolve_batch(
        self,
        demand_bytes_per_cycle: np.ndarray,
        frequency_ghz: np.ndarray,
        line_bytes: int,
        active_requestors: np.ndarray,
    ) -> BusStateBatch:
        """Array-shaped :meth:`resolve`: one bus state per array element."""
        capacity = self.effective_capacity_bytes_per_cycle_batch(
            active_requestors, frequency_ghz
        )
        demanded_util = np.where(
            capacity > 0,
            demand_bytes_per_cycle / np.where(capacity > 0, capacity, 1.0),
            0.0,
        )
        delivered_util = np.minimum(1.0, demanded_util)
        stretch = self.latency_stretch_batch(demanded_util, active_requestors)
        delivered_bytes = delivered_util * capacity
        return BusStateBatch(
            demand_bytes_per_cycle=np.asarray(demand_bytes_per_cycle, dtype=np.float64),
            capacity_bytes_per_cycle=capacity,
            utilization=delivered_util,
            latency_stretch=stretch,
            transactions_per_cycle=delivered_bytes / line_bytes,
        )

    def resolve(
        self,
        demand_bytes_per_cycle: float,
        frequency_ghz: float | None = None,
        line_bytes: int = 64,
        active_requestors: int = 1,
    ) -> BusState:
        """Resolve the bus state for a given aggregate traffic demand.

        Demand beyond capacity is clipped — the delivered utilization never
        exceeds 1 — but the latency stretch keeps growing with the *demanded*
        utilization so that over-subscription is penalized.

        Units: demand and the returned state are in bytes per core cycle at
        ``frequency_ghz``.  When there is no single core clock —
        heterogeneous per-core P-states — the machine model resolves at a
        1 GHz reference clock, which makes every quantity bytes (or
        transactions) *per nanosecond*; utilization and latency stretch are
        dimensionless either way, so the fixed point is unchanged.

        Parameters
        ----------
        active_requestors:
            Number of cores concurrently issuing off-chip traffic; degrades
            the effective capacity via the snoop penalty.
        """
        if demand_bytes_per_cycle < 0:
            raise ValueError("demand must be non-negative")
        capacity = self.effective_capacity_bytes_per_cycle(
            active_requestors, frequency_ghz
        )
        demanded_util = demand_bytes_per_cycle / capacity if capacity > 0 else 0.0
        delivered_util = min(1.0, demanded_util)
        stretch = self.latency_stretch(demanded_util, active_requestors)
        delivered_bytes = delivered_util * capacity
        return BusState(
            demand_bytes_per_cycle=demand_bytes_per_cycle,
            capacity_bytes_per_cycle=capacity,
            utilization=delivered_util,
            latency_stretch=stretch,
            transactions_per_cycle=delivered_bytes / line_bytes,
        )

    def effective_latency_cycles(
        self,
        utilization_or_state: float | BusState,
        prefetch_friendliness: float = 0.0,
        frequency_ghz: float | None = None,
        active_requestors: int = 1,
    ) -> float:
        """Effective per-miss latency in cycles given bus load.

        ``prefetch_friendliness`` (0..1) hides that fraction of the latency,
        modelling hardware prefetching and memory-level parallelism.
        """
        if isinstance(utilization_or_state, BusState):
            stretch = utilization_or_state.latency_stretch
        else:
            stretch = self.latency_stretch(
                float(utilization_or_state), active_requestors
            )
        base = self.unloaded_latency_cycles(frequency_ghz)
        exposed = max(0.0, 1.0 - prefetch_friendliness)
        # Hidden (prefetched/overlapped) misses still cost a small residual
        # per-miss occupancy; keeping this term small lets a single core with
        # a streaming access pattern approach the peak bus bandwidth, which
        # matches the behaviour of the hardware prefetchers on the platform.
        return base * stretch * exposed + base * (1.0 - exposed) * 0.05

    def effective_latency_cycles_grid(
        self,
        utilization: np.ndarray,
        prefetch_friendliness: np.ndarray,
        frequency_ghz: np.ndarray,
        active_requestors: np.ndarray,
    ) -> np.ndarray:
        """Array-shaped :meth:`effective_latency_cycles` (utilization form).

        Every argument is an array broadcast against the others —
        ``prefetch_friendliness`` carries one value per grid row — so a
        single call serves a phase × configuration grid of heterogeneous
        phases.  The remaining bus primitives (:meth:`latency_stretch_batch`,
        :meth:`resolve_batch`, :meth:`effective_capacity_bytes_per_cycle_batch`)
        are work-agnostic and broadcast over grid rows unchanged.
        """
        stretch = self.latency_stretch_batch(utilization, active_requestors)
        base = self.topology.memory_latency_ns * np.asarray(
            frequency_ghz, dtype=np.float64
        )
        exposed = np.maximum(
            0.0, 1.0 - np.asarray(prefetch_friendliness, dtype=np.float64)
        )
        return base * stretch * exposed + base * (1.0 - exposed) * 0.05
