"""Per-core cycle-accounting (CPI) model.

Each core is modelled with a classic CPI stack: a base CPI capturing the
phase's instruction-level parallelism plus additive penalties for L1 misses
that hit in the L2 and for L2 misses that go off-chip.  The off-chip penalty
is the quantity that couples cores together — it depends on the shared-bus
latency stretch resolved by :class:`repro.machine.memory.MemoryModel` and on
the shared-cache miss ratio resolved by
:class:`repro.machine.caches.CacheModel` — so the full machine model iterates
between this module and those two until the penalties are self-consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .topology import CoreDescriptor
from .work import WorkRequest, work_field_rows

__all__ = ["CPIBreakdown", "CPIBreakdownBatch", "CPUModel"]


@dataclass(frozen=True)
class CPIBreakdown:
    """Decomposition of a thread's cycles per instruction.

    Attributes
    ----------
    base:
        CPI of the computation with a perfect memory system.
    l1_miss:
        CPI added by L1 misses served from the L2.
    l2_miss:
        CPI added by L2 misses served from memory (includes bus queueing).
    branch:
        CPI added by branch mispredictions.
    """

    base: float
    l1_miss: float
    l2_miss: float
    branch: float

    @property
    def total(self) -> float:
        """Total cycles per instruction."""
        return self.base + self.l1_miss + self.l2_miss + self.branch

    @property
    def ipc(self) -> float:
        """Instructions per cycle of the thread."""
        return 1.0 / self.total

    @property
    def stall_fraction(self) -> float:
        """Fraction of cycles spent stalled on the memory system."""
        return (self.l1_miss + self.l2_miss) / self.total

    @property
    def memory_cpi(self) -> float:
        """CPI contributed by the memory hierarchy (L1 + L2 misses)."""
        return self.l1_miss + self.l2_miss


@dataclass(frozen=True)
class CPIBreakdownBatch:
    """Array-shaped :class:`CPIBreakdown`: one CPI stack per array element.

    All components are NumPy arrays of a common broadcast shape (``base`` and
    ``branch`` may be scalars when the phase properties are uniform across
    the batch).  The derived quantities mirror the scalar properties
    operation for operation.
    """

    base: np.ndarray | float
    l1_miss: np.ndarray
    l2_miss: np.ndarray
    branch: np.ndarray | float

    @property
    def total(self) -> np.ndarray:
        """Total cycles per instruction."""
        return self.base + self.l1_miss + self.l2_miss + self.branch

    @property
    def ipc(self) -> np.ndarray:
        """Instructions per cycle of each thread."""
        return 1.0 / self.total

    @property
    def stall_fraction(self) -> np.ndarray:
        """Fraction of cycles spent stalled on the memory system."""
        return (self.l1_miss + self.l2_miss) / self.total

    @property
    def memory_cpi(self) -> np.ndarray:
        """CPI contributed by the memory hierarchy (L1 + L2 misses)."""
        return self.l1_miss + self.l2_miss


class CPUModel:
    """Analytic CPI model for one core executing one thread of a phase.

    Parameters
    ----------
    branch_misprediction_rate:
        Mispredictions per branch instruction.
    branch_penalty_cycles:
        Pipeline refill cost of one misprediction.
    l2_hit_exposed_fraction:
        Fraction of the L2 hit latency that out-of-order execution cannot
        hide for a typical scientific access pattern.
    """

    def __init__(
        self,
        branch_misprediction_rate: float = 0.02,
        branch_penalty_cycles: float = 14.0,
        l2_hit_exposed_fraction: float = 0.45,
    ) -> None:
        if not 0.0 <= branch_misprediction_rate <= 1.0:
            raise ValueError("branch_misprediction_rate must be in [0, 1]")
        if branch_penalty_cycles < 0:
            raise ValueError("branch_penalty_cycles must be non-negative")
        if not 0.0 <= l2_hit_exposed_fraction <= 1.0:
            raise ValueError("l2_hit_exposed_fraction must be in [0, 1]")
        self.branch_misprediction_rate = branch_misprediction_rate
        self.branch_penalty_cycles = branch_penalty_cycles
        self.l2_hit_exposed_fraction = l2_hit_exposed_fraction

    def breakdown(
        self,
        work: WorkRequest,
        core: CoreDescriptor,
        l2_miss_ratio: float,
        memory_latency_cycles: float,
        l2_hit_latency_cycles: float,
    ) -> CPIBreakdown:
        """Compute the CPI stack of one thread.

        Parameters
        ----------
        work:
            Phase characterization.
        core:
            Core executing the thread (provides L1 latency).
        l2_miss_ratio:
            L2 misses per L1 miss as resolved by the cache model for the
            thread's cache domain under the current placement.
        memory_latency_cycles:
            Effective off-chip latency (already including bus queueing and
            prefetch hiding) as resolved by the memory model.
        l2_hit_latency_cycles:
            Load-to-use latency of the thread's L2.
        """
        if l2_miss_ratio < 0 or l2_miss_ratio > 1:
            raise ValueError("l2_miss_ratio must be in [0, 1]")
        if memory_latency_cycles < 0:
            raise ValueError("memory_latency_cycles must be non-negative")

        l1_misses_per_instr = work.mem_fraction * work.l1_miss_rate
        l2_misses_per_instr = l1_misses_per_instr * l2_miss_ratio
        l2_hits_per_instr = l1_misses_per_instr * (1.0 - l2_miss_ratio)

        l1_component = (
            l2_hits_per_instr
            * max(0.0, l2_hit_latency_cycles - core.l1_hit_latency_cycles)
            * self.l2_hit_exposed_fraction
        )
        l2_component = (
            l2_misses_per_instr * memory_latency_cycles * work.bandwidth_sensitivity
        )
        branch_component = (
            work.branch_fraction
            * self.branch_misprediction_rate
            * self.branch_penalty_cycles
        )
        return CPIBreakdown(
            base=work.base_cpi,
            l1_miss=l1_component,
            l2_miss=l2_component,
            branch=branch_component,
        )

    def breakdown_grid(
        self,
        works: Sequence[WorkRequest],
        work_rows: np.ndarray,
        l2_miss_ratio: np.ndarray,
        memory_latency_cycles: np.ndarray,
        l2_hit_latency_cycles: np.ndarray,
        l1_hit_latency_cycles: np.ndarray,
    ) -> CPIBreakdownBatch:
        """Array-shaped :meth:`breakdown`: one CPI stack per grid element.

        ``works[work_rows[i]]`` characterizes row ``i`` of the array
        arguments (leading row axis, optional trailing thread axis).
        Per-work scalars become per-row columns; the arithmetic mirrors the
        scalar formula operation for operation so every element reproduces
        :meth:`breakdown` to floating-point accuracy.  Inputs are assumed
        valid — the grid path is fed by the machine model itself, which
        already range-checked the work request and the topology.
        ``memory_latency_cycles`` may be a per-row column *or* a full
        ``(rows, threads)`` matrix — the machine kernel passes per-thread
        latencies, since each core converts the same DRAM nanoseconds into
        its own clock's cycles.
        """
        l2_miss_ratio = np.asarray(l2_miss_ratio, dtype=np.float64)
        rows = np.asarray(work_rows)
        column_shape = (len(rows),) + (1,) * max(0, l2_miss_ratio.ndim - 1)

        def col(attr: str) -> np.ndarray:
            return work_field_rows(works, rows, attr).reshape(column_shape)

        l1_misses_per_instr = col("mem_fraction") * col("l1_miss_rate")
        l2_misses_per_instr = l1_misses_per_instr * l2_miss_ratio
        l2_hits_per_instr = l1_misses_per_instr * (1.0 - l2_miss_ratio)

        l1_component = (
            l2_hits_per_instr
            * np.maximum(0.0, l2_hit_latency_cycles - l1_hit_latency_cycles)
            * self.l2_hit_exposed_fraction
        )
        l2_component = (
            l2_misses_per_instr * memory_latency_cycles * col("bandwidth_sensitivity")
        )
        branch_component = (
            col("branch_fraction")
            * self.branch_misprediction_rate
            * self.branch_penalty_cycles
        )
        return CPIBreakdownBatch(
            base=col("base_cpi"),
            l1_miss=l1_component,
            l2_miss=l2_component,
            branch=branch_component,
        )

    def ipc(
        self,
        work: WorkRequest,
        core: CoreDescriptor,
        l2_miss_ratio: float,
        memory_latency_cycles: float,
        l2_hit_latency_cycles: float,
    ) -> float:
        """Convenience wrapper returning only the thread IPC."""
        return self.breakdown(
            work, core, l2_miss_ratio, memory_latency_cycles, l2_hit_latency_cycles
        ).ipc

    @staticmethod
    def rescale_breakdown(
        breakdown: CPIBreakdown, frequency_ratio: float
    ) -> CPIBreakdown:
        """First-order CPI stack at a different clock frequency.

        Off-chip latency is fixed in nanoseconds, so the L2-miss CPI
        component scales linearly with the clock (``frequency_ratio`` =
        new frequency / reference frequency), while the base, L1/L2 and
        branch components — all in core cycles within the package clock
        domain — are unchanged.  This is the analytic first-order view of
        why memory-bound phases lose little wall-clock time at a lower
        P-state; the full machine model additionally re-resolves bus
        contention at the new frequency.
        """
        if frequency_ratio <= 0:
            raise ValueError("frequency_ratio must be positive")
        return CPIBreakdown(
            base=breakdown.base,
            l1_miss=breakdown.l1_miss,
            l2_miss=breakdown.l2_miss * frequency_ratio,
            branch=breakdown.branch,
        )
