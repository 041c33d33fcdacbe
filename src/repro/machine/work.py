"""Characterization of the work a parallel phase asks the machine to perform.

The simulator is an *analytical* performance model, not an instruction-level
simulator: a phase is described by its aggregate dynamic properties
(instruction count, instruction mix, locality, synchronization behaviour) and
the model derives per-configuration execution time, counter values and power
from those properties together with the machine topology.

These properties are exactly the knobs the paper identifies as responsible
for multicore scaling behaviour on the quad-core Xeon:

* L2 capacity pressure when tightly coupled cores share a 4 MB cache
  (destructive interference — e.g. IS runs 2.04x slower on configuration 2a
  than 2b),
* front-side-bus bandwidth saturation as concurrency grows
  (memory-bandwidth-bound codes stop scaling or degrade),
* serial fractions and synchronization overhead (Amdahl limits), and
* constructive sharing for phases whose threads genuinely share data
  (which can make tightly coupled placement preferable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Sequence

import numpy as np

__all__ = ["WorkRequest", "work_field_rows"]


@dataclass(frozen=True)
class WorkRequest:
    """Aggregate description of one invocation of a parallel phase.

    All rates are per-unit fractions unless stated otherwise.  A
    ``WorkRequest`` is immutable; use :meth:`scaled` or
    :func:`dataclasses.replace` to derive variants.

    Attributes
    ----------
    instructions:
        Total dynamic instructions executed by the phase, summed over all
        threads (the amount of work is fixed; concurrency divides it).
    mem_fraction:
        Fraction of instructions that access memory (loads + stores).
    flop_fraction:
        Fraction of instructions that are floating-point operations.
    branch_fraction:
        Fraction of instructions that are branches.
    l1_miss_rate:
        L1 data-cache misses per memory access (placement independent —
        the L1 is private and much smaller than any working set here).
    l2_miss_rate_solo:
        L2 misses per L1 miss when a thread enjoys an entire L2 cache
        (i.e. the miss ratio with no inter-thread capacity pressure).
    working_set_mb:
        Per-thread working set in MB; compared against the L2 capacity
        available to the thread to derive capacity pressure.
    locality_exponent:
        Governs how sharply the L2 miss ratio rises once the working set
        exceeds the available capacity; larger values model streaming
        access patterns with little reuse to recover.
    sharing_fraction:
        Fraction of the working set shared between threads.  Shared data
        is counted once per cache domain rather than once per thread, so
        phases with high sharing suffer less capacity pressure (and can
        even prefer tightly coupled placement).
    bandwidth_sensitivity:
        Scales the phase's exposure to front-side-bus queueing.  A value
        of 1.0 means the phase experiences the full queueing delay on
        every off-chip access; values below 1.0 model latency tolerance
        through memory-level parallelism and prefetching.
    serial_fraction:
        Fraction of the phase's instructions that execute serially on the
        master thread regardless of concurrency (Amdahl fraction).
    load_imbalance:
        Multiplier (>= 1) applied to the critical-path thread's share of
        the parallel work; 1.0 means perfectly balanced iterations.
    barriers:
        Number of barrier synchronizations executed by the phase.
    sync_cycles_per_barrier:
        Base cost of one barrier in cycles; the runtime adds a per-thread
        component on top of this.
    prefetch_friendliness:
        0..1; fraction of off-chip latency hidden by hardware prefetching
        and out-of-order execution for this phase's access pattern.
    base_cpi:
        Cycles per instruction of the phase's computation when every
        memory access hits in the L1 (captures ILP, FP latency, and
        pipeline effects unrelated to the memory system).
    """

    instructions: float
    mem_fraction: float = 0.35
    flop_fraction: float = 0.30
    branch_fraction: float = 0.10
    l1_miss_rate: float = 0.03
    l2_miss_rate_solo: float = 0.15
    working_set_mb: float = 8.0
    locality_exponent: float = 0.8
    sharing_fraction: float = 0.1
    bandwidth_sensitivity: float = 1.0
    serial_fraction: float = 0.01
    load_imbalance: float = 1.02
    barriers: int = 1
    sync_cycles_per_barrier: float = 2_000.0
    prefetch_friendliness: float = 0.3
    base_cpi: float = 0.55

    def __post_init__(self) -> None:
        # NaN passes every ordered comparison below (and JSON decoders
        # accept NaN and Infinity), so finiteness is checked first.
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.instructions <= 0:
            raise ValueError("instructions must be positive")
        for name in (
            "mem_fraction",
            "flop_fraction",
            "branch_fraction",
            "l1_miss_rate",
            "l2_miss_rate_solo",
            "sharing_fraction",
            "serial_fraction",
            "prefetch_friendliness",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")
        if self.working_set_mb <= 0:
            raise ValueError("working_set_mb must be positive")
        if self.locality_exponent < 0:
            raise ValueError("locality_exponent must be non-negative")
        if self.bandwidth_sensitivity < 0:
            raise ValueError("bandwidth_sensitivity must be non-negative")
        if self.load_imbalance < 1.0:
            raise ValueError("load_imbalance must be >= 1.0")
        if self.barriers < 0:
            raise ValueError("barriers must be non-negative")
        if self.sync_cycles_per_barrier < 0:
            raise ValueError("sync_cycles_per_barrier must be non-negative")
        if self.base_cpi <= 0:
            raise ValueError("base_cpi must be positive")

    # ------------------------------------------------------------------
    # convenience constructors / transforms
    # ------------------------------------------------------------------
    def scaled(self, instruction_factor: float) -> "WorkRequest":
        """Return a copy whose instruction count is scaled by ``factor``.

        Used by workloads to express per-timestep phase invocations whose
        work grows or shrinks with the problem size.
        """
        if instruction_factor <= 0:
            raise ValueError("instruction_factor must be positive")
        return replace(self, instructions=self.instructions * instruction_factor)

    def with_noise(self, rng, relative_sigma: float = 0.0) -> "WorkRequest":
        """Return a copy with multiplicative log-normal-ish jitter applied.

        Real phase instances vary slightly from timestep to timestep (input
        dependence, OS noise).  The workload layer uses this to produce
        realistic instance-to-instance variation; ``rng`` is a
        :class:`numpy.random.Generator`.
        """
        if relative_sigma <= 0:
            return self
        jitter = float(max(0.2, 1.0 + rng.normal(0.0, relative_sigma)))
        return replace(self, instructions=self.instructions * jitter)

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> tuple:
        """Stable value identity of the characterization.

        Two requests built independently with equal field values share
        cached noise-free executions in the machine's execution memo (see
        :meth:`repro.machine.Machine.execute_grid`).  Derived from the
        dataclass schema so a future field automatically becomes part of
        the identity — hand-listing fields here would silently alias memo
        cells across works that differ only in the new field.
        """
        return tuple(getattr(self, f.name) for f in fields(self))

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def memory_instructions(self) -> float:
        """Total memory-access instructions in the phase."""
        return self.instructions * self.mem_fraction

    @property
    def flop_instructions(self) -> float:
        """Total floating-point instructions in the phase."""
        return self.instructions * self.flop_fraction

    @property
    def branch_instructions(self) -> float:
        """Total branch instructions in the phase."""
        return self.instructions * self.branch_fraction

    def feature_dict(self) -> Dict[str, float]:
        """Return the characterization as a plain dictionary of floats."""
        return {
            "instructions": self.instructions,
            "mem_fraction": self.mem_fraction,
            "flop_fraction": self.flop_fraction,
            "branch_fraction": self.branch_fraction,
            "l1_miss_rate": self.l1_miss_rate,
            "l2_miss_rate_solo": self.l2_miss_rate_solo,
            "working_set_mb": self.working_set_mb,
            "locality_exponent": self.locality_exponent,
            "sharing_fraction": self.sharing_fraction,
            "bandwidth_sensitivity": self.bandwidth_sensitivity,
            "serial_fraction": self.serial_fraction,
            "load_imbalance": self.load_imbalance,
            "barriers": float(self.barriers),
            "sync_cycles_per_barrier": self.sync_cycles_per_barrier,
            "prefetch_friendliness": self.prefetch_friendliness,
            "base_cpi": self.base_cpi,
        }


def work_field_rows(
    works: Sequence[WorkRequest], work_rows: np.ndarray, attr: str
) -> np.ndarray:
    """One field of ``works`` gathered out to per-grid-row values.

    Returns ``[getattr(works[work_rows[i]], attr) for i]`` as a float64
    array — the canonical per-work-scalar → per-row gather shared by every
    grid kernel path (the machine kernel and the component ``*_grid``
    methods), so the convention lives in exactly one place.  Callers
    reshape with trailing singleton axes when broadcasting against
    thread-shaped arrays.
    """
    values = np.array([getattr(work, attr) for work in works], dtype=np.float64)
    return values[np.asarray(work_rows)]
