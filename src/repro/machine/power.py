"""Full-system power and energy model (the simulated "Watts Up Pro").

The paper measures *wall power* of the whole workstation with a Watts Up Pro
meter, so its power numbers include the idle platform (chipset, DRAM refresh,
disks, fans, power-supply losses) plus the CPU package and the off-chip
memory traffic.  The key qualitative observations the model must reproduce:

* total system power on four cores is ~14 % higher than on one core;
* applications that scale well show the largest power increases (their cores
  actually retire instructions), e.g. BT draws 1.31x more power on four cores;
* applications throttled by shared-cache or bus contention show little power
  growth — stalled cores clock-gate much of their logic;
* leaving cores idle saves core power, but moving threads can increase bus
  and DRAM activity, raising off-chip power (the paper's explanation for why
  average power does not drop under throttling).

The model is a linear composition of those components.  Default coefficients
are calibrated so the simulated platform idles near 105 W and peaks in the
150-165 W band, matching the ranges visible in the paper's Figure 3.

When a :class:`~repro.machine.dvfs.PState` accompanies an execution, the CPU
package components scale with the operating point: dynamic power as
``f·V²``, static (leakage) power with ``V``, while the platform floor and the
DRAM/bus power are unaffected (they live in their own clock/voltage domains).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Union

import numpy as np

from .dvfs import PState, PStateTable, default_pstate_table
from .topology import Topology

__all__ = [
    "PowerParameters",
    "PowerBreakdown",
    "PowerBreakdownBatch",
    "PowerModel",
    "dvfs_power_parameters",
]


@dataclass(frozen=True)
class PowerParameters:
    """Coefficients of the full-system power model (all in Watts).

    Attributes
    ----------
    platform_idle_watts:
        Power of everything outside the CPU package and DRAM activity:
        motherboard, disks, fans, PSU losses, DRAM refresh.
    core_idle_watts:
        Power of a core that carries no thread (deep clock gating).
    core_static_watts:
        Static/leakage power of a core that carries a thread, regardless
        of activity.
    core_dynamic_watts:
        Maximum dynamic power of a fully busy core (activity factor 1).
    l2_active_watts:
        Power of an L2 domain with at least one occupied core.
    uncore_active_watts:
        Front-side-bus interface and package uncore power when any core is
        active.
    memory_dynamic_watts:
        Maximum additional DRAM/FSB power at 100 % bus utilization.
    """

    platform_idle_watts: float = 105.0
    core_idle_watts: float = 1.5
    core_static_watts: float = 1.5
    core_dynamic_watts: float = 13.0
    l2_active_watts: float = 2.0
    uncore_active_watts: float = 3.0
    memory_dynamic_watts: float = 16.0


def dvfs_power_parameters() -> PowerParameters:
    """A CPU-dominated power profile for the DVFS-extension experiments.

    The paper-era wall measurement hides the CPU behind a ~105 W platform
    floor (disks, fans, PSU losses), which makes system-level ED² a pure
    race-to-idle: no P-state below nominal can ever pay for its extra
    seconds.  The DVFS follow-up line of work evaluates on platforms where
    the processor package dominates the controllable power (and reports
    processor-attributable power), so the frequency axis has real
    energy-delay leverage.  This profile models such a platform: a small
    platform floor and a package whose dynamic share is large enough that
    memory-bound phases profit from lower P-states while compute-bound
    phases still race to idle.
    """
    return PowerParameters(
        platform_idle_watts=45.0,
        core_idle_watts=1.0,
        core_static_watts=3.0,
        core_dynamic_watts=25.0,
        l2_active_watts=3.0,
        uncore_active_watts=5.0,
        memory_dynamic_watts=18.0,
    )


@dataclass(frozen=True)
class PowerBreakdown:
    """Per-component decomposition of system power for one phase execution."""

    platform_watts: float
    cores_watts: float
    caches_watts: float
    uncore_watts: float
    memory_watts: float
    components: Dict[str, float] = field(default_factory=dict)

    @property
    def total_watts(self) -> float:
        """Total wall power in Watts."""
        return (
            self.platform_watts
            + self.cores_watts
            + self.caches_watts
            + self.uncore_watts
            + self.memory_watts
        )


@dataclass(frozen=True)
class PowerBreakdownBatch:
    """Array-shaped :class:`PowerBreakdown`: one decomposition per element.

    ``per_thread_watts`` keeps the per-core component resolution of the
    scalar path: entry ``[i, t]`` is the power of the core carrying thread
    ``t`` of configuration ``i`` (masked threads are zero).
    """

    platform_watts: np.ndarray
    cores_watts: np.ndarray
    caches_watts: np.ndarray
    uncore_watts: np.ndarray
    memory_watts: np.ndarray
    per_thread_watts: np.ndarray

    @property
    def total_watts(self) -> np.ndarray:
        """Total wall power in Watts, per element."""
        return (
            self.platform_watts
            + self.cores_watts
            + self.caches_watts
            + self.uncore_watts
            + self.memory_watts
        )


class PowerModel:
    """Wall-power model of the simulated workstation.

    Parameters
    ----------
    topology:
        The machine; provides the number of cores and cache domains.
    parameters:
        Power coefficients; defaults are calibrated for the QX6600-like
        platform of the paper.
    pstate_table:
        DVFS operating points of the cores; the table's nominal state is
        the baseline the coefficients were calibrated at.
    """

    def __init__(
        self,
        topology: Topology,
        parameters: PowerParameters | None = None,
        pstate_table: PStateTable | None = None,
    ) -> None:
        self.topology = topology
        self.parameters = parameters or PowerParameters()
        self.pstate_table = pstate_table or default_pstate_table(
            topology.cores[0].frequency_ghz if topology.cores else 2.4
        )

    # ------------------------------------------------------------------
    def dvfs_scales(self, pstate: Optional[PState]) -> tuple[float, float]:
        """``(frequency_scale, voltage_scale)`` of a P-state vs nominal."""
        if pstate is None:
            return 1.0, 1.0
        nominal = self.pstate_table.nominal
        return pstate.frequency_scale(nominal), pstate.voltage_scale(nominal)

    # ------------------------------------------------------------------
    def core_activity_factor(self, thread_ipc: float, stall_fraction: float) -> float:
        """Activity factor (0..1) of a core running a thread.

        A core retiring instructions at high IPC switches more logic than a
        core that spends most cycles waiting on memory; we blend a
        throughput term (IPC relative to a realistic sustained peak of ~2)
        with the non-stalled fraction of cycles.
        """
        throughput_term = min(1.0, thread_ipc / 1.8)
        busy_term = max(0.0, 1.0 - stall_fraction)
        activity = 0.08 + 0.92 * (0.60 * throughput_term + 0.40 * busy_term)
        return min(1.0, activity)

    def idle_power_watts(self) -> float:
        """Wall power of the fully idle system."""
        p = self.parameters
        return p.platform_idle_watts + p.core_idle_watts * self.topology.num_cores

    def evaluate(
        self,
        occupied_cores: Sequence[int],
        thread_ipcs: Sequence[float],
        stall_fractions: Sequence[float],
        bus_utilization: float,
        pstate: Union[PState, Sequence[PState], None] = None,
    ) -> PowerBreakdown:
        """Compute the power draw during a phase execution.

        Parameters
        ----------
        occupied_cores:
            Core ids carrying a thread.
        thread_ipcs:
            Per-thread IPC, aligned with ``occupied_cores``.
        stall_fractions:
            Per-thread memory stall fraction, aligned with
            ``occupied_cores``.
        bus_utilization:
            Delivered front-side-bus utilization in [0, 1].
        pstate:
            DVFS operating point of the occupied cores; ``None`` means the
            nominal state.  Dynamic CPU-package power scales as ``f·V²``
            and static power with ``V``; platform and DRAM power do not
            scale (they sit in separate clock/voltage domains).  A
            *sequence* of P-states (one per occupied core, in order) scales
            each core by its own operating point; the shared cache/uncore
            domains — which run at a package-wide clock — scale by the
            arithmetic mean of the per-core dynamic scales.
        """
        if len(occupied_cores) != len(thread_ipcs) or len(occupied_cores) != len(
            stall_fractions
        ):
            raise ValueError("occupied_cores, thread_ipcs, stall_fractions must align")
        if not 0.0 <= bus_utilization <= 1.0:
            raise ValueError("bus_utilization must be in [0, 1]")
        p = self.parameters
        if pstate is not None and not isinstance(pstate, PState):
            pstates = tuple(pstate)
            if len(pstates) != len(occupied_cores):
                raise ValueError(
                    "per-core pstate sequence must align with occupied_cores"
                )
            scales = [self.dvfs_scales(s) for s in pstates]
            v_scales = [v for _, v in scales]
            dynamic_scales = [f * v ** 2 for f, v in scales]
            shared_dynamic_scale = sum(dynamic_scales) / len(dynamic_scales)
        else:
            f_scale, v_scale = self.dvfs_scales(pstate)
            dynamic_scale = f_scale * v_scale ** 2
            v_scales = [v_scale] * len(occupied_cores)
            dynamic_scales = [dynamic_scale] * len(occupied_cores)
            shared_dynamic_scale = dynamic_scale

        occupied = set(occupied_cores)
        idle_cores = [c for c in self.topology.core_ids() if c not in occupied]

        cores_watts = p.core_idle_watts * len(idle_cores)
        per_core: Dict[str, float] = {}
        for core_id, ipc, stall, v_scale_t, dynamic_scale_t in zip(
            occupied_cores, thread_ipcs, stall_fractions, v_scales, dynamic_scales
        ):
            activity = self.core_activity_factor(ipc, stall)
            watts = (
                p.core_static_watts * v_scale_t
                + p.core_dynamic_watts * activity * dynamic_scale_t
            )
            per_core[f"core{core_id}"] = watts
            cores_watts += watts

        active_caches = {
            self.topology.core(c).l2_cache_id for c in occupied_cores
        }
        caches_watts = p.l2_active_watts * len(active_caches) * shared_dynamic_scale
        uncore_watts = (
            p.uncore_active_watts * shared_dynamic_scale if occupied_cores else 0.0
        )
        memory_watts = p.memory_dynamic_watts * bus_utilization

        return PowerBreakdown(
            platform_watts=p.platform_idle_watts,
            cores_watts=cores_watts,
            caches_watts=caches_watts,
            uncore_watts=uncore_watts,
            memory_watts=memory_watts,
            components=per_core,
        )

    def evaluate_grid(
        self,
        thread_mask: np.ndarray,
        thread_ipcs: np.ndarray,
        stall_fractions: np.ndarray,
        bus_utilization: np.ndarray,
        active_cache_counts: np.ndarray,
        num_threads: np.ndarray,
        f_scale: np.ndarray,
        v_scale: np.ndarray,
        shared_dynamic_scale: np.ndarray,
    ) -> PowerBreakdownBatch:
        """Array-shaped :meth:`evaluate`: one power decomposition per row.

        Parameters
        ----------
        thread_mask:
            ``(rows, max_threads)`` boolean array marking real threads
            (rows are padded to the widest configuration of the grid).
        thread_ipcs, stall_fractions:
            Per-thread IPC and memory stall fraction, same shape as
            ``thread_mask``; padded entries are ignored.
        bus_utilization:
            Delivered front-side-bus utilization per row.
        active_cache_counts:
            Number of L2 domains with at least one occupied core, per row.
        num_threads:
            Occupied core count per row.
        f_scale, v_scale:
            ``(rows, max_threads)`` DVFS ``(frequency, voltage)`` scales of
            each thread's core (see :meth:`dvfs_scales`); each core's power
            scales by its own operating point.
        shared_dynamic_scale:
            Per-row ``f·V²`` scale of the shared cache/uncore domains, which
            run at a package-wide clock.  Callers compute it once per
            configuration, as :meth:`evaluate` does: the common state's own
            scale when all cores share one, otherwise the arithmetic mean of
            the active cores' dynamic scales.
        """
        p = self.parameters
        n = np.asarray(num_threads, dtype=np.float64)

        throughput_term = np.minimum(1.0, thread_ipcs / 1.8)
        busy_term = np.maximum(0.0, 1.0 - stall_fractions)
        activity = np.minimum(
            1.0, 0.08 + 0.92 * (0.60 * throughput_term + 0.40 * busy_term)
        )
        per_thread = (
            p.core_static_watts * v_scale
            + p.core_dynamic_watts * activity * (f_scale * v_scale ** 2)
        ) * thread_mask
        cores_watts = p.core_idle_watts * (self.topology.num_cores - n) + np.sum(
            per_thread, axis=1
        )
        caches_watts = (
            p.l2_active_watts * np.asarray(active_cache_counts, dtype=np.float64)
        ) * shared_dynamic_scale
        uncore_watts = np.where(
            n > 0, p.uncore_active_watts * shared_dynamic_scale, 0.0
        )
        memory_watts = p.memory_dynamic_watts * np.asarray(
            bus_utilization, dtype=np.float64
        )
        return PowerBreakdownBatch(
            platform_watts=np.full_like(cores_watts, p.platform_idle_watts),
            cores_watts=cores_watts,
            caches_watts=caches_watts,
            uncore_watts=uncore_watts,
            memory_watts=memory_watts,
            per_thread_watts=per_thread,
        )

    def energy_joules(self, power_watts: float, time_seconds: float) -> float:
        """Energy consumed at a constant power over an interval."""
        if time_seconds < 0:
            raise ValueError("time_seconds must be non-negative")
        return power_watts * time_seconds
