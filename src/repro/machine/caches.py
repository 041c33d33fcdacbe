"""Shared-cache contention model.

The dominant scaling pathology the paper observes on the quad-core Xeon is
destructive interference in the shared 4 MB L2 caches: when two threads with
large, mostly-private working sets are placed on tightly coupled cores, each
effectively sees half the cache, its L2 miss ratio rises, and the extra
misses both slow the thread down and saturate the front-side bus.

This module turns that mechanism into a small analytical model:

* each thread of a phase has a private working set of ``working_set_mb`` of
  which a ``sharing_fraction`` is shared with its siblings;
* the *effective footprint* on an L2 domain counts shared data once and
  private data once per occupant;
* when the footprint fits, the thread keeps its solo miss ratio; when it does
  not, the miss ratio rises towards 1.0 along a saturating exponential whose
  steepness is the phase's ``locality_exponent``.

The model is deliberately simple, smooth and monotone: the ACTOR predictor
only needs the *relative* ordering of configurations to be faithful to the
mechanisms, and a smooth model keeps the learning problem realistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from .placement import ThreadPlacement
from .topology import Topology
from .work import WorkRequest, work_field_rows

__all__ = ["CacheDomainLoad", "CacheModel"]


@dataclass(frozen=True)
class CacheDomainLoad:
    """Resolved cache behaviour of the threads on one L2 domain.

    Attributes
    ----------
    cache_id:
        L2 domain identifier.
    occupants:
        Number of phase threads placed on cores of this domain.
    footprint_mb:
        Effective aggregate footprint of the occupants (shared data counted
        once).
    pressure:
        ``footprint_mb / capacity_mb``; values above 1 indicate capacity
        contention.
    l2_miss_ratio:
        L2 misses per L1 miss experienced by each occupant of this domain.
    """

    cache_id: int
    occupants: int
    footprint_mb: float
    pressure: float
    l2_miss_ratio: float


class CacheModel:
    """Analytical model of private-L1 / shared-L2 behaviour.

    Parameters
    ----------
    topology:
        Machine description providing cache capacities and core-to-cache
        mapping.
    min_miss_ratio:
        Floor on the L2 miss ratio; even perfectly cache-resident phases
        exhibit some compulsory misses.
    max_miss_ratio:
        Ceiling on the L2 miss ratio under extreme pressure.
    """

    def __init__(
        self,
        topology: Topology,
        min_miss_ratio: float = 0.01,
        max_miss_ratio: float = 0.98,
    ) -> None:
        if not 0.0 < min_miss_ratio < max_miss_ratio <= 1.0:
            raise ValueError("require 0 < min_miss_ratio < max_miss_ratio <= 1")
        self.topology = topology
        self.min_miss_ratio = min_miss_ratio
        self.max_miss_ratio = max_miss_ratio

    # ------------------------------------------------------------------
    # footprint and miss-ratio primitives
    # ------------------------------------------------------------------
    def effective_footprint_mb(self, work: WorkRequest, occupants: int) -> float:
        """Aggregate footprint of ``occupants`` threads of ``work`` on one L2.

        Shared data (``sharing_fraction`` of each working set) is counted
        once for the whole domain; private data is counted per occupant.
        """
        if occupants <= 0:
            return 0.0
        shared = work.working_set_mb * work.sharing_fraction
        private = work.working_set_mb * (1.0 - work.sharing_fraction)
        return shared + private * occupants

    def miss_ratio(self, work: WorkRequest, capacity_mb: float, occupants: int) -> float:
        """L2 misses per L1 miss for a thread sharing ``capacity_mb`` with peers.

        With no capacity pressure the phase keeps its measured solo miss
        ratio.  Once the effective footprint exceeds capacity, the miss ratio
        climbs towards :attr:`max_miss_ratio` along
        ``1 - exp(-locality_exponent * (pressure - 1))``.
        """
        if capacity_mb <= 0:
            raise ValueError("capacity_mb must be positive")
        footprint = self.effective_footprint_mb(work, occupants)
        pressure = footprint / capacity_mb
        solo = min(max(work.l2_miss_rate_solo, self.min_miss_ratio), self.max_miss_ratio)
        if pressure <= 1.0:
            # Slight relief when the footprint is far below capacity: shared
            # lines of sibling threads can act as a prefetch for each other.
            relief = 1.0 - 0.15 * work.sharing_fraction * max(0, occupants - 1) * (1.0 - pressure)
            return max(self.min_miss_ratio, solo * max(relief, 0.5))
        overflow = pressure - 1.0
        growth = 1.0 - math.exp(-work.locality_exponent * overflow)
        ratio = solo + (self.max_miss_ratio - solo) * growth
        return min(self.max_miss_ratio, max(self.min_miss_ratio, ratio))

    def miss_ratio_grid(
        self,
        works: Sequence["WorkRequest"],
        work_rows: np.ndarray,
        capacity_mb: np.ndarray,
        occupants: np.ndarray,
    ) -> np.ndarray:
        """Array-shaped :meth:`miss_ratio`: one evaluation per grid element.

        ``works[work_rows[i]]`` characterizes row ``i`` of ``capacity_mb`` /
        ``occupants`` (whose leading axis is the row axis; a trailing thread
        axis is allowed).  Per-work scalars become per-row columns, and the
        arithmetic mirrors the scalar formula operation for operation so
        every element reproduces :meth:`miss_ratio` to floating-point
        accuracy.
        """
        capacity_mb = np.asarray(capacity_mb, dtype=np.float64)
        occupants = np.asarray(occupants, dtype=np.float64)
        rows = np.asarray(work_rows)
        column_shape = (len(rows),) + (1,) * max(0, capacity_mb.ndim - 1)

        def col(attr: str) -> np.ndarray:
            return work_field_rows(works, rows, attr).reshape(column_shape)

        working_set = col("working_set_mb")
        sharing = col("sharing_fraction")
        locality = col("locality_exponent")
        shared = working_set * sharing
        private = working_set * (1.0 - sharing)
        footprint = shared + private * occupants
        pressure = footprint / capacity_mb
        solo = np.minimum(
            np.maximum(col("l2_miss_rate_solo"), self.min_miss_ratio),
            self.max_miss_ratio,
        )
        relief = 1.0 - 0.15 * sharing * np.maximum(
            0.0, occupants - 1.0
        ) * (1.0 - pressure)
        fits = np.maximum(self.min_miss_ratio, solo * np.maximum(relief, 0.5))
        overflow = pressure - 1.0
        growth = 1.0 - np.exp(-locality * overflow)
        ratio = solo + (self.max_miss_ratio - solo) * growth
        spills = np.minimum(
            self.max_miss_ratio, np.maximum(self.min_miss_ratio, ratio)
        )
        return np.where(pressure <= 1.0, fits, spills)

    # ------------------------------------------------------------------
    # per-placement resolution
    # ------------------------------------------------------------------
    def domain_loads(
        self, work: WorkRequest, placement: ThreadPlacement
    ) -> Dict[int, CacheDomainLoad]:
        """Resolve cache behaviour for every L2 domain occupied by ``placement``."""
        loads: Dict[int, CacheDomainLoad] = {}
        for cache_id, cores in placement.sharers_by_cache(self.topology).items():
            capacity = self.topology.cache(cache_id).size_mb
            occupants = len(cores)
            footprint = self.effective_footprint_mb(work, occupants)
            loads[cache_id] = CacheDomainLoad(
                cache_id=cache_id,
                occupants=occupants,
                footprint_mb=footprint,
                pressure=footprint / capacity,
                l2_miss_ratio=self.miss_ratio(work, capacity, occupants),
            )
        return loads

    def per_thread_miss_ratios(
        self, work: WorkRequest, placement: ThreadPlacement
    ) -> List[float]:
        """Return the L2 miss ratio experienced by each thread of ``placement``.

        Thread ``i`` inherits the miss ratio of the domain holding its core.
        """
        loads = self.domain_loads(work, placement)
        ratios: List[float] = []
        for core in placement.cores:
            cache_id = self.topology.core(core).l2_cache_id
            ratios.append(loads[cache_id].l2_miss_ratio)
        return ratios

    def mean_miss_ratio(self, work: WorkRequest, placement: ThreadPlacement) -> float:
        """Average per-thread L2 miss ratio under ``placement``."""
        ratios = self.per_thread_miss_ratios(work, placement)
        return sum(ratios) / len(ratios)

    def l1_miss_ratio(self, work: WorkRequest) -> float:
        """L1 misses per memory access (placement independent)."""
        return min(1.0, max(0.0, work.l1_miss_rate))
