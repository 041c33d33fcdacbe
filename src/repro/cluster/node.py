"""A named machine inside a fleet.

A :class:`Node` wraps one simulated :class:`~repro.machine.Machine` —
topology, P-state table and power profile travel with the machine — and
adds the fleet-level concerns the single-node library has no word for:

* a **name**, the registry key the :class:`~repro.cluster.Fleet` and the
  scheduler address it by;
* a **candidate configuration space** (placement × P-state operating
  points) the scheduler is allowed to pick from on this node;
* **traits**: a straggler factor (uniform execution-time inflation
  modelling a slow or thermally limited box) that the scheduler observes
  through the sweep, so placement naturally routes work away from slow
  nodes;
* an optional durable :class:`~repro.store.MemoStore` backing the
  machine's execution memo, in the style of
  :class:`~repro.service.GridHandler`: the node seeds its machine from
  the store when attached and publishes each sweep's freshly simulated
  cells through :meth:`~repro.store.MemoStore.absorb`.

The one compute entry point is :meth:`Node.sweep` — a single memo-backed
:meth:`~repro.machine.Machine.execute_grid` launch over *all* candidate
jobs × *all* candidate configurations.  Everything the fleet scheduler
decides is derived from that one deterministic array program.

Execution-memo cells are keyed by ``(work fingerprint, placement,
P-state)`` only — machine parameters are **not** part of the key — so
nodes may share a store (or memo snapshots) *only* with machines of the
same parameterization.  :attr:`Node.kind` is the deterministic label of
that parameterization; :meth:`Fleet.attach_store` uses it to give every
distinct machine kind its own store directory.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..machine.machine import GridExecutionResult, Machine
from ..machine.placement import Configuration
from ..machine.work import WorkRequest
from ..store.memo_store import MemoStore

__all__ = ["Node", "NodeSweep"]


def _slug(text: str) -> str:
    """Filesystem-safe lowercase token of an arbitrary label."""
    return re.sub(r"[^a-z0-9.]+", "-", text.lower()).strip("-")


@dataclass(frozen=True)
class NodeSweep:
    """One node's operating-point surface over a set of jobs.

    Attributes
    ----------
    node:
        The swept node.
    grid:
        The raw :class:`~repro.machine.machine.GridExecutionResult`
        (``(W, C)`` metric arrays) of the underlying machine.
    time_seconds:
        ``(W, C)`` per-invocation wall times **with the node's straggler
        factor applied** — the times the scheduler must plan with.
    power_watts:
        ``(W, C)`` total power draw while executing each cell.  Straggling
        stretches time, not power, so this is the grid's array unchanged.
    """

    node: "Node"
    grid: GridExecutionResult
    time_seconds: np.ndarray
    power_watts: np.ndarray

    @property
    def configurations(self) -> List[Configuration]:
        return self.grid.configurations

    def names(self) -> List[str]:
        return self.grid.names()


class Node:
    """A named machine with fleet traits and optional durable memo backing.

    Parameters
    ----------
    name:
        Registry key, unique within a fleet.
    machine:
        The simulated platform; a deterministic default machine when
        omitted.  A noisy machine is accepted, but :meth:`sweep` — the
        scheduling path — requires ``noise_sigma == 0`` so fleet decisions
        stay bit-reproducible.
    configurations:
        Candidate operating points the scheduler may pick on this node;
        defaults to :meth:`~repro.machine.Machine.default_configurations`.
    straggler_factor:
        Uniform execution-time inflation (``>= 1``); ``1.0`` means a
        healthy node.  Mutable — scenarios flip it mid-run.
    memo_store:
        Optional durable store; equivalent to calling
        :meth:`attach_store` after construction.
    """

    def __init__(
        self,
        name: str,
        machine: Optional[Machine] = None,
        configurations: Optional[Sequence[Configuration]] = None,
        straggler_factor: float = 1.0,
        memo_store: Optional[MemoStore] = None,
    ) -> None:
        if not name or not isinstance(name, str):
            raise ValueError("a node needs a non-empty string name")
        self.name = name
        self.machine = machine or Machine(noise_sigma=0.0)
        self.configurations = list(
            configurations or self.machine.default_configurations()
        )
        if not self.configurations:
            raise ValueError(f"node {name!r} has an empty configuration space")
        self.straggler_factor = straggler_factor
        self.memo_store: Optional[MemoStore] = None
        self._sweep_cache: Optional[tuple] = None
        if memo_store is not None:
            self.attach_store(memo_store)

    # ------------------------------------------------------------------
    @property
    def straggler_factor(self) -> float:
        return self._straggler_factor

    @straggler_factor.setter
    def straggler_factor(self, factor: float) -> None:
        factor = float(factor)
        if not factor >= 1.0:
            raise ValueError(
                f"straggler_factor must be >= 1.0, got {factor!r} "
                f"(a node cannot be faster than its machine model)"
            )
        self._straggler_factor = factor

    @property
    def kind(self) -> str:
        """Deterministic label of the machine parameterization.

        Memo cells are keyed by work/placement/P-state only, so only
        machines of identical kind may share a memo store.  The label
        folds in the topology name and size and the P-state frequency
        ladder — the parameters that shape simulated cell values.
        """
        topology = self.machine.topology
        freqs = "+".join(
            f"{state.frequency_ghz:g}" for state in self.machine.pstate_table.states
        )
        return f"{_slug(topology.name)}-{len(topology.cores)}c-{freqs}ghz"

    def idle_power_watts(self) -> float:
        """Power this node draws when the scheduler leaves it empty."""
        return self.machine.idle_power_watts()

    # ------------------------------------------------------------------
    def attach_store(self, store: MemoStore) -> None:
        """Back the machine's execution memo with a durable store.

        Seeds the machine from the store immediately (a rebuilt fleet
        answers previously swept jobs from disk, bit-identically) and
        arranges for :meth:`sweep` to publish every cell the machine has
        simulated since its last publish — cells simulated before the
        store was attached included — as delta segments.
        """
        store.seed(self.machine)
        self.memo_store = store

    # ------------------------------------------------------------------
    def sweep(self, works: Sequence[WorkRequest]) -> NodeSweep:
        """Evaluate every job × every candidate configuration at once.

        One memo-backed :meth:`~repro.machine.Machine.execute_grid`
        launch; repeated sweeps over previously seen jobs are pure memo
        (or store) hits.  Freshly simulated cells are published to the
        attached store before the sweep is returned, so no schedule is
        ever derived from state that could be lost on a crash.

        The most recent sweep is cached by job fingerprints and straggler
        factor: re-planning the *same* job stream under a different power
        cap (a cap sweep, a scenario's cap step) reuses the grid result
        without even touching the memo.  Grid cells are immutable once
        simulated, so the cache can never serve stale values.
        """
        if self.machine.noise_sigma > 0:
            raise ValueError(
                f"node {self.name!r} needs a noise-free machine to serve fleet "
                f"sweeps: decisions must be deterministic and memoizable "
                f"(use Machine(noise_sigma=0.0))"
            )
        works = list(works)
        cache_key = (
            tuple(work.fingerprint() for work in works),
            self._straggler_factor,
        )
        if self._sweep_cache is not None and self._sweep_cache[0] == cache_key:
            return self._sweep_cache[1]
        grid = self.machine.execute_grid(works, self.configurations)
        if self.memo_store is not None:
            self.memo_store.absorb(self.machine)
        times = grid.metric("time_seconds")
        if self._straggler_factor != 1.0:
            times = times * self._straggler_factor
        sweep = NodeSweep(
            node=self,
            grid=grid,
            time_seconds=times,
            power_watts=grid.metric("power_watts"),
        )
        self._sweep_cache = (cache_key, sweep)
        return sweep

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        straggler = (
            f", straggler x{self._straggler_factor:g}"
            if self._straggler_factor != 1.0
            else ""
        )
        return (
            f"Node({self.name!r}, kind={self.kind!r}, "
            f"{len(self.configurations)} configurations{straggler})"
        )
