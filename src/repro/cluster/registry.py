"""Fleet membership: the named nodes a scheduler places work on.

The datacenter layer treats machines the way a provisioning system does:
nodes are *registered* objects with identity, looked up by name, joining
and leaving at runtime — not an ad-hoc list threaded through call sites.
:class:`Fleet` holds the name → :class:`~repro.cluster.Node` mapping with
strict registration semantics (duplicate names and unknown lookups are
errors, membership changes are explicit) and layers the
physical-aggregate view on top: total idle floor, deterministic iteration
order, and durable per-kind memo stores shared across nodes of identical
machine parameterization.

Iteration order everywhere is **sorted by node name**, never insertion
order, so a fleet assembled join-by-join and the same fleet built in one
shot schedule identically — bit-reproducibility must survive membership
churn.
"""

from __future__ import annotations

import pathlib
from typing import Dict, Iterator, List, Optional, Union

from ..store.memo_store import CompactionPolicy, MemoStore
from .node import Node

__all__ = ["Fleet"]


class Fleet:
    """N heterogeneous nodes under one roof.

    Parameters
    ----------
    nodes:
        Initial membership; more may :meth:`add` (join) or
        :meth:`remove` (leave/fail) at any time.
    """

    def __init__(self, nodes: Optional[List[Node]] = None) -> None:
        self._nodes: Dict[str, Node] = {}
        self._store_root: Optional[pathlib.Path] = None
        self._store_policy: Optional[CompactionPolicy] = None
        self._stores: Dict[str, MemoStore] = {}
        for node in nodes or []:
            self.add(node)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add(self, node: Node) -> Node:
        """Node join.  Attaches the fleet's store (if any) for its kind.

        A duplicate name is an error, not an overwrite.
        """
        if node.name in self._nodes:
            raise ValueError(f"node {node.name!r} is already registered")
        self._nodes[node.name] = node
        if self._store_root is not None and node.memo_store is None:
            node.attach_store(self._store_for(node.kind))
        return node

    def remove(self, name: str) -> Node:
        """Node leave (or failure); the node object is returned intact."""
        node = self.node(name)
        del self._nodes[name]
        return node

    def node(self, name: str) -> Node:
        """The node called ``name``."""
        try:
            return self._nodes[name]
        except KeyError:
            raise KeyError(
                f"no node {name!r} registered; known: {self.names()}"
            ) from None

    def names(self) -> List[str]:
        """Member names, sorted."""
        return sorted(self._nodes)

    def nodes(self) -> List[Node]:
        """Member nodes in sorted-name order."""
        return [self._nodes[name] for name in self.names()]

    def __contains__(self, name: object) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        """Nodes in sorted-name order (deterministic under churn)."""
        return iter(self.nodes())

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    def idle_power_watts(self) -> float:
        """The fleet's power floor: every node empty, summed in name order."""
        return sum(node.idle_power_watts() for node in self)

    def kinds(self) -> List[str]:
        """Distinct machine kinds present, sorted."""
        return sorted({node.kind for node in self})

    # ------------------------------------------------------------------
    # durable memo sharing
    # ------------------------------------------------------------------
    def attach_store(
        self,
        root: Union[str, pathlib.Path],
        policy: Optional[CompactionPolicy] = None,
    ) -> None:
        """Back every node's execution memo with durable per-kind stores.

        Memo cells are keyed by work/placement/P-state only — machine
        parameters are not part of the key — so cells are shared *within*
        a machine kind and never across kinds: each distinct
        :attr:`Node.kind` gets its own store directory under ``root``.
        Nodes joining later inherit the store for their kind
        automatically.
        """
        self._store_root = pathlib.Path(root)
        self._store_policy = policy
        for node in self:
            if node.memo_store is None:
                node.attach_store(self._store_for(node.kind))

    def _store_for(self, kind: str) -> MemoStore:
        store = self._stores.get(kind)
        if store is None:
            assert self._store_root is not None
            store = MemoStore(self._store_root / kind, policy=self._store_policy)
            self._stores[kind] = store
        return store

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Fleet({self.names()})"
