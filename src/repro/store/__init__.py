"""Durable shared stores for the simulation's cross-process caches.

Today this package holds one store: :class:`MemoStore`, the on-disk form
of the deterministic execution memo and the one channel through which it
is shared.  A directory of append-only delta segments over a compacted
base snapshot lets fleets of workers warm-start across process restarts,
runs and hosts:

* :mod:`repro.store.segments` — the length/checksum record framing that
  makes torn tails detectable (and recoverable by truncation);
* :mod:`repro.store.memo_store` — :class:`MemoStore` itself: lock-free
  ``seed`` replay, ``flock``-guarded atomic ``absorb``/``append``
  publication (``absorb`` drains the cells a machine simulated since its
  last publish, so a publish costs O(new cells)), and non-blocking
  ``compact`` — run for you in a single-flight background thread once a
  :class:`CompactionPolicy` threshold (segment count and/or replay bytes)
  is crossed, so writers never block on folding the log and callers never
  schedule compaction.

Consumers: ``run_cells(..., memo_store=...)`` seeds every cell — serial
or in a pool worker — from the store and publishes what it simulated,
``GridHandler(memo_store=...)`` gives a restarted adaptation server its
warm memo back, and ``Node``/``Fleet.attach_store`` do the same per
machine kind in the cluster.
"""

from .memo_store import CompactionPolicy, CompactionResult, MemoStore, MemoStoreInfo
from .segments import SegmentScan, pack_record, scan_segment, truncate_torn_tail

__all__ = [
    "CompactionPolicy",
    "CompactionResult",
    "MemoStore",
    "MemoStoreInfo",
    "SegmentScan",
    "pack_record",
    "scan_segment",
    "truncate_torn_tail",
]
