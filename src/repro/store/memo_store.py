"""A durable, multi-process execution-memo store: segment log + compaction.

:class:`MemoStore` is the one channel through which execution-memo cells
are shared and persisted: across the processes of a sweep, across server
and fleet restarts, and across hosts.  It is a thin durability layer over
the schema-fingerprinted
:class:`~repro.machine.machine.ExecutionMemoSnapshot` — the store never
interprets cells, it only replays snapshots in publication order.
:meth:`MemoStore.seed` merges them into a machine, and
:meth:`MemoStore.absorb` publishes the cells a machine simulated since its
last drain (:meth:`~repro.machine.Machine.drain_new_cells`) — O(new
cells), whatever the size of the memo.

Directory layout (all files framed by :mod:`repro.store.segments`)::

    store/
      base-00000007.seg      # compacted snapshot covering sequence <= 7
      segment-00000008.seg   # one appended delta, published atomically
      segment-00000009.seg
      .lock                  # advisory flock taken by writers, never readers

Concurrency contract:

* **Writers** (:meth:`MemoStore.absorb` / :meth:`MemoStore.append`,
  :meth:`MemoStore.compact`) hold an advisory ``flock`` on ``.lock``
  around sequence-number allocation and file publication, so concurrent
  processes never claim the same segment name and compaction never races
  an append.
* **Readers** (:meth:`MemoStore.seed`) take no lock.  Every file is
  published complete via ``tempfile + os.replace``, so a reader only ever
  sees whole files; if compaction unlinks a segment mid-scan the reader
  re-lists and retries (the folded cells are covered by the newer base,
  and merges are first-wins idempotent).
* **Recovery**: a segment whose tail is torn (crash, partial copy,
  truncated write) is detected by the per-record length/checksum framing;
  the reader truncates the file back to its last complete record under
  the lock and counts the repair — only the torn record is lost.
* **Cross-revision safety**: records carrying a different memo schema
  fingerprint (written by an older or newer code revision) are *skipped
  with a logged count*, exactly matching
  :meth:`~repro.machine.Machine.merge_execution_memo`'s stale-snapshot
  rejection — never silently merged into an incompatible key space.
"""

from __future__ import annotations

import logging
import os
import pickle
import re
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

try:  # advisory locking is POSIX-only; the store degrades gracefully
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

# The schema fingerprint is deliberately private to repro.machine — the
# store reuses it verbatim so "stale" means exactly what merge_execution_memo
# rejects, with no second source of truth.
from ..machine.machine import ExecutionMemoSnapshot, Machine, _memo_schema
from .segments import pack_record, scan_segment, truncate_torn_tail

__all__ = ["CompactionPolicy", "CompactionResult", "MemoStore", "MemoStoreInfo"]

logger = logging.getLogger(__name__)

_FILE_RE = re.compile(r"^(base|segment)-(\d{8})\.seg$")
_LOCK_NAME = ".lock"


class _Entry(NamedTuple):
    """One store file: its kind, sequence number and path."""

    kind: str
    seq: int
    path: Path


class _SegmentRead(NamedTuple):
    """One replayed file: its usable snapshots plus skip accounting."""

    entry: _Entry
    fresh: Tuple[ExecutionMemoSnapshot, ...]
    stale: int
    corrupt: int


@dataclass(frozen=True)
class CompactionPolicy:
    """When should a store fold its segment log in the background?

    Replay cost — what every restarting reader pays in :meth:`MemoStore.seed`
    — grows with the number of live segment files and the bytes they hold.
    A policy bounds that growth: after each :meth:`MemoStore.append` /
    :meth:`MemoStore.absorb` the store checks the on-disk pressure against
    these thresholds and, when either is crossed, runs
    :meth:`MemoStore.compact` in a single-flight background thread —
    callers never invoke ``compact()`` themselves.

    Parameters
    ----------
    max_segment_files:
        Compact once this many un-compacted segment files are replayable
        (``None`` disables the count trigger).
    max_replay_bytes:
        Compact once the replayable byte volume — latest base plus the
        segments above it — crosses this bound (``None`` disables it).

    At least one threshold must be set.
    """

    max_segment_files: Optional[int] = 8
    max_replay_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_segment_files is None and self.max_replay_bytes is None:
            raise ValueError(
                "CompactionPolicy needs at least one threshold: set "
                "max_segment_files and/or max_replay_bytes"
            )
        if self.max_segment_files is not None and self.max_segment_files < 1:
            raise ValueError("max_segment_files must be >= 1")
        if self.max_replay_bytes is not None and self.max_replay_bytes < 1:
            raise ValueError("max_replay_bytes must be >= 1")

    def should_compact(self, segment_files: int, replay_bytes: int) -> bool:
        """Whether the observed replay pressure crosses either threshold."""
        if (
            self.max_segment_files is not None
            and segment_files >= self.max_segment_files
        ):
            return True
        return (
            self.max_replay_bytes is not None
            and replay_bytes >= self.max_replay_bytes
        )


@dataclass(frozen=True)
class MemoStoreInfo:
    """Cheap stats of a store: on-disk shape plus this process's counters."""

    directory: str
    base_seq: Optional[int]
    segment_files: int
    replay_bytes: int
    segments_replayed: int
    cells_appended: int
    stale_records_skipped: int
    corrupt_records_skipped: int
    torn_tails_truncated: int
    compactions_triggered: int
    compaction_errors: int

    def as_dict(self) -> Dict[str, object]:
        """Plain JSON-able dict (for metrics surfaces and bench artifacts)."""
        return {
            "directory": self.directory,
            "base_seq": -1 if self.base_seq is None else self.base_seq,
            "segment_files": self.segment_files,
            "replay_bytes": self.replay_bytes,
            "segments_replayed": self.segments_replayed,
            "cells_appended": self.cells_appended,
            "stale_records_skipped": self.stale_records_skipped,
            "corrupt_records_skipped": self.corrupt_records_skipped,
            "torn_tails_truncated": self.torn_tails_truncated,
            "compactions_triggered": self.compactions_triggered,
            "compaction_errors": self.compaction_errors,
        }


@dataclass(frozen=True)
class CompactionResult:
    """Outcome of one :meth:`MemoStore.compact` call."""

    folded_files: int
    cells: int
    base_path: Optional[Path]
    removed_files: Tuple[str, ...]
    kept_stale_files: int

    @property
    def noop(self) -> bool:
        """Whether there was nothing to fold."""
        return self.folded_files == 0


class MemoStore:
    """Durable shared execution-memo store over a directory.

    Parameters
    ----------
    directory:
        Store directory; created (with parents) when missing.  Many
        processes — on many hosts, given a shared filesystem with working
        advisory locks — may point at the same directory.
    policy:
        Optional :class:`CompactionPolicy`.  When set, every
        :meth:`append` / :meth:`absorb` re-checks the on-disk replay
        pressure and, past a threshold, folds the log via :meth:`compact`
        in a **single-flight background thread** — writers return
        immediately and no caller ever needs to invoke ``compact()``.
        Background failures are logged and counted
        (``compaction_errors``), never raised into the writer.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        policy: Optional[CompactionPolicy] = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.policy = policy
        self.segments_replayed = 0
        self.cells_appended = 0
        self.stale_records_skipped = 0
        self.corrupt_records_skipped = 0
        self.torn_tails_truncated = 0
        self.compactions_triggered = 0
        self.compaction_errors = 0
        # flock treats every open file description as a distinct owner, even
        # within one process — so _locked() must be reentrant per instance
        # (compact() holds the lock while torn-tail repair re-enters it) and
        # must serialize threads sharing this instance before touching flock.
        self._lock_mutex = threading.RLock()
        self._flock_depth = 0
        # Single-flight guard of the background compaction thread.
        self._compaction_mutex = threading.Lock()
        self._compaction_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # reading: seed
    # ------------------------------------------------------------------
    def seed(self, machine: Machine) -> int:
        """Replay base + segments, in order, into ``machine``'s memo.

        Returns how many cells were actually new to the machine.  Torn
        tails are repaired (truncated to the last complete record),
        stale-schema and unreadable records are skipped with a logged
        count — the cross-process counters on this store instance
        (:meth:`info`) accumulate all three.
        """
        added = 0
        for read in self._read_all():
            self.segments_replayed += 1
            for snapshot in read.fresh:
                added += machine.merge_execution_memo(snapshot)
        return added

    # ------------------------------------------------------------------
    # writing: absorb / append
    # ------------------------------------------------------------------
    def absorb(self, machine: Machine) -> int:
        """Publish the cells ``machine`` simulated since its last drain.

        Drains the machine's journal of new cells
        (:meth:`~repro.machine.Machine.drain_new_cells`) and appends it as
        one segment; cells the machine was seeded with are never in the
        journal, so they are never republished.  An empty journal
        publishes nothing and returns 0.  If the append raises, the
        drained cells stay in the machine's memo but are not offered to a
        later ``absorb``: a restarted reader simulates them again.
        """
        snapshot = machine.drain_new_cells()
        if len(snapshot) == 0:
            return 0
        return self.append(snapshot)

    def append(self, snapshot: ExecutionMemoSnapshot) -> int:
        """Publish one snapshot as a new segment; returns its cell count.

        The segment name is allocated and the file published while holding
        the store's advisory lock, via a same-directory temp file and
        ``os.replace`` — concurrent writers never collide and readers
        never observe a partial file.
        """
        expected = _memo_schema()
        if snapshot.schema != expected:
            raise ValueError(
                "refusing to append a stale execution-memo snapshot: "
                f"fingerprint schema {snapshot.schema!r} does not match "
                f"this revision's {expected!r}"
            )
        if len(snapshot) == 0:
            return 0
        record = pack_record(
            pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
        )
        with self._locked():
            seq = self._next_seq()
            self._publish(record, self.directory / f"segment-{seq:08d}.seg")
        self.cells_appended += len(snapshot)
        self.maybe_compact()
        return len(snapshot)

    # ------------------------------------------------------------------
    # store-driven background compaction
    # ------------------------------------------------------------------
    def maybe_compact(self) -> bool:
        """Check the policy and kick off a background compaction if due.

        Called automatically after every :meth:`append` / :meth:`absorb`;
        public so long-lived readers (or periodic janitors) can also poll
        store pressure.  Single-flight: while one background compaction is
        running, further triggers are no-ops — the running pass will fold
        whatever has been published by the time it lists the directory.
        Returns whether a new background pass was started.
        """
        if self.policy is None:
            return False
        segment_files, replay_bytes = self._replay_shape()
        if not self.policy.should_compact(segment_files, replay_bytes):
            return False
        with self._compaction_mutex:
            if (
                self._compaction_thread is not None
                and self._compaction_thread.is_alive()
            ):
                return False
            thread = threading.Thread(
                target=self._background_compact,
                name=f"repro-memo-compaction-{self.directory.name}",
                daemon=True,
            )
            self._compaction_thread = thread
            thread.start()
        return True

    def wait_for_compaction(self, timeout: Optional[float] = None) -> bool:
        """Block until any in-flight background compaction finishes.

        Returns ``False`` when the thread is still alive after ``timeout``
        seconds.  Tests and benches use this to assert post-compaction
        invariants without sleeping.
        """
        with self._compaction_mutex:
            thread = self._compaction_thread
        if thread is None or not thread.is_alive():
            return True
        thread.join(timeout)
        return not thread.is_alive()

    def _background_compact(self) -> None:
        self.compactions_triggered += 1
        try:
            self.compact()
        except Exception:
            # A failed background pass must not poison the writer that
            # triggered it; the segments it would have folded stay on disk
            # and the next trigger retries.
            self.compaction_errors += 1
            logger.exception(
                "memo store %s: background compaction failed", self.directory
            )

    def _replay_shape(self) -> Tuple[int, int]:
        """Current replay pressure: (replayable segment files, replay bytes).

        Replay bytes cover everything a fresh :meth:`seed` must read — the
        latest base plus the segments above it.  Files racing an unlink
        (a concurrent compaction) count as zero bytes.
        """
        bases, segments = self._list_entries()
        base_seq = bases[-1].seq if bases else None
        replayable = [s for s in segments if base_seq is None or s.seq > base_seq]
        paths = ([bases[-1].path] if bases else []) + [s.path for s in replayable]
        replay_bytes = 0
        for path in paths:
            try:
                replay_bytes += os.path.getsize(path)
            except OSError:
                continue
        return len(replayable), replay_bytes

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def compact(self, drop_stale: bool = False) -> CompactionResult:
        """Fold base + segments into one new base, without blocking readers.

        First-wins merge order matches :meth:`seed` exactly (base first,
        then segments by ascending sequence), so a seed before and after
        compaction yields the same memo.  Readers keep working throughout:
        the new base is published atomically before the folded files are
        unlinked, and :meth:`seed` retries its listing if a file vanishes
        mid-scan.

        Files containing stale-schema or unreadable records — segments
        *and* bases alike — are *kept* by default (they may still be
        readable by the code revision that wrote them) and reported in
        the result; ``drop_stale=True`` removes them too.
        """
        with self._locked():
            bases, segments = self._list_entries()
            replayed = self._read_all()
            replay_paths = {read.entry.path for read in replayed}
            # Files outside the replay order: segments at or below the
            # latest base's sequence (an earlier compaction kept them only
            # for their stale/unreadable records) and bases superseded by
            # a newer base (a crash between publish and unlink).
            orphaned_segments = [s for s in segments if s.path not in replay_paths]
            orphaned_bases = [b for b in bases if b.path not in replay_paths]
            foldable = [read for read in replayed if read.entry.kind == "segment"]
            if (
                not foldable
                and not orphaned_bases
                and not (drop_stale and orphaned_segments)
            ):
                return CompactionResult(
                    folded_files=0,
                    cells=0,
                    base_path=bases[-1].path if bases else None,
                    removed_files=(),
                    kept_stale_files=len(orphaned_segments),
                )
            merged: "Dict[tuple, object]" = {}
            for read in replayed:
                for snapshot in read.fresh:
                    for key, entry in snapshot.cells:
                        merged.setdefault(key, entry)
            base_path: Optional[Path] = None
            if foldable and merged:
                new_seq = max(read.entry.seq for read in replayed)
                base_path = self.directory / f"base-{new_seq:08d}.seg"
                combined = ExecutionMemoSnapshot(
                    schema=_memo_schema(), cells=tuple(merged.items())
                )
                self._publish(
                    pack_record(
                        pickle.dumps(combined, protocol=pickle.HIGHEST_PROTOCOL)
                    ),
                    base_path,
                )
            elif bases:
                # Nothing new to fold — keep the existing base untouched.
                # Republishing in place would rewrite only the records this
                # revision can read, silently dropping any stale ones.
                base_path = bases[-1].path
            removed: List[str] = []
            kept_stale = 0
            for read in replayed:
                if base_path is not None and read.entry.path == base_path:
                    continue
                # Same contract for the replayed base as for segments: a
                # file with stale/unreadable records survives compaction.
                if (read.stale or read.corrupt) and not drop_stale:
                    kept_stale += 1
                    continue
                self._unlink(read.entry.path, removed)
            for segment in orphaned_segments:
                if drop_stale:
                    self._unlink(segment.path, removed)
                else:
                    kept_stale += 1
            for base in orphaned_bases:
                # A superseded clean base is fully covered by the newer one;
                # a dirty one still holds records only other revisions read.
                if not drop_stale and self._holds_unmergeable_records(base.path):
                    kept_stale += 1
                    continue
                self._unlink(base.path, removed)
            folded = len(foldable) if base_path is not None and merged else 0
            if removed or (foldable and merged):
                logger.info(
                    "memo store %s: compacted %d file(s) into %s "
                    "(%d cells, %d stale file(s) kept)",
                    self.directory,
                    folded,
                    base_path.name if base_path is not None else "<nothing>",
                    len(merged),
                    kept_stale,
                )
            return CompactionResult(
                folded_files=folded,
                cells=len(merged),
                base_path=base_path,
                removed_files=tuple(removed),
                kept_stale_files=kept_stale,
            )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def info(self) -> MemoStoreInfo:
        """On-disk shape plus this instance's cumulative counters."""
        bases, _ = self._list_entries()
        segment_files, replay_bytes = self._replay_shape()
        return MemoStoreInfo(
            directory=str(self.directory),
            base_seq=bases[-1].seq if bases else None,
            segment_files=segment_files,
            replay_bytes=replay_bytes,
            segments_replayed=self.segments_replayed,
            cells_appended=self.cells_appended,
            stale_records_skipped=self.stale_records_skipped,
            corrupt_records_skipped=self.corrupt_records_skipped,
            torn_tails_truncated=self.torn_tails_truncated,
            compactions_triggered=self.compactions_triggered,
            compaction_errors=self.compaction_errors,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @contextmanager
    def _locked(self) -> Iterator[None]:
        """Advisory exclusive lock shared by every writer of the directory.

        Reentrant per instance: the flock is taken once at the outermost
        entry and nested entries only bump a depth counter.  Acquiring a
        second open file description on ``.lock`` would self-deadlock —
        flock counts separate descriptions within one process as
        conflicting owners — and compact() legitimately re-enters through
        torn-tail repair in :meth:`_read_once`.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        with self._lock_mutex:
            if self._flock_depth:
                self._flock_depth += 1
                try:
                    yield
                finally:
                    self._flock_depth -= 1
                return
            with open(self.directory / _LOCK_NAME, "ab") as lock:
                fcntl.flock(lock.fileno(), fcntl.LOCK_EX)
                self._flock_depth = 1
                try:
                    yield
                finally:
                    self._flock_depth = 0
                    fcntl.flock(lock.fileno(), fcntl.LOCK_UN)

    def _list_entries(self) -> Tuple[List[_Entry], List[_Entry]]:
        """All (bases, segments) in the directory, each sorted by sequence."""
        bases: List[_Entry] = []
        segments: List[_Entry] = []
        for name in os.listdir(self.directory):
            match = _FILE_RE.match(name)
            if match is None:
                continue
            entry = _Entry(match.group(1), int(match.group(2)), self.directory / name)
            (bases if entry.kind == "base" else segments).append(entry)
        bases.sort(key=lambda e: e.seq)
        segments.sort(key=lambda e: e.seq)
        return bases, segments

    def _next_seq(self) -> int:
        """Next unused sequence number (caller holds the lock)."""
        bases, segments = self._list_entries()
        taken = [entry.seq for entry in bases + segments]
        return max(taken, default=-1) + 1

    def _read_all(self) -> List[_SegmentRead]:
        """Read the replayable files in seed order, retrying compaction races."""
        last_error: Optional[FileNotFoundError] = None
        for _ in range(3):
            try:
                return self._read_once()
            except FileNotFoundError as exc:
                # A concurrent compaction unlinked a file between our
                # listing and our scan; its cells live in a newer base.
                last_error = exc
        raise RuntimeError(
            f"memo store {self.directory}: files kept vanishing mid-read "
            "across 3 attempts (is something unlinking segments without "
            "holding the store lock?)"
        ) from last_error

    def _read_once(self) -> List[_SegmentRead]:
        bases, segments = self._list_entries()
        order: List[_Entry] = []
        if bases:
            order.append(bases[-1])
            order.extend(s for s in segments if s.seq > bases[-1].seq)
        else:
            order.extend(segments)
        reads: List[_SegmentRead] = []
        for entry in order:
            scan = scan_segment(entry.path)
            if scan.torn:
                with self._locked():
                    # Re-scan under the lock: another recovering reader may
                    # have repaired (or compaction replaced) the file already.
                    scan = scan_segment(entry.path)
                    if truncate_torn_tail(scan):
                        self.torn_tails_truncated += 1
                        logger.warning(
                            "memo store %s: truncated torn tail of %s "
                            "(%d of %d bytes kept, %d complete record(s))",
                            self.directory,
                            entry.path.name,
                            scan.good_bytes,
                            scan.file_bytes,
                            len(scan.records),
                        )
            fresh, stale, corrupt = self._classify_records(scan.records)
            if stale:
                self.stale_records_skipped += stale
                logger.warning(
                    "memo store %s: skipped %d stale-schema record(s) in %s "
                    "(written by a different code revision; never merged)",
                    self.directory,
                    stale,
                    entry.path.name,
                )
            if corrupt:
                self.corrupt_records_skipped += corrupt
                logger.warning(
                    "memo store %s: skipped %d record(s) in %s that do not "
                    "hold execution-memo snapshots",
                    self.directory,
                    corrupt,
                    entry.path.name,
                )
            reads.append(_SegmentRead(entry, fresh, stale, corrupt))
        return reads

    @staticmethod
    def _classify_records(
        records: Tuple[bytes, ...]
    ) -> Tuple[Tuple[ExecutionMemoSnapshot, ...], int, int]:
        """Split framed payloads into (fresh snapshots, stale, corrupt)."""
        expected = _memo_schema()
        fresh: List[ExecutionMemoSnapshot] = []
        stale = 0
        corrupt = 0
        for payload in records:
            try:
                snapshot = pickle.loads(payload)
            except Exception:
                # The checksum passed, so the bytes are what was
                # written — unpicklable means a different code revision
                # (renamed classes/fields): a stale record.
                stale += 1
                continue
            if not isinstance(snapshot, ExecutionMemoSnapshot):
                corrupt += 1
                continue
            if snapshot.schema != expected:
                stale += 1
                continue
            fresh.append(snapshot)
        return tuple(fresh), stale, corrupt

    def _holds_unmergeable_records(self, path: Path) -> bool:
        """Whether a file holds content this code revision cannot fold.

        Used by :meth:`compact` on files *outside* the replay order (older
        bases, segments at or below the latest base's sequence): a torn
        tail, a stale-schema record or an unreadable payload means some
        other revision may still need the file, so it must survive
        compaction unless ``drop_stale=True``.
        """
        try:
            scan = scan_segment(path)
        except FileNotFoundError:
            return False
        _, stale, corrupt = self._classify_records(scan.records)
        return bool(scan.torn or stale or corrupt)

    def _publish(self, data: bytes, final: Path) -> None:
        """Atomically publish ``data`` at ``final`` (tempfile + os.replace)."""
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.directory), prefix=final.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as stream:
                stream.write(data)
                stream.flush()
                os.fsync(stream.fileno())
            os.replace(tmp_name, final)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    @staticmethod
    def _unlink(path: Path, removed: List[str]) -> None:
        try:
            os.unlink(path)
        except FileNotFoundError:
            return
        removed.append(path.name)
