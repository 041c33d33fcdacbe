"""Tests for the durable shared execution-memo store (segment log + compaction).

Covers the store's crash paths and its multi-process contract: torn-tail
segment recovery (truncate to the last complete record, lose only the torn
tail), stale-schema segment skip accounting (logged, never silently
merged), concurrent writer exclusion through the advisory lock (no lost or
colliding segments), ``seed``/``absorb`` bit-identity with the in-process
``export``/``merge`` round trip, compaction folding base + segments into a
new base that replays identically, and the consumer wiring —
``run_cells(..., memo_store=...)``, ``GridHandler(memo_store=...)`` and
``Node.attach_store`` — where a restarted process must re-simulate zero
previously stored cells and every publish costs O(new cells): consumers
drain the machine's journal through ``absorb`` and never scan the memo.
"""

from __future__ import annotations

import asyncio
import logging
import pickle
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro.cluster import Node
from repro.core import StaticPolicy
from repro.experiments import POLICY_BUILDERS, RunCell, run_cells
from repro.machine import (
    CONFIG_2B,
    ExecutionMemoSnapshot,
    Machine,
    WorkRequest,
    standard_configurations,
)
from repro.service import AdaptationServer, GridHandler, GridProbeRequest
from repro.store import MemoStore, pack_record, scan_segment


@pytest.fixture()
def store(tmp_path):
    return MemoStore(tmp_path / "memo")


@pytest.fixture()
def machine():
    return Machine(noise_sigma=0.0)


def _work(k: int = 1) -> WorkRequest:
    return WorkRequest(instructions=1e8 * k, working_set_mb=2.0 + k)


def _warm_machine(works) -> Machine:
    machine = Machine(noise_sigma=0.0)
    for work in works:
        machine.execute_grid([work], standard_configurations(machine.topology))
    return machine


def _snapshot_of(works) -> ExecutionMemoSnapshot:
    return _warm_machine(works).export_execution_memo()


class TestSeedAbsorbRoundTrip:
    def test_restarted_process_resimulates_nothing(self, store, machine):
        configs = standard_configurations(machine.topology)
        store.seed(machine)
        machine.execute_grid([_work()], configs)
        assert store.absorb(machine) == len(configs)
        restarted = Machine(noise_sigma=0.0)
        assert MemoStore(store.directory).seed(restarted) == len(configs)
        sweep = restarted.execute_grid([_work()], configs)
        assert (sweep.memo_hits, sweep.memo_misses) == (len(configs), 0)

    def test_seed_is_bit_identical_to_in_process_merge(self, store):
        works = [_work(1), _work(2)]
        snapshot = _snapshot_of(works)
        via_memory = Machine(noise_sigma=0.0)
        via_memory.merge_execution_memo(snapshot)
        store.append(snapshot)
        via_disk = Machine(noise_sigma=0.0)
        MemoStore(store.directory).seed(via_disk)
        assert (
            via_disk.export_execution_memo().cells
            == via_memory.export_execution_memo().cells
        )

    def test_absorb_since_appends_only_own_cells(self, store, machine):
        """A seeded machine publishes only the cells it simulated itself."""
        configs = standard_configurations(machine.topology)
        machine.execute_grid([_work(1)], configs)
        assert store.absorb(machine) == len(configs)
        assert store.absorb(machine) == 0  # already drained
        seeded = Machine(noise_sigma=0.0)
        assert store.seed(seeded) == len(configs)
        seeded.execute_grid([_work(1)], configs)  # all hits on seeded cells
        seeded.execute_grid([_work(2)], configs)
        assert store.absorb(seeded) == len(configs)
        assert store.info().cells_appended == 2 * len(configs)
        # Replaying base-less segments in order restores both works' cells.
        fresh = Machine(noise_sigma=0.0)
        assert MemoStore(store.directory).seed(fresh) == 2 * len(configs)

    def test_empty_delta_publishes_no_segment(self, store, machine):
        assert store.absorb(machine) == 0
        assert store.info().segment_files == 0

    def test_append_rejects_stale_snapshots(self, store):
        snapshot = _snapshot_of([_work()])
        stale = replace(snapshot, schema=("memo-v0",) + snapshot.schema[1:])
        with pytest.raises(ValueError, match="stale"):
            store.append(stale)

    def test_seed_of_empty_store_is_noop(self, store, machine):
        assert store.seed(machine) == 0
        assert machine.execution_memo_info().size == 0


class TestTornTailRecovery:
    def test_torn_tail_is_truncated_and_prefix_recovered(self, store, tmp_path):
        first = _snapshot_of([_work(1)])
        second = _snapshot_of([_work(2)])
        good = pack_record(pickle.dumps(first, protocol=pickle.HIGHEST_PROTOCOL))
        torn = pack_record(pickle.dumps(second, protocol=pickle.HIGHEST_PROTOCOL))
        path = store.directory / "segment-00000000.seg"
        path.write_bytes(good + torn[: len(torn) - 7])  # tail cut mid-record
        machine = Machine(noise_sigma=0.0)
        assert store.seed(machine) == len(first)
        assert store.torn_tails_truncated == 1
        # The file was repaired on disk: only the torn record is gone.
        assert path.stat().st_size == len(good)
        rescan = scan_segment(path)
        assert not rescan.torn and len(rescan.records) == 1

    def test_fully_torn_segment_recovers_to_empty(self, store):
        path = store.directory / "segment-00000000.seg"
        path.write_bytes(b"RMS1\x00garbage-that-is-no-frame")
        machine = Machine(noise_sigma=0.0)
        assert store.seed(machine) == 0
        assert store.torn_tails_truncated == 1
        assert path.stat().st_size == 0

    def test_clean_segments_are_never_rewritten(self, store, machine):
        configs = standard_configurations(machine.topology)
        machine.execute_grid([_work()], configs)
        store.absorb(machine)
        (segment,) = [
            p for p in store.directory.iterdir() if p.name.startswith("segment-")
        ]
        before = (segment.stat().st_mtime_ns, segment.read_bytes())
        store.seed(Machine(noise_sigma=0.0))
        assert (segment.stat().st_mtime_ns, segment.read_bytes()) == before
        assert store.torn_tails_truncated == 0


class TestStaleSchemaSkip:
    def _write_stale_segment(self, store, name="segment-00000000.seg"):
        snapshot = _snapshot_of([_work(9)])
        stale = replace(snapshot, schema=("memo-v0",) + snapshot.schema[1:])
        payload = pickle.dumps(stale, protocol=pickle.HIGHEST_PROTOCOL)
        (store.directory / name).write_bytes(pack_record(payload))

    def test_stale_segments_skipped_with_logged_count(self, store, caplog):
        self._write_stale_segment(store)
        machine = Machine(noise_sigma=0.0)
        with caplog.at_level(logging.WARNING, logger="repro.store.memo_store"):
            assert store.seed(machine) == 0
        assert store.stale_records_skipped == 1
        assert machine.execution_memo_info().size == 0  # never silently merged
        assert any("stale-schema" in record.message for record in caplog.records)

    def test_fresh_segments_still_merge_next_to_stale_ones(self, store, machine):
        self._write_stale_segment(store)
        configs = standard_configurations(machine.topology)
        machine.execute_grid([_work()], configs)
        store.absorb(machine)
        restarted = Machine(noise_sigma=0.0)
        reader = MemoStore(store.directory)
        assert reader.seed(restarted) == len(configs)
        assert reader.stale_records_skipped == 1

    def test_non_snapshot_records_counted_as_corrupt(self, store, machine):
        payload = pickle.dumps({"not": "a snapshot"}, protocol=pickle.HIGHEST_PROTOCOL)
        (store.directory / "segment-00000000.seg").write_bytes(pack_record(payload))
        assert store.seed(machine) == 0
        assert store.corrupt_records_skipped == 1

    def test_compaction_keeps_stale_segments_by_default(self, store, machine):
        self._write_stale_segment(store)
        configs = standard_configurations(machine.topology)
        machine.execute_grid([_work()], configs)
        store.absorb(machine)
        result = store.compact()
        assert result.kept_stale_files == 1
        assert (store.directory / "segment-00000000.seg").exists()
        assert MemoStore(store.directory).seed(Machine(noise_sigma=0.0)) == len(configs)
        dropped = store.compact(drop_stale=True)
        assert "segment-00000000.seg" in dropped.removed_files
        assert not (store.directory / "segment-00000000.seg").exists()


def _concurrent_absorb_worker(directory: str, k: int) -> int:
    """Pool worker: simulate a private work and publish it into one store.

    Module-level so it pickles under any multiprocessing start method.
    """
    machine = Machine(noise_sigma=0.0)
    machine.execute_grid([_work(k)], standard_configurations(machine.topology))
    return MemoStore(directory).absorb(machine)


class TestConcurrentWriters:
    def test_concurrent_absorbs_neither_collide_nor_get_lost(self, store):
        ks = [1, 2, 3, 4]
        with ProcessPoolExecutor(max_workers=4) as pool:
            appended = list(
                pool.map(
                    _concurrent_absorb_worker,
                    [str(store.directory)] * len(ks),
                    ks,
                )
            )
        configs = standard_configurations(Machine(noise_sigma=0.0).topology)
        assert appended == [len(configs)] * len(ks)
        # Exclusion held: one distinct segment per writer, all replayable.
        assert store.info().segment_files == len(ks)
        machine = Machine(noise_sigma=0.0)
        assert store.seed(machine) == len(ks) * len(configs)
        for k in ks:
            sweep = machine.execute_grid([_work(k)], configs)
            assert (sweep.memo_hits, sweep.memo_misses) == (len(configs), 0)


class TestCompaction:
    def test_compaction_preserves_replay_and_removes_segments(self, store):
        configs = standard_configurations(Machine(noise_sigma=0.0).topology)
        for k in (1, 2, 3):
            machine = Machine(noise_sigma=0.0)
            machine.execute_grid([_work(k)], configs)
            store.absorb(machine)
        reference = Machine(noise_sigma=0.0)
        MemoStore(store.directory).seed(reference)
        result = store.compact()
        assert (result.folded_files, result.cells) == (3, 3 * len(configs))
        assert store.info().segment_files == 0
        assert store.info().base_seq is not None
        compacted = Machine(noise_sigma=0.0)
        MemoStore(store.directory).seed(compacted)
        assert (
            compacted.export_execution_memo().cells
            == reference.export_execution_memo().cells
        )

    def test_segments_after_a_base_fold_into_the_next_base(self, store):
        configs = standard_configurations(Machine(noise_sigma=0.0).topology)
        machine = Machine(noise_sigma=0.0)
        machine.execute_grid([_work(1)], configs)
        store.absorb(machine)
        store.compact()
        late = Machine(noise_sigma=0.0)
        late.execute_grid([_work(2)], configs)
        store.absorb(late)
        result = store.compact()
        assert result.folded_files == 1
        assert result.cells == 2 * len(configs)
        fresh = Machine(noise_sigma=0.0)
        assert MemoStore(store.directory).seed(fresh) == 2 * len(configs)

    def test_compacting_a_torn_segment_recovers_without_deadlock(self, store):
        configs = standard_configurations(Machine(noise_sigma=0.0).topology)
        machine = Machine(noise_sigma=0.0)
        machine.execute_grid([_work(1)], configs)
        store.absorb(machine)
        good = pack_record(
            pickle.dumps(_snapshot_of([_work(2)]), protocol=pickle.HIGHEST_PROTOCOL)
        )
        torn = pack_record(
            pickle.dumps(_snapshot_of([_work(3)]), protocol=pickle.HIGHEST_PROTOCOL)
        )
        path = store.directory / "segment-00000001.seg"
        path.write_bytes(good + torn[: len(torn) - 5])  # tail cut mid-record
        # compact() repairs the torn tail while already holding the store
        # lock — exactly the post-crash state compaction is run against.
        # Run it on a worker thread so a reentrancy regression fails the
        # test with a timeout instead of hanging the suite on flock.
        pool = ThreadPoolExecutor(max_workers=1)
        try:
            result = pool.submit(store.compact).result(timeout=60)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        assert store.torn_tails_truncated == 1
        assert result.folded_files == 2
        # Only the torn record is lost; both clean snapshots replay.
        fresh = Machine(noise_sigma=0.0)
        assert MemoStore(store.directory).seed(fresh) == 2 * len(configs)
        assert MemoStore(store.directory).info().segment_files == 0

    def test_compaction_keeps_stale_base_by_default(self, store, machine):
        snapshot = _snapshot_of([_work(9)])
        stale = replace(snapshot, schema=("memo-v0",) + snapshot.schema[1:])
        base = store.directory / "base-00000000.seg"
        base.write_bytes(
            pack_record(pickle.dumps(stale, protocol=pickle.HIGHEST_PROTOCOL))
        )
        configs = standard_configurations(machine.topology)
        machine.execute_grid([_work()], configs)
        store.absorb(machine)
        result = store.compact()
        # The old-revision base survives (only the revision that wrote it
        # can still read those cells) and is counted, like stale segments.
        assert base.exists()
        assert result.kept_stale_files == 1
        assert base.name not in result.removed_files
        # The fresh cells folded into a newer base that replays alone.
        assert MemoStore(store.directory).seed(Machine(noise_sigma=0.0)) == len(
            configs
        )
        dropped = store.compact(drop_stale=True)
        assert base.name in dropped.removed_files
        assert not base.exists()

    def test_superseded_clean_base_is_removed_by_compaction(self, store):
        configs = standard_configurations(Machine(noise_sigma=0.0).topology)
        machine = Machine(noise_sigma=0.0)
        machine.execute_grid([_work(1)], configs)
        store.absorb(machine)
        store.compact()
        old = store.directory / "base-00000000.seg"
        leftover = old.read_bytes()
        late = Machine(noise_sigma=0.0)
        late.execute_grid([_work(2)], configs)
        store.absorb(late)
        store.compact()
        # Simulate a compaction that crashed between publishing the new
        # base and unlinking the superseded one.
        old.write_bytes(leftover)
        result = store.compact()
        assert old.name in result.removed_files
        assert not old.exists()
        fresh = Machine(noise_sigma=0.0)
        assert MemoStore(store.directory).seed(fresh) == 2 * len(configs)

    def test_compacting_an_already_compact_store_is_a_noop(self, store, machine):
        machine.execute_grid([_work()], standard_configurations(machine.topology))
        store.absorb(machine)
        first = store.compact()
        assert not first.noop
        second = store.compact()
        assert second.noop and second.removed_files == ()

    def test_compacting_an_empty_store_is_a_noop(self, store):
        assert store.compact().noop


class TestConsumerWiring:
    CELLS = [
        RunCell(workload="SP", policy="static-4", seed=1, max_timesteps=3),
        RunCell(workload="IS", policy="static-2b", seed=2, max_timesteps=3),
    ]

    def test_run_cells_restart_resimulates_zero_cells(self, store):
        first = run_cells(self.CELLS, memo_store=store)
        assert store.info().cells_appended > 0
        assert store.info().segment_files == 1
        restarted = MemoStore(store.directory)
        second = run_cells(self.CELLS, memo_store=restarted)
        # Every calibration cell came from disk: nothing was re-simulated,
        # so nothing new was published.
        assert restarted.info().cells_appended == 0
        assert restarted.segments_replayed == len(self.CELLS)
        for a, b in zip(first, second):
            assert a.time_seconds == b.time_seconds
            assert a.energy_joules == b.energy_joules
        assert MemoStore(store.directory).info().segment_files == 1

    def test_run_cells_without_host_builds_a_default_one(self, store):
        run_cells(self.CELLS[:1], memo_store=store)
        assert store.info().cells_appended > 0

    def test_persist_error_never_masks_the_sweep_failure(
        self, store, monkeypatch
    ):
        class _ExplodingPolicy(StaticPolicy):
            def before_phase(self, region, timestep):
                raise RuntimeError("sweep exploded")

        monkeypatch.setitem(
            POLICY_BUILDERS, "explode", lambda bundle: _ExplodingPolicy(CONFIG_2B)
        )
        exploding = RunCell(workload="IS", policy="explode", seed=3, max_timesteps=3)

        # Cells that succeeded before the failure have already published.
        with pytest.raises(RuntimeError, match="sweep exploded"):
            run_cells([self.CELLS[1], exploding], memo_store=store)
        published = store.info().cells_appended
        assert published > 0
        assert MemoStore(store.directory).seed(Machine(noise_sigma=0.0)) == published

        # A failing cell never reaches the store, so a broken store cannot
        # replace the sweep failure propagating to the caller.
        def failing_absorb(machine):
            raise OSError("disk full")

        monkeypatch.setattr(store, "absorb", failing_absorb)
        with pytest.raises(RuntimeError, match="sweep exploded"):
            run_cells([exploding], memo_store=store)

    def test_successful_sweep_still_raises_on_persist_failure(
        self, store, monkeypatch
    ):
        def failing_absorb(machine):
            raise OSError("disk full")

        monkeypatch.setattr(store, "absorb", failing_absorb)
        with pytest.raises(OSError, match="disk full"):
            run_cells(self.CELLS[:1], memo_store=store)

    def test_grid_handler_restart_keeps_warm_memo(self, store):
        request = GridProbeRequest(
            client_id="app", phase="solve", work=_work(5)
        )

        async def serve_once(handler):
            async with AdaptationServer(
                handler, max_batch_size=4, max_batch_window=0.001
            ) as server:
                return await server.submit(request)

        cold = GridHandler(memo_store=store)
        first = asyncio.run(serve_once(cold))
        assert cold.machine.execution_memo_info().misses > 0

        warm = GridHandler(memo_store=MemoStore(store.directory))
        second = asyncio.run(serve_once(warm))
        info = warm.machine.execution_memo_info()
        assert info.misses == 0  # the restarted server re-simulated nothing
        assert info.hits == len(warm.configurations)
        assert first.configuration == second.configuration
        assert first.predicted == second.predicted
        assert warm.cache_info()["memo_store"]["segments_replayed"] == 1

    def test_grid_handler_appends_only_new_cells(self, store):
        async def serve(handler, requests):
            async with AdaptationServer(
                handler, max_batch_size=4, max_batch_window=0.001
            ) as server:
                return await server.submit_many(requests)

        handler = GridHandler(memo_store=store)
        r1 = GridProbeRequest(client_id="a", phase="p1", work=_work(1))
        asyncio.run(serve(handler, [r1]))
        appended_once = store.info().cells_appended
        assert appended_once == len(handler.configurations)
        # A repeated fingerprint is all memo hits: nothing new to publish.
        asyncio.run(serve(handler, [r1]))
        assert store.info().cells_appended == appended_once


def _raise_on_call(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} was called on the publish path")

    return fail


class TestPublishPath:
    """Consumers publish through ``absorb`` in O(new cells), and publish
    every cell their machine simulated, even before the store was attached."""

    def test_grid_handler_publishes_cells_simulated_before_attach(self, store):
        machine = Machine(noise_sigma=0.0)
        configs = machine.default_configurations()
        machine.execute_grid([_work(1)], configs)
        handler = GridHandler(machine, configurations=configs, memo_store=store)
        handler.handle_batch([GridProbeRequest(client_id="a", phase="p", work=_work(2))])
        assert store.info().cells_appended == 2 * len(configs)
        fresh = Machine(noise_sigma=0.0)
        assert MemoStore(store.directory).seed(fresh) == 2 * len(configs)

    def test_node_publishes_cells_simulated_before_attach(self, store):
        machine = Machine(noise_sigma=0.0)
        node = Node("n0", machine)
        node.sweep([_work(1)])
        node.attach_store(store)
        node.sweep([_work(2)])
        cells = 2 * len(node.configurations)
        assert store.info().cells_appended == cells
        assert MemoStore(store.directory).seed(Machine(noise_sigma=0.0)) == cells

    def test_consumers_never_export_the_whole_memo(self, store, monkeypatch):
        handler = GridHandler(memo_store=store)
        node = Node("n0", memo_store=MemoStore(store.directory / "node"))
        for machine in (handler.machine, node.machine):
            monkeypatch.setattr(
                machine, "export_execution_memo", _raise_on_call("export")
            )
        request = GridProbeRequest(client_id="a", phase="p", work=_work(1))
        handler.handle_batch([request])
        handler.handle_batch(
            [request, GridProbeRequest(client_id="b", phase="q", work=_work(2))]
        )
        node.sweep([_work(1)])
        node.sweep([_work(1), _work(2)])
        assert store.info().cells_appended == 2 * len(handler.configurations)
        assert node.memo_store.info().cells_appended == 2 * len(node.configurations)

    def test_all_hit_batches_never_append(self, store, monkeypatch):
        handler = GridHandler(memo_store=store)
        node = Node("n0", memo_store=MemoStore(store.directory / "node"))
        request = GridProbeRequest(client_id="a", phase="p", work=_work(1))
        handler.handle_batch([request])
        node.sweep([_work(1)])
        for consumer_store in (store, node.memo_store):
            monkeypatch.setattr(consumer_store, "append", _raise_on_call("append"))
        handler.handle_batch([request, request])
        node.sweep([_work(1), _work(1)])  # a new sweep key, all memo hits

    def test_unseeded_absorb_appends_the_exported_memo_in_order(
        self, store, monkeypatch
    ):
        machine = _warm_machine([_work(1), _work(2), _work(3)])
        expected = machine.export_execution_memo().cells
        appended = []
        original = store.append

        def capture(snapshot):
            appended.append(snapshot)
            return original(snapshot)

        monkeypatch.setattr(store, "append", capture)
        assert store.absorb(machine) == len(expected)
        assert [snapshot.cells for snapshot in appended] == [expected]


class TestCompactionPolicy:
    """Threshold validation, trigger logic, and the background pass."""

    def test_policy_requires_at_least_one_threshold(self):
        from repro.store import CompactionPolicy

        with pytest.raises(ValueError, match="at least one"):
            CompactionPolicy(max_segment_files=None, max_replay_bytes=None)

    def test_policy_rejects_non_positive_thresholds(self):
        from repro.store import CompactionPolicy

        with pytest.raises(ValueError):
            CompactionPolicy(max_segment_files=0)
        with pytest.raises(ValueError):
            CompactionPolicy(max_segment_files=4, max_replay_bytes=0)

    def test_should_compact_crosses_either_threshold(self):
        from repro.store import CompactionPolicy

        policy = CompactionPolicy(max_segment_files=3, max_replay_bytes=1000)
        assert not policy.should_compact(2, 999)
        assert policy.should_compact(3, 0)
        assert policy.should_compact(0, 1000)

    def test_append_triggers_background_compaction_at_threshold(self, tmp_path):
        from repro.store import CompactionPolicy

        store = MemoStore(
            tmp_path / "memo", policy=CompactionPolicy(max_segment_files=3)
        )
        works = [_work(k) for k in range(1, 7)]
        for work in works:
            store.append(_snapshot_of([work]))
        assert store.wait_for_compaction(timeout=10.0)
        info = store.info()
        assert store.compactions_triggered >= 1
        assert store.compaction_errors == 0
        assert info.segment_files < 3
        assert info.base_seq is not None

        # Not one cell was lost: seeding reproduces the full union.
        seeded = Machine(noise_sigma=0.0)
        store.seed(seeded)
        expected = _snapshot_of(works)
        assert set(seeded.export_execution_memo().keys()) == set(expected.keys())

    def test_below_threshold_never_triggers(self, tmp_path):
        from repro.store import CompactionPolicy

        store = MemoStore(
            tmp_path / "memo", policy=CompactionPolicy(max_segment_files=50)
        )
        for k in range(1, 4):
            store.append(_snapshot_of([_work(k)]))
        assert store.compactions_triggered == 0
        assert store.info().segment_files == 3

    def test_replay_bytes_threshold_triggers(self, tmp_path):
        from repro.store import CompactionPolicy

        store = MemoStore(
            tmp_path / "memo",
            policy=CompactionPolicy(max_segment_files=None, max_replay_bytes=1),
        )
        store.append(_snapshot_of([_work(1)]))
        assert store.wait_for_compaction(timeout=10.0)
        assert store.compactions_triggered >= 1
        assert store.info().base_seq is not None

    def test_maybe_compact_is_single_flight(self, tmp_path, monkeypatch):
        import threading

        from repro.store import CompactionPolicy

        store = MemoStore(
            tmp_path / "memo", policy=CompactionPolicy(max_segment_files=1)
        )
        store.policy = None  # publish segments without auto-triggering
        for k in range(1, 4):
            store.append(_snapshot_of([_work(k)]))
        store.policy = CompactionPolicy(max_segment_files=1)

        release = threading.Event()
        original = MemoStore.compact

        def blocking_compact(self, *args, **kwargs):
            assert release.wait(timeout=10.0)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(MemoStore, "compact", blocking_compact)
        assert store.maybe_compact() is True
        assert store.maybe_compact() is False  # pass already in flight
        release.set()
        assert store.wait_for_compaction(timeout=10.0)
        assert store.compactions_triggered == 1

    def test_background_compaction_errors_are_counted_not_raised(
        self, tmp_path, monkeypatch, caplog
    ):
        from repro.store import CompactionPolicy

        store = MemoStore(
            tmp_path / "memo", policy=CompactionPolicy(max_segment_files=1)
        )

        def broken_compact(self, *args, **kwargs):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(MemoStore, "compact", broken_compact)
        with caplog.at_level(logging.ERROR, logger="repro.store.memo_store"):
            store.append(_snapshot_of([_work(1)]))  # trigger; must not raise
            assert store.wait_for_compaction(timeout=10.0)
        assert store.compactions_triggered == 1
        assert store.compaction_errors == 1
        assert any("compaction failed" in r.message for r in caplog.records)

    def test_background_compaction_bounds_segments_without_losing_cells(
        self, tmp_path
    ):
        from repro.store import CompactionPolicy
        from repro.workloads import nas_suite

        # Three grid handlers publish to one directory through their own
        # store handles, so one handle compacts while another appends.
        directory = tmp_path / "memo"
        policy = CompactionPolicy(max_segment_files=2)
        stores = [MemoStore(directory, policy=policy) for _ in range(3)]
        handlers = [
            GridHandler(machine=Machine(noise_sigma=0.0), memo_store=store)
            for store in stores
        ]
        suite = nas_suite(machine=Machine(noise_sigma=0.0), variability=0.0)
        phases = suite.get("CG").phases + suite.get("MG").phases
        requests = [
            GridProbeRequest(client_id=f"g{i}", phase=p.name, work=p.work)
            for i, p in enumerate(phases)
        ]
        batches = [requests[i : i + 2] for i in range(0, len(requests), 2)]

        def serve(k):
            for batch in batches[k :: len(handlers)]:
                handlers[k].handle_batch(batch)

        with ThreadPoolExecutor(max_workers=len(handlers)) as pool:
            list(pool.map(serve, range(len(handlers))))
        for store in stores:
            assert store.wait_for_compaction(timeout=10.0)
        assert sum(s.compactions_triggered for s in stores) > 0

        # The policy bound held and not one cell was lost: a fresh seed
        # reproduces exactly the union of what the handlers simulated.
        final = MemoStore(directory)
        assert final.info().segment_files <= policy.max_segment_files
        seeded = Machine(noise_sigma=0.0)
        final.seed(seeded)
        expected = Machine(noise_sigma=0.0)
        expected.execute_grid(
            [r.work for r in requests], handlers[0].configurations
        )
        assert set(seeded.export_execution_memo().keys()) == set(
            expected.export_execution_memo().keys()
        )

    def test_info_reports_replay_bytes_and_compaction_counters(self, store):
        info = store.info()
        assert info.replay_bytes == 0
        assert info.compactions_triggered == 0
        assert info.compaction_errors == 0
        store.append(_snapshot_of([_work(1)]))
        info = store.info()
        assert info.replay_bytes > 0
        payload = info.as_dict()
        assert payload["replay_bytes"] == info.replay_bytes
        assert "compactions_triggered" in payload
        assert "compaction_errors" in payload
