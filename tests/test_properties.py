"""Property-based tests (hypothesis) for core invariants.

These tests exercise the machine model, the ANN scalers/networks and the
selection logic over wide input ranges, checking invariants that must hold
for *any* admissible input rather than hand-picked examples.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.ann import MinMaxScaler, NeuralNetwork, StandardScaler
from repro.core import ConfigurationSelector, rank_of_selection, sampling_budget
from repro.machine import (
    CONFIG_1,
    CONFIG_2A,
    CONFIG_2B,
    CONFIG_4,
    CacheModel,
    Machine,
    MemoryModel,
    WorkRequest,
    default_pstate_table,
    quad_core_xeon,
)

_PSTATE_TABLE = default_pstate_table()

_MACHINE = Machine(noise_sigma=0.0)
_CACHE = CacheModel(quad_core_xeon())
_MEMORY = MemoryModel(quad_core_xeon())

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def work_requests(draw) -> WorkRequest:
    """Random but physically admissible phase characterizations."""
    mem = draw(st.floats(0.1, 0.5))
    flop = draw(st.floats(0.0, 0.9 - mem))
    return WorkRequest(
        instructions=draw(st.floats(1e6, 5e9)),
        mem_fraction=mem,
        flop_fraction=flop,
        branch_fraction=draw(st.floats(0.0, 0.2)),
        l1_miss_rate=draw(st.floats(0.0, 0.3)),
        l2_miss_rate_solo=draw(st.floats(0.0, 0.9)),
        working_set_mb=draw(st.floats(0.1, 32.0)),
        locality_exponent=draw(st.floats(0.0, 4.0)),
        sharing_fraction=draw(st.floats(0.0, 1.0)),
        bandwidth_sensitivity=draw(st.floats(0.3, 1.5)),
        serial_fraction=draw(st.floats(0.0, 0.5)),
        load_imbalance=draw(st.floats(1.0, 1.3)),
        barriers=draw(st.integers(0, 30)),
        sync_cycles_per_barrier=draw(st.floats(0.0, 10_000.0)),
        prefetch_friendliness=draw(st.floats(0.0, 0.95)),
        base_cpi=draw(st.floats(0.3, 1.5)),
    )


class TestMachineProperties:
    @given(work=work_requests())
    @_SETTINGS
    def test_execution_results_are_physical(self, work):
        result = _MACHINE.execute(work, CONFIG_4, apply_noise=False)
        assert result.time_seconds > 0
        assert result.cycles > 0
        assert 0 < result.ipc < 16.0
        assert 100.0 < result.power_watts < 200.0
        assert result.energy_joules > 0
        assert all(np.isfinite(v) for v in result.event_counts.values())
        assert all(v >= 0 for v in result.event_counts.values())

    @given(work=work_requests())
    @_SETTINGS
    def test_single_thread_never_slower_than_serialized_four_thread_work(self, work):
        """Total machine work (thread-seconds) never shrinks with threads."""
        one = _MACHINE.execute(work, CONFIG_1, apply_noise=False)
        four = _MACHINE.execute(work, CONFIG_4, apply_noise=False)
        # Four threads can be at most ~4x faster (plus a small tolerance for
        # the constructive-sharing relief in the cache model).
        assert four.time_seconds > one.time_seconds / 4.2

    @given(work=work_requests())
    @_SETTINGS
    def test_tight_coupling_never_beats_loose_coupling_materially(self, work):
        """Sharing an L2 can only hurt or be neutral for mostly-private data;
        with strong sharing it may help, but never by more than the shared
        fraction could explain."""
        tight = _MACHINE.execute(work, CONFIG_2A, apply_noise=False).time_seconds
        loose = _MACHINE.execute(work, CONFIG_2B, apply_noise=False).time_seconds
        if work.sharing_fraction < 0.05:
            assert tight >= loose * 0.98

    @given(work=work_requests())
    @_SETTINGS
    def test_power_increases_with_active_cores(self, work):
        p1 = _MACHINE.execute(work, CONFIG_1, apply_noise=False).power_watts
        p4 = _MACHINE.execute(work, CONFIG_4, apply_noise=False).power_watts
        assert p4 > p1

    @given(work=work_requests(), occupants=st.integers(1, 4))
    @_SETTINGS
    def test_cache_miss_ratio_bounded(self, work, occupants):
        ratio = _CACHE.miss_ratio(work, capacity_mb=4.0, occupants=occupants)
        assert 0.0 < ratio <= 1.0

    @given(work=work_requests())
    @_SETTINGS
    def test_cache_pressure_monotone_in_occupants(self, work):
        """With mostly-private data, more occupants never reduce misses
        (beyond the small constructive-sharing relief proportional to the
        shared fraction)."""
        ratios = [_CACHE.miss_ratio(work, 4.0, n) for n in (1, 2, 3, 4)]
        if work.sharing_fraction < 0.05:
            tolerance = 1.0 + 0.15 * work.sharing_fraction * 3 + 1e-9
            assert all(a <= b * tolerance for a, b in zip(ratios, ratios[1:]))

    @given(util=st.floats(0.0, 0.999), requestors=st.integers(1, 4))
    @_SETTINGS
    def test_latency_stretch_bounded_and_monotone_in_requestors(self, util, requestors):
        stretch = _MEMORY.latency_stretch(util, requestors)
        assert 1.0 <= stretch <= _MEMORY.max_stretch * (1 + _MEMORY.row_conflict_penalty * 3)
        assert stretch >= _MEMORY.latency_stretch(util, 1) - 1e-12

    @given(demand=st.floats(0.0, 50.0), requestors=st.integers(1, 4))
    @_SETTINGS
    def test_bus_state_invariants(self, demand, requestors):
        state = _MEMORY.resolve(demand, active_requestors=requestors)
        assert 0.0 <= state.utilization <= 1.0
        assert state.latency_stretch >= 1.0
        assert state.transactions_per_cycle >= 0.0

    @given(
        work=work_requests(),
        indices=st.lists(
            st.integers(0, len(_PSTATE_TABLE) - 1), min_size=4, max_size=4
        ),
    )
    @_SETTINGS
    def test_heterogeneous_executions_are_physical(self, work, indices):
        """Any per-core P-state vector yields finite, physical results."""
        vector = tuple(_PSTATE_TABLE.states[i] for i in indices)
        result = _MACHINE.execute(work, CONFIG_4, apply_noise=False, pstate=vector)
        assert result.time_seconds > 0
        assert result.cycles > 0
        assert 0 < result.ipc < 16.0
        assert 100.0 < result.power_watts < 200.0
        assert all(np.isfinite(v) for v in result.event_counts.values())
        assert all(v >= 0 for v in result.event_counts.values())
        # The reported clock is the master (thread-0) core's.
        assert result.frequency_ghz == pytest.approx(vector[0].frequency_ghz)
        # Deterministic: replaying the vector reproduces the cell exactly.
        replay = _MACHINE.execute(work, CONFIG_4, apply_noise=False, pstate=vector)
        assert replay.time_seconds == result.time_seconds
        assert replay.power_watts == result.power_watts

    @given(
        work=work_requests(),
        index=st.integers(0, len(_PSTATE_TABLE) - 1),
    )
    @_SETTINGS
    def test_degenerate_vector_equals_homogeneous_execution(self, work, index):
        """All-equal vectors collapse onto the homogeneous path bit for bit."""
        state = _PSTATE_TABLE.states[index]
        uniform = _MACHINE.execute(
            work, CONFIG_4, apply_noise=False, pstate=(state,) * 4
        )
        homogeneous = _MACHINE.execute(work, CONFIG_4, apply_noise=False, pstate=state)
        assert uniform.time_seconds == homogeneous.time_seconds
        assert uniform.energy_joules == homogeneous.energy_joules


class TestAnnProperties:
    @given(
        data=st.lists(
            st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
            min_size=2,
            max_size=40,
        )
    )
    @_SETTINGS
    def test_standard_scaler_round_trip(self, data):
        array = np.array(data, dtype=float)
        scaler = StandardScaler().fit(array)
        recovered = scaler.inverse_transform(scaler.transform(array))
        assert np.allclose(recovered, array, atol=1e-6, rtol=1e-6)

    @given(
        data=st.lists(
            st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2),
            min_size=2,
            max_size=40,
        )
    )
    @_SETTINGS
    def test_minmax_scaler_bounds(self, data):
        array = np.array(data, dtype=float)
        scaler = MinMaxScaler(margin=0.05).fit(array)
        scaled = scaler.transform(array)
        assert scaled.min() >= 0.0 - 1e-9
        assert scaled.max() <= 1.0 + 1e-9

    @given(
        inputs=st.lists(
            st.lists(st.floats(-5, 5), min_size=4, max_size=4),
            min_size=1,
            max_size=16,
        ),
        seed=st.integers(0, 1000),
    )
    @_SETTINGS
    def test_network_outputs_finite(self, inputs, seed):
        net = NeuralNetwork((4, 6, 2), seed=seed)
        outputs = net.predict(np.array(inputs, dtype=float))
        assert np.isfinite(outputs).all()

    @given(
        values=st.dictionaries(
            st.sampled_from(["1", "2a", "2b", "3", "4"]),
            st.floats(0.01, 10.0),
            min_size=2,
            max_size=5,
        )
    )
    @_SETTINGS
    def test_selector_picks_the_maximum(self, values):
        selector = ConfigurationSelector()
        best = selector.select(values)
        maximum = max(values.values())
        assert values[best] == pytest.approx(maximum)
        # When the maximum is unique the selected configuration is also the
        # rank-1 configuration; on exact ties any maximal entry is acceptable.
        if sum(1 for v in values.values() if v == maximum) == 1:
            assert rank_of_selection(best, values) == 1


#: Name pool for ranking properties: the paper's configurations plus DVFS
#: cross-product labels (unknown to the default tie-breaker on purpose).
_RANK_NAMES = ("1", "2a", "2b", "3", "4", "2b@2GHz", "2b@1.6GHz", "4@1.6GHz")


@st.composite
def prediction_maps(draw, min_size=2):
    """Random per-configuration prediction dictionaries."""
    names = draw(
        st.lists(
            st.sampled_from(_RANK_NAMES),
            min_size=min_size,
            max_size=len(_RANK_NAMES),
            unique=True,
        )
    )
    return {
        name: draw(st.floats(0.01, 10.0, allow_nan=False, allow_infinity=False))
        for name in names
    }


class TestRankingProperties:
    """Satellite invariants of ConfigurationSelector / rank_of_selection."""

    @given(values=prediction_maps())
    @_SETTINGS
    def test_ranking_is_a_permutation_of_the_candidates(self, values):
        ranked = ConfigurationSelector().rank(values)
        assert sorted(ranked.ranking) == sorted(values)
        assert len(set(ranked.ranking)) == len(values)

    @given(values=prediction_maps())
    @_SETTINGS
    def test_best_is_the_argmax(self, values):
        ranked = ConfigurationSelector().rank(values)
        maximum = max(values.values())
        assert values[ranked.best] == pytest.approx(maximum)
        # The ranking is weakly decreasing in predicted IPC.
        ipcs = [values[name] for name in ranked.ranking]
        assert all(a >= b for a, b in zip(ipcs, ipcs[1:]))

    @given(values=prediction_maps(), seed=st.integers(0, 2**16))
    @_SETTINGS
    def test_tie_breaking_is_deterministic(self, values, seed):
        # The same predictions presented in any insertion order (and with
        # arbitrary exact ties injected) produce the identical ranking.
        selector = ConfigurationSelector()
        rng = np.random.default_rng(seed)
        names = list(values)
        tied_value = float(min(values.values()))
        tied = dict(values)
        for name in names[: len(names) // 2]:
            tied[name] = tied_value
        shuffled = {n: tied[n] for n in rng.permutation(list(tied))}
        assert selector.rank(tied).ranking == selector.rank(shuffled).ranking
        assert selector.rank(tied).best == selector.rank(shuffled).best

    @given(
        values=prediction_maps(),
        scale=st.floats(0.1, 50.0),
        shift=st.floats(0.0, 100.0),
    )
    @_SETTINGS
    def test_rank_invariant_under_monotone_transforms(self, values, scale, shift):
        # Any strictly increasing transform of the predictions leaves the
        # ranking unchanged (the ipc objective is purely ordinal).  Under
        # floating point a mathematically strict transform can round two
        # near-equal predictions onto one value, creating a *new* tie whose
        # tie-break legitimately reorders them — so the invariance claim
        # only applies when the transform kept the distinct values distinct.
        selector = ConfigurationSelector()
        base = selector.rank(values).ranking
        distinct = len(set(values.values()))
        affine = {n: scale * v + shift for n, v in values.items()}
        exponential = {n: float(np.expm1(v / 10.0)) for n, v in values.items()}
        for transformed in (affine, exponential):
            if len(set(transformed.values())) == distinct:
                assert selector.rank(transformed).ranking == base

    @given(values=prediction_maps())
    @_SETTINGS
    def test_rank_of_selection_bounds_and_argmax(self, values):
        ranked = ConfigurationSelector().rank(values)
        for name in values:
            rank = rank_of_selection(name, values)
            assert 1 <= rank <= len(values)
        if len({round(v, 12) for v in values.values()}) == len(values):
            assert rank_of_selection(ranked.best, values) == 1
            worst = min(values, key=values.get)
            assert rank_of_selection(worst, values) == len(values)

    @given(
        values=prediction_maps(),
        scale=st.floats(0.1, 50.0),
    )
    @example(values={"a": 0.01, "b": 0.010000000000000002}, scale=7.0)
    @_SETTINGS
    def test_rank_of_selection_invariant_under_monotone_transform(
        self, values, scale
    ):
        selected = next(iter(values))
        transformed = {n: scale * v for n, v in values.items()}
        # Under floating point a mathematically strict transform can round
        # two near-equal predictions onto one value, creating a *new* tie
        # whose tie-break legitimately reorders them — so the invariance
        # claim only applies when the transform kept the distinct values
        # distinct.
        if len(set(transformed.values())) == len(set(values.values())):
            assert rank_of_selection(selected, values) == rank_of_selection(
                selected, transformed
            )
        # Flipping the metric direction mirrors the rank.
        negated = {n: -v for n, v in values.items()}
        assert rank_of_selection(
            selected, negated, higher_is_better=False
        ) == rank_of_selection(selected, values, higher_is_better=True)


class TestBudgetProperties:
    @given(timesteps=st.integers(1, 10_000), fraction=st.floats(0.01, 1.0))
    @_SETTINGS
    def test_sampling_budget_bounds(self, timesteps, fraction):
        budget = sampling_budget(timesteps, fraction)
        assert 1 <= budget <= max(1, timesteps)
        assert budget <= timesteps * fraction + 1
