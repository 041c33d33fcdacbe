"""Unit tests for the shared-cache contention model."""

from __future__ import annotations

import pytest

from repro.machine import CacheModel, ThreadPlacement, WorkRequest, quad_core_xeon


@pytest.fixture(scope="module")
def cache_model():
    return CacheModel(quad_core_xeon())


def _work(ws_mb: float, sharing: float = 0.0, miss_solo: float = 0.2, locality: float = 1.5):
    return WorkRequest(
        instructions=1e8,
        working_set_mb=ws_mb,
        sharing_fraction=sharing,
        l2_miss_rate_solo=miss_solo,
        locality_exponent=locality,
    )


def _mean_miss_ratio(cache_model, work, cores):
    """Average per-thread L2 miss ratio, as the machine's event counts take it."""
    ratios = cache_model.per_thread_miss_ratios(work, ThreadPlacement(cores))
    return sum(ratios) / len(ratios)


class TestFootprint:
    def test_single_thread_footprint_is_working_set(self, cache_model):
        work = _work(3.0)
        assert cache_model.effective_footprint_mb(work, 1) == pytest.approx(3.0)

    def test_private_data_counts_per_thread(self, cache_model):
        work = _work(3.0, sharing=0.0)
        assert cache_model.effective_footprint_mb(work, 2) == pytest.approx(6.0)

    def test_shared_data_counted_once(self, cache_model):
        work = _work(3.0, sharing=1.0)
        assert cache_model.effective_footprint_mb(work, 2) == pytest.approx(3.0)

    def test_partial_sharing_between_the_extremes(self, cache_model):
        work = _work(2.0, sharing=0.5)
        footprint = cache_model.effective_footprint_mb(work, 2)
        assert 2.0 < footprint < 4.0

    def test_zero_occupants_zero_footprint(self, cache_model):
        assert cache_model.effective_footprint_mb(_work(2.0), 0) == 0.0


class TestMissRatio:
    def test_fits_in_cache_keeps_solo_ratio(self, cache_model):
        work = _work(1.0, miss_solo=0.1)
        assert cache_model.miss_ratio(work, capacity_mb=4.0, occupants=1) == pytest.approx(
            0.1, rel=0.05
        )

    def test_pressure_raises_miss_ratio(self, cache_model):
        work = _work(3.0, miss_solo=0.1)
        solo = cache_model.miss_ratio(work, 4.0, 1)
        shared = cache_model.miss_ratio(work, 4.0, 2)
        assert shared > solo

    def test_miss_ratio_bounded_by_ceiling(self, cache_model):
        work = _work(64.0, miss_solo=0.9, locality=5.0)
        ratio = cache_model.miss_ratio(work, 4.0, 4)
        assert ratio <= cache_model.max_miss_ratio

    def test_miss_ratio_bounded_below(self, cache_model):
        work = _work(0.01, miss_solo=0.0)
        ratio = cache_model.miss_ratio(work, 4.0, 1)
        assert ratio >= cache_model.min_miss_ratio

    def test_more_occupants_never_reduce_misses_for_private_data(self, cache_model):
        work = _work(2.5, sharing=0.0, miss_solo=0.15)
        ratios = [cache_model.miss_ratio(work, 4.0, n) for n in (1, 2, 3, 4)]
        assert ratios == sorted(ratios)

    def test_capacity_must_be_positive(self, cache_model):
        with pytest.raises(ValueError):
            cache_model.miss_ratio(_work(1.0), 0.0, 1)

    def test_constructor_validates_bounds(self):
        with pytest.raises(ValueError):
            CacheModel(quad_core_xeon(), min_miss_ratio=0.5, max_miss_ratio=0.4)


class TestPlacementResolution:
    def test_tight_pair_shares_one_domain(self, cache_model):
        loads = cache_model.domain_loads(_work(3.0), ThreadPlacement((0, 1)))
        assert list(loads) == [0]
        assert loads[0].occupants == 2

    def test_loose_pair_uses_two_domains(self, cache_model):
        loads = cache_model.domain_loads(_work(3.0), ThreadPlacement((0, 2)))
        assert sorted(loads) == [0, 1]
        assert all(load.occupants == 1 for load in loads.values())

    def test_tightly_coupled_pair_has_higher_miss_ratio(self, cache_model):
        work = _work(3.0, miss_solo=0.15)
        tight = _mean_miss_ratio(cache_model, work, (0, 1))
        loose = _mean_miss_ratio(cache_model, work, (0, 2))
        assert tight > loose

    def test_per_thread_ratios_align_with_cores(self, cache_model):
        work = _work(3.0)
        ratios = cache_model.per_thread_miss_ratios(work, ThreadPlacement((0, 1, 2)))
        assert len(ratios) == 3
        # Threads 0 and 1 share a cache and must see the same ratio; thread 2
        # has a private cache and must see a lower one.
        assert ratios[0] == pytest.approx(ratios[1])
        assert ratios[2] < ratios[0]

    def test_small_working_set_is_insensitive_to_placement(self, cache_model):
        work = _work(0.5, miss_solo=0.05)
        tight = _mean_miss_ratio(cache_model, work, (0, 1))
        loose = _mean_miss_ratio(cache_model, work, (0, 2))
        assert tight == pytest.approx(loose, rel=0.15)
