"""Regression tests for the PredictorBundle prediction cache.

Covers the LRU mechanics (hit/miss counts, eviction at capacity), the
quantized keying (sub-quantization jitter collapses onto one entry), the
batched cache-aware path, the guarantee that quantization never changes the
selected configuration on the seed scenarios, and the NotFittedError
behaviour of unfitted models.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ann import CrossValidationEnsemble
from repro.core import (
    ConfigurationSelector,
    LinearIPCModel,
    NotFittedError,
    PredictionCache,
    PredictorBundle,
)
from repro.machine import CONFIG_4


def _sample_for(machine, predictor, phase):
    """Noise-free sampled IPC and event rates for one phase."""
    result = machine.execute(phase.work, CONFIG_4.placement, apply_noise=False)
    rates = {
        event: result.event_counts.get(event, 0.0) / result.cycles
        for event in predictor.event_set.events
    }
    return result.ipc, rates


def _cached(bundle, ipc, rates, event_set=None):
    """One sample through the bundle's cached path, as a one-row batch."""
    return bundle.predict_batch_from_rates([(ipc, rates)], event_set=event_set)[0]


@pytest.fixture()
def fresh_bundle(trained_bundle):
    """The session bundle with a private, empty cache per test."""
    bundle = PredictorBundle(
        full=trained_bundle.full,
        reduced=trained_bundle.reduced,
        cache=PredictionCache(capacity=64),
    )
    return bundle


class TestRefitInvalidation:
    """The cache must never serve predictions of a superseded model."""

    def _linear_bundle(self, trained_bundle, machine, suite):
        """A linear-model bundle sharing the session bundle's event set."""
        from repro.core import IPCPredictor

        event_set = trained_bundle.full.event_set
        rng = np.random.default_rng(3)
        features = rng.uniform(0.1, 2.0, size=(32, event_set.num_features))
        targets = features[:, 0] * 1.5 + 0.1
        models = {
            name: LinearIPCModel().fit(features, targets + i)
            for i, name in enumerate(("1", "2a", "2b", "3"))
        }
        predictor = IPCPredictor(
            event_set=event_set,
            sample_configuration="4",
            models=models,
            kind="linear",
        )
        return PredictorBundle(full=predictor, cache=PredictionCache(capacity=16))

    def test_refit_invalidates_cached_predictions(
        self, trained_bundle, machine, suite
    ):
        bundle = self._linear_bundle(trained_bundle, machine, suite)
        phase = suite.get("SP").phases[0]
        ipc, rates = _sample_for(machine, bundle.full, phase)
        stale = _cached(bundle, ipc, rates)
        assert _cached(bundle, ipc, rates) == stale
        assert bundle.cache_info().hits == 1

        # Refit one underlying model with different targets: the cached
        # entry is now stale and must not be served.
        rng = np.random.default_rng(9)
        features = rng.uniform(0.1, 2.0, size=(32, bundle.full.event_set.num_features))
        bundle.full.models["2b"].fit(features, features[:, 1] * 40.0 + 5.0)
        fresh = _cached(bundle, ipc, rates)
        assert fresh["2b"] != pytest.approx(stale["2b"])
        assert fresh["2b"] == pytest.approx(
            bundle.full.predict_from_rates(*_quantized(bundle, ipc, rates))["2b"]
        )
        # The other models were not refit, so their predictions agree.
        assert fresh["1"] == pytest.approx(stale["1"])

    def test_refit_invalidates_the_batched_path_too(
        self, trained_bundle, machine, suite
    ):
        bundle = self._linear_bundle(trained_bundle, machine, suite)
        phases = suite.get("SP").phases[:3]
        samples = [_sample_for(machine, bundle.full, p) for p in phases]
        stale = bundle.predict_batch_from_rates(samples)
        rng = np.random.default_rng(5)
        features = rng.uniform(0.1, 2.0, size=(32, bundle.full.event_set.num_features))
        bundle.full.models["3"].fit(features, features[:, 2] * -7.0)
        fresh = bundle.predict_batch_from_rates(samples)
        for stale_row, fresh_row in zip(stale, fresh):
            assert fresh_row["3"] != pytest.approx(stale_row["3"])
            assert fresh_row["1"] == pytest.approx(stale_row["1"])

    def test_replacing_a_model_object_invalidates_the_cache(
        self, trained_bundle, machine, suite
    ):
        # A freshly trained replacement model can carry the same
        # fit_generation as its predecessor; the fingerprint must still
        # change (it tracks object identity, not just generations).
        bundle = self._linear_bundle(trained_bundle, machine, suite)
        phase = suite.get("SP").phases[0]
        ipc, rates = _sample_for(machine, bundle.full, phase)
        stale = _cached(bundle, ipc, rates)
        rng = np.random.default_rng(21)
        features = rng.uniform(0.1, 2.0, size=(32, bundle.full.event_set.num_features))
        replacement = LinearIPCModel().fit(features, features[:, 3] * 11.0)
        assert replacement.fit_generation == bundle.full.models["2a"].fit_generation
        bundle.full.models["2a"] = replacement
        fresh = _cached(bundle, ipc, rates)
        assert fresh["2a"] != pytest.approx(stale["2a"])

    def test_a_replacement_at_a_replaced_models_address_invalidates_the_cache(
        self, trained_bundle, machine, suite
    ):
        # Replace a model twice before the next prediction.  The first
        # replacement frees the model the cache was validated against, and
        # CPython hands its memory, and so its id(), to a later object of
        # the same size: a fingerprint of ids would take the second
        # replacement (same fit_generation) for the validated model.
        bundle = self._linear_bundle(trained_bundle, machine, suite)
        phase = suite.get("SP").phases[0]
        ipc, rates = _sample_for(machine, bundle.full, phase)
        stale = _cached(bundle, ipc, rates)
        validated_id = id(bundle.full.models["2a"])
        rng = np.random.default_rng(23)
        features = rng.uniform(0.1, 2.0, size=(32, bundle.full.event_set.num_features))
        coefficients = np.linspace(-0.1, 0.1, bundle.full.event_set.num_features)
        bundle.full.models["2a"] = LinearIPCModel().fit(features, features[:, 2] * 3.0)
        allocated = []
        for _ in range(100):
            replacement = LinearIPCModel(
                coefficients=coefficients, intercept=0.03, fit_generation=1
            )
            if id(replacement) == validated_id:
                break
            allocated.append(replacement)
        bundle.full.models["2a"] = replacement
        fresh = _cached(bundle, ipc, rates)
        assert fresh["2a"] != pytest.approx(stale["2a"])
        assert fresh["2a"] == pytest.approx(
            bundle.full.predict_from_rates(*_quantized(bundle, ipc, rates))["2a"]
        )

    def test_fit_generations_are_tracked(self, trained_bundle):
        model = LinearIPCModel()
        assert model.fit_generation == 0
        features = np.random.default_rng(0).uniform(size=(8, 3))
        model.fit(features, features[:, 0])
        model.fit(features, features[:, 1])
        assert model.fit_generation == 2
        # Ensemble-backed models expose the ensemble's generation; the
        # fingerprint also carries each model's object identity.
        fingerprint = trained_bundle.full.fit_fingerprint()
        assert all(generation >= 1 for _, _, generation in fingerprint)

    def test_unrelated_lookups_keep_the_cache_warm(
        self, trained_bundle, machine, suite
    ):
        # No refit: the fingerprint check must not clear the cache between
        # calls (the hit counter keeps growing).
        bundle = self._linear_bundle(trained_bundle, machine, suite)
        phase = suite.get("SP").phases[0]
        ipc, rates = _sample_for(machine, bundle.full, phase)
        _cached(bundle, ipc, rates)
        for _ in range(3):
            _cached(bundle, ipc, rates)
        assert bundle.cache_info().hits == 3
        assert bundle.cache_info().size == 1


def _quantized(bundle, ipc, rates):
    """The quantized (ipc, rates) pair the cache keys and evaluates with."""
    events = bundle.full.event_set.events
    key = bundle.cache.key(bundle.full.event_set.name, ipc, rates, events)
    _, q_ipc, q_rates = key
    return q_ipc, dict(zip(events, q_rates))


class TestCacheHitsAndMisses:
    def test_first_lookup_misses_second_hits(self, machine, suite, fresh_bundle):
        phase = suite.get("SP").phases[0]
        ipc, rates = _sample_for(machine, fresh_bundle.full, phase)
        first = _cached(fresh_bundle, ipc, rates)
        info = fresh_bundle.cache_info()
        assert (info.hits, info.misses, info.size) == (0, 1, 1)
        second = _cached(fresh_bundle, ipc, rates)
        info = fresh_bundle.cache_info()
        assert (info.hits, info.misses, info.size) == (1, 1, 1)
        assert first == second
        assert info.hit_rate == pytest.approx(0.5)

    def test_jitter_below_quantization_step_still_hits(
        self, machine, suite, fresh_bundle
    ):
        phase = suite.get("SP").phases[0]
        ipc, rates = _sample_for(machine, fresh_bundle.full, phase)
        _cached(fresh_bundle, ipc, rates)
        # Perturb every feature by ~1e-9 relative — far below the 6
        # significant digits kept by the cache key.
        jittered = {e: v * (1.0 + 1e-9) for e, v in rates.items()}
        _cached(fresh_bundle, ipc * (1.0 + 1e-9), jittered)
        info = fresh_bundle.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_distinct_phases_occupy_distinct_entries(
        self, machine, suite, fresh_bundle
    ):
        for phase in suite.get("SP").phases[:4]:
            ipc, rates = _sample_for(machine, fresh_bundle.full, phase)
            _cached(fresh_bundle, ipc, rates)
        info = fresh_bundle.cache_info()
        assert info.misses == 4
        assert info.size == 4

    def test_event_sets_do_not_collide(self, machine, suite, fresh_bundle):
        phase = suite.get("SP").phases[0]
        ipc, rates = _sample_for(machine, fresh_bundle.full, phase)
        _cached(fresh_bundle, ipc, rates, event_set="full")
        _cached(fresh_bundle, ipc, rates, event_set="reduced")
        info = fresh_bundle.cache_info()
        assert (info.misses, info.size) == (2, 2)


class TestEviction:
    def test_lru_eviction_at_capacity(self):
        cache = PredictionCache(capacity=3)
        events = ("E1",)
        keys = [
            cache.key("full", float(i), {"E1": 0.01 * (i + 1)}, events)
            for i in range(4)
        ]
        for key in keys[:3]:
            cache.put(key, {"1": 1.0})
        assert len(cache) == 3 and cache.evictions == 0
        cache.put(keys[3], {"1": 1.0})
        assert len(cache) == 3
        assert cache.evictions == 1
        assert keys[0] not in cache  # oldest entry went first
        assert keys[3] in cache

    def test_recently_used_entry_survives_eviction(self):
        cache = PredictionCache(capacity=2)
        events = ("E1",)
        a = cache.key("full", 1.0, {"E1": 0.01}, events)
        b = cache.key("full", 2.0, {"E1": 0.02}, events)
        c = cache.key("full", 3.0, {"E1": 0.03}, events)
        cache.put(a, {"1": 1.0})
        cache.put(b, {"1": 2.0})
        assert cache.get(a) is not None  # refresh a: b becomes LRU
        cache.put(c, {"1": 3.0})
        assert a in cache and c in cache and b not in cache

    def test_clear_resets_counters(self):
        cache = PredictionCache(capacity=2)
        key = cache.key("full", 1.0, {"E1": 0.01}, ("E1",))
        cache.put(key, {"1": 1.0})
        cache.get(key)
        cache.get(cache.key("full", 9.0, {"E1": 0.5}, ("E1",)))
        cache.clear()
        info = cache.info()
        assert (info.hits, info.misses, info.evictions, info.size) == (0, 0, 0, 0)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            PredictionCache(capacity=0)
        with pytest.raises(ValueError):
            PredictionCache(significant_digits=0)


class TestBatchedCachePath:
    def test_batched_path_matches_single_path_and_fills_cache(
        self, machine, suite, fresh_bundle
    ):
        predictor = fresh_bundle.full
        samples = [
            _sample_for(machine, predictor, phase)
            for phase in suite.get("SP").phases[:5]
        ]
        batched = fresh_bundle.predict_batch_from_rates(samples)
        assert fresh_bundle.cache_info().size == 5
        for (ipc, rates), predictions in zip(samples, batched):
            single = _cached(fresh_bundle, ipc, rates)  # now cached
            assert set(predictions) == set(predictor.target_configurations)
            for config in predictions:
                assert predictions[config] == pytest.approx(
                    single[config], abs=1e-12
                )
        info = fresh_bundle.cache_info()
        assert info.hits == 5  # the follow-up single calls all hit

    def test_duplicate_rows_in_one_batch_share_one_evaluation(
        self, machine, suite, fresh_bundle
    ):
        ipc, rates = _sample_for(
            machine, fresh_bundle.full, suite.get("SP").phases[0]
        )
        batched = fresh_bundle.predict_batch_from_rates([(ipc, rates)] * 3)
        assert batched[0] == batched[1] == batched[2]
        assert fresh_bundle.cache_info().size == 1


class TestQuantizationNeverChangesSelection:
    def test_selected_configuration_identical_on_seed_scenarios(
        self, machine, suite, fresh_bundle
    ):
        """Across every phase of the seed suite, ranking raw predictions and
        ranking quantized/cached predictions selects the same configuration."""
        selector = ConfigurationSelector()
        predictor = fresh_bundle.full
        checked = 0
        for workload in suite:
            for phase in workload.phases:
                ipc, rates = _sample_for(machine, predictor, phase)
                raw = predictor.predict_from_rates(ipc, rates)
                cached = _cached(fresh_bundle, ipc, rates)
                raw_best = selector.rank(
                    raw, measured_sample=(CONFIG_4.name, ipc)
                ).best
                cached_best = selector.rank(
                    cached, measured_sample=(CONFIG_4.name, ipc)
                ).best
                assert raw_best == cached_best, (
                    f"{workload.name}:{phase.name} selects {raw_best} raw "
                    f"but {cached_best} through the quantized cache"
                )
                checked += 1
        assert checked > 20  # the seed suite really was swept


class TestNotFittedErrors:
    def test_linear_model_raises_clear_not_fitted_error(self):
        model = LinearIPCModel()
        with pytest.raises(NotFittedError, match="not fitted.*fit\\(features"):
            model.predict_batch(np.zeros((2, 3)))
        with pytest.raises(NotFittedError, match="predict_batch"):
            model.predict_batch(np.zeros((2, 3)))

    def test_ensemble_raises_clear_not_fitted_error(self):
        ensemble = CrossValidationEnsemble(folds=3)
        with pytest.raises(NotFittedError, match="not fitted"):
            ensemble.predict(np.zeros(3))
        with pytest.raises(NotFittedError, match="not fitted"):
            ensemble.predict_batch(np.zeros((2, 3)))

    def test_not_fitted_error_is_a_runtime_error(self):
        # Backwards compatibility: legacy callers catching RuntimeError
        # continue to work.
        assert issubclass(NotFittedError, RuntimeError)
        with pytest.raises(RuntimeError):
            LinearIPCModel().predict_batch(np.zeros((1, 3)))
