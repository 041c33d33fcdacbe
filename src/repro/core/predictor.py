"""ANN-based per-configuration IPC prediction.

The prediction module of ACTOR realizes the paper's Equation 2: for every
target configuration ``T`` a separate model maps the IPC and hardware-event
rates observed on the sample configuration ``S`` (maximum concurrency) to the
IPC the phase would achieve on ``T``:

    IPC_T = F_T(IPC_S, e_1S, ..., e_nS)

Each ``F_T`` is a cross-validation ensemble of feed-forward networks
(:class:`repro.ann.ensemble.CrossValidationEnsemble`).  A linear-regression
variant with the identical interface backs the paper's prior-work baseline
[Curtis-Maury et al., ICS'06]; both are interchangeable inside the
prediction-based policy.

Every model has one prediction path, ``predict_batch``: a
``(batch, features)`` matrix in, one vector of predictions per target
configuration out, so a single call scores *all* target configurations for
*all* pending phases.  :meth:`IPCPredictor.predict_batch` scores all its
ensemble-backed targets together, in the fused forward passes of one
cached :class:`~repro.ann.ensemble.EnsembleStack` (each target's values
are bit-for-bit its own ensemble's), and asks every other model on its
own.  A one-sample prediction is a one-row batch
(:meth:`IPCPredictor.predict_from_rates`, which the per-phase policy and
the figures call).  :class:`PredictorBundle` adds an LRU cache keyed on
quantized counter rates in front of that path — repeated phases with
near-identical samples skip model evaluation entirely.

Both caches check, on every call, that they were built from the models the
predictor holds now: the same objects (compared by identity) at the same
fit generations (see :meth:`IPCPredictor.fit_fingerprint`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..ann.ensemble import CrossValidationEnsemble, EnsembleStack
from ..ann.exceptions import NotFittedError
from ..ann.network import require_batch_matrix
from .events import EventSet

__all__ = [
    "ConfigurationModel",
    "IPCPredictor",
    "PredictorBundle",
    "LinearIPCModel",
    "FrequencyRatioModel",
    "NotFittedError",
    "PredictionCache",
    "CacheInfo",
    "UnknownEventSetError",
]


class UnknownEventSetError(KeyError):
    """A bundle was asked for an event set it has no predictor for.

    A :class:`KeyError` for callers that look members up by name, and its
    own type so the adaptation service can answer such a request as a bad
    request without failing the requests batched with it.
    """

    def __str__(self) -> str:
        return str(self.args[0]) if self.args else ""


#: One entry of :meth:`IPCPredictor.fit_fingerprint`: a target's name,
#: its model object and the model's fit generation.
FitEntry = Tuple[str, "ConfigurationModel", int]


def _same_fit(a: Optional[Sequence[FitEntry]], b: Sequence[FitEntry]) -> bool:
    """Whether two fingerprints hold the same model objects at the same fits.

    Models compare by identity: a fingerprint holds its models, so no other
    object can take one's ``id()`` while it is kept.
    """
    return (
        a is not None
        and len(a) == len(b)
        and all(x[0] == y[0] and x[1] is y[1] and x[2] == y[2] for x, y in zip(a, b))
    )


class ConfigurationModel:
    """Interface of a single-target-configuration IPC model."""

    #: Incremented by every refit.  :meth:`IPCPredictor.fit_fingerprint`
    #: records it, so the bundle's shared prediction cache and the
    #: predictor's fused ensemble stack are rebuilt when any underlying
    #: model is retrained (custom models that never refit may leave this
    #: at 0).
    fit_generation: int = 0

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        """Predict the IPC of every row of a ``(batch, features)`` matrix.

        The only prediction method: one sample is a one-row batch.
        """
        raise NotImplementedError


@dataclass
class LinearIPCModel(ConfigurationModel):
    """Ordinary-least-squares IPC model (the regression baseline).

    The paper contrasts its ANN approach with its earlier multiple-linear-
    regression predictor, which achieves low overhead but needs expert,
    machine-specific feature engineering.  This implementation fits the same
    feature vector with a closed-form least-squares solution.
    """

    coefficients: Optional[np.ndarray] = None
    intercept: float = 0.0
    fit_generation: int = 0

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "LinearIPCModel":
        """Fit the model by least squares (with an intercept column)."""
        features = np.atleast_2d(np.asarray(features, dtype=float))
        targets = np.asarray(targets, dtype=float).ravel()
        if features.shape[0] != targets.shape[0]:
            raise ValueError("features and targets must have the same number of samples")
        design = np.hstack([np.ones((features.shape[0], 1)), features])
        solution, *_ = np.linalg.lstsq(design, targets, rcond=None)
        self.intercept = float(solution[0])
        self.coefficients = solution[1:]
        self.fit_generation += 1
        return self

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        """Vectorized prediction over all rows in one pass.

        Computed as an elementwise product with a per-row reduction rather
        than ``X @ coefficients``: BLAS matmul kernels pick different
        summation orders for different batch shapes, which would make
        predictions (and hence adaptation decisions) depend on batch
        composition at the last ulp.  The axis reduction's order depends
        only on the feature count, so every row is bit-identical whether
        predicted alone or inside any batch.
        """
        if self.coefficients is None:
            raise NotFittedError(
                "LinearIPCModel is not fitted; call fit(features, targets) "
                "before predict_batch"
            )
        features = require_batch_matrix(features)
        return self.intercept + (features * self.coefficients).sum(axis=1)


class FrequencyRatioModel(ConfigurationModel):
    """IPC at a lower P-state as base-placement IPC × a learned ratio.

    Learning an independent absolute model per (placement, P-state) target
    wastes the strong structure of the frequency axis: the IPC at a lower
    clock is the nominal IPC inflated by a bounded factor (between 1 and
    the frequency ratio) that tracks the phase's memory-boundedness.  This
    model composes the base placement's predictor with a model of that
    ratio, so cross-frequency orderings inherit the base's placement
    accuracy instead of accumulating two independent extrapolation errors.
    """

    def __init__(self, base: ConfigurationModel, ratio: ConfigurationModel) -> None:
        self.base = base
        self.ratio = ratio

    @property
    def fit_generation(self) -> int:
        return int(getattr(self.base, "fit_generation", 0)) + int(
            getattr(self.ratio, "fit_generation", 0)
        )

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        features = require_batch_matrix(features)
        base = np.asarray(self.base.predict_batch(features), dtype=float)
        ratio = np.asarray(self.ratio.predict_batch(features), dtype=float)
        return base * ratio


class _EnsembleModel(ConfigurationModel):
    """Adapter exposing a cross-validation ensemble as a ConfigurationModel."""

    def __init__(self, ensemble: CrossValidationEnsemble) -> None:
        self.ensemble = ensemble

    @property
    def fit_generation(self) -> int:
        return self.ensemble.fit_generation

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        # the ensemble itself enforces the 2-D contract
        return np.asarray(self.ensemble.predict_batch(features), dtype=float).ravel()


@dataclass
class IPCPredictor:
    """Per-target-configuration IPC predictor.

    Attributes
    ----------
    event_set:
        Feature layout (sampled IPC + event rates) the models expect.
    sample_configuration:
        Name of the configuration the features must be observed on.
    models:
        One :class:`ConfigurationModel` per target configuration name.
    kind:
        ``"ann"`` or ``"linear"`` — informational label used in reports.
    """

    event_set: EventSet
    sample_configuration: str
    models: Dict[str, ConfigurationModel] = field(default_factory=dict)
    kind: str = "ann"
    #: The fused stack of the ensemble-backed targets: the fingerprint it
    #: was built at, the targets' names and the stack (see predict_batch).
    _fused: Optional[Tuple[Tuple[FitEntry, ...], List[str], EnsembleStack]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def from_ensembles(
        cls,
        event_set: EventSet,
        sample_configuration: str,
        ensembles: Mapping[str, CrossValidationEnsemble],
        kind: str = "ann",
    ) -> "IPCPredictor":
        """Build a predictor from per-configuration ensembles."""
        return cls(
            event_set=event_set,
            sample_configuration=sample_configuration,
            models={name: _EnsembleModel(e) for name, e in ensembles.items()},
            kind=kind,
        )

    # ------------------------------------------------------------------
    @property
    def target_configurations(self) -> List[str]:
        """Names of the configurations this predictor can score."""
        return sorted(self.models)

    def fit_fingerprint(self) -> Tuple[FitEntry, ...]:
        """Every target's name, model object and fit generation, in stable order.

        A fingerprint changes whenever any underlying model is refit *or
        replaced by a different model object*, so caches of this
        predictor's outputs can detect staleness either way.  It holds the
        model objects themselves, compared by identity: a replacement
        cannot pass for a model the fingerprint still holds, even one that
        was replaced in turn.
        """
        return tuple(
            [
                (name, model, getattr(model, "fit_generation", 0))
                for name, model in sorted(self.models.items())
            ]
        )

    def _fused_targets(self) -> Tuple[List[str], EnsembleStack]:
        """The ensemble-backed targets' names and their current stack.

        The stack is rebuilt whenever :meth:`fit_fingerprint` changes: any
        model refit, replaced, added or removed.
        """
        fingerprint = self.fit_fingerprint()
        if self._fused is None or not _same_fit(self._fused[0], fingerprint):
            ensembles = {
                name: model.ensemble
                for name, model in self.models.items()
                if isinstance(model, _EnsembleModel)
            }
            self._fused = (fingerprint, list(ensembles), EnsembleStack(list(ensembles.values())))
        return self._fused[1], self._fused[2]

    def feature_vector(
        self, ipc_sample: float, rates: Mapping[str, float]
    ) -> np.ndarray:
        """Assemble the feature vector from a sampled IPC and event rates.

        Events missing from ``rates`` (possible when the sampling budget did
        not cover the full multiplexing schedule) are filled with zero; the
        standard scaler inside each ensemble then maps them to a neutral
        value relative to the training distribution.
        """
        values = [float(ipc_sample)]
        for event in self.event_set.events:
            values.append(float(rates.get(event, 0.0)))
        return np.array(values, dtype=float)

    def predict_batch(self, features: np.ndarray) -> Dict[str, np.ndarray]:
        """Score every target configuration for every pending feature row.

        Parameters
        ----------
        features:
            ``(batch, num_features)`` matrix — one row per pending phase
            sample.

        Returns
        -------
        dict
            Configuration name to ``(batch,)`` vector of predicted IPCs, in
            the order of :attr:`models`.  Every ensemble-backed target is
            scored in one cached :class:`~repro.ann.ensemble.EnsembleStack`
            (fused forward passes over all of them), and each of its
            vectors equals its own model's ``predict_batch(features)`` bit
            for bit; every other model is asked on its own.  An ANN row's
            prediction can differ in the last bits with the rows batched
            beside it (BLAS picks its kernel by batch shape), so
            ``predict_batch(F)[cfg][i]`` equals the one-row
            ``predict_batch(F[i:i+1])[cfg][0]`` only up to floating-point
            accumulation order; linear models are bit-identical either way.
        """
        features = require_batch_matrix(features)
        if features.shape[1] != self.event_set.num_features:
            raise ValueError(
                f"expected {self.event_set.num_features} features, "
                f"got {features.shape[1]}"
            )
        names, stack = self._fused_targets()
        fused = dict(zip(names, stack.predict(features)))
        return {
            name: fused[name] if name in fused else model.predict_batch(features)
            for name, model in self.models.items()
        }

    def predict_from_rates(
        self, ipc_sample: float, rates: Mapping[str, float]
    ) -> Dict[str, float]:
        """Predict per-configuration IPCs for one sample, as a one-row batch."""
        batched = self.predict_batch(self.feature_vector(ipc_sample, rates)[None, :])
        return {name: float(column[0]) for name, column in batched.items()}


@dataclass(frozen=True)
class CacheInfo:
    """Snapshot of a :class:`PredictionCache`'s counters."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PredictionCache:
    """LRU cache of per-configuration predictions keyed on quantized features.

    Online counter samples are noisy, so exact floating-point feature vectors
    almost never repeat — but samples of the same phase cluster tightly.
    Quantizing the sampled IPC and every event rate to a fixed number of
    significant digits collapses each cluster onto one key, turning repeated
    phases into cache hits that skip ensemble evaluation entirely.  The
    quantization step (default six significant digits) is far below
    measurement noise, so it never changes which configuration is selected.

    Parameters
    ----------
    capacity:
        Maximum number of cached entries; the least recently used entry is
        evicted when the cache is full.
    significant_digits:
        Significant digits kept by :meth:`quantize`.
    """

    def __init__(self, capacity: int = 4096, significant_digits: int = 6) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if significant_digits < 1:
            raise ValueError("significant_digits must be >= 1")
        self.capacity = capacity
        self.significant_digits = significant_digits
        self._entries: "OrderedDict[Tuple, Dict[str, float]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def quantize(self, value: float) -> float:
        """Round ``value`` to the cache's number of significant digits."""
        if value == 0.0 or not np.isfinite(value):
            return float(value)
        return float(f"{value:.{self.significant_digits - 1}e}")

    def key(
        self, event_set_name: str, ipc_sample: float, rates: Mapping[str, float],
        events: Sequence[str],
    ) -> Tuple:
        """Cache key: event-set name plus the quantized feature values."""
        return (
            event_set_name,
            self.quantize(float(ipc_sample)),
            tuple(self.quantize(float(rates.get(e, 0.0))) for e in events),
        )

    # ------------------------------------------------------------------
    def get(self, key: Tuple) -> Optional[Dict[str, float]]:
        """Look up ``key``, refreshing its recency; counts a hit or miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return dict(entry)

    def put(self, key: Tuple, predictions: Mapping[str, float]) -> None:
        """Insert ``key``, evicting the least recently used entry if full."""
        if key in self._entries:
            self._entries.move_to_end(key)
        elif len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = dict(predictions)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        return key in self._entries

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        self._entries.clear()
        self.hits = self.misses = self.evictions = 0

    def info(self) -> CacheInfo:
        """Current counters as an immutable snapshot."""
        return CacheInfo(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            size=len(self._entries),
            capacity=self.capacity,
        )


@dataclass
class PredictorBundle:
    """Full-event and reduced-event predictors packaged together.

    The paper uses the full twelve-event model when the sampling budget
    allows and a reduced-event model for applications with very few
    iterations; :class:`~repro.core.policies.PredictionPolicy` picks the
    right member per phase via :meth:`for_event_set`.

    The bundle also fronts both members with a shared
    :class:`PredictionCache`: :meth:`predict_batch_from_rates` quantizes
    the sampled rates, serves repeats from the cache, and scores all the
    distinct misses for all target configurations in a single
    :meth:`IPCPredictor.predict_batch` call.

    Cached entries are only valid for the models that produced them: the
    cached path fingerprints the members' models and fit generations and
    drops the whole cache when any underlying model has been refit or
    replaced since the entries were stored (see
    :meth:`IPCPredictor.fit_fingerprint`).
    """

    full: IPCPredictor
    reduced: Optional[IPCPredictor] = None
    cache: PredictionCache = field(default_factory=PredictionCache, repr=False)
    _cache_fingerprint: Optional[Tuple[FitEntry, ...]] = field(
        default=None, repr=False, compare=False
    )

    def for_event_set(self, name: str) -> IPCPredictor:
        """Return the member trained for the event set called ``name``."""
        if name == self.full.event_set.name:
            return self.full
        if self.reduced is not None and name == self.reduced.event_set.name:
            return self.reduced
        raise UnknownEventSetError(f"no predictor available for event set {name!r}")

    @property
    def sample_configuration(self) -> str:
        """Sample configuration shared by the members."""
        return self.full.sample_configuration

    @property
    def target_configurations(self) -> List[str]:
        """Target configurations scored by the bundle."""
        return self.full.target_configurations

    # ------------------------------------------------------------------
    # cached prediction path
    # ------------------------------------------------------------------
    def _resolve(self, event_set: Optional[str]) -> IPCPredictor:
        return self.full if event_set is None else self.for_event_set(event_set)

    def _current_fingerprint(self) -> Tuple[FitEntry, ...]:
        fingerprint = self.full.fit_fingerprint()
        if self.reduced is None:
            return fingerprint
        return fingerprint + tuple(
            (f"reduced/{name}", model, generation)
            for name, model, generation in self.reduced.fit_fingerprint()
        )

    def _ensure_cache_valid(self) -> None:
        """Drop cached predictions if any underlying model was refit or replaced."""
        fingerprint = self._current_fingerprint()
        if not _same_fit(self._cache_fingerprint, fingerprint):
            if self._cache_fingerprint is not None and len(self.cache):
                self.cache.clear()
            self._cache_fingerprint = fingerprint

    def predict_batch_from_rates(
        self,
        samples: Sequence[Tuple[float, Mapping[str, float]]],
        event_set: Optional[str] = None,
    ) -> List[Dict[str, float]]:
        """Score all target configurations for all pending phases at once.

        Parameters
        ----------
        samples:
            One ``(ipc_sample, rates)`` pair per pending phase.

        Returns
        -------
        list of dict
            Per-sample predictions, in input order.  Cache hits (including
            duplicates within the batch) are served without model
            evaluation; all remaining distinct rows go through one batched
            forward pass.  Rows are scored from their quantized values
            (see :class:`PredictionCache`), so an entry does not depend on
            which raw sample filled it; it can depend in the last bits on
            the other misses scored in the same pass (see
            :meth:`IPCPredictor.predict_batch`).
        """
        predictor = self._resolve(event_set)
        self._ensure_cache_valid()
        events = predictor.event_set.events
        keys = [
            self.cache.key(predictor.event_set.name, ipc, rates, events)
            for ipc, rates in samples
        ]
        results: List[Optional[Dict[str, float]]] = [self.cache.get(k) for k in keys]
        pending: Dict[Tuple, List[int]] = {}
        for index, (key, hit) in enumerate(zip(keys, results)):
            if hit is None:
                pending.setdefault(key, []).append(index)
        if pending:
            matrix = np.array(
                [(key[1], *key[2]) for key in pending], dtype=float
            )
            batched = predictor.predict_batch(matrix)
            names = list(batched)
            columns = np.column_stack([batched[name] for name in names])
            for row, (key, indices) in enumerate(pending.items()):
                predictions = dict(zip(names, columns[row].tolist()))
                self.cache.put(key, predictions)
                for index in indices:
                    results[index] = dict(predictions)
        return results  # type: ignore[return-value]

    def cache_info(self) -> CacheInfo:
        """Hit/miss/eviction counters of the shared prediction cache."""
        return self.cache.info()
