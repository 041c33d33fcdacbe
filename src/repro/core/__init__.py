"""ACTOR: the paper's adaptive concurrency-throttling runtime.

Contains the counter-sampling machinery, the ANN-based per-configuration IPC
predictor, the configuration selector, the adaptation policies (prediction,
regression, empirical search, oracles, static) and the :class:`ACTOR`
runtime manager that ties them to the OpenMP-like runtime.
"""

from .actor import ACTOR, PolicyComparison
from .dataset import PredictionDataset, TrainingSample
from .events import (
    DEFAULT_SAMPLING_FRACTION,
    FULL_EVENT_SET,
    REDUCED_EVENT_SET,
    EventSet,
    sampling_budget,
    select_event_set,
)
from .oracle import (
    OracleTable,
    PhaseConfigMeasurement,
    build_oracle_table,
    measure_oracle,
)
from .policies import (
    AdaptationPolicy,
    EnergyAwarePolicy,
    OracleGlobalPolicy,
    OraclePhasePolicy,
    PredictionPolicy,
    SearchPolicy,
    StaticPolicy,
)
from .predictor import (
    CacheInfo,
    ConfigurationModel,
    IPCPredictor,
    LinearIPCModel,
    NotFittedError,
    PredictionCache,
    PredictorBundle,
    UnknownEventSetError,
)
from .sampler import PhaseSampler, SampleAggregate
from .selector import (
    OBJECTIVES,
    ConfigurationSelector,
    EnergyCostModel,
    RankedPrediction,
    rank_of_selection,
)
from .training import (
    ANNTrainingOptions,
    DEFAULT_TARGET_CONFIGURATIONS,
    collect_training_dataset,
    train_default_predictor,
    train_ipc_predictor,
    train_linear_predictor,
    train_predictor_bundle,
)

__all__ = [
    "ACTOR",
    "ANNTrainingOptions",
    "AdaptationPolicy",
    "CacheInfo",
    "ConfigurationModel",
    "ConfigurationSelector",
    "DEFAULT_SAMPLING_FRACTION",
    "DEFAULT_TARGET_CONFIGURATIONS",
    "EnergyAwarePolicy",
    "EnergyCostModel",
    "EventSet",
    "FULL_EVENT_SET",
    "OBJECTIVES",
    "IPCPredictor",
    "LinearIPCModel",
    "OracleGlobalPolicy",
    "OraclePhasePolicy",
    "NotFittedError",
    "OracleTable",
    "PhaseConfigMeasurement",
    "PhaseSampler",
    "PredictionCache",
    "PolicyComparison",
    "PredictionDataset",
    "PredictionPolicy",
    "PredictorBundle",
    "RankedPrediction",
    "REDUCED_EVENT_SET",
    "SampleAggregate",
    "SearchPolicy",
    "StaticPolicy",
    "TrainingSample",
    "UnknownEventSetError",
    "collect_training_dataset",
    "build_oracle_table",
    "measure_oracle",
    "rank_of_selection",
    "sampling_budget",
    "select_event_set",
    "train_default_predictor",
    "train_ipc_predictor",
    "train_linear_predictor",
    "train_predictor_bundle",
]
