"""Simulated multicore platform substrate.

This package replaces the paper's physical quad-core Intel Xeon QX6600,
its PAPI performance counters and its Watts Up Pro power meter with an
analytical, deterministic simulator.  See ``DESIGN.md`` for the mapping
between paper components and modules.

The main entry points are:

* :class:`repro.machine.Machine` — execute a phase under a placement and
  obtain time, IPC, hardware event counts, power and energy;
* :func:`repro.machine.quad_core_xeon` — the paper's topology;
* :data:`repro.machine.STANDARD_CONFIGURATIONS` — the paper's five threading
  configurations (1, 2a, 2b, 3, 4);
* :class:`repro.machine.PerformanceCounterFile` — the 2-register PAPI-like
  measurement constraint.
"""

from .caches import CacheDomainLoad, CacheModel
from .counters import (
    ALWAYS_AVAILABLE,
    EVENT_NAMES,
    EVENTS,
    PREDICTION_EVENTS,
    REDUCED_PREDICTION_EVENTS,
    CounterReading,
    EventDef,
    PerformanceCounterFile,
    event_by_name,
    event_pairs,
)
from .cpu import CPIBreakdown, CPIBreakdownBatch, CPUModel
from .dvfs import PState, PStateTable, default_pstate_table, format_frequency
from .fixedpoint import solve_fixed_point_scalar, solve_fixed_point_vector
from .machine import (
    BatchExecutionResult,
    ExecutionMemoInfo,
    ExecutionMemoSnapshot,
    ExecutionResult,
    GridExecutionResult,
    Machine,
)
from .memory import BusState, BusStateBatch, MemoryModel
from .placement import (
    CONFIG_1,
    CONFIG_2A,
    CONFIG_2B,
    CONFIG_3,
    CONFIG_4,
    STANDARD_CONFIG_NAMES,
    Configuration,
    ThreadPlacement,
    configuration_by_name,
    dvfs_configurations,
    enumerate_configurations,
    heterogeneous_label,
    heterogeneous_ladders,
    placements_equivalent,
    standard_configurations,
)
from .power import (
    PowerBreakdown,
    PowerBreakdownBatch,
    PowerModel,
    PowerParameters,
    dvfs_power_parameters,
)
from .topology import (
    TOPOLOGY_BUILDERS,
    CacheDescriptor,
    CoreDescriptor,
    Topology,
    dual_socket_xeon,
    many_core,
    quad_core_xeon,
    register_topology,
    topology_by_name,
)
from .work import WorkRequest

#: The paper's five threading configurations in canonical order.
STANDARD_CONFIGURATIONS = standard_configurations()

__all__ = [
    "ALWAYS_AVAILABLE",
    "BatchExecutionResult",
    "BusState",
    "BusStateBatch",
    "CONFIG_1",
    "CONFIG_2A",
    "CONFIG_2B",
    "CONFIG_3",
    "CONFIG_4",
    "CPIBreakdown",
    "CPIBreakdownBatch",
    "CPUModel",
    "CacheDescriptor",
    "CacheDomainLoad",
    "CacheModel",
    "Configuration",
    "CoreDescriptor",
    "CounterReading",
    "EVENTS",
    "EVENT_NAMES",
    "EventDef",
    "ExecutionMemoInfo",
    "ExecutionMemoSnapshot",
    "ExecutionResult",
    "GridExecutionResult",
    "Machine",
    "MemoryModel",
    "PState",
    "PStateTable",
    "PerformanceCounterFile",
    "PowerBreakdown",
    "PowerBreakdownBatch",
    "PowerModel",
    "PowerParameters",
    "PREDICTION_EVENTS",
    "REDUCED_PREDICTION_EVENTS",
    "STANDARD_CONFIGURATIONS",
    "STANDARD_CONFIG_NAMES",
    "ThreadPlacement",
    "TOPOLOGY_BUILDERS",
    "Topology",
    "WorkRequest",
    "configuration_by_name",
    "default_pstate_table",
    "dual_socket_xeon",
    "dvfs_configurations",
    "dvfs_power_parameters",
    "enumerate_configurations",
    "event_by_name",
    "event_pairs",
    "format_frequency",
    "heterogeneous_label",
    "heterogeneous_ladders",
    "many_core",
    "placements_equivalent",
    "quad_core_xeon",
    "register_topology",
    "topology_by_name",
    "solve_fixed_point_scalar",
    "solve_fixed_point_vector",
    "standard_configurations",
]
