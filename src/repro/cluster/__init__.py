"""Datacenter layer: heterogeneous fleets under a global power cap.

The ROADMAP's cluster-scale extension of the paper's single-node
adaptation: named :class:`Node` machines registered in a :class:`Fleet`,
scheduled by a :class:`FleetScheduler` that places jobs and redistributes
a hard global power budget to where it buys the most throughput, plus a
scenario layer (:mod:`repro.cluster.scenarios`) for membership churn,
failures, stragglers and cap steps.
"""

from .node import Node, NodeSweep
from .registry import Fleet
from .scenarios import (
    CapStep,
    NodeFailure,
    NodeJoin,
    NodeLeave,
    RoundRecord,
    ScenarioReport,
    ScenarioRound,
    StragglerOnset,
    run_scenario,
)
from .scheduler import (
    FleetJob,
    FleetSchedule,
    FleetScheduler,
    JobDecision,
    NodeAllocation,
    PowerCapInfeasibleError,
    UpgradeStep,
    jobs_from_workload,
)

__all__ = [
    "Node",
    "NodeSweep",
    "Fleet",
    "FleetJob",
    "JobDecision",
    "NodeAllocation",
    "UpgradeStep",
    "FleetSchedule",
    "FleetScheduler",
    "PowerCapInfeasibleError",
    "jobs_from_workload",
    "NodeJoin",
    "NodeLeave",
    "NodeFailure",
    "StragglerOnset",
    "CapStep",
    "ScenarioRound",
    "RoundRecord",
    "ScenarioReport",
    "run_scenario",
]
