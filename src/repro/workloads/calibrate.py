"""Calibration helpers for synthetic workloads.

The NAS benchmark models in :mod:`repro.workloads.nas` are specified in two
parts: the *shape* of each phase (instruction mix, locality, bandwidth
sensitivity, synchronization) and the *size* of the application (how many
seconds it runs for at a given configuration).  The shape determines how the
phase scales across threading configurations; the size only scales every
phase's instruction count.

This module computes the instruction counts: given a set of phases with
relative time weights and a target single-thread (configuration ``1``)
execution time, it executes each phase shape once on a noise-free machine to
measure its seconds-per-instruction at configuration ``1`` and solves for the
per-invocation instruction counts that make the weights and the total come
out right.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

from ..machine import CONFIG_1, Machine
from ..machine.work import WorkRequest
from .base import PhaseSpec

__all__ = ["seconds_per_instruction", "calibrate_phases", "calibration_machine"]

#: Instruction count used to probe a phase shape; large enough that the
#: per-invocation constant costs (barriers, serial prologue) are negligible.
_PROBE_INSTRUCTIONS = 2.0e9


def calibration_machine() -> Machine:
    """Return the deterministic machine used for workload calibration."""
    return Machine(noise_sigma=0.0)


def seconds_per_instruction(
    work: WorkRequest, machine: Machine | None = None
) -> float:
    """Seconds per instruction of ``work`` at configuration ``1``.

    The probe uses a large instruction count so that barrier and serial
    constants contribute negligibly, then divides time by instructions.
    """
    machine = machine or calibration_machine()
    probe = replace(work, instructions=_PROBE_INSTRUCTIONS)
    # Through the memoized grid path: a one-cell call takes the scalar
    # short-circuit (bit-identical to `machine.execute`), and the probe cell
    # lands in the machine's execution memo — so a machine seeded from a
    # memo store recalibrates a suite without re-simulating a single probe
    # (see `run_cells(..., memo_store=...)`).
    grid = machine.execute_grid([probe], [CONFIG_1])
    return float(grid.time_seconds[0, 0]) / probe.instructions


def calibrate_phases(
    phase_shapes: Sequence[Tuple[str, WorkRequest, float]],
    target_seconds_config1: float,
    timesteps: int,
    machine: Machine | None = None,
    invocations: Dict[str, int] | None = None,
    variability: Dict[str, float] | None = None,
) -> List[PhaseSpec]:
    """Turn phase shapes plus time weights into fully sized :class:`PhaseSpec`.

    Parameters
    ----------
    phase_shapes:
        Sequence of ``(name, shape, weight)`` where ``shape`` is a
        :class:`WorkRequest` whose ``instructions`` field is a placeholder
        and ``weight`` is the fraction of configuration-``1`` execution time
        the phase should account for.  Weights are normalized internally.
    target_seconds_config1:
        Desired total execution time of the application at configuration
        ``1`` (the paper's Figure 1 single-thread bar).
    timesteps:
        Number of application timesteps the phases will be executed for.
    machine:
        Calibration machine; a deterministic default is used when omitted.
    invocations:
        Optional per-phase invocations per timestep (default 1).
    variability:
        Optional per-phase relative instance-to-instance variability.
    """
    if target_seconds_config1 <= 0:
        raise ValueError("target_seconds_config1 must be positive")
    if timesteps < 1:
        raise ValueError("timesteps must be >= 1")
    if not phase_shapes:
        raise ValueError("at least one phase shape is required")
    machine = machine or calibration_machine()
    invocations = invocations or {}
    variability = variability or {}

    total_weight = sum(weight for _, _, weight in phase_shapes)
    if total_weight <= 0:
        raise ValueError("phase weights must sum to a positive value")

    specs: List[PhaseSpec] = []
    for name, shape, weight in phase_shapes:
        if weight < 0:
            raise ValueError(f"phase {name} has negative weight")
        n_invocations = invocations.get(name, 1)
        spi = seconds_per_instruction(shape, machine)
        phase_seconds = target_seconds_config1 * (weight / total_weight)
        per_invocation_seconds = phase_seconds / (timesteps * n_invocations)
        instructions = max(1.0, per_invocation_seconds / spi)
        specs.append(
            PhaseSpec(
                name=name,
                work=replace(shape, instructions=instructions),
                invocations_per_timestep=n_invocations,
                variability=variability.get(name, 0.0),
            )
        )
    return specs
