"""Unit tests for the phase work characterization."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.machine import WorkRequest


class TestWorkRequestValidation:
    def test_defaults_are_valid(self):
        work = WorkRequest(instructions=1e8)
        assert work.instructions == 1e8

    def test_rejects_non_positive_instructions(self):
        with pytest.raises(ValueError):
            WorkRequest(instructions=0)
        with pytest.raises(ValueError):
            WorkRequest(instructions=-5)

    @pytest.mark.parametrize(
        "field",
        [
            "mem_fraction",
            "flop_fraction",
            "branch_fraction",
            "l1_miss_rate",
            "l2_miss_rate_solo",
            "sharing_fraction",
            "serial_fraction",
            "prefetch_friendliness",
        ],
    )
    def test_fraction_fields_must_be_in_unit_interval(self, field):
        with pytest.raises(ValueError):
            WorkRequest(instructions=1e8, **{field: 1.5})
        with pytest.raises(ValueError):
            WorkRequest(instructions=1e8, **{field: -0.1})

    def test_rejects_bad_working_set(self):
        with pytest.raises(ValueError):
            WorkRequest(instructions=1e8, working_set_mb=0.0)

    def test_rejects_negative_locality(self):
        with pytest.raises(ValueError):
            WorkRequest(instructions=1e8, locality_exponent=-1.0)

    def test_rejects_imbalance_below_one(self):
        with pytest.raises(ValueError):
            WorkRequest(instructions=1e8, load_imbalance=0.9)

    def test_rejects_negative_barriers(self):
        with pytest.raises(ValueError):
            WorkRequest(instructions=1e8, barriers=-1)

    def test_rejects_non_positive_base_cpi(self):
        with pytest.raises(ValueError):
            WorkRequest(instructions=1e8, base_cpi=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", [f.name for f in fields(WorkRequest)])
    def test_rejects_non_finite_fields(self, field, value):
        # NaN slips through every ordered range check, so a NaN phase
        # would otherwise be simulated into NaN cells.
        kwargs = {"instructions": 1e8, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            WorkRequest(**kwargs)


class TestWorkRequestDerived:
    def test_memory_flop_branch_instruction_counts(self):
        work = WorkRequest(
            instructions=1e9, mem_fraction=0.4, flop_fraction=0.3, branch_fraction=0.1
        )
        assert work.memory_instructions == pytest.approx(4e8)
        assert work.flop_instructions == pytest.approx(3e8)
        assert work.branch_instructions == pytest.approx(1e8)

    def test_scaled_multiplies_instructions_only(self):
        work = WorkRequest(instructions=1e8, mem_fraction=0.4)
        scaled = work.scaled(2.5)
        assert scaled.instructions == pytest.approx(2.5e8)
        assert scaled.mem_fraction == work.mem_fraction

    def test_scaled_rejects_non_positive_factor(self):
        with pytest.raises(ValueError):
            WorkRequest(instructions=1e8).scaled(0.0)

    def test_with_noise_zero_sigma_returns_same_object(self):
        work = WorkRequest(instructions=1e8)
        rng = np.random.default_rng(0)
        assert work.with_noise(rng, 0.0) is work

    def test_with_noise_changes_instructions_within_bounds(self):
        work = WorkRequest(instructions=1e8)
        rng = np.random.default_rng(0)
        noisy = work.with_noise(rng, 0.05)
        assert noisy.instructions != work.instructions
        assert 0.2 * 1e8 <= noisy.instructions <= 2.0 * 1e8

    def test_feature_dict_round_trips_values(self):
        work = WorkRequest(instructions=1e8, working_set_mb=3.3, barriers=7)
        features = work.feature_dict()
        assert features["instructions"] == pytest.approx(1e8)
        assert features["working_set_mb"] == pytest.approx(3.3)
        assert features["barriers"] == pytest.approx(7.0)
        assert len(features) == 16

    def test_frozen(self):
        work = WorkRequest(instructions=1e8)
        with pytest.raises(Exception):
            work.instructions = 5.0  # type: ignore[misc]
