"""Unit tests for the per-core CPI accounting model."""

from __future__ import annotations

import pytest

from repro.machine import CPUModel, WorkRequest, quad_core_xeon


@pytest.fixture(scope="module")
def cpu():
    return CPUModel()


@pytest.fixture(scope="module")
def core():
    return quad_core_xeon().core(0)


def _work(**kwargs):
    defaults = dict(instructions=1e8, mem_fraction=0.4, l1_miss_rate=0.1, base_cpi=0.6)
    defaults.update(kwargs)
    return WorkRequest(**defaults)


class TestBreakdown:
    def test_total_is_sum_of_components(self, cpu, core):
        bd = cpu.breakdown(_work(), core, 0.3, 150.0, 14.0)
        assert bd.total == pytest.approx(bd.base + bd.l1_miss + bd.l2_miss + bd.branch)

    def test_ipc_is_inverse_of_cpi(self, cpu, core):
        bd = cpu.breakdown(_work(), core, 0.3, 150.0, 14.0)
        assert bd.ipc == pytest.approx(1.0 / bd.total)

    def test_perfect_memory_gives_base_plus_branch(self, cpu, core):
        work = _work(l1_miss_rate=0.0, branch_fraction=0.0)
        bd = cpu.breakdown(work, core, 0.0, 150.0, 14.0)
        assert bd.total == pytest.approx(work.base_cpi)

    def test_higher_miss_ratio_raises_cpi(self, cpu, core):
        low = cpu.breakdown(_work(), core, 0.1, 150.0, 14.0).total
        high = cpu.breakdown(_work(), core, 0.8, 150.0, 14.0).total
        assert high > low

    def test_higher_latency_raises_cpi(self, cpu, core):
        near = cpu.breakdown(_work(), core, 0.5, 100.0, 14.0).total
        far = cpu.breakdown(_work(), core, 0.5, 400.0, 14.0).total
        assert far > near

    def test_bandwidth_sensitivity_scales_memory_component(self, cpu, core):
        normal = cpu.breakdown(_work(bandwidth_sensitivity=1.0), core, 0.5, 200.0, 14.0)
        sensitive = cpu.breakdown(_work(bandwidth_sensitivity=1.3), core, 0.5, 200.0, 14.0)
        assert sensitive.l2_miss == pytest.approx(normal.l2_miss * 1.3)

    def test_stall_fraction_between_zero_and_one(self, cpu, core):
        bd = cpu.breakdown(_work(), core, 0.5, 300.0, 14.0)
        assert 0.0 < bd.stall_fraction < 1.0

    def test_memory_cpi_is_l1_plus_l2(self, cpu, core):
        bd = cpu.breakdown(_work(), core, 0.5, 300.0, 14.0)
        assert bd.memory_cpi == pytest.approx(bd.l1_miss + bd.l2_miss)

    def test_invalid_miss_ratio_rejected(self, cpu, core):
        with pytest.raises(ValueError):
            cpu.breakdown(_work(), core, 1.5, 150.0, 14.0)

    def test_negative_latency_rejected(self, cpu, core):
        with pytest.raises(ValueError):
            cpu.breakdown(_work(), core, 0.5, -1.0, 14.0)


class TestConstructorValidation:
    def test_rejects_bad_misprediction_rate(self):
        with pytest.raises(ValueError):
            CPUModel(branch_misprediction_rate=1.5)

    def test_rejects_negative_branch_penalty(self):
        with pytest.raises(ValueError):
            CPUModel(branch_penalty_cycles=-1.0)

    def test_rejects_bad_exposed_fraction(self):
        with pytest.raises(ValueError):
            CPUModel(l2_hit_exposed_fraction=2.0)
