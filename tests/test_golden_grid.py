"""Golden pinned-seed regressions locking the grid-rewired pipelines.

The literal values below were originally captured from the pre-grid
(one sweep per phase) implementations of :func:`build_oracle_table`
and :func:`collect_training_dataset` at pinned seeds, and re-pinned under
the default safeguarded Newton fixed-point solver at its 1e-9 tolerance
(PR 8) after the newton-vs-bisect equivalence suite in
``tests/test_fixed_point.py`` proved both solvers agree to ≤ 1e-9.  The
grid engine must keep reproducing them to floating-point accuracy: any
drift here means the vectorized kernel, the solver, the small-batch scalar
short-circuit or the memo changed *values*, not just speed — which
silently corrupts oracle tables, training data and every experiment built
on them.
"""

from __future__ import annotations

import pytest

from repro.core import build_oracle_table, collect_training_dataset
from repro.machine import (
    Machine,
    dvfs_configurations,
    standard_configurations,
)
from repro.workloads import nas_suite

#: The pre-rewiring reference values are exact captures; 1e-12 absorbs the
#: last-ulp freedom between the scalar path and the vectorized kernel.
_RTOL = 1e-12


@pytest.fixture(scope="module")
def golden_machine():
    return Machine(noise_sigma=0.0)


@pytest.fixture(scope="module")
def golden_suite():
    return nas_suite(machine=Machine(noise_sigma=0.0), variability=0.0)


class TestGoldenOracleTable:
    #: (phase, configuration) -> (time_seconds, ipc, power_watts), captured
    #: from the per-phase batch implementation on the CG benchmark.
    GOLDEN_CG = {
        ("cg.spmv", "1"): (0.9920000000000002, 0.31389986635543277, 125.88461804367378),
        ("cg.spmv", "2a"): (0.8125348732592743, 0.38323196251527997, 130.87751313522404),
        ("cg.spmv", "4"): (0.7978193424843558, 0.39030139302999994, 137.3560198970671),
        ("cg.precond", "1"): (0.19199999999999998, 1.5016679025393505, 127.39926490611947),
        ("cg.precond", "2a"): (0.09832203282920195, 2.9324139834971934, 138.83450655564567),
        ("cg.precond", "4"): (0.04982075844330417, 5.78717746637674, 163.6726903541877),
    }

    def test_cg_oracle_cells_match_pre_grid_capture(
        self, golden_machine, golden_suite
    ):
        table = build_oracle_table(golden_machine, golden_suite.get("CG"))
        assert table.phase_names() == ["cg.spmv", "cg.axpy", "cg.dot", "cg.precond"]
        for (phase, config), (time_s, ipc, watts) in self.GOLDEN_CG.items():
            m = table.measurement(phase, config)
            assert m.time_seconds == pytest.approx(time_s, rel=_RTOL)
            assert m.ipc == pytest.approx(ipc, rel=_RTOL)
            assert m.power_watts == pytest.approx(watts, rel=_RTOL)

    def test_cg_application_metrics_match_pre_grid_capture(
        self, golden_machine, golden_suite
    ):
        table = build_oracle_table(golden_machine, golden_suite.get("CG"))
        app = table.application_metrics("4")
        assert app["time_seconds"] == pytest.approx(84.79275025325617, rel=_RTOL)
        assert app["energy_joules"] == pytest.approx(11839.375922370213, rel=_RTOL)
        assert app["power_watts"] == pytest.approx(139.62721915504284, rel=_RTOL)
        assert app["ed2"] == pytest.approx(85122869.26695846, rel=_RTOL)

    def test_dvfs_cross_product_cell_matches_pre_grid_capture(
        self, golden_machine, golden_suite
    ):
        cross = dvfs_configurations(
            standard_configurations(golden_machine.topology),
            golden_machine.pstate_table,
        )
        table = build_oracle_table(golden_machine, golden_suite.get("IS"), cross)
        m = table.measurement(table.phase_names()[0], "2b@1.6GHz")
        assert m.time_seconds == pytest.approx(0.21461306657620854, rel=_RTOL)
        assert m.ipc == pytest.approx(0.6072914601830061, rel=_RTOL)
        assert m.power_watts == pytest.approx(123.2446014972474, rel=_RTOL)


class TestGoldenTrainingDataset:
    GOLDEN_FIRST_FEATURES = (
        0.3919471261591636,
        0.0359121453599954,
        0.18490227756854835,
        0.028619801184159514,
        0.03270981519410935,
        0.030531039227419177,
        0.030254180398035443,
        3.7756254823204993,
        0.0009772832791180752,
        0.025976335283156786,
        0.0005125178397584178,
        0.11463759901585473,
        0.18594614163000228,
    )
    GOLDEN_FIRST_TARGETS = {
        "1": 0.31389986635543277,
        "2a": 0.38323196251527997,
        "2b": 0.422945474354177,
        "3": 0.40314315869086986,
    }

    def _dataset(self, machine, suite):
        return collect_training_dataset(
            machine,
            [suite.get("CG"), suite.get("MG")],
            samples_per_phase=2,
            measurement_noise=0.10,
            seed=7,
        )

    def test_dataset_matches_pre_grid_capture(self, golden_machine, golden_suite):
        dataset = self._dataset(golden_machine, golden_suite)
        assert len(dataset) == 18
        first = dataset.samples[0]
        assert first.phase_id == "CG:cg.spmv"
        assert first.features == pytest.approx(
            self.GOLDEN_FIRST_FEATURES, rel=_RTOL
        )
        for config, ipc in self.GOLDEN_FIRST_TARGETS.items():
            assert first.targets[config] == pytest.approx(ipc, rel=_RTOL)
        last = dataset.samples[-1]
        assert last.phase_id == "MG:mg.norm2u3"
        assert last.targets["3"] == pytest.approx(2.4162469490210774, rel=_RTOL)

    def test_sample_features_ignore_foreign_pstate_tables(self, golden_suite):
        """Sample cells always run at the placement's true nominal clock.

        A DVFS target space whose "nominal" differs from the topology clock
        must not alias the sample column onto one of its columns — the
        pre-grid code measured the sample at the bare placement, and the
        grid rewiring must preserve that.
        """
        from repro.machine.dvfs import PState, PStateTable

        def features(pstate_table):
            dataset = collect_training_dataset(
                Machine(noise_sigma=0.0),
                [golden_suite.get("CG")],
                samples_per_phase=1,
                measurement_noise=0.0,
                seed=7,
                pstate_table=pstate_table,
            )
            return [s.features for s in dataset.samples]

        shifted = PStateTable(
            states=(
                PState(name="P0", frequency_ghz=2.0, voltage=1.175),
                PState(name="P1", frequency_ghz=1.6, voltage=1.050),
            )
        )
        assert features(shifted) == features(None)

    def test_dataset_is_stable_across_warm_and_cold_memo(self, golden_suite):
        """Cold scalar-short-circuit cells == memo-warm cells, exactly."""
        cold = self._dataset(Machine(noise_sigma=0.0), golden_suite)
        warm_machine = Machine(noise_sigma=0.0)
        build_oracle_table(warm_machine, golden_suite.get("CG"))
        build_oracle_table(warm_machine, golden_suite.get("MG"))
        warm = self._dataset(warm_machine, golden_suite)
        for a, b in zip(cold.samples, warm.samples):
            assert a.features == b.features
            assert a.targets == b.targets
