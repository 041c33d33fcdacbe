"""Tests for the DVFS layer: P-states, frequency-aware execution and power."""

from __future__ import annotations

import pytest

from repro.machine import (
    CONFIG_1,
    CONFIG_2B,
    CONFIG_4,
    Configuration,
    Machine,
    PState,
    PStateTable,
    configuration_by_name,
    default_pstate_table,
    dvfs_configurations,
    heterogeneous_label,
    heterogeneous_ladders,
    standard_configurations,
)


@pytest.fixture(scope="module")
def table():
    return default_pstate_table()


class TestPStateTable:
    def test_default_table_shape(self, table):
        assert len(table) == 3
        assert table.nominal.name == "P0"
        assert table.nominal.frequency_ghz == pytest.approx(2.4)
        assert table.frequencies_ghz() == sorted(
            table.frequencies_ghz(), reverse=True
        )

    def test_scales_relative_to_nominal(self, table):
        p2 = table.by_name("P2")
        assert p2.frequency_scale(table.nominal) == pytest.approx(1.6 / 2.4)
        assert p2.voltage_scale(table.nominal) < 1.0
        # Dynamic power scale f·V² drops faster than frequency alone.
        assert p2.dynamic_power_scale(table.nominal) < p2.frequency_scale(
            table.nominal
        )

    def test_lookup_by_frequency_label(self, table):
        assert table.by_frequency_label("1.6GHz").name == "P2"
        with pytest.raises(KeyError):
            table.by_frequency_label("3GHz")
        with pytest.raises(KeyError):
            table.by_name("P9")

    def test_validation(self):
        with pytest.raises(ValueError):
            PState(name="bad", frequency_ghz=0.0, voltage=1.0)
        with pytest.raises(ValueError):
            PState(name="bad", frequency_ghz=1.0, voltage=-1.0)
        with pytest.raises(ValueError):
            PStateTable(states=())
        ascending = (
            PState("P0", 1.6, 1.0),
            PState("P1", 2.4, 1.3),
        )
        with pytest.raises(ValueError):
            PStateTable(states=ascending)
        duplicate = (
            PState("P0", 2.4, 1.3),
            PState("P0", 2.0, 1.2),
        )
        with pytest.raises(ValueError):
            PStateTable(states=duplicate)


class TestDVFSConfigurations:
    def test_cross_product_size_and_names(self, table):
        configs = dvfs_configurations(standard_configurations(), table)
        assert len(configs) == 5 * len(table)
        names = [c.name for c in configs]
        # Nominal states keep the paper's plain labels.
        for plain in ("1", "2a", "2b", "3", "4"):
            assert plain in names
        assert "2b@1.6GHz" in names and "4@2GHz" in names
        assert len(set(names)) == len(names)

    def test_nominal_configs_carry_the_nominal_pstate(self, table):
        configs = {c.name: c for c in dvfs_configurations(pstate_table=table)}
        assert configs["4"].pstate == table.nominal
        assert configs["4@1.6GHz"].pstate == table.by_name("P2")
        assert configs["4"].base_name == configs["4@1.6GHz"].base_name == "4"

    def test_configuration_by_name_resolves_frequency_suffix(self, table):
        config = configuration_by_name("2b@1.6GHz", table)
        assert config.placement == CONFIG_2B.placement
        assert config.frequency_ghz == pytest.approx(1.6)
        # Plain names stay backward compatible (no pinned state).
        assert configuration_by_name("2b").pstate is None
        with pytest.raises(KeyError):
            configuration_by_name("2b@9GHz", table)
        with pytest.raises(KeyError):
            configuration_by_name("9@1.6GHz", table)

    def test_with_pstate_round_trip(self, table):
        pinned = CONFIG_4.with_pstate(table.by_name("P1"))
        assert pinned.name == "4@2GHz"
        repinned = pinned.with_pstate(table.nominal, nominal=True)
        assert repinned.name == "4"


class TestHeterogeneousConfigurations:
    """Per-core P-state vectors: naming, parsing round-trips, error paths."""

    def test_vector_names_round_trip(self, table):
        for name in (
            "4@2.4/2.4/1.6/1.6GHz",
            "4@2.4/1.6/1.6/1.6GHz",
            "2b@2.4/1.6GHz",
            "3@2/2/1.6GHz",
        ):
            config = configuration_by_name(name, table)
            assert config.is_heterogeneous
            assert config.name == name
            assert configuration_by_name(config.name, table) == config
            assert len(config.pstate_vector) == config.num_threads
            assert config.frequency_ghz is None  # no single clock
            assert config.frequencies_ghz() == tuple(
                p.frequency_ghz for p in config.pstate_vector
            )

    def test_all_equal_vector_collapses_to_homogeneous(self, table):
        assert configuration_by_name(
            "4@1.6/1.6/1.6/1.6GHz", table
        ) == configuration_by_name("4@1.6GHz", table)
        # ... and the all-nominal vector collapses to the plain paper label.
        nominal = configuration_by_name("4@2.4/2.4/2.4/2.4GHz", table)
        assert nominal.name == "4"
        assert not nominal.is_heterogeneous

    def test_wrong_vector_length_rejected(self, table):
        with pytest.raises(ValueError, match="thread"):
            configuration_by_name("2b@2.4/2.4/1.6GHz", table)
        with pytest.raises(ValueError, match="thread"):
            configuration_by_name("4@2.4/1.6GHz", table)
        with pytest.raises(ValueError, match="thread"):
            CONFIG_4.with_pstate_vector((table.nominal,) * 3)

    def test_unknown_frequency_rejected(self, table):
        with pytest.raises(KeyError):
            configuration_by_name("4@2.4/2.4/2.4/3.1GHz", table)

    def test_malformed_separators_rejected(self, table):
        for bad in (
            "4@2.4//1.6/1.6GHz",
            "4@2.4/2.4/1.6/1.6",
            "4@2.4/2.4/1.6/GHz",
            "4@/2.4/2.4/1.6GHz",
            "4@2.4/2.4/1.6/abcGHz",
        ):
            with pytest.raises(ValueError):
                configuration_by_name(bad, table)

    def test_constructor_invariants(self, table):
        placement = CONFIG_2B.placement
        with pytest.raises(ValueError, match="not both"):
            Configuration(
                "bad",
                placement,
                pstate=table.nominal,
                pstate_vector=(table.nominal, table.by_name("P2")),
            )
        with pytest.raises(ValueError, match="one P-state per active core"):
            Configuration("bad", placement, pstate_vector=(table.nominal,))
        # Direct construction canonicalizes the degenerate vector too.
        degenerate = Configuration(
            "2b@1.6GHz", placement, pstate_vector=(table.by_name("P2"),) * 2
        )
        assert degenerate.pstate_vector is None
        assert degenerate.pstate == table.by_name("P2")

    def test_heterogeneous_label_formats_vectors(self, table):
        assert (
            heterogeneous_label((table.nominal, table.by_name("P2")))
            == "2.4/1.6GHz"
        )

    def test_ladder_generator_is_bounded_and_master_boosted(self, table):
        ladders = heterogeneous_ladders(CONFIG_4, table)
        # (n - 1) splits x C(|P|, 2) ordered pairs = 3 x 3 on the quad.
        assert len(ladders) == 9
        assert len({c.name for c in ladders}) == 9
        for config in ladders:
            frequencies = config.frequencies_ghz()
            # Non-increasing: the master (thread-0) core is never the slow one.
            assert list(frequencies) == sorted(frequencies, reverse=True)
            assert len(set(frequencies)) == 2
        assert heterogeneous_ladders(CONFIG_1, table) == []

    def test_cross_product_with_ladders(self, table):
        homogeneous = dvfs_configurations(standard_configurations(), table)
        enlarged = dvfs_configurations(
            standard_configurations(), table, include_heterogeneous=True
        )
        assert {c.name for c in homogeneous} <= {c.name for c in enlarged}
        hetero = [c for c in enlarged if c.is_heterogeneous]
        # 2-thread placements contribute 3 ladders each, 3 threads 6, 4
        # threads 9; the single-thread placement none.
        assert len(hetero) == 3 + 3 + 6 + 9
        assert len({c.name for c in enlarged}) == len(enlarged)


class TestHeterogeneousExecution:
    """Execution semantics of per-core P-state vectors."""

    def test_master_clock_is_reported(self, machine, compute_work):
        table = machine.pstate_table
        config = configuration_by_name("4@2.4/2.4/1.6/1.6GHz", table)
        result = machine.execute(compute_work, config, apply_noise=False)
        assert result.frequency_ghz == pytest.approx(2.4)
        assert result.pstate is None
        assert result.pstates == config.pstate_vector

    def test_vector_argument_overrides_configuration(self, machine, compute_work):
        table = machine.pstate_table
        vector = (table.nominal, table.nominal, table.by_name("P2"), table.by_name("P2"))
        result = machine.execute(
            compute_work, CONFIG_4.placement, apply_noise=False, pstate=vector
        )
        assert result.pstates == vector
        with pytest.raises(ValueError, match="thread"):
            machine.execute(
                compute_work, CONFIG_4.placement, apply_noise=False,
                pstate=(table.nominal,) * 3,
            )

    def test_ladder_power_sits_between_the_uniform_states(
        self, machine, compute_work
    ):
        table = machine.pstate_table
        hi = machine.execute(
            compute_work, configuration_by_name("4", table), apply_noise=False
        )
        lo = machine.execute(
            compute_work, configuration_by_name("4@1.6GHz", table), apply_noise=False
        )
        mixed = machine.execute(
            compute_work,
            configuration_by_name("4@2.4/2.4/1.6/1.6GHz", table),
            apply_noise=False,
        )
        assert lo.power_watts < mixed.power_watts < hi.power_watts
        # The slow block bounds the parallel portion: a ladder is never
        # faster than running everything at the fast state.
        assert mixed.time_seconds >= hi.time_seconds


class TestFrequencyAwareExecution:
    def test_nominal_pstate_matches_plain_placement(self, machine, compute_work):
        plain = machine.execute(compute_work, CONFIG_4.placement, apply_noise=False)
        table = machine.pstate_table
        pinned = machine.execute(
            compute_work,
            CONFIG_4.with_pstate(table.nominal, nominal=True),
            apply_noise=False,
        )
        assert pinned.time_seconds == pytest.approx(plain.time_seconds, rel=1e-12)
        assert pinned.power_watts == pytest.approx(plain.power_watts, rel=1e-12)
        assert plain.frequency_ghz == pytest.approx(2.4)

    def test_compute_bound_time_scales_with_frequency(self, machine, compute_work):
        table = machine.pstate_table
        times = {}
        for pstate in table:
            result = machine.execute(
                compute_work, CONFIG_4.placement, apply_noise=False, pstate=pstate
            )
            times[pstate.name] = result.time_seconds
            assert result.pstate == pstate
            assert result.frequency_ghz == pytest.approx(pstate.frequency_ghz)
        assert times["P0"] < times["P1"] < times["P2"]
        # A compute-bound phase loses nearly the full frequency ratio.
        assert times["P2"] / times["P0"] > 1.25

    def test_memory_bound_time_is_frequency_insensitive(
        self, machine, compute_work, bandwidth_work
    ):
        table = machine.pstate_table
        p0, p2 = table.nominal, table.by_name("P2")

        def slowdown(work):
            t_hi = machine.execute(work, CONFIG_4.placement, apply_noise=False, pstate=p0)
            t_lo = machine.execute(work, CONFIG_4.placement, apply_noise=False, pstate=p2)
            return t_lo.time_seconds / t_hi.time_seconds

        assert slowdown(bandwidth_work) < slowdown(compute_work)
        # Bandwidth-bound work barely notices the lower clock.
        assert slowdown(bandwidth_work) < 1.08

    def test_power_drops_at_lower_pstates(self, machine, compute_work):
        table = machine.pstate_table
        powers = [
            machine.execute(
                compute_work, CONFIG_4.placement, apply_noise=False, pstate=p
            ).power_watts
            for p in table
        ]
        assert powers[0] > powers[1] > powers[2]
        # The platform floor is unaffected, so the drop is bounded.
        assert powers[2] > machine.idle_power_watts()

    def test_ipc_rises_as_frequency_drops(self, machine, bandwidth_work):
        # IPC is per-cycle: stalls cost fewer cycles at a lower clock, so
        # raw IPC is NOT a valid cross-frequency selection criterion.
        table = machine.pstate_table
        ipcs = [
            machine.execute(
                bandwidth_work, CONFIG_4.placement, apply_noise=False, pstate=p
            ).ipc
            for p in table
        ]
        assert ipcs[0] < ipcs[1] < ipcs[2]

    def test_runtime_honours_directive_pstate(self, machine, tiny_workload):
        from repro.openmp import OpenMPRuntime, PhaseDirective

        runtime = OpenMPRuntime(machine, seed=3)
        region = runtime.register_regions(tiny_workload)[0]
        p2 = machine.pstate_table.by_name("P2")
        nominal = runtime.execute_region(
            region, 0, PhaseDirective(configuration=CONFIG_4)
        )
        throttled = runtime.execute_region(
            region, 0, PhaseDirective(configuration=CONFIG_4, pstate=p2)
        )
        assert throttled.result.frequency_ghz == pytest.approx(1.6)
        assert throttled.result.power_watts < nominal.result.power_watts
