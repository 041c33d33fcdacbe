"""Tests of the shared safeguarded Newton/secant fixed-point solver.

Covers the solver module itself (synthetic monotone problems, safeguard and
mask-retirement behaviour), the physical property it relies on (the
machine's ``implied(u) - u`` map is monotone decreasing), and the headline
equivalence claim: the Newton/secant solver and the reference bisection
(``fixedpoint._bisect_scalar`` / ``_bisect_vector``, patched into the
machine in place of the solvers) agree to ≤ 1e-9 on the NAS × DVFS and
heterogeneous-ladder cross-products, with bit-identical memo keys and
hit/miss accounting.  The golden captures in
``test_golden_{grid,hetero,actor}.py`` were pinned under the Newton solver
on the strength of this suite.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.machine import (
    CONFIG_2B,
    CONFIG_4,
    Machine,
    WorkRequest,
    dvfs_configurations,
    heterogeneous_ladders,
    standard_configurations,
)
from repro.machine import machine as machine_module
from repro.machine.fixedpoint import (
    _bisect_scalar,
    _bisect_vector,
    solve_fixed_point_scalar,
    solve_fixed_point_vector,
)
from repro.workloads import nas_suite

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Equivalence machines run at a tolerance well below the 1e-9 claim so the
#: metric-level agreement bound holds even where the metric's sensitivity
#: to the fixed point is amplified (d(metric)/du can exceed 1).
_TIGHT = dict(fixed_point_tolerance=1e-12, fixed_point_iterations=64)

#: The solver under test and the reference bisection, by parameter id.
SOLVERS = ("newton", "bisect")
_SCALAR = {"newton": solve_fixed_point_scalar, "bisect": _bisect_scalar}
_VECTOR = {"newton": solve_fixed_point_vector, "bisect": _bisect_vector}


@contextmanager
def reference_bisection():
    """Resolve every machine fixed point with the reference bisection."""
    with mock.patch.object(
        machine_module, "solve_fixed_point_scalar", _bisect_scalar
    ), mock.patch.object(machine_module, "solve_fixed_point_vector", _bisect_vector):
        yield


def solver_mode(solver: str):
    """Context running the machine under ``solver`` (``SOLVERS`` id)."""
    return reference_bisection() if solver == "bisect" else nullcontext()


def implied_map(work: WorkRequest, placement):
    """The machine's own ``u -> implied(u)`` map for one scalar cell.

    A machine whose tolerance no ``implied(0)`` can meet always hands its
    evaluation closure to the solver; a stub solver captures it and returns
    the ``u = 0`` state unchanged.
    """
    captured = []

    def capture(evaluate, implied0, payload0, tolerance, max_iterations):
        captured.append(evaluate)
        return payload0, 0, 0

    machine = Machine(noise_sigma=0.0, fixed_point_tolerance=-1.0)
    with mock.patch.object(machine_module, "solve_fixed_point_scalar", capture):
        machine.execute(work, placement, apply_noise=False)
    (evaluate,) = captured
    return lambda u: evaluate(u)[0]


@st.composite
def work_requests(draw) -> WorkRequest:
    """Random but physically admissible phase characterizations."""
    mem = draw(st.floats(0.1, 0.5))
    flop = draw(st.floats(0.0, 0.9 - mem))
    return WorkRequest(
        instructions=draw(st.floats(1e6, 5e9)),
        mem_fraction=mem,
        flop_fraction=flop,
        branch_fraction=draw(st.floats(0.0, 0.2)),
        l1_miss_rate=draw(st.floats(0.0, 0.3)),
        l2_miss_rate_solo=draw(st.floats(0.0, 0.9)),
        working_set_mb=draw(st.floats(0.1, 32.0)),
        locality_exponent=draw(st.floats(0.0, 4.0)),
        sharing_fraction=draw(st.floats(0.0, 1.0)),
        bandwidth_sensitivity=draw(st.floats(0.3, 1.5)),
        serial_fraction=draw(st.floats(0.0, 0.5)),
        load_imbalance=draw(st.floats(1.0, 1.3)),
        barriers=draw(st.integers(0, 30)),
        sync_cycles_per_barrier=draw(st.floats(0.0, 10_000.0)),
        prefetch_friendliness=draw(st.floats(0.0, 0.95)),
        base_cpi=draw(st.floats(0.3, 1.5)),
    )


def _scalar_problem(a: float):
    """``implied(u) = a / (1 + u)``: smooth, strictly decreasing, with the
    unique fixed point at ``(sqrt(1 + 4a) - 1) / 2``."""

    def evaluate(u: float):
        implied = a / (1.0 + u)
        return implied, ("payload", u)

    root = (np.sqrt(1.0 + 4.0 * a) - 1.0) / 2.0
    return evaluate, root


class TestScalarSolver:
    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("a", [0.01, 0.3, 1.0, 2.5, 40.0])
    def test_converges_to_the_analytic_root(self, solver, a):
        evaluate, root = _scalar_problem(a)
        implied0 = a  # implied(0)
        (_, u_last), iterations, evaluations = _SCALAR[solver](
            evaluate, implied0, ("payload", 0.0), 1e-9, 64
        )
        assert abs(u_last - root) < 1e-8
        assert iterations == evaluations > 0

    @pytest.mark.parametrize("a", [0.3, 1.0, 2.5, 40.0])
    def test_newton_needs_fewer_evaluations_than_bisect(self, a):
        evaluate, _ = _scalar_problem(a)
        _, _, newton_evals = solve_fixed_point_scalar(evaluate, a, None, 1e-9, 64)
        _, _, bisect_evals = _bisect_scalar(evaluate, a, None, 1e-9, 64)
        assert newton_evals < bisect_evals

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_every_evaluation_stays_inside_the_initial_bracket(self, solver):
        a = 3.7
        seen = []

        def recording(u: float):
            seen.append(u)
            return a / (1.0 + u), None

        _SCALAR[solver](recording, a, None, 1e-12, 64)
        assert seen, "the solver must evaluate at least once"
        assert all(0.0 < u <= a for u in seen)

    def test_returns_last_payload_on_budget_exhaustion(self):
        evaluate, _ = _scalar_problem(5.0)
        (_, u_last), iterations, _ = solve_fixed_point_scalar(
            evaluate, 5.0, ("payload", -1.0), 1e-15, 3
        )
        assert iterations == 3
        # The payload is the one produced by the final evaluation, not the
        # seed payload passed in.
        assert u_last != -1.0


class TestVectorSolver:
    def _vector_problem(self, a: np.ndarray):
        calls = []

        def evaluate(u: np.ndarray) -> np.ndarray:
            calls.append(u.copy())
            return a / (1.0 + u)

        roots = (np.sqrt(1.0 + 4.0 * a) - 1.0) / 2.0
        return evaluate, roots, calls

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_all_lanes_converge(self, solver):
        a = np.array([0.01, 0.3, 1.0, 2.5, 40.0])
        evaluate, roots, calls = self._vector_problem(a)
        iterations, evaluations = _VECTOR[solver](evaluate, a.copy(), 1e-9, 64)
        assert iterations == evaluations > 0
        final_u = calls[-1]
        assert np.all(np.abs(final_u - roots) < 1e-8)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_converged_lanes_freeze_and_retire(self, solver):
        """Once a lane converges its u never moves again (mask retirement):
        the final sweep re-evaluates every lane at its converged point."""
        # Wildly different scales so lanes converge at different steps.
        a = np.array([1e-3, 0.5, 30.0])
        evaluate, _, calls = self._vector_problem(a)
        _VECTOR[solver](evaluate, a.copy(), 1e-9, 64)
        tolerance = 1e-9
        for lane in range(len(a)):
            converged_at = None
            for step, u in enumerate(calls):
                g = a[lane] / (1.0 + u[lane]) - u[lane]
                if converged_at is None and abs(g) < tolerance:
                    converged_at = u[lane]
                elif converged_at is not None:
                    assert u[lane] == converged_at  # frozen bit for bit

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_inactive_lanes_cost_nothing(self, solver):
        implied0 = np.array([0.0, 1e-12])  # both at/below tolerance
        evaluate, _, calls = self._vector_problem(implied0)
        iterations, evaluations = _VECTOR[solver](evaluate, implied0, 1e-9, 64)
        assert (iterations, evaluations) == (0, 0)
        assert not calls

    def test_newton_needs_fewer_sweeps_than_bisect(self):
        a = np.linspace(0.2, 8.0, 32)
        ev_n, _, _ = self._vector_problem(a)
        ev_b, _, _ = self._vector_problem(a)
        _, newton_sweeps = solve_fixed_point_vector(ev_n, a.copy(), 1e-9, 64)
        _, bisect_sweeps = _bisect_vector(ev_b, a.copy(), 1e-9, 64)
        assert newton_sweeps < bisect_sweeps


class TestImpliedMapMonotonicity:
    """The physical property the safeguarded solver relies on."""

    @given(work=work_requests())
    @_SETTINGS
    def test_implied_minus_u_is_strictly_decreasing(self, work):
        implied = implied_map(work, CONFIG_4.placement)
        grid = np.linspace(0.0, 1.5, 13)
        g = [implied(u) - u for u in grid]
        diffs = np.diff(g)
        assert np.all(diffs < 0.0)

    @given(work=work_requests())
    @_SETTINGS
    def test_newton_equals_bisect_on_scalar_execute(self, work):
        mn = Machine(noise_sigma=0.0, **_TIGHT)
        mb = Machine(noise_sigma=0.0, **_TIGHT)
        for config in (CONFIG_2B, CONFIG_4):
            rn = mn.execute(work, config, apply_noise=False)
            with reference_bisection():
                rb = mb.execute(work, config, apply_noise=False)
            assert rn.time_seconds == pytest.approx(rb.time_seconds, rel=1e-9)
            assert rn.ipc == pytest.approx(rb.ipc, rel=1e-9)
            assert rn.power_watts == pytest.approx(rb.power_watts, rel=1e-9)


@pytest.fixture(scope="module")
def nas_works():
    suite = nas_suite(machine=Machine(noise_sigma=0.0), variability=0.0)
    return [phase.work for workload in suite for phase in workload.phases]


class TestSolverEquivalenceOnGrids:
    """newton vs bisect ≤ 1e-9 on the full NAS × DVFS × ladder spaces."""

    def _machines(self):
        return Machine(noise_sigma=0.0, **_TIGHT), Machine(noise_sigma=0.0, **_TIGHT)

    def _assert_grids_agree(self, gn, gb):
        for attr in ("time_seconds", "ipc", "power_watts", "energy_joules", "ed2"):
            a, b = getattr(gn, attr), getattr(gb, attr)
            np.testing.assert_allclose(a, b, rtol=1e-9, err_msg=attr)

    def test_homogeneous_nas_dvfs_cross_product(self, nas_works):
        mn, mb = self._machines()
        cross = dvfs_configurations(
            standard_configurations(mn.topology), mn.pstate_table
        )
        gn = mn.execute_grid(nas_works, cross, use_memo=False)
        with reference_bisection():
            gb = mb.execute_grid(nas_works, cross, use_memo=False)
        self._assert_grids_agree(gn, gb)

    def test_heterogeneous_ladders(self, nas_works):
        mn, mb = self._machines()
        ladders = heterogeneous_ladders(CONFIG_4, mn.pstate_table)
        assert ladders
        gn = mn.execute_grid(nas_works, ladders, use_memo=False)
        with reference_bisection():
            gb = mb.execute_grid(nas_works, ladders, use_memo=False)
        self._assert_grids_agree(gn, gb)


class TestMemoSemanticsAcrossSolvers:
    """Memo keys and hit/miss accounting are solver-independent."""

    def test_keys_and_accounting_are_bit_identical(self, nas_works):
        works = nas_works[:12]
        results = {}
        for solver in SOLVERS:
            machine = Machine(noise_sigma=0.0)
            cross = dvfs_configurations(
                standard_configurations(machine.topology), machine.pstate_table
            )
            with solver_mode(solver):
                machine.execute_grid(works, cross)  # cold: all misses
                machine.execute_grid(works, cross)  # warm: all hits
                machine.execute_grid([works[0]], cross[:3])  # warm subset
            info = machine.execution_memo_info()
            results[solver] = (
                tuple(machine.export_execution_memo().keys()),
                info.hits,
                info.misses,
                machine.small_batch_shortcircuits,
            )
        assert results["newton"] == results["bisect"]

    def test_solver_counters_are_exposed_and_grow(self):
        machine = Machine(noise_sigma=0.0)
        info = machine.execution_memo_info()
        assert info.solver_iterations == 0
        assert info.solver_evaluations == 0
        work = WorkRequest(
            instructions=1e9, mem_fraction=0.4, l1_miss_rate=0.1,
            bandwidth_sensitivity=1.2,
        )
        machine.execute(work, CONFIG_4, apply_noise=False)
        info = machine.execution_memo_info()
        # At least the bracketing u=0 evaluation must have been counted.
        assert info.solver_evaluations >= 1
        assert info.solver_evaluations >= info.solver_iterations
        machine.execute_grid([work])
        after = machine.execution_memo_info()
        assert after.solver_evaluations > info.solver_evaluations

    def test_service_cache_info_carries_solver_counters(self):
        from repro.machine.work import WorkRequest as WR
        from repro.service.handlers import GridHandler
        from repro.service.messages import GridProbeRequest

        handler = GridHandler()
        handler.handle_batch(
            [GridProbeRequest(client_id="c1", phase="p", work=WR(instructions=1e9))]
        )
        memo_block = handler.cache_info()["execution_memo"]
        assert memo_block["solver_evaluations"] > 0
        assert memo_block["solver_iterations"] >= 0

    def test_newton_spends_far_fewer_evaluations_on_a_cold_grid(self, nas_works):
        evals = {}
        for solver in SOLVERS:
            machine = Machine(noise_sigma=0.0)
            with solver_mode(solver):
                machine.execute_grid(nas_works[:10], use_memo=False)
            evals[solver] = machine.execution_memo_info().solver_evaluations
        assert evals["newton"] < evals["bisect"]
