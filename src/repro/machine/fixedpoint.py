"""Safeguarded Newton/secant solver for the throughput/bus fixed point.

Both execution paths of the machine — the scalar :meth:`Machine.execute`
and the vectorized cell kernel — have to resolve the same one-dimensional
self-consistency problem: the assumed bus
utilization ``u`` determines the effective memory latency, latency
determines per-thread throughput, and throughput determines the traffic
that *implies* a bus utilization.  The map ``implied(u)`` is strictly
monotone **decreasing** (more assumed contention can only slow threads
down, never speed them up), so ``g(u) = implied(u) - u`` is strictly
decreasing with ``g(0) = implied(0) > 0``: the fixed point is unique and
bracketed by ``[0, implied(0)]``.

This module holds the one shared solver both paths use: a *safeguarded*
secant/Newton iteration.  Each step extrapolates the root from the last
two evaluations and falls back to the bisection midpoint whenever the
secant step would leave the current bracket (or the secant is degenerate).
Because ``g`` is smooth and monotone the secant converges superlinearly —
typically 4–8 evaluations to ``|g| < 1e-9`` where bisection needs ~30 —
while the bracket safeguard keeps it exactly as robust as pure bisection.
The pure bisection (``_bisect_scalar`` / ``_bisect_vector``) stays here as
the reference implementation: it has the same signature as the public
solvers, so tests and benchmarks patch it in to check agreement and to
measure the secant's gain.

The solver exists in a scalar form (one cell at a time, used by
:meth:`Machine.execute`) and a vectorized form (one lane per grid cell,
with an ``active`` mask so converged lanes retire early and *freeze* their
operating point — subsequent sweeps recompute the frozen lanes at their
final ``u`` bit for bit, exactly like the bisection freezes a converged
lane's bracket).  The vectorized iteration applies the same step rule
lane-wise as the scalar iteration, so a one-lane solve reproduces the
scalar trajectory to floating-point accuracy.

Iteration/evaluation counts are returned to the caller;
:class:`~repro.machine.machine.Machine` accumulates them and surfaces the
totals through ``execution_memo_info()`` (and from there the service layer's
``cache_info`` block), so solver cost is observable in production.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple

import numpy as np

__all__ = [
    "solve_fixed_point_scalar",
    "solve_fixed_point_vector",
]


# ----------------------------------------------------------------------
# scalar form
# ----------------------------------------------------------------------
def solve_fixed_point_scalar(
    evaluate: Callable[[float], Tuple[float, Any]],
    implied0: float,
    payload0: Any,
    tolerance: float,
    max_iterations: int,
) -> Tuple[Any, int, int]:
    """Solve ``u = implied(u)`` for one cell.

    Parameters
    ----------
    evaluate:
        ``evaluate(u) -> (implied, payload)``; ``payload`` is whatever
        state the caller wants to keep from the evaluation (per-thread
        breakdowns and demand).  The payload of the solver's *last*
        evaluation is returned, matching the historical bisection contract
        (the caller keeps the state of the final sweep, converged or not).
    implied0, payload0:
        The already-performed evaluation at ``u = 0`` (the bracket top is
        ``implied0``); callers early-out before the solver when
        ``implied0 <= tolerance``.
    tolerance:
        Convergence threshold on ``|implied(u) - u|``.  Because
        ``implied`` is decreasing, ``|g(u)| < tol`` implies the root is
        within ``tol`` of ``u``.
    max_iterations:
        Evaluation budget; on exhaustion the last evaluated point wins.

    Returns ``(payload, iterations, evaluations)`` where ``evaluations``
    counts the calls to ``evaluate`` made *here* (the caller's ``u = 0``
    probe is not included).
    """
    # Bracket: g(0) = implied0 > 0; evaluate the top to close it.
    low, high = 0.0, implied0
    implied, payload = evaluate(high)
    evaluations = 1
    g_high = implied - high
    if abs(g_high) < tolerance:
        return payload, evaluations, evaluations
    if g_high > 0.0:
        # Numerically non-monotone tail: the root sits above the assumed
        # bracket top.  Re-anchor at [high, implied(high)] — the same
        # induction that built the original bracket (implied is
        # decreasing, so g at the new top is <= 0).
        low, high = high, implied
    # Secant state: the two most recent evaluations (independent of the
    # bracket, which only safeguards the step).
    u_prev, g_prev = 0.0, implied0
    u_cur, g_cur = implied0, g_high
    for _ in range(max_iterations - 1):
        denom = g_cur - g_prev
        if denom != 0.0:
            candidate = u_cur - g_cur * (u_cur - u_prev) / denom
        else:
            candidate = float("nan")
        if not (low < candidate < high):
            candidate = 0.5 * (low + high)  # safeguard: bisection step
        implied, payload = evaluate(candidate)
        evaluations += 1
        g = implied - candidate
        if abs(g) < tolerance:
            break
        if g > 0.0:
            low = candidate
        else:
            high = candidate
        u_prev, g_prev = u_cur, g_cur
        u_cur, g_cur = candidate, g
    return payload, evaluations, evaluations


def _bisect_scalar(evaluate, implied0, payload0, tolerance, max_iterations):
    """Reference pure bisection with the contract of :func:`solve_fixed_point_scalar`.

    Always evaluates the bracket midpoint, breaks on ``|g| < tol`` and keeps
    the last evaluation's payload.
    """
    low, high = 0.0, implied0
    payload = payload0
    iterations = 0
    for _ in range(max_iterations):
        mid = 0.5 * (low + high)
        implied, payload = evaluate(mid)
        iterations += 1
        if abs(implied - mid) < tolerance:
            break
        if implied > mid:
            low = mid
        else:
            high = mid
    return payload, iterations, iterations


# ----------------------------------------------------------------------
# vectorized form
# ----------------------------------------------------------------------
def solve_fixed_point_vector(
    evaluate: Callable[[np.ndarray], np.ndarray],
    implied0: np.ndarray,
    tolerance: float,
    max_iterations: int,
) -> Tuple[int, int]:
    """Solve ``u = implied(u)`` for every lane of a cell kernel.

    ``evaluate(u) -> implied`` performs one full-width sweep; the caller
    captures the sweep's by-products (latency, demand) in a closure, and
    the solver guarantees the *last* sweep evaluated every lane at its
    final operating point: converged and initially-inactive lanes keep
    their ``u`` frozen, so recomputing them reproduces their converged
    state bit for bit (the same contract the bisection honours by freezing
    a converged lane's bracket).

    Lanes with ``implied0 <= tolerance`` never activate and stay at
    ``u = 0``.  Returns ``(iterations, evaluations)`` — sweeps performed
    here, excluding the caller's ``u = 0`` sweep.
    """
    n_rows = implied0.shape[0]
    active = implied0 > tolerance
    if not active.any():
        return 0, 0
    # Close the bracket: one sweep at u = implied0 (active lanes only;
    # inactive lanes are evaluated at their frozen u = 0).
    u = np.where(active, implied0, 0.0)
    implied = evaluate(u)
    iterations = 1
    g = implied - u
    low = np.zeros(n_rows)
    high = np.where(active, implied0, 0.0)
    # Numerically non-monotone lanes (g > 0 at the assumed top): re-anchor
    # their bracket at [u, implied(u)], as in the scalar form.
    overshoot = active & (g > 0.0)
    low = np.where(overshoot, u, low)
    high = np.where(overshoot, implied, high)
    # Secant state: the two most recent evaluations per lane.
    u_prev = np.zeros(n_rows)
    g_prev = implied0.astype(np.float64, copy=True)
    u_cur = u.copy()
    g_cur = g.copy()
    active = active & ~(np.abs(g) < tolerance)
    for _ in range(max_iterations - 1):
        if not active.any():
            break
        denom = g_cur - g_prev
        safe_denom = np.where(denom != 0.0, denom, 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            secant = u_cur - g_cur * (u_cur - u_prev) / safe_denom
        # Safeguard lane-wise: take the secant step only when it lands
        # strictly inside the bracket (NaN/inf fail the comparison), else
        # bisect.  Same rule, same order, as the scalar form.
        inside = (denom != 0.0) & (secant > low) & (secant < high)
        step = np.where(inside, secant, 0.5 * (low + high))
        u = np.where(active, step, u)  # retired lanes stay frozen
        implied = evaluate(u)
        iterations += 1
        g = implied - u
        newly = active & (np.abs(g) < tolerance)
        still = active & ~newly
        go_low = still & (g > 0.0)
        low = np.where(go_low, u, low)
        high = np.where(still & ~go_low, u, high)
        u_prev = np.where(active, u_cur, u_prev)
        g_prev = np.where(active, g_cur, g_prev)
        u_cur = np.where(active, u, u_cur)
        g_cur = np.where(active, g, g_cur)
        active = still
    return iterations, iterations


def _bisect_vector(evaluate, implied0, tolerance, max_iterations):
    """Reference simultaneous bisection with the contract of
    :func:`solve_fixed_point_vector`.

    Inactive lanes keep ``low == high`` so their midpoint (and therefore
    their sweep state) freezes; the loop retires when every lane has
    converged.
    """
    n_rows = implied0.shape[0]
    active = implied0 > tolerance
    low = np.zeros(n_rows)
    high = np.where(active, implied0, 0.0)
    iterations = 0
    for _ in range(max_iterations):
        if not active.any():
            break
        mid = 0.5 * (low + high)
        implied = evaluate(mid)
        iterations += 1
        active = active & ~(np.abs(implied - mid) < tolerance)
        go_low = active & (implied > mid)
        low = np.where(go_low, mid, low)
        high = np.where(active & ~go_low, mid, high)
    return iterations, iterations
