"""Dense convex quadratic programming with certified status.

Solves

    minimize    0.5 xᵀ diag(p) x + qᵀ x
    subject to  A x = b,  G x ≤ h

with one primal active-set method (Nocedal & Wright 2006, Numerical
Optimization, §16.5), run twice: first on the phase-1 linear program
that minimizes the worst constraint violation t, until t < 0 gives a
feasible start, then on the QP itself. Each pivot either steps in the
null space of the working rows (the equalities and the inequalities
held at equality), adding the first row that blocks the step, or drops
the working row with the most negative multiplier. Along directions
without curvature (p_i = 0, and all of phase 1) the step is a descent
ray that only a blocking row ends. Problem sizes here are tiny (tens of
variables, ~100 inequalities), so everything is dense and factored from
scratch each pivot.

A point is 'optimal' only if no multiplier is negative and all four KKT
residuals are at or below tol; otherwise a search that stops, at a
stationary point or at the pivot cap, ends as 'max_iterations'. A
descent ray that no row blocks is 'unbounded'. Infeasibility is reported
with the working-set multipliers of a phase-1 optimum t* > tol, a Farkas
certificate (y, z ≥ 0) with Aᵀy + Gᵀz = 0 and bᵀy + hᵀz = -t* < 0. A
phase 1 that ends without one is 'max_iterations', never 'infeasible'.
Rows are solved as given: an all-zero inequality row never blocks a
step, and phase 1 certifies one with h < 0 infeasible.

Every returned QpSolution carries its working set `active`: a boolean
mask over the inequality rows, set where the returned point holds a row
at equality. Two exact tests reuse, without a pivot, what a solve of
the same rows at another h found: certified_on_active_set returns the
KKT point with a given working set held at equality only if it passes
the test above, and certified_infeasible a certificate only if its
duals still separate at the new h. Otherwise either returns None and
the caller solves cold, so a reuse never makes a solve infeasible or
accepts a point the test would reject.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = ["QpSolution", "solve", "certified_on_active_set", "certified_infeasible"]

logger = logging.getLogger(__name__)

# Bisection drives tightening deltas down to ~1e-4 of a sigma; solver noise
# must sit well below that.
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 200


@dataclass(frozen=True)
class QpSolution:
    """Solver outcome with primal/dual vectors and audited residuals.

    kkt_residuals holds (stationarity, primal_feasibility,
    dual_feasibility, complementarity) in infinity norms; at status
    'optimal' all four are at or below the solve tolerance. iterations
    counts active-set pivots, phase 1 and phase 2 together. active is
    the (n_ineq,) boolean working set of x: the rows held at equality
    when the search stopped, or the working set a warm solve certified.
    It is all False when no point is returned (status 'infeasible', or a
    phase 1 that ended without a feasible start). At status
    'infeasible' the certificate dict carries the separating duals.
    """

    status: str
    x: np.ndarray
    objective: float
    y: np.ndarray
    z: np.ndarray
    kkt_residuals: tuple[float, float, float, float]
    iterations: int
    active: np.ndarray
    certificate: dict | None = field(default=None, compare=False)

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _as_2d(a, n: int) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, n)
    if arr.ndim != 2 or arr.shape[1] != n:
        raise ValueError(f"constraint matrix shape {arr.shape} incompatible with {n} variables")
    return arr


def _residuals(p, q, a, b, g, h, x, y, z) -> tuple[float, float, float, float]:
    slack = h - g @ x
    stationarity = float(np.abs(p * x + q + a.T @ y + g.T @ z).max(initial=0.0))
    prim = max(float(np.abs(a @ x - b).max(initial=0.0)), float(np.maximum(-slack, 0.0).max(initial=0.0)))
    comp = float(np.abs(z * slack).max(initial=0.0))
    dual = float(np.maximum(-z, 0.0).max(initial=0.0))
    return stationarity, prim, dual, comp


def _step(p, rows, grad):
    """(d, ray): a step from a point with gradient grad that keeps rows·x fixed.

    The null space of rows comes from an SVD, and the reduced Hessian is
    eigendecomposed on it. Where grad slopes along a direction without
    curvature, d is the descent ray along those directions (ray = True).
    Otherwise d is the Newton step to the minimizer on the null space,
    all zeros at that minimizer.
    """
    if rows.shape[0]:
        _, sv, vt = np.linalg.svd(rows)
        null = vt[np.count_nonzero(sv > sv[0] * max(rows.shape) * np.finfo(float).eps) :].T
    else:
        null = np.eye(grad.size)
    curvature, v = np.linalg.eigh((null.T * p) @ null)
    basis = null @ v
    slope = basis.T @ grad
    # Slopes at rounding level count as zero: stepping on them would let
    # a degenerate row block at length 0, again and again.
    steep = np.abs(slope) > 1e-12 * max(1.0, float(np.abs(grad).max()))
    flat = curvature <= 1e-12 * max(1.0, float(p.max()))
    if np.any(steep & flat):
        return -(basis[:, flat] @ slope[flat]), True
    return -(basis[:, steep] @ (slope[steep] / curvature[steep])), False


def _active_set(p, q, a, b, g, h, x, work, tol, max_iters, stop=None):
    """Primal active-set method from x, where Ax = b, G[work] x = h[work]
    and every other row of G holds.

    Each pivot either takes the _step, adding the first row that blocks
    it, or, at the minimizer on the working rows, drops the row with the
    most negative multiplier. stop(x), if given, ends the search at the
    first iterate it accepts, which is returned as if converged.
    """
    k, c = a.shape[0], g.shape[0]
    work = work.copy()
    y, z = np.zeros(k), np.zeros(c)
    status, at_minimizer = "max_iterations", False
    for it in range(max_iters + 1):
        if stop is not None and stop(x):
            status = "optimal"
            break
        rows = np.vstack([a, g[work]])
        grad = p * x + q
        if not at_minimizer:
            d, ray = _step(p, rows, grad)
            at_minimizer = not d.any()
        if at_minimizer:
            dual = np.linalg.lstsq(rows.T, -grad, rcond=None)[0]
            y, z = dual[:k], np.zeros(c)
            z[work] = dual[k:]
            if not np.any(z < 0.0):
                res = _residuals(p, q, a, b, g, h, x, y, z)
                status = "optimal" if max(res) <= tol else "max_iterations"
                break
        if it == max_iters:
            break
        if at_minimizer:
            work[np.argmin(z)] = False
            at_minimizer = False
            continue
        # Ratio test. Rows the step runs along (g·d at rounding level, as
        # for a duplicate of a working row) never block.
        gd = g @ d
        blocking = ~work & (gd > 1e-12 * (np.abs(g) @ np.abs(d)))
        ratios = np.full(c, np.inf)
        ratios[blocking] = np.maximum(h - g @ x, 0.0)[blocking] / gd[blocking]
        j = int(np.argmin(ratios))
        if ray and ratios[j] == np.inf:
            status = "unbounded"
            break
        if ray or ratios[j] < 1.0:
            x = x + ratios[j] * d
            work[j] = True
        else:
            x = x + d
            at_minimizer = True
    objective = -np.inf if status == "unbounded" else float(0.5 * x @ (p * x) + q @ x)
    return QpSolution(status, x, objective, y, z, _residuals(p, q, a, b, g, h, x, y, z), it, work)


def _farkas(a, b, g, h, y, z, tol) -> dict | None:
    """The certificate of (y, z) if z >= 0, |Aᵀy + Gᵀz| <= tol and
    bᵀy + hᵀz < -tol, which proves Ax = b, Gx <= h infeasible; else None."""
    certificate = {
        "equality_dual": y.copy(),
        "inequality_dual": z.copy(),
        "farkas_gap": float(b @ y + h @ z),
        "stationarity": float(np.abs(a.T @ y + g.T @ z).max(initial=0.0)),
    }
    if np.all(z >= 0.0) and certificate["stationarity"] <= tol and certificate["farkas_gap"] < -tol:
        return certificate
    return None


def _infeasible(g, k, certificate, iterations) -> QpSolution:
    c, n = g.shape
    primal = (0.0, certificate["infeasibility"], 0.0, 0.0)
    return QpSolution("infeasible", np.zeros(n), np.inf, np.zeros(k), np.zeros(c), primal, iterations, np.zeros(c, dtype=bool), certificate)


def _phase1(a, b, g, h, x0, tol, max_iters):
    """Minimize the worst violation t over (x, t) with _active_set, from x0.

    Starts with t at the worst violation and that row working, and stops
    as soon as t < 0. Returns (solution over (x, t), certificate), where
    the certificate is None unless the search ends at a minimizer whose
    multipliers are Farkas duals (see _farkas).
    """
    n, k, c = x0.size, a.shape[0], g.shape[0]
    # Variables (x, t): min t s.t. Ax = b, Gx - t <= h, -t <= 1.
    q1 = np.zeros(n + 1)
    q1[-1] = 1.0
    a1 = np.hstack([a, np.zeros((k, 1))])
    g1 = np.vstack([np.hstack([g, -np.ones((c, 1))]), np.zeros((1, n + 1))])
    g1[-1, -1] = -1.0
    violation = g @ x0 - h
    work = np.zeros(c + 1, dtype=bool)
    work[np.argmax(violation)] = True
    start = np.append(x0, violation.max())
    sol = _active_set(np.zeros(n + 1), q1, a1, b, g1, np.append(h, 1.0), start, work, tol, max_iters, lambda xt: xt[-1] < 0.0)
    # At a minimizer with t* > 0 the t column of stationarity gives
    # sum(z) = 1, and complementarity on the working rows gives
    # bᵀy + hᵀz = -t*. The test is on (y, z) alone, which stay exact
    # where x is known only to its last digits.
    certificate = _farkas(a, b, g, h, sol.y, sol.z[:c], tol)
    if certificate is not None:
        certificate["infeasibility"] = float(sol.x[-1])
    return sol, certificate


def solve(
    p_diag,
    q,
    a_eq,
    b_eq,
    g_ineq,
    h_ineq,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> QpSolution:
    """Solve the diagonal-Hessian convex QP; see the module docstring.

    p_diag must be elementwise nonnegative, tol finite and positive, and
    max_iters an integer of at least 1. At least one inequality row is
    required, else ValueError: phase 1 starts on the most violated one.
    Every row is solved as given, all-zero rows included, and an
    optimal point's kkt_residuals are the ones that certified it.
    """
    if not (isinstance(max_iters, numbers.Integral) and max_iters >= 1):
        raise ValueError(f"max_iters must be an integer of at least 1, got {max_iters!r}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    p = np.asarray(p_diag, dtype=float)
    q = np.asarray(q, dtype=float)
    n = q.size
    if p.shape != (n,):
        raise ValueError("p_diag and q must have matching lengths")
    if np.any(p < 0.0):
        raise ValueError("quadratic coefficients must be nonnegative")
    a = _as_2d(a_eq, n)
    b = np.asarray(b_eq, dtype=float).reshape(a.shape[0])
    g = _as_2d(g_ineq, n)
    h = np.asarray(h_ineq, dtype=float).reshape(g.shape[0])
    if g.shape[0] == 0:
        raise ValueError("no inequality row: phase 1 starts on the most violated one")

    # Minimum-norm equality solution as the phase-1 anchor.
    if a.shape[0]:
        x0 = np.linalg.lstsq(a, b, rcond=None)[0]
    else:
        x0 = np.zeros(n)
    start, certificate = _phase1(a, b, g, h, x0, tol, max_iters)
    if certificate is not None:
        return _infeasible(g, a.shape[0], certificate, start.iterations)
    # Any x within tol of every row is a start; phase 1 need not be optimal.
    if start.x[-1] > tol:
        logger.warning("phase 1 ended %s after %d pivots at t=%.3e", start.status, start.iterations, start.x[-1])
        y, z, no_rows = np.zeros(a.shape[0]), np.zeros(g.shape[0]), np.zeros(g.shape[0], dtype=bool)
        return QpSolution("max_iterations", np.zeros(n), np.inf, y, z, (0.0, np.inf, 0.0, 0.0), start.iterations, no_rows)
    x = start.x[:n]
    sol = _active_set(p, q, a, b, g, h, x, g @ x >= h, tol, max_iters - start.iterations)
    sol = replace(sol, iterations=start.iterations + sol.iterations)
    if not sol.optimal:
        logger.warning("active-set method ended %s after %d pivots; residual %.3e", sol.status, sol.iterations, max(sol.kkt_residuals))
    return sol


def certified_on_active_set(p, q, a, b, g, h, on, tol) -> QpSolution | None:
    """The KKT point with the rows G[on] held at equality, as 'optimal'
    with iterations = 0 and active = on if all four residuals are at or
    below tol and no multiplier is negative, else None. It checks none
    of its arrays: pass those a solve of the same rows ran on.
    """
    n, k = q.size, a.shape[0]
    rows = np.vstack([a, g[on]])
    kkt = np.block([[np.diag(p), rows.T], [rows, np.zeros((rows.shape[0],) * 2)]])
    # A singular or ill-posed working set may produce inf or NaN; the
    # test below rejects such a point.
    with np.errstate(all="ignore"):
        try:
            sol = np.linalg.solve(kkt, np.concatenate([-q, b, h[on]]))
        except np.linalg.LinAlgError:
            return None
        x, y, z = sol[:n], sol[n : n + k], np.zeros(g.shape[0])
        z[on] = sol[n + k :]
        res = _residuals(p, q, a, b, g, h, x, y, z)
    if not (all(r <= tol for r in res) and np.all(z >= 0.0)):
        return None
    return QpSolution("optimal", x, float(0.5 * x @ (p * x) + q @ x), y, z, res, 0, on)


def certified_infeasible(a, b, g, h, certificate, tol) -> QpSolution | None:
    """'infeasible' with iterations = 0 if the duals of certificate, from
    a solve of the same rows at another h, still separate at this h;
    else None. Its infeasibility is -farkas_gap: for duals that sum to
    one, as phase 1 leaves them, every x with Ax = b violates some row
    by at least that much."""
    found = _farkas(a, b, g, h, certificate["equality_dual"], certificate["inequality_dual"], tol)
    if found is None:
        return None
    found["infeasibility"] = -found["farkas_gap"]
    return _infeasible(g, a.shape[0], found, 0)
