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

A caller that expects a particular set of active inequality rows (the
previous solve of a nearby program, say) can pass that guess as
`active`. solve then first solves the KKT system with the equality rows
and the guessed rows held at equality, and returns that point as
'optimal' with iterations = 0 only if it passes the same test. Otherwise,
whether the guess was wrong, its KKT matrix singular or the program
infeasible, solve falls back to the two phases above. A guess thus never
makes a solve infeasible or accepts a point the test would reject.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = ["QpSolution", "solve"]

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
    counts active-set pivots, phase 1 and phase 2 together. At status
    'infeasible' the certificate dict carries the separating duals.
    """

    status: str
    x: np.ndarray
    objective: float
    y: np.ndarray
    z: np.ndarray
    kkt_residuals: tuple[float, float, float, float]
    iterations: int
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
            y, z = dual[:k], _scatter(dual[k:], np.flatnonzero(work), c)
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
    return QpSolution(status, x, objective, y, z, _residuals(p, q, a, b, g, h, x, y, z), it)


def _phase1(a, b, g, h, x0, tol, max_iters):
    """Minimize the worst violation t over (x, t) with _active_set, from x0.

    Starts with t at the worst violation and that row working, and stops
    as soon as t < 0. Returns (solution over (x, t), certificate), where
    the certificate is None unless the search ends at a minimizer whose
    multipliers are Farkas duals: nonnegative, stationarity at most tol
    and a gap below -tol.
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
    y, z_g = sol.y, sol.z[:c]
    certificate = {
        "equality_dual": y.copy(),
        "inequality_dual": z_g.copy(),
        "farkas_gap": float(b @ y + h @ z_g),
        "stationarity": float(np.abs(a.T @ y + g.T @ z_g).max(initial=0.0)),
        "infeasibility": float(sol.x[-1]),
    }
    if np.all(z_g >= 0.0) and certificate["stationarity"] <= tol and certificate["farkas_gap"] < -tol:
        return sol, certificate
    return sol, None


def solve(
    p_diag,
    q,
    a_eq,
    b_eq,
    g_ineq,
    h_ineq,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    active=None,
) -> QpSolution:
    """Solve the diagonal-Hessian convex QP; see the module docstring.

    p_diag must be elementwise nonnegative, tol finite and positive, and
    max_iters an integer of at least 1. Vacuous all-zero constraint rows
    are dropped up front (an all-zero row with an unsatisfiable
    right-hand side short-circuits to 'infeasible'), and at least one
    nonzero inequality row must remain, else ValueError; returned dual
    vectors keep the caller's row indexing, with zeros on dropped rows.
    active, if given, lists the inequality rows guessed to be active at
    the optimum, as integer indices into the caller's rows; guessed rows
    that are dropped as vacuous are ignored.
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
    a_full = _as_2d(a_eq, n)
    b_full = np.asarray(b_eq, dtype=float).reshape(a_full.shape[0])
    g_full = _as_2d(g_ineq, n)
    h_full = np.asarray(h_ineq, dtype=float).reshape(g_full.shape[0])
    if active is not None:
        active = _active_mask(active, g_full.shape[0])

    y = np.zeros(a_full.shape[0])
    z = np.zeros(g_full.shape[0])
    zero_eq = ~np.any(a_full != 0.0, axis=1)
    zero_g = ~np.any(g_full != 0.0, axis=1)
    bad_eq = np.flatnonzero(zero_eq & (b_full != 0.0))
    bad_g = np.flatnonzero(zero_g & (h_full < 0.0))
    if bad_eq.size or bad_g.size:
        # A unit dual on the first unsatisfiable all-zero row is a Farkas
        # certificate on its own.
        if bad_eq.size:
            y[bad_eq[0]] = -np.sign(b_full[bad_eq[0]])
            gap = -abs(float(b_full[bad_eq[0]]))
        else:
            z[bad_g[0]] = 1.0
            gap = float(h_full[bad_g[0]])
        cert = {"equality_dual": y, "inequality_dual": z, "farkas_gap": gap, "stationarity": 0.0, "infeasibility": -gap}
        return QpSolution("infeasible", np.zeros(n), np.inf, y, z, (0.0, -gap, 0.0, 0.0), 0, cert)

    keep_eq = np.flatnonzero(~zero_eq)
    keep_g = np.flatnonzero(~zero_g)
    a, b = a_full[keep_eq], b_full[keep_eq]
    g, h = g_full[keep_g], h_full[keep_g]

    if g.shape[0] == 0:
        raise ValueError("no nonzero inequality row: phase 1 starts on the most violated one")

    if active is not None:
        warm = _certified_on_active_set(p, q, a, b, g, h, active[keep_g], tol)
        if warm is not None:
            return _in_caller_rows(warm, p, q, a_full, b_full, g_full, h_full, keep_eq, keep_g)

    # Minimum-norm equality solution as the phase-1 anchor.
    if a.shape[0]:
        x0 = np.linalg.lstsq(a, b, rcond=None)[0]
    else:
        x0 = np.zeros(n)
    start, certificate = _phase1(a, b, g, h, x0, tol, max_iters)
    if certificate is not None:
        certificate["equality_dual"] = _scatter(certificate["equality_dual"], keep_eq, y.size)
        certificate["inequality_dual"] = _scatter(certificate["inequality_dual"], keep_g, z.size)
        primal = (0.0, certificate["infeasibility"], 0.0, 0.0)
        return QpSolution("infeasible", np.zeros(n), np.inf, y, z, primal, start.iterations, certificate)
    # Any x within tol of every row is a start; phase 1 need not be optimal.
    if start.x[-1] > tol:
        logger.warning("phase 1 ended %s after %d pivots at t=%.3e", start.status, start.iterations, start.x[-1])
        return QpSolution("max_iterations", np.zeros(n), np.inf, y, z, (0.0, np.inf, 0.0, 0.0), start.iterations)
    x = start.x[:n]
    sol = _active_set(p, q, a, b, g, h, x, g @ x >= h, tol, max_iters - start.iterations)
    sol = replace(sol, iterations=start.iterations + sol.iterations)
    if not sol.optimal:
        logger.warning("active-set method ended %s after %d pivots; residual %.3e", sol.status, sol.iterations, max(sol.kkt_residuals))
    return _in_caller_rows(sol, p, q, a_full, b_full, g_full, h_full, keep_eq, keep_g)


def _active_mask(rows, count: int) -> np.ndarray:
    """Boolean mask over count rows, set at rows (integers in [0, count))."""
    mask = np.zeros(count, dtype=bool)
    idx = np.asarray(rows)
    if idx.size == 0:
        return mask
    if idx.ndim != 1 or not np.issubdtype(idx.dtype, np.integer):
        raise ValueError("active rows must be a flat sequence of integer row indices")
    if idx.min() < 0 or idx.max() >= count:
        raise ValueError(f"active row index out of range for {count} inequality rows")
    mask[idx] = True
    return mask


def _certified_on_active_set(p, q, a, b, g, h, on, tol) -> QpSolution | None:
    """The KKT point with the rows G[on] held at equality, if it is optimal.

    Returns it as 'optimal' with iterations = 0 when all four residuals
    are at or below tol and no multiplier is negative, else None.
    """
    n, k = q.size, a.shape[0]
    rows = np.vstack([a, g[on]])
    kkt = np.block([[np.diag(p), rows.T], [rows, np.zeros((rows.shape[0],) * 2)]])
    # A singular or ill-posed guess may produce inf or NaN; the test
    # below rejects such a point.
    with np.errstate(all="ignore"):
        try:
            sol = np.linalg.solve(kkt, np.concatenate([-q, b, h[on]]))
        except np.linalg.LinAlgError:
            return None
        x, y, z = sol[:n], sol[n : n + k], _scatter(sol[n + k :], np.flatnonzero(on), g.shape[0])
        res = _residuals(p, q, a, b, g, h, x, y, z)
    if not (all(r <= tol for r in res) and np.all(z >= 0.0)):
        return None
    return QpSolution("optimal", x, float(0.5 * x @ (p * x) + q @ x), y, z, res, 0)


def _in_caller_rows(sol, p, q, a_full, b_full, g_full, h_full, keep_eq, keep_g) -> QpSolution:
    """sol with duals scattered to the caller's rows and residuals recomputed there."""
    y = _scatter(sol.y, keep_eq, a_full.shape[0])
    z = _scatter(sol.z, keep_g, g_full.shape[0])
    res = _residuals(p, q, a_full, b_full, g_full, h_full, sol.x, y, z)
    return replace(sol, y=y, z=z, kkt_residuals=res)


def _scatter(values: np.ndarray, idx: np.ndarray, size: int) -> np.ndarray:
    out = np.zeros(size)
    out[idx] = values
    return out
