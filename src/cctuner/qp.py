"""Dense convex quadratic programming with certified status.

Solves

    minimize    0.5 xᵀ diag(p) x + qᵀ x
    subject to  A x = b,  G x ≤ h

with one Mehrotra predictor-corrector primal-dual interior-point method,
run twice: first on the phase-1 linear program that minimizes the worst
constraint violation, to find a strictly feasible start, then on the QP
itself. Problem sizes here are tiny (tens of variables, ~100
inequalities), so everything is dense and factored from scratch each
iteration.

Infeasibility is reported with a Farkas-type certificate (y, z ≥ 0)
satisfying Aᵀy + Gᵀz = 0 and bᵀy + hᵀz < 0, extracted from the phase-1
dual solution. A phase-1 search that ends at its iteration cap without
settling feasibility is reported as 'max_iterations', never 'infeasible'.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

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
    'optimal' all four are at or below the solve tolerance, except for a
    solve certified at the iteration cap, whose stationarity and
    complementarity meet it relative to the size of their terms (see
    _scaled_optimal). At status 'infeasible' the certificate dict
    carries the separating duals.
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
    stat = p * x + q
    if a.shape[0]:
        stat = stat + a.T @ y
    if g.shape[0]:
        stat = stat + g.T @ z
    stationarity = float(np.abs(stat).max(initial=0.0))
    prim = 0.0
    if a.shape[0]:
        prim = float(np.abs(a @ x - b).max(initial=0.0))
    comp = 0.0
    if g.shape[0]:
        slack = h - g @ x
        prim = max(prim, float(np.maximum(-slack, 0.0).max(initial=0.0)))
        comp = float(np.abs(z * slack).max(initial=0.0))
    dual = float(np.maximum(-z, 0.0).max(initial=0.0)) if z.size else 0.0
    return stationarity, prim, dual, comp


def _solve_kkt(m11: np.ndarray, a: np.ndarray, r1: np.ndarray, r2: np.ndarray):
    """Solve [[M, Aᵀ], [A, 0]] [dx, dy] = [r1, r2], regularizing if singular."""
    n, k = m11.shape[0], a.shape[0]
    kkt = np.zeros((n + k, n + k))
    kkt[:n, :n] = m11
    if k:
        kkt[:n, n:] = a.T
        kkt[n:, :n] = a
    rhs = np.concatenate([r1, r2])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        reg = 1e-12 * max(1.0, float(np.abs(m11).max(initial=0.0)))
        kkt[:n, :n] += reg * np.eye(n)
        kkt[n:, n:] -= reg * np.eye(k)
        sol = np.linalg.solve(kkt, rhs)
    return sol[:n], sol[n:]


def _solve_equality_qp(p, q, a, b, tol):
    """KKT solve for the inequality-free case."""
    n, k = q.size, a.shape[0]
    if k == 0:
        if np.any((p <= 0.0) & (np.abs(q) > 0.0)):
            raise ValueError("unbounded: zero curvature along a nonzero linear direction")
        x = np.where(p > 0.0, -q / np.where(p > 0.0, p, 1.0), 0.0)
        y = np.zeros(0)
    else:
        x, y = _solve_kkt(np.diag(p), a, -q, b)
    res = _residuals(p, q, a, b, np.zeros((0, n)), np.zeros(0), x, y, np.zeros(0))
    status = "optimal" if max(res) <= max(tol, 1e-9 * max(1.0, float(np.abs(x).max(initial=0.0)))) else "max_iterations"
    obj = float(0.5 * x @ (p * x) + q @ x)
    return QpSolution(status, x, obj, y, np.zeros(0), res, 0)


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest alpha in (0, 1] keeping v + alpha*dv positive."""
    shrink = dv < 0.0
    if not np.any(shrink):
        return 1.0
    return float(min(1.0, np.min(-v[shrink] / dv[shrink])))


def _scaled_optimal(p, q, a, g, h, x, y, z, res, tol) -> bool:
    """KKT test relative to the magnitudes of the terms (as OSQP and ECOS do).

    Near the feasibility boundary of a tightened program the inequality
    duals grow to ~1e6, and double precision cannot push the absolute
    stationarity and complementarity residuals below 1e-8 there. Primal
    and dual feasibility stay absolute.
    """
    stat_scale = max(1.0, *(float(np.abs(v).max(initial=0.0)) for v in (p * x, q, a.T @ y, g.T @ z)))
    gap_scale = max(1.0, abs(float(0.5 * x @ (p * x) + q @ x)))
    mu = float((h - g @ x) @ z) / g.shape[0]
    return (
        res[0] <= tol * stat_scale
        and max(res[1], res[2]) <= tol
        and max(res[3], abs(mu)) <= tol * gap_scale
    )


def _ipm(p, q, a, b, g, h, x0, tol, max_iters, stop=None):
    """Mehrotra predictor-corrector from a strictly feasible primal start.

    A linear program (p = 0) moves its primal and dual iterates by
    separate step lengths, and a tiny ridge keeps its Newton matrix
    nonsingular. stop(x), if given, ends the search at the first iterate
    it accepts, which is returned as if converged.
    """
    n, k, c = q.size, a.shape[0], g.shape[0]
    linear = not p.any()
    x = x0.copy()
    s = h - g @ x
    if np.any(s <= 0.0):
        raise ValueError("interior-point start is not strictly feasible")
    z = np.ones(c)
    y = np.zeros(k)
    best = None
    for it in range(1, max_iters + 1):
        r_dual = p * x + q + g.T @ z + (a.T @ y if k else 0.0)
        r_eq = a @ x - b if k else np.zeros(0)
        r_ineq = g @ x + s - h
        mu = float(s @ z) / c
        res = _residuals(p, q, a, b, g, h, x, y, z)
        if best is None or max(res) < best[0]:
            best = (max(res), x.copy(), y.copy(), z.copy(), res)
        if (max(res[0], res[1], res[3]) <= tol and mu <= tol) or (stop is not None and stop(x)):
            obj = float(0.5 * x @ (p * x) + q @ x)
            return QpSolution("optimal", x, obj, y, z, res, it - 1)

        # Slacks pinned on the boundary give extreme z/s ratios; the step
        # length clamp below keeps the iteration finite, so the transient
        # overflow is expected and silenced.
        with np.errstate(over="ignore", invalid="ignore"):
            w = z / s
            m11 = np.diag(p) + (g.T * w) @ g
            if linear:
                # Columns absent from G would otherwise be singular.
                m11 += 1e-12 * max(1.0, float(np.abs(m11).max())) * np.eye(n)

        def newton_step(rc):
            v = (z * r_ineq - rc) / s
            dx, dy = _solve_kkt(m11, a, -(r_dual + g.T @ v), -r_eq)
            dz = w * (g @ dx) + v
            ds = -r_ineq - g @ dx
            return dx, dy, ds, dz

        def step_lengths(ds, dz):
            # The quadratic term couples the dual residual to the primal
            # step, so a QP moves primal and dual by one common length.
            alpha_p, alpha_d = _max_step(s, ds), _max_step(z, dz)
            return (alpha_p, alpha_d) if linear else (min(alpha_p, alpha_d),) * 2

        # Predictor: pure Newton step toward complementarity zero.
        dx_a, dy_a, ds_a, dz_a = newton_step(s * z)
        alpha_p, alpha_d = step_lengths(ds_a, dz_a)
        mu_aff = float((s + alpha_p * ds_a) @ (z + alpha_d * dz_a)) / c
        sigma = (mu_aff / mu) ** 3 if mu > 0.0 else 0.0
        # Corrector re-targets sigma*mu and compensates the predictor cross term.
        dx, dy, ds, dz = newton_step(s * z + ds_a * dz_a - sigma * mu)
        alpha_p, alpha_d = (0.99 * alpha for alpha in step_lengths(ds, dz))
        x += alpha_p * dx
        s += alpha_p * ds
        y += alpha_d * dy
        z += alpha_d * dz

    _, x, y, z, res = best
    obj = float(0.5 * x @ (p * x) + q @ x)
    status = "optimal" if _scaled_optimal(p, q, a, g, h, x, y, z, res, tol) else "max_iterations"
    return QpSolution(status, x, obj, y, z, res, max_iters)


def _phase1(a, b, g, h, x0, tol, max_iters):
    """Minimize the worst constraint violation t over (x, t) with _ipm.

    Returns (strictly feasible x, None), (None, infeasibility certificate),
    or (None, None) when the iteration cap ends the search undecided. At
    the cap the best iterate's duals count as a certificate only if they
    pass OSQP's infeasibility test at threshold sqrt(tol): Farkas
    stationarity at most that, and the gap below minus that, both
    relative to the largest dual.
    """
    n, k, c = x0.size, a.shape[0], g.shape[0]
    # Variables (x, t): min t s.t. Ax = b, Gx - t <= h, -t <= 1.
    q1 = np.zeros(n + 1)
    q1[-1] = 1.0
    a1 = np.hstack([a, np.zeros((k, 1))]) if k else np.zeros((0, n + 1))
    g1 = np.vstack([np.hstack([g, -np.ones((c, 1))]), np.zeros((1, n + 1))])
    g1[-1, -1] = -1.0
    h1 = np.concatenate([h, [1.0]])
    t0 = float(np.max(g @ x0 - h, initial=0.0)) + 1.0

    def strictly_feasible(xt):
        # Any t comfortably below zero certifies strict feasibility.
        return xt[-1] < -1e-3 and (k == 0 or np.abs(a @ xt[:n] - b).max(initial=0.0) <= tol)

    sol = _ipm(np.zeros(n + 1), q1, a1, b, g1, h1, np.append(x0, t0), tol, max_iters, strictly_feasible)
    t_star = float(sol.x[-1])
    if t_star < -tol:
        return sol.x[:n], None
    # Farkas-style separating duals from the phase-1 optimum: Aᵀy + Gᵀz = 0,
    # z >= 0, and bᵀy + hᵀz = -t* < 0 when no feasible point exists.
    y, z_g = sol.y, sol.z[:c]
    certificate = {
        "equality_dual": y.copy(),
        "inequality_dual": z_g.copy(),
        "farkas_gap": float((b @ y if k else 0.0) + h @ z_g),
        "stationarity": float(
            np.abs((a.T @ y if k else 0.0) + g.T @ z_g).max(initial=0.0)
        ),
        "infeasibility": t_star,
    }
    if sol.iterations == max_iters:  # stopped by the cap, not converged
        farkas_tol = np.sqrt(tol) * max(float(np.abs(y).max(initial=0.0)), float(z_g.max(initial=0.0)))
        if not (certificate["stationarity"] <= farkas_tol and certificate["farkas_gap"] < -farkas_tol):
            logger.warning("phase 1 hit iteration cap %d undecided at t=%.3e", max_iters, t_star)
            return None, None
    return None, certificate


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

    p_diag must be elementwise nonnegative. Vacuous all-zero constraint
    rows are dropped up front (an all-zero row with an unsatisfiable
    right-hand side short-circuits to 'infeasible'); returned dual
    vectors keep the caller's row indexing, with zeros on dropped rows.
    """
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

    def restore(sol: QpSolution, keep_eq, keep_g) -> QpSolution:
        y = np.zeros(a_full.shape[0])
        z = np.zeros(g_full.shape[0])
        y[keep_eq] = sol.y
        z[keep_g] = sol.z
        res = _residuals(p, q, a_full, b_full, g_full, h_full, sol.x, y, z)
        return QpSolution(sol.status, sol.x, sol.objective, y, z, res, sol.iterations, sol.certificate)

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
        return restore(_solve_equality_qp(p, q, a, b, tol), keep_eq, keep_g)

    # Minimum-norm equality solution as the phase-1 anchor.
    if a.shape[0]:
        x0 = np.linalg.lstsq(a, b, rcond=None)[0]
    else:
        x0 = np.zeros(n)
    if float(np.max(g @ x0 - h)) < -1e-9:
        x_feas = x0
    else:
        x_feas, certificate = _phase1(a, b, g, h, x0, tol, max_iters)
        if x_feas is None and certificate is None:
            return QpSolution("max_iterations", np.zeros(n), np.inf, y, z, (0.0, np.inf, 0.0, 0.0), max_iters)
        if x_feas is None:
            certificate["equality_dual"] = _scatter(certificate["equality_dual"], keep_eq, y.size)
            certificate["inequality_dual"] = _scatter(certificate["inequality_dual"], keep_g, z.size)
            primal = (0.0, certificate["infeasibility"], 0.0, 0.0)
            return QpSolution("infeasible", np.zeros(n), np.inf, y, z, primal, 0, certificate)
    sol = _ipm(p, q, a, b, g, h, x_feas, tol, max_iters)
    if not sol.optimal:
        logger.warning("interior-point method hit iteration cap %d; best residual %.3e", max_iters, max(sol.kkt_residuals))
    return restore(sol, keep_eq, keep_g)


def _scatter(values: np.ndarray, idx: np.ndarray, size: int) -> np.ndarray:
    out = np.zeros(size)
    out[idx] = values
    return out
