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

One tolerance, DEFAULT_TOL = 1e-8, and one pivot cap for both phases
together, DEFAULT_MAX_ITERS = 200, hold for every solve and recheck.
A point is 'optimal' only if no multiplier is negative and all four KKT
residuals are at or below the tolerance; otherwise a search that stops,
at a stationary point or at the pivot cap, ends as 'max_iterations'. A
descent ray that no row blocks is 'unbounded'. Infeasibility is reported
with the working-set multipliers of a phase-1 optimum t* above the
tolerance, a Farkas certificate (y, z ≥ 0) with Aᵀy + Gᵀz = 0 and
bᵀy + hᵀz = -t* < 0. A phase 1 that ends without one is
'max_iterations', never 'infeasible'.
Rows are solved as given: an all-zero inequality row never blocks a
step, and phase 1 certifies one with h < 0 infeasible.

Every returned QpSolution carries its working set `active`: a boolean
mask over the inequality rows, set where the returned point holds a row
at equality.

A ParametricProgram solves the family h(s) = h0 + s·dh, dh <= 0, from
what its earlier solves found. For a working set the KKT matrix does
not depend on s, so the optimal point is piecewise affine in s (Best
1996, "An algorithm for the solution of the parametric quadratic
programming problem"), and a solve walks that path one row swap at a
time, as the online active-set strategy of Ferreau, Bock & Diehl (2008,
IJRNC 18(8), qpOASES) does. As h(0) = h0 does not depend on dh,
programs that differ only in dh can start from one cold solution at
s = 0, and from the dual ray where one of their paths ends
(ParametricProgram.s0 and start_from): a Farkas ray (y, z >= 0, Aᵀy +
Gᵀz = 0) depends only on A and G, and its gap only on b, h0 and each
program's own dh. A segment point counts only if it passes the test
above at s, and a certificate only if certified_infeasible finds that
it still separates at h(s); otherwise the program walks or solves
cold, so a reuse never makes a solve infeasible or accepts a point the
test would reject.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = ["QpSolution", "Segment", "ParametricProgram", "solve", "certified_infeasible"]

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
    when the search stopped, or the working set of a segment's point.
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


def _active_set(p, q, a, b, g, h, x, work, max_iters, stop=None):
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
                status = "optimal" if max(res) <= DEFAULT_TOL else "max_iterations"
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
        # A ratio that overflows is +inf: that row does not block, as for
        # the rows left out above.
        with np.errstate(over="ignore"):
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


def _farkas(a, b, g, h, y, z) -> dict | None:
    """The certificate of (y, z) if z >= 0, |Aᵀy + Gᵀz| <= DEFAULT_TOL
    and bᵀy + hᵀz < -DEFAULT_TOL, which proves Ax = b, Gx <= h
    infeasible; else None."""
    certificate = {
        "equality_dual": y.copy(),
        "inequality_dual": z.copy(),
        "farkas_gap": float(b @ y + h @ z),
        "stationarity": float(np.abs(a.T @ y + g.T @ z).max(initial=0.0)),
    }
    if np.all(z >= 0.0) and certificate["stationarity"] <= DEFAULT_TOL and certificate["farkas_gap"] < -DEFAULT_TOL:
        return certificate
    return None


def _infeasible(g, k, certificate, iterations) -> QpSolution:
    c, n = g.shape
    primal = (0.0, certificate["infeasibility"], 0.0, 0.0)
    return QpSolution("infeasible", np.zeros(n), np.inf, np.zeros(k), np.zeros(c), primal, iterations, np.zeros(c, dtype=bool), certificate)


def _phase1(a, b, g, h, x0):
    """Minimize the worst violation t over (x, t) with _active_set, from x0,
    within the pivot cap DEFAULT_MAX_ITERS.

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
    sol = _active_set(np.zeros(n + 1), q1, a1, b, g1, np.append(h, 1.0), start, work, DEFAULT_MAX_ITERS, lambda xt: xt[-1] < 0.0)
    # At a minimizer with t* > 0 the t column of stationarity gives
    # sum(z) = 1, and complementarity on the working rows gives
    # bᵀy + hᵀz = -t*. The test is on (y, z) alone, which stay exact
    # where x is known only to its last digits.
    certificate = _farkas(a, b, g, h, sol.y, sol.z[:c])
    if certificate is not None:
        certificate["infeasibility"] = float(sol.x[-1])
    return sol, certificate


def solve(p_diag, q, a_eq, b_eq, g_ineq, h_ineq) -> QpSolution:
    """Solve the diagonal-Hessian convex QP; see the module docstring.

    The tolerance is DEFAULT_TOL and phase 1 and phase 2 together take
    at most DEFAULT_MAX_ITERS pivots, both read at each call. p_diag
    must be elementwise nonnegative, and at least one inequality row is
    required, else ValueError: phase 1 starts on the most violated one.
    Every row is solved as given, all-zero rows included, and an
    optimal point's kkt_residuals are the ones that certified it.
    """
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
    start, certificate = _phase1(a, b, g, h, x0)
    if certificate is not None:
        return _infeasible(g, a.shape[0], certificate, start.iterations)
    # Any x within DEFAULT_TOL of every row is a start; phase 1 need not be
    # optimal.
    if start.x[-1] > DEFAULT_TOL:
        logger.warning("phase 1 ended %s after %d pivots at t=%.3e", start.status, start.iterations, start.x[-1])
        y, z, no_rows = np.zeros(a.shape[0]), np.zeros(g.shape[0]), np.zeros(g.shape[0], dtype=bool)
        return QpSolution("max_iterations", np.zeros(n), np.inf, y, z, (0.0, np.inf, 0.0, 0.0), start.iterations, no_rows)
    x = start.x[:n]
    sol = _active_set(p, q, a, b, g, h, x, g @ x >= h, DEFAULT_MAX_ITERS - start.iterations)
    sol = replace(sol, iterations=start.iterations + sol.iterations)
    if not sol.optimal:
        logger.warning("active-set method ended %s after %d pivots; residual %.3e", sol.status, sol.iterations, max(sol.kkt_residuals))
    return sol


@dataclass(frozen=True, eq=False)
class Segment:
    """One piece of a ParametricProgram's optimal path.

    For the working set `on` the KKT matrix does not depend on s, so the
    KKT point is affine in s: x = x[0] + (s - s0)·x[1], and likewise y
    and z (zero off `on`). It is read from the s0 it was built at, where
    it passed the residual test, because near a degenerate vertex the
    terms at s = 0 grow large and cancel. On [lo, hi] no slack off `on`
    and no multiplier on it changes sign. ends names the row whose slack
    (off `on`) or multiplier (on `on`) reaches 0 at lo and at hi: -1
    where that end is infinite, -2 where two rows reach 0 together.
    """

    on: np.ndarray
    s0: float
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    lo: float
    hi: float
    ends: tuple[int, int]

    def at(self, s):
        t = s - self.s0
        return self.x[0] + t * self.x[1], self.y[0] + t * self.y[1], self.z[0] + t * self.z[1]


def _first(steps) -> int:
    """The index of the smallest step: -1 if every step is inf, -2 if
    the two smallest tie."""
    order = np.argsort(steps)[:2]
    if steps[order[0]] == np.inf:
        return -1
    if order.size > 1 and steps[order[1]] - steps[order[0]] <= 1e-12 * max(1.0, steps[order[0]]):
        return -2
    return int(order[0])


def _ends(f, s):
    """((lo, lo_row), (hi, hi_row)): where the first of the affine
    functions f[0] + (s' - s)·f[1], each at least 0 at s, reaches 0
    below s and above it, and _first's row of each."""
    # Called under np.errstate(all="ignore"): a flat function's step is
    # inf or nan, and is not used.
    steps = np.maximum(f[0], 0.0) / np.abs(f[1])
    down, up = np.where(f[1] > 0.0, steps, np.inf), np.where(f[1] < 0.0, steps, np.inf)
    return (s - down.min(), _first(down)), (s + up.min(), _first(up))


class ParametricProgram:
    """The QPs of fixed p, q, A, b and G over h(s) = h0 + s·dh, dh <= 0,
    solved at any s from what earlier solves found.

    As h only shrinks as s grows, a Farkas certificate's gap bᵀy +
    h(s)ᵀz is affine and nonincreasing in s. So solve first rechecks the
    kept certificate that separates from the smallest s on, at any s
    from there; then looks s up in the stored segment nearest to it,
    walking the path from that segment's edge if s lies outside it; and
    only then runs solve cold, whose working set seeds a new segment.
    Every status returned is certified at s: 'optimal' by the
    four-residual test and z >= 0, 'infeasible' by a certificate that
    separates at h(s). It checks none of its arrays: a cold solve, its
    own or that of the program whose s0 it starts from, checks them. An
    optimal cold solution at s = 0 is returned by every later solve at
    s = 0, so that stays bit-identical to the cold solve. How a solve
    got its answer (start, iterations, the infeasibility a certificate
    proves) may depend on what the program started from; its status
    does not, nor, where no walk stops, its point: every walk goes up
    from the s = 0 segment, so each segment is built at the same edge.
    """

    def __init__(self, p, q, a, b, g, h0, dh):
        self.arrays = (p, q, a, b, g)
        self.h0, self.dh = h0, dh
        self._segments: dict[bytes, Segment] = {}
        self._certificate: tuple[float, dict] | None = None
        self._s0: QpSolution | None = None
        self._handoff: tuple | None = None

    def solve(self, s: float) -> tuple[QpSolution, str]:
        """(solution, start): start is 'certificate', 'segment' or
        'cold', whichever decided the status; the kept cold solution at
        s = 0 counts as 'cold'."""
        if s == 0.0 and self._s0 is not None and self._s0.optimal:
            return self._s0, "cold"
        p, q, a, b, g = self.arrays
        h = self.h0 + s * self.dh
        sol = None
        if self._certificate is not None and s >= self._certificate[0]:
            sol, start = certified_infeasible(a, b, g, h, self._certificate[1]), "certificate"
        if sol is None and self._segments:
            # The segment holding s, else the one whose edge is nearest.
            nearest = min(self._segments.values(), key=lambda seg: max(seg.lo - s, s - seg.hi))
            sol, start = self.walk(nearest, s, h), "segment"
        if sol is None:
            sol, start = solve(p, q, a, b, g, h), "cold"
        if start == "cold" or sol.status == "infeasible":
            self._keep(sol, s)
        return sol, start

    def s0(self) -> tuple[tuple, QpSolution, dict | None]:
        """(arrays, solution, ray), for start_from: the cold solution at
        s = 0, solved once, with the (p, q, A, b, G, h0) it solves, and
        the dual ray where this program's path ends, found once by a
        walk from the solution's segment and kept as its certificate too.
        ray is None where the path has no end (dh = 0), the walk stops,
        or the solution is not optimal."""
        if self._handoff is None:
            if self._s0 is None:
                self._s0 = solve(*self.arrays, self.h0)
                self._keep(self._s0, 0.0)
            seg = self._segments.get(self._s0.active.tobytes()) if self._s0.optimal else None
            ray = None if seg is None else self._walk(seg, np.inf)[0]
            if not isinstance(ray, dict):
                ray = None
            # Every program that starts from it shares these arrays.
            for v in (self._s0.x, self._s0.y, self._s0.z, self._s0.active, *(ray or {}).values()):
                v.flags.writeable = False
            if ray is not None:
                self._keep_ray(ray)
            self._handoff = ((*self.arrays, self.h0), self._s0, ray)
        return self._handoff

    def start_from(self, s0) -> bool:
        """Keep what s0, another program's s0(), certifies if it solves
        this program's (p, q, A, b, G, h0): its solution, and its ray as
        a certificate whose reach this program's dh decides; else, or if
        s0 is None, False, and nothing is kept."""
        if s0 is None or not all(np.array_equal(u, v) for u, v in zip(s0[0], (*self.arrays, self.h0))):
            return False
        self._keep(s0[1], 0.0)
        if s0[2] is not None:
            self._keep_ray(s0[2])
        return True

    def _keep(self, sol, s) -> None:
        """Keep what sol, a cold or infeasible solution at s, certifies:
        the segment of an optimal one, which at s = 0 is also returned
        there; the certificate of an infeasible one (see _keep_ray)."""
        if sol.optimal:
            seg = self.segment(sol.active, s)
            if seg is not None:
                self._segments.setdefault(seg.on.tobytes(), seg)
            if s == 0.0:
                self._s0 = sol
        elif sol.status == "infeasible":
            self._keep_ray(sol.certificate)

    def _keep_ray(self, certificate) -> None:
        """Keep certificate's duals if they separate from a smaller s on
        than the kept certificate's, by this program's h0 and dh."""
        y, z = certificate["equality_dual"], certificate["inequality_dual"]
        gap, slope = float(self.arrays[3] @ y + self.h0 @ z), float(self.dh @ z)
        # The gap at s is gap + s·slope: from reach on it separates.
        reach = (-DEFAULT_TOL - gap) / slope if slope < 0.0 else (-np.inf if gap < -DEFAULT_TOL else np.inf)
        if self._certificate is None or reach < self._certificate[0]:
            self._certificate = (reach, certificate)

    def segment(self, on, s) -> Segment | None:
        """The Segment of working set `on` through s, or None unless its
        point at s passes the four-residual test. One solve with two
        right-hand sides gives the point at s and its slope."""
        p, q, a, b, g = self.arrays
        n, k, c = q.size, a.shape[0], g.shape[0]
        h = self.h0 + s * self.dh
        rows = np.vstack([a, g[on]])
        # [[diag(p), rowsᵀ], [rows, 0]], filled in place: np.block's
        # checks cost as much as the solve below.
        kkt = np.zeros((n + rows.shape[0],) * 2)
        kkt[:n, :n].flat[:: n + 1] = p
        kkt[n:, :n], kkt[:n, n:] = rows, rows.T
        rhs = np.zeros((kkt.shape[0], 2))
        rhs[:n, 0], rhs[n : n + k, 0] = -q, b
        rhs[n + k :] = np.column_stack([h[on], self.dh[on]])
        # A singular or ill-posed working set may produce inf or NaN; the
        # test below rejects such a point.
        with np.errstate(all="ignore"):
            try:
                sol = np.linalg.solve(kkt, rhs)
                # One step of refinement: the multipliers grow large near
                # the end of the path, and the first solve's error in
                # the working rows grows with them.
                sol = (sol + np.linalg.solve(kkt, rhs - kkt @ sol)).T
            except np.linalg.LinAlgError:
                return None
            x, y, z = sol[:, :n], sol[:, n : n + k], np.zeros((2, c))
            z[:, on] = sol[:, n + k :]
            if not max(_residuals(p, q, a, b, g, h, x[0], y[0], z[0])) <= DEFAULT_TOL:
                return None
            # Slacks off the working set, multipliers on it.
            f = np.where(on, z, np.vstack([h, self.dh]) - x @ g.T)
            (lo, lo_row), (hi, hi_row) = _ends(f, s)
        return Segment(on.copy(), float(s), x, y, z, lo, hi, (lo_row, hi_row))

    def walk(self, seg, s, h) -> QpSolution | None:
        """The certified solution at s, walked to from seg (see _walk):
        the point at s of the segment that holds s, or 'infeasible' if
        the ray where the path ends separates at h = h(s). Its iterations
        count the swaps. None where the walk stops or the point fails
        the test: the caller then solves cold."""
        p, q, a, b, g = self.arrays
        end, swaps = self._walk(seg, s)
        if isinstance(end, Segment):
            x, y, z = end.at(s)
            res = _residuals(p, q, a, b, g, h, x, y, z)
            if not (max(res) <= DEFAULT_TOL and np.all(z >= 0.0)):
                return None
            return QpSolution("optimal", x, float(0.5 * x @ (p * x) + q @ x), y, z, res, swaps, end.on)
        sol = None if end is None else certified_infeasible(a, b, g, h, end)
        return None if sol is None else replace(sol, iterations=swaps)

    def _walk(self, seg, s) -> tuple[Segment | dict | None, int]:
        """(end, swaps): the segment that holds s (which may be inf), or
        the dual ray where the path ends before s, reached from seg in
        swaps row swaps; end is None where the walk stops.

        Each swap steps to the edge of the current segment toward s,
        where one row changes sides. A row whose multiplier reached 0
        leaves. A row whose slack reached 0 enters, unless it depends on
        the working rows: then the working row that first loses its
        multiplier as the new one grows leaves, and if none does, the
        path ends, and the dual ray there, {equality_dual,
        inequality_dual}, is a Farkas certificate candidate. A tie, a
        swap that makes no progress, a segment that fails the test or
        the pivot cap DEFAULT_MAX_ITERS stops the walk.
        """
        a, g = self.arrays[2], self.arrays[4]
        k = a.shape[0]
        for swaps in range(DEFAULT_MAX_ITERS + 1):
            if seg.lo <= s <= seg.hi:
                return seg, swaps
            up = s > seg.hi
            edge, row = (seg.hi, seg.ends[1]) if up else (seg.lo, seg.ends[0])
            if row < 0 or swaps == DEFAULT_MAX_ITERS:
                return None, swaps
            on = seg.on.copy()
            if not on[row]:
                rows = np.vstack([a, g[on]])
                w = np.linalg.lstsq(rows.T, g[row], rcond=None)[0]
                if np.abs(rows.T @ w - g[row]).max() <= 1e-9 * max(1.0, float(np.abs(g[row]).max())):
                    w_on, ratios = np.zeros(g.shape[0]), np.full(g.shape[0], np.inf)
                    w_on[on] = w[k:]
                    leaving = w_on > 1e-12
                    ratios[leaving] = seg.at(edge)[2][leaving] / w_on[leaving]
                    first = _first(ratios)
                    if first == -1:
                        z = np.maximum(-w_on, 0.0)
                        z[row] = 1.0
                        return {"equality_dual": -w[:k] / z.sum(), "inequality_dual": z / z.sum()}, swaps
                    if first == -2:
                        return None, swaps
                    on[first] = False
            on[row] = not on[row]
            seg = self.segment(on, edge)
            if seg is None or not (seg.hi > edge if up else seg.lo < edge):
                return None, swaps
            self._segments.setdefault(seg.on.tobytes(), seg)
        return None, swaps


def certified_infeasible(a, b, g, h, certificate) -> QpSolution | None:
    """'infeasible' with iterations = 0 if the duals of certificate, from
    a solve of the same rows at another h, still separate at this h by
    more than DEFAULT_TOL (see _farkas); else None. Its infeasibility is
    -farkas_gap: for duals that sum to one, as phase 1 leaves them,
    every x with Ax = b violates some row by at least that much."""
    found = _farkas(a, b, g, h, certificate["equality_dual"], certificate["inequality_dual"])
    if found is None:
        return None
    found["infeasibility"] = -found["farkas_gap"]
    return _infeasible(g, a.shape[0], found, 0)
