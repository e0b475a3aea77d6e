"""Constraint catalog and the tightened dispatch solve.

Under the affine balancing recourse, generator i absorbs the fixed
fraction alpha_i of the total disturbance. Every chance constraint then
takes the common form

    g·p_G + a·xi <= rhs

with a dispatch row g, a disturbance-sensitivity row a, and a constant
right-hand side; build_catalog stacks these rows. The deterministic
surrogate that solve_dispatch solves keeps g·p_G <= rhs - s·sigma where
sigma = ||a Sigma^(1/2)||_2 and s is the safety parameter being tuned.
All quantities here are per unit; costs are kept in currency by
rescaling the MW-based coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import qp
from .grid import GridCase
from .ptdf import PtdfMatrix
from .uncertainty import MomentEstimate, sensitivity_norm

__all__ = [
    "ParticipationFactors",
    "ConstraintRow",
    "ConstraintCatalog",
    "DispatchSolution",
    "participation_factors",
    "constraint_deltas",
    "build_catalog",
    "solve_dispatch",
]

GEN_UPPER = "gen_upper"
GEN_LOWER = "gen_lower"
LINE_UPPER = "line_upper"
LINE_LOWER = "line_lower"

# The lower row that mirrors each upper kind, for the same subject.
MIRRORED = {GEN_UPPER: GEN_LOWER, LINE_UPPER: LINE_LOWER}


@dataclass(frozen=True)
class ParticipationFactors:
    """Capacity-proportional balancing shares; alpha sums to one."""

    alpha: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.alpha, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "alpha", arr)


def participation_factors(case: GridCase) -> ParticipationFactors:
    """alpha_i = p_max,i / sum(p_max); exactly zero without capacity."""
    p_max = case.p_max_mw()
    total = float(p_max.sum())
    if total <= 0.0:
        raise ValueError("no generation capacity to distribute balancing duty over")
    return ParticipationFactors(alpha=p_max / total)


def constraint_deltas(m: PtdfMatrix, alpha: ParticipationFactors) -> np.ndarray:
    """Per-sample flow sensitivity M(I - alpha·1ᵀ), computed once.

    Row r gives the change of flow on line r per unit of nodal
    disturbance after the balancing recourse withdraws the total
    mismatch according to alpha.
    """
    entries = m.entries
    return entries - np.outer(entries @ alpha.alpha, np.ones(entries.shape[1]))


@dataclass(frozen=True)
class ConstraintRow:
    """One chance constraint in the unified form g·p_G + a·xi <= rhs.

    kind is one of gen_upper, gen_lower, line_upper, line_lower;
    subject is the bus id for generator rows and the 1-based line
    number for line rows. nominal_limit is the right-hand side of the
    <=-form at s = 0 (pu); sigma is the tightening coefficient
    ||a Sigma^(1/2)||. Degenerate rows belong to buses with p_max = 0:
    their participation factor is zero, so their sensitivity row is
    zero and they can never be violated.
    """

    kind: str
    subject: int
    dispatch_row: np.ndarray
    sensitivity: np.ndarray
    nominal_limit: float
    sigma: float
    degenerate: bool = False

    def __post_init__(self):
        for name in ("dispatch_row", "sensitivity"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True, eq=False)
class ConstraintCatalog:
    """Ordered chance constraints, stored once as dense matrices.

    Row order: gen_upper for buses 1..m, gen_lower for buses 1..m,
    line_upper for lines 1..l, line_lower for lines 1..l, so
    len(catalog) = 2m + 2l. Row c is described by kinds[c] and
    subjects[c] and holds row c of each array. n_active counts the
    non-degenerate rows (2·m_gen + 2l for m_gen buses with capacity);
    the degenerate ones belong to buses with p_max = 0. pairs matches
    each upper row with the lower row that mirrors it.
    """

    kinds: tuple[str, ...]
    subjects: tuple[int, ...]
    dispatch_matrix: np.ndarray
    sensitivity_matrix: np.ndarray
    limits: np.ndarray
    sigmas: np.ndarray
    degenerate: np.ndarray

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def n_active(self) -> int:
        return int((~self.degenerate).sum())

    @cached_property
    def rows(self) -> tuple[ConstraintRow, ...]:
        """Per-row records whose arrays are read-only views of the matrices."""
        return tuple(
            ConstraintRow(kind, subject, g, a, float(limit), float(sigma), bool(degenerate))
            for kind, subject, g, a, limit, sigma, degenerate in zip(
                self.kinds, self.subjects, self.dispatch_matrix, self.sensitivity_matrix,
                self.limits, self.sigmas, self.degenerate,
            )
        )

    @cached_property
    def pairs(self) -> np.ndarray:
        """(n_pairs, 2) row indices: each upper row and its mirrored lower row.

        Rows of kind gen_upper or line_upper pair, in catalog order, with
        the gen_lower or line_lower row of the same subject. Every row
        belongs to exactly one pair, and a lower row's dispatch and
        sensitivity rows equal the negated upper ones, so one sum decides
        both rows of a pair (see _kernels).
        """
        index = {(kind, subject): c for c, (kind, subject) in enumerate(zip(self.kinds, self.subjects))}
        try:
            pairs = np.array(
                [
                    (c, index[MIRRORED[kind], subject])
                    for c, (kind, subject) in enumerate(zip(self.kinds, self.subjects))
                    if kind in MIRRORED
                ],
                dtype=np.int64,
            ).reshape(-1, 2)
        except KeyError as exc:
            kind, subject = exc.args[0]
            raise ValueError(f"catalog has no {kind} row for subject {subject}") from None
        if 2 * len(pairs) != len(self) or len(np.unique(pairs)) != len(self):
            raise ValueError("catalog rows do not split into upper/lower pairs")
        upper, lower = pairs.T
        for name in ("dispatch_matrix", "sensitivity_matrix"):
            matrix = getattr(self, name)
            if not np.array_equal(matrix[lower], -matrix[upper]):
                raise ValueError(f"{name}: a lower row is not its upper row negated")
        pairs.setflags(write=False)
        return pairs

    @cached_property
    def pair_sensitivity(self) -> np.ndarray:
        """(n_pairs, n_buses) sensitivity rows of the pairs' upper rows.

        Read-only and built once, so a count store can recognise the
        catalog it was built for by this array's identity.
        """
        sens = self.sensitivity_matrix[self.pairs[:, 0]]
        sens.setflags(write=False)
        return sens

    @cached_property
    def unit_bus(self) -> np.ndarray:
        """(n_pairs,) the bus whose unit vector is the pair's upper
        dispatch row, or -1 where that row is no unit vector.

        For a finite dispatch p, a unit row's term g·p is exactly p[bus]
        up to the sign of a zero, since every other product is a zero.
        Found from the rows' values, whatever their kinds say.
        """
        g = self.dispatch_matrix[self.pairs[:, 0]]
        pairs, buses = np.nonzero((g == 1.0) & (np.count_nonzero(g, axis=1) == 1)[:, None])
        bus = np.full(len(g), -1)
        bus[pairs] = buses
        bus.setflags(write=False)
        return bus

    def __post_init__(self):
        for name in ("dispatch_matrix", "sensitivity_matrix", "limits", "sigmas", "degenerate"):
            getattr(self, name).setflags(write=False)


def build_catalog(
    case: GridCase,
    m: PtdfMatrix,
    alpha: ParticipationFactors,
    moments: MomentEstimate,
) -> ConstraintCatalog:
    """Assemble the full constraint catalog for one case and moment set."""
    n, n_lines = case.n_buses, case.n_lines
    if alpha.alpha.shape != (n,):
        raise ValueError("participation factors do not match the case dimension")
    if m.entries.shape != (n_lines, n):
        raise ValueError("PTDF shape does not match the case")

    base = case.base_mva
    p_max_mw = case.p_max_mw()
    caps = case.line_capacities_mw() / base
    flows_d = m.entries @ (case.loads_mw() / base)
    eye = np.eye(n)
    gen_sensitivity = np.outer(alpha.alpha, np.ones(n))
    deltas = constraint_deltas(m, alpha)
    sensitivity = np.vstack([gen_sensitivity, -gen_sensitivity, deltas, -deltas])
    no_capacity = p_max_mw == 0.0
    return ConstraintCatalog(
        kinds=(GEN_UPPER,) * n + (GEN_LOWER,) * n + (LINE_UPPER,) * n_lines + (LINE_LOWER,) * n_lines,
        subjects=tuple(range(1, n + 1)) * 2 + tuple(range(1, n_lines + 1)) * 2,
        # + 0.0 keeps the off-diagonal zeros of the gen_lower rows positive.
        dispatch_matrix=np.vstack([eye, -eye + 0.0, m.entries, -m.entries]),
        sensitivity_matrix=sensitivity,
        limits=np.concatenate(
            [p_max_mw / base, -(case.p_min_mw() / base), caps + flows_d, caps - flows_d]
        ),
        sigmas=np.array([sensitivity_norm(a, moments) for a in sensitivity]),
        degenerate=np.concatenate([no_capacity, no_capacity, np.zeros(2 * n_lines, dtype=bool)]),
    )


@dataclass(frozen=True, eq=False)
class DispatchSolution:
    """Feasible-or-not outcome of one tightened solve.

    p_g is the full-length nodal dispatch (pu, exact zeros at pinned
    buses); objective is the dispatch-dependent cost in $ (quadratic
    plus linear terms; the constant no-load offsets cannot influence the
    argmin and stay out of reported costs). The attached QpSolution
    holds the duals, and any infeasibility certificate, in full catalog
    indexing, and the KKT residuals that certified the program
    qp.solve was given, without the pinned buses.
    """

    status: str
    p_g: np.ndarray
    objective: float
    s: float
    qp_solution: qp.QpSolution

    @property
    def feasible(self) -> bool:
        return self.status == "optimal"


def solve_dispatch(
    case: GridCase,
    catalog: ConstraintCatalog,
    s: float,
    start: DispatchSolution | None = None,
) -> DispatchSolution:
    """Solve the tightened program at a finite, nonnegative s:

    minimize   0.5 pᵀ diag(q) p + linᵀ p   ($)
    subject to 1ᵀ p = total load,  G p <= limits - s·sigmas

    over the nodal setpoints p in pu. G is the catalog's dispatch matrix,
    whose generator rows carry the variable bounds. Buses with p_min =
    p_max = 0 are eliminated before solving, with their own pair of
    generator rows, whose right-hand side is 0 at every s. On the RTS
    case this keeps a cold solve at 13-15 pivots, against 59-69 with the
    pinned columns kept, and makes the s = 0 dispatch bit-identical to
    the deterministic OPF over the generator buses alone. Line rows that
    touch only pinned buses reach qp.solve as constant rows. The
    returned primal and duals are re-inflated to full length, with
    multipliers for the pinned buses' rows chosen to close the
    stationarity conditions of the full system; an infeasibility
    certificate's inequality_dual is likewise in catalog indexing.

    start, if given, is an earlier solve on the same case and catalog.
    When it is optimal, the rows it held active, those whose dual
    exceeds their slack at start.s, are passed to qp.solve as its guess
    of the active set at s. qp.solve keeps the guessed point only if it
    certifies it, so a stale start costs time, not accuracy.
    """
    if not (s >= 0.0 and math.isfinite(s)):
        raise ValueError(f"safety parameter must be finite and nonnegative, got {s}")
    base = case.base_mva
    c2, c1, _ = case.cost_coefficients()
    # Objective stays in currency: cost(p_MW) with p in pu needs
    # c2·base² and c1·base.
    q_diag = 2.0 * c2 * base * base
    lin = c1 * base
    d_total = float(case.loads_mw().sum() / base)
    h = catalog.limits - s * catalog.sigmas
    n = case.n_buses
    pinned = np.flatnonzero((case.p_max_mw() == 0.0) & (case.p_min_mw() == 0.0))
    free = np.ones(n, dtype=bool)
    free[pinned] = False
    if not np.any(free):
        raise ValueError("every bus is pinned; nothing to dispatch")
    live = np.ones(len(catalog), dtype=bool)
    live[pinned] = live[n + pinned] = False
    active = None
    if start is not None and start.feasible:
        slack = catalog.limits - start.s * catalog.sigmas - catalog.dispatch_matrix @ start.p_g
        active = np.flatnonzero((start.qp_solution.z > slack)[live])
    sol = qp.solve(
        q_diag[free],
        lin[free],
        np.ones((1, int(free.sum()))),
        [d_total],
        catalog.dispatch_matrix[np.ix_(live, free)],
        h[live],
        active=active,
    )

    p_g = np.zeros(n)
    y = np.zeros(1)
    z = np.zeros(len(catalog))
    certificate = sol.certificate
    if sol.status == "optimal":
        p_g[free] = sol.x
        y = sol.y
        z[live] = sol.z
        # Stationarity at a pinned bus i must close over everything that
        # touches column i: the balance dual, line-row duals, and the
        # bus's own pair of bound rows. The latter two multipliers are
        # unconstrained by complementarity (their slack is zero), so
        # split the residual by sign to keep both nonnegative.
        resid = (q_diag * p_g + lin + y[0] + catalog.dispatch_matrix.T @ z)[pinned]
        z[pinned] = np.maximum(-resid, 0.0)
        z[n + pinned] = np.maximum(resid, 0.0)
    elif certificate is not None:
        inequality_dual = np.zeros(len(catalog))
        inequality_dual[live] = certificate["inequality_dual"]
        certificate = {**certificate, "inequality_dual": inequality_dual}
    objective = sol.objective if sol.status == "optimal" else np.inf
    full = replace(sol, x=p_g, objective=objective, y=y, z=z, certificate=certificate)
    return DispatchSolution(sol.status, p_g, objective, float(s), full)

