"""Constraint catalog and the tightened dispatch solve.

Under the affine balancing recourse, generator i absorbs the fixed
fraction alpha_i of the total disturbance. Every chance constraint then
takes the common form

    g·p_G + a·xi <= rhs

with a dispatch row g, a disturbance-sensitivity row a, and a constant
right-hand side. Each bound comes with its mirror, -g·p_G - a·xi <=
rhs', and build_catalog stores the two as one pair. The deterministic
surrogate that a DispatchProgram solves keeps g·p_G <= rhs - s·sigma
where sigma = ||a Sigma^(1/2)||_2 and s is the safety parameter being
tuned; each of its solves reuses what the earlier ones found.
All quantities here are per unit; costs are kept in currency by
rescaling the MW-based coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from . import qp
from .grid import GridCase
from .ptdf import compute_ptdf
from .uncertainty import MomentEstimate, sensitivity_norm

__all__ = [
    "ConstraintRow",
    "ConstraintCatalog",
    "DispatchSolution",
    "DispatchProgram",
    "participation_factors",
    "constraint_deltas",
    "build_catalog",
    "case_start",
    "solve_dispatch",
]

def participation_factors(case: GridCase) -> np.ndarray:
    """Read-only capacity-proportional balancing shares alpha, summing
    to one: alpha_i = p_max,i / sum(p_max), exactly zero without
    capacity."""
    p_max = case.p_max_mw()
    total = float(p_max.sum())
    if total <= 0.0:
        raise ValueError("no generation capacity to distribute balancing duty over")
    alpha = p_max / total
    alpha.setflags(write=False)
    return alpha


def constraint_deltas(m: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Per-sample flow sensitivity M(I - alpha·1ᵀ), computed once.

    Row r gives the change of flow on line r per unit of nodal
    disturbance after the balancing recourse withdraws the total
    mismatch according to alpha.
    """
    return m - np.outer(m @ alpha, np.ones(m.shape[1]))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


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


@dataclass(frozen=True, eq=False)
class ConstraintCatalog:
    """Two-sided chance constraints, each stored once as a pair.

    Pair c bounds the sum pair_dispatch[c]·p_G + pair_sensitivity[c]·xi
    from both sides: its upper row is sum <= pair_limits[c, 0], its lower
    row -sum <= pair_limits[c, 1]. Both rows share pair_sigmas[c], as
    ||-a Sigma^(1/2)|| = ||a Sigma^(1/2)||, and pair_degenerate[c], set
    for a bus with p_max = 0, whose sensitivity row is zero. pair_kinds[c]
    is "gen" or "line", pair_subjects[c] the bus id or 1-based line
    number. The arrays are read-only copies, so a catalog built from
    another's arrays is another catalog.

    dispatch_matrix, sensitivity_matrix, limits, sigmas, degenerate and
    rows list the rows, derived once through row_map: for each kind in
    order of first appearance, the upper rows of its pairs, then their
    lower rows. From build_catalog that is gen_upper and gen_lower for
    buses 1..m, then line_upper and line_lower for lines 1..l. A lower
    row is its upper row with the sign bit of every entry flipped, but
    for the zeros of a gen pair's dispatch row -e_i, which are +0.0.
    """

    pair_kinds: tuple[str, ...]
    pair_subjects: tuple[int, ...]
    pair_dispatch: np.ndarray
    pair_sensitivity: np.ndarray
    pair_limits: np.ndarray
    pair_sigmas: np.ndarray
    pair_degenerate: np.ndarray

    def __post_init__(self):
        for name in ("pair_dispatch", "pair_sensitivity", "pair_limits", "pair_sigmas", "pair_degenerate"):
            dtype = bool if name == "pair_degenerate" else float
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name), dtype=dtype)))

    def __len__(self) -> int:
        return 2 * len(self.pair_kinds)

    @property
    def n_active(self) -> int:
        return 2 * int((~self.pair_degenerate).sum())

    @cached_property
    def row_map(self) -> tuple[np.ndarray, np.ndarray]:
        """(pair, side) of each row, side 0 for an upper row and 1 for a
        lower one: values[row_map] lists an (n_pairs, 2) array by row."""
        kinds = list(dict.fromkeys(self.pair_kinds))
        rank = [kinds.index(kind) for kind in self.pair_kinds]
        # Stable: pairs of one kind and side keep their order.
        order = np.lexsort((np.tile([0, 1], len(rank)), np.repeat(rank, 2)))
        return _read_only(order // 2), _read_only(order % 2)

    def _mirrored(self, upper: np.ndarray) -> np.ndarray:
        pair, side = self.row_map
        return np.where(side[:, None] == 1, -upper[pair], upper[pair])

    @cached_property
    def dispatch_matrix(self) -> np.ndarray:
        g = self._mirrored(self.pair_dispatch)
        pair, side = self.row_map
        g[(side == 1) & (np.array(self.pair_kinds)[pair] == "gen")] += 0.0
        return _read_only(g)

    @cached_property
    def sensitivity_matrix(self) -> np.ndarray:
        return _read_only(self._mirrored(self.pair_sensitivity))

    @cached_property
    def limits(self) -> np.ndarray:
        return _read_only(self.pair_limits[self.row_map])

    @cached_property
    def sigmas(self) -> np.ndarray:
        return _read_only(self.pair_sigmas[self.row_map[0]])

    @cached_property
    def degenerate(self) -> np.ndarray:
        return _read_only(self.pair_degenerate[self.row_map[0]])

    @cached_property
    def rows(self) -> tuple[ConstraintRow, ...]:
        """Per-row records whose arrays are read-only views of the matrices."""
        return tuple(
            ConstraintRow(
                f"{self.pair_kinds[c]}_{('upper', 'lower')[side]}", self.pair_subjects[c], g, a,
                float(self.pair_limits[c, side]), float(self.pair_sigmas[c]), bool(self.pair_degenerate[c]),
            )
            for c, side, g, a in zip(*self.row_map, self.dispatch_matrix, self.sensitivity_matrix)
        )


def build_catalog(
    case: GridCase,
    m: np.ndarray,
    alpha: np.ndarray,
    moments: MomentEstimate,
) -> ConstraintCatalog:
    """Assemble the constraint pairs of one case and moment set, from the
    case's PTDF matrix m and participation factors alpha, in per unit.

    Bus i's gen pair has dispatch row e_i, sensitivity alpha_i·1ᵀ and
    limits (p_max_i, -p_min_i); line r's pair has dispatch row m[r],
    sensitivity row r of M(I - alpha·1ᵀ) and limits (cap_r + f_r,
    cap_r - f_r), with f the flows of the loads. Each pair's sigma is
    computed once.
    """
    n, n_lines = case.n_buses, case.n_lines
    if alpha.shape != (n,):
        raise ValueError("participation factors do not match the case dimension")
    if m.shape != (n_lines, n):
        raise ValueError("PTDF shape does not match the case")

    base = case.base_mva
    caps = case.line_capacities_mw() / base
    flows_d = m @ (case.loads_mw() / base)
    sensitivity = np.vstack([np.outer(alpha, np.ones(n)), constraint_deltas(m, alpha)])
    return ConstraintCatalog(
        pair_kinds=("gen",) * n + ("line",) * n_lines,
        pair_subjects=tuple(range(1, n + 1)) + tuple(range(1, n_lines + 1)),
        pair_dispatch=np.vstack([np.eye(n), m]),
        pair_sensitivity=sensitivity,
        pair_limits=np.column_stack([
            np.concatenate([case.p_max_mw() / base, caps + flows_d]),
            np.concatenate([-(case.p_min_mw() / base), caps - flows_d]),
        ]),
        pair_sigmas=np.array([sensitivity_norm(a, moments) for a in sensitivity]),
        pair_degenerate=np.concatenate([case.p_max_mw() == 0.0, np.zeros(n_lines, dtype=bool)]),
    )


@dataclass(frozen=True, eq=False)
class DispatchSolution:
    """Feasible-or-not outcome of one tightened solve.

    p_g is the full-length nodal dispatch (pu, exact zeros at pinned
    buses); objective is the dispatch-dependent cost in $ (quadratic
    plus linear terms; the constant no-load offsets cannot influence the
    argmin and stay out of reported costs). iterations and kkt_residuals
    are those of the program qp solved, without the pinned buses: the
    residuals certified it. qp_solution holds the duals, the working set
    (active) and any infeasibility certificate in full catalog indexing;
    it is built on its first read and kept. qp_start says how the status
    was decided: "segment" (a segment of the parametric path, looked up
    or walked to; iterations counts the swaps walked, 0 for a lookup),
    "certificate" (an earlier Farkas certificate, or the ray handed over
    with the s = 0 solution, rechecked at this s) or "cold" (qp.solve;
    at s = 0 the program's cold solution there, whether it solved it or
    started from it).
    """

    status: str
    p_g: np.ndarray
    objective: float
    qp_start: str
    _solved: qp.QpSolution = field(repr=False)
    _program: DispatchProgram = field(repr=False)

    @property
    def feasible(self) -> bool:
        return self.status == "optimal"

    @property
    def iterations(self) -> int:
        return self._solved.iterations

    @property
    def kkt_residuals(self) -> tuple[float, float, float, float]:
        return self._solved.kkt_residuals

    @cached_property
    def qp_solution(self) -> qp.QpSolution:
        return self._program._inflate(self._solved, self.p_g, self.objective)


class DispatchProgram:
    """The tightened program of one case and catalog, built once and
    solved at any finite, nonnegative s:

    minimize   0.5 pᵀ diag(q) p + linᵀ p   ($)
    subject to 1ᵀ p = total load,  G p <= limits - s·sigmas

    over the nodal setpoints p in pu, with G the catalog's dispatch
    matrix. Buses with p_min = p_max = 0 are eliminated with their own
    pair of rows, whose right-hand side is 0 at every s: on the RTS case
    a cold solve then takes 13-15 pivots, not 59-69, and the s = 0
    dispatch is bit-identical to the deterministic OPF over the
    generator buses alone. A pinned bus's rows are those of its gen pair,
    found by kind and subject, so the catalog may list its kinds in any
    order; a pinned bus without a gen pair is a ValueError. Line rows
    that touch only pinned buses reach qp as constant rows.

    Only h(s) = limits - s·sigmas changes between solves, so the
    program holds one qp.ParametricProgram with dh = -sigmas <= 0, which
    keeps the segments of the optimal path and the certificate its
    solves found. The first solve of a fresh program is cold at its own
    s. But the s = 0 program does not depend on the sigmas, so
    case_start solves it once per case and process (s0), and the
    experiment's pairs and tune without a program start each program
    of the case from it (start_from). The hand-off also carries the
    dual ray where the giving program's path ends, which a receiving
    program rechecks at its own sigmas: where it separates, a solve
    beyond the path end is a 'certificate' with no walk. One caller
    uses a program at a time: an experiment pair's cells share one,
    inside one worker.
    """

    def __init__(self, case: GridCase, catalog: ConstraintCatalog):
        self.case, self.catalog = case, catalog
        base, n = case.base_mva, case.n_buses
        c2, c1, _ = case.cost_coefficients()
        # Objective stays in currency: cost(p_MW) with p in pu needs
        # c2·base² and c1·base.
        q_diag, self._lin = 2.0 * c2 * base * base, c1 * base
        self._pinned = np.flatnonzero((case.p_max_mw() == 0.0) & (case.p_min_mw() == 0.0))
        self._free = free = np.ones(n, dtype=bool)
        free[self._pinned] = False
        if not np.any(free):
            raise ValueError("every bus is pinned; nothing to dispatch")
        kinds, subjects = catalog.pair_kinds, catalog.pair_subjects
        gen_pairs = {subjects[c]: c for c in range(len(kinds)) if kinds[c] == "gen"}
        unbounded = [int(i) + 1 for i in self._pinned if i + 1 not in gen_pairs]
        if unbounded:
            raise ValueError(f"pinned buses {unbounded} have no gen pair in the catalog to eliminate")
        pair_rows = np.empty((len(kinds), 2), dtype=np.int64)
        pair_rows[catalog.row_map] = np.arange(len(catalog))
        # (upper, lower) rows of each pinned bus's gen pair.
        self._pinned_rows = pair_rows[[gen_pairs[i + 1] for i in self._pinned]].T
        self._live = live = np.ones(len(catalog), dtype=bool)
        live[self._pinned_rows] = False
        self._pinned_columns = catalog.dispatch_matrix[:, self._pinned].T.copy()
        self._path = qp.ParametricProgram(
            q_diag[free],
            self._lin[free],
            np.ones((1, int(free.sum()))),
            np.array([case.loads_mw().sum() / base]),
            catalog.dispatch_matrix[np.ix_(live, free)],
            catalog.limits[live],
            -catalog.sigmas[live],
        )

    def solve(self, s: float) -> DispatchSolution:
        """The certified solution at s, in full length and catalog
        indexing: the pinned buses' multipliers close the full system's
        stationarity, and their rows are never in the working set."""
        if not (s >= 0.0 and math.isfinite(s)):
            raise ValueError(f"safety parameter must be finite and nonnegative, got {s}")
        return self._dispatch(*self._path.solve(s))

    def s0(self):
        """See qp.ParametricProgram.s0."""
        return self._path.s0()

    def start_from(self, s0) -> bool:
        """See qp.ParametricProgram.start_from."""
        return self._path.start_from(s0)

    def _dispatch(self, sol: qp.QpSolution, qp_start: str) -> DispatchSolution:
        p_g = np.zeros(self.case.n_buses)
        if sol.optimal:
            p_g[self._free] = sol.x
        return DispatchSolution(sol.status, p_g, sol.objective if sol.optimal else np.inf, qp_start, sol, self)

    def _inflate(self, sol: qp.QpSolution, p_g: np.ndarray, objective: float) -> qp.QpSolution:
        """sol, solved without the pinned buses, in full length and
        catalog indexing, at p_g and objective."""
        pinned, live = self._pinned, self._live
        y, z, active = np.zeros(1), np.zeros(len(self.catalog)), live.copy()
        active[live] = sol.active
        certificate = sol.certificate
        if sol.optimal:
            y = sol.y
            z[live] = sol.z
            # Stationarity at a pinned bus i must close over everything
            # that touches column i: the balance dual, line-row duals, and
            # the bus's own pair of bound rows (its cost term is 0, as
            # p_g[i] = 0). The latter two multipliers are unconstrained by
            # complementarity (their slack is zero), so split the residual
            # by sign to keep both nonnegative.
            resid = self._lin[pinned] + y[0] + self._pinned_columns @ z
            z[self._pinned_rows] = np.maximum([-resid, resid], 0.0)
        elif certificate is not None:
            inequality_dual = np.zeros(len(self.catalog))
            inequality_dual[live] = certificate["inequality_dual"]
            certificate = {**certificate, "inequality_dual": inequality_dual}
        return replace(sol, x=p_g, objective=objective, y=y, z=z, active=active, certificate=certificate)


# One slot: a process works on one case at a time. A GridCase is frozen
# and compares by content, so an equal case, however it was built, hits it.
@lru_cache(maxsize=1)
def case_start(case: GridCase):
    """The s0() hand-off that fresh programs of case start from (see
    DispatchProgram.start_from): the cold s = 0 solution, and the dual
    ray where the path ends, of the case's program under unit moments
    (zero mean, identity covariance over the uncertain buses). No sigma
    enters the s = 0 program, so every catalog built from the case's
    PTDF has it; unit moments also give a path with an end, whose ray a
    receiving program rechecks at its own sigmas."""
    n = case.n_buses
    unit = np.zeros((n, n))
    cols = np.array(case.uncertain_buses, dtype=np.int64) - 1
    unit[cols, cols] = 1.0
    moments = MomentEstimate(np.zeros(n), unit, unit)
    catalog = build_catalog(case, compute_ptdf(case), participation_factors(case), moments)
    return DispatchProgram(case, catalog).s0()


def solve_dispatch(
    case: GridCase, catalog: ConstraintCatalog, s: float, program: DispatchProgram | None = None
) -> DispatchSolution:
    """The tightened dispatch at s (see DispatchProgram): through program,
    a DispatchProgram of this case and catalog whose state the solve
    reuses and extends, or one-shot through a fresh one."""
    if program is None:
        program = DispatchProgram(case, catalog)
    elif program.case is not case or program.catalog is not catalog:
        raise ValueError("program was built for another case or catalog")
    return program.solve(s)
