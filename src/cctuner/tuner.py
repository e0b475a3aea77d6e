"""Bisection tuning of the safety parameter s.

The tuner brackets s between a loose lower bound and a distribution-free
upper bound, solves the tightened dispatch at the midpoint through one
DispatchProgram (which walks the parametric path of its earlier solves
and rechecks their certificates), measures the empirical violation
probability on a fixed tuning sample set, and contracts the bracket
until the observed probability sits within gamma of the target, the
bracket collapses, or the iteration cap is reached. Observed
probabilities are exact fractions, so the gamma test is free of float
rounding.
"""

from __future__ import annotations

import io
import logging
import math
import time
import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional, Tuple

import numpy as np

from .grid import parse_integer, parse_number
from .reformulation import ConstraintCatalog, DispatchProgram, case_start, solve_dispatch
from .violation import count_store, evaluate

logger = logging.getLogger(__name__)

MODES = ("single", "joint")

TERMINATED_EPS = "eps_tolerance"
TERMINATED_COLLAPSE = "interval_collapse"
TERMINATED_CAP = "iteration_cap"


class TuningError(RuntimeError):
    """Raised when no iterate can be returned as the tuned solution."""


@dataclass(frozen=True)
class TuningConfig:
    """Target violation probability and stopping rules.

    The one home of the eps, gamma, mode, width_tol and max_iterations
    rules; ExperimentConfig builds one per (mode, eps) cell, once. A
    Fraction is taken as it is; any other number is read from its str()
    by grid.parse_number, so eps_des=0.1 is exactly 1/10 and nan, inf, a
    bool or a magnitude beyond the float range is a ValueError. eps_des
    lies strictly inside (0, 1), and so does its float, which the bracket
    and the reference quantile read. eps_des and gamma are held as
    Fractions, width_tol as a positive float, max_iterations as an int >= 1.
    """

    eps_des: Fraction
    gamma: Fraction
    mode: str = "single"
    width_tol: float = 1e-6
    max_iterations: int = 60

    def __post_init__(self):
        for name in ("eps_des", "gamma", "width_tol", "max_iterations"):
            read = parse_integer if name == "max_iterations" else parse_number
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, read(value if isinstance(value, Fraction) else str(value)))
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
        object.__setattr__(self, "width_tol", float(self.width_tol))
        if not 0 < self.eps_des < 1:
            raise ValueError(f"eps_des must lie strictly between 0 and 1, got {float(self.eps_des):g}")
        if not 0 < float(self.eps_des) < 1:
            raise ValueError(f"eps_des is too close to 0 or 1 for floats: it rounds to {float(self.eps_des):g}")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        # Zero never collapses the bracket, so it is rejected here rather
        # than found at the iteration cap.
        if not self.width_tol > 0:
            raise ValueError("width_tol must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")

    def observed(self, eps_single, eps_joint):
        """The frequency of this config's mode."""
        return eps_single if self.mode == "single" else eps_joint


@dataclass(frozen=True)
class TuningIterate:
    """One bisection step. eps and cost are None when the solve failed.

    bracket is the interval (s_min, s_max) the step bisected; s is its
    midpoint.

    qp_status is the status of the QP solve at s and qp_start how it was
    decided (see DispatchSolution). qp_iterations counts the active-set
    pivots (phase 1 plus phase 2) of a cold solve, the swaps walked
    along the path for a segment (0 for a lookup), and 0 for a
    certificate recheck. A program that starts from an s = 0 solution
    walks from its first solve on; that s = 0 solve, and the walk that
    found the ray handed over with it, belong to no iterate (see tune
    and reformulation.case_start). So qp_start, qp_iterations and
    kkt_max depend on where the program started; status, eps and cost
    do not. kkt_max is the largest of the solve's four KKT residuals:
    its optimality certificate when optimal, when infeasible the worst
    violation its certificate proves (phase 1's optimum on a cold
    solve). solve_s and count_s are the wall-clock seconds of the
    iterate's QP solve and of its tuning-set count (0.0 when infeasible,
    since nothing is counted); they do not take part in comparisons.
    """

    iteration: int
    s: float
    bracket: Tuple[float, float]
    feasible: bool
    eps_single: Optional[Fraction]
    eps_joint: Optional[Fraction]
    cost: Optional[float]
    qp_status: str
    qp_start: str
    qp_iterations: int
    kkt_max: float
    solve_s: float = field(compare=False)
    count_s: float = field(compare=False)


@dataclass(frozen=True)
class TuningResult:
    config: TuningConfig
    s: float
    objective: Optional[float]
    p_g: Optional[np.ndarray]
    eps_single: Fraction
    eps_joint: Fraction
    chosen_iteration: int
    terminated_by: str
    trace: Tuple[TuningIterate, ...]

    @property
    def iterations(self) -> int:
        return len(self.trace)

    @property
    def eps_obs(self) -> Fraction:
        return self.config.observed(self.eps_single, self.eps_joint)


def initial_bounds(config: TuningConfig, n_constraints: Optional[int] = None):
    """Distribution-free bracket for s under a checked TuningConfig.

    The upper end is the one-sided Chebyshev point sqrt((1-p)/p), at
    which any finite-variance distribution violates a single tightened
    constraint with probability at most p = eps_des. Joint mode splits
    eps_des across the n_constraints rows of the union bound.
    TuningConfig has checked that float(eps_des) lies inside (0, 1); a p
    so small that the upper end overflows, or a joint p that underflows
    to 0, leaves no finite bracket and raises ValueError.
    """
    p = float(config.eps_des)
    if config.mode == "joint":
        if not n_constraints or n_constraints < 1:
            raise ValueError("joint bounds need the number of constraints")
        p = p / n_constraints
    s_max = math.sqrt((1.0 - p) / p) if p > 0 else math.inf
    if s_max == math.inf:
        raise ValueError(
            "eps_des is too close to 0 or 1 for floats: its bracket for s, (0, inf), "
            "is not a finite, positive interval"
        )
    return 0.0, s_max


def bisect_tune(
    config: TuningConfig,
    solve_at: Callable[[float], object],
    evaluate_at: Callable[[float, object], Tuple[Fraction, Fraction]],
    bounds: Tuple[float, float],
) -> TuningResult:
    """Bisect s on [bounds] against the empirical violation probability.

    solve_at(s) must return an object with status, objective, p_g,
    qp_start, iterations and kkt_residuals attributes, as a
    DispatchSolution has.
    evaluate_at(s, solution) must return the pair of exact observed
    frequencies (eps_single, eps_joint). A midpoint whose solve
    is certified infeasible contracts the upper end of the bracket, since
    the tightened feasible set only shrinks as s grows. Any other
    non-optimal status is a solver failure, not evidence about s, and
    raises TuningError.
    """
    s_min, s_max = float(bounds[0]), float(bounds[1])
    if not s_min < s_max:
        raise ValueError("bounds must satisfy s_min < s_max")

    target = config.eps_des
    trace: list[TuningIterate] = []
    solutions: list[object] = []
    feasible_history: list[Tuple[float, Fraction]] = []
    terminated_by = TERMINATED_CAP

    for iteration in range(1, config.max_iterations + 1):
        if (s_max - s_min) / 2.0 < config.width_tol:
            terminated_by = TERMINATED_COLLAPSE
            break
        s_k = (s_max - s_min) / 2.0 + s_min
        bracket = (s_min, s_max)
        started = time.perf_counter()
        solution = solve_at(s_k)
        solve_s = time.perf_counter() - started
        if solution.status not in ("optimal", "infeasible"):
            raise TuningError(f"QP solve at s={s_k:.6g} ended with status {solution.status!r}")
        qp_run = (solution.status, solution.qp_start, solution.iterations, max(solution.kkt_residuals))
        if solution.status == "infeasible":
            trace.append(
                TuningIterate(iteration, s_k, bracket, False, None, None, None, *qp_run, solve_s, 0.0)
            )
            solutions.append(solution)
            logger.info("s=%.6g infeasible, contracting upper bound", s_k)
            s_max = s_k
            continue
        started = time.perf_counter()
        eps_single, eps_joint = evaluate_at(s_k, solution)
        count_s = time.perf_counter() - started
        eps_obs = config.observed(eps_single, eps_joint)
        trace.append(
            TuningIterate(
                iteration, s_k, bracket, True, eps_single, eps_joint, solution.objective,
                *qp_run, solve_s, count_s,
            )
        )
        solutions.append(solution)
        for s_prev, eps_prev in feasible_history:
            if (s_prev < s_k and eps_prev < eps_obs) or (s_prev > s_k and eps_prev > eps_obs):
                logger.warning(
                    "observed violation probability is not monotone in s: "
                    "eps(%.6g)=%s vs eps(%.6g)=%s",
                    s_prev,
                    eps_prev,
                    s_k,
                    eps_obs,
                )
                break
        feasible_history.append((s_k, eps_obs))
        if abs(eps_obs - target) <= config.gamma:
            terminated_by = TERMINATED_EPS
            break
        if eps_obs < target:
            s_max = s_k
        else:
            s_min = s_k

    return _select_result(config, trace, solutions, terminated_by)


def _select_result(config, trace, solutions, terminated_by) -> TuningResult:
    """Return the final iterate when it is conservative, otherwise the
    cheapest (smallest-s) conservative iterate seen along the way."""
    conservative = [
        i for i, it in enumerate(trace)
        if it.feasible and config.observed(it.eps_single, it.eps_joint) <= config.eps_des
    ]
    if not conservative:
        raise TuningError(
            "no feasible conservative anchor: no iterate met the target violation level"
        )
    chosen = conservative[-1]
    if chosen != len(trace) - 1:
        chosen = min(conservative, key=lambda i: trace[i].s)
    it = trace[chosen]
    solution = solutions[chosen]
    return TuningResult(
        config=config,
        s=it.s,
        objective=it.cost,
        p_g=getattr(solution, "p_g", None),
        eps_single=it.eps_single,
        eps_joint=it.eps_joint,
        chosen_iteration=it.iteration,
        terminated_by=terminated_by,
        trace=tuple(trace),
    )


def tune(
    case,
    catalog: ConstraintCatalog,
    samples,
    config: TuningConfig,
    program: Optional[DispatchProgram] = None,
) -> TuningResult:
    """Tune s for a case against samples, a fixed tuning SampleSet.

    The same sample set is reused at every iterate, so the observed
    probabilities are a deterministic function of s and bisection sees a
    fixed (noisy but frozen) response curve. Each QP solve goes through
    program, a DispatchProgram of (case, catalog), to reuse what
    earlier solves found. Without one, tune builds a fresh program and
    starts it from case_start(case), the s = 0 solution and path-end
    ray that the process solves once per case; a catalog whose s = 0
    program is not the case's (other limits or PTDF) solves cold at its
    first iterate. Every count reads one count_store of the samples,
    built here and dropped on return, so only the dispatch-dependent
    work repeats (see _kernels).

    A catalog whose sigmas are all 0 tightens nothing, so every s gives
    the first iterate's dispatch and counts: the tune stops there, as
    interval_collapse unless that iterate met eps within gamma, and
    raises TuningError if it is not conservative.
    """
    store = count_store(samples, catalog)
    n = store.n_samples
    if config.gamma > 0 and config.gamma < Fraction(1, int(n)):
        warnings.warn(
            f"gamma={float(config.gamma):g} is below the sample resolution 1/{n}; "
            "the eps tolerance may be unattainable",
            UserWarning,
            stacklevel=2,
        )
    bounds = initial_bounds(config, catalog.n_active)
    if program is None:
        program = DispatchProgram(case, catalog)
        program.start_from(case_start(case))

    def solve_at(s: float):
        return solve_dispatch(case, catalog, s, program)

    def evaluate_at(s: float, solution):
        report = evaluate(solution.p_g, store, catalog)
        return report.eps_single, report.eps_joint

    if catalog.pair_sigmas.any():
        return bisect_tune(config, solve_at, evaluate_at, bounds)
    flat = bisect_tune(replace(config, max_iterations=1), solve_at, evaluate_at, bounds)
    terminated_by = TERMINATED_COLLAPSE if flat.terminated_by == TERMINATED_CAP else flat.terminated_by
    return replace(flat, config=config, terminated_by=terminated_by)


def trace_to_csv(result: TuningResult) -> str:
    """Render the bisection trace as CSV with one row per iterate."""
    out = io.StringIO()
    out.write("iteration,s,feasible,eps_single,eps_joint,cost\n")
    for it in result.trace:
        eps_s = "" if it.eps_single is None else f"{float(it.eps_single):.12g}"
        eps_j = "" if it.eps_joint is None else f"{float(it.eps_joint):.12g}"
        cost = "" if it.cost is None else f"{it.cost:.12g}"
        flag = "true" if it.feasible else "false"
        out.write(f"{it.iteration},{it.s:.12g},{flag},{eps_s},{eps_j},{cost}\n")
    return out.getvalue()
