"""Bisection tuner: bracket logic, stopping rules, stub and live runs."""

from __future__ import annotations

import bisect
import logging
import math
from dataclasses import replace
from fractions import Fraction
from importlib.resources import files
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cctuner import apply_rts_modifications, load_rts_case, parse_case, qp
from cctuner.experiment import ExperimentConfig, Sweep, load_case, parse_config_file
from cctuner.ptdf import compute_ptdf
from cctuner.reformulation import DispatchProgram, build_catalog, case_start, participation_factors
from cctuner.tuner import (
    MODES,
    TERMINATED_CAP,
    TERMINATED_COLLAPSE,
    TERMINATED_EPS,
    TuningConfig,
    TuningError,
    bisect_tune,
    initial_bounds,
    trace_to_csv,
    tune,
)
from cctuner.uncertainty import gaussian_from_std_corr, sample, spec_moments
from cctuner.violation import evaluate

from test_reformulation import cold_dispatch

TWO_GEN = """
base 100
bus 1 0 uncertain
bus 2 200
line 1 2 0.1 500
gen 1 0 100 0.01 10 0
gen 2 0 300 0.02 20 0
"""


def stub_solver(feasible=lambda s: True):
    def solve_at(s):
        ok = feasible(s)
        status = "optimal" if ok else "infeasible"
        return SimpleNamespace(
            feasible=ok,
            status=status,
            objective=(100.0 + s) if ok else None,
            p_g=None,
            qp_start="cold",
            iterations=7,
            kkt_residuals=(0.0,) * 4,
        )

    return solve_at


def eps_curve(fn):
    def evaluate_at(s, solution):
        e = fn(s)
        return e, e

    return evaluate_at


def linear_eps(s):
    # Piecewise-linear response with root eps=1/4 at s=2.5, exact rationals.
    value = Fraction(1, 2) - Fraction(s) / 10
    return max(Fraction(0), value)


def test_initial_bounds_examples():
    def bounds(eps, mode="single", n_constraints=None):
        return initial_bounds(TuningConfig(eps_des=eps, gamma=0, mode=mode), n_constraints)

    assert bounds(0.1) == (0.0, 3.0)
    assert bounds(0.01)[1] == pytest.approx(9.9499, abs=1e-4)
    assert bounds(0.05, "joint", 100)[1] == pytest.approx(44.7102, abs=1e-4)
    with pytest.raises(ValueError, match="number of constraints"):
        bounds(0.05, "joint")


# Each eps_des and its float lie inside (0, 1), but its float bracket
# does not exist: the top overflows, or the joint p = eps/96 rounds to 0.
@pytest.mark.parametrize("eps, mode", [("1e-310", "single"), ("1e-310", "joint"), ("5e-324", "joint")])
def test_initial_bounds_reject_a_bracket_floats_cannot_hold(eps, mode):
    config = TuningConfig(eps_des=eps, gamma=0, mode=mode)
    with pytest.raises(ValueError, match="eps_des is too close to 0 or 1"):
        initial_bounds(config, 96)


# Each eps_des lies inside (0, 1) exactly, but its float is 0 or 1, which
# neither the bracket nor the reference quantile s_true can use.
@pytest.mark.parametrize(
    "eps",
    ["1e-400", Fraction(1, 10**5000), Fraction(10**20 - 1, 10**20)],
    ids=["1e-400", "1e-5000", "1-1e-20"],
)
@pytest.mark.parametrize("mode", ["single", "joint"])
def test_tuning_config_rejects_an_eps_whose_float_is_0_or_1(eps, mode):
    with pytest.raises(ValueError, match="eps_des is too close to 0 or 1 for floats"):
        TuningConfig(eps_des=eps, gamma=0, mode=mode)


def test_tuning_config_keeps_a_fraction_as_it_is():
    # Its str() has more than 4300 digits, which Python refuses to print,
    # so a Fraction must not be re-read from its str().
    eps = Fraction(10**4400 + 1, 10**4401)
    assert TuningConfig(eps_des=eps, gamma=0).eps_des == eps
    with pytest.raises(ValueError, match="^gamma: a Fraction is beyond the float range$"):
        TuningConfig(eps_des=eps, gamma=Fraction(10**5000))


def test_stub_root_recovery_and_iteration_bound():
    config = TuningConfig(eps_des=Fraction(1, 4), gamma=0, width_tol=1e-4)
    result = bisect_tune(config, stub_solver(), eps_curve(linear_eps), (0.0, 3.0))
    # The midpoints are dyadic multiples of 3, never exactly 2.5, so the
    # run must exhaust the bracket: floor(log2(3/1e-4)) = 14 iterations.
    assert result.terminated_by == TERMINATED_COLLAPSE
    assert result.iterations == 14
    assert abs(result.s - 2.5) <= 3.0 / 2**14 + 1e-12
    assert result.eps_obs <= Fraction(1, 4)
    assert all(0.0 <= it.s <= 3.0 for it in result.trace)


def test_infeasible_midpoints_contract_upper_bound():
    config = TuningConfig(eps_des=Fraction(3, 25), gamma=Fraction(1, 1000))

    def curve(s):
        return Fraction(3, 10) - Fraction(s) / 10

    result = bisect_tune(
        config, stub_solver(feasible=lambda s: s <= 2.0), eps_curve(curve), (0.0, 3.0)
    )
    blocked = [it for it in result.trace if not it.feasible]
    assert blocked and blocked[0].s == 2.25
    assert blocked[0].eps_single is None and blocked[0].cost is None
    # Root of the curve at eps_des sits at s = 1.8, inside the feasible part.
    assert result.terminated_by == TERMINATED_EPS
    assert abs(result.s - 1.8) < 0.05
    assert abs(result.eps_obs - config.eps_des) <= config.gamma


def test_unreachable_target_raises():
    config = TuningConfig(eps_des=Fraction(1, 10), gamma=0, max_iterations=20)

    def curve(s):  # eps stays above 0.1 wherever the solve succeeds
        return Fraction(3, 10) - Fraction(s) / 20

    with pytest.raises(TuningError, match="conservative anchor"):
        bisect_tune(
            config, stub_solver(feasible=lambda s: s <= 2.0), eps_curve(curve), (0.0, 3.0)
        )


def test_cap_falls_back_to_cheapest_conservative_iterate():
    script = [
        Fraction(3, 10),
        Fraction(3, 20),
        Fraction(1, 4),
        Fraction(11, 50),
        Fraction(21, 100),
    ]
    calls = iter(script)
    config = TuningConfig(
        eps_des=Fraction(1, 5), gamma=0, width_tol=1e-9, max_iterations=5
    )
    result = bisect_tune(
        config, stub_solver(), eps_curve(lambda s: next(calls)), (0.0, 3.0)
    )
    assert result.terminated_by == TERMINATED_CAP
    assert result.iterations == 5
    # Only the second iterate (s=2.25) was conservative.
    assert result.chosen_iteration == 2
    assert result.s == 2.25
    assert result.eps_obs == Fraction(3, 20)
    assert result.objective == 102.25


def test_non_monotone_response_logged_not_fatal(caplog):
    script = iter([Fraction(3, 10), Fraction(2, 5), Fraction(1, 10)])
    config = TuningConfig(eps_des=Fraction(1, 5), gamma=0, max_iterations=3)
    with caplog.at_level(logging.WARNING, logger="cctuner.tuner"):
        result = bisect_tune(
            config, stub_solver(), eps_curve(lambda s: next(script)), (0.0, 3.0)
        )
    assert "not monotone" in caplog.text
    assert result.eps_obs == Fraction(1, 10)


def select_after_the_loop(config, solve_at, evaluate_at, bounds):
    """bisect_tune's bracket moves under the rules it once had: the
    answer picked from the whole trace after the loop (the final iterate
    if conservative, else the smallest-s conservative one), and each
    feasible eps compared with every earlier one. Returns the s of each
    iterate, the chosen iteration and its s (None, None without a
    conservative iterate), terminated_by, and the iterations found not
    monotone."""
    s_min, s_max = bounds
    target = config.eps_des
    trace, history, not_monotone = [], [], set()
    terminated_by = TERMINATED_CAP
    for iteration in range(1, config.max_iterations + 1):
        if (s_max - s_min) / 2.0 < config.width_tol:
            terminated_by = TERMINATED_COLLAPSE
            break
        s_k = (s_max - s_min) / 2.0 + s_min
        if solve_at(s_k).status == "infeasible":
            trace.append((iteration, s_k, None))
            s_max = s_k
            continue
        eps_obs = config.observed(*evaluate_at(s_k, None))
        trace.append((iteration, s_k, eps_obs))
        if any((s_prev < s_k and eps_prev < eps_obs) or (s_prev > s_k and eps_prev > eps_obs) for s_prev, eps_prev in history):
            not_monotone.add(iteration)
        history.append((s_k, eps_obs))
        if abs(eps_obs - target) <= config.gamma:
            terminated_by = TERMINATED_EPS
            break
        if eps_obs < target:
            s_max = s_k
        else:
            s_min = s_k
    s_trace = [s for _, s, _ in trace]
    conservative = [i for i, (_, _, eps) in enumerate(trace) if eps is not None and eps <= target]
    if not conservative:
        return s_trace, None, None, terminated_by, not_monotone
    chosen = conservative[-1]
    if chosen != len(trace) - 1:
        chosen = min(conservative, key=lambda i: trace[i][1])
    return s_trace, trace[chosen][0], trace[chosen][1], terminated_by, not_monotone


class IterationLog(logging.Handler):
    """Records, for each warning, how many solves had run."""

    def __init__(self, solves):
        super().__init__(logging.WARNING)
        self.solves, self.iterations = solves, set()

    def emit(self, record):
        if "not monotone" in record.getMessage():
            self.iterations.add(self.solves[0])


twentieths = st.integers(0, 20).map(lambda k: Fraction(k, 20))
step_curve = st.tuples(
    st.lists(st.floats(0.0, 10.0), max_size=12).map(sorted),
    st.lists(twentieths, min_size=1, max_size=13),
    st.integers(0, 50),
)


@settings(max_examples=400, deadline=None)
@given(
    single=step_curve,
    joint=step_curve,
    blocked=st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 3.0)), max_size=2),
    eps_des=twentieths.filter(lambda eps: 0 < eps < 1),
    gamma=st.one_of(st.just(Fraction(0)), st.fractions(Fraction(1, 1000), Fraction(1, 5), max_denominator=1000)),
    mode=st.sampled_from(MODES),
    width_tol=st.sampled_from([1e-300, 1e-9, 1e-3, 0.1]),
    max_iterations=st.integers(1, 80),
    s_hi=st.floats(0.5, 10.0),
)
def test_the_answer_kept_in_the_loop_is_the_one_picked_after_it(
    single, joint, blocked, eps_des, gamma, mode, width_tol, max_iterations, s_hi
):
    # Responses are functions of s: step curves (non-monotone where their
    # values are), optionally jagged at a frequency, with infeasible
    # intervals. eps_des and the curves' values are twentieths, so some
    # iterates meet eps_des exactly. A width_tol of 1e-300 lets midpoints
    # round onto a bracket end, so the bracket stops moving.
    def curve(breaks, values, freq):
        return lambda s: values[(bisect.bisect_right(breaks, s) + math.floor(s * freq)) % len(values)]

    def feasible(s):
        return not any(a <= s <= a + width for a, width in blocked)

    eps_single, eps_joint = curve(*single), curve(*joint)

    def evaluate_at(s, solution):
        return eps_single(s), eps_joint(s)

    config = TuningConfig(eps_des, gamma, mode, width_tol, max_iterations)
    bounds = (0.0, s_hi)
    s_trace, chosen, s, terminated_by, not_monotone = select_after_the_loop(
        config, stub_solver(feasible), evaluate_at, bounds
    )

    solves = [0]
    solve = stub_solver(feasible)

    def counted(s):
        solves[0] += 1
        return solve(s)

    log, logger = IterationLog(solves), logging.getLogger("cctuner.tuner")
    logger.addHandler(log)
    try:
        result = bisect_tune(config, counted, evaluate_at, bounds)
    except TuningError:
        result = None
    finally:
        logger.removeHandler(log)
    assert log.iterations == not_monotone
    if chosen is None:
        assert result is None and solves[0] == len(s_trace)
        return
    assert result is not None and [it.s for it in result.trace] == s_trace
    assert (result.chosen_iteration, result.s, result.terminated_by) == (chosen, s, terminated_by)


def test_degenerate_bracket_has_no_anchor():
    config = TuningConfig(eps_des=Fraction(1, 10), gamma=0)
    with pytest.raises(TuningError, match="conservative anchor"):
        bisect_tune(config, stub_solver(), eps_curve(linear_eps), (1.0, 1.0 + 1e-9))
    with pytest.raises(ValueError, match="bounds"):
        bisect_tune(config, stub_solver(), eps_curve(linear_eps), (2.0, 1.0))


def test_config_fraction_coercion_and_validation():
    config = TuningConfig(eps_des=0.1, gamma=1e-4)
    assert config.eps_des == Fraction(1, 10)
    assert config.gamma == Fraction(1, 10000)
    assert TuningConfig(eps_des="0.05", gamma="0.001").eps_des == Fraction(1, 20)
    with pytest.raises(ValueError, match="eps_des"):
        TuningConfig(eps_des=0.0, gamma=0)
    with pytest.raises(ValueError, match="gamma"):
        TuningConfig(eps_des=0.1, gamma=-1e-4)
    with pytest.raises(ValueError, match="mode"):
        TuningConfig(eps_des=0.1, gamma=0, mode="none")
    with pytest.raises(ValueError, match="width_tol"):
        TuningConfig(eps_des=0.1, gamma=0, width_tol=0.0)
    with pytest.raises(ValueError, match="max_iterations"):
        TuningConfig(eps_des=0.1, gamma=0, max_iterations=0)
    assert TuningConfig(eps_des=0.1, gamma=0, max_iterations=np.int64(5)).max_iterations == 5


# NaN never collapses the bracket and inf collapses it before the first
# iterate; a fractional or boolean cap is not an iteration count.
@pytest.mark.parametrize(
    "field, value",
    [
        ("width_tol", float("nan")),
        ("width_tol", float("inf")),
        ("max_iterations", 2.5),
        ("max_iterations", True),
    ],
)
def test_config_rejects_unusable_stopping_rules(field, value):
    with pytest.raises(ValueError, match=field):
        TuningConfig(eps_des=0.1, gamma=0, **{field: value})


CERTAIN = "base 100\nbus 1 0\nbus 2 20\nline 1 2 0.1 100\ngen 1 0 40 0.01 10 0\n"


@pytest.mark.parametrize("mode", ["single", "joint"])
@pytest.mark.parametrize(
    "gamma, terminated_by", [(Fraction(1, 1000), TERMINATED_COLLAPSE), (Fraction(1, 5), TERMINATED_EPS)]
)
def test_a_catalog_without_sigma_is_tuned_in_one_iterate(mode, gamma, terminated_by):
    # No bus is uncertain, so no constraint is tightened and every s gives
    # the first iterate's dispatch and counts: bisecting on would only
    # repeat it, 21 times (22 in joint mode) down to s = 1.43e-6.
    case = parse_case(CERTAIN)
    spec = gaussian_from_std_corr([], 0.0)
    catalog = build_catalog(case, compute_ptdf(case), participation_factors(case), spec_moments(spec, case))
    assert not catalog.pair_sigmas.any()
    config = TuningConfig(eps_des=Fraction(1, 10), gamma=gamma, mode=mode)
    result = tune(case, catalog, sample(spec, 1000, seed=3, case=case), config)
    assert (result.iterations, result.terminated_by, result.eps_obs) == (1, terminated_by, 0)
    assert result.config == config and result.p_g is not None


def test_a_case_with_no_uncertain_bus_hands_off_no_ray():
    # Nothing tightens, so the s = 0 solution holds at every s and its
    # path has no end to find a ray at.
    case = parse_case(CERTAIN)
    catalog = build_catalog(
        case, compute_ptdf(case), participation_factors(case), spec_moments(gaussian_from_std_corr([], 0.0), case)
    )
    arrays, s0, ray = DispatchProgram(case, catalog).s0()
    assert s0.optimal and ray is None


def test_a_catalog_without_sigma_fails_after_one_iterate_that_violates():
    # Zero tightening moments against a wide draw: the one dispatch every
    # s gives violates more often than eps, so no s can help.
    case = parse_case(TWO_GEN)
    catalog = build_catalog(
        case, compute_ptdf(case), participation_factors(case),
        spec_moments(gaussian_from_std_corr([0.0], 0.0), case),
    )
    assert not catalog.pair_sigmas.any()
    samples = sample(gaussian_from_std_corr([500.0], 0.0), 1000, seed=3, case=case)
    program = DispatchProgram(case, catalog)
    solves = []
    solve = program.solve
    program.solve = lambda s: solves.append(s) or solve(s)
    with pytest.raises(TuningError, match="no feasible conservative anchor"):
        tune(case, catalog, samples, TuningConfig(eps_des=Fraction(1, 10), gamma=0), program)
    assert len(solves) == 1


def test_gamma_below_sample_resolution_warns():
    case = parse_case(TWO_GEN)
    spec = gaussian_from_std_corr([10.0], 0.0)
    catalog = build_catalog(
        case, compute_ptdf(case), participation_factors(case), spec_moments(spec, case)
    )
    samples = sample(spec, 100, seed=3, case=case)
    config = TuningConfig(eps_des=0.1, gamma=1e-4)
    with pytest.warns(UserWarning, match="sample resolution"):
        result = tune(case, catalog, samples, config)
    assert result.eps_obs <= Fraction(1, 10) + config.gamma


def test_live_tune_on_rts():
    case = apply_rts_modifications(load_rts_case())
    spec = gaussian_from_std_corr([9.4, 13.1], 0.2)
    catalog = build_catalog(
        case, compute_ptdf(case), participation_factors(case), spec_moments(spec, case)
    )
    samples = sample(spec, 10_000, seed=101, case=case)
    config = TuningConfig(eps_des=0.1, gamma=1e-4)
    result = tune(case, catalog, samples, config)
    assert result.terminated_by in (TERMINATED_EPS, TERMINATED_COLLAPSE)
    assert 1.0 < result.s < 1.6
    assert result.eps_single <= Fraction(1, 10) + config.gamma
    assert result.eps_single >= Fraction(1, 20)
    assert 7 <= result.iterations <= 21
    assert result.p_g is not None and result.p_g.shape == (24,)
    assert result.objective > 0
    if result.terminated_by == TERMINATED_EPS:
        assert abs(result.eps_single - Fraction(1, 10)) <= config.gamma
    # Every observed frequency is a multiple of 1/N for the shared set.
    for it in result.trace:
        if it.feasible:
            assert 10_000 % it.eps_single.denominator == 0


@pytest.fixture(scope="module")
def rts_tuning_set():
    case = apply_rts_modifications(load_rts_case())
    spec = gaussian_from_std_corr([9.4, 13.1], 0.2)
    catalog = build_catalog(
        case, compute_ptdf(case), participation_factors(case), spec_moments(spec, case)
    )
    return case, catalog, sample(spec, 2000, seed=5, case=case)


def test_trace_records_each_qp_solve(rts_tuning_set):
    case, catalog, samples = rts_tuning_set
    # tune's program starts from case_start(case): the case's s = 0
    # solution and the ray where its unit-moment path ends.
    result = tune(case, catalog, samples, TuningConfig(eps_des=0.05, gamma=1e-3, mode="joint"))
    # The joint bracket starts far out, so the first midpoint is
    # infeasible, decided by the ray where the path ends.
    assert [it.qp_status for it in result.trace[:2]] == ["infeasible", "optimal"]
    assert (result.trace[0].qp_start, result.trace[0].qp_iterations) == ("certificate", 0)
    # Replay the tuner's solves through a fresh program of the catalog
    # that starts from the same hand-off, as tune's own program did: it
    # keeps what each solve found, as that program did.
    program = DispatchProgram(case, catalog)
    assert program.start_from(case_start(case))
    for it in result.trace:
        replayed = program.solve(it.s)
        solved = replayed.qp_solution
        assert (it.qp_status, it.qp_start, it.qp_iterations) == (solved.status, replayed.qp_start, solved.iterations)
        assert it.kkt_max == max(solved.kkt_residuals)
        assert it.qp_status == cold_dispatch(case, catalog, it.s).qp_solution.status
        assert it.feasible == (it.qp_status == "optimal")


def answers(result):
    """What a tune found at each iterate, bit for bit, without how its
    solves were started."""
    p_g = None if result.p_g is None else result.p_g.tobytes()
    trace = [(it.s, it.bracket, it.qp_status, it.eps_single, it.eps_joint, it.cost) for it in result.trace]
    return result.s, p_g, result.chosen_iteration, result.terminated_by, trace


def test_tune_solves_the_s0_program_of_a_case_once(rts_tuning_set, monkeypatch):
    # Without a program, tune starts a fresh one from case_start(case),
    # which the process solves once per case: tuning another catalog of
    # the case, or the same one again, makes no cold solve. A catalog
    # with other limits has another s = 0 program, so its tune solves
    # cold at its first iterate, and the case's slot stays as it was.
    case, catalog, samples = rts_tuning_set
    config = TuningConfig(eps_des=0.05, gamma=1e-3, mode="joint")
    case_start.cache_clear()
    cold_solve, cold_solves = qp.solve, []
    monkeypatch.setattr(qp, "solve", lambda *arrays: cold_solves.append(arrays) or cold_solve(*arrays))
    first = tune(case, catalog, samples, config)
    # Its one cold solve is the s = 0 solve, made before any iterate.
    assert len(cold_solves) == 1 and all(it.qp_start != "cold" for it in first.trace)
    spec = gaussian_from_std_corr([20.0, 5.0], -0.5)
    other = build_catalog(case, compute_ptdf(case), participation_factors(case), spec_moments(spec, case))
    assert tune(case, other, samples, config).iterations > 0 and len(cold_solves) == 1
    # Both tunes start from the one hand-off, so they match iterate for
    # iterate, qp_start, qp_iterations and kkt_max included.
    again = tune(case, catalog, samples, config)
    assert answers(again) == answers(first) and again.trace == first.trace and len(cold_solves) == 1
    looser = replace(catalog, pair_limits=catalog.pair_limits + 0.01)
    loose = tune(case, looser, samples, config)
    assert loose.trace[0].qp_start == "cold"
    assert tune(case, catalog, samples, config).trace == first.trace
    assert len(cold_solves) == 1 + sum(it.qp_start == "cold" for it in loose.trace)


@pytest.mark.parametrize("creator", [None, "gaussian", "mixture"])
def test_no_tune_answer_depends_on_which_catalog_filled_the_slot(creator):
    # tune's fresh program starts from case_start(case), the s = 0
    # solution and path-end ray of the case's unit-moment catalog. Each
    # answer must be the one tune gives through a program that starts
    # from the s = 0 hand-off of the creator pair's catalog instead
    # (None: the tuned catalog's own).
    config = ExperimentConfig.from_mapping(parse_config_file(files("cctuner.data") / "rts24_sweep.cfg"))
    case = load_case(config.case)
    sweep = Sweep(config, case)
    pairs = {dist: sweep.replication(dist, 1) for dist in ("gaussian", "mixture")}
    cells = [config.cells[mode, Fraction(1, 20)] for mode in ("single", "joint")]
    found = []
    for pair in pairs.values():
        s0 = DispatchProgram(case, (pair if creator is None else pairs[creator]).catalog).s0()
        for tuning in cells:
            program = DispatchProgram(case, pair.catalog)
            assert program.start_from(s0)
            alone = tune(case, pair.catalog, pair.tuning_samples, tuning, program)
            result = tune(case, pair.catalog, pair.tuning_samples, tuning)
            assert answers(result) == answers(alone)
            found.append(result.trace[0].qp_start)
    # The joint cells' first midpoints lie beyond the path end.
    assert found.count("certificate") == 2


def test_tune_times_each_iterate(rts_tuning_set):
    case, catalog, samples = rts_tuning_set
    config = TuningConfig(eps_des=0.05, gamma=1e-3, mode="joint")
    first = tune(case, catalog, samples, config)
    again = tune(case, catalog, samples, config)
    # Timings do not take part in comparing iterates.
    assert first.trace == again.trace and first.s == again.s
    assert any(not it.feasible for it in first.trace)
    for it in first.trace:
        assert it.solve_s > 0.0
        assert (it.count_s > 0.0) if it.feasible else (it.count_s == 0.0)


@pytest.mark.parametrize("mode", ["single", "joint"])
def test_warm_started_tune_matches_cold_bisection(rts_tuning_set, mode):
    case, catalog, samples = rts_tuning_set
    config = TuningConfig(eps_des=0.05, gamma=1e-3, mode=mode)

    def evaluate_at(s, solution):
        report = evaluate(solution.p_g, samples, catalog)
        return report.eps_single, report.eps_joint

    warm = tune(case, catalog, samples, config)
    cold = bisect_tune(
        config,
        lambda s: cold_dispatch(case, catalog, s),
        evaluate_at,
        initial_bounds(config, catalog.n_active),
    )
    assert (warm.s, warm.eps_single, warm.eps_joint) == (cold.s, cold.eps_single, cold.eps_joint)
    assert warm.iterations == cold.iterations
    assert [it.qp_status for it in warm.trace] == [it.qp_status for it in cold.trace]
    # The warm path carried the solves, from the first on.
    assert any(it.qp_start == "segment" and it.qp_iterations == 0 for it in warm.trace)
    assert all(it.qp_start != "cold" for it in warm.trace)
    assert all(it.qp_start == "cold" for it in cold.trace)
    assert all(it.qp_iterations > 0 for it in cold.trace if it.qp_status == "optimal")


@pytest.mark.parametrize("mode", ["single", "joint"])
def test_each_iterate_bisects_a_nested_bracket(rts_tuning_set, mode):
    case, catalog, samples = rts_tuning_set
    result = tune(case, catalog, samples, TuningConfig(eps_des=0.05, gamma=1e-3, mode=mode))
    bracket = initial_bounds(TuningConfig(eps_des=Fraction(1, 20), gamma=0, mode=mode), catalog.n_active)
    assert result.iterations >= 2
    for it in result.trace:
        # Each bracket is the half of the previous one that the previous
        # iterate's outcome kept.
        assert it.bracket == bracket
        s_min, s_max = it.bracket
        assert it.s == (s_max - s_min) / 2.0 + s_min
        assert s_min < it.s < s_max
        keep_upper = it.feasible and result.config.observed(it.eps_single, it.eps_joint) >= Fraction(1, 20)
        bracket = (it.s, s_max) if keep_upper else (s_min, it.s)


@pytest.mark.parametrize("distribution", ["gaussian", "mixture"])
@pytest.mark.parametrize("mode", ["single", "joint"])
def test_store_counts_equal_one_shot_counts_along_a_tune(distribution, mode):
    # tune counts every iterate from one count store of its tuning set;
    # replaying its solves through a fresh program that starts from the
    # case's s = 0 hand-off, as tune's does, and counting each dispatch
    # from the samples themselves must give the trace's frequencies.
    config = ExperimentConfig.from_mapping(parse_config_file(files("cctuner.data") / "rts24_sweep.cfg"))
    case = load_case(config.case)
    pair = Sweep(config, case).replication(distribution, 1)
    result = tune(case, pair.catalog, pair.tuning_samples, config.cells[mode, Fraction(1, 20)])
    program = DispatchProgram(case, pair.catalog)
    assert program.start_from(case_start(case))
    for it in result.trace:
        solution = program.solve(it.s)
        assert (solution.feasible, solution.qp_start) == (it.feasible, it.qp_start)
        if it.feasible:
            report = evaluate(solution.p_g, pair.tuning_samples, pair.catalog)
            assert (report.eps_single, report.eps_joint) == (it.eps_single, it.eps_joint)
    assert sum(it.feasible for it in result.trace) >= 5


@pytest.mark.parametrize("distribution", ["gaussian", "mixture"])
def test_a_pairs_shared_program_keeps_every_tune(distribution, monkeypatch):
    # The six cells of a pair tune through one program that starts from
    # the case's s = 0 solution, as the experiment runs them; each must
    # end as it does with a fresh one.
    config = ExperimentConfig.from_mapping(parse_config_file(files("cctuner.data") / "rts24_sweep.cfg"))
    case = load_case(config.case)
    pair = Sweep(config, case).replication(distribution, 1)
    assert pair.program.start_from(case_start(case))
    solutions = []
    solve = pair.program.solve
    monkeypatch.setattr(pair.program, "solve", lambda s: solutions.append(solve(s)) or solutions[-1])
    for tuning in config.cells.values():
        cell = (case, pair.catalog, pair.tuning_samples, tuning)
        shared, fresh = tune(*cell, pair.program), tune(*cell)
        assert (shared.s, shared.eps_single, shared.eps_joint) == (fresh.s, fresh.eps_single, fresh.eps_joint)
        assert shared.iterations == fresh.iterations
        assert [it.qp_status for it in shared.trace] == [it.qp_status for it in fresh.trace]
        assert shared.objective == pytest.approx(fresh.objective, rel=1e-12)
    # The pair's path starts at the case's s = 0 solution, so every
    # solve is a lookup, a walk along the path or a recheck of a
    # certificate: none calls qp.solve. The ray where the case's
    # unit-moment path ends decides every infeasible solve.
    assert all(sol.qp_start != "cold" for sol in solutions)
    assert any(not sol.feasible for sol in solutions)
    assert all(sol.qp_start == "certificate" for sol in solutions if not sol.feasible)


def test_trace_csv_layout():
    config = TuningConfig(eps_des=Fraction(3, 25), gamma=Fraction(1, 1000))

    def curve(s):
        return Fraction(3, 10) - Fraction(s) / 10

    result = bisect_tune(
        config, stub_solver(feasible=lambda s: s <= 2.0), eps_curve(curve), (0.0, 3.0)
    )
    text = trace_to_csv(result)
    lines = text.strip().split("\n")
    assert lines[0] == "iteration,s,feasible,eps_single,eps_joint,cost"
    assert len(lines) == 1 + result.iterations
    infeasible_line = next(l for l in lines[1:] if ",false," in l)
    assert infeasible_line == "2,2.25,false,,,"
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "1.5" and first[2] == "true"
    assert float(first[3]) == pytest.approx(0.15)


def test_solver_failure_is_not_infeasibility():
    config = TuningConfig(eps_des=Fraction(1, 4), gamma=0)

    def solve_at(s):
        return SimpleNamespace(status="max_iterations", objective=None, p_g=None)

    with pytest.raises(TuningError, match=r"s=1\.5 .*'max_iterations'"):
        bisect_tune(config, solve_at, eps_curve(linear_eps), (0.0, 3.0))
