"""Bisection tuner: bracket logic, stopping rules, stub and live runs."""

from __future__ import annotations

import logging
from fractions import Fraction
from importlib.resources import files
from types import SimpleNamespace

import numpy as np
import pytest

from cctuner import apply_rts_modifications, load_rts_case, parse_case
from cctuner.experiment import ExperimentConfig, build_replication, load_case
from cctuner.ptdf import compute_ptdf
from cctuner.reformulation import DispatchProgram, build_catalog, participation_factors, solve_dispatch
from cctuner.tuner import (
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
            qp_solution=SimpleNamespace(status=status, iterations=7, kkt_residuals=(0.0,) * 4),
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


# Each eps_des lies inside (0, 1) exactly, but its float bracket does not
# exist: p rounds to 0, the top overflows, or p rounds to 1.
@pytest.mark.parametrize(
    "eps, mode",
    [
        ("1e-400", "single"),
        ("1e-310", "single"),
        ("1e-310", "joint"),
        ("5e-324", "joint"),
        (Fraction(10**20 - 1, 10**20), "single"),
    ],
)
def test_initial_bounds_reject_a_bracket_floats_cannot_hold(eps, mode):
    config = TuningConfig(eps_des=eps, gamma=0, mode=mode)
    with pytest.raises(ValueError, match="eps_des is too close to 0 or 1"):
        initial_bounds(config, 96)


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
    result = tune(case, catalog, samples, TuningConfig(eps_des=0.05, gamma=1e-3, mode="joint"))
    # The joint bracket starts far out, so the first midpoint is infeasible.
    assert [it.qp_status for it in result.trace[:2]] == ["infeasible", "optimal"]
    # Replay the tuner's solves through a fresh program of the catalog:
    # it keeps what each solve found, as the tune's own program did.
    program = DispatchProgram(case, catalog)
    for it in result.trace:
        replayed = program.solve(it.s)
        solved = replayed.qp_solution
        assert (it.qp_status, it.qp_start, it.qp_iterations) == (solved.status, replayed.qp_start, solved.iterations)
        assert it.kkt_max == max(solved.kkt_residuals)
        assert it.qp_status == solve_dispatch(case, catalog, it.s).qp_solution.status
        assert it.feasible == (it.qp_status == "optimal")


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
        lambda s: solve_dispatch(case, catalog, s),
        evaluate_at,
        initial_bounds(config, catalog.n_active),
    )
    assert (warm.s, warm.eps_single, warm.eps_joint) == (cold.s, cold.eps_single, cold.eps_joint)
    assert warm.iterations == cold.iterations
    assert [it.qp_status for it in warm.trace] == [it.qp_status for it in cold.trace]
    # The warm path carried some of the solves.
    assert any(it.qp_start == "working_set" and it.qp_iterations == 0 for it in warm.trace)
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
    # replaying its solves through a fresh program and counting each
    # dispatch from the samples themselves must give the trace's
    # frequencies.
    config = ExperimentConfig.from_file(files("cctuner.data") / "rts24_sweep.cfg")
    case = load_case(config.case)
    pair = build_replication(case, config, distribution, 1)
    result = tune(case, pair.catalog, pair.tuning_samples, config.tuning(mode, Fraction(1, 20)))
    program = DispatchProgram(case, pair.catalog)
    for it in result.trace:
        solution = program.solve(it.s)
        assert (solution.feasible, solution.qp_start) == (it.feasible, it.qp_start)
        if it.feasible:
            report = evaluate(solution.p_g, pair.tuning_samples, pair.catalog)
            assert (report.eps_single, report.eps_joint) == (it.eps_single, it.eps_joint)
    assert sum(it.feasible for it in result.trace) >= 5


@pytest.mark.parametrize("distribution", ["gaussian", "mixture"])
def test_a_pairs_shared_program_keeps_every_tune(distribution, monkeypatch):
    # The six cells of a pair tune through one program, as the
    # experiment runs them; each must end as it does with a fresh one.
    config = ExperimentConfig.from_file(files("cctuner.data") / "rts24_sweep.cfg")
    case = load_case(config.case)
    pair = build_replication(case, config, distribution, 1)
    solutions = []
    solve = pair.program.solve
    monkeypatch.setattr(pair.program, "solve", lambda s: solutions.append(solve(s)) or solutions[-1])
    for mode in config.modes:
        for eps in config.eps_values:
            cell = (case, pair.catalog, pair.tuning_samples, config.tuning(mode, eps))
            shared, fresh = tune(*cell, pair.program), tune(*cell)
            assert (shared.s, shared.eps_single, shared.eps_joint) == (fresh.s, fresh.eps_single, fresh.eps_joint)
            assert shared.iterations == fresh.iterations
            assert [it.qp_status for it in shared.trace] == [it.qp_status for it in fresh.trace]
            assert shared.objective == pytest.approx(fresh.objective, rel=1e-12)
    # One cold solve per working set first met, and one phase 1, whose
    # certificate settles the pair's later infeasible midpoints.
    cold = [sol for sol in solutions if sol.qp_start == "cold"]
    working_sets = {sol.qp_solution.active.tobytes() for sol in solutions if sol.feasible}
    assert sum(sol.feasible for sol in cold) <= len(working_sets)
    assert sum(not sol.feasible for sol in cold) <= 1
    assert any(sol.qp_start == "certificate" for sol in solutions)
    assert len(cold) < len(solutions) / 5


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
