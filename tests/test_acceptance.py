"""Acceptance gate: every stated criterion at its stated tolerance.

Each test prints one PASS/FAIL line (bypassing capture so the lines
survive into piped output) and then asserts. The replication sweep
behind criteria 1 through 5 and 7 runs once per session at full scale.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from fractions import Fraction
from importlib.resources import files
from statistics import NormalDist

import numpy as np
import pytest

import cctuner.data
from cctuner import apply_rts_modifications, load_rts_case, parse_case
from cctuner.experiment import (
    ExperimentConfig,
    parse_config_file,
    report_to_csv,
    run_experiment,
)
from cctuner.ptdf import compute_ptdf
from cctuner.qp import solve as qp_solve
from cctuner.reformulation import (
    build_catalog,
    participation_factors,
    solve_dispatch,
)
from cctuner.tuner import TuningConfig, initial_bounds, tune
from cctuner.uncertainty import SampleSet, gaussian_from_std_corr, sample, spec_moments
from cctuner.violation import evaluate

from oracles import angle_solve_flows, brute_force_qp, naive_violation_counts
from test_qp import feasible_instance, random_instance

S_TRUE = {
    0.1: 1.2815515655446004,
    0.05: 1.6448536269514722,
    0.01: 2.3263478740408408,
}

# Expected average cost levels for the study case, by (mode, distribution)
# and eps. Checked within 3 percent, report-only: cost data revisions move
# the absolute level without changing any blocking criterion.
REFERENCE_COSTS = {
    ("single", "gaussian"): {0.1: 42201.6, 0.05: 42376.1, 0.01: 42709.0},
    ("single", "mixture"): {0.1: 42799.6, 0.05: 43105.4, 0.01: 43680.4},
    ("joint", "gaussian"): {0.1: 42485.6, 0.05: 42632.9, 0.01: 42918.5},
    ("joint", "mixture"): {0.1: 43284.4, 0.05: 43507.0, 0.01: 43924.0},
}

EPS_ORDER = (0.1, 0.05, 0.01)

# SHA-256 of report_to_csv for the full bundled sweep, recorded with
# numpy's bundled OpenBLAS 0.3 on x86-64. Checked report-only: another
# BLAS build may move last digits.
SWEEP_CSV_SHA256 = "acce08238d3a163565ce18b288983fcc7eaca950415cd72931bfabcfab7cf565"


@pytest.fixture()
def announce(capsys):
    def _announce(text: str) -> None:
        with capsys.disabled():
            print(text, flush=True)

    return _announce


@pytest.fixture(scope="module")
def sweep():
    """Full-scale replication sweep plus its wall time in seconds."""
    config = ExperimentConfig.from_mapping(parse_config_file(files("cctuner.data") / "rts24_sweep.cfg"))
    t0 = time.perf_counter()
    report = run_experiment(config)
    elapsed = time.perf_counter() - t0
    return report, elapsed


@pytest.fixture(scope="module")
def rts_setup():
    case = apply_rts_modifications(load_rts_case())
    spec = gaussian_from_std_corr([9.4, 13.1], 0.2)
    catalog = build_catalog(
        case, compute_ptdf(case), participation_factors(case), spec_moments(spec, case)
    )
    return case, spec, catalog


def _avg(report, mode, dist, eps):
    for a in report.averages:
        if (a.mode, a.distribution, a.eps_des) == (mode, dist, eps):
            return a
    raise AssertionError(f"missing average row {(mode, dist, eps)}")


def _rows(report, mode, dist, eps):
    return [
        r
        for r in report.rows
        if (r.mode, r.distribution, r.eps_des) == (mode, dist, eps)
    ]


def test_criterion_1_gaussian_single_recovery(sweep, announce):
    report, elapsed = sweep
    problems = []
    details = []
    for eps in EPS_ORDER:
        avg = _avg(report, "single", "gaussian", eps)
        s_err = abs(avg.s - S_TRUE[eps])
        oos_err = abs(avg.eps_oos_single - eps)
        details.append(f"eps={eps:g}: s={avg.s:.4f} (|d|={s_err:.4f}), oos|d|={oos_err:.4f}")
        if s_err > 0.06:
            problems.append(f"eps={eps}: avg s {avg.s:.4f} off {S_TRUE[eps]:.4f} by {s_err:.4f} > 0.06")
        if oos_err > 0.01:
            problems.append(f"eps={eps}: avg oos single {avg.eps_oos_single:.4f} off by {oos_err:.4f} > 0.01")
    if elapsed >= 300.0:
        problems.append(f"sweep took {elapsed:.0f}s >= 300s")
    ok = not problems
    announce(
        f"CRITERION 1 [gaussian single: avg s within 0.06, oos eps within 0.01, under 5 min]: "
        f"{'PASS' if ok else 'FAIL'} ({'; '.join(details)}; sweep {elapsed:.0f}s)"
    )
    assert ok, "; ".join(problems)


def test_criterion_2_joint_band_and_oos(sweep, announce):
    report, _ = sweep
    problems = []
    details = []
    for dist in ("gaussian", "mixture"):
        for eps in EPS_ORDER:
            rows = _rows(report, "joint", dist, eps)
            assert len(rows) == 20
            off_band = [
                r.replication
                for r in rows
                if r.failed or r.terminated_by != "eps_tolerance"
            ]
            if off_band:
                problems.append(
                    f"{dist} eps={eps}: replications {off_band} did not terminate inside the gamma band"
                )
            avg = _avg(report, "joint", dist, eps)
            tol = 0.005 if eps in (0.1, 0.05) else 0.003
            err = abs(avg.eps_oos_joint - eps)
            details.append(f"{dist} eps={eps:g}: oos|d|={err:.4f}")
            if err > tol:
                problems.append(
                    f"{dist} eps={eps}: avg oos joint {avg.eps_oos_joint:.4f} off by {err:.4f} > {tol}"
                )
    ok = not problems
    announce(
        f"CRITERION 2 [joint: every replication ends in gamma band; avg oos within 0.005/0.003]: "
        f"{'PASS' if ok else 'FAIL'} ({'; '.join(details)})"
    )
    assert ok, "; ".join(problems)


def test_criterion_3_iteration_counts(sweep, announce):
    report, _ = sweep
    problems = []
    spans = []
    width_tol = 1e-6
    for mode in ("single", "joint"):
        for dist in ("gaussian", "mixture"):
            for eps in EPS_ORDER:
                avg = _avg(report, mode, dist, eps)
                spans.append(avg.iterations)
                if not 7.0 <= avg.iterations <= 20.0:
                    problems.append(
                        f"{mode}/{dist}/eps={eps}: avg iterations {avg.iterations:.1f} outside [7, 20]"
                    )
                s_lo, s_hi = initial_bounds(TuningConfig(eps_des=eps, gamma=0, mode=mode), 96)
                cap = math.floor(math.log2((s_hi - s_lo) / width_tol))
                for r in _rows(report, mode, dist, eps):
                    if not r.failed and r.iterations > cap:
                        problems.append(
                            f"{mode}/{dist}/eps={eps} rep {r.replication}: "
                            f"{r.iterations} iterations exceed the bisection cap {cap}"
                        )
    ok = not problems
    announce(
        f"CRITERION 3 [avg iterations in [7,20], none above the bisection cap]: "
        f"{'PASS' if ok else 'FAIL'} (avg range {min(spans):.1f}..{max(spans):.1f})"
    )
    assert ok, "; ".join(problems)


def test_criterion_4_cost_ordering(sweep, announce):
    report, _ = sweep
    problems = []
    for mode in ("single", "joint"):
        for dist in ("gaussian", "mixture"):
            costs = [_avg(report, mode, dist, eps).cost for eps in EPS_ORDER]
            for tighter, looser in zip(costs[1:], costs[:-1]):
                if tighter < looser - 1e-6:
                    problems.append(
                        f"{mode}/{dist}: cost fell from {looser:.1f} to {tighter:.1f} as eps tightened"
                    )
    for dist in ("gaussian", "mixture"):
        for eps in EPS_ORDER:
            single = _avg(report, "single", dist, eps).cost
            joint = _avg(report, "joint", dist, eps).cost
            if joint < single - 1e-6:
                problems.append(
                    f"{dist}/eps={eps}: joint cost {joint:.1f} below single cost {single:.1f}"
                )
    ok = not problems
    announce(
        f"CRITERION 4 [cost nondecreasing with confidence, joint at or above single]: "
        f"{'PASS' if ok else 'FAIL'}"
    )
    # Report-only comparison against the reference cost levels.
    worst = 0.0
    for (mode, dist), by_eps in REFERENCE_COSTS.items():
        for eps, ref in by_eps.items():
            got = _avg(report, mode, dist, eps).cost
            rel = abs(got - ref) / ref
            worst = max(worst, rel)
    announce(
        f"CRITERION 4 [reference cost levels within 3%, non-blocking]: "
        f"{'PASS' if worst <= 0.03 else 'FAIL'} (worst deviation {worst * 100:.2f}%)"
    )
    assert ok, "; ".join(problems)


def test_criterion_5_conservatism(sweep, announce):
    report, _ = sweep
    problems = []
    details = []
    for eps in EPS_ORDER:
        rows = _rows(report, "single", "gaussian", eps)
        above = sum(1 for r in rows if r.s >= S_TRUE[eps])
        details.append(f"eps={eps:g}: {above}/20 at or above s_true")
        if above < 18:
            problems.append(f"eps={eps}: only {above}/20 replications tuned s at or above s_true")
        avg = _avg(report, "single", "gaussian", eps)
        if avg.s < S_TRUE[eps] - 0.02:
            problems.append(f"eps={eps}: avg s {avg.s:.4f} below s_true - 0.02")
    rows_01 = _rows(report, "single", "gaussian", 0.1)
    eps_s = sum(1.0 - NormalDist().cdf(r.s) for r in rows_01) / len(rows_01)
    details.append(f"eps_s at eps=0.1: {eps_s:.4f}")
    if not 0.090 <= eps_s <= 0.100:
        problems.append(f"implied violation level {eps_s:.4f} outside 0.095 +/- 0.005")
    ok = not problems
    announce(
        f"CRITERION 5 [tuned s conservative in 18/20 runs; implied level 0.095 +/- 0.005]: "
        f"{'PASS' if ok else 'FAIL'} ({'; '.join(details)})"
    )
    assert ok, "; ".join(problems)


def test_criterion_6_oracle_agreement(rts_setup, announce):
    case, spec, catalog = rts_setup
    problems = []

    # Quadratic program against exhaustive active-set enumeration.
    rng = np.random.default_rng(20240819)
    outcomes = {"optimal": 0, "infeasible": 0}
    worst_obj = 0.0
    for k in range(1000):
        p, q, a, b, g, h = (feasible_instance if k % 2 == 0 else random_instance)(rng)
        sol = qp_solve(p, q, a, b, g, h)
        ref_obj, _ = brute_force_qp(p, q, a, b, g, h)
        if ref_obj is None:
            outcomes["infeasible"] += 1
            if sol.status != "infeasible":
                problems.append(f"instance {k}: solver {sol.status}, oracle infeasible")
        else:
            outcomes["optimal"] += 1
            if not sol.optimal:
                problems.append(f"instance {k}: solver {sol.status}, oracle optimal {ref_obj:.6g}")
            else:
                worst_obj = max(worst_obj, abs(sol.objective - ref_obj))
                if abs(sol.objective - ref_obj) > 1e-6:
                    problems.append(
                        f"instance {k}: objective gap {abs(sol.objective - ref_obj):.2e} > 1e-6"
                    )
    if outcomes["optimal"] == 0 or outcomes["infeasible"] == 0:
        problems.append(f"battery not two-sided: {outcomes}")

    # Flow sensitivities against the angle formulation.
    ptdf = compute_ptdf(case)
    flow_rng = np.random.default_rng(7)
    worst_flow = 0.0
    for _ in range(100):
        inj = flow_rng.normal(size=24)
        inj -= inj.mean()
        direct = ptdf @ inj
        reference = angle_solve_flows(case, inj)
        worst_flow = max(worst_flow, float(np.abs(direct - reference).max()))
    if worst_flow > 1e-9:
        problems.append(f"flow mismatch {worst_flow:.2e} > 1e-9")

    # Vectorized counting against the plain Python loop, bit for bit.
    sol = solve_dispatch(case, catalog, 1.3)
    samples = sample(spec, 10_000, seed=314, case=case)
    ref_counts, ref_joint = naive_violation_counts(sol.p_g, catalog, samples.samples)
    fast = evaluate(sol.p_g, samples, catalog)
    exact = np.array_equal(fast.counts, ref_counts) and fast.joint_count == ref_joint
    if not exact:
        problems.append("vectorized violation counts are not bit-identical to the reference loop")

    ok = not problems
    announce(
        f"CRITERION 6 [oracle agreement: QP 1e-6 on 1000, flows 1e-9 on 100, counts bit-exact on 1e4]: "
        f"{'PASS' if ok else 'FAIL'} (qp worst {worst_obj:.1e}, split {outcomes['optimal']}/{outcomes['infeasible']}; "
        f"flows worst {worst_flow:.1e})"
    )
    assert ok, "; ".join(problems)


def test_criterion_7_structural_invariants(sweep, rts_setup, announce):
    report, _ = sweep
    case, spec, catalog = rts_setup
    problems = []

    # Union frequency dominates the single worst row on every report row.
    for r in report.rows:
        if r.failed:
            continue
        if r.eps_obs_joint < r.eps_obs_single or r.eps_oos_joint < r.eps_oos_single:
            problems.append(f"row {(r.mode, r.distribution, r.eps_des, r.replication)} breaks ordering")
    # And the union bound caps it from above on a direct evaluation.
    direct_sol = solve_dispatch(case, catalog, 1.0)
    direct_samples = sample(spec, 5000, seed=99, case=case)
    direct = evaluate(direct_sol.p_g, direct_samples, catalog)
    active = ~catalog.degenerate
    total = sum(f for f, keep in zip(direct.per_constraint, active) if keep)
    if not direct.eps_single <= direct.eps_joint <= min(Fraction(1), total):
        problems.append("direct evaluation violates the union ordering")

    # Feasible sets nest and cost is monotone over a 10-point grid.
    grid = np.linspace(0.0, 3.0, 10)
    sols = [solve_dispatch(case, catalog, float(s)) for s in grid]
    if not all(s.feasible for s in sols):
        problems.append("grid solve infeasible")
    costs = [s.objective for s in sols]
    if any(b < a - 1e-6 for a, b in zip(costs, costs[1:])):
        problems.append("cost not monotone on the s grid")
    for s_loose, tight in zip(grid[:-1], sols[1:]):
        h = catalog.limits - float(s_loose) * catalog.sigmas
        if (catalog.dispatch_matrix @ tight.p_g - h).max() > 1e-9:
            problems.append(f"tighter dispatch infeasible at looser s={s_loose:.2f}")
            break

    # s = 0 reproduces the plain deterministic dispatch exactly.
    base = case.base_mva
    p_max = case.p_max_mw() / base
    p_min = case.p_min_mw() / base
    d = case.loads_mw() / base
    caps = case.line_capacities_mw() / base
    c2, c1, _ = case.cost_coefficients()
    keep = np.nonzero(p_max > 0)[0]
    eye = np.eye(len(keep))
    ptdf = compute_ptdf(case)
    g = np.vstack([eye, -eye, ptdf[:, keep], -ptdf[:, keep]])
    flows_d = ptdf @ d
    h = np.concatenate([p_max[keep], -p_min[keep], caps + flows_d, caps - flows_d])
    direct_qp = qp_solve(
        (2.0 * c2 * base * base)[keep],
        (c1 * base)[keep],
        np.ones((1, len(keep))),
        np.array([case.loads_mw().sum() / base]),
        g,
        h,
    )
    tightened = solve_dispatch(case, catalog, 0.0)
    p_direct = np.zeros(24)
    p_direct[keep] = direct_qp.x
    if not (direct_qp.optimal and tightened.feasible):
        problems.append("deterministic reference or s=0 solve failed")
    elif not np.array_equal(p_direct, tightened.p_g):
        problems.append(
            f"s=0 dispatch differs from the deterministic solve by "
            f"{np.abs(p_direct - tightened.p_g).max():.2e}"
        )

    # Rows with equal margin-to-participation ratios fire together.
    two_gen = parse_case(
        "base 100\nbus 1 0 uncertain\nbus 2 200\nline 1 2 0.1 500\n"
        "gen 1 0 100 0.01 10 0\ngen 2 0 300 0.02 20 0\n"
    )
    tg_spec = gaussian_from_std_corr([10.0], 0.0)
    tg_cat = build_catalog(
        two_gen,
        compute_ptdf(two_gen),
        participation_factors(two_gen),
        spec_moments(tg_spec, two_gen),
    )
    xi = SampleSet(np.linspace(-3.0, 3.0, 101)[:, None], [0], n_buses=2)
    rr = evaluate(np.array([0.9, 2.7]), xi, tg_cat)
    if not (rr.per_constraint[0] == rr.per_constraint[1] == rr.eps_joint > 0):
        problems.append("perfectly correlated rows did not share indicators")

    # Same seeds, same report, byte for byte.
    small = ExperimentConfig.from_text(
        "modes = single\ndistributions = gaussian\neps = 0.1\nreplications = 2\n"
        "tuning.samples = 2000\noos.samples = 2000\nseed = 5\ngamma = 1e-3\n"
        "gaussian.std_mw = 9.4, 13.1\ngaussian.correlation = 0.2\n"
    )
    if report_to_csv(run_experiment(small)) != report_to_csv(run_experiment(small)):
        problems.append("repeated runs with the same seed differ")

    ok = not problems
    announce(
        f"CRITERION 7 [ordering, nesting, s=0 equivalence, correlation, determinism]: "
        f"{'PASS' if ok else 'FAIL'}"
    )
    digest = hashlib.sha256(report_to_csv(report).encode("utf-8")).hexdigest()
    announce(
        f"CRITERION 7 [full sweep CSV identical to the recorded one, non-blocking]: "
        f"{'PASS' if digest == SWEEP_CSV_SHA256 else 'FAIL'} (sha256 {digest})"
    )
    assert ok, "; ".join(problems)


def test_criterion_8_performance(rts_setup, announce):
    case, spec, catalog = rts_setup
    big = sample(spec, 100_000, seed=1234, case=case)
    sol = solve_dispatch(case, catalog, 1.3)
    evaluate(sol.p_g, big, catalog)  # warm caches before timing
    t0 = time.perf_counter()
    evaluate(sol.p_g, big, catalog)
    eval_time = time.perf_counter() - t0

    tuning_samples = sample(spec, 10_000, seed=55, case=case)
    t0 = time.perf_counter()
    tune(case, catalog, tuning_samples, TuningConfig(eps_des=0.1, gamma=1e-4))
    tune_time = time.perf_counter() - t0

    ok = eval_time < 1.0 and tune_time < 3.0
    announce(
        f"CRITERION 8 [1e5-sample evaluation under 1s, full tune under 3s]: "
        f"{'PASS' if ok else 'FAIL'} (evaluate {eval_time * 1e3:.0f}ms, tune {tune_time:.2f}s)"
    )
    assert ok, f"evaluate {eval_time:.3f}s, tune {tune_time:.3f}s"
