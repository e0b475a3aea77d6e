"""Violation counting: exact frequencies, kernel parity, invariants."""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from cctuner import apply_rts_modifications, load_rts_case, parse_case
from cctuner._kernels import _BLOCK_SAMPLES
from cctuner.ptdf import compute_ptdf
from cctuner.reformulation import build_catalog, participation_factors, solve_dispatch
from cctuner.uncertainty import gaussian_from_std_corr, sample, spec_moments
from cctuner.violation import evaluate, report_to_json

from oracles import naive_violation_counts

SINGLE_GEN = """
base 100
bus 1 0 uncertain
bus 2 95
line 1 2 0.1 1000
gen 1 0 100 0.01 10 0
"""

TWO_GEN = """
base 100
bus 1 0 uncertain
bus 2 200
line 1 2 0.1 500
gen 1 0 100 0.01 10 0
gen 2 0 300 0.02 20 0
"""


def catalog_for(case, std=(9.4, 13.1), corr=0.2):
    ptdf = compute_ptdf(case)
    alpha = participation_factors(case)
    spec = gaussian_from_std_corr(list(std)[: len(case.uncertain_buses)], corr)
    if len(case.uncertain_buses) == 1:
        spec = gaussian_from_std_corr([std[0]], 0.0)
    return build_catalog(case, ptdf, alpha, spec_moments(spec, case))


@pytest.fixture(scope="module")
def rts():
    return apply_rts_modifications(load_rts_case())


@pytest.fixture(scope="module")
def rts_catalog(rts):
    ptdf = compute_ptdf(rts)
    alpha = participation_factors(rts)
    moments = spec_moments(gaussian_from_std_corr([9.4, 13.1], 0.2), rts)
    return build_catalog(rts, ptdf, alpha, moments)


def test_single_generator_hand_count():
    case = parse_case(SINGLE_GEN)
    cat = catalog_for(case)
    p_g = np.array([0.95, 0.0])
    xi = np.zeros((4, 2))
    xi[:, 0] = [-0.1, -0.02, 0.01, 0.2]
    report = evaluate(p_g, xi, cat)
    # Only the 0.2 draw pushes the upper bound: 0.95 + 0.2 > 1.
    assert report.per_constraint[0] == Fraction(1, 4)
    assert sum(report.counts) == 1
    assert report.eps_single == Fraction(1, 4)
    assert report.eps_joint == Fraction(1, 4)
    assert report.n_samples == 4
    assert report.seed is None


def test_zero_samples_zero_violations(rts, rts_catalog):
    sol = solve_dispatch(rts, rts_catalog, 1.0)
    xi = np.zeros((10, 24))
    report = evaluate(sol.p_g, xi, rts_catalog)
    assert report.joint_count == 0
    assert all(f == 0 for f in report.per_constraint)
    assert report.eps_single == 0 and report.eps_joint == 0


def test_matches_naive_loop_bitwise(rts, rts_catalog):
    sol = solve_dispatch(rts, rts_catalog, 1.3)
    samples = sample(gaussian_from_std_corr([9.4, 13.1], 0.2), 2000, seed=77, case=rts)
    expected_counts, expected_joint = naive_violation_counts(
        sol.p_g, rts_catalog, samples.samples
    )
    report = evaluate(sol.p_g, samples, rts_catalog)
    assert np.array_equal(report.counts, expected_counts)
    assert report.joint_count == expected_joint
    assert report.seed == 77
    # Degenerate rows included: same per-row counts, wider joint.
    counts_deg, joint_deg = naive_violation_counts(
        sol.p_g, rts_catalog, samples.samples, include_degenerate=True
    )
    report_deg = evaluate(sol.p_g, samples, rts_catalog, include_degenerate=True)
    assert np.array_equal(report_deg.counts, counts_deg)
    assert report_deg.joint_count == joint_deg


@pytest.mark.parametrize("include_degenerate", [False, True])
# The oracle loop is slow, so a failure is reported as found, unshrunk.
@settings(max_examples=6, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    s=st.floats(0.0, 2.5),
    bus=st.integers(0, 23),
    shift=st.floats(-0.1, 0.1),
    n=st.sampled_from([1, 97, _BLOCK_SAMPLES - 1, _BLOCK_SAMPLES, _BLOCK_SAMPLES + 1, _BLOCK_SAMPLES + 613]),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matches_naive_loop_on_any_dispatch(rts, rts_catalog, include_degenerate, s, bus, shift, n, seed):
    # Shifting a bus without a generator makes its degenerate rows fire on
    # every sample, so the joint count then depends on include_degenerate.
    p_g = solve_dispatch(rts, rts_catalog, s).p_g
    p_g[bus] += shift
    samples = sample(gaussian_from_std_corr([9.4, 13.1], 0.2), n, seed=seed, case=rts)
    report = evaluate(p_g, samples, rts_catalog, include_degenerate=include_degenerate)
    counts, joint = naive_violation_counts(
        p_g, rts_catalog, samples.samples, include_degenerate=include_degenerate
    )
    assert np.array_equal(report.counts, counts)
    assert report.joint_count == joint


def test_ordering_and_boole_bounds(rts, rts_catalog):
    spec = gaussian_from_std_corr([9.4, 13.1], 0.2)
    for seed, s in [(1, 0.3), (2, 0.8), (3, 1.5)]:
        sol = solve_dispatch(rts, rts_catalog, s)
        samples = sample(spec, 2000, seed=seed, case=rts)
        r = evaluate(sol.p_g, samples, rts_catalog)
        active = ~rts_catalog.degenerate
        total = sum(f for f, keep in zip(r.per_constraint, active) if keep)
        assert r.eps_single <= r.eps_joint <= min(Fraction(1), total)
        n = r.n_samples
        for f in r.per_constraint:
            assert n % f.denominator == 0


def test_perfectly_correlated_rows_share_indicators():
    case = parse_case(TWO_GEN)
    cat = catalog_for(case)
    # Equal margins relative to participation: (pmax - p) / alpha = 0.4.
    p_g = np.array([0.9, 2.7])
    xi = np.zeros((101, 2))
    xi[:, 0] = np.linspace(-3.0, 3.0, 101)
    r = evaluate(p_g, xi, cat)
    up1, up2 = r.per_constraint[0], r.per_constraint[1]
    assert up1 == up2 > 0
    # No other row fires, and both upper rows fire on the same samples,
    # so the joint frequency collapses onto the shared per-row value.
    assert r.eps_joint == up1 == r.eps_single
    assert sum(r.counts) == 2 * r.counts[0]


def test_eps_decreases_with_s(rts, rts_catalog):
    spec = gaussian_from_std_corr([9.4, 13.1], 0.2)
    samples = sample(spec, 4000, seed=11, case=rts)
    slack = 2.0 / np.sqrt(4000)
    reports = [
        evaluate(solve_dispatch(rts, rts_catalog, s).p_g, samples, rts_catalog)
        for s in (0.5, 1.5, 2.5)
    ]
    singles = [float(r.eps_single) for r in reports]
    joints = [float(r.eps_joint) for r in reports]
    assert singles[0] >= singles[1] - slack >= singles[2] - 2 * slack
    assert joints[0] >= joints[1] - slack >= joints[2] - 2 * slack
    assert joints[-1] < 0.05


def test_degenerate_rows_toggle(rts, rts_catalog):
    sol = solve_dispatch(rts, rts_catalog, 1.0)
    p_g = sol.p_g.copy()
    p_g[2] += 0.1  # bus 3 has no capacity; its upper row now always fires
    assert rts_catalog.rows[2].degenerate
    samples = sample(gaussian_from_std_corr([9.4, 13.1], 0.2), 500, seed=4, case=rts)
    excl = evaluate(p_g, samples, rts_catalog)
    incl = evaluate(p_g, samples, rts_catalog, include_degenerate=True)
    assert excl.per_constraint[2] == 1
    assert excl.eps_single < 1
    assert incl.eps_single == 1
    assert incl.eps_joint == 1
    assert np.array_equal(excl.counts, incl.counts)


def test_input_validation(rts, rts_catalog):
    p = np.zeros(24)
    with pytest.raises(ValueError, match="2-D"):
        evaluate(p, np.zeros(24), rts_catalog)
    with pytest.raises(ValueError, match="columns"):
        evaluate(p, np.zeros((5, 23)), rts_catalog)
    with pytest.raises(ValueError, match="at least one"):
        evaluate(p, np.zeros((0, 24)), rts_catalog)
    with pytest.raises(ValueError, match="shape"):
        evaluate(np.zeros(23), np.zeros((5, 24)), rts_catalog)


def test_report_json_round_trip(rts, rts_catalog):
    sol = solve_dispatch(rts, rts_catalog, 1.0)
    samples = sample(gaussian_from_std_corr([9.4, 13.1], 0.2), 400, seed=9, case=rts)
    report = evaluate(sol.p_g, samples, rts_catalog)
    data = json.loads(report_to_json(report, rts_catalog))
    assert data["n_samples"] == 400
    assert data["seed"] == 9
    assert len(data["constraints"]) == 124
    first = data["constraints"][0]
    assert first["kind"] == "gen_upper" and first["subject"] == 1
    assert Fraction(data["eps_single_exact"]) == report.eps_single
    assert Fraction(data["eps_joint_exact"]) == report.eps_joint
    total = sum(c["count"] for c in data["constraints"])
    assert total == int(report.counts.sum())
    for c in data["constraints"]:
        assert Fraction(c["eps_exact"]) == Fraction(c["count"], 400)
