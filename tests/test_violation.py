"""Violation counting: exact frequencies, kernel parity, invariants."""

from __future__ import annotations

import json
import warnings
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from cctuner import apply_rts_modifications, load_rts_case, parse_case
from cctuner import _kernels
from cctuner._kernels import _BLOCK_SAMPLES
from cctuner.ptdf import compute_ptdf
from cctuner.reformulation import (
    ConstraintCatalog,
    build_catalog,
    participation_factors,
    solve_dispatch,
)
from cctuner.uncertainty import SampleSet, gaussian_from_std_corr, sample, spec_moments
from cctuner.violation import count_store, evaluate, report_to_json

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


def sample_set(xi):
    """A SampleSet of the (n, n_buses) array xi that declares its nonzero
    columns, the columns tests/oracles.py accumulates."""
    cols = np.flatnonzero(np.any(xi != 0.0, axis=0))
    return SampleSet(xi[:, cols], cols, xi.shape[1])


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
    report = evaluate(p_g, sample_set(xi), cat)
    # Only the 0.2 draw pushes the upper bound: 0.95 + 0.2 > 1.
    assert report.per_constraint[0] == Fraction(1, 4)
    assert sum(report.counts) == 1
    assert report.eps_single == Fraction(1, 4)
    assert report.eps_joint == Fraction(1, 4)
    assert report.n_samples == 4
    assert report.seed is None


def test_zero_samples_zero_violations(rts, rts_catalog):
    sol = solve_dispatch(rts, rts_catalog, 1.0)
    report = evaluate(sol.p_g, sample_set(np.zeros((10, 24))), rts_catalog)
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


def test_kernel_counts_degenerate_pairs_when_every_pair_is_active(rts, rts_catalog):
    # evaluate leaves degenerate pairs out of the joint count; the kernel
    # counts any mask. Bus 3 has no capacity, so shifting it makes its
    # degenerate upper row fire on every sample.
    p_g = solve_dispatch(rts, rts_catalog, 1.0).p_g
    p_g[2] += 0.1
    samples = sample(gaussian_from_std_corr([9.4, 13.1], 0.2), _BLOCK_SAMPLES + 613, seed=4, case=rts)
    counts, joint = naive_violation_counts(p_g, rts_catalog, samples.samples, include_degenerate=True)
    assert joint == samples.n_samples
    base = np.array([float(np.dot(g, p_g)) for g in rts_catalog.pair_dispatch])
    active = np.ones(len(rts_catalog.pair_kinds), dtype=bool)
    args = (rts_catalog.pair_sensitivity, rts_catalog.pair_limits)
    cols = samples.uncertain_columns
    store = count_store(samples, rts_catalog)
    for xi in (samples.draw, store):
        pair_counts, pair_joint = _kernels.count_violations(base, *args, xi, cols, active)
        assert np.array_equal(pair_counts[rts_catalog.row_map], counts)
        assert pair_joint == joint


# The oracle loop is slow, so a failure is reported as found, unshrunk.
@settings(max_examples=6, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    s=st.floats(0.0, 2.5),
    bus=st.integers(0, 23),
    shift=st.floats(-0.1, 0.1),
    n=st.sampled_from([1, 97, _BLOCK_SAMPLES - 1, _BLOCK_SAMPLES, _BLOCK_SAMPLES + 1, _BLOCK_SAMPLES + 613]),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matches_naive_loop_on_any_dispatch(rts, rts_catalog, s, bus, shift, n, seed):
    # Shifting a bus without a generator makes its degenerate rows fire on
    # every sample, which the joint count leaves out.
    p_g = solve_dispatch(rts, rts_catalog, s).p_g
    p_g[bus] += shift
    samples = sample(gaussian_from_std_corr([9.4, 13.1], 0.2), n, seed=seed, case=rts)
    report = evaluate(p_g, samples, rts_catalog)
    counts, joint = naive_violation_counts(p_g, rts_catalog, samples.samples)
    assert np.array_equal(report.counts, counts)
    assert report.joint_count == joint


def test_point_mass_bus_counts_match_naive_loop(rts, rts_catalog):
    # Bus 15 keeps its uncertainty source but with zero variance, so its
    # column is uncertain yet all zero. Accumulating it adds only +-0.0,
    # so the counts equal the oracle's and those of a set that declares
    # only bus 8's column.
    p_g = solve_dispatch(rts, rts_catalog, 0.4).p_g
    samples = sample(gaussian_from_std_corr([9.4, 0.0], 0.0), 2000, seed=23, case=rts)
    assert samples.uncertain_columns.tolist() == [7, 14]
    assert not np.any(samples.samples[:, 14])
    report = evaluate(p_g, samples, rts_catalog)
    counts, joint = naive_violation_counts(p_g, rts_catalog, samples.samples)
    assert counts.sum() > 0
    assert np.array_equal(report.counts, counts)
    assert report.joint_count == joint
    nonzero = sample_set(samples.samples)
    assert nonzero.uncertain_columns.tolist() == [7]
    assert np.array_equal(evaluate(p_g, nonzero, rts_catalog).counts, counts)


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
    r = evaluate(p_g, sample_set(xi), cat)
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
    report = evaluate(p_g, samples, rts_catalog)
    # The row is counted, but stays out of eps_single and the joint count.
    assert report.per_constraint[2] == 1
    assert report.eps_single < 1
    assert report.eps_joint < 1


def test_input_validation(rts, rts_catalog):
    p = np.zeros(24)
    # Samples come as a SampleSet, or to evaluate as its count store.
    with pytest.raises(TypeError, match="a SampleSet or a count_store, got ndarray"):
        evaluate(p, np.zeros((5, 24)), rts_catalog)
    with pytest.raises(TypeError, match="a SampleSet, got ndarray"):
        count_store(np.zeros((5, 24)), rts_catalog)
    store = count_store(sample_set(np.ones((5, 24))), rts_catalog)
    with pytest.raises(TypeError, match="a SampleSet, got CountStore"):
        count_store(store, rts_catalog)
    for bad, match in (
        (sample_set(np.ones((5, 23))), "samples have 23 columns"),
        (sample_set(np.zeros((0, 24))), "at least one"),
    ):
        with pytest.raises(ValueError, match=match):
            evaluate(p, bad, rts_catalog)
        with pytest.raises(ValueError, match=match):
            count_store(bad, rts_catalog)
    for samples in (sample_set(np.ones((5, 24))), store):
        with pytest.raises(ValueError, match="shape"):
            evaluate(np.zeros(23), samples, rts_catalog)
        # g.p of a unit row is read from p: 0 * inf elsewhere would be NaN.
        for bad in (np.inf, -np.inf, np.nan):
            p_bad = np.zeros(24)
            p_bad[0] = bad
            with pytest.raises(ValueError, match="finite"):
                evaluate(p_bad, samples, rts_catalog)


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


# --- Bound and band: the same counts, bit for bit, with fewer sums ---


def paired_catalog(sens, limits, g=None):
    """A catalog of gen pairs over len(sens[0]) buses.

    Pair c has dispatch row g[c] (e_c by default), sensitivity row
    sens[c] and right-hand sides limits[c] (upper row, lower row).
    """
    n_pairs, m = sens.shape
    if g is None:
        g = np.eye(n_pairs, m)
    return ConstraintCatalog(
        pair_kinds=("gen",) * n_pairs,
        pair_subjects=tuple(range(1, n_pairs + 1)),
        pair_dispatch=g,
        pair_sensitivity=sens,
        pair_limits=limits,
        pair_sigmas=np.ones(n_pairs),
        pair_degenerate=np.zeros(n_pairs, dtype=bool),
    )


def pair_sums(p, sens, xi, k, g=None):
    """Each pair's upper-row sum at sample k, in the oracle's order."""
    cols = [j for j in range(xi.shape[1]) if np.any(xi[:, j] != 0.0)]
    sums = []
    for c in range(sens.shape[0]):
        # g.p, which for the default dispatch row e_c is p[c]
        acc = float(p[c]) if g is None else float(np.dot(g[c], p))
        for j in cols:
            acc += sens[c, j] * xi[k, j]
        sums.append(acc)
    return np.array(sums)


def ulps_from(x, steps):
    """x moved by |steps| floats, up for steps > 0."""
    for _ in range(abs(steps)):
        x = np.nextafter(x, np.inf if steps > 0 else -np.inf)
    return x


def limits_at_sums(p, sens, xi, rng, spread, g=None):
    """Right-hand sides a few ulps from the sums of some finite samples.

    Each row of pair c sits, with odds 2 in 3, at its sum for a random
    finite sample, moved by up to spread ulps (0 included), so strict
    comparisons land on both sides of the limit; otherwise it is far out
    of reach. A pair with one row far away is accumulated only if its
    near row's bound reaches the limit.
    """
    with np.errstate(all="ignore"):
        finite = np.flatnonzero(np.all(np.isfinite(xi), axis=1))
        limits = np.empty((sens.shape[0], 2))
        for c in range(sens.shape[0]):
            for side, sign in ((0, 1.0), (1, -1.0)):
                near = sign * pair_sums(p, sens, xi, rng.choice(finite), g)[c]
                if rng.random() < 2 / 3:
                    limits[c, side] = ulps_from(near, int(rng.integers(-spread, spread + 1)))
                else:
                    limits[c, side] = 2.0 * abs(near) + 1.0
    return limits


def assert_envelope_exact(p, xi, catalog):
    """evaluate, which skips the cells its bounds clear, == oracle loop,
    with no numpy warning, counting from the samples and from a fresh
    count store of them."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        samples = sample_set(xi)
        reports = [evaluate(p, samples, catalog), evaluate(p, count_store(samples, catalog), catalog)]
    with np.errstate(all="ignore"):
        counts, joint = naive_violation_counts(p, catalog, xi)
    for report in reports:
        assert np.array_equal(report.counts, counts) and report.joint_count == joint


_BOUND_SETTINGS = settings(
    max_examples=25, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate]
)


@_BOUND_SETTINGS
@given(
    m=st.integers(1, 24),
    n=st.sampled_from([1, 5, 64, _BLOCK_SAMPLES + 5]),
    coherent=st.booleans(),
    spread=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
# Every product just above half an ulp of the start rounds each of the m
# additions up, so the sum exceeds start + hi by about m ulps: a delta
# sized for two columns would miss it.
@example(m=24, n=64, coherent=True, spread=1, seed=8)
@example(m=2, n=_BLOCK_SAMPLES + 5, coherent=True, spread=1, seed=4)
def test_envelope_exact_at_a_few_ulps_from_the_limit(m, n, coherent, spread, seed):
    rng = np.random.default_rng(seed)
    n_pairs = min(m, 3)
    p = np.zeros(m)
    p[:n_pairs] = rng.uniform(1.0, 1.9, n_pairs)
    if coherent:
        sens = np.ones((n_pairs, m))
        xi = 2.0**-53 * (1.0 + rng.uniform(2.0**-20, 2.0**-10, (n, m)))
    else:
        sens = rng.normal(size=(n_pairs, m))
        xi = rng.normal(scale=rng.choice([1e-12, 1e-3, 1.0]), size=(n, m))
    limits = limits_at_sums(p, sens, xi, rng, spread)
    assert_envelope_exact(p, xi, paired_catalog(sens, limits))


@_BOUND_SETTINGS
@given(m=st.integers(1, 24), n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
def test_envelope_exact_on_samples_from_1e_minus_300_to_1e300(m, n, seed):
    rng = np.random.default_rng(seed)
    n_pairs = min(m, 3)
    p = np.zeros(m)
    p[:n_pairs] = rng.normal(size=n_pairs) * 10.0 ** rng.uniform(-300, 300, n_pairs)
    sens = rng.normal(size=(n_pairs, m)) * 10.0 ** rng.uniform(-4, 4, (n_pairs, m))
    xi = rng.choice([-1.0, 1.0], (n, m)) * 10.0 ** rng.uniform(-300, 300, (n, m))
    # Some samples in the subnormal range too.
    xi[rng.random((n, m)) < 0.1] *= 1e-20
    limits = limits_at_sums(p, sens, xi, rng, 3)
    assert_envelope_exact(p, xi, paired_catalog(sens, limits))


@_BOUND_SETTINGS
@given(m=st.integers(1, 6), n=st.integers(2, 80), seed=st.integers(0, 2**32 - 1))
def test_nan_sample_keeps_its_block_bounded(m, n, seed):
    rng = np.random.default_rng(seed)
    n_pairs = min(m, 3)
    p = np.zeros(m)
    p[:n_pairs] = rng.uniform(-1.0, 1.0, n_pairs)
    sens = rng.normal(size=(n_pairs, m))
    xi = rng.normal(size=(n, m))
    xi[rng.integers(n), rng.integers(m)] = np.nan
    limits = limits_at_sums(p, sens, xi, rng, 2)
    assert_envelope_exact(p, xi, paired_catalog(sens, limits))
    # fmax/fmin skip the NaN sample: the other samples still bound the set.
    bound = _kernels._bound(np.ascontiguousarray(sens.T), np.ascontiguousarray(xi.T))
    assert all(np.all(np.isfinite(part)) for part in bound)


@_BOUND_SETTINGS
@given(m=st.integers(2, 6), n=st.integers(4, 80), seed=st.integers(0, 2**32 - 1))
def test_envelope_exact_with_nan_and_infinite_samples(m, n, seed):
    rng = np.random.default_rng(seed)
    n_pairs = min(m, 3)
    p = np.zeros(m)
    p[:n_pairs] = rng.uniform(-1.0, 1.0, n_pairs)
    sens = rng.normal(size=(n_pairs, m))
    xi = rng.normal(size=(n, m))
    rows = rng.choice(n, 3, replace=False)
    cols = rng.integers(m, size=3)
    xi[rows, cols] = [np.nan, np.inf, -np.inf]
    # Pair 0 does not see the infinite columns: 0 * inf is NaN there.
    sens[0, cols[1:]] = 0.0
    limits = limits_at_sums(p, sens, xi, rng, 2)
    assert_envelope_exact(p, xi, paired_catalog(sens, limits))


def set_sums(base, sens, xi):
    """(n_pairs, n) sums of every sample, the oracle's order, by array ops."""
    acc = np.repeat(base[:, None], xi.shape[0], axis=1)
    for j in range(xi.shape[1]):
        acc = acc + sens[:, j, None] * xi[None, :, j]
    return acc


@_BOUND_SETTINGS
@given(
    m=st.integers(0, 6),
    n=st.one_of(st.integers(1, 80), st.just(_BLOCK_SAMPLES + 5)),
    coherent=st.booleans(),
    special=st.booleans(),
    spread=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=0, n=3, coherent=False, special=False, spread=0, seed=1)
@example(m=6, n=64, coherent=True, spread=1, special=False, seed=8)
# 24 additions that each round up by an ulp reach past a delta sized for
# two columns.
@example(m=24, n=64, coherent=True, spread=1, special=False, seed=8)
def test_every_cell_with_a_hit_is_a_candidate(m, n, coherent, special, spread, seed):
    rng = np.random.default_rng(seed)
    n_pairs = 3
    base = rng.uniform(1.0, 1.9, n_pairs)
    if coherent:
        sens = np.ones((n_pairs, m))
        xi = 2.0**-53 * (1.0 + rng.uniform(2.0**-20, 2.0**-10, (n, m)))
    else:
        sens = rng.normal(size=(n_pairs, m))
        xi = rng.normal(scale=rng.choice([1e-12, 1e-3, 1.0]), size=(n, m))
    if special and m and n > 1:
        # NaN and infinite samples, all but the last sample's row: the
        # limits need one finite sample to sit next to.
        at = rng.integers(n - 1, size=3), rng.integers(m, size=3)
        xi[at] = [np.nan, np.inf, -np.inf]
        sens[0, at[1][1:]] = 0.0
    limits = limits_at_sums(base, sens, xi, rng, spread)
    upper, lower = limits[:, 0], -limits[:, 1]
    with np.errstate(all="ignore"):
        bound = _kernels._bound(np.ascontiguousarray(sens.T), np.ascontiguousarray(xi.T))
        _, candidate = _kernels._sure_miss_limits(base, upper, lower, m, bound)
        sums = set_sums(base, sens, xi)
    hit = np.any(sums > upper[:, None], axis=1) | np.any(sums < lower[:, None], axis=1)
    assert not np.any(hit & ~candidate)


@_BOUND_SETTINGS
@given(
    m=st.integers(0, 6),
    n=st.integers(1, 80),
    coherent=st.booleans(),
    special=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=6, n=64, coherent=True, special=False, seed=8)
@example(m=3, n=20, coherent=False, special=True, seed=5)
def test_dispatch_free_sums_lie_within_the_bound(m, n, coherent, special, seed):
    # The monotone-sum lemma: every finite sample's products, added from
    # 0.0 in the kernel's order, sum to a float in [lo, hi], bit for bit.
    rng = np.random.default_rng(seed)
    n_pairs = 3
    if coherent:
        sens = np.ones((n_pairs, m))
        xi = 2.0**-53 * (1.0 + rng.uniform(2.0**-20, 2.0**-10, (n, m)))
    else:
        sens = rng.normal(size=(n_pairs, m))
        # 1e-310 puts the samples and their products among the subnormals.
        xi = rng.normal(scale=rng.choice([1e-310, 1e-12, 1.0, 1e300]), size=(n, m))
    if special and m and n > 1:
        at = rng.integers(n, size=3), rng.integers(m, size=3)
        xi[at] = [np.nan, np.inf, -np.inf]
        sens[0, at[1][1:]] = 0.0
    with np.errstate(all="ignore"):
        hi, lo, _ = _kernels._bound(np.ascontiguousarray(sens.T), np.ascontiguousarray(xi.T))
    for k in np.flatnonzero(np.all(np.isfinite(xi), axis=1)):
        for c in range(n_pairs):
            v = 0.0
            for j in range(m):
                v += float(sens[c, j]) * float(xi[k, j])
            # A NaN bound makes the pair a candidate, whatever v is.
            assert lo[c] <= v <= hi[c] or np.isnan([lo[c], hi[c]]).any()


def test_no_degenerate_pair_is_a_candidate_at_solved_dispatches(rts, rts_catalog):
    # A degenerate generator pair has b = 0, limits 0 and no sensitivity,
    # so its scale is 0. Were those 14 pairs summed, a one-shot count on
    # the RTS case would sum about twice the pairs it needs.
    degenerate = np.flatnonzero(rts_catalog.pair_degenerate)
    assert degenerate.size == 14
    samples = sample(gaussian_from_std_corr([9.4, 13.1], 0.2), 5000, seed=5, case=rts)
    store = count_store(samples, rts_catalog)
    with mock.patch.object(_kernels, "_sum_and_tally", wraps=_kernels._sum_and_tally) as spy:
        for s in (0.0, 0.5, 1.5, 2.5):
            p_g = solve_dispatch(rts, rts_catalog, s).p_g
            evaluate(p_g, samples, rts_catalog)
            evaluate(p_g, store, rts_catalog)
    summed = [call.args[1] for call in spy.call_args_list]
    assert len(summed) == 8
    assert not any(np.isin(degenerate, rows).any() for rows in summed)


@settings(max_examples=6, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    s=st.floats(0.0, 2.5),
    bus=st.integers(0, 23),
    shift=st.floats(-0.1, 0.1),
    n=st.sampled_from([1, 97, _BLOCK_SAMPLES, _BLOCK_SAMPLES + 613]),
    seed=st.integers(0, 2**32 - 1),
)
def test_envelope_matches_naive_loop_on_any_dispatch(rts, rts_catalog, s, bus, shift, n, seed):
    p_g = solve_dispatch(rts, rts_catalog, s).p_g
    p_g[bus] += shift
    samples = sample(gaussian_from_std_corr([9.4, 13.1], 0.2), n, seed=seed, case=rts)
    report = evaluate(p_g, samples, rts_catalog)
    counts, joint = naive_violation_counts(p_g, rts_catalog, samples.samples)
    assert np.array_equal(report.counts, counts)
    assert report.joint_count == joint
    assert report.seed == seed


# --- Dispatch terms: every pair's term is its per-row dot product, as
# in the oracle ---


@_BOUND_SETTINGS
@given(buses=st.integers(1, 80), n_pairs=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
@example(buses=24, n_pairs=62, seed=0)
def test_each_pairs_dispatch_term_is_its_per_row_dot_product(buses, n_pairs, seed):
    # The one sample column has zero sensitivity, so each pair's sum is
    # its dispatch term. An upper limit at the per-row np.dot of
    # tests/oracles.py, or one ulp above or below it, and a lower limit
    # at its negation tell a term that is off by a single ulp.
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n_pairs, buses)) * 10.0 ** rng.uniform(-3, 3, (n_pairs, buses))
    g[rng.random(g.shape) < 0.3] = 0.0
    g[0] = np.eye(buses)[rng.integers(buses)]
    p = rng.normal(size=buses) * 10.0 ** rng.uniform(-3, 3, buses)
    terms = np.array([float(np.dot(row, p)) for row in g])
    shift = rng.integers(-1, 2, n_pairs)
    upper = np.array([ulps_from(t, int(k)) for t, k in zip(terms, shift)])
    sens = rng.normal(size=(n_pairs, buses))
    sens[:, 0] = 0.0
    xi = np.zeros((3, buses))
    xi[:, 0] = rng.normal(size=3)
    catalog = paired_catalog(sens, np.column_stack([upper, -terms]), g)
    report = evaluate(p, sample_set(xi), catalog)
    assert report.counts[:n_pairs].tolist() == [3 * (k < 0) for k in shift]
    assert not report.counts[n_pairs:].any()
    assert_envelope_exact(p, xi, catalog)


@_BOUND_SETTINGS
@given(m=st.integers(1, 6), n=st.integers(1, 80), seed=st.integers(0, 2**32 - 1))
def test_dispatch_rows_that_are_not_unit_vectors_match_the_oracle(m, n, seed):
    # Every pair is labelled gen_upper, but only row 0 is a unit vector:
    # a dense row, a unit row scaled by 2, a negated unit row and a unit
    # row with a tiny second entry must each keep their dot product.
    rng = np.random.default_rng(seed)
    buses = m + 1
    g = np.zeros((5, buses))
    at = rng.integers(buses, size=5)
    g[0, at[0]] = 1.0
    g[1] = rng.normal(size=buses)
    g[2, at[2]] = 2.0
    g[3, at[3]] = -1.0
    g[4, at[4]] = 1.0
    g[4, (at[4] + 1) % buses] = 1e-300
    p = rng.normal(size=buses) * 10.0 ** rng.uniform(-3, 3, buses)
    sens = rng.normal(size=(5, buses))
    xi = np.zeros((n, buses))
    xi[:, :m] = rng.normal(size=(n, m))
    limits = limits_at_sums(p, sens, xi, rng, 2, g)
    catalog = paired_catalog(sens, limits, g)
    assert_envelope_exact(p, xi, catalog)


# --- Count stores: one sample set counted for a sequence of dispatches ---


def resummed(spy):
    """Whether a spied _accumulate re-summed samples from a dispatch term;
    a store fills its dispatch-free sums from 0.0."""
    return any(isinstance(call.args[2], np.ndarray) for call in spy.call_args_list)


@_BOUND_SETTINGS
@given(
    m=st.integers(0, 6),
    n=st.one_of(st.integers(1, 80), st.just(_BLOCK_SAMPLES + 5)),
    coherent=st.booleans(),
    special=st.booleans(),
    at_max=st.booleans(),
    spread=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
# at_max puts pair 0's upper limit spread ulps below its largest sum:
# the samples at the maximum lie within the band of the limit, so only
# their re-sum can decide them. With spread 0 no sample exceeds it.
@example(m=2, n=64, coherent=False, special=False, at_max=True, spread=0, seed=3)
@example(m=0, n=5, coherent=False, special=False, at_max=True, spread=0, seed=4)
# The exact sums exceed the store's by about m/2 ulps of the dispatch
# term, so the limit lies below the exact sums but above the store's.
@example(m=6, n=64, coherent=True, special=False, at_max=True, spread=2, seed=8)
# An infinite sample makes a pair's tails infinite: none of its sums is
# a sure miss, so every sample of the pair is re-summed.
@example(m=1, n=_BLOCK_SAMPLES + 5, coherent=False, special=True, at_max=False, spread=1, seed=2456391)
def test_store_counts_a_sequence_of_dispatches_exactly(m, n, coherent, special, at_max, spread, seed):
    rng = np.random.default_rng(seed)
    n_pairs = 3
    buses = m + n_pairs
    p = np.zeros(buses)
    p[:n_pairs] = rng.uniform(1.0, 1.9, n_pairs)
    xi = np.zeros((n, buses))
    if coherent:
        # Each product just above half an ulp of the dispatch term rounds
        # every addition of the exact sum up, and none of the store's.
        sens = np.ones((n_pairs, buses))
        xi[:, :m] = 2.0**-53 * (1.0 + rng.uniform(2.0**-20, 2.0**-10, (n, m)))
    else:
        sens = rng.normal(size=(n_pairs, buses))
        xi[:, :m] = rng.normal(scale=rng.choice([1e-12, 1e-3, 1.0]), size=(n, m))
    if special and m and n > 1:
        # NaN and infinite samples, all but the last sample's row: the
        # limits need one finite sample to sit next to.
        at = rng.integers(n - 1, size=3), rng.integers(m, size=3)
        xi[at] = [np.nan, np.inf, -np.inf]
        sens[0, at[1][1:]] = 0.0
    limits = limits_at_sums(p, sens, xi, rng, spread)
    if at_max:
        with np.errstate(all="ignore"):
            sums = [pair_sums(p, sens, xi, k)[0] for k in range(n)]
        largest = np.nanmax(np.where(np.isfinite(sums), sums, np.nan))
        limits[0] = ulps_from(largest, -spread), 1e300
    catalog = paired_catalog(sens, limits)
    ulp = np.spacing(p)
    dispatches = [
        p,
        p + ulp * rng.integers(-3, 4, buses),
        p + rng.normal(scale=1e-3, size=buses),
        p,
        p + 10.0,
        p - ulp,
    ]
    # Buffers sized for one pair grow, keeping the sums, as pairs fill.
    with warnings.catch_warnings(), mock.patch.object(_kernels, "_STORE_ROWS", 1):
        warnings.simplefilter("error")
        store = count_store(sample_set(xi), catalog)
    for k, p_k in enumerate(dispatches):
        with warnings.catch_warnings(), mock.patch.object(
            _kernels, "_accumulate", wraps=_kernels._accumulate
        ) as spy:
            warnings.simplefilter("error")
            report = evaluate(p_k, store, catalog)
        with np.errstate(all="ignore"):
            counts, joint = naive_violation_counts(p_k, catalog, xi)
        assert np.array_equal(report.counts, counts) and report.joint_count == joint
        if at_max and k == 0:
            assert resummed(spy)


def test_store_refuses_another_catalog(rts, rts_catalog):
    samples = sample(gaussian_from_std_corr([9.4, 13.1], 0.2), 3000, seed=31, case=rts)
    store = count_store(samples, rts_catalog)
    p_g = solve_dispatch(rts, rts_catalog, 0.9).p_g
    own = evaluate(p_g, store, rts_catalog)
    oneshot = evaluate(p_g, samples, rts_catalog)
    assert np.array_equal(own.counts, oneshot.counts) and own.joint_count == oneshot.joint_count
    assert own.seed == oneshot.seed == 31
    # An equal catalog is still another catalog.
    with pytest.raises(ValueError, match="other sensitivities"):
        evaluate(p_g, store, replace(rts_catalog))
    n_pairs = len(rts_catalog.pair_kinds)
    with pytest.raises(ValueError, match="other sensitivities"):
        _kernels.count_violations(
            np.zeros(n_pairs), rts_catalog.pair_sensitivity.copy(),
            rts_catalog.pair_limits, store, store.cols, np.ones(n_pairs, dtype=bool),
        )
