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


# The kernel sums r pairs in chunks of _BLOCK_CELLS // r samples. Tests
# patch _BLOCK_CELLS small, so that chunk edges fall at sample counts
# the oracle loop can afford.
EDGE_WIDTH = 64
EDGE_SAMPLES = [1, 37, EDGE_WIDTH - 1, EDGE_WIDTH, EDGE_WIDTH + 1, 3 * EDGE_WIDTH + 13]
# Cells per chunk for the few-pair catalogs below: SEVERAL_CHUNKS samples
# take at least three chunks for any number of summed pairs.
SMALL_CELLS = 48
SEVERAL_CHUNKS = 2 * SMALL_CELLS + 5


def evaluate_in_chunks(p_g, samples, catalog, width=EDGE_WIDTH):
    """evaluate's one-shot count of samples, in chunks of width samples.

    A first count finds how many pairs the count sums; _BLOCK_CELLS is
    then patched to width times that, and the chunks checked. Pairs
    decided from the sample totals are not summed in chunks.
    """
    sum_and_tally = _kernels._sum_and_tally
    with mock.patch.object(_kernels, "_sum_and_tally", wraps=sum_and_tally) as spy:
        evaluate(p_g, samples, catalog)
    rows = spy.call_args.args[1].size if spy.called else 0
    widths = []

    def tally(chunks, *args):
        chunks = list(chunks)
        widths.extend(columns.shape[1] for columns in chunks)
        return sum_and_tally(chunks, *args)

    with mock.patch.object(_kernels, "_BLOCK_CELLS", max(rows, 1) * width), mock.patch.object(
        _kernels, "_sum_and_tally", tally
    ):
        report = evaluate(p_g, samples, catalog)
    n = samples.n_samples
    assert widths == [min(width, n - k) for k in range(0, n, width) if rows]
    return report


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
    samples = sample(gaussian_from_std_corr([9.4, 13.1], 0.2), 613, seed=4, case=rts)
    counts, joint = naive_violation_counts(p_g, rts_catalog, samples.samples, include_degenerate=True)
    assert joint == samples.n_samples
    base = np.array([float(np.dot(g, p_g)) for g in rts_catalog.pair_dispatch])
    active = np.ones(len(rts_catalog.pair_kinds), dtype=bool)
    args = (rts_catalog.pair_sensitivity, rts_catalog.pair_limits)
    cols = samples.uncertain_columns
    # Chunks of at most 100 samples for any number of summed pairs.
    with mock.patch.object(_kernels, "_BLOCK_CELLS", 100):
        store = count_store(samples, rts_catalog)
        results = [_kernels.count_violations(base, *args, xi, cols, active) for xi in (samples.draw, store)]
    for pair_counts, pair_joint in results:
        assert np.array_equal(pair_counts[rts_catalog.row_map], counts)
        assert pair_joint == joint


# The oracle loop is slow, so a failure is reported as found, unshrunk.
@settings(max_examples=6, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    s=st.floats(0.0, 2.5),
    bus=st.integers(0, 23),
    shift=st.floats(-0.1, 0.1),
    n=st.sampled_from(EDGE_SAMPLES),
    seed=st.integers(0, 2**32 - 1),
)
# Every run counts one sample short of a chunk, a full chunk and one
# sample past it.
@example(s=1.3, bus=2, shift=0.1, n=EDGE_WIDTH - 1, seed=1)
@example(s=1.3, bus=2, shift=0.1, n=EDGE_WIDTH, seed=2)
@example(s=1.3, bus=2, shift=0.1, n=EDGE_WIDTH + 1, seed=3)
def test_kernel_matches_naive_loop_on_any_dispatch(rts, rts_catalog, s, bus, shift, n, seed):
    # Shifting a bus without a generator makes its degenerate rows fire on
    # every sample, which the joint count leaves out.
    p_g = solve_dispatch(rts, rts_catalog, s).p_g
    p_g[bus] += shift
    samples = sample(gaussian_from_std_corr([9.4, 13.1], 0.2), n, seed=seed, case=rts)
    report = evaluate_in_chunks(p_g, samples, rts_catalog)
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


def test_a_set_with_no_uncertain_column_counts_the_dispatch_term_alone(rts, rts_catalog):
    # With no column every sum is its dispatch term, so a row is hit by
    # every sample or by none: here bus 3's degenerate upper row and the
    # rows that bus 1's extra 0.5 pu pushes past their limits.
    p_g = solve_dispatch(rts, rts_catalog, 0.0).p_g
    p_g[[0, 2]] += [0.5, 0.1]
    samples = SampleSet(np.zeros((50, 0)), [], 24)
    counts, joint = naive_violation_counts(p_g, rts_catalog, samples.samples)
    assert set(counts) == {0, 50} and joint == 50
    for source in (samples, count_store(samples, rts_catalog)):
        report = evaluate(p_g, source, rts_catalog)
        assert np.array_equal(report.counts, counts) and report.joint_count == joint


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
        # Not finite: the stacked dot products would carry NaN or inf.
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


def assert_envelope_exact(p, xi, catalog, cells=SMALL_CELLS):
    """evaluate, which skips the cells its bounds clear, == oracle loop,
    with no numpy warning, counting from the samples and from a fresh
    count store of them, in chunks of cells cells. Returns the report."""
    with warnings.catch_warnings(), mock.patch.object(_kernels, "_BLOCK_CELLS", cells):
        warnings.simplefilter("error")
        samples = sample_set(xi)
        reports = [evaluate(p, samples, catalog), evaluate(p, count_store(samples, catalog), catalog)]
    with np.errstate(all="ignore"):
        counts, joint = naive_violation_counts(p, catalog, xi)
    for report in reports:
        assert np.array_equal(report.counts, counts) and report.joint_count == joint
    return reports[0]


_BOUND_SETTINGS = settings(
    max_examples=25, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate]
)


@_BOUND_SETTINGS
@given(
    m=st.integers(1, 24),
    n=st.sampled_from([1, 5, 64, SEVERAL_CHUNKS]),
    coherent=st.booleans(),
    spread=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
# Every product just above half an ulp of the start rounds each of the m
# additions up, so the sum exceeds start + hi by about m ulps: a delta
# sized for two columns would miss it.
@example(m=24, n=64, coherent=True, spread=1, seed=8)
@example(m=2, n=SEVERAL_CHUNKS, coherent=True, spread=1, seed=4)
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
    n=st.one_of(st.integers(1, 80), st.just(SEVERAL_CHUNKS)),
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
        candidate = _kernels._sure_miss_limits(base, limits, m, bound)[3].any(axis=1)
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
        reach, _ = _kernels._bound(np.ascontiguousarray(sens.T), np.ascontiguousarray(xi.T))
    hi, lo = reach[:, 0], -reach[:, 1]
    for k in np.flatnonzero(np.all(np.isfinite(xi), axis=1)):
        for c in range(n_pairs):
            v = 0.0
            for j in range(m):
                v += float(sens[c, j]) * float(xi[k, j])
            # A NaN bound makes the pair a candidate, whatever v is.
            assert lo[c] <= v <= hi[c] or np.isnan([lo[c], hi[c]]).any()


def test_no_degenerate_pair_is_a_candidate_at_solved_dispatches(rts, rts_catalog):
    # A degenerate generator pair has b = 0, limits 0 and no sensitivity,
    # so its scale is 0. Were those 14 pairs candidates, a one-shot count
    # on the RTS case would sum about twice the pairs it needs.
    degenerate = np.flatnonzero(rts_catalog.pair_degenerate)
    assert degenerate.size == 14
    samples = sample(gaussian_from_std_corr([9.4, 13.1], 0.2), 5000, seed=5, case=rts)
    store = count_store(samples, rts_catalog)
    sure_miss_limits, candidates = _kernels._sure_miss_limits, []

    def limits(*args):
        margins = sure_miss_limits(*args)
        candidates.append(np.flatnonzero(margins[3].any(axis=1)))
        return margins

    with mock.patch.object(_kernels, "_sure_miss_limits", limits):
        for s in (0.0, 0.5, 1.5, 2.5):
            p_g = solve_dispatch(rts, rts_catalog, s).p_g
            evaluate(p_g, samples, rts_catalog)
            evaluate(p_g, store, rts_catalog)
    assert len(candidates) == 8 and all(rows.size for rows in candidates)
    assert not any(np.isin(degenerate, rows).any() for rows in candidates)


@settings(max_examples=6, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    s=st.floats(0.0, 2.5),
    bus=st.integers(0, 23),
    shift=st.floats(-0.1, 0.1),
    n=st.sampled_from(EDGE_SAMPLES),
    seed=st.integers(0, 2**32 - 1),
)
def test_envelope_matches_naive_loop_on_any_dispatch(rts, rts_catalog, s, bus, shift, n, seed):
    p_g = solve_dispatch(rts, rts_catalog, s).p_g
    p_g[bus] += shift
    samples = sample(gaussian_from_std_corr([9.4, 13.1], 0.2), n, seed=seed, case=rts)
    report = evaluate_in_chunks(p_g, samples, rts_catalog)
    counts, joint = naive_violation_counts(p_g, rts_catalog, samples.samples)
    assert np.array_equal(report.counts, counts)
    assert report.joint_count == joint
    assert report.seed == seed


# --- Uniform pairs: one coefficient on every column, decided from each
# sample's total ---


def count_paths(p, samples, catalog):
    """(uniform, summed): the pairs a one-shot count of samples decides
    from the sample totals, and those it sums in chunks."""
    with mock.patch.object(_kernels, "_tally_uniform", wraps=_kernels._tally_uniform) as uniform, mock.patch.object(
        _kernels, "_sum_and_tally", wraps=_kernels._sum_and_tally
    ) as summed:
        evaluate(p, samples, catalog)
    return (
        uniform.call_args.args[0].tolist() if uniform.called else [],
        summed.call_args.args[1].tolist() if summed.called else [],
    )


def test_one_uncertain_column_decides_every_pair_from_the_totals(rts, rts_catalog):
    # With one column every pair has one coefficient on it, so no pair is
    # summed in chunks.
    draw = sample(gaussian_from_std_corr([9.4, 13.1], 0.2), 3000, seed=41, case=rts).draw
    samples = SampleSet(draw[:, :1] * 3.0, [7], 24)
    for s in (0.0, 0.8, 2.0):
        p_g = solve_dispatch(rts, rts_catalog, s).p_g
        uniform, summed = count_paths(p_g, samples, rts_catalog)
        assert uniform and not summed
        report = evaluate(p_g, samples, rts_catalog)
        counts, joint = naive_violation_counts(p_g, rts_catalog, samples.samples)
        assert counts.sum() > 0
        assert np.array_equal(report.counts, counts) and report.joint_count == joint


def test_generator_pairs_are_decided_from_the_totals_on_the_rts_case(rts, rts_catalog):
    # Each generator pair's sensitivity is alpha_i on every bus; line
    # pairs differ from column to column.
    samples = sample(gaussian_from_std_corr([9.4, 13.1], 0.2), 4000, seed=8, case=rts)
    p_g = solve_dispatch(rts, rts_catalog, 0.5).p_g
    uniform, summed = count_paths(p_g, samples, rts_catalog)
    kinds = np.array(rts_catalog.pair_kinds)
    assert uniform and set(kinds[uniform]) == {"gen"} and set(kinds[summed]) == {"line"}
    report = evaluate(p_g, samples, rts_catalog)
    counts, joint = naive_violation_counts(p_g, rts_catalog, samples.samples)
    assert np.array_equal(report.counts, counts) and report.joint_count == joint


@_BOUND_SETTINGS
@given(
    m=st.integers(1, 6),
    n=st.one_of(st.integers(2, 80), st.just(SEVERAL_CHUNKS)),
    special=st.sampled_from(["", "nan", "inf"]),
    spread=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=3, n=SEVERAL_CHUNKS, special="nan", spread=1, seed=1)
@example(m=2, n=40, special="inf", spread=0, seed=2)
def test_uniform_pairs_match_the_oracle(m, n, special, spread, seed):
    # Pairs 0-2 have one coefficient on every column, pair 1 a negative
    # one; pair 3 has random ones. Some pairs are degenerate: their rows
    # are counted, but stay out of the joint count.
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.1, 2.0, 3) * np.array([1.0, -1.0, rng.choice([-1.0, 1.0])])
    sens = np.vstack([np.repeat(a[:, None], m, axis=1), rng.normal(size=(1, m))])
    g = rng.normal(size=(4, m))
    p = rng.normal(size=m)
    xi = rng.normal(scale=rng.choice([1e-6, 1.0, 1e3]), size=(n, m))
    if special:
        # In every sample's row but the last: the limits need one finite
        # sample to sit next to.
        xi[rng.integers(n - 1), rng.integers(m)] = np.nan if special == "nan" else np.inf
    limits = limits_at_sums(p, sens, xi, rng, spread, g)
    catalog = replace(paired_catalog(sens, limits, g), pair_degenerate=rng.random(4) < 0.3)
    assert_envelope_exact(p, xi, catalog)
    with np.errstate(all="ignore"):
        uniform, summed = count_paths(p, sample_set(xi), catalog)
    if special == "inf":
        # Every pair sees the infinite column: its band is NaN, so every
        # pair is a candidate, and each is summed in chunks.
        assert not uniform and summed == [0, 1, 2, 3]
    else:
        # A NaN sample leaves the bound finite, so it keeps no pair from
        # the totals.
        assert set(summed) <= {3}


def test_a_degenerate_uniform_pair_counts_its_rows_but_not_the_joint():
    # Pair 1's upper row fires on every sample; pair 0's on those above 0.5.
    xi = np.linspace(-1.0, 1.0, 41)[:, None] * np.ones((1, 2))
    catalog = paired_catalog(np.full((2, 2), 0.5), np.array([[0.5, 10.0], [-5.0, 10.0]]))
    catalog = replace(catalog, pair_degenerate=[False, True])
    uniform, summed = count_paths(np.zeros(2), sample_set(xi), catalog)
    assert uniform == [0, 1] and not summed
    report = assert_envelope_exact(np.zeros(2), xi, catalog)
    assert report.counts.tolist() == [10, 41, 0, 0] and report.joint_count == 10


def test_a_total_that_could_overflow_keeps_a_pair_summed():
    # The products of sample 0 cancel to 0.0, below the limit, but its
    # total overflows to inf on the way. Pair 0's sums stay far from
    # overflow, so only the bound of the total, tails / |a|, tells.
    xi = np.array([[1.5e308, 1.5e308, -1.5e308, -1.5e308], [1e308, 1e308, 1e308, 1e308]])
    catalog = paired_catalog(np.full((1, 4), 1e-300), np.array([[1.0, 1e9]]))
    with np.errstate(over="ignore"):
        uniform, summed = count_paths(np.zeros(4), sample_set(xi), catalog)
    assert not uniform and summed == [0]
    report = assert_envelope_exact(np.zeros(4), xi, catalog)
    assert report.counts.tolist() == [1, 0]


def test_a_subnormal_threshold_keeps_a_pair_summed():
    # Totals k * 2^-1074 for k = 1..20 against an upper limit at the sum
    # of k = 10: both thresholds round to 10 * 2^-1074, which cannot tell
    # the sum at the limit from those past it.
    xi = np.arange(1.0, 21.0)[:, None] * 2.0**-1074
    limit = float(1e300 * xi[9, 0])
    catalog = paired_catalog(np.full((1, 1), 1e300), np.array([[limit, 1e9]]))
    uniform, summed = count_paths(np.zeros(1), sample_set(xi), catalog)
    assert not uniform and summed == [0]
    report = assert_envelope_exact(np.zeros(1), xi, catalog)
    assert report.counts.tolist() == [10, 0]


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("steps", [-1, 0, 1])
def test_a_sum_on_a_limit_or_an_ulp_from_it_is_resummed(sign, side, steps):
    # Sample 17's sum sits on the limit of one row, or an ulp to either
    # side: its total lies between the miss and hit thresholds, so only
    # its re-sum from the dispatch term decides it.
    rng = np.random.default_rng(5)
    xi = rng.normal(size=(50, 3))
    sens = np.full((1, 3), sign * 0.37)
    p = np.array([0.6, 0.0, 0.0])
    acc = pair_sums(p, sens, xi, 17)[0]
    limits = np.array([[1e3, 1e3]])
    limits[0, side] = ulps_from(acc if side == 0 else -acc, steps)
    catalog = paired_catalog(sens, limits)
    with mock.patch.object(_kernels, "_accumulate", wraps=_kernels._accumulate) as resum, mock.patch.object(
        _kernels, "_sum_and_tally", wraps=_kernels._sum_and_tally
    ) as summed:
        report = evaluate(p, sample_set(xi), catalog)
    assert not summed.called
    assert any(acc in call.args[0] for call in resum.call_args_list)
    assert report.counts.tolist() == assert_envelope_exact(p, xi, catalog).counts.tolist()


# --- Chunks: each is tallied with one compare per limit over all its
# cells ---


def test_a_row_hit_by_every_sample_counts_past_a_uint16_chunk():
    # One summed pair gets the widest chunk, 65,535 samples, the most a
    # uint16 row count holds; 65,536 samples take a second chunk.
    n = 2**16
    assert _kernels._width(1) == n - 1
    catalog = paired_catalog(np.ones((1, 1)), np.array([[0.5, 10.0]]))
    report = assert_envelope_exact(np.zeros(1), np.ones((n, 1)), catalog, _kernels._BLOCK_CELLS)
    assert report.counts.tolist() == [n, 0] and report.joint_count == n


def test_a_chunk_that_hits_both_rows_of_a_pair():
    # Samples -1, -0.95, ..., 1 in one chunk: ten lie above 0.51 and ten
    # below -0.51.
    xi = np.linspace(-1.0, 1.0, 41)[:, None]
    catalog = paired_catalog(np.ones((1, 1)), np.array([[0.51, 0.51]]))
    report = assert_envelope_exact(np.zeros(1), xi, catalog)
    assert report.counts.tolist() == [10, 10] and report.joint_count == 20


def test_chunks_in_which_no_candidate_row_is_hit():
    # Every sum is 1.0, exactly at the upper limit and so no hit, but the
    # bound of the set reaches 2.0 and the store cannot clear a sum at the
    # limit: both paths sum every sample. Only the last sample, in the
    # last chunk, sums to 2.0 and hits.
    xi = np.zeros((SEVERAL_CHUNKS, 2))
    xi[0::2, 0] = 1.0
    xi[1::2, 1] = 1.0
    xi[-1] = 1.0
    catalog = paired_catalog(np.ones((1, 2)), np.array([[1.0, 10.0]]))
    report = assert_envelope_exact(np.zeros(2), xi, catalog)
    assert report.counts.tolist() == [1, 0] and report.joint_count == 1


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
    n=st.one_of(st.integers(1, 80), st.just(SEVERAL_CHUNKS)),
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
@example(m=1, n=SEVERAL_CHUNKS, coherent=False, special=True, at_max=False, spread=1, seed=2456391)
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
    # The store re-sums in chunks of SMALL_CELLS cells.
    small_chunks = mock.patch.object(_kernels, "_BLOCK_CELLS", SMALL_CELLS)
    with warnings.catch_warnings(), small_chunks, mock.patch.object(_kernels, "_STORE_ROWS", 1):
        warnings.simplefilter("error")
        store = count_store(sample_set(xi), catalog)
    for k, p_k in enumerate(dispatches):
        with warnings.catch_warnings(), small_chunks, mock.patch.object(
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
    with pytest.raises(ValueError, match="other limits"):
        _kernels.count_violations(
            np.zeros(n_pairs), rts_catalog.pair_sensitivity,
            rts_catalog.pair_limits.copy(), store, store.cols, np.ones(n_pairs, dtype=bool),
        )


def test_counts_pairs_with_both_rows_live_and_filled_pairs_that_are_no_candidate():
    # Pair 0's limits lie inside its sums' range on both sides, and its
    # upper limit equals one sample's sum exactly, which only a re-sum
    # from the dispatch term decides. Pair 1's upper row alone is live at
    # the first dispatch and its lower row alone at the second. Pair 2 is
    # a candidate at the first dispatch only: at the second the store
    # keeps its sums but must leave it out.
    rng = np.random.default_rng(11)
    xi = rng.normal(size=(500, 3))
    sens = rng.normal(size=(3, 3)) * np.array([[1.0], [0.1], [0.1]])
    limits = np.array([[0.5, 0.5], [2.1, 2.1], [2.1, 2.1]])
    first, second = np.array([0.0, 2.0, 2.0]), np.array([0.0, -2.0, 0.0])
    limits[0, 0] = pair_sums(first, sens, xi, 7)[0]
    catalog = paired_catalog(sens, limits)
    samples = sample_set(xi)
    store = count_store(samples, catalog)
    live, resummed = [], []
    sure_miss_limits, sum_and_tally = _kernels._sure_miss_limits, _kernels._sum_and_tally

    def margins(*args):
        found = sure_miss_limits(*args)
        live.append(found[3])
        return found

    def tally(chunks, rows, *args):
        resummed.append(rows.tolist())
        return sum_and_tally(chunks, rows, *args)

    for p in (first, second):
        counts, joint = naive_violation_counts(p, catalog, xi)
        with mock.patch.object(_kernels, "_sure_miss_limits", margins), mock.patch.object(
            _kernels, "_sum_and_tally", tally
        ):
            reports = [evaluate(p, samples, catalog), evaluate(p, store, catalog)]
        for report in reports:
            assert np.array_equal(report.counts, counts) and report.joint_count == joint
    # One-shot then store, at each dispatch.
    assert [rows.tolist() for rows in live] == [
        [[True, True], [True, False], [True, False]],
    ] * 2 + [[[True, True], [False, True], [False, False]]] * 2
    assert store._slot[2] >= 0
    # The store re-sums the tied sample for every candidate, and only for
    # the candidates.
    assert resummed[1] == [0, 1, 2] and resummed[3] == [0, 1]
