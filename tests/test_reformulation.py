"""Participation factors, constraint catalog, and the tightened dispatch solve."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cctuner import apply_rts_modifications, load_rts_case, parse_case, qp, reformulation
from cctuner.ptdf import compute_ptdf
from cctuner.reformulation import (
    ConstraintCatalog,
    DispatchProgram,
    build_catalog,
    case_start,
    constraint_deltas,
    participation_factors,
    solve_dispatch,
)
from cctuner.uncertainty import (
    GaussianSpec,
    gaussian_from_std_corr,
    spec_moments,
)

TWO_GEN = """
base 100
bus 1 0 uncertain
bus 2 200
line 1 2 0.1 500
gen 1 0 100 0.01 10 0
gen 2 0 300 0.02 20 0
"""

THREE_BUS_RING = """
base 100
bus 1 0 uncertain
bus 2 0 uncertain
bus 3 30
line 1 2 0.1 100
line 1 3 0.1 100
line 2 3 0.1 100
gen 1 0 50 0.01 10 0
gen 2 0 50 0.015 12 0
"""


@pytest.fixture(scope="module")
def rts():
    return apply_rts_modifications(load_rts_case())


@pytest.fixture(scope="module")
def rts_catalog(rts):
    ptdf = compute_ptdf(rts)
    alpha = participation_factors(rts)
    moments = spec_moments(gaussian_from_std_corr([9.4, 13.1], 0.2), rts)
    return build_catalog(rts, ptdf, alpha, moments)


def cold_dispatch(case, catalog, s):
    """The dispatch at s from one cold qp.solve of a fresh program's
    arrays, with nothing walked or looked up: the reference a program's
    reused answers are checked against."""
    program = DispatchProgram(case, catalog)
    path = program._path
    return program._dispatch(qp.solve(*path.arrays, path.h0 + s * path.dh), "cold")


@pytest.fixture
def unstarted(monkeypatch):
    """Programs solved in the test find no case start, as for a catalog
    whose s = 0 program is not the case's: each one's first solve is
    cold at its own s, and its path grows from there alone."""
    monkeypatch.setattr(reformulation, "case_start", lambda case: None)


def test_participation_proportional_split():
    case = parse_case(TWO_GEN)
    alpha = participation_factors(case)
    np.testing.assert_allclose(alpha, [0.25, 0.75])
    assert not alpha.flags.writeable


def test_participation_single_generator():
    case = parse_case("base 100\nbus 1 0\nbus 2 10\nline 1 2 0.1 50\ngen 1 0 20 0 1 0\n")
    alpha = participation_factors(case)
    np.testing.assert_allclose(alpha, [1.0, 0.0])


def test_participation_sums_to_one_and_scale_invariant(rts):
    plain = load_rts_case()
    a1 = participation_factors(plain)
    a2 = participation_factors(rts)  # capacities doubled
    assert abs(a1.sum() - 1.0) <= 1e-12
    assert np.array_equal(a1, a2)
    assert np.all(a1[plain.p_max_mw() == 0.0] == 0.0)


def test_participation_requires_capacity():
    case = parse_case("base 100\nbus 1 0\nbus 2 0\nline 1 2 0.1 50\ngen 1 0 20 0 1 0\n")
    stripped = type(case)(
        case.base_mva,
        case.buses,
        case.lines,
        tuple(type(g)(g.bus, 0.0, 0.0, 0.0, 0.0, 0.0) for g in case.generators),
    )
    with pytest.raises(ValueError, match="capacity"):
        participation_factors(stripped)


def test_catalog_shape_and_order(rts, rts_catalog):
    cat = rts_catalog
    # 2 rows per bus plus 2 per line.
    assert len(cat) == 2 * 24 + 2 * 38 == 124
    # Non-degenerate: only the 10 buses with capacity keep live rows.
    assert cat.n_active == 2 * 10 + 2 * 38 == 96
    kinds = [r.kind for r in cat.rows]
    assert kinds[:24] == ["gen_upper"] * 24
    assert kinds[24:48] == ["gen_lower"] * 24
    assert kinds[48:86] == ["line_upper"] * 38
    assert kinds[86:] == ["line_lower"] * 38
    assert [r.subject for r in cat.rows[:24]] == list(range(1, 25))
    assert [r.subject for r in cat.rows[48:86]] == list(range(1, 39))


def test_catalog_gen_row_structure(rts, rts_catalog):
    alpha = participation_factors(rts)
    p_max = rts.p_max_mw() / rts.base_mva
    p_min = rts.p_min_mw() / rts.base_mva
    cat = rts_catalog
    sigma_total = np.sqrt(9.4**2 + 13.1**2 + 2 * 0.2 * 9.4 * 13.1) / 100.0
    for i in range(24):
        up, lo = cat.rows[i], cat.rows[24 + i]
        assert up.nominal_limit == p_max[i]
        assert lo.nominal_limit == -p_min[i]
        np.testing.assert_array_equal(up.sensitivity, alpha[i] * np.ones(24))
        # Generator tightening is alpha_i times the total-mismatch std.
        assert up.sigma == pytest.approx(alpha[i] * sigma_total, rel=1e-12)
        assert lo.sigma == up.sigma
        assert up.degenerate == (rts.p_max_mw()[i] == 0.0)


def test_catalog_line_rows_match_quadratic_form(rts, rts_catalog):
    moments = spec_moments(gaussian_from_std_corr([9.4, 13.1], 0.2), rts)
    ptdf = compute_ptdf(rts)
    d = rts.loads_mw() / rts.base_mva
    caps = rts.line_capacities_mw() / rts.base_mva
    cat = rts_catalog
    for r in range(38):
        up = cat.rows[48 + r]
        lo = cat.rows[86 + r]
        assert not up.degenerate and not lo.degenerate
        flow_d = float(ptdf[r] @ d)
        assert up.nominal_limit == pytest.approx(caps[r] + flow_d, rel=1e-12)
        assert lo.nominal_limit == pytest.approx(caps[r] - flow_d, rel=1e-12)
        oracle = float(np.sqrt(up.sensitivity @ moments.covariance @ up.sensitivity))
        assert up.sigma == pytest.approx(oracle, rel=1e-9)
        assert lo.sigma == up.sigma


def test_zero_covariance_kills_tightening(rts):
    ptdf = compute_ptdf(rts)
    alpha = participation_factors(rts)
    moments = spec_moments(GaussianSpec(mean_mw=np.zeros(2), covariance_mw2=np.zeros((2, 2))), rts)
    cat = build_catalog(rts, ptdf, alpha, moments)
    assert np.all(cat.sigmas == 0.0)


def test_constraint_deltas_rank_one_structure():
    case = parse_case(THREE_BUS_RING)
    ptdf = compute_ptdf(case)
    alpha = participation_factors(case)
    deltas = constraint_deltas(ptdf, alpha)
    # Post-recourse injections are always balanced: (I - alpha·1ᵀ)xi sums to 0.
    rng = np.random.default_rng(0)
    for _ in range(10):
        xi = rng.normal(size=3)
        adjusted = xi - alpha * xi.sum()
        assert abs(adjusted.sum()) <= 1e-12

    # Single balancer at bus k: row reduces to M_r - M_rk·1.
    d2 = constraint_deltas(ptdf, np.array([0.0, 1.0, 0.0]))
    expect = ptdf - np.outer(ptdf[:, 1], np.ones(3))
    np.testing.assert_allclose(d2, expect, atol=1e-15)


def test_constraint_deltas_match_finite_differences():
    case = parse_case(THREE_BUS_RING)
    ptdf = compute_ptdf(case)
    alpha = participation_factors(case)
    deltas = constraint_deltas(ptdf, alpha)
    d = case.loads_mw() / case.base_mva
    p_g = np.array([0.2, 0.1, 0.0])

    def flows(xi):
        omega = xi.sum()
        return ptdf @ (p_g - alpha * omega + xi - d)

    h = 1e-6
    for j in range(3):
        e_j = np.zeros(3)
        e_j[j] = h
        fd = (flows(e_j) - flows(np.zeros(3))) / h
        np.testing.assert_allclose(fd, deltas[:, j], atol=1e-8)


def test_solve_dispatch_rejects_negative_or_nonfinite_s(rts, rts_catalog):
    for s in (-0.1, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="nonnegative"):
            solve_dispatch(rts, rts_catalog, s)
    # A program keeps state for its own case and catalog only.
    other = DispatchProgram(apply_rts_modifications(load_rts_case()), rts_catalog)
    with pytest.raises(ValueError, match="another case or catalog"):
        solve_dispatch(rts, rts_catalog, 1.0, other)


def test_dispatch_solution_kkt_and_pinning(rts, rts_catalog):
    s = 1.3012
    sol = solve_dispatch(rts, rts_catalog, s)
    assert sol.feasible
    base = rts.base_mva
    c2, c1, _ = rts.cost_coefficients()
    g = rts_catalog.dispatch_matrix
    h = rts_catalog.limits - s * rts_catalog.sigmas
    q = sol.qp_solution
    # Full-system stationarity, using only returned vectors.
    stat = 2.0 * c2 * base * base * sol.p_g + c1 * base + q.y[0] + g.T @ q.z
    assert np.abs(stat).max() <= 1e-8
    assert abs(sol.p_g.sum() - rts.loads_mw().sum() / base) <= 1e-8
    slack = h - g @ sol.p_g
    assert slack.min() >= -1e-9
    assert np.all(q.z >= 0.0)
    assert np.abs(q.z * slack).max() <= 1e-7
    # Buses without capacity are exactly zero.
    assert np.all(sol.p_g[rts.p_max_mw() == 0.0] == 0.0)


def test_feasible_set_nesting_and_cost_monotone(rts, rts_catalog):
    grid = np.linspace(0.0, 3.0, 10)
    sols = [solve_dispatch(rts, rts_catalog, s) for s in grid]
    assert all(s.feasible for s in sols)
    costs = [s.objective for s in sols]
    for a, b in zip(costs, costs[1:]):
        assert b >= a - 1e-6
    # Any dispatch feasible at tighter s stays feasible at looser s.
    for s_loose, sol_tight in zip(grid[:-1], sols[1:]):
        h = rts_catalog.limits - float(s_loose) * rts_catalog.sigmas
        margins = rts_catalog.dispatch_matrix @ sol_tight.p_g - h
        assert margins.max() <= 1e-9
        assert abs(sol_tight.p_g.sum() - rts.loads_mw().sum() / rts.base_mva) <= 1e-8


def test_crossed_bounds_infeasible(rts, rts_catalog):
    # Large s crosses every generator's tightened bounds.
    sol = solve_dispatch(rts, rts_catalog, 50.0)
    assert sol.status == "infeasible"
    assert sol.qp_solution.certificate is not None


def test_huge_s_infeasible_with_certificate(rts, rts_catalog):
    # From |h| ~ 1e16 on, a fixed phase-1 start margin of 1.0 rounds away
    # and the start lands on the boundary of the phase-1 program.
    sol = solve_dispatch(rts, rts_catalog, 1e20)
    assert sol.status == "infeasible"
    cert = sol.qp_solution.certificate
    assert cert is not None and cert["farkas_gap"] < 0.0


def pinned_load_case(line_2_3_mw: float):
    # Bus 3 has no generator, so it is pinned; the radial line 2-3
    # carries its whole 150 MW load, and with bus 3's column eliminated
    # that line's rows are constant.
    return parse_case(
        "base 100\nbus 1 0 uncertain\nbus 2 0\nbus 3 150\n"
        f"line 1 2 0.1 500\nline 2 3 0.1 {line_2_3_mw}\n"
        "gen 1 0 100 0.01 10 0\ngen 2 0 300 0.02 20 0\n"
    )


def test_constant_row_to_a_pinned_load_is_certified():
    for line_mw, expected in ((100.0, "infeasible"), (200.0, "optimal")):
        case = pinned_load_case(line_mw)
        catalog = build_catalog(
            case,
            compute_ptdf(case),
            participation_factors(case),
            spec_moments(gaussian_from_std_corr([10.0], 0.0), case),
        )
        for s in (0.0, 1.0):
            sol = solve_dispatch(case, catalog, s)
            assert sol.status == expected
            if expected == "infeasible":
                cert = sol.qp_solution.certificate
                assert cert["farkas_gap"] < 0.0
                z = cert["inequality_dual"]
                # Catalog indexing, zero on bus 3's own pair of rows.
                assert z.shape == (len(catalog),)
                assert z[2] == 0.0 and z[case.n_buses + 2] == 0.0


def test_pinned_bus_elimination_keeps_cold_solves_short(rts, rts_catalog):
    # Cold RTS solves take 13-15 pivots; with the pinned columns kept
    # they took 59-69.
    for s in (0.5, 1.5, 3.0, 6.0):
        sol = cold_dispatch(rts, rts_catalog, s)
        assert sol.qp_solution.iterations <= 20, (s, sol.status, sol.qp_solution.iterations)


def test_catalog_rows_are_read_only_views_of_the_matrices(rts_catalog):
    cat = rts_catalog
    for c, row in enumerate(cat.rows):
        for arr, matrix in ((row.dispatch_row, cat.dispatch_matrix), (row.sensitivity, cat.sensitivity_matrix)):
            assert np.shares_memory(arr, matrix[c])
            assert not arr.flags.writeable
        assert row.nominal_limit == cat.limits[c]
        assert row.sigma == cat.sigmas[c]
        assert row.degenerate == cat.degenerate[c]


def test_catalog_signed_zero_layout(rts, rts_catalog):
    n, n_lines = rts.n_buses, rts.n_lines
    g, a = rts_catalog.dispatch_matrix, rts_catalog.sensitivity_matrix
    sign = np.uint64(1 << 63)

    def bits(x):
        return np.ascontiguousarray(x).view(np.uint64)

    # gen_lower dispatch rows: -1 on the diagonal, +0.0 everywhere else.
    expect = np.zeros((n, n))
    np.fill_diagonal(expect, -1.0)
    assert np.array_equal(bits(g[n : 2 * n]), bits(expect))
    # Every other lower row is its upper row with the sign bit flipped,
    # zeros included.
    lines_up, lines_lo = slice(2 * n, 2 * n + n_lines), slice(2 * n + n_lines, None)
    assert np.array_equal(bits(a[n : 2 * n]), bits(a[:n]) ^ sign)
    assert np.array_equal(bits(g[lines_lo]), bits(g[lines_up]) ^ sign)
    assert np.array_equal(bits(a[lines_lo]), bits(a[lines_up]) ^ sign)
    # The layout is exercised: zero-capacity buses and the slack column
    # put zeros in both halves.
    assert np.any(a[:n] == 0.0) and np.any(g[lines_up] == 0.0)


def test_catalog_pairs_mirror_each_upper_row(rts_catalog):
    # The counting kernel decides both rows of a pair from the pair's one
    # sum; the oracle counts the derived rows, so each lower row must
    # mirror its upper row bit for bit.
    cat = rts_catalog
    g, a = cat.dispatch_matrix, cat.sensitivity_matrix
    sign = np.uint64(1 << 63)

    def bits(x):
        return np.ascontiguousarray(x).view(np.uint64)

    n_pairs = len(cat.pair_kinds)
    assert len(cat) == 2 * n_pairs
    row_of = {(int(c), int(side)): r for r, (c, side) in enumerate(zip(*cat.row_map))}
    assert sorted(row_of) == [(c, side) for c in range(n_pairs) for side in (0, 1)]
    for c in range(n_pairs):
        up, lo = row_of[c, 0], row_of[c, 1]
        kind = cat.pair_kinds[c]
        assert (cat.rows[up].kind, cat.rows[lo].kind) == (f"{kind}_upper", f"{kind}_lower")
        assert cat.rows[up].subject == cat.rows[lo].subject == cat.pair_subjects[c]
        assert np.array_equal(bits(g[up]), bits(cat.pair_dispatch[c]))
        assert np.array_equal(bits(a[up]), bits(cat.pair_sensitivity[c]))
        assert np.array_equal(bits(a[lo]), bits(a[up]) ^ sign)
        assert np.array_equal(g[lo], -g[up])
        assert (cat.limits[up], cat.limits[lo]) == tuple(cat.pair_limits[c])
        assert cat.sigmas[up] == cat.sigmas[lo] == cat.pair_sigmas[c]
        assert cat.degenerate[up] == cat.degenerate[lo] == cat.pair_degenerate[c]


def test_warm_start_reuses_the_returned_working_set(rts, rts_catalog, unstarted):
    n = rts.n_buses
    pinned = np.flatnonzero((rts.p_max_mw() == 0.0) & (rts.p_min_mw() == 0.0))
    assert pinned.size
    for s in (0.5, 1.5, 3.0):
        program = DispatchProgram(rts, rts_catalog)
        cold = program.solve(s)
        assert cold.feasible and cold.qp_start == "cold" and cold.qp_solution.iterations > 0
        active = cold.qp_solution.active
        assert active.shape == (len(rts_catalog),) and active.dtype == bool
        # The working set is in catalog indexing, False on the pinned
        # buses' own rows and on every row with room to spare.
        assert not active[pinned].any() and not active[n + pinned].any()
        slack = rts_catalog.limits - s * rts_catalog.sigmas - rts_catalog.dispatch_matrix @ cold.p_g
        assert not np.any(active & (slack > 1e-8))
        warm = program.solve(s)
        assert warm.feasible and warm.qp_start == "segment" and warm.qp_solution.iterations == 0
        assert np.array_equal(warm.qp_solution.active, active)
        assert warm.objective == pytest.approx(cold.objective, rel=1e-12)


def test_program_reuses_a_certificate_only_at_or_above_its_s(rts, rts_catalog, unstarted):
    # The RTS catalog turns infeasible near s = 19.56.
    program = DispatchProgram(rts, rts_catalog)
    d_total = rts.loads_mw().sum() / rts.base_mva

    def solve(s, status, qp_start):
        sol = program.solve(s)
        assert (sol.status, sol.qp_start) == (status, qp_start), s
        if status == "infeasible":
            cert = sol.qp_solution.certificate
            z = cert["inequality_dual"]
            # The gap recomputed at this s from the catalog itself.
            gap = d_total * cert["equality_dual"][0] + (rts_catalog.limits - s * rts_catalog.sigmas) @ z
            assert np.all(z >= 0.0) and gap < -1e-8 and cert["stationarity"] <= 1e-8
            assert sol.objective == np.inf and not sol.qp_solution.active.any()
            assert solve_dispatch(rts, rts_catalog, s).status == "infeasible"
        return sol

    cert = solve(30.0, "infeasible", "cold").qp_solution.certificate
    # Its gap is affine in s, so it separates from some s on, below the
    # s it was found at but above the threshold 19.56.
    z = cert["inequality_dual"]
    gap_0, slope = d_total * cert["equality_dual"][0] + rts_catalog.limits @ z, -(rts_catalog.sigmas @ z)
    reach = (-1e-8 - gap_0) / slope
    assert 19.6 < reach < 25.0
    assert solve(25.0, "infeasible", "certificate").qp_solution.iterations == 0
    # Below the certificate's reach a feasible program still comes back
    # optimal; with no segment stored yet, it is solved cold.
    solve(10.0, "optimal", "cold")
    # An infeasible s below the reach is walked to from that segment,
    # past the end of the path, whose certificate then replaces the
    # first one.
    assert solve((19.6 + reach) / 2.0, "infeasible", "segment").qp_solution.iterations > 0
    solve(19.6, "infeasible", "certificate")
    assert solve(40.0, "infeasible", "certificate").qp_solution.iterations == 0
    solve(19.0, "optimal", "segment")
    assert solve(10.0, "optimal", "segment").qp_solution.iterations == 0


def eager_qp_solution(program, solved):
    """solved, a QpSolution of program's QP without the pinned buses, in
    full length and catalog indexing, built in one pass from the rules
    DispatchSolution states: the reference for its lazy qp_solution."""
    pinned, live = program._pinned, program._live
    p_g, y, z, active = np.zeros(program.case.n_buses), np.zeros(1), np.zeros(len(program.catalog)), live.copy()
    active[live] = solved.active
    certificate = solved.certificate
    if solved.optimal:
        p_g[program._free] = solved.x
        y = solved.y
        z[live] = solved.z
        resid = program._lin[pinned] + y[0] + program._pinned_columns @ z
        upper, lower = program._pinned_rows
        z[upper] = np.maximum(-resid, 0.0)
        z[lower] = np.maximum(resid, 0.0)
    elif certificate is not None:
        inequality_dual = np.zeros(len(program.catalog))
        inequality_dual[live] = certificate["inequality_dual"]
        certificate = {**certificate, "inequality_dual": inequality_dual}
    objective = solved.objective if solved.optimal else np.inf
    return replace(solved, x=p_g, objective=objective, y=y, z=z, active=active, certificate=certificate)


def test_qp_solution_is_built_on_first_read_as_an_eager_build_would(rts, rts_catalog, unstarted):
    program = DispatchProgram(rts, rts_catalog)
    kinds = set()
    for s in (30.0, 25.0, 10.0, 10.0, 19.0, 19.6):
        sol = program.solve(s)
        kinds.add((sol.status, sol.qp_start, sol.iterations > 0))
        # The tuner reads these without building qp_solution.
        assert sol.iterations == sol._solved.iterations and sol.kkt_residuals == sol._solved.kkt_residuals
        assert "qp_solution" not in vars(sol)
        lazy = sol.qp_solution
        assert sol.qp_solution is lazy
        eager = eager_qp_solution(program, sol._solved)
        assert (lazy.status, lazy.objective, lazy.iterations) == (eager.status, eager.objective, eager.iterations)
        assert lazy.kkt_residuals == eager.kkt_residuals and lazy.x is sol.p_g
        for name in ("x", "y", "z", "active"):
            assert np.array_equal(getattr(lazy, name), getattr(eager, name)), (s, name)
        assert (lazy.certificate is None) == (eager.certificate is None)
        if eager.certificate is not None:
            assert lazy.certificate.keys() == eager.certificate.keys()
            for key, value in eager.certificate.items():
                assert np.array_equal(lazy.certificate[key], value), (s, key)
    # Cold infeasible, certificate, cold optimal, a 0-swap lookup, a
    # walk, and a walk past the end of the path.
    assert kinds == {
        ("infeasible", "cold", True),
        ("infeasible", "certificate", False),
        ("optimal", "cold", True),
        ("optimal", "segment", False),
        ("optimal", "segment", True),
        ("infeasible", "segment", True),
    }


def check_certified(case, catalog, s, sol):
    """An optimal answer passes the four-residual test at s; an
    infeasible one carries duals that separate at h(s)."""
    h = catalog.limits - s * catalog.sigmas
    if sol.status == "optimal":
        # The four residuals of the full system, pinned buses included,
        # from the returned vectors.
        base = case.base_mva
        c2, c1, _ = case.cost_coefficients()
        res = sol.qp_solution
        full = qp._residuals(
            2.0 * c2 * base * base, c1 * base, np.ones((1, case.n_buses)), np.array([case.loads_mw().sum() / base]),
            catalog.dispatch_matrix, h, sol.p_g, res.y, res.z,
        )
        assert max(full) <= 1e-8 and np.all(res.z >= 0.0)
    elif sol.status == "infeasible":
        # The certificate proves the program over the free buses
        # infeasible; a pinned bus's own rows have h = 0 and z = 0.
        free = (case.p_max_mw() != 0.0) | (case.p_min_mw() != 0.0)
        cert = sol.qp_solution.certificate
        a, b = np.ones((1, int(free.sum()))), np.array([case.loads_mw().sum() / case.base_mva])
        g = catalog.dispatch_matrix[:, free]
        assert qp._farkas(a, b, g, h, cert["equality_dual"], cert["inequality_dual"]) is not None


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.0, 25.0), min_size=1, max_size=12))
def test_walked_program_agrees_with_a_cold_solve_at_every_s(rts, rts_catalog, steps):
    program = DispatchProgram(rts, rts_catalog)
    for s in steps:
        sol = program.solve(s)
        ref = cold_dispatch(rts, rts_catalog, s)
        assert sol.status == ref.status, (s, sol.qp_start)
        if sol.feasible:
            assert sol.objective == pytest.approx(ref.objective, rel=1e-9)
        if sol.qp_start == "segment" or sol.status == "infeasible":
            check_certified(rts, rts_catalog, s, sol)


def test_a_program_walks_from_the_s0_solution_of_another_catalog(rts, rts_catalog, monkeypatch):
    # The s = 0 program has no sigmas in it, so a catalog of the same
    # case under another spec solves the s = 0 solution this one starts
    # from: with it as the case start, no solve of this program is cold,
    # and each agrees with a cold solve at its s, at s = 0 bit for bit.
    # The ray where the other catalog's path ends also separates this
    # one's h(25).
    spec = gaussian_from_std_corr([20.0, 5.0], -0.5)
    other = build_catalog(rts, compute_ptdf(rts), participation_factors(rts), spec_moments(spec, rts))
    assert not np.array_equal(other.sigmas, rts_catalog.sigmas)
    s0 = DispatchProgram(rts, other)._path.s0()
    cold_solves = []
    cold_solve = qp.solve
    monkeypatch.setattr(qp, "solve", lambda *arrays: cold_solves.append(arrays) or cold_solve(*arrays))
    monkeypatch.setattr(reformulation, "case_start", lambda case: s0)
    program = DispatchProgram(rts, rts_catalog)
    steps = (2.0, 0.0, 19.5, 25.0, 12.0, 0.7, 0.0)
    sols = [program.solve(s) for s in steps]
    assert not cold_solves
    assert [sol.qp_start for sol in sols] == ["segment", "cold", "segment", "certificate", "segment", "segment", "cold"]
    for s, sol in zip(steps, sols):
        ref = cold_dispatch(rts, rts_catalog, s)
        assert sol.status == ref.status, s
        check_certified(rts, rts_catalog, s, sol)
        if s == 0.0:
            assert np.array_equal(sol.p_g, ref.p_g) and sol.objective == ref.objective
        elif sol.feasible:
            assert sol.objective == pytest.approx(ref.objective, rel=1e-9)
    assert sols[3].status == "infeasible"
    # A catalog with other limits is another s = 0 program.
    looser = replace(rts_catalog, pair_limits=rts_catalog.pair_limits + 0.01)
    assert not DispatchProgram(rts, looser)._path.start_from(s0)


def threshold(case, catalog):
    """The largest s with a feasible dispatch: the LP max s subject to
    1ᵀp = load, G p + s·sigmas <= limits and s >= 0."""
    n = case.n_buses
    g = np.vstack([np.column_stack([catalog.dispatch_matrix, catalog.sigmas]), -np.eye(n + 1)[-1:]])
    lp = qp.solve(
        np.zeros(n + 1), -np.eye(n + 1)[-1], np.append(np.ones(n), 0.0)[None, :],
        [case.loads_mw().sum() / case.base_mva], g, np.append(catalog.limits, 0.0),
    )
    assert lp.optimal
    return float(lp.x[-1])


def test_scan_across_the_threshold_certifies_every_status(rts, rts_catalog):
    # Within about 3e-7 above the threshold s* no point passes the test
    # and no certificate separates yet: a solve there may end
    # max_iterations, but no walk may call it infeasible or optimal.
    s_star = threshold(rts, rts_catalog)
    assert s_star == pytest.approx(19.559322706, abs=1e-8)
    program = DispatchProgram(rts, rts_catalog)
    statuses = set()
    for s in [15.0, *np.linspace(s_star - 1e-6, s_star + 1e-6, 41)]:
        sol = program.solve(float(s))
        statuses.add(sol.status)
        check_certified(rts, rts_catalog, float(s), sol)
        if sol.qp_start == "segment" and sol.feasible:
            assert s <= s_star + 1e-9
        assert sol.status != "infeasible" or s > s_star
    assert {"optimal", "infeasible"} <= statuses


def select_pairs(catalog, order):
    """The catalog of catalog's pairs listed in order."""
    return ConstraintCatalog(
        tuple(catalog.pair_kinds[c] for c in order), tuple(catalog.pair_subjects[c] for c in order),
        catalog.pair_dispatch[order], catalog.pair_sensitivity[order], catalog.pair_limits[order],
        catalog.pair_sigmas[order], catalog.pair_degenerate[order],
    )


def test_pinned_rows_are_found_by_kind_and_subject_not_position(rts, rts_catalog):
    # A catalog that lists its line pairs first eliminates the same rows
    # as the gen-first one: on both sides of the infeasibility threshold
    # its statuses match, its dispatches meet its own rows, and the
    # pinned buses' multipliers land on their gen rows.
    kinds = np.array(rts_catalog.pair_kinds)
    reordered = select_pairs(rts_catalog, np.r_[np.flatnonzero(kinds == "line"), np.flatnonzero(kinds == "gen")])
    ours, ref = DispatchProgram(rts, reordered), DispatchProgram(rts, rts_catalog)
    pinned_rows = [
        r for r, row in enumerate(reordered.rows)
        if row.kind.startswith("gen") and rts.p_max_mw()[row.subject - 1] == 0.0
    ]
    assert min(pinned_rows) >= 2 * 38
    statuses = set()
    for s in [1.0, 10.0, 19.5, *np.arange(19.75, 25.0 + 1e-9, 0.25)]:
        sol, expected = ours.solve(float(s)), ref.solve(float(s))
        assert sol.status == expected.status, s
        statuses.add(sol.status)
        check_certified(rts, reordered, float(s), sol)
        if sol.feasible:
            h = reordered.limits - float(s) * reordered.sigmas
            assert (reordered.dispatch_matrix @ sol.p_g - h).max() <= 1e-9
            assert np.any(sol.qp_solution.z[pinned_rows] > 0.0)
            assert not np.any(sol.qp_solution.active[pinned_rows])
    assert statuses == {"optimal", "infeasible"}


def test_a_pinned_bus_without_a_gen_pair_is_rejected(rts, rts_catalog):
    p_max = rts.p_max_mw()
    keep = [
        c for c, (kind, subject) in enumerate(zip(rts_catalog.pair_kinds, rts_catalog.pair_subjects))
        if kind == "line" or p_max[subject - 1] > 0.0
    ]
    with pytest.raises(ValueError, match="no gen pair"):
        DispatchProgram(rts, select_pairs(rts_catalog, keep))


def test_equal_cases_built_apart_share_one_case_start_slot():
    first, second = (apply_rts_modifications(load_rts_case()) for _ in range(2))
    assert first is not second and first == second and hash(first) == hash(second)
    case_start.cache_clear()
    start = case_start(first)
    assert case_start(second) is start
    assert (case_start.cache_info().hits, case_start.cache_info().misses) == (1, 1)
