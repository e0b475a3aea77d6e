"""Active-set QP solver against hand KKT systems, brute force and Farkas certificates."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_qp

from cctuner import qp
from cctuner.qp import DEFAULT_TOL, ParametricProgram, certified_infeasible, solve


def kkt_residuals(p, q, a, b, g, h, sol):
    """Recompute the four residuals from the returned vectors only."""
    p, q = np.asarray(p, float), np.asarray(q, float)
    a = np.asarray(a, float).reshape(-1, q.size)
    b = np.asarray(b, float).reshape(a.shape[0])
    g = np.asarray(g, float).reshape(-1, q.size)
    h = np.asarray(h, float).reshape(g.shape[0])
    stat = p * sol.x + q
    if a.shape[0]:
        stat = stat + a.T @ sol.y
    if g.shape[0]:
        stat = stat + g.T @ sol.z
    prim = float(np.abs(a @ sol.x - b).max(initial=0.0))
    comp = 0.0
    if g.shape[0]:
        slack = h - g @ sol.x
        prim = max(prim, float(np.maximum(-slack, 0.0).max(initial=0.0)))
        comp = float(np.abs(sol.z * slack).max(initial=0.0))
    dual = float(np.maximum(-sol.z, 0.0).max(initial=0.0)) if sol.z.size else 0.0
    return stat if isinstance(stat, float) else float(np.abs(stat).max()), prim, dual, comp


def test_unconstrained_parabola_with_vacuous_equality():
    # min x^2 - 4x with only a 0 = 0 equality row has no inequality row
    # for phase 1 to start on, so it is rejected.
    with pytest.raises(ValueError, match="no inequality row"):
        solve([2.0], [-4.0], np.zeros((1, 1)), [0.0], np.zeros((0, 1)), [])
    # All-zero inequality rows with h >= 0 are solved as given and never
    # block a step.
    sol = solve([2.0], [-4.0], np.zeros((1, 1)), [0.0], np.zeros((2, 1)), [0.0, 1.0])
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [2.0], atol=1e-12)


def test_equality_only():
    # Every tightened dispatch has two generator rows per free bus, so the
    # solver keeps no separate equality-only path: such a program is rejected.
    with pytest.raises(ValueError, match="no inequality row"):
        solve([2.0, 4.0], [0.0, 0.0], [[1.0, 1.0]], [3.0], np.zeros((0, 2)), [])


def test_active_inequality_and_multiplier():
    sol = solve([2.0, 4.0], [0.0, 0.0], [[1.0, 1.0]], [3.0], [[1.0, 0.0]], [1.0])
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [1.0, 2.0], atol=1e-6)
    assert sol.objective == pytest.approx(9.0, abs=1e-6)
    # KKT by hand: multiplier on x1 <= 1 equals 6.
    assert sol.z[0] == pytest.approx(6.0, abs=1e-5)
    assert sol.active.tolist() == [True]


def test_crossed_bounds_infeasible_with_certificate():
    sol = solve([2.0], [0.0], np.zeros((0, 1)), [], [[1.0], [-1.0]], [0.0, -1.0])
    assert sol.status == "infeasible"
    cert = sol.certificate
    z = cert["inequality_dual"]
    assert np.all(z >= -1e-12)
    # Farkas: Gᵀz = 0 and hᵀz < 0 prove emptiness.
    assert cert["stationarity"] <= 1e-8
    assert cert["farkas_gap"] < -1e-6
    # No point is returned, so no row is held at equality.
    assert sol.active.dtype == bool and not sol.active.any()


def test_phase1_cap_is_not_reported_infeasible(monkeypatch):
    # Feasible (1 <= x <= 3), but the anchor x = 0 violates a row, so
    # phase 1 runs; one iteration cannot settle feasibility either way.
    program = ([1.0], [0.0], np.zeros((0, 1)), [], [[-1.0], [1.0]], [-1.0, 3.0])
    assert solve(*program).optimal
    monkeypatch.setattr(qp, "DEFAULT_MAX_ITERS", 1)
    assert solve(*program).status == "max_iterations"


def test_phase1_start_margin_scales_with_the_violation():
    # x <= -1e17 and x >= 0: the anchor x = 0 violates the first row by
    # 1e17, where a fixed start margin of 1.0 rounds away.
    sol = solve([1.0], [0.0], np.zeros((0, 1)), [], [[1.0], [-1.0]], [-1e17, 0.0])
    assert sol.status == "infeasible"
    assert sol.certificate["farkas_gap"] < 0.0


def test_infeasible_results_carry_exact_certificates():
    # The instance sequence of criterion 6's battery (tests/test_acceptance.py).
    # Instance 123 is infeasible (t* = 0.80); an interior-point phase 1
    # stalled there at certificate stationarity ~6e-7.
    rng = np.random.default_rng(20240819)
    infeasible = 0
    for k in range(1000):
        sol = solve(*(feasible_instance if k % 2 == 0 else random_instance)(rng))
        if sol.status != "infeasible":
            continue
        infeasible += 1
        cert = sol.certificate
        assert cert["stationarity"] <= DEFAULT_TOL, k
        assert cert["farkas_gap"] < 0.0, k
        assert np.all(cert["inequality_dual"] >= 0.0), k
    assert infeasible > 0


def test_degenerate_vertex_matches_brute_force():
    # Three rows through (1, 1) in 2-D, the first one twice. The anchor
    # x = 0 violates all four, so phase 1 also pivots at the vertex.
    g = [[-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0], [-1.0, 0.0]]
    h = [-1.0, -1.0, -2.0, -1.0]
    for angle in np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False):
        q = 3.0 * np.array([np.cos(angle), np.sin(angle)])
        sol = solve([1.0, 1.0], q, np.zeros((0, 2)), [], g, h)
        ref_obj, _ = brute_force_qp([1.0, 1.0], q, np.zeros((0, 2)), [], g, h)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(ref_obj, abs=1e-9)
        assert max(sol.kkt_residuals) <= DEFAULT_TOL
        assert sol.iterations <= 10


def test_feasible_set_without_interior_is_solved():
    # x1 = 1 held by a pair of rows, as a pinned generator's bounds hold
    # it: phase 1 ends at t* = 0 and phase 2 starts on the pair.
    g = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]
    h = [1.0, -1.0, 5.0]
    sol = solve([1.0, 2.0], [0.0, -1.0], np.zeros((0, 2)), [], g, h)
    ref_obj, _ = brute_force_qp([1.0, 2.0], [0.0, -1.0], np.zeros((0, 2)), [], g, h)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(ref_obj, abs=1e-12)
    np.testing.assert_allclose(sol.x, [1.0, 0.5], atol=1e-12)


def test_descent_ray_no_row_blocks_is_unbounded():
    # min -x subject to x >= 0: the oracle finds no KKT point, and the
    # solver must say why, in a few pivots.
    program = ([0.0], [-1.0], np.zeros((0, 1)), [], [[-1.0]], [0.0])
    assert brute_force_qp(*program) == (None, None)
    sol = solve(*program)
    assert sol.status == "unbounded"
    assert sol.iterations <= 3


def test_zero_row_contradiction_is_certified_by_phase_1():
    sol = solve([2.0], [0.0], np.zeros((0, 1)), [], [[0.0]], [-1.0])
    assert sol.status == "infeasible"
    assert sol.certificate["farkas_gap"] < 0


def test_contradictory_zero_equality_row_is_never_certified():
    # Phase 1 holds the equality rows and minimizes only inequality
    # violations, so 0 = 1 yields no Farkas certificate, and its primal
    # residual keeps phase 2 from certifying a point: the solve ends
    # max_iterations, as any inconsistent equality system does.
    sol = solve([2.0], [-4.0], np.zeros((1, 1)), [1.0], [[1.0]], [5.0])
    assert sol.status == "max_iterations"
    assert sol.certificate is None


def test_inactive_constraints_get_zero_dual_in_full_indexing():
    g = [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
    h = [5.0, 1.0, 7.0]
    sol = solve([2.0, 4.0], [0.0, 0.0], [[1.0, 1.0]], [3.0], g, h)
    assert sol.status == "optimal"
    assert sol.z.shape == (3,)
    assert sol.z[0] == 0.0 and sol.z[2] == 0.0
    assert sol.z[1] == pytest.approx(6.0, abs=1e-5)


def feasible_instance(rng):
    """Random strictly convex QP anchored at a strictly feasible point."""
    n = int(rng.integers(2, 7))
    p = rng.uniform(0.5, 2.0, n)
    q = rng.normal(size=n)
    anchor = rng.normal(size=n)
    a = rng.normal(size=(1, n))
    b = a @ anchor
    c = int(rng.integers(1, 9))
    g = rng.normal(size=(c, n))
    h = g @ anchor + rng.uniform(0.1, 2.0, c)
    return p, q, a, b, g, h


def test_reported_residuals_match_recomputation():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p, q, a, b, g, h = feasible_instance(rng)
        sol = solve(p, q, a, b, g, h)
        assert sol.status == "optimal"
        recomputed = kkt_residuals(p, q, a, b, g, h, sol)
        for got, ref in zip(sol.kkt_residuals, recomputed):
            assert abs(got - ref) <= 1e-10
        assert max(sol.kkt_residuals) <= 1e-8


def test_strong_duality_gap():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p, q, a, b, g, h = feasible_instance(rng)
        sol = solve(p, q, a, b, g, h)
        assert sol.status == "optimal"
        # Dual objective -0.5 vᵀP⁻¹v - bᵀy - hᵀz with v = q + Aᵀy + Gᵀz.
        v = q + a.T @ sol.y + g.T @ sol.z
        dual_obj = float(-0.5 * v @ (v / p) - b @ sol.y - h @ sol.z)
        assert abs(sol.objective - dual_obj) <= 10 * 1e-8 * max(1.0, abs(sol.objective))


def random_instance(rng):
    n = int(rng.integers(2, 7))
    p = rng.uniform(0.5, 2.0, n)
    q = rng.normal(size=n)
    k = int(rng.integers(0, 2))
    a = rng.normal(size=(k, n))
    b = rng.normal(size=k)
    c = int(rng.integers(1, 9))
    g = rng.normal(size=(c, n))
    # Anchor feasibility at a random point most of the time; negative
    # offsets let genuinely infeasible instances occur.
    h = g @ rng.normal(size=n) + rng.uniform(-0.4, 1.6, c)
    return p, q, a, b, g, h


@pytest.mark.parametrize("seed", [0, 1])
def test_matches_brute_force_active_set(seed):
    rng = np.random.default_rng(seed)
    optimal = infeasible = 0
    for _ in range(150):
        p, q, a, b, g, h = random_instance(rng)
        sol = solve(p, q, a, b, g, h)
        ref_obj, _ = brute_force_qp(p, q, a, b, g, h)
        if ref_obj is None:
            assert sol.status == "infeasible"
            infeasible += 1
        else:
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(ref_obj, abs=1e-6)
            optimal += 1
    assert optimal > 0 and infeasible > 0


def test_determinism():
    rng = np.random.default_rng(5)
    p, q, a, b, g, h = random_instance(rng)
    s1 = solve(p, q, a, b, g, h)
    s2 = solve(p, q, a, b, g, h)
    assert np.array_equal(s1.x, s2.x)
    assert s1.objective == s2.objective
    assert s1.iterations == s2.iterations


def test_input_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        solve([-1.0], [0.0], np.zeros((0, 1)), [], np.zeros((0, 1)), [])
    with pytest.raises(ValueError, match="matching lengths"):
        solve([1.0, 2.0], [0.0], np.zeros((0, 1)), [], np.zeros((0, 1)), [])
    # min x^2 subject to x <= -1 is feasible, with optimum x = -1.
    program = ([2.0], [0.0], np.zeros((0, 1)), [], [[1.0]], [-1.0])
    assert solve(*program).optimal


def semidefinite_instance(rng):
    """Like feasible_instance, but some p_i = 0 with those x_i boxed in.

    The tightened dispatch has three such buses (c2 = 0), held by their
    generator bound rows. Kept small for brute_force_qp.
    """
    n = int(rng.integers(2, 5))
    p = rng.uniform(0.5, 2.0, n)
    zero = rng.permutation(n)[: int(rng.integers(1, n))]
    p[zero] = 0.0
    q = rng.normal(size=n)
    anchor = rng.normal(size=n)
    a = rng.normal(size=(1, n))
    b = a @ anchor
    c = int(rng.integers(1, 4))
    box = np.eye(n)[zero]
    g = np.vstack([rng.normal(size=(c, n)), box, -box])
    h = g @ anchor + rng.uniform(0.1, 2.0, g.shape[0])
    return p, q, a, b, g, h


GENERATORS = (feasible_instance, random_instance, semidefinite_instance)


def on_segment(program, on, s):
    """The walk's answer at s from the segment of working set on through
    s, or None where no segment is built or its point fails the test."""
    seg = program.segment(on, s)
    return None if seg is None else program.walk(seg, s, program.h0 + s * program.dh)


@pytest.mark.parametrize("make", GENERATORS)
def test_warm_start_on_own_active_set_is_certified(make):
    rng = np.random.default_rng(11)
    optimal = 0
    for _ in range(60):
        p, q, a, b, g, h = make(rng)
        cold = solve(p, q, a, b, g, h)
        if not cold.optimal:
            continue
        optimal += 1
        program = ParametricProgram(p, q, a, b, g, h, -rng.uniform(0.0, 1.0, h.size))
        seg = program.segment(cold.active, 0.0)
        assert seg.lo <= 0.0 <= seg.hi
        warm = program.walk(seg, 0.0, program.h0)
        assert warm.status == "optimal" and warm.iterations == 0
        assert np.array_equal(warm.active, cold.active)
        assert max(warm.kkt_residuals) <= 1e-8
        assert np.all(warm.z >= 0.0)
        assert kkt_residuals(p, q, a, b, g, h, warm) == pytest.approx(warm.kkt_residuals, abs=1e-10)
        ref_obj, _ = brute_force_qp(p, q, a, b, g, h)
        assert warm.objective == pytest.approx(ref_obj, abs=1e-6)
        # Anywhere on its interval the segment is the optimum there.
        s = min(seg.hi, 1.0) / 2.0
        tighter = program.h0 + s * program.dh
        inside = program.walk(seg, s, tighter)
        if inside is not None:
            assert inside.objective == pytest.approx(brute_force_qp(p, q, a, b, g, tighter)[0], abs=1e-6)
    assert optimal >= 30


@pytest.mark.parametrize("make", GENERATORS)
def test_wrong_guess_keeps_the_cold_status_and_objective(make):
    rng = np.random.default_rng(12)
    statuses = set()
    fell_back = 0
    for _ in range(60):
        p, q, a, b, g, h = make(rng)
        # Row 0 duplicated as the last row: guessing both copies active
        # makes the KKT matrix singular.
        g, h = np.vstack([g, g[:1]]), np.concatenate([h, h[:1]])
        cold = solve(p, q, a, b, g, h)
        statuses.add(cold.status)
        rows = g.shape[0]
        program = ParametricProgram(p, q, a, b, g, h, -rng.uniform(0.0, 1.0, rows))
        subset = rng.random(rows) < 0.5
        singular = np.zeros(rows, dtype=bool)
        singular[[0, rows - 1]] = True
        for guess in (np.zeros(rows, dtype=bool), np.ones(rows, dtype=bool), subset, singular):
            warm = on_segment(program, guess, 0.0)
            # A guess that certifies is the cold optimum: no guess makes
            # an infeasible program (random_instance makes some) optimal.
            if warm is None:
                fell_back += 1
                continue
            assert cold.optimal and warm.status == "optimal" and warm.iterations == 0
            assert warm.objective == pytest.approx(cold.objective, abs=1e-6)
    assert "optimal" in statuses and fell_back > 0
    assert ("infeasible" in statuses) == (make is random_instance)


def test_guess_on_a_dropped_zero_row_is_ignored():
    # Holding a zero row at equality makes the guess's KKT matrix
    # singular, so no segment is built and the caller solves cold.
    program = tuple(
        np.array(v) for v in ([2.0, 4.0], [0.0, 0.0], [[1.0, 1.0]], [3.0], [[0.0, 0.0], [1.0, 0.0]], [5.0, 1.0])
    )
    path = ParametricProgram(*program, np.array([0.0, -1.0]))
    assert path.segment(np.array([True, True]), 0.0) is None
    cold = solve(*program)
    assert cold.status == "optimal" and cold.iterations > 0
    assert cold.z[0] == 0.0 and cold.z[1] == pytest.approx(6.0, abs=1e-12)
    warm = on_segment(path, cold.active, 0.0)
    assert warm.objective == pytest.approx(cold.objective, abs=1e-6)


def test_walk_crosses_a_breakpoint_and_ends_at_the_path_end():
    # min (x1 - 2)^2 + x2^2 s.t. x1 + x2 = 2, x1 <= 3 - s, x2 <= 2 - s:
    # x1 <= 3 - s binds from s = 1, and x1 + x2 <= 5 - 2s leaves no
    # point from s = 1.5, where the dependent pair ends the path.
    program = ParametricProgram(
        np.array([2.0, 2.0]), np.array([-4.0, 0.0]), np.ones((1, 2)), np.array([2.0]),
        np.eye(2), np.array([3.0, 2.0]), np.array([-1.0, -1.0]),
    )
    first, start = program.solve(0.5)
    assert (first.status, start) == ("optimal", "cold")
    np.testing.assert_allclose(first.x, [2.0, 0.0], atol=1e-12)
    walked, start = program.solve(1.25)
    assert (walked.status, start, walked.iterations) == ("optimal", "segment", 1)
    np.testing.assert_allclose(walked.x, [1.75, 0.25], atol=1e-12)
    ended, start = program.solve(1.75)
    assert (ended.status, start) == ("infeasible", "segment")
    assert ended.certificate["farkas_gap"] == pytest.approx(-0.25)
    # Back below the breakpoint, a lookup in the first segment.
    again, start = program.solve(0.25)
    assert (again.status, start, again.iterations) == ("optimal", "segment", 0)
    # Above the path end, the kept certificate decides.
    assert program.solve(3.0)[1] == "certificate"


def parametric_instance(seed):
    """A feasible_instance or semidefinite_instance with sigmas >= 0,
    some of them 0, as the family h - s·sigmas."""
    rng = np.random.default_rng(seed)
    p, q, a, b, g, h = (feasible_instance, semidefinite_instance)[seed % 2](rng)
    sigmas = rng.uniform(0.0, 1.0, h.size) * (rng.random(h.size) < 0.8)
    return p, q, a, b, g, h, -sigmas


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.floats(0.0, 6.0), min_size=1, max_size=12))
def test_walk_agrees_with_a_cold_solve_at_every_s(seed, steps):
    arrays = parametric_instance(seed)
    p, q, a, b, g, h0, dh = arrays
    program = ParametricProgram(*arrays)
    for s in steps:
        sol, start = program.solve(s)
        h = h0 + s * dh
        ref = solve(p, q, a, b, g, h)
        assert sol.status == ref.status, (s, start)
        if sol.optimal:
            assert sol.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-9)
            if start == "segment":
                assert max(kkt_residuals(p, q, a, b, g, h, sol)) <= DEFAULT_TOL
                assert np.all(sol.z >= 0.0)
        elif sol.status == "infeasible":
            cert = sol.certificate
            assert qp._farkas(a, b, g, h, cert["equality_dual"], cert["inequality_dual"]) is not None


def test_programs_that_differ_in_dh_start_from_one_s0_solution(monkeypatch):
    # h0 decides the s = 0 program and dh does not: programs built for
    # other dh start from the first one's s0, make no cold solve, return
    # that very solution at s = 0 and agree with a cold solve elsewhere.
    p, q, a, b, g, h0, dh = parametric_instance(4)
    first = ParametricProgram(p, q, a, b, g, h0, dh)
    s0 = first.s0()
    cold = solve(p, q, a, b, g, h0)
    assert s0[1].optimal and np.array_equal(s0[1].x, cold.x) and np.array_equal(s0[1].active, cold.active)
    assert first.s0()[1] is s0[1] and first.solve(0.0) == (s0[1], "cold")
    # No program can change what the others start from.
    assert not any(v.flags.writeable for v in (s0[1].x, s0[1].y, s0[1].z, s0[1].active))
    cold_solve, calls = qp.solve, []
    monkeypatch.setattr(qp, "solve", lambda *args: calls.append(args) or cold_solve(*args))
    for shift in (2.0 * dh, np.zeros_like(dh)):
        program = ParametricProgram(p, q, a, b, g, h0.copy(), shift)
        assert program.start_from(s0)
        assert program.solve(0.0) == (s0[1], "cold")
        for s in (0.3, 1.0, 2.5):
            sol, start = program.solve(s)
            ref = cold_solve(p, q, a, b, g, h0 + s * shift)
            assert sol.status == ref.status and start != "cold", s
            if sol.optimal:
                assert sol.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-9)
    assert not calls


def test_programs_whose_arrays_differ_do_not_share_an_s0_solution():
    p, q, a, b, g, h0, dh = parametric_instance(6)
    s0 = ParametricProgram(p, q, a, b, g, h0, dh).s0()
    looser = h0 + 1.0
    program = ParametricProgram(p, q, a, b, g, looser, dh)
    assert not program.start_from(s0)
    sol, start = program.solve(0.0)
    assert start == "cold" and np.array_equal(sol.x, solve(p, q, a, b, g, looser).x)
    assert not ParametricProgram(p, q + 1.0, a, b, g, h0, dh).start_from(s0)
    assert not ParametricProgram(p, q, a, b, g, h0, dh).start_from(None)


def test_a_stalled_s0_solve_seeds_nothing(monkeypatch):
    # A program that starts from a stalled s = 0 solve has nothing to
    # walk from, so it solves cold at its own s.
    arrays = parametric_instance(8)
    cold_solve = qp.solve
    monkeypatch.setattr(qp, "solve", lambda *args: replace(cold_solve(*args), status="max_iterations"))
    stalled = ParametricProgram(*arrays).s0()
    assert stalled[1].status == "max_iterations"
    monkeypatch.setattr(qp, "solve", cold_solve)
    program = ParametricProgram(*arrays)
    assert program.start_from(stalled)
    assert program.solve(1.0)[1] == "cold"
    assert program.solve(0.0)[1] == "segment"


def test_an_infeasible_s0_solution_decides_every_s(monkeypatch):
    # x1 + x2 = 2 with x1, x2 <= 0.5 has no point at s = 0, and h only
    # shrinks as s grows: the s = 0 certificate separates at every s, so
    # a program started from it makes no cold solve.
    arrays = (np.array([2.0, 2.0]), np.zeros(2), np.ones((1, 2)), np.array([2.0]), np.eye(2), np.array([0.5, 0.5]))
    s0 = ParametricProgram(*arrays, np.array([-1.0, 0.0])).s0()
    assert s0[1].status == "infeasible"
    monkeypatch.setattr(qp, "solve", lambda *args: pytest.fail("a cold solve"))
    program = ParametricProgram(*arrays, np.array([0.0, -2.0]))
    assert program.start_from(s0)
    for s in (0.0, 0.5, 3.0):
        sol, start = program.solve(s)
        assert (sol.status, start) == ("infeasible", "certificate")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.25, 4.0), st.lists(st.floats(0.0, 6.0), min_size=1, max_size=8))
def test_a_handed_ray_changes_no_status(seed, scale, steps):
    # The ray where one program's path ends is rechecked at the other
    # program's h(s), so a program that takes it answers as one handed
    # the s = 0 solution alone.
    p, q, a, b, g, h0, dh = parametric_instance(seed)
    arrays, s0, ray = ParametricProgram(p, q, a, b, g, h0, dh).s0()
    other = scale * dh
    with_ray, without = (ParametricProgram(p, q, a, b, g, h0, other) for _ in range(2))
    assert with_ray.start_from((arrays, s0, ray)) and without.start_from((arrays, s0, None))
    for s in steps:
        (sol, start), (ref, _) = with_ray.solve(s), without.solve(s)
        assert sol.status == ref.status, (s, start)
        if sol.optimal:
            assert sol.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-9)


def test_a_path_without_an_end_or_a_stopped_walk_hands_off_no_ray(monkeypatch):
    p, q, a, b, g, h0, dh = parametric_instance(1)
    arrays, s0, ray = ParametricProgram(p, q, a, b, g, h0, dh).s0()
    assert s0.optimal and ray is not None
    assert not any(v.flags.writeable for v in ray.values())
    # Where the path ends a program that takes the ray decides by it.
    program = ParametricProgram(p, q, a, b, g, h0, dh)
    assert program.start_from((arrays, s0, ray)) and program.solve(50.0)[1] == "certificate"
    # With dh = 0 nothing tightens, so the path has no end.
    assert ParametricProgram(p, q, a, b, g, h0, np.zeros_like(dh)).s0()[2] is None
    # A walk that stops at its first swap (here every step ties) finds no
    # ray, and the program that takes that hand-off walks on its own.
    with monkeypatch.context() as m:
        m.setattr(qp, "_first", lambda steps: -2)
        stopped = ParametricProgram(p, q, a, b, g, h0, dh).s0()
    assert stopped[1].optimal and stopped[2] is None
    program = ParametricProgram(p, q, a, b, g, h0, dh)
    assert program.start_from(stopped)
    sol, start = program.solve(50.0)
    assert (sol.status, start) == ("infeasible", "segment") and sol.iterations > 0


def test_certificate_is_rechecked_at_the_new_right_hand_side():
    # A certificate found at h proves every tighter h' <= h infeasible,
    # since its z >= 0; at a looser h' its gap may no longer be negative.
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(200):
        p, q, a, b, g, h = random_instance(rng)
        cold = solve(p, q, a, b, g, h)
        if cold.status != "infeasible":
            continue
        checked += 1
        cert = cold.certificate
        for tighter in (h, h - rng.uniform(0.0, 1.0, h.size)):
            again = certified_infeasible(a, b, g, tighter, cert)
            assert again.status == "infeasible" and again.iterations == 0
            assert again.certificate["farkas_gap"] < -DEFAULT_TOL
            # The worst violation it proves: at the h it was found at,
            # phase 1's optimum t*.
            assert max(again.kkt_residuals) == -again.certificate["farkas_gap"]
            assert solve(p, q, a, b, g, tighter).status == "infeasible"
        same = certified_infeasible(a, b, g, h, cert)
        assert max(same.kkt_residuals) == pytest.approx(cert["infeasibility"], abs=1e-9)
        # Loosened until its own gap is positive, it certifies nothing.
        looser = h + 2.0 * abs(cert["farkas_gap"]) / cert["inequality_dual"].sum()
        assert certified_infeasible(a, b, g, looser, cert) is None
    assert checked >= 5
