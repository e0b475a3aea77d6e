"""PTDF construction against an independent angle-space DC solve."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import angle_solve_flows

from cctuner import CaseError, apply_rts_modifications, load_rts_case, parse_case
from cctuner.grid import Bus, Generator, GridCase, Line
from cctuner.ptdf import compute_ptdf, ptdf_to_csv

TWO_BUS = """
base 100
bus 1 0
bus 2 50
line 1 2 0.1 100
gen 1 0 80 0.01 10 5
"""

THREE_BUS_RING = """
base 100
bus 1 0
bus 2 0
bus 3 30
line 1 2 0.1 100
line 1 3 0.1 100
line 2 3 0.1 100
gen 1 0 50 0.01 10 0
gen 2 0 50 0.01 10 0
"""


def test_two_bus_single_path():
    case = parse_case(TWO_BUS)
    ptdf = compute_ptdf(case, slack=2)
    np.testing.assert_allclose(ptdf, [[1.0, 0.0]])


def test_three_bus_ring_column():
    case = parse_case(THREE_BUS_RING)
    ptdf = compute_ptdf(case, slack=3)
    # Unit injection at bus 1, withdrawal at slack 3: one third takes the
    # long path 1->2->3, two thirds the direct line 1->3.
    np.testing.assert_allclose(ptdf[:, 0], [1 / 3, 2 / 3, 1 / 3], atol=1e-12)
    injection = np.array([1.0, 0.0, -1.0])
    oracle = angle_solve_flows(case, injection, slack=3)
    np.testing.assert_allclose(ptdf @ injection, oracle, atol=1e-12)


def test_rts_matches_angle_solve_on_balanced_injections():
    case = apply_rts_modifications(load_rts_case())
    ptdf = compute_ptdf(case)
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = rng.normal(size=case.n_buses)
        p -= p.mean()
        oracle = angle_solve_flows(case, p, slack=1)
        assert np.max(np.abs(ptdf @ p - oracle)) <= 1e-9


def test_slack_invariance_for_balanced_injections():
    case = load_rts_case()
    a = compute_ptdf(case, slack=1)
    b = compute_ptdf(case, slack=13)
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = rng.normal(size=case.n_buses)
        p -= p.mean()
        assert np.max(np.abs(a @ p - b @ p)) <= 1e-9


def test_slack_column_is_exactly_zero():
    case = load_rts_case()
    for slack in (1, 8, 24):
        ptdf = compute_ptdf(case, slack=slack)
        assert np.all(ptdf[:, slack - 1] == 0.0)
        e_slack = np.zeros(case.n_buses)
        e_slack[slack - 1] = 1.0
        assert np.all(ptdf @ e_slack == 0.0)


def test_superposition():
    case = load_rts_case()
    ptdf = compute_ptdf(case)
    rng = np.random.default_rng(3)
    p = rng.normal(size=case.n_buses)
    q = rng.normal(size=case.n_buses)
    lhs = ptdf @ (p + q)
    rhs = ptdf @ p + ptdf @ q
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_entries_are_read_only():
    ptdf = compute_ptdf(parse_case(TWO_BUS))
    with pytest.raises(ValueError):
        ptdf[0, 0] = 99.0


def test_invalid_slack_rejected():
    case = parse_case(TWO_BUS)
    with pytest.raises(ValueError, match="slack"):
        compute_ptdf(case, slack=5)


def test_disconnected_case_named_in_error():
    # Assembled directly to bypass parse-time validation.
    case = GridCase(
        base_mva=100.0,
        buses=(Bus(1, 0.0), Bus(2, 10.0), Bus(3, 0.0), Bus(4, 0.0)),
        lines=(Line(1, 2, 0.1, 50.0),),
        generators=(Generator(1, 0.0, 20.0, 0.0, 1.0, 0.0),),
    )
    with pytest.raises(CaseError, match=r"unreachable buses \[3, 4\]"):
        compute_ptdf(case)


def test_csv_export_round_trips_12_digits():
    case = load_rts_case()
    ptdf = compute_ptdf(case)
    text = ptdf_to_csv(ptdf)
    back = np.array([[float(v) for v in row.split(",")] for row in text.strip().split("\n")])
    assert back.shape == ptdf.shape
    np.testing.assert_allclose(back, ptdf, rtol=1e-11, atol=1e-15)
