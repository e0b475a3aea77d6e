"""Case parsing, validation, and the study modifications."""

from __future__ import annotations

import numpy as np
import pytest

from cctuner import (
    CaseError,
    apply_rts_modifications,
    load_rts_case,
    parse_case,
)

TWO_BUS = """
base 100
bus 1 0
bus 2 50
line 1 2 0.1 100
gen 1 0 80 0.01 10 5
"""


def test_minimal_two_bus_case():
    case = parse_case(TWO_BUS)
    assert case.n_buses == 2
    assert case.n_lines == 1
    assert case.base_mva == 100
    assert case.uncertain_buses == ()
    np.testing.assert_allclose(case.loads_mw(), [0.0, 50.0])
    np.testing.assert_allclose(case.p_max_mw(), [80.0, 0.0])
    np.testing.assert_allclose(case.p_min_mw(), [0.0, 0.0])


def test_per_bus_vectors_are_built_once_and_read_only():
    case = parse_case(TWO_BUS)
    vectors = (case.loads_mw(), case.p_min_mw(), case.p_max_mw(), *case.cost_coefficients())
    again = (case.loads_mw(), case.p_min_mw(), case.p_max_mw(), *case.cost_coefficients())
    assert all(a is b for a, b in zip(vectors, again))
    np.testing.assert_allclose(case.cost_coefficients(), [[0.01, 0.0], [10.0, 0.0], [5.0, 0.0]])
    for vector in vectors:
        with pytest.raises(ValueError, match="read-only"):
            vector[0] = 1.0


def test_comments_and_blank_lines_ignored():
    text = "# header\n\nbase 100  # trailing\nbus 1 0\nbus 2 10\nline 1 2 0.1 50\ngen 1 0 20 0 1 0\n"
    case = parse_case(text)
    assert case.n_buses == 2


def test_bus_renumbering_is_ascending_and_contiguous():
    text = """
    base 100
    bus 7 10
    bus 3 0
    line 3 7 0.1 100
    gen 3 0 40 0 5 0
    """
    case = parse_case(text)
    assert [b.id for b in case.buses] == [1, 2]
    # Original bus 3 (load 0) sorts first, so the generator lands on new bus 1.
    assert case.buses[0].load_mw == 0.0
    assert case.generators[0].bus == 1
    assert case.lines[0].from_bus == 1 and case.lines[0].to_bus == 2


def test_uncertain_flag_parsed():
    text = "base 100\nbus 1 0 uncertain\nbus 2 5\nline 1 2 0.2 10\ngen 2 0 10 0 1 0\n"
    case = parse_case(text)
    assert case.uncertain_buses == (1,)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("bus 1 0\nbus 2 1\nline 1 2 0.1 5\ngen 1 0 5 0 1 0\n", "base"),
        ("base 100\nbus 1 0\nbus 1 4\n", "duplicate bus 1"),
        ("base 100\nbus 1 0\nbus 2 1\nline 1 3 0.1 5\ngen 1 0 5 0 1 0\n", "undefined bus 3"),
        ("base 100\nbus 1 0\nbus 2 1\nline 1 2 0.1 5\ngen 4 0 5 0 1 0\n", "undefined bus 4"),
        ("base 100\nbus 1 0\nbus 2 1\nline 1 2 -0.1 5\ngen 1 0 5 0 1 0\n", "reactance"),
        ("base 100\nbus 1 0\nbus 2 1\nline 1 2 0.1 5\ngen 1 9 5 0 1 0\n", "pmin"),
        ("base 100\nbus 1 0\nbus 2 1\nline 1 2 0.1 x\ngen 1 0 5 0 1 0\n", "malformed number"),
        ("base 100\nbus 1 0\nbus 2 1\nline 1 2 0.1 5\ngen 1 0 5 0 1 -inf\n", "line 5: number '-inf' is not finite"),
        ("base 100\nbus 1 0\nbus 2 1\nline 1 2 0.1 1e999\ngen 1 0 5 0 1 0\n", "line 4: number '1e999' is not finite"),
        ("base 100\nbus 1 0\nbus 2 1\nline 1 2 0.1 5\nfrob 1\n", "unknown record"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(CaseError, match=fragment):
        parse_case(text)


def test_disconnected_grid_rejected_and_named():
    text = """
    base 100
    bus 1 0
    bus 2 10
    bus 3 0
    line 1 2 0.1 50
    gen 1 0 20 0 1 0
    gen 3 0 20 0 1 0
    """
    with pytest.raises(CaseError, match=r"unreachable buses \[3\]"):
        parse_case(text)


def test_insufficient_capacity_rejected():
    text = "base 100\nbus 1 0\nbus 2 90\nline 1 2 0.1 50\ngen 1 0 80 0 1 0\n"
    with pytest.raises(CaseError, match="cannot serve"):
        parse_case(text)


def test_unit_aggregation_preserves_totals():
    text = """
    base 100
    bus 1 0
    bus 2 30
    line 1 2 0.1 100
    gen 1 5 20 0.02 10 1
    gen 1 5 20 0.02 10 1
    gen 1 0 10 0.04 12 2
    """
    case = parse_case(text)
    assert len(case.generators) == 1
    g = case.generators[0]
    assert g.p_min_mw == 10.0
    assert g.p_max_mw == 50.0
    assert g.cost_constant == 4.0
    # Parallel combination: 1/c2 = 1/0.02 + 1/0.02 + 1/0.04 = 125.
    assert g.cost_quadratic == pytest.approx(1.0 / 125.0)
    # 1/c2-weighted linear terms: (50*10 + 50*10 + 25*12) / 125 = 10.4.
    assert g.cost_linear == pytest.approx(10.4)


def test_rts_case_shape():
    case = load_rts_case()
    assert case.n_buses == 24
    assert case.n_lines == 38
    assert float(case.loads_mw().sum()) == 2850.0
    assert float(case.p_max_mw().sum()) == 3405.0
    # Uncertainty flags belong to the modified study variant only.
    assert case.uncertain_buses == ()


def test_rts_modifications():
    case = load_rts_case()
    mod = apply_rts_modifications(case)
    assert mod.uncertain_buses == (8, 15)
    assert mod.lines[0].capacity_mw == pytest.approx(122.5)
    np.testing.assert_allclose(mod.line_capacities_mw(), 0.70 * case.line_capacities_mw())
    np.testing.assert_allclose(mod.p_min_mw(), 0.0)
    np.testing.assert_allclose(mod.p_max_mw(), 2.0 * case.p_max_mw())
    # Bus 16 hosts a single 155 MW unit with pmin 54.3: (54.3, 155) -> (0, 310).
    g16 = [g for g in mod.generators if g.bus == 16][0]
    assert g16.p_min_mw == 0.0
    assert g16.p_max_mw == pytest.approx(310.0)
    # Costs are untouched.
    assert g16.cost_quadratic == 0.008342


def test_rts_modifications_not_idempotent():
    case = load_rts_case()
    twice = apply_rts_modifications(apply_rts_modifications(case))
    assert twice.lines[0].capacity_mw == pytest.approx(0.49 * 175.0)


def test_modifications_require_uncertain_buses_present():
    with pytest.raises(CaseError, match="no bus"):
        apply_rts_modifications(parse_case(TWO_BUS))
