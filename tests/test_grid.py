"""Case parsing, validation, and the study modifications."""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np
import pytest

from cctuner import (
    CaseError,
    apply_rts_modifications,
    load_rts_case,
    parse_case,
)
from cctuner.cli import main
from cctuner.grid import parse_integer, parse_number

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
        ("base 100\nbus 1 0\nbus 2 1\nline 1 2 0.1 5\ngen 1 0 5 0 1 -inf\n", "line 5: malformed number in 'gen' record: '-inf' is not a number"),
        ("base 100\nbus 1 0\nbus 2 1\nline 1 2 0.1 1e999\ngen 1 0 5 0 1 0\n", "line 4: malformed number in 'line' record: '1e999' is beyond the float range"),
        ("base 100\nbus 1 0\nbus 2 1\nline 1 2 0.1 5\nfrob 1\n", "unknown record"),
        ("base 100\n", "case defines no buses"),
        ("base 100\nbus 1 0\nbus 2 1\nline 1 2 0.1 5\nline 2 2 0.1 5\ngen 1 0 5 0 1 0\n", "line 5: line connects bus 2 to itself"),
        ("base 100\nbus 1 0\nbus 2 1\nline 1 2 0.1 5\ngen 1 0 5 -0.01 1 0\n", "line 5: gen quadratic cost must be nonnegative"),
        ("base 100\nbus 1 0\nbus 2 1\ngen 1 0 5 0 1 0\n", "grid is disconnected; no lines"),
    ],
)
def test_parse_errors(text, fragment, tmp_path, capsys):
    with pytest.raises(CaseError, match=fragment):
        parse_case(text)
    # The command line names the same cause and exits 1.
    path = tmp_path / "bad.case"
    path.write_text(text)
    assert main(["parse", str(path)]) == 1
    err = capsys.readouterr().err
    assert re.search(fragment, err) and "Traceback" not in err


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


def test_parse_number_reads_exactly_and_rejects_the_rest():
    assert parse_number("0.1") == Fraction(1, 10)
    assert parse_number(" 1/3 ") == Fraction(1, 3)
    assert parse_number("1e-400") == Fraction(1, 10**400)
    for text in ("nan", "inf", "-inf", "0x10", "1/0", "", "1.5/2", "abc"):
        with pytest.raises(ValueError, match="is not a number"):
            parse_number(text)
    # 1e-999999999 is refused before Fraction would expand 10**999999999.
    for text in ("1e309", "-2e308", "1e999999999", "1e-999999999"):
        with pytest.raises(ValueError, match="beyond the float range"):
            parse_number(text)
    assert parse_integer("16/2") == parse_integer("8.0") == 8
    with pytest.raises(ValueError, match="not an integer"):
        parse_integer("8.5")


def test_case_numbers_take_the_config_syntax():
    # Integer fields take any whole value; a real field may be p/q.
    text = TWO_BUS.replace("bus 2 50", "bus 2.0 100/2").replace("line 1 2 0.1", "line 1 4/2 1/10")
    assert parse_case(text) == parse_case(TWO_BUS)


# Each value is finite as written, but not in per unit, where the solver
# works (base 100 unless the edit changes it).
@pytest.mark.parametrize(
    "edits, name",
    [
        ({"base 100": "base 1e308"}, "base**2 or its inverse"),
        ({"base 100": "base 1e-170"}, "base**2 or its inverse"),
        ({"base 100": "base 1e-10", "0.1 100": "0.1 1e300"}, "a power / base"),
        ({"80 0.01": "80 1e305"}, "2*c2*base**2"),
        ({"0.01 10": "0.01 1e307"}, "c1*base"),
        ({"0.1 100": "1e-320 100"}, "a susceptance 1/x"),
    ],
)
def test_per_unit_overflow_rejected(edits, name):
    text = TWO_BUS
    for old, new in edits.items():
        text = text.replace(old, new)
    with pytest.raises(CaseError, match=re.escape(f"{name} is not a finite float in per unit")):
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
