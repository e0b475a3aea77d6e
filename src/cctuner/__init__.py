"""Chance-constraint tuning for DC optimal power flow.

The package solves a tightened deterministic DC-OPF and adjusts the common
tightening multiplier by bisection until the empirical violation probability
of the chance constraints, estimated on Monte Carlo samples of the nodal
power injections, matches a target level.
"""

from __future__ import annotations

from importlib import resources

from .grid import (
    Bus,
    CaseError,
    Generator,
    GridCase,
    Line,
    apply_rts_modifications,
    parse_case,
    parse_case_file,
)

__version__ = "0.1.0"

__all__ = [
    "Bus",
    "CaseError",
    "Generator",
    "GridCase",
    "Line",
    "apply_rts_modifications",
    "load_rts_case",
    "parse_case",
    "parse_case_file",
]


def load_rts_case() -> GridCase:
    """Load the bundled 24-bus reliability test system (unmodified)."""
    text = resources.files("cctuner.data").joinpath("ieee_rts24.case").read_text()
    return parse_case(text)
