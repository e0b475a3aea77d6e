"""Power-system data model and case-file handling.

A case file is a line-oriented UTF-8 text document (LF or CRLF). Blank
lines and ``#`` comments are ignored. Records:

    base <mva>
    bus <id> <load_mw> [uncertain]
    line <from> <to> <x_pu> <cap_mw>
    gen <bus> <pmin_mw> <pmax_mw> <c2> <c1> <c0>

All powers are MW; reactances are per unit on the system base. Bus ids
may be arbitrary positive integers; they are renumbered to a contiguous
1..m range (ascending original id) during parsing. Multiple ``gen``
records on one bus are aggregated into a single equivalent generator so
that downstream code can treat generation as a length-m vector.

Every number is read by parse_number, the reader the config keys use
too: an integer, a decimal (``0.1``, ``1e-4``) or ``p/q``, read exactly
and then rounded once to a float. ``nan``, ``inf`` and a magnitude
beyond the float range are errors. An integer field (a bus id, a line
end, a gen bus) takes any number whose value is whole, so ``8``, ``8.0``
and ``16/2`` name the same bus. A case whose per-unit values (MW / base,
base², 2·c2·base², c1·base, 1/x) are not finite floats is rejected.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "Bus",
    "Line",
    "Generator",
    "GridCase",
    "CaseError",
    "parse_case",
    "parse_case_file",
    "parse_integer",
    "parse_number",
    "apply_rts_modifications",
]

_FLOAT_MAX = int(sys.float_info.max)


class CaseError(ValueError):
    """Malformed or structurally invalid case data.

    ``line_no`` is the 1-based line in the source text when the problem
    is attributable to a specific record, else None.
    """

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


@dataclass(frozen=True)
class Bus:
    id: int
    load_mw: float
    has_uncertainty: bool = False


@dataclass(frozen=True)
class Line:
    from_bus: int
    to_bus: int
    reactance_pu: float
    capacity_mw: float


@dataclass(frozen=True)
class Generator:
    """Aggregated generating capability at one bus (MW, $/MW^2, $/MW, $)."""

    bus: int
    p_min_mw: float
    p_max_mw: float
    cost_quadratic: float
    cost_linear: float
    cost_constant: float


@dataclass(frozen=True)
class GridCase:
    """Validated, immutable snapshot of one power system.

    Buses are numbered 1..m. ``generators`` holds at most one record per
    bus; buses absent from it implicitly carry a zero-capacity,
    zero-cost generator so that every nodal quantity is a length-m
    vector. The per-bus vectors are built on first use and shared
    read-only.
    """

    base_mva: float
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    generators: tuple[Generator, ...]

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    @property
    def n_lines(self) -> int:
        return len(self.lines)

    @property
    def uncertain_buses(self) -> tuple[int, ...]:
        return tuple(b.id for b in self.buses if b.has_uncertainty)

    @cached_property
    def _bus_vectors(self) -> dict[str, np.ndarray]:
        """Read-only per-bus vectors, built once: the load and each
        generator attribute, zero where a bus has no generator."""
        by_bus = {g.bus: g for g in self.generators}
        vectors = {"load_mw": np.array([b.load_mw for b in self.buses], dtype=float)}
        for attr in ("p_min_mw", "p_max_mw", "cost_quadratic", "cost_linear", "cost_constant"):
            vectors[attr] = np.array(
                [getattr(by_bus[b.id], attr) if b.id in by_bus else 0.0 for b in self.buses],
                dtype=float,
            )
        for vector in vectors.values():
            vector.setflags(write=False)
        return vectors

    def loads_mw(self) -> np.ndarray:
        return self._bus_vectors["load_mw"]

    def p_min_mw(self) -> np.ndarray:
        return self._bus_vectors["p_min_mw"]

    def p_max_mw(self) -> np.ndarray:
        return self._bus_vectors["p_max_mw"]

    def line_capacities_mw(self) -> np.ndarray:
        return np.array([ln.capacity_mw for ln in self.lines], dtype=float)

    def cost_coefficients(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-bus (c2, c1, c0) arrays in MW terms; zeros where no generator."""
        vectors = self._bus_vectors
        return vectors["cost_quadratic"], vectors["cost_linear"], vectors["cost_constant"]


def _aggregate_units(bus: int, units: list[tuple[float, ...]]) -> Generator:
    """Collapse several units at one bus into an equivalent generator.

    Capacities and constant costs add. When every unit has a strictly
    positive quadratic coefficient the quadratic terms combine by the
    parallel rule 1/c2 = sum(1/c2_i) with the linear terms averaged by
    the matching 1/c2 weights (exact for interior equal-marginal-cost
    dispatch). If any unit is purely linear the aggregate degrades to a
    linear cost with capacity-weighted c1.
    """
    pmin = sum(u[0] for u in units)
    pmax = sum(u[1] for u in units)
    c0 = sum(u[4] for u in units)
    if len(units) == 1:
        return Generator(bus, units[0][0], units[0][1], units[0][2], units[0][3], c0)
    quads = [u[2] for u in units]
    if all(q > 0.0 for q in quads):
        inv = [1.0 / q for q in quads]
        c2 = 1.0 / sum(inv)
        c1 = sum(w * u[3] for w, u in zip(inv, units)) / sum(inv)
    else:
        c2 = 0.0
        if pmax > 0.0:
            c1 = sum(u[1] * u[3] for u in units) / pmax
        else:
            c1 = sum(u[3] for u in units) / len(units)
    return Generator(bus, pmin, pmax, c2, c1, c0)


def _check_connected(n: int, edges: list[tuple[int, int]]) -> None:
    """Raise CaseError naming the stranded buses if the graph is not connected."""
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    while stack:
        v = stack.pop()
        for w in adjacency[v]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    if not all(seen):
        stranded = [i + 1 for i, s in enumerate(seen) if not s]
        raise CaseError(f"grid is disconnected; unreachable buses {stranded}")


def parse_case(text: str) -> GridCase:
    """Parse and validate a case file, returning a normalized GridCase.

    Raises CaseError (with the offending line number where possible) on
    syntax errors, undefined bus references, nonpositive reactances,
    disconnected topology, or insufficient total capacity.
    """
    base_mva = None
    raw_buses: dict[int, tuple[float, bool, int]] = {}
    raw_lines: list[tuple[int, int, float, float, int]] = []
    raw_gens: list[tuple[int, float, float, float, float, float, int]] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        fields = stripped.split()
        kind, args = fields[0], fields[1:]
        try:
            if kind == "base":
                _expect(len(args) == 1, "base takes one value", line_no)
                base_mva = float(parse_number(args[0]))
                _expect(base_mva > 0, "base MVA must be positive", line_no)
            elif kind == "bus":
                _expect(len(args) in (2, 3), "bus takes id, load [, uncertain]", line_no)
                bus_id = parse_integer(args[0])
                load = float(parse_number(args[1]))
                uncertain = False
                if len(args) == 3:
                    _expect(args[2] == "uncertain", f"unknown bus flag {args[2]!r}", line_no)
                    uncertain = True
                _expect(bus_id > 0, "bus ids must be positive", line_no)
                _expect(load >= 0, "load must be nonnegative", line_no)
                _expect(bus_id not in raw_buses, f"duplicate bus {bus_id}", line_no)
                raw_buses[bus_id] = (load, uncertain, line_no)
            elif kind == "line":
                _expect(len(args) == 4, "line takes from, to, x, capacity", line_no)
                ends = (parse_integer(args[0]), parse_integer(args[1]))
                raw_lines.append((*ends, *(float(parse_number(arg)) for arg in args[2:]), line_no))
            elif kind == "gen":
                _expect(len(args) == 6, "gen takes bus, pmin, pmax, c2, c1, c0", line_no)
                raw_gens.append((parse_integer(args[0]), *(float(parse_number(arg)) for arg in args[1:]), line_no))
            else:
                raise CaseError(f"unknown record type {kind!r}", line_no)
        except CaseError:
            raise
        except ValueError as exc:
            raise CaseError(f"malformed number in {kind!r} record: {exc}", line_no) from None

    if base_mva is None:
        raise CaseError("missing 'base' record")
    if not raw_buses:
        raise CaseError("case defines no buses")

    # Renumber to contiguous 1..m in ascending original-id order.
    ordered_ids = sorted(raw_buses)
    id_map = {orig: new for new, orig in enumerate(ordered_ids, start=1)}

    buses = tuple(
        Bus(id=id_map[orig], load_mw=raw_buses[orig][0], has_uncertainty=raw_buses[orig][1])
        for orig in ordered_ids
    )

    lines = []
    for f, t, x, cap, line_no in raw_lines:
        for end in (f, t):
            if end not in id_map:
                raise CaseError(f"line references undefined bus {end}", line_no)
        if f == t:
            raise CaseError(f"line connects bus {f} to itself", line_no)
        if x <= 0:
            raise CaseError(f"line reactance must be positive, got {x}", line_no)
        if cap <= 0:
            raise CaseError(f"line capacity must be positive, got {cap}", line_no)
        lines.append(Line(id_map[f], id_map[t], x, cap))

    units_by_bus: dict[int, list[tuple[float, ...]]] = {}
    for bus, pmin, pmax, c2, c1, c0, line_no in raw_gens:
        if bus not in id_map:
            raise CaseError(f"gen references undefined bus {bus}", line_no)
        if pmin > pmax:
            raise CaseError(f"gen pmin {pmin} exceeds pmax {pmax}", line_no)
        if c2 < 0:
            raise CaseError(f"gen quadratic cost must be nonnegative, got {c2}", line_no)
        units_by_bus.setdefault(id_map[bus], []).append((pmin, pmax, c2, c1, c0))

    generators = tuple(
        _aggregate_units(bus, units) for bus, units in sorted(units_by_bus.items())
    )

    case = GridCase(base_mva=base_mva, buses=buses, lines=tuple(lines), generators=generators)
    _validate(case)
    return case


# Case files repeat most numbers (107 distinct among the RTS case's 399) and
# a Fraction is immutable, so keeping recent reads about halves that parse.
@lru_cache(maxsize=1024)
def parse_number(text: str) -> Fraction:
    """Read an input number exactly: an integer, a decimal or p/q. Anything
    else (nan and inf too), a zero denominator or a magnitude beyond the
    float range raises ValueError."""
    _, e, exponent = text.lower().partition("e")
    try:
        # Fraction expands 10**exponent in full, which for 1e-999999999
        # takes gigabytes; past ±100000 the magnitude is out of range.
        value = None if e and abs(int(exponent)) > 100_000 else Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{text!r} is not a number") from None
    if value is None or abs(value.numerator) > _FLOAT_MAX * value.denominator:
        raise ValueError(f"{text!r} is beyond the float range")
    return value


def parse_integer(text: str) -> int:
    """Read a whole number: any number parse_number reads whose value is whole."""
    value = parse_number(text)
    if value.denominator != 1:
        raise ValueError(f"{text!r} is not an integer")
    return int(value)


def _expect(cond: bool, message: str, line_no: int) -> None:
    if not cond:
        raise CaseError(message, line_no)


def _validate(case: GridCase) -> None:
    if case.n_lines == 0 and case.n_buses > 1:
        raise CaseError("grid is disconnected; no lines")
    edges = [(ln.from_bus - 1, ln.to_bus - 1) for ln in case.lines]
    _check_connected(case.n_buses, edges)
    base = case.base_mva
    c2, c1, _ = case.cost_coefficients()
    mw = np.concatenate([case.loads_mw(), case.p_min_mw(), case.p_max_mw(), case.line_capacities_mw()])
    # The solver works in per unit. A value that is not a finite float
    # there (a huge or tiny base, a huge cost, a reactance whose
    # susceptance overflows) is refused here, before it turns into a
    # warning or a failed factorization downstream.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        total_cap = float(np.sum(case.p_max_mw()))
        total_load = float(np.sum(case.loads_mw()))
        base_sq = np.float64(base) ** 2
        per_unit = {
            "base**2 or its inverse": [base_sq, 1.0 / base_sq],
            "a power / base": np.append(mw, [total_cap, total_load]) / base,
            "2*c2*base**2": 2.0 * c2 * base * base,
            "c1*base": c1 * base,
            "a susceptance 1/x": 1.0 / np.array([ln.reactance_pu for ln in case.lines]),
        }
    for name, values in per_unit.items():
        if not np.all(np.isfinite(values)):
            raise CaseError(f"{name} is not a finite float in per unit")
    if total_cap < total_load:
        raise CaseError(
            f"total capacity {total_cap} MW cannot serve total load {total_load} MW"
        )


def parse_case_file(path) -> GridCase:
    with open(path, encoding="utf-8") as fh:
        return parse_case(fh.read())


RTS_LINE_CAPACITY_FACTOR = 0.70
RTS_PMAX_FACTOR = 2.0
RTS_UNCERTAIN_BUSES = (8, 15)


def apply_rts_modifications(case: GridCase) -> GridCase:
    """Return the study variant of a case: line capacities scaled to 70%,
    generator minimums zeroed, maximums doubled, and uncertainty sources
    placed on buses 8 and 15.

    Not idempotent: applying twice scales capacities to 49%.
    """
    bus_ids = {b.id for b in case.buses}
    missing = [b for b in RTS_UNCERTAIN_BUSES if b not in bus_ids]
    if missing:
        raise CaseError(f"case has no bus {missing} to place uncertainty on")
    buses = tuple(
        replace(b, has_uncertainty=b.has_uncertainty or b.id in RTS_UNCERTAIN_BUSES)
        for b in case.buses
    )
    lines = tuple(
        replace(ln, capacity_mw=ln.capacity_mw * RTS_LINE_CAPACITY_FACTOR)
        for ln in case.lines
    )
    generators = tuple(
        replace(g, p_min_mw=0.0, p_max_mw=g.p_max_mw * RTS_PMAX_FACTOR)
        for g in case.generators
    )
    return GridCase(case.base_mva, buses, lines, generators)
