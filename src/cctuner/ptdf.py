"""DC power-flow linear operators.

Builds the power transfer distribution factor (PTDF) matrix M mapping
balanced nodal injections to line flows under the lossless DC model.
Dense linear algebra throughout; at a couple dozen buses sparsity
machinery buys nothing.
"""

from __future__ import annotations

import numpy as np

from .grid import GridCase, _check_connected

__all__ = ["compute_ptdf", "ptdf_to_csv"]


def _susceptance_maps(case: GridCase) -> tuple[np.ndarray, np.ndarray]:
    """Return (B_f, B_bus): line-to-angle flow map and nodal susceptance matrix."""
    m, l = case.n_buses, case.n_lines
    incidence = np.zeros((l, m))
    b = np.empty(l)
    for k, ln in enumerate(case.lines):
        incidence[k, ln.from_bus - 1] = 1.0
        incidence[k, ln.to_bus - 1] = -1.0
        b[k] = 1.0 / ln.reactance_pu
    b_f = b[:, None] * incidence
    b_bus = incidence.T @ b_f
    return b_f, b_bus


def compute_ptdf(case: GridCase, slack: int = 1) -> np.ndarray:
    """The read-only (n_lines, n_buses) PTDF matrix M with the given slack
    bus (default bus 1).

    M = B_f · (reduced B_bus)^-1 with the slack row and column removed,
    and the slack column of M identically zero. Row k corresponds to
    line k in GridCase order, oriented from_bus -> to_bus. For any
    injection vector p with sum(p) = 0, M @ p are the DC line flows.
    Raises CaseError naming the unreachable buses if the grid is
    disconnected (the reduced matrix would be singular), ValueError for
    an invalid slack id.
    """
    if not 1 <= slack <= case.n_buses:
        raise ValueError(f"slack bus {slack} is not a valid bus id (1..{case.n_buses})")
    _check_connected(case.n_buses, [(ln.from_bus - 1, ln.to_bus - 1) for ln in case.lines])

    b_f, b_bus = _susceptance_maps(case)
    keep = [i for i in range(case.n_buses) if i != slack - 1]
    reduced = b_bus[np.ix_(keep, keep)]
    entries = np.zeros((case.n_lines, case.n_buses))
    # B_bus is symmetric, so solving on the right transposes cleanly.
    entries[:, keep] = np.linalg.solve(reduced, b_f[:, keep].T).T
    entries.setflags(write=False)
    return entries


def ptdf_to_csv(ptdf: np.ndarray) -> str:
    """Render M as headerless CSV, one row per line, 12 significant digits."""
    rows = [",".join(f"{v:.12g}" for v in row) for row in ptdf]
    return "\n".join(rows) + "\n"
