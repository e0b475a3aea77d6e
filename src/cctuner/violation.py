"""Empirical violation probabilities of a dispatch over a sample set."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from . import _kernels
from .reformulation import ConstraintCatalog
from .uncertainty import SampleSet


@dataclass(frozen=True, eq=False)
class ViolationReport:
    """Exact empirical violation frequencies for one dispatch.

    counts holds one violation count per catalog row, in catalog order.
    eps_single is the largest per-row frequency and eps_joint the
    frequency of samples violating at least one row; both are restricted
    to non-degenerate rows unless the report was built with
    include_degenerate.
    """

    eps_single: Fraction
    eps_joint: Fraction
    n_samples: int
    counts: np.ndarray
    joint_count: int
    include_degenerate: bool
    seed: Optional[int]

    def __post_init__(self):
        self.counts.setflags(write=False)

    @property
    def per_constraint(self) -> Tuple[Fraction, ...]:
        """Each row's exact violation frequency count / n_samples."""
        return tuple(Fraction(int(k), self.n_samples) for k in self.counts)


def _sample_arrays(samples, catalog: ConstraintCatalog):
    """(xi, cols, seed) of a SampleSet, a raw (n, n_buses) array or a
    count store.

    A SampleSet names its uncertain columns; a raw array is scanned for
    nonzero columns; a store was checked when it was built, and the
    kernel checks that it belongs to the catalog. Raises ValueError
    unless the samples fit the catalog.
    """
    if isinstance(samples, _kernels.CountStore):
        return samples, samples.cols, samples.seed
    if isinstance(samples, SampleSet):
        xi, cols, seed = samples.samples, samples.uncertain_columns, samples.seed
    else:
        xi, cols, seed = np.asarray(samples, dtype=np.float64, order="C"), None, None
    if xi.ndim != 2:
        raise ValueError("samples must be a 2-D array")
    n, m = xi.shape
    if n < 1:
        raise ValueError("need at least one sample")
    if m != catalog.dispatch_matrix.shape[1]:
        raise ValueError(
            f"samples have {m} columns but the catalog covers {catalog.dispatch_matrix.shape[1]} buses"
        )
    if cols is None:
        cols = np.flatnonzero(np.any(xi != 0.0, axis=0))
    return xi, cols, seed


def count_store(samples, catalog: ConstraintCatalog) -> _kernels.CountStore:
    """Counting state for evaluating many dispatches on one sample set.

    evaluate accepts the store in place of samples, for this catalog
    only, and counts bit for bit as it would from samples. The store
    keeps a copy of the uncertain columns and, for each mirrored pair
    of rows that some dispatch brings near a limit, 8 bytes per sample
    (see _kernels).
    """
    xi, cols, seed = _sample_arrays(samples, catalog)
    return _kernels.CountStore(catalog.pair_sensitivity, xi, cols, seed)


def evaluate(
    p_g,
    samples,
    catalog: ConstraintCatalog,
    include_degenerate: bool = False,
) -> ViolationReport:
    """Count strict violations g.p + a.xi > rhs for every catalog row.

    samples may be a SampleSet (per-unit, full bus width), which names
    its uncertain columns, a plain (n, n_buses) array in per unit,
    which is scanned for nonzero columns on every call, or a
    count_store of either for this catalog. Degenerate rows are always
    counted individually but only enter eps_single and the joint count
    when include_degenerate is set. Each mirrored pair of rows is
    counted from one sum, and only where a bound on the sum over a
    block of samples reaches a limit (see _kernels). Raises ValueError
    on a dispatch that is not finite.
    """
    xi, cols, seed = _sample_arrays(samples, catalog)
    n, m = xi.shape
    p = np.asarray(p_g, dtype=np.float64)
    if p.shape != (m,):
        raise ValueError(f"dispatch must have shape ({m},), got {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("dispatch must be finite")

    pairs = catalog.pairs
    upper = pairs[:, 0]
    # A unit row's term is exactly p[bus]; any other row keeps the per-row
    # dot product of tests/oracles.py, bit for bit.
    bus = catalog.unit_bus
    base = np.empty(len(pairs))
    unit = bus >= 0
    base[unit] = p[bus[unit]]
    for c in np.flatnonzero(~unit):
        base[c] = float(np.dot(catalog.dispatch_matrix[upper[c]], p))
    if include_degenerate:
        active = np.ones(len(catalog), dtype=bool)
    else:
        active = ~catalog.degenerate
    pair_counts, joint = _kernels.count_violations(
        base, catalog.pair_sensitivity, catalog.limits[pairs], xi, cols, active[pairs]
    )
    counts = np.empty(len(catalog), dtype=np.int64)
    counts[pairs] = pair_counts

    return ViolationReport(
        eps_single=Fraction(int(counts[active].max(initial=0)), n),
        eps_joint=Fraction(int(joint), n),
        n_samples=n,
        counts=counts,
        joint_count=int(joint),
        include_degenerate=bool(include_degenerate),
        seed=seed,
    )


def report_to_json(report: ViolationReport, catalog: ConstraintCatalog) -> str:
    """Serialize a report with its catalog row descriptors.

    Frequencies appear both as floats and as exact fraction strings.
    """
    rows = []
    for row, frac, count in zip(catalog.rows, report.per_constraint, report.counts):
        rows.append(
            {
                "kind": row.kind,
                "subject": row.subject,
                "degenerate": bool(row.degenerate),
                "count": int(count),
                "eps": float(frac),
                "eps_exact": str(frac),
            }
        )
    payload = {
        "n_samples": report.n_samples,
        "seed": report.seed,
        "include_degenerate": report.include_degenerate,
        "eps_single": float(report.eps_single),
        "eps_single_exact": str(report.eps_single),
        "eps_joint": float(report.eps_joint),
        "eps_joint_exact": str(report.eps_joint),
        "constraints": rows,
    }
    return json.dumps(payload, indent=2)
