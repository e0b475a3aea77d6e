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
    frequency of samples violating at least one row; both leave out the
    degenerate rows, whose counts are still listed.
    """

    eps_single: Fraction
    eps_joint: Fraction
    n_samples: int
    counts: np.ndarray
    joint_count: int
    seed: Optional[int]

    def __post_init__(self):
        self.counts.setflags(write=False)

    @property
    def per_constraint(self) -> Tuple[Fraction, ...]:
        """Each row's exact violation frequency count / n_samples."""
        return tuple(Fraction(int(k), self.n_samples) for k in self.counts)


def _sample_arrays(samples: SampleSet, catalog: ConstraintCatalog, accepted: str):
    """(xi, cols, seed) of a SampleSet: xi holds the samples of the
    nodal columns cols. Raises TypeError, naming the accepted forms, on
    anything else, and ValueError unless the samples fit the catalog.
    """
    if not isinstance(samples, SampleSet):
        raise TypeError(f"samples must be {accepted}, got {type(samples).__name__}")
    if samples.n_samples < 1:
        raise ValueError("need at least one sample")
    if samples.n_buses != catalog.pair_dispatch.shape[1]:
        raise ValueError(
            f"samples have {samples.n_buses} columns but the catalog covers {catalog.pair_dispatch.shape[1]} buses"
        )
    return samples.draw, samples.uncertain_columns, samples.seed


def count_store(samples: SampleSet, catalog: ConstraintCatalog) -> _kernels.CountStore:
    """Counting state for evaluating many dispatches on one SampleSet.

    evaluate accepts the store in place of samples, for this catalog
    only, and counts bit for bit as it would from samples. The store
    keeps the sample columns, their bound, and, for each of the
    catalog's pairs that some dispatch brings near a limit, 8 bytes per
    sample (see _kernels). Raises TypeError unless samples is a
    SampleSet.
    """
    xi, cols, seed = _sample_arrays(samples, catalog, "a SampleSet")
    return _kernels.CountStore(catalog.pair_sensitivity, catalog.pair_limits, xi, cols, seed)


def evaluate(p_g, samples, catalog: ConstraintCatalog) -> ViolationReport:
    """Count strict violations g.p + a.xi > rhs for every catalog row.

    samples is a SampleSet, whose drawn columns are counted as they are,
    or a count_store of one for this catalog; anything else raises
    TypeError. Degenerate rows are counted individually but stay out of
    eps_single and the joint count. Each of the catalog's pairs is
    counted from one sum, and only where a bound on the sum over the
    whole sample set leaves the pair's sure-miss band (see _kernels);
    the report lists the counts by row. Raises ValueError on a dispatch
    that is not finite.
    """
    if isinstance(samples, _kernels.CountStore):
        # Checked when it was built; the kernel checks that it belongs
        # to the catalog.
        xi, cols, seed = samples, samples.cols, samples.seed
    else:
        xi, cols, seed = _sample_arrays(samples, catalog, "a SampleSet or a count_store")
    n, m = samples.n_samples, catalog.pair_dispatch.shape[1]
    p = np.asarray(p_g, dtype=np.float64)
    if p.shape != (m,):
        raise ValueError(f"dispatch must have shape ({m},), got {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("dispatch must be finite")

    # A stack of 1×m @ m×1 products: each goes through the dot kernel of
    # np.dot, so every pair's term is the per-row dot product of
    # tests/oracles.py, bit for bit (pair_dispatch @ p would not be).
    base = np.matmul(catalog.pair_dispatch[:, None, :], p[:, None])[:, 0, 0]
    active = ~catalog.pair_degenerate
    pair_counts, joint = _kernels.count_violations(
        base, catalog.pair_sensitivity, catalog.pair_limits, xi, cols, active
    )

    return ViolationReport(
        eps_single=Fraction(int(pair_counts[active].max(initial=0)), n),
        eps_joint=Fraction(int(joint), n),
        n_samples=n,
        counts=pair_counts[catalog.row_map],
        joint_count=int(joint),
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
        "eps_single": float(report.eps_single),
        "eps_single_exact": str(report.eps_single),
        "eps_joint": float(report.eps_joint),
        "eps_joint_exact": str(report.eps_joint),
        "constraints": rows,
    }
    return json.dumps(payload, indent=2)
