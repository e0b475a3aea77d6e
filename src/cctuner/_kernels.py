"""Monte Carlo violation-counting kernel.

A blocked numpy sweep starts each row at the precomputed dispatch term
and accumulates the uncertainty term over the active sample columns in
ascending index order, so its counts can be compared exactly against a
plain Python loop.
"""

from __future__ import annotations

import numpy as np

# Samples per block: keeps the accumulator a few megabytes.
_BLOCK_SAMPLES = 4096


def active_backend() -> str:
    """Name of the counting implementation, for benchmark records."""
    return "numpy"


def count_violations(base, sens, limits, xi, cols, active):
    """Count strict violations base_c + sum_j sens[c,j]*xi[k,j] > limits_c.

    base: (n_rows,) dispatch term per constraint row.
    sens: (n_rows, m) sensitivity of each row to each sample column.
    limits: (n_rows,) right-hand sides.
    xi: (n_samples, m) samples.
    cols: ascending int64 indices of the sample columns to accumulate.
    active: (n_rows,) bool mask of rows that count toward the joint hit.

    Returns (counts, joint): int64 per-row violation counts over all
    rows, and the number of samples violating at least one active row.
    Each (sample, row, column) takes one multiply and one add, with
    columns visited in ascending order, as in the scalar loop.
    """
    n_rows = base.shape[0]
    counts = np.zeros(n_rows, dtype=np.int64)
    joint = 0
    for start in range(0, xi.shape[0], _BLOCK_SAMPLES):
        block = xi[start : start + _BLOCK_SAMPLES]
        acc = np.broadcast_to(base, (block.shape[0], n_rows)).copy()
        for j in cols:
            acc += block[:, j : j + 1] * sens[:, j]
        hits = acc > limits
        counts += hits.sum(axis=0, dtype=np.int64)
        joint += int(np.logical_and(hits, active).any(axis=1).sum())
    return counts, joint
