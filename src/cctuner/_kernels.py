"""Monte Carlo violation-counting kernel.

Rows are counted in mirrored pairs. Every lower catalog row is its upper
row negated (ConstraintCatalog.pairs checks this when it pairs them),
and round-to-nearest is symmetric under negation: fl(-x * y) =
-fl(x * y) and fl(-x + -y) = -fl(x + y). A lower row's sum is therefore
exactly the negation of its upper row's, up to the sign of a zero, and
no comparison sees the sign of a zero. So one accumulator per pair
decides both rows: acc > upper_c for the upper row and acc < -lower_c
for the lower row. test_catalog_pairs_mirror_each_upper_row in
tests/test_reformulation.py pins the mirror bit for bit.

Each accumulator starts at the pair's dispatch term and adds the
uncertainty term over the active sample columns in ascending index
order, one multiply and one add each (no fused multiply-add), so the
counts can be compared exactly against a plain Python loop over all
rows.
"""

from __future__ import annotations

import numpy as np

# Samples per block: keeps the accumulator a few megabytes, and a
# block's per-row counts within uint16.
_BLOCK_SAMPLES = 4096


def active_backend() -> str:
    """Name of the counting implementation, for benchmark records."""
    return "numpy"


def count_violations(base, sens, limits, xi, cols, active):
    """Count strict violations of each mirrored pair of rows.

    For pair c the upper row violates when
    base_c + sum_j sens[c,j]*xi[k,j] > limits[c, 0], and the lower row
    when the negated sum exceeds limits[c, 1].

    base: (n_pairs,) dispatch term of each upper row.
    sens: (n_pairs, m) sensitivity of each upper row to each sample column.
    limits: (n_pairs, 2) right-hand sides of the upper and lower rows.
    xi: (n_samples, m) samples.
    cols: ascending int64 indices of the sample columns to accumulate.
    active: (n_pairs, 2) bool mask of rows that count toward the joint hit.

    Returns (counts, joint): int64 violation counts of shape (n_pairs, 2),
    and the number of samples violating at least one active row. Each
    block is laid out as (pairs x samples): contiguous copies of the
    active sample columns are scaled into one product buffer and added
    to the accumulator, column by column in ascending order. Only rows
    whose largest (upper) or smallest (lower) sum in the block crosses
    the limit are compared sample by sample.
    """
    n_pairs = base.shape[0]
    upper = limits[:, 0]
    lower = -limits[:, 1]
    sens_cols = np.ascontiguousarray(sens[:, cols].T)[:, :, None]
    active_upper, active_lower = active[:, 0], active[:, 1]
    counts = np.zeros((n_pairs, 2), dtype=np.int64)
    joint = 0
    acc_buf = np.empty((n_pairs, _BLOCK_SAMPLES))
    prod_buf = np.empty((n_pairs, _BLOCK_SAMPLES))
    for start in range(0, xi.shape[0], _BLOCK_SAMPLES):
        block = xi[start : start + _BLOCK_SAMPLES]
        width = block.shape[0]
        columns = np.ascontiguousarray(block[:, cols].T)
        acc, prod = acc_buf[:, :width], prod_buf[:, :width]
        acc[...] = base[:, None]
        for s_j, x_j in zip(sens_cols, columns):
            np.multiply(s_j, x_j, out=prod)
            acc += prod
        # Compare only the rows whose extreme sum crosses the limit; most
        # pairs never hit. fmax/fmin skip NaN, which compares false anyway.
        up = np.flatnonzero(np.fmax.reduce(acc, axis=1) > upper)
        lo = np.flatnonzero(np.fmin.reduce(acc, axis=1) < lower)
        hits_upper = acc[up] > upper[up, None]
        hits_lower = acc[lo] < lower[lo, None]
        # A block's counts fit in uint16, whose sum numpy runs fastest.
        counts[up, 0] += hits_upper.sum(axis=1, dtype=np.uint16)
        counts[lo, 1] += hits_lower.sum(axis=1, dtype=np.uint16)
        hit = hits_upper[active_upper[up]].any(axis=0) | hits_lower[active_lower[lo]].any(axis=0)
        joint += int(np.count_nonzero(hit))
    return counts, joint
