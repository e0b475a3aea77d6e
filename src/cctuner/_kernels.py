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
rows. _accumulate is the one place that order is written down.

Sample envelopes
----------------
For a sample of a block, a pair's sum is

    acc = fl(...fl(fl(b + p_1) + p_2) ... + p_m),   p_j = fl(a_j * x_j),

with m = len(cols). Only the start b = g.p depends on the dispatch. The
same sum started at 0 instead of b, key = fl(...fl(p_1 + p_2) ... + p_m),
depends only on the samples and the catalog. sample_envelope computes it
once per sample set, through _accumulate, and keeps per (block, pair)
the NaN-skipping maximum kmax and minimum kmin of key over the block,
and tails = sum_j max_k |p_j|, the largest product magnitudes over the
block's samples k.

Why a dispatch can skip a (block, pair) cell. Let u = 2^-53 and
gamma_m = m*u / (1 - m*u). Recursive summation errs by at most gamma
times the sum of the magnitudes of the terms (Higham 2002, Accuracy and
Stability of Numerical Algorithms, section 4.2): |acc - (b + sum p_j)|
<= gamma_m (|b| + sum |p_j|) over m additions, and |key - sum p_j| <=
gamma_(m-1) sum |p_j|, because its first addition is exact. Both sums
add the same rounded products, so for every sample of the block

    |acc - (b + key)| <= 2 gamma_m (|b| + tails).

The test computes hi = fl(fl(b + kmax) + delta) and lo = fl(fl(b + kmin)
- delta). If acc > upper for some sample, then b + kmax + 2 gamma_m
(|b| + tails) >= acc, and because rounding is monotone and acc is a
float, hi >= acc > upper as soon as delta covers that bound plus the
rounding of fl(b + kmax), at most u (|b| + (1 + gamma_m) tails). tails,
|b| + tails and delta are rounded too: the computed tails is at most
gamma_m below the exact sum of its m nonnegative terms, and each other
operation costs a factor (1 - u). With

    delta = 4 (m + 2) u (|b| + tails)

the factor 4 (m + 2) u is more than twice the (2m + 1) u the bound
needs, for any m far below 1/u. Where the product underflows, delta
loses at most 2^-1075, half the spacing of the subnormals. That cannot
matter: the shortfall delta must cover, acc - fl(b + kmax), is a
difference of two floats, so it is either at most 0 or at least 2^-1074,
and it is at most half the unrounded delta. The lower side is the same
argument negated. So a cell with hi <= upper and lo >= lower has no
violating sample, and count_violations accumulates only the other,
candidate, cells.

The bound assumes that no sum overflows. A cell with |b| + tails above
2^1000 is always a candidate; below it no partial sum can overflow. Any
non-finite kmax, kmin, tails or delta makes the cell a candidate too: a
NaN fails both hi <= upper and lo >= lower, an infinite kmax or kmin
gives an infinite hi or lo, and an infinite or NaN tails fails the
2^1000 test. So an infinite sample opens its block for every pair, as
does 0 * inf = NaN against a zero sensitivity. A NaN sample makes its
own sums NaN, which no strict comparison counts; fmax and fmin skip it
in kmax, kmin and tails, so it does not open its block for the other
samples.

Candidate cells run the same accumulate-and-compare sweep as a call
without an envelope, and skipped cells have no hits, so per-row counts
and the joint count are bit-identical with and without the envelope.
"""

from __future__ import annotations

import numpy as np

# Samples per block: keeps the accumulator a few megabytes, and a
# block's per-row counts within uint16.
_BLOCK_SAMPLES = 4096

_UNIT_ROUNDOFF = 2.0**-53
# Largest |b| + tails whose sums cannot overflow (see the module docstring).
_SCALE_CAP = 2.0**1000


def active_backend() -> str:
    """Name of the counting implementation, for benchmark records."""
    return "numpy"


def _accumulate(acc, prod, start, sens_cols, columns):
    """Fill acc (rows x samples) with start plus each column's products.

    The products sens_cols[j] * columns[j] are added one column at a
    time in ascending order: the summation order every count relies on.
    """
    acc[...] = start
    for s_j, x_j in zip(sens_cols, columns):
        np.multiply(s_j, x_j, out=prod)
        acc += prod
    return acc


def sample_envelope(sens, xi, cols):
    """Dispatch-free bounds of each pair's sum, per block of samples.

    sens, xi and cols are as in count_violations. Returns (kmax, kmin,
    tails), each (n_blocks, n_pairs): the NaN-skipping maximum and
    minimum of the sum started at 0, and the sum over the columns of the
    largest |product|, over the samples of each block. Rounding is
    monotone, so a column's largest |fl(a * x)| is fl(|a| * max |x|),
    which needs one reduction per column instead of one per pair. Peak
    memory is two (n_pairs, block) buffers, as in count_violations.
    """
    n_pairs = sens.shape[0]
    n_blocks = -(-xi.shape[0] // _BLOCK_SAMPLES)
    sens_cols = np.ascontiguousarray(sens[:, cols].T)[:, :, None]
    sens_size = np.abs(sens_cols[:, :, 0])
    kmax = np.empty((n_blocks, n_pairs))
    kmin = np.empty((n_blocks, n_pairs))
    tails = np.empty((n_blocks, n_pairs))
    acc_buf = np.empty((n_pairs, _BLOCK_SAMPLES))
    prod_buf = np.empty((n_pairs, _BLOCK_SAMPLES))
    with np.errstate(invalid="ignore", over="ignore"):
        for block, start in enumerate(range(0, xi.shape[0], _BLOCK_SAMPLES)):
            columns = np.ascontiguousarray(xi[start : start + _BLOCK_SAMPLES, cols].T)
            width = columns.shape[1]
            acc = _accumulate(acc_buf[:, :width], prod_buf[:, :width], 0.0, sens_cols, columns)
            np.fmax.reduce(acc, axis=1, out=kmax[block])
            np.fmin.reduce(acc, axis=1, out=kmin[block])
            largest = np.fmax.reduce(np.abs(columns), axis=1)
            np.sum(sens_size * largest[:, None], axis=0, out=tails[block])
    return kmax, kmin, tails


def _candidates(base, upper, lower, m, envelope):
    """(n_blocks, n_pairs) mask of the cells a dispatch might violate."""
    kmax, kmin, tails = envelope
    with np.errstate(invalid="ignore", over="ignore"):
        scale = np.abs(base) + tails
        delta = (4 * (m + 2) * _UNIT_ROUNDOFF) * scale
        # Written as negated <= and >= so that any NaN makes a candidate.
        return (
            ~((base + kmax) + delta <= upper)
            | ~((base + kmin) - delta >= lower)
            | ~(scale <= _SCALE_CAP)
        )


def count_violations(base, sens, limits, xi, cols, active, envelope=None):
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
    envelope: None, or sample_envelope(sens, xi, cols). With it, only
    the (block, pair) cells whose bound reaches a limit are accumulated,
    and blocks without such a cell are skipped; the result is the same.

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
    reach = None if envelope is None else _candidates(base, upper, lower, len(cols), envelope)
    active_upper, active_lower = active[:, 0], active[:, 1]
    counts = np.zeros((n_pairs, 2), dtype=np.int64)
    joint = 0
    acc_buf = np.empty((n_pairs, _BLOCK_SAMPLES))
    prod_buf = np.empty((n_pairs, _BLOCK_SAMPLES))
    every_pair = (np.arange(n_pairs), base[:, None], sens_cols, upper, lower)
    # 0 * inf and overflow follow IEEE rules: a NaN or inf sum is compared
    # like any other, so numpy need not warn about them.
    with np.errstate(invalid="ignore", over="ignore"):
        for block, start in enumerate(range(0, xi.shape[0], _BLOCK_SAMPLES)):
            if reach is None:
                rows, start_rows, sens_rows, upper_rows, lower_rows = every_pair
            else:
                rows = np.flatnonzero(reach[block])
                if rows.size == 0:
                    continue
                start_rows, sens_rows = base[rows, None], sens_cols[:, rows]
                upper_rows, lower_rows = upper[rows], lower[rows]
            columns = np.ascontiguousarray(xi[start : start + _BLOCK_SAMPLES, cols].T)
            width = columns.shape[1]
            acc = _accumulate(
                acc_buf[: rows.size, :width], prod_buf[: rows.size, :width],
                start_rows, sens_rows, columns,
            )
            # Compare only the rows whose extreme sum crosses the limit; most
            # pairs never hit. fmax/fmin skip NaN, which compares false anyway.
            at_up = np.flatnonzero(np.fmax.reduce(acc, axis=1) > upper_rows)
            at_lo = np.flatnonzero(np.fmin.reduce(acc, axis=1) < lower_rows)
            up, lo = rows[at_up], rows[at_lo]
            hits_upper = acc[at_up] > upper_rows[at_up, None]
            hits_lower = acc[at_lo] < lower_rows[at_lo, None]
            # A block's counts fit in uint16, whose sum numpy runs fastest.
            counts[up, 0] += hits_upper.sum(axis=1, dtype=np.uint16)
            counts[lo, 1] += hits_lower.sum(axis=1, dtype=np.uint16)
            hit = hits_upper[active_upper[up]].any(axis=0) | hits_lower[active_lower[lo]].any(axis=0)
            joint += int(np.count_nonzero(hit))
    return counts, joint
