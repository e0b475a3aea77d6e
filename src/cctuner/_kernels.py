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

Per-block bounds
----------------
For a sample of a block, a pair's sum is

    acc = fl(...fl(fl(b + p_1) + p_2) ... + p_m),   p_j = fl(a_j * x_j),

with m = len(cols) and b = g.p the dispatch term. Before it sums a
block, count_violations takes the NaN-skipping maximum xmax_j and
minimum xmin_j of each active column over the block, from the column
copy it sums anyway, and _block_bound turns them into three numbers per
pair:

    t_j = max(fl(a_j * xmax_j), fl(a_j * xmin_j)),   s_j = min(same),
    hi = fl(...fl(t_1 + t_2) ... + t_m),   lo = the same sum of the s_j,
    tails = sum_j fl(|a_j| * max(|xmax_j|, |xmin_j|)).

a_j * x is monotone in x and rounding is monotone, so every product of
the block has s_j <= p_j <= t_j, and |p_j| and |t_j| are at most the
j-th term of tails.

Why a dispatch can skip a (block, pair) cell. Let u = 2^-53 and
gamma_m = m*u / (1 - m*u). Recursive summation errs by at most gamma
times the sum of the magnitudes of the terms (Higham 2002, Accuracy and
Stability of Numerical Algorithms, section 4.2): |acc - (b + sum p_j)|
<= gamma_m (|b| + sum |p_j|) over m additions, and |hi - sum t_j| <=
gamma_(m-1) sum |t_j|, because its first addition is exact. Both
magnitude sums are at most the exact sum of the terms of tails, so for
every sample of the block

    acc <= b + hi + 2 gamma_m (|b| + tails),

and acc >= b + lo - 2 gamma_m (|b| + tails) likewise.

The test computes top = fl(fl(b + hi) + delta) and bottom = fl(fl(b +
lo) - delta). If acc > upper for some sample, then b + hi + 2 gamma_m
(|b| + tails) >= acc, and because rounding is monotone and acc is a
float, top >= acc > upper as soon as delta covers that bound plus the
rounding of fl(b + hi), at most u (|b| + (1 + gamma_m) tails). tails,
|b| + tails and delta are rounded too: the computed tails is at most
gamma_m below the exact sum of its m nonnegative terms, and each other
operation costs a factor (1 - u). With

    delta = 4 (m + 2) u (|b| + tails)

the factor 4 (m + 2) u is more than twice the (2m + 1) u the bound
needs, for any m far below 1/u. Where the product underflows, delta
loses at most 2^-1075, half the spacing of the subnormals. That cannot
matter: the shortfall delta must cover, acc - fl(b + hi), is a
difference of two floats, so it is either at most 0 or at least 2^-1074,
and it is at most half the unrounded delta. The lower side is the same
argument negated. So a cell with top <= upper and bottom >= lower has
no violating sample, and count_violations accumulates only the other,
candidate, cells.

The bound assumes that no sum overflows. A cell with |b| + tails above
2^1000 is always a candidate; below it no partial sum can overflow. Any
non-finite hi, lo, tails or delta makes the cell a candidate too: a
NaN fails both top <= upper and bottom >= lower, an infinite hi or lo
gives an infinite top or bottom, and an infinite or NaN tails fails the
2^1000 test. So an infinite sample opens its block for every pair, as
does 0 * inf = NaN against a zero sensitivity. A NaN sample makes its
own sums NaN, which no strict comparison counts; fmax and fmin skip it
in xmax and xmin, so it does not open its block for the other samples.

Candidate cells run the same accumulate-and-compare sweep as every cell
would, and skipped cells have no hits, so per-row counts and the joint
count are bit-identical to a sum over every cell. The bound costs two
reductions of the block's m columns and O(m) work per pair, and needs no
state beyond the block.
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


def _block_bound(sens_t, columns):
    """(hi, lo, tails) of each pair over one block (module docstring).

    sens_t: (m, n_pairs) sensitivities, one row per active column.
    columns: (m, width) the block's samples of those columns.
    """
    xmax = np.fmax.reduce(columns, axis=1)[:, None]
    xmin = np.fmin.reduce(columns, axis=1)[:, None]
    at_max, at_min = sens_t * xmax, sens_t * xmin
    hi = np.zeros(sens_t.shape[1])
    lo = np.zeros(sens_t.shape[1])
    for t_j, s_j in zip(np.maximum(at_max, at_min), np.minimum(at_max, at_min)):
        hi += t_j
        lo += s_j
    largest = np.maximum(np.abs(xmax), np.abs(xmin))
    tails = np.sum(np.abs(sens_t) * largest, axis=0)
    return hi, lo, tails


def _candidates(base, upper, lower, m, bound):
    """(n_pairs,) mask of the pairs a dispatch might violate in a block."""
    hi, lo, tails = bound
    scale = np.abs(base) + tails
    delta = (4 * (m + 2) * _UNIT_ROUNDOFF) * scale
    # Written as negated <= and >= so that any NaN makes a candidate.
    return (
        ~((base + hi) + delta <= upper)
        | ~((base + lo) - delta >= lower)
        | ~(scale <= _SCALE_CAP)
    )


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
    block of samples is copied, active columns only, as (columns x
    samples). Only the pairs whose per-block bound reaches a limit are
    accumulated, into a (pairs x samples) buffer, column by column in
    ascending order, and a block without such a pair is skipped. Only
    rows whose largest (upper) or smallest (lower) sum in the block
    crosses the limit are compared sample by sample.
    """
    n_pairs = base.shape[0]
    upper = limits[:, 0]
    lower = -limits[:, 1]
    sens_t = np.ascontiguousarray(sens[:, cols].T)
    sens_cols = sens_t[:, :, None]
    active_upper, active_lower = active[:, 0], active[:, 1]
    counts = np.zeros((n_pairs, 2), dtype=np.int64)
    joint = 0
    acc_buf = np.empty((n_pairs, _BLOCK_SAMPLES))
    prod_buf = np.empty((n_pairs, _BLOCK_SAMPLES))
    # 0 * inf and overflow follow IEEE rules: a NaN or inf sum is compared
    # like any other, so numpy need not warn about them.
    with np.errstate(invalid="ignore", over="ignore"):
        for start in range(0, xi.shape[0], _BLOCK_SAMPLES):
            columns = np.ascontiguousarray(xi[start : start + _BLOCK_SAMPLES, cols].T)
            bound = _block_bound(sens_t, columns)
            rows = np.flatnonzero(_candidates(base, upper, lower, len(cols), bound))
            if rows.size == 0:
                continue
            width = columns.shape[1]
            upper_rows, lower_rows = upper[rows], lower[rows]
            acc = _accumulate(
                acc_buf[: rows.size, :width], prod_buf[: rows.size, :width],
                base[rows, None], sens_cols[:, rows], columns,
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
