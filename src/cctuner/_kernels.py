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

Reused sample sets
------------------
A tuner counts one sample set against one catalog at every iterate, and
only the dispatch term b changes between those counts. A CountStore
holds what does not: the active-column copy of the whole set, its
(hi, lo, tails) bound as one block, and, for each pair that has ever
been a candidate, the dispatch-free sum of every sample,

    v = fl(...fl(fl(0 + p_1) + p_2) ... + p_m),

the products added from 0.0 in _accumulate's order. A count first takes
the candidates of the whole set as one block, which the argument above
covers, and fills v for each candidate not yet filled. It then proves
most samples of the filled pairs sure misses from v alone, and re-sums
every other sample of those pairs from b through _accumulate.

Why v decides a sure miss. v adds the same float products p_j as acc,
so |acc - (b + v)| <= E = gamma_m (|b| + sum |p_j|) + gamma_(m-1) sum
|p_j|, which is at most 2 gamma_m (|b| + tails) / (1 - gamma_m) by the
bound on the computed tails. For the upper row the count computes c =
fl(upper - b), scale = fl(fl(|b| + tails) + |c|), delta = fl(4 (m + 2)
u * scale) and t = fl(c - delta). A sample with v < t has

    b + v < b + c - delta + u (|c| + delta) <= upper - delta (1 - u) + 2 u |c| / (1 - u),

since |c - (upper - b)| <= u |upper - b| <= u |c| / (1 - u). So acc <=
b + v + E < upper as soon as delta (1 - u) >= E + 2 u |c| / (1 - u).
The computed delta is at least 4 (m + 2) u (|b| + tails + |c|) (1 - u)^3,
more than twice what E and 2 u |c| need for any m far below 1/u, so the
sample does not violate the upper row. The lower row is the same
argument negated: t = fl(fl(lower - b) + delta) with c = fl(lower - b),
and v > t gives acc > lower.

The test is made only where 2^-960 <= scale <= 2^1000. Above, a sum
could overflow; below, delta could underflow and lose its relative
bound. Additions need no such care, since one whose result is subnormal
is exact, and a product that underflows is the same float in acc and in
v. Outside that range, a NaN scale included, t is +-inf on the side
that proves nothing (-inf for the upper row), so no sample of the pair
is a sure miss: every sample of a pair whose tails are infinite is
re-summed. A NaN v fails both v < t and v > t, so a NaN sample is
always re-summed. The test holds for any pair, so a filled pair that is
no candidate at this dispatch is tested like the others. Every sample
that some filled pair cannot clear is re-summed for all filled pairs in
_accumulate's order and compared exactly, and pairs never filled were
never candidates, so the counts are bit-identical to a sum over every
cell, as in the one-shot count.

The sums cost 8 bytes per sample for each pair that was ever a
candidate. They are filled once per store, and each later count reads
them with two comparisons and re-sums, 4,096 at a time, only the
samples it cannot clear: those near or beyond a limit.
"""

from __future__ import annotations

import numpy as np

# Samples per block: keeps the accumulator a few megabytes, and a
# block's per-row counts within uint16.
_BLOCK_SAMPLES = 4096

_UNIT_ROUNDOFF = 2.0**-53
# Largest |b| + tails whose sums cannot overflow (see the module docstring).
_SCALE_CAP = 2.0**1000
# Smallest scale a sure miss is decided at ("Reused sample sets").
_SCALE_FLOOR = 2.0**-960
# Sign that moves each (upper, lower) limit toward the pair's inside.
_TOWARD_INSIDE = np.array([-1.0, 1.0])
# Pairs a count store sizes its buffers for at first. About 10 of the
# RTS case's 62 pairs ever become candidates in a tune, and buffers
# sized once kept the tune benchmark's peak RSS lower than buffers
# grown as pairs fill.
_STORE_ROWS = 16


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


def _tally(acc, rows, upper, lower, active, counts):
    """Add to counts the hits in acc, whose row i holds the sums of pair
    rows[i], and return the number of samples that hit an active row.

    Only the rows whose extreme sum crosses the limit are compared; most
    pairs never hit. fmax and fmin skip NaN, which compares false anyway.
    acc has at most _BLOCK_SAMPLES columns, so a row's count fits in
    uint16, whose sum numpy runs fastest.
    """
    upper_rows, lower_rows = upper[rows], lower[rows]
    at_up = np.flatnonzero(np.fmax.reduce(acc, axis=1) > upper_rows)
    at_lo = np.flatnonzero(np.fmin.reduce(acc, axis=1) < lower_rows)
    up, lo = rows[at_up], rows[at_lo]
    hits_upper = acc[at_up] > upper_rows[at_up, None]
    hits_lower = acc[at_lo] < lower_rows[at_lo, None]
    counts[up, 0] += hits_upper.sum(axis=1, dtype=np.uint16)
    counts[lo, 1] += hits_lower.sum(axis=1, dtype=np.uint16)
    hit = hits_upper[active[up, 0]].any(axis=0) | hits_lower[active[lo, 1]].any(axis=0)
    return int(np.count_nonzero(hit))


def _sure_miss_limits(base, bounds, tails, m):
    """(n, 2) limits (t_up, t_lo) of each pair: a sample whose
    dispatch-free sum v has t_lo < v < t_up violates neither row of the
    pair (see "Reused sample sets"). bounds holds (upper, lower)."""
    c = bounds - base[:, None]
    scale = (np.abs(base) + tails)[:, None] + np.abs(c)
    exact = (scale >= _SCALE_FLOOR) & (scale <= _SCALE_CAP)
    delta = (4 * (m + 2) * _UNIT_ROUNDOFF) * scale
    return np.where(exact, c + _TOWARD_INSIDE * delta, _TOWARD_INSIDE * np.inf)


class CountStore:
    """One sample set's dispatch-free counting state for one catalog.

    count_violations accepts a store in place of the samples, with the
    very sens array it was built from, and counts bit for bit as from
    the samples (see "Reused sample sets"). Building it copies the
    active columns and bounds them; each pair's sums are kept from the
    first count in which the pair is a candidate.

    sens: (n_pairs, n_buses) sensitivity of each upper row to each bus.
    xi: (n_samples, n_buses) samples.
    cols: ascending int64 indices of the sample columns to accumulate.
    seed: the seed of the sample set, carried for reports.
    """

    def __init__(self, sens, xi, cols, seed=None):
        self.sens = sens
        self.cols = cols
        self.seed = seed
        self.shape = xi.shape
        n_pairs, n = sens.shape[0], xi.shape[0]
        self._sens_t = np.ascontiguousarray(sens[:, cols].T)
        self._columns = np.ascontiguousarray(xi[:, cols].T)
        with np.errstate(invalid="ignore", over="ignore"):
            self._bound = _block_bound(self._sens_t, self._columns)
        # Row r of _sums holds the sums of pair _slot_pair[r]; rows are
        # taken in the order pairs first become candidates.
        self._slot_pair = np.empty(n_pairs, dtype=np.int64)
        self._filled = np.zeros(n_pairs, dtype=bool)
        self._n_filled = 0
        self._prod = np.empty(n)
        self._grow(min(n_pairs, _STORE_ROWS))

    def _grow(self, rows):
        """Size every buffer for rows filled pairs, keeping the sums."""
        n = self._prod.shape[0]
        sums = np.empty((rows, n))
        if self._n_filled:
            sums[: self._n_filled] = self._sums[: self._n_filled]
        self._sums = sums
        self._miss = np.empty((rows, n), dtype=bool)
        self._over_lower = np.empty((rows, n), dtype=bool)
        self._work = np.empty((2, rows * min(n, _BLOCK_SAMPLES)))

    def _fill(self, pair):
        row = self._n_filled
        if row == self._sums.shape[0]:
            self._grow(min(2 * row, len(self._filled)))
        _accumulate(self._sums[row], self._prod, 0.0, self._sens_t[:, pair], self._columns)
        self._slot_pair[row] = pair
        self._filled[pair] = True
        self._n_filled += 1

    def count(self, base, sens, limits, active):
        """count_violations of the stored samples; see there."""
        if sens is not self.sens:
            raise ValueError("count store was built for other sensitivities")
        m = len(self.cols)
        upper = limits[:, 0]
        lower = -limits[:, 1]
        counts = np.zeros((base.shape[0], 2), dtype=np.int64)
        with np.errstate(invalid="ignore", over="ignore"):
            candidate = _candidates(base, upper, lower, m, self._bound)
            if not candidate.any():
                return counts, 0
            for pair in np.flatnonzero(candidate & ~self._filled):
                self._fill(pair)
            f = self._n_filled
            rows = self._slot_pair[:f]
            base_rows = base[rows]
            bounds = np.stack([upper[rows], lower[rows]], axis=1)
            t = _sure_miss_limits(base_rows, bounds, self._bound[2][rows], m)
            sums = self._sums[:f]
            miss = np.less(sums, t[:, :1], out=self._miss[:f])
            miss &= np.greater(sums, t[:, 1:], out=self._over_lower[:f])
            near = np.flatnonzero(~np.logical_and.reduce(miss, axis=0))
            sens_cols = self._sens_t[:, rows, None]
            joint = 0
            for start in range(0, near.size, _BLOCK_SAMPLES):
                chunk = near[start : start + _BLOCK_SAMPLES]
                size = f * chunk.size
                acc = _accumulate(
                    self._work[0, :size].reshape(f, chunk.size),
                    self._work[1, :size].reshape(f, chunk.size),
                    base_rows[:, None], sens_cols, np.take(self._columns, chunk, axis=1),
                )
                joint += _tally(acc, rows, upper, lower, active, counts)
        return counts, joint


def count_violations(base, sens, limits, xi, cols, active):
    """Count strict violations of each mirrored pair of rows.

    For pair c the upper row violates when
    base_c + sum_j sens[c,j]*xi[k,j] > limits[c, 0], and the lower row
    when the negated sum exceeds limits[c, 1].

    base: (n_pairs,) dispatch term of each upper row.
    sens: (n_pairs, m) sensitivity of each upper row to each sample column.
    limits: (n_pairs, 2) right-hand sides of the upper and lower rows.
    xi: (n_samples, m) samples, or a CountStore built from this very
        sens array, which then uses its own columns.
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
    if isinstance(xi, CountStore):
        return xi.count(base, sens, limits, active)
    n_pairs = base.shape[0]
    upper = limits[:, 0]
    lower = -limits[:, 1]
    sens_t = np.ascontiguousarray(sens[:, cols].T)
    sens_cols = sens_t[:, :, None]
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
            acc = _accumulate(
                acc_buf[: rows.size, :width], prod_buf[: rows.size, :width],
                base[rows, None], sens_cols[:, rows], columns,
            )
            joint += _tally(acc, rows, upper, lower, active, counts)
    return counts, joint
