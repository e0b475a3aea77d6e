"""Monte Carlo violation-counting kernel.

Rows are counted in the pairs the catalog stores: pair c's upper row
bounds its sum acc by limits[c, 0] and its lower row bounds -acc by
limits[c, 1]. Round-to-nearest is symmetric under negation, fl(-x * y)
= -fl(x * y) and fl(-x + -y) = -fl(x + y), so the sum of a lower row
as the catalog lists it, its upper row negated, is exactly -acc up to
the sign of a zero, which no comparison sees. So one accumulator per
pair decides both rows: acc > limits[c, 0] and acc < -limits[c, 1].

Each accumulator starts at the pair's dispatch term and adds the
uncertainty term over the active sample columns in ascending index
order, one multiply and one add each (no fused multiply-add), so the
counts can be compared exactly against a plain Python loop over all
rows. _accumulate is the one place that order is written down.

Bound and band
--------------
For a sample, a pair's sum and its dispatch-free sum are

    acc = fl(...fl(fl(b + p_1) + p_2) ... + p_m),   p_j = fl(a_j * x_j),
    v = fl(...fl(fl(0 + p_1) + p_2) ... + p_m),

with m = len(cols) and b = g.p the dispatch term: v adds the same
products from 0.0 in _accumulate's order. _bound takes the NaN-skipping
maximum xmax_j and minimum xmin_j of each active column over the whole
sample set and turns them into three numbers per pair:

    t_j = max(fl(a_j * xmax_j), fl(a_j * xmin_j)),   s_j = min(same),
    hi = fl(...fl(fl(0 + t_1) + t_2) ... + t_m),   lo = the same sum of the s_j,
    tails = sum_j fl(|a_j| * max(|xmax_j|, |xmin_j|)).

Monotone sums. a_j * x is monotone in x and rounding is monotone, so
every finite sample has s_j <= p_j <= t_j, and |p_j| is at most the j-th
term of tails. fl(x + y) is monotone in each of x and y, so induction
over the m additions gives lo <= v <= hi exactly, with no error term.

Why the band decides a sure miss. Let u = 2^-53 and gamma_m = m*u / (1 -
m*u). Recursive summation errs by at most gamma times the sum of the
magnitudes of the terms (Higham 2002, Accuracy and Stability of
Numerical Algorithms, section 4.2), so |acc - (b + v)| <= E = gamma_m
(|b| + sum |p_j|) + gamma_(m-1) sum |p_j|. The computed tails is at most
gamma_m below the exact sum of its m nonnegative terms, so E <= 2
gamma_m (|b| + tails) / (1 - gamma_m). For the upper row,
_sure_miss_limits computes c = fl(upper - b), scale = fl(fl(|b| +
tails) + |c|), delta = fl(4 (m + 2) u * scale) and t_up = fl(c - delta).
A sample with v <= t_up has

    b + v <= b + c - delta + u (|c| + delta) <= upper - delta (1 - u) + 2 u |c| / (1 - u),

since |c - (upper - b)| <= u |upper - b| <= u |c| / (1 - u). So acc <=
b + v + E < upper as soon as delta (1 - u) > E + 2 u |c| / (1 - u).
The computed delta is at least 4 (m + 2) u (|b| + tails + |c|) (1 - u)^3,
more than twice what E and 2 u |c| need for any m far below 1/u, and it
is positive for a positive scale, so the margin is strict and the sample
does not violate the upper row. The lower row is the same argument
negated: t_lo = fl(fl(lower - b) + delta), and v >= t_lo gives acc >
lower. A sample with t_lo <= v <= t_up is a sure miss of both rows.

The band is used where 2^-960 <= scale <= 2^1000. Above, a sum could
overflow; below, delta could underflow and lose its relative bound.
Additions need no such care, since one whose result is subnormal is
exact, and a product that underflows is the same float in acc and in v.
At scale == 0 the band is exact as well: then b, tails and c are zeros,
so every product of a finite sample is a zero, and so are acc, the
limit and t, and no zero exceeds a zero. Anywhere else, a NaN scale
included, the band is NaN and proves nothing, since NaN fails every
comparison. An infinite sample makes the tails of every pair infinite or
NaN, and so every band NaN; a NaN sample has a NaN v. Neither is ever a
sure miss.

Candidates. A pair is a candidate unless hi <= t_up and lo >= t_lo. For
a pair that is not, every finite sample has its v in the band, by the
monotone-sum lemma, and misses both rows; no sample is infinite, since
one would leave the band NaN; and a NaN sample's acc is NaN, which no
strict comparison counts. A NaN hi or lo makes a candidate too, and the
NaN-skipping extremes keep a NaN sample from opening the bound for the
others. A candidate's live rows are those whose side of [lo, hi] leaves
the band (hi > t_up, lo < t_lo, or NaN); by the same argument its other
row has no hit.

Uniform pairs
-------------
In the paper's model every generator balances a share alpha_i of the
total imbalance, so a generator pair's sensitivity is one coefficient a
= alpha_i on every column, and the pair sees a sample only through its
total

    Omega = fl(...fl(fl(0 + x_1) + x_2) ... + x_m),

its active columns added from 0.0 in _accumulate's order (_total; a
sum that starts at x_1 differs only in the sign of a zero). A
candidate is uniform when m >= 1, its coefficients on the active
columns are all one nonzero a, fl(tails / |a|) <= 2^1000, and on each
live row both quotients below are finite and larger than 2^-1022 in
magnitude. It is decided from Omega, one vector for all uniform pairs.

The bound. Let S = sum_j x_j exactly, X_j = max(|xmax_j|, |xmin_j|),
tau_j = fl(|a| X_j) the terms of tails, T = |a| sum_j X_j, and eta =
2^-1075, the largest error of a product that underflows. Each product
is p_j = a x_j (1 + e_j) + h_j with |e_j| <= u and |h_j| <= eta, so

    |acc - (b + a Omega)| <= |acc - (b + sum p_j)| + |sum p_j - a S| + |a| |S - Omega|
                          <= gamma_m (|b| + sum |p_j|) + u T + m eta + gamma_(m-1) T.

Here |p_j| <= tau_j, T <= (sum tau_j + m eta) / (1 - u), and the
computed tails is at least (1 - gamma_m) sum tau_j, since it adds m
nonnegative terms. As u + gamma_(m-1) <= gamma_m,

    |acc - (b + a Omega)| <= E_U = 2 gamma_m (|b| + tails) / (1 - gamma_m)^2 + 2 m eta.

No sum overflows: acc's by the scale cap, and every partial sum of
Omega is at most (1 + gamma_m) sum_j X_j, which fl(tails / |a|) <=
2^1000 and |a| >= 2^-1074 keep below 2^1002.

The thresholds. Take a > 0 and the upper row, with c and delta those of
the band. The miss threshold is q = fl(y / a) with y = fl(c - delta) =
t_up, and the hit threshold r = fl(y' / a) with y' = fl(c + delta). A
quotient larger than 2^-1022 in magnitude rounds an exact quotient in
the normal range, so fl(y / a) = (y / a)(1 + e) with |e| <= u; a
finite one did not overflow. So Omega <= q gives

    a Omega <= y + u |y| <= c - delta + u (2 + u) (|c| + delta),

and, with upper - b >= c - u |c| / (1 - u),

    acc <= b + a Omega + E_U <= upper - delta (1 - 3u) + 4u |c| + E_U.

Likewise Omega >= r gives a Omega >= c + delta - u (2 + u) (|c| +
delta) and acc >= upper + delta (1 - 3u) - 4u |c| - E_U. Both decide
the row once delta (1 - 3u) > E_U + 4u |c|. A zero y has zero
quotients, so a uniform pair has 2^-960 <= scale <= 2^1000 on its live
rows, and delta (1 - 3u) is at least 4 (m + 2) u (|b| + tails + |c|)
(1 - u)^3 (1 - 3u). For m far below 1/u that exceeds 2 gamma_m (|b| +
tails) / (1 - gamma_m)^2 + 4u |c| by at least 7u (|b| + tails + |c|)
>= 6u scale >= 2^-1011, and 2 m eta is far smaller. So a sample with
Omega <= q misses the upper row (acc < upper) and one with Omega >= r
hits it (acc > upper), strictly, and r > q, as a (r - q) >= 2 delta
(1 - 3u) - 6u |c| > 0. Only the samples in the sliver q < Omega < r
are summed from b, in _accumulate's order, and compared with the
limit. The lower row is the same argument negated: fl(t_lo / a) is its
miss threshold, fl(fl(fl(lower - b) - delta) / a) its hit threshold,
and smaller Omega lies toward the limit. For a < 0 the argument is
that for -a on the negated samples: fl((-a) (-x)) = fl(a x), the total
of the negated samples is -Omega, and fl(y / a) = -fl(y / (-a)), so
each comparison turns round.

Samples that are not finite. A NaN sample has a NaN Omega, which no
comparison puts past a miss threshold, so it is never counted, nor
re-summed; its acc is NaN too, which no strict comparison counts. An
infinite sample makes tau_j infinite for the column it lies in, since a
!= 0 there, so tails and scale are infinite and both rows' band is NaN:
the quotients are NaN, and the pair is summed densely like any
non-uniform candidate.

Counting. count_violations makes one transposed copy of the samples
and bounds them. Each live row of a uniform pair takes two compares of
Omega, with its hit and its miss threshold. The samples past the hit
threshold are hits; only if more lie past the miss threshold is that
sliver listed and re-summed. The samples that hit a row of an active
uniform pair are flagged. Every other candidate has every sample
summed from b through _sum_and_tally, in chunks that are slices of the
copy: each chunk holds at most _BLOCK_CELLS (pair, sample) cells and
_MAX_WIDTH samples. A
chunk's sums are compared with every upper and every lower limit in two
whole-chunk compares, strict ones, which a NaN sum fails, and the
chunk's flags are ORed into its joint reduce. Pairs that are not
candidates have no hits, so per-row counts and the joint count are
bit-identical to a sum over every (sample, pair) cell.

Reused sample sets
------------------
A tuner counts one sample set against one catalog at every iterate, and
only the dispatch term b changes between those counts. A CountStore
holds what does not: the transposed copy of the whole set, its bound,
and, for each pair that has ever been a candidate, the v of every
sample. A count takes the band and the candidates as above, fills v for
each candidate not yet filled, and re-sums through _sum_and_tally only
the samples whose v lies outside the band of some filled pair, for all
filled pairs. The band holds for any pair, so a filled pair that is no
candidate at this dispatch is tested like the others, and pairs never
filled are no candidates now. A store sums uniform pairs like any
other. So the counts are those of the one-shot count, bit for bit.

The sums cost 8 bytes per sample for each pair that was ever a
candidate. They are filled once per store, and each later count reads
them with two comparisons and re-sums only the samples it cannot clear:
those near or beyond a limit.
"""

from __future__ import annotations

import numpy as np

# Cells (pairs x samples) per chunk. acc and prod then take about 1 MB
# together, inside one core's 2 MB L2 on the Xeon the score benchmark
# was tuned on; ROADMAP records the scan that chose 2^16.
_BLOCK_CELLS = 2**16
# Widest chunk: a row's count in one chunk must fit in uint16.
_MAX_WIDTH = 2**16 - 1

_UNIT_ROUNDOFF = 2.0**-53
# Largest scale whose sums cannot overflow (see the module docstring).
_SCALE_CAP = 2.0**1000
# Smallest positive scale the band is used at.
_SCALE_FLOOR = 2.0**-960
# Smallest normal float: a quotient larger in magnitude erred by at most
# u relative.
_NORMAL_MIN = 2.0**-1022
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
    if len(columns) == 0:
        acc[...] = start
    for j, (s_j, x_j) in enumerate(zip(sens_cols, columns)):
        np.multiply(s_j, x_j, out=prod)
        np.add(acc if j else start, prod, out=acc)
    return acc


def _bound(sens_t, columns):
    """(hi, lo, tails) of each pair over a sample set (module docstring).

    sens_t: (m, n_pairs) sensitivities, one row per active column.
    columns: (m, n) the samples of those columns.
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


def _margins(base, upper, lower, m, tails):
    """(c, delta), each (n_pairs, 2): every (upper, lower) limit less the
    dispatch term, and the band's margin, NaN where the band proves
    nothing (module docstring)."""
    c = np.stack([upper - base, lower - base], axis=1)
    scale = (np.abs(base) + tails)[:, None] + np.abs(c)
    exact = (scale <= _SCALE_CAP) & ((scale >= _SCALE_FLOOR) | (scale == 0.0))
    return c, np.where(exact, (4 * (m + 2) * _UNIT_ROUNDOFF) * scale, np.nan)


def _sure_miss_limits(base, upper, lower, m, bound):
    """(band, candidate) of each pair, from its bound (module docstring).

    band is (n_pairs, 2): a sample whose dispatch-free sum v has
    band[c, 1] <= v <= band[c, 0] violates neither row of pair c, and a
    NaN band clears nothing. candidate marks the pairs whose [lo, hi]
    does not lie in their band.
    """
    hi, lo, tails = bound
    c, delta = _margins(base, upper, lower, m, tails)
    band = c + _TOWARD_INSIDE * delta
    return band, ~((hi <= band[:, 0]) & (lo >= band[:, 1]))


def _uniform_pairs(base, upper, lower, sens_t, bound, band, candidate):
    """(pairs, live, thresholds): the uniform candidates, decided from
    the sample totals ("Uniform pairs" in the module docstring).

    live is (n_pairs, 2): the rows whose side of [lo, hi] leaves the
    band. thresholds is (2, n_pairs, 2): the band, then each limit moved
    outward by delta, over each pair's first coefficient; the miss and
    the hit threshold of each row, in units of the total.
    """
    if len(sens_t) == 0:
        return np.empty(0, dtype=np.int64), None, None
    hi, lo, tails = bound
    a = sens_t[0]
    live = np.stack([~(hi <= band[:, 0]), ~(lo >= band[:, 1])], axis=1)
    c, delta = _margins(base, upper, lower, len(sens_t), tails)
    thresholds = np.stack([band, c - _TOWARD_INSIDE * delta]) / a[:, None]
    size = np.abs(thresholds)
    safe = np.all((size > _NORMAL_MIN) & (size < np.inf), axis=0)
    uniform = (
        candidate
        & (a != 0.0)
        & np.all(sens_t == a, axis=0)
        & (tails / np.abs(a) <= _SCALE_CAP)
        & np.all(safe | ~live, axis=1)
    )
    return np.flatnonzero(uniform), live, thresholds


def _total(columns):
    """Omega of every sample: its columns added from 0.0 in _accumulate's
    order, up to the sign of a zero."""
    if len(columns) == 1:
        return columns[0]
    omega = np.add(columns[0], columns[1])
    for x_j in columns[2:]:
        np.add(omega, x_j, out=omega)
    return omega


def _tally_uniform(pairs, live, thresholds, columns, base, sens_t, upper, lower, active):
    """(counts, flagged) of the uniform pairs: each row's hits, and which
    samples hit a row of an active one (module docstring)."""
    omega = _total(columns)
    counts = np.zeros((base.shape[0], 2), dtype=np.int64)
    flagged = np.zeros(omega.shape, dtype=bool)
    beyond, hits = np.empty((2, omega.size), dtype=bool)
    for c in pairs:
        for side in np.flatnonzero(live[c]):
            miss_at, hit_at = thresholds[:, c, side]
            # a * Omega grows toward the upper limit and shrinks toward
            # the lower one. The hit threshold lies past the miss one.
            if (side == 0) == (sens_t[0, c] > 0.0):
                np.greater(omega, miss_at, out=beyond)
                np.greater_equal(omega, hit_at, out=hits)
            else:
                np.less(omega, miss_at, out=beyond)
                np.less_equal(omega, hit_at, out=hits)
            count = np.count_nonzero(hits)
            if np.count_nonzero(beyond) > count:
                sliver = np.flatnonzero(beyond & ~hits)
                acc, prod = np.empty((2, sliver.size))
                _accumulate(acc, prod, base[c], sens_t[:, c], columns[:, sliver])
                hits[sliver] = acc > upper[c] if side == 0 else acc < lower[c]
                count = np.count_nonzero(hits)
            counts[c, side] = count
            if active[c]:
                flagged |= hits
    return counts, flagged


def _width(n_rows):
    """Samples per chunk when n_rows pairs are summed."""
    return min(max(_BLOCK_CELLS // n_rows, 1), _MAX_WIDTH)


def _sum_and_tally(chunks, rows, base, sens_t, upper, lower, active, work, flagged=None):
    """(counts, joint) of the pairs rows over the samples of chunks.

    Each chunk is (m, width) samples of the active columns, at most
    _width(len(rows)) wide. Its sums start at base and add the products
    in _accumulate's order; work is (2, >= len(rows) * width) scratch.
    Every sum is compared with both limits of its pair, and a row's
    count in a chunk is summed in uint16, whose sum numpy runs fastest.
    flagged, if given, marks the samples already hit, in chunk order;
    they count toward joint.
    """
    counts = np.zeros((base.shape[0], 2), dtype=np.int64)
    joint = done = 0
    start, sens_cols = base[rows, None], sens_t[:, rows, None]
    upper_rows, lower_rows, active_rows = upper[rows, None], lower[rows, None], active[rows]
    hits = np.empty(work.shape, dtype=bool)
    for columns in chunks:
        shape = (rows.size, columns.shape[1])
        size = shape[0] * shape[1]
        acc = _accumulate(
            work[0, :size].reshape(shape), work[1, :size].reshape(shape), start, sens_cols, columns
        )
        over = np.greater(acc, upper_rows, out=hits[0, :size].reshape(shape))
        under = np.less(acc, lower_rows, out=hits[1, :size].reshape(shape))
        counts[rows, 0] += over.sum(axis=1, dtype=np.uint16)
        counts[rows, 1] += under.sum(axis=1, dtype=np.uint16)
        hit = np.logical_or(over, under, out=over)
        joint_hit = np.logical_or.reduce(hit[active_rows], axis=0)
        if flagged is not None:
            joint_hit |= flagged[done : done + shape[1]]
            done += shape[1]
        joint += int(np.count_nonzero(joint_hit))
    return counts, joint


class CountStore:
    """One sample set's dispatch-free counting state for one catalog.

    count_violations accepts a store in place of the samples, with the
    very sens array it was built from, and counts bit for bit as from
    the samples (see "Reused sample sets"). Building it copies the
    samples, transposed, and bounds the whole set once; each pair's sums
    are kept from the first count in which the pair is a candidate.

    sens: (n_pairs, n_buses) sensitivity of each upper row to each bus.
    xi: (n_samples, k) samples of the columns cols.
    cols: k ascending int64 indices of the columns of sens to accumulate.
    seed: the seed of the sample set, carried for reports.
    """

    def __init__(self, sens, xi, cols, seed=None):
        self.sens = sens
        self.cols = cols
        self.seed = seed
        self.shape = xi.shape
        n_pairs, n = sens.shape[0], xi.shape[0]
        self._sens_t = np.ascontiguousarray(sens[:, cols].T)
        self._columns = np.ascontiguousarray(xi.T)
        with np.errstate(invalid="ignore", over="ignore"):
            self._bound = _bound(self._sens_t, self._columns)
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
        # The largest chunk _width gives for up to rows pairs.
        self._work = np.empty((2, min(rows * n, max(_BLOCK_CELLS, rows))))

    def _fill(self, pair):
        row = self._n_filled
        if row == self._sums.shape[0]:
            self._grow(min(2 * row, len(self._filled)))
        _accumulate(self._sums[row], self._prod, 0.0, self._sens_t[:, pair], self._columns)
        self._slot_pair[row] = pair
        self._filled[pair] = True
        self._n_filled += 1

    def count(self, base, sens, upper, lower, active):
        """count_violations of the stored samples; lower is -limits[:, 1]."""
        if sens is not self.sens:
            raise ValueError("count store was built for other sensitivities")
        with np.errstate(invalid="ignore", over="ignore"):
            band, candidate = _sure_miss_limits(base, upper, lower, len(self.cols), self._bound)
            if not candidate.any():
                return np.zeros((base.shape[0], 2), dtype=np.int64), 0
            for pair in np.flatnonzero(candidate & ~self._filled):
                self._fill(pair)
            f = self._n_filled
            rows = self._slot_pair[:f]
            sums = self._sums[:f]
            miss = np.less_equal(sums, band[rows, :1], out=self._miss[:f])
            miss &= np.greater_equal(sums, band[rows, 1:], out=self._over_lower[:f])
            near = np.flatnonzero(~np.logical_and.reduce(miss, axis=0))
            width = _width(f)
            chunks = (
                np.take(self._columns, near[start : start + width], axis=1)
                for start in range(0, near.size, width)
            )
            return _sum_and_tally(chunks, rows, base, self._sens_t, upper, lower, active, self._work)


def count_violations(base, sens, limits, xi, cols, active):
    """Count strict violations of both rows of each pair.

    For pair c the upper row violates when
    base_c + sum_j sens[c,j]*xi[k,j] > limits[c, 0], and the lower row
    when the negated sum exceeds limits[c, 1].

    base: (n_pairs,) dispatch term of each upper row.
    sens: (n_pairs, m) sensitivity of each upper row to each bus.
    limits: (n_pairs, 2) right-hand sides of the upper and lower rows.
    xi: (n_samples, k) samples of the columns cols, or a CountStore built
        from this very sens array, which then uses its own samples.
    cols: k ascending int64 indices of the columns of sens to accumulate.
    active: (n_pairs,) bool mask of pairs whose rows count toward the
        joint hit.

    Returns (counts, joint): int64 violation counts of shape (n_pairs, 2),
    and the number of samples violating a row of an active pair. The
    samples are copied once, transposed, as (columns x samples), and
    bounded as a whole. Only the pairs whose bound leaves their sure-miss
    band are counted. Those with one coefficient on every column are
    decided from each sample's total, and only the samples too near a
    limit for the total to decide are summed. The others are
    accumulated, about _BLOCK_CELLS cells at a time, into a (pairs x
    samples) buffer, column by column in ascending order, and each
    chunk's sums are compared with both limits of their pairs.
    """
    upper, lower = limits[:, 0], -limits[:, 1]
    if isinstance(xi, CountStore):
        return xi.count(base, sens, upper, lower, active)
    sens_t = np.ascontiguousarray(sens[:, cols].T)
    columns = np.ascontiguousarray(xi.T)
    # 0 * inf, overflow and the thresholds of pairs with a zero coefficient
    # follow IEEE rules: a NaN or inf is compared like any other number,
    # so numpy need not warn about them.
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        bound = _bound(sens_t, columns)
        band, candidate = _sure_miss_limits(base, upper, lower, len(cols), bound)
        if not candidate.any():
            return np.zeros((base.shape[0], 2), dtype=np.int64), 0
        pairs, live, thresholds = _uniform_pairs(base, upper, lower, sens_t, bound, band, candidate)
        if pairs.size:
            counts, flagged = _tally_uniform(
                pairs, live, thresholds, columns, base, sens_t, upper, lower, active
            )
            candidate[pairs] = False
        else:
            counts, flagged = np.zeros((base.shape[0], 2), dtype=np.int64), None
        rows = np.flatnonzero(candidate)
        if rows.size == 0:
            return counts, int(np.count_nonzero(flagged))
        n, width = columns.shape[1], _width(rows.size)
        chunks = (columns[:, start : start + width] for start in range(0, n, width))
        work = np.empty((2, rows.size * min(n, width)))
        tallied, joint = _sum_and_tally(chunks, rows, base, sens_t, upper, lower, active, work, flagged)
        return counts + tallied, joint
