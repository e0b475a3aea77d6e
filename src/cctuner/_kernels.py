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
Rounding is symmetric under negation, so _sure_miss_limits keeps both
rows in the upper row's form, each a bound on its own sum (acc, and -acc
for the lower row): c = (fl(upper - b), fl(b - lower)) and band = c -
delta = (t_up, -t_lo), exactly.

Why c + delta decides a sure hit. The same margin works on the other
side of the limit: t_hit = fl(c + delta) >= c + delta - u (|c| + delta),
so a sample with v > t_hit has b + v > upper + delta (1 - u) - 2 u |c| /
(1 - u), and acc >= b + v - E > upper under the same condition on delta.
For the lower row, negated, v < fl(fl(lower - b) - delta) gives acc <
lower. At scale == 0 delta is 0 and the condition fails, but no such
row is live: b, tails and c are zeros, so hi = lo = 0 lies in the band.

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

Counting. count_violations reads the samples as (columns x samples):
for a column-major xi, as a SampleSet keeps its draw, that is xi.T
itself, not a copy. It bounds them. Each live row of a uniform pair
takes two compares of Omega, with its hit and its miss threshold. The
samples past the hit threshold are hits; only if more lie past the miss
threshold is that sliver listed and re-summed. The samples that hit a
row of an active uniform pair are flagged. Every other candidate has
every sample summed from b through _sum_and_tally, in chunks that are
slices of the columns: each chunk holds at most _BLOCK_CELLS (pair,
sample) cells and _MAX_WIDTH samples. A chunk's sums are compared with
the upper limits in one whole-chunk compare if some candidate's upper
row is live, and with the lower limits in another if some lower row
is: strict compares, which a NaN sum fails. A row that is not live has
no hit, so comparing it with the others changes no count, and a side
no candidate has live is not compared at all (every dense candidate of
64 score benchmark ops had only its lower row live). The chunk's flags
are ORed into its joint reduce. Pairs that are not
candidates have no hits, so per-row counts and the joint count are
bit-identical to a sum over every (sample, pair) cell.

Reused sample sets
------------------
A tuner counts one sample set against one catalog at every iterate, and
only the dispatch term b changes between those counts. A CountStore
holds what does not: the columns of the whole set (a view of a
column-major draw), their bound, and, for each pair that has ever been
a candidate, the v of every sample, filled for all of a count's new
candidates in one _accumulate. Each pair's sums are kept toward the row
that was live when they were filled, negated where its lower row alone
was, so that one compare of the stored sums tests that row.

A count takes the band and the candidates as above. Each filled pair
then decides, from its stored sums, every sample that lies in its band
on a live row (a sure miss) or beyond c + delta (a sure hit); a row
that is not live has no hit, and a pair that is no candidate has no
live row. The sure hits give the per-row and the joint counts. Only the
samples that some row leaves undecided, a sum within about delta of a limit
or a NaN sum, are summed again from b through _sum_and_tally, for
every candidate, in place of their sure hits. A store sums
uniform pairs like any other. So the counts are those of the one-shot
count, bit for bit.

The sums cost 8 bytes per sample for each pair that was ever a
candidate. They are filled once per store, and each later count reads
them with two compares per row side it tests, and re-sums only the
samples those leave undecided: in none of the 2,344 store counts of 240
tune benchmark ops (seeds 71 and 5).
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
# Sign that reads each (upper, lower) limit as a bound on the pair's sum:
# acc <= limits[c, 0] and -acc <= limits[c, 1].
_SIGN = np.array([1.0, -1.0])
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
    """(reach, tails) of each pair over a sample set (module docstring):
    reach is (n_pairs, 2), each pair's (hi, -lo).

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
    return np.stack([hi, -lo], axis=1), tails


def _sure_miss_limits(base, limits, m, bound):
    """(c, delta, band, live), each (n_pairs, 2), of the upper and the
    lower row of each pair, each row read as a bound on its own sum, acc
    for the upper row and -acc for the lower (module docstring).

    c is each limit less the row's dispatch term, (upper - b, b - lower).
    delta is the band's margin, NaN where the band proves nothing. band
    is c - delta, that is (t_up, -t_lo): a sample whose dispatch-free
    sum v has v <= band[c, 0] and -v <= band[c, 1] violates neither row
    of pair c, and a NaN band clears nothing. live marks the rows whose
    side of [lo, hi] leaves the band; a pair with a live row is a
    candidate.
    """
    reach, tails = bound
    c = limits - np.multiply.outer(base, _SIGN)
    scale = np.abs(c)
    scale += (np.abs(base) + tails)[:, None]
    exact = (scale <= _SCALE_CAP) & ((scale >= _SCALE_FLOOR) | (scale == 0.0))
    delta = np.where(exact, (4 * (m + 2) * _UNIT_ROUNDOFF) * scale, np.nan)
    band = c - delta
    return c, delta, band, ~(reach <= band)


def _uniform_pairs(c, delta, band, live, sens_t, tails, candidate):
    """(pairs, thresholds): the uniform candidates, decided from the
    sample totals ("Uniform pairs" in the module docstring), from
    _sure_miss_limits' (c, delta, band, live).

    thresholds is (2, n_pairs, 2): the band, then each limit moved
    outward by delta, over each pair's first coefficient; the miss and
    the hit threshold of each row, in units of the total, as bounds on
    acc itself: (t_up, t_lo) and (c_up + delta, c_lo - delta) over a,
    where the lower row's numerators are those of band and c + delta
    negated, and so divided by -a.
    """
    if len(sens_t) == 0:
        return np.empty(0, dtype=np.int64), None
    a = sens_t[0]
    thresholds = np.stack([band, c + delta]) / np.multiply.outer(a, _SIGN)
    size = np.abs(thresholds)
    safe = np.all((size > _NORMAL_MIN) & (size < np.inf), axis=0)
    uniform = (
        candidate
        & (a != 0.0)
        & np.all(sens_t == a, axis=0)
        & (tails / np.abs(a) <= _SCALE_CAP)
        & np.all(safe | ~live, axis=1)
    )
    return np.flatnonzero(uniform), thresholds


def _total(columns):
    """Omega of every sample: its columns added from 0.0 in _accumulate's
    order, up to the sign of a zero."""
    if len(columns) == 1:
        return columns[0]
    omega = np.add(columns[0], columns[1])
    for x_j in columns[2:]:
        np.add(omega, x_j, out=omega)
    return omega


def _tally_uniform(pairs, live, thresholds, columns, base, sens_t, limits, active):
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
                hits[sliver] = acc > limits[c, 0] if side == 0 else acc < -limits[c, 1]
                count = np.count_nonzero(hits)
            counts[c, side] = count
            if active[c]:
                flagged |= hits
    return counts, flagged


def _width(n_rows):
    """Samples per chunk when n_rows pairs are summed."""
    return min(max(_BLOCK_CELLS // n_rows, 1), _MAX_WIDTH)


def _sum_and_tally(chunks, rows, live, base, sens_t, limits, active, work, flagged=None):
    """(counts, joint) of the pairs rows over the samples of chunks.

    Each chunk is (m, width) samples of the active columns, at most
    _width(len(rows)) wide. Its sums start at base and add the products
    in _accumulate's order; work is (2, >= len(rows) * width) scratch.
    Every sum is compared with its pair's limit on each side that some
    of rows has live, in one whole-chunk compare per side; a side no
    row has live is not compared, as a row that is not live has no hit.
    A row's count in a chunk is summed in uint16, whose sum numpy runs
    fastest. flagged, if given, marks the samples already hit, in chunk
    order; they count toward joint.
    """
    counts = np.zeros((base.shape[0], 2), dtype=np.int64)
    joint = done = 0
    start, sens_cols, active_rows = base[rows, None], sens_t[:, rows, None], active[rows]
    compares = [
        (side, compare, limit)
        for side, compare, limit in ((0, np.greater, limits[rows, :1]), (1, np.less, -limits[rows, 1:]))
        if live[rows, side].any()
    ]
    hits = np.empty(work.shape, dtype=bool)
    for columns in chunks:
        shape = (rows.size, columns.shape[1])
        size = shape[0] * shape[1]
        acc = _accumulate(
            work[0, :size].reshape(shape), work[1, :size].reshape(shape), start, sens_cols, columns
        )
        for side, compare, limit in compares:
            hit = compare(acc, limit, out=hits[side, :size].reshape(shape))
            counts[rows, side] += hit.sum(axis=1, dtype=np.uint16)
        if len(compares) == 2:
            hit = np.logical_or(hits[0, :size], hits[1, :size], out=hits[0, :size]).reshape(shape)
        joint_hit = np.logical_or.reduce(hit[active_rows], axis=0)
        if flagged is not None:
            joint_hit |= flagged[done : done + shape[1]]
            done += shape[1]
        joint += int(np.count_nonzero(joint_hit))
    return counts, joint


class CountStore:
    """One sample set's dispatch-free counting state for one catalog.

    count_violations accepts a store in place of the samples, with the
    very sens and limits arrays it was built from, and counts bit for
    bit as from the samples (see "Reused sample sets"). Building it
    takes the sample columns, transposed (a view of a column-major
    draw, not a copy), and bounds the whole set once; each pair's sums
    are kept from the first count in which the pair is a candidate, and
    a count decides its samples from them, compared on live rows only.

    sens: (n_pairs, n_buses) sensitivity of each upper row to each bus.
    limits: (n_pairs, 2) right-hand sides of the upper and lower rows.
    xi: (n_samples, k) samples of the columns cols.
    cols: k ascending int64 indices of the columns of sens to accumulate.
    seed: the seed of the sample set, carried for reports.
    """

    def __init__(self, sens, limits, xi, cols, seed=None):
        self.sens, self.limits, self.cols, self.seed = sens, limits, cols, seed
        self.n_samples = xi.shape[0]
        self._sens_t = np.ascontiguousarray(sens[:, cols].T)
        self._columns = np.ascontiguousarray(xi.T)
        with np.errstate(invalid="ignore", over="ignore"):
            self._bound = _bound(self._sens_t, self._columns)
        # Row _slot[c] of _sums holds the sums of pair c, -1 until it is
        # filled; rows are taken in the order pairs first become
        # candidates. _slot_sides[r] holds the flat indices, into an
        # (n_pairs, 2) array, of the side row r's sums are kept toward
        # and of the other side.
        n_pairs = sens.shape[0]
        self._slot = np.full(n_pairs, -1)
        self._slot_sides = np.empty((n_pairs, 2), dtype=np.int64)
        self._n_filled = 0
        self._grow(min(n_pairs, _STORE_ROWS))

    def _grow(self, rows):
        """Size every buffer for rows filled pairs, keeping the sums."""
        n = self.n_samples
        sums = np.empty((rows, n))
        if self._n_filled:
            sums[: self._n_filled] = self._sums[: self._n_filled]
        self._sums = sums
        # Per side: decided samples, then sure hits.
        self._masks = np.empty((2, 2, rows, n), dtype=bool)

    def _fill(self, pairs, live):
        """Sum the samples of every pair of pairs, in one _accumulate, and
        keep each pair's sums toward the side that is live: negated where
        its lower row alone is."""
        f, k = self._n_filled, pairs.size
        if f + k > self._sums.shape[0]:
            self._grow(min(max(2 * self._sums.shape[0], f + k), self._slot.size))
        sums = self._sums[f : f + k]
        _accumulate(sums, np.empty((k, self.n_samples)), 0.0, self._sens_t[:, pairs, None], self._columns)
        lower = live[pairs, 1] & ~live[pairs, 0]
        np.negative(sums, out=sums, where=lower[:, None])
        self._slot[pairs] = np.arange(f, f + k)
        self._slot_sides[f : f + k] = 2 * pairs[:, None] + np.where(lower[:, None], [1, 0], [0, 1])
        self._n_filled = f + k

    def _decide(self, c, delta, band, live, active):
        """(counts, joint, undecided): the hits that the stored sums decide,
        and the samples they leave undecided, which hold no counted hit.

        A row decides a sample that lies in its band (a sure miss) or
        beyond c + delta (a sure hit), or that it cannot hit, on a side
        that is not live. Every filled pair is tested on both its sides,
        as the sums are kept (toward the stored side, then, negated,
        toward the other); a pair that is no candidate has no live side.
        """
        f = self._n_filled
        sums, masks = self._sums[:f], self._masks[:, :, :f]
        sides = self._slot_sides[:f]
        # Each row's miss and hit threshold per side, inf where the side
        # is not live, which no sum but NaN fails and none exceeds.
        miss_at = np.where(live, band, np.inf).take(sides)
        hit_at = np.where(live, c + delta, np.inf).take(sides)
        decided, hits = masks[0]
        np.less_equal(sums, miss_at[:, :1], out=decided)
        decided |= np.greater(sums, hit_at[:, :1], out=hits)
        # The other side of some row is live: -sum <= band, -sum > c + delta.
        other = bool(np.not_equal(miss_at[:, 1], np.inf).any())
        if other:
            decided_other, hits_other = masks[1]
            np.greater_equal(sums, -miss_at[:, 1:], out=decided_other)
            decided_other |= np.less(sums, -hit_at[:, 1:], out=hits_other)
            decided &= decided_other
        undecided = np.flatnonzero(~np.logical_and.reduce(decided, axis=0))
        hit_sides = masks[: 1 + other, 1]
        if undecided.size:
            hit_sides[:, :, undecided] = False
        counts = np.zeros(2 * self.sens.shape[0], dtype=np.int64)
        dtype = np.uint16 if self.n_samples <= _MAX_WIDTH else np.int64
        for side, side_hits in zip(sides.T, hit_sides):
            counts[side] = np.add.reduce(side_hits, axis=1, dtype=dtype)
        slot_active = active[sides[:, 0] // 2]
        if not np.logical_and.reduce(slot_active):
            hit_sides = hit_sides[:, slot_active]
        joint_hit = np.logical_or.reduce(hit_sides, axis=(0, 1))
        return counts.reshape(-1, 2), int(np.count_nonzero(joint_hit)), undecided

    def count(self, base, sens, limits, active):
        """count_violations of the stored samples."""
        if sens is not self.sens:
            raise ValueError("count store was built for other sensitivities")
        if limits is not self.limits:
            raise ValueError("count store was built for other limits")
        with np.errstate(invalid="ignore", over="ignore"):
            c, delta, band, live = _sure_miss_limits(base, limits, len(self.cols), self._bound)
            pairs = np.flatnonzero(np.logical_or.reduce(live, axis=1))
            if pairs.size == 0:
                return np.zeros((base.shape[0], 2), dtype=np.int64), 0
            new = pairs[self._slot[pairs] < 0]
            if new.size:
                self._fill(new, live)
            counts, joint, undecided = self._decide(c, delta, band, live, active)
            if undecided.size == 0:
                return counts, joint
            # Every live row of every candidate is summed again on the
            # undecided samples, from the dispatch term.
            width = _width(pairs.size)
            chunks = (
                np.take(self._columns, undecided[start : start + width], axis=1)
                for start in range(0, undecided.size, width)
            )
            work = np.empty((2, pairs.size * min(undecided.size, width)))
            tallied, tallied_joint = _sum_and_tally(chunks, pairs, live, base, self._sens_t, limits, active, work)
            return counts + tallied, joint + tallied_joint


def count_violations(base, sens, limits, xi, cols, active):
    """Count strict violations of both rows of each pair.

    For pair c the upper row violates when
    base_c + sum_j sens[c,j]*xi[k,j] > limits[c, 0], and the lower row
    when the negated sum exceeds limits[c, 1].

    base: (n_pairs,) dispatch term of each upper row.
    sens: (n_pairs, m) sensitivity of each upper row to each bus.
    limits: (n_pairs, 2) right-hand sides of the upper and lower rows.
    xi: (n_samples, k) samples of the columns cols, or a CountStore built
        from these very sens and limits arrays, which then uses its own
        samples.
    cols: k ascending int64 indices of the columns of sens to accumulate.
    active: (n_pairs,) bool mask of pairs whose rows count toward the
        joint hit.

    Returns (counts, joint): int64 violation counts of shape (n_pairs, 2),
    and the number of samples violating a row of an active pair. The
    samples are read as (columns x samples), which for a column-major xi,
    as a SampleSet keeps its draw, is xi.T itself and not a copy, and
    bounded as a whole. Only the pairs whose bound leaves their sure-miss
    band are counted, and of those only the live rows. Pairs with one
    coefficient on every column are decided from each sample's total,
    and only the samples too near a limit for the total to decide are
    summed. The others are accumulated, about _BLOCK_CELLS cells at a
    time, into a (pairs x samples) buffer, column by column in ascending
    order, and each chunk's sums are compared with the live limits of
    their pairs.
    """
    if isinstance(xi, CountStore):
        return xi.count(base, sens, limits, active)
    sens_t = np.ascontiguousarray(sens[:, cols].T)
    columns = np.ascontiguousarray(xi.T)
    # 0 * inf, overflow and the thresholds of pairs with a zero coefficient
    # follow IEEE rules: a NaN or inf is compared like any other number,
    # so numpy need not warn about them.
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        bound = _bound(sens_t, columns)
        c, delta, band, live = _sure_miss_limits(base, limits, len(cols), bound)
        candidate = np.logical_or.reduce(live, axis=1)
        if not candidate.any():
            return np.zeros((base.shape[0], 2), dtype=np.int64), 0
        pairs, thresholds = _uniform_pairs(c, delta, band, live, sens_t, bound[1], candidate)
        if pairs.size:
            counts, flagged = _tally_uniform(pairs, live, thresholds, columns, base, sens_t, limits, active)
            candidate[pairs] = False
        else:
            counts, flagged = np.zeros((base.shape[0], 2), dtype=np.int64), None
        if not candidate.any():
            return counts, int(np.count_nonzero(flagged))
        rows = np.flatnonzero(candidate)
        n, width = columns.shape[1], _width(rows.size)
        chunks = (columns[:, start : start + width] for start in range(0, n, width))
        work = np.empty((2, rows.size * min(n, width)))
        tallied, joint = _sum_and_tally(chunks, rows, live, base, sens_t, limits, active, work, flagged)
        return counts + tallied, joint
