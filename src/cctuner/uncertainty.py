"""Uncertainty specification, sampling, and moment estimation.

Distribution specs live in the coordinate space of the uncertain buses
(length u, MW units), and each draws itself and states its own exact
moments, a mixture through its components. A sample set keeps its draws
in that space, in per unit, with the nodal columns they belong to: every
other bus is exactly zero, and the nodal matrix is built only on
request. Moments are taken in the same space and embedded into the
nodal space, in per unit, with a lower-triangular covariance factor,
which the constraint tightening consumes.

Randomness comes from numpy's Philox counter-based bit generator so a
(spec, n, seed) triple reproduces bit-identical samples on any
platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GaussianSpec",
    "UniformBoxSpec",
    "MixtureSpec",
    "SampleSet",
    "MomentEstimate",
    "gaussian_from_std_corr",
    "sample",
    "empirical_moments",
    "spec_moments",
    "sensitivity_norm",
    "derive_seed",
    "sampleset_to_csv",
]

# Eigenvalue floor (relative to scale) below which an input covariance is
# rejected rather than repaired.
_SPEC_PSD_TOL = 1e-8
# Floor for sample covariances; roundoff negatives above this are clipped.
_MOMENT_PSD_TOL = 1e-10


def _frozen_array(values, shape_hint=None) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if shape_hint is not None and arr.shape != shape_hint:
        raise ValueError(f"expected shape {shape_hint}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GaussianSpec:
    """Multivariate Gaussian over the uncertain buses (MW, MW^2). The
    positive-semidefiniteness check keeps its covariance factor, which
    every draw uses, so every spec that constructs can be drawn from."""

    mean_mw: np.ndarray
    covariance_mw2: np.ndarray
    _factor_mw: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mean = _frozen_array(self.mean_mw)
        if mean.ndim != 1:
            raise ValueError("mean must be a vector")
        cov = _frozen_array(self.covariance_mw2, (mean.size, mean.size))
        object.__setattr__(self, "mean_mw", mean)
        object.__setattr__(self, "covariance_mw2", cov)
        _require_finite_moments(self)
        if not np.allclose(cov, cov.T, atol=1e-12 * max(1.0, np.abs(cov).max(initial=0.0))):
            raise ValueError("covariance must be symmetric")
        try:
            _, factor = _repair_and_factor(cov, _SPEC_PSD_TOL)
        except ValueError as exc:
            raise ValueError(f"covariance is not positive semidefinite: {exc}") from None
        object.__setattr__(self, "_factor_mw", factor)

    @property
    def dim(self) -> int:
        return self.mean_mw.size

    def _draw_mw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        draw = rng.standard_normal((n, self.dim)) @ self._factor_mw.T
        # mean + draw one column at a time, into a column-major array (see
        # SampleSet): numpy's inner loop then runs down the n samples, not
        # across the few buses. Into a new array, as the broadcast did:
        # adding in place measured 0.9 MB more peak RSS on the score
        # benchmark, from how the allocator reuses memory.
        out = np.empty(draw.shape, order="F")
        for j in range(self.dim):
            np.add(self.mean_mw[j], draw[:, j], out=out[:, j])
        return out

    def _moments_mw(self) -> tuple[np.ndarray, np.ndarray]:
        return self.mean_mw, self.covariance_mw2


@dataclass(frozen=True)
class UniformBoxSpec:
    """Independent per-bus uniform draws on [lower, upper] MW."""

    lower_mw: np.ndarray
    upper_mw: np.ndarray

    def __post_init__(self):
        lower = _frozen_array(self.lower_mw)
        upper = _frozen_array(self.upper_mw, lower.shape)
        if np.any(lower > upper):
            raise ValueError("lower bound exceeds upper bound")
        object.__setattr__(self, "lower_mw", lower)
        object.__setattr__(self, "upper_mw", upper)
        _require_finite_moments(self)

    @property
    def dim(self) -> int:
        return self.lower_mw.size

    def _draw_mw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        draw = rng.random((n, self.dim))
        # lower + u * (upper - lower), a column at a time (see GaussianSpec).
        out = np.empty(draw.shape, order="F")
        for j, column in enumerate(out.T):
            np.multiply(draw[:, j], self.upper_mw[j] - self.lower_mw[j], out=column)
            np.add(self.lower_mw[j], column, out=column)
        return out

    def _moments_mw(self) -> tuple[np.ndarray, np.ndarray]:
        return 0.5 * (self.lower_mw + self.upper_mw), np.diag((self.upper_mw - self.lower_mw) ** 2 / 12.0)


@dataclass(frozen=True)
class MixtureSpec:
    """Finite mixture; weights must sum to one."""

    components: tuple

    def __post_init__(self):
        comps = tuple((float(w), spec) for w, spec in self.components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        if any(w < 0.0 or w > 1.0 for w, _ in comps):
            raise ValueError("mixture weights must lie in [0, 1]")
        if abs(sum(w for w, _ in comps) - 1.0) > 1e-9:
            raise ValueError("mixture weights must sum to 1")
        dims = {spec.dim for _, spec in comps}
        if len(dims) != 1:
            raise ValueError("mixture components disagree on dimension")
        object.__setattr__(self, "components", comps)
        _require_finite_moments(self)

    @property
    def dim(self) -> int:
        return self.components[0][1].dim

    def _draw_mw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # Multinomial component assignment via one uniform per sample:
        # its label counts the cumulative weights at or below it, all but
        # the last, which stands for 1.0, above every uniform.
        edges = np.cumsum([w for w, _ in self.components])
        u = rng.random(n)
        labels = np.zeros(n, dtype=np.intp)
        for e in edges[:-1]:
            labels += e <= u
        out = np.empty((n, self.dim), order="F")
        for k, (_, comp) in enumerate(self.components):
            idx = np.flatnonzero(labels == k)
            if idx.size:
                out[idx] = comp._draw_mw(idx.size, rng)
        return out

    def _moments_mw(self) -> tuple[np.ndarray, np.ndarray]:
        mean = np.zeros(self.dim)
        second = np.zeros((self.dim, self.dim))
        for w, comp in self.components:
            mu, cov = comp._moments_mw()
            mean += w * mu
            second += w * (cov + np.outer(mu, mu))
        return mean, second - np.outer(mean, mean)


def gaussian_from_std_corr(std_mw, correlation: float) -> GaussianSpec:
    """Zero-mean Gaussian from per-bus standard deviations and one common
    pairwise correlation coefficient. A negative deviation is a
    ValueError: it would flip the sign of its bus's correlations."""
    std = np.asarray(std_mw, dtype=float)
    if np.any(std < 0.0):
        raise ValueError(f"standard deviations must be nonnegative, got {', '.join(map(str, std))}")
    # An overflow leaves an inf, which GaussianSpec rejects.
    with np.errstate(over="ignore"):
        cov = correlation * np.outer(std, std)
        np.fill_diagonal(cov, std**2)
    return GaussianSpec(mean_mw=np.zeros_like(std), covariance_mw2=cov)


@dataclass(frozen=True)
class SampleSet:
    """n per-unit disturbance samples, kept as their drawn columns.

    Column j of the (n, k) draw is nodal column uncertain_columns[j];
    every other of the n_buses columns is exactly zero, and samples
    builds that nodal matrix on request. The draw is kept column-major
    (a draw given in another layout is copied), so each column's samples
    are contiguous, as the counting kernel reads them; the random
    numbers are still generated sample by sample. The columns must be
    strictly ascending integers below n_buses, one per draw column
    (ValueError otherwise). seed is None for a set not drawn by sample().
    """

    draw: np.ndarray
    uncertain_columns: np.ndarray
    n_buses: int
    seed: int | None = None

    def __post_init__(self):
        columns = np.asarray(self.uncertain_columns)
        # A cast that changes a value (7.9 -> 7, NaN) is caught below.
        with np.errstate(invalid="ignore"):
            cols = columns.astype(np.int64)
        for name, arr in (("draw", np.asarray(self.draw, dtype=float, order="F")), ("uncertain_columns", cols)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.draw.ndim != 2 or self.draw.shape[1] != cols.size:
            raise ValueError(f"draw must be 2-D with one column per uncertain column, got {self.draw.shape}")
        if cols.ndim != 1:
            raise ValueError("uncertain_columns must be 1-D")
        if cols.size and not (
            np.array_equal(cols, columns)
            and cols[0] >= 0
            and cols[-1] < self.n_buses
            and np.all(cols[1:] > cols[:-1])
        ):
            raise ValueError(
                f"uncertain_columns must be strictly ascending integer indices below "
                f"{self.n_buses}, got {columns.tolist()}"
            )

    @property
    def n_samples(self) -> int:
        return self.draw.shape[0]

    @property
    def samples(self) -> np.ndarray:
        """The (n, n_buses) nodal sample matrix, built on each call."""
        full = np.zeros((self.n_samples, self.n_buses))
        full[:, self.uncertain_columns] = self.draw
        return full


@dataclass(frozen=True)
class MomentEstimate:
    """Mean, covariance, and a lower-triangular covariance factor, in pu.

    chol_factor satisfies chol @ chol.T = covariance; both are exactly
    zero outside the rows and columns of the uncertain buses.
    """

    mean: np.ndarray
    covariance: np.ndarray
    chol_factor: np.ndarray

    def __post_init__(self):
        for name in ("mean", "covariance", "chol_factor"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def derive_seed(base: int, *path: int) -> int:
    """Deterministic child seed for a named stream position.

    The same (base, path) always maps to the same 64-bit seed, and
    distinct paths decorrelate, so replications and sample roles
    (tuning vs out-of-sample) can never collide.
    """
    ss = np.random.SeedSequence([int(base), *(int(p) for p in path)])
    return int(ss.generate_state(1, np.uint64)[0])


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _triangular_psd_factor(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L@L.T = V diag(w) Vᵀ, for eigenvalues w ≥ 0.

    The stock Cholesky rejects rank-deficient matrices, so build the
    eigenvector square root V·sqrt(w) first and re-triangularize it with
    a QR factorization (right-multiplying a square root by an orthogonal
    matrix leaves L·Lᵀ unchanged).
    """
    f = v * np.sqrt(w)
    r = np.linalg.qr(f.T, mode="r")
    return r.T * np.where(np.diag(r) < 0.0, -1.0, 1.0)


def _repair_and_factor(cov: np.ndarray, reject_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrize, clip tiny negative eigenvalues, factor.

    Returns (repaired covariance, lower-triangular factor). Raises
    ValueError when the matrix is indefinite beyond roundoff.
    """
    sym = 0.5 * (cov + cov.T)
    if sym.size == 0:
        return sym, sym.copy()
    w, v = np.linalg.eigh(sym)
    if float(w.min()) < -(reject_tol * max(float(w.max()), 0.0) + 1e-300):
        raise ValueError(f"covariance has negative eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    repaired = (v * w) @ v.T
    return 0.5 * (repaired + repaired.T), _triangular_psd_factor(w, v)


def _nodal_moments(mean, cov, reject_tol: float, cols, n_buses: int) -> MomentEstimate:
    """Repair and factor a covariance over the uncertain columns cols,
    and embed it, its factor and mean into the n_buses nodal space."""
    cov, factor = _repair_and_factor(cov, reject_tol)
    nodal_mean = np.zeros(n_buses)
    nodal_cov, nodal_factor = np.zeros((2, n_buses, n_buses))
    nodal_mean[cols] = mean
    nodal_cov[np.ix_(cols, cols)] = cov
    nodal_factor[np.ix_(cols, cols)] = factor
    return MomentEstimate(mean=nodal_mean, covariance=nodal_cov, chol_factor=nodal_factor)


def _uncertain_columns(spec, case) -> np.ndarray:
    """The 0-based columns of the case's uncertain buses, where spec's
    coordinates embed into the nodal space; ValueError unless spec has
    one coordinate per uncertain bus."""
    uncertain = case.uncertain_buses
    if spec.dim != len(uncertain):
        raise ValueError(
            f"spec dimension {spec.dim} does not match {len(uncertain)} uncertain buses"
        )
    return np.array(uncertain, dtype=np.int64) - 1


def sample(spec, n: int, seed: int, case) -> SampleSet:
    """Draw n disturbance vectors for the case's uncertain buses.

    Deterministic for fixed (spec, n, seed). The spec's dimension must
    equal the number of flagged buses; draws are converted MW -> pu.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    cols = _uncertain_columns(spec, case)
    draw = spec._draw_mw(n, _rng(seed)) / case.base_mva
    return SampleSet(draw=draw, uncertain_columns=cols, n_buses=case.n_buses, seed=seed)


def empirical_moments(s: SampleSet) -> MomentEstimate:
    """Sample mean and unbiased (N-1) covariance of a sample set, in pu."""
    # Reduced in row-major order, in which the mean and the covariance
    # product sum their terms in the order they always have.
    x = np.ascontiguousarray(s.draw)
    if x.shape[0] < 2:
        raise ValueError("need at least two samples for an unbiased covariance")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (x.shape[0] - 1)
    return _nodal_moments(mean, cov, _MOMENT_PSD_TOL, s.uncertain_columns, s.n_buses)


def _require_finite_moments(spec) -> None:
    """ValueError unless spec's exact mean and covariance are finite, so
    that a spec too wide for floats fails when it is built."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean, cov = spec._moments_mw()
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
        raise ValueError(f"{type(spec).__name__} has a mean or covariance that is not finite")


def spec_moments(spec, case) -> MomentEstimate:
    """Exact distribution moments embedded into the nodal space, in pu."""
    cols = _uncertain_columns(spec, case)
    mean_mw, cov_mw = spec._moments_mw()
    # Factored anew: the MW factor scaled by 1/base would round differently.
    return _nodal_moments(mean_mw / case.base_mva, cov_mw / case.base_mva**2, _SPEC_PSD_TOL, cols, case.n_buses)


def sensitivity_norm(a: np.ndarray, moments: MomentEstimate) -> float:
    """sqrt(a Σ aᵀ), evaluated as the Euclidean norm of a @ chol_factor."""
    a = np.asarray(a, dtype=float)
    if a.shape != (moments.chol_factor.shape[0],):
        raise ValueError(
            f"row length {a.shape} does not match moment dimension {moments.chol_factor.shape[0]}"
        )
    return float(np.linalg.norm(a @ moments.chol_factor))


def sampleset_to_csv(s: SampleSet, case) -> str:
    """One sample per row, columns = buses, MW units, 12 significant digits."""
    mw = s.samples * case.base_mva
    return "\n".join(",".join(f"{v:.12g}" for v in row) for row in mw) + "\n"
