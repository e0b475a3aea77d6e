"""Sampling determinism, moment estimation, and tightening norms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cctuner import apply_rts_modifications, load_rts_case, parse_case, uncertainty
from cctuner.uncertainty import (
    GaussianSpec,
    MixtureSpec,
    MomentEstimate,
    SampleSet,
    UniformBoxSpec,
    derive_seed,
    empirical_moments,
    gaussian_from_std_corr,
    sample,
    sampleset_to_csv,
    sensitivity_norm,
    spec_moments,
    _repair_and_factor,
)

ONE_UNCERTAIN = """
base 100
bus 1 0 uncertain
bus 2 20
line 1 2 0.1 100
gen 2 0 40 0.01 10 0
"""


@pytest.fixture(scope="module")
def rts():
    return apply_rts_modifications(load_rts_case())


@pytest.fixture(scope="module")
def gauss_vb():
    # Study distribution: std 9.4 and 13.1 MW, correlation 0.2.
    return gaussian_from_std_corr([9.4, 13.1], 0.2)


def mixture_vc():
    return MixtureSpec(
        components=(
            (1 / 3, gaussian_from_std_corr([7.0, 14.0], 0.5)),
            (1 / 3, gaussian_from_std_corr([6.0, 6.0], 0.1)),
            (1 / 3, UniformBoxSpec(lower_mw=[-30.0, -30.0], upper_mw=[30.0, 30.0])),
        )
    )


def test_gaussian_sample_statistics(rts, gauss_vb):
    s = sample(gauss_vb, 100_000, 42, rts)
    assert s.samples.shape == (100_000, 24)
    mw = s.samples[:, [7, 14]] * rts.base_mva
    std = mw.std(axis=0, ddof=1)
    assert abs(std[0] - 9.4) <= 0.02 * 9.4
    assert abs(std[1] - 13.1) <= 0.02 * 13.1
    corr = np.corrcoef(mw.T)[0, 1]
    assert 0.18 <= corr <= 0.22


def test_non_uncertain_columns_exactly_zero(rts, gauss_vb):
    s = sample(gauss_vb, 1000, 7, rts)
    certain = [i for i in range(24) if i not in (7, 14)]
    assert np.all(s.samples[:, certain] == 0.0)


def test_point_mass_gaussian():
    case = parse_case(ONE_UNCERTAIN)
    spec = GaussianSpec(mean_mw=[5.0], covariance_mw2=[[0.0]])
    s = sample(spec, 50, 3, case)
    assert np.all(s.samples[:, 0] == 0.05)


def test_seed_determinism_and_sensitivity(rts, gauss_vb):
    a = sample(gauss_vb, 500, 99, rts)
    b = sample(gauss_vb, 500, 99, rts)
    assert np.array_equal(a.samples, b.samples)
    c = sample(gauss_vb, 500, 100, rts)
    assert not np.array_equal(a.samples, c.samples)


def test_mixture_multinomial_assignment():
    case = parse_case(ONE_UNCERTAIN)
    # Point masses at distinct values make component assignments observable.
    spec = MixtureSpec(
        components=tuple(
            (1 / 3, GaussianSpec(mean_mw=[v], covariance_mw2=[[0.0]]))
            for v in (100.0, 200.0, 300.0)
        )
    )
    n = 9999
    s = sample(spec, n, 11, case)
    values = s.samples[:, 0]
    counts = [int(np.sum(values == v)) for v in (1.0, 2.0, 3.0)]
    assert sum(counts) == n
    # Binomial concentration: 3 sigma around n/3 with sigma = sqrt(n/3 * 2/3).
    sigma = np.sqrt(n * (1 / 3) * (2 / 3))
    for c in counts:
        assert abs(c - n / 3) <= 3 * sigma


def broadcast_draw(spec, n, rng):
    """A spec's draw by whole-array expressions: the mean or lower bound
    broadcast across each row, mixture labels by np.searchsorted."""
    if isinstance(spec, GaussianSpec):
        return spec.mean_mw + rng.standard_normal((n, spec.dim)) @ spec._factor_mw.T
    if isinstance(spec, UniformBoxSpec):
        return spec.lower_mw + rng.random((n, spec.dim)) * (spec.upper_mw - spec.lower_mw)
    edges = np.cumsum([w for w, _ in spec.components])
    edges[-1] = 1.0
    labels = np.searchsorted(edges, rng.random(n), side="right")
    out = np.empty((n, spec.dim))
    for k, (_, comp) in enumerate(spec.components):
        idx = np.flatnonzero(labels == k)
        if idx.size:
            out[idx] = broadcast_draw(comp, idx.size, rng)
    return out


@pytest.mark.parametrize("n", [1, 7, 10_000])
def test_each_spec_draws_bit_for_bit_what_whole_array_expressions_draw(n):
    # The specs add and scale one column at a time; each element must
    # come out as the broadcast expression computes it, laid out
    # column-major, as a SampleSet keeps its draw.
    gauss = GaussianSpec(mean_mw=[3.5, -1.25, 0.1], covariance_mw2=[[4.0, 1.0, 0.0], [1.0, 9.0, 2.0], [0.0, 2.0, 1.0]])
    box = UniformBoxSpec(lower_mw=[-30.0, -7.3, 0.0], upper_mw=[30.0, 11.9, 1e-3])
    # An unrounded weight and one of zero put equal and uneven edges in
    # the label search.
    mixture = MixtureSpec(components=((0.1, gauss), (0.0, box), (0.2, box), (0.7, gauss)))
    for spec in (gauss, box, mixture, mixture_vc()):
        for seed in (0, 1, 20_201, 2**63):
            draw = spec._draw_mw(n, uncertainty._rng(seed))
            expected = broadcast_draw(spec, n, uncertainty._rng(seed))
            assert draw.shape == expected.shape and draw.flags.f_contiguous
            assert draw.tobytes() == expected.tobytes()


def test_mixture_moments_match_empirical(rts):
    spec = mixture_vc()
    true = spec_moments(spec, rts)
    emp = empirical_moments(sample(spec, 100_000, 21, rts))
    idx = np.ix_([7, 14], [7, 14])
    rel = np.linalg.norm(emp.covariance[idx] - true.covariance[idx]) / np.linalg.norm(
        true.covariance[idx]
    )
    assert rel <= 0.03


def test_uniform_spec_moments():
    case = parse_case(ONE_UNCERTAIN)
    spec = UniformBoxSpec(lower_mw=[-30.0], upper_mw=[30.0])
    mom = spec_moments(spec, case)
    assert mom.mean[0] == 0.0
    assert mom.covariance[0, 0] == pytest.approx(60.0**2 / 12.0 / 100.0**2)


def test_empirical_moments_all_zero():
    s = SampleSet(draw=np.zeros((10, 3)), uncertain_columns=[0, 1, 2], n_buses=3, seed=0)
    mom = empirical_moments(s)
    assert np.all(mom.mean == 0.0)
    assert np.all(mom.covariance == 0.0)
    assert np.all(mom.chol_factor == 0.0)


def test_empirical_moments_two_samples_unbiased():
    s = SampleSet(draw=np.array([[1.0], [-1.0]]), uncertain_columns=[0], n_buses=2, seed=0)
    mom = empirical_moments(s)
    assert np.all(mom.mean == 0.0)
    # Unbiased divisor N-1 = 1 gives variance 2 at the first coordinate.
    assert mom.covariance[0, 0] == pytest.approx(2.0)
    assert np.all(mom.covariance[1] == 0.0)


def test_empirical_covariance_concentrates(rts, gauss_vb):
    true = spec_moments(gauss_vb, rts)
    idx = np.ix_([7, 14], [7, 14])
    denom = np.linalg.norm(true.covariance[idx])
    for seed in range(20):
        emp = empirical_moments(sample(gauss_vb, 100_000, derive_seed(5, seed), rts))
        rel = np.linalg.norm(emp.covariance[idx] - true.covariance[idx]) / denom
        assert rel <= 0.03


def test_sensitivity_norm_basics():
    ident = MomentEstimate(mean=np.zeros(3), covariance=np.eye(3), chol_factor=np.eye(3))
    assert sensitivity_norm(np.zeros(3), ident) == 0.0
    assert sensitivity_norm(np.array([3.0, 4.0, 0.0]), ident) == pytest.approx(5.0)


def test_total_mismatch_norm(rts, gauss_vb):
    mom = spec_moments(gauss_vb, rts)
    got = sensitivity_norm(np.ones(24), mom)
    oracle = np.sqrt(9.4**2 + 13.1**2 + 2 * 0.2 * 9.4 * 13.1) / 100.0
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(0.1759, abs=2e-4)


@st.composite
def psd_problem(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    flat = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
    b = np.array(draw(st.lists(st.lists(flat, min_size=n, max_size=n), min_size=n, max_size=n)))
    a = np.array(draw(st.lists(flat, min_size=n, max_size=n)))
    return b @ b.T, a


@given(psd_problem())
@settings(max_examples=200, deadline=None)
def test_factor_choice_invariance(problem):
    cov, a = problem
    cov_rep, factor = _repair_and_factor(cov, 1e-8)
    mom = MomentEstimate(mean=np.zeros(len(a)), covariance=cov_rep, chol_factor=factor)
    via_chol = sensitivity_norm(a, mom)
    direct = float(np.sqrt(max(a @ cov_rep @ a, 0.0)))
    assert via_chol == pytest.approx(direct, rel=1e-10, abs=1e-10)


@given(psd_problem(), st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_sensitivity_norm_homogeneity(problem, c):
    cov, a = problem
    cov_rep, factor = _repair_and_factor(cov, 1e-8)
    mom = MomentEstimate(mean=np.zeros(len(a)), covariance=cov_rep, chol_factor=factor)
    assert sensitivity_norm(c * a, mom) == pytest.approx(
        abs(c) * sensitivity_norm(a, mom), rel=1e-12, abs=1e-12
    )


def test_derive_seed_stable_and_distinct():
    assert derive_seed(123, 1, 0) == derive_seed(123, 1, 0)
    seen = {derive_seed(123, s, r) for s in (1, 2) for r in range(50)}
    assert len(seen) == 100


def test_csv_round_trip(rts, gauss_vb):
    s = sample(gauss_vb, 200, 8, rts)
    text = sampleset_to_csv(s, rts)
    back = np.array([[float(v) for v in row.split(",")] for row in text.splitlines()]) / rts.base_mva
    np.testing.assert_allclose(back, s.samples, rtol=1e-11, atol=1e-16)
    certain = [i for i in range(24) if i not in (7, 14)]
    assert np.all(back[:, certain] == 0.0)


def test_spec_validation_errors(rts):
    with pytest.raises(ValueError, match="positive semidefinite"):
        GaussianSpec(mean_mw=[0.0, 0.0], covariance_mw2=[[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError, match="sum to 1"):
        MixtureSpec(components=((0.5, gaussian_from_std_corr([1.0, 1.0], 0.0)),))
    with pytest.raises(ValueError, match="lower bound"):
        UniformBoxSpec(lower_mw=[1.0], upper_mw=[0.0])
    with pytest.raises(ValueError, match="uncertain buses"):
        sample(gaussian_from_std_corr([1.0], 0.0), 10, 0, rts)
    with pytest.raises(ValueError, match="at least one sample"):
        sample(gaussian_from_std_corr([1.0, 1.0], 0.0), 0, 0, rts)
    # A negative deviation would run as the opposite correlation: -9.4
    # with 0.2 gives the covariance of 9.4 with -0.2.
    with pytest.raises(ValueError, match="standard deviations must be nonnegative, got -9.4, 13.1"):
        gaussian_from_std_corr([-9.4, 13.1], 0.2)
    signed_zero = gaussian_from_std_corr([-0.0, 13.1], 0.2).covariance_mw2
    assert np.array_equal(signed_zero, gaussian_from_std_corr([0.0, 13.1], 0.2).covariance_mw2)


def test_specs_whose_exact_moments_overflow_are_rejected():
    # Finite parameters, but a variance or second moment beyond floats.
    with pytest.raises(ValueError, match="GaussianSpec .* not finite"):
        gaussian_from_std_corr([1e200, 13.1], 0.2)
    with pytest.raises(ValueError, match="GaussianSpec .* not finite"):
        GaussianSpec(mean_mw=[np.inf], covariance_mw2=[[1.0]])
    with pytest.raises(ValueError, match="UniformBoxSpec .* not finite"):
        UniformBoxSpec(lower_mw=[-30.0], upper_mw=[1e308])
    far = [GaussianSpec(mean_mw=[m], covariance_mw2=[[1.0]]) for m in (-1e200, 1e200)]
    with pytest.raises(ValueError, match="MixtureSpec .* not finite"):
        MixtureSpec(components=((0.5, far[0]), (0.5, far[1])))


def test_every_gaussian_spec_that_constructs_can_be_sampled(rts):
    # Construction keeps the factor its positive-semidefiniteness check
    # builds, and every draw uses it; spec_moments() factors the per-unit
    # covariance by the same rule. Eigenvalues (2e-6, -1e-10) MW² once
    # passed construction and then failed to sample.
    rotation = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)

    def covariance(low):
        return (rotation * [2e-6, low]) @ rotation.T

    with pytest.raises(ValueError, match="positive semidefinite"):
        GaussianSpec(mean_mw=[0.0, 0.0], covariance_mw2=covariance(-1e-10))
    spec = GaussianSpec(mean_mw=[0.0, 0.0], covariance_mw2=covariance(-1e-15))
    assert sample(spec, 10, 1, rts).draw.shape == (10, 2)
    assert np.all(np.linalg.eigvalsh(spec_moments(spec, rts).covariance) >= 0.0)

    # No uncertain bus: the empty spec constructs, samples and has
    # all-zero moments.
    empty = gaussian_from_std_corr([], 0.0)
    case = parse_case("base 100\nbus 1 0\nbus 2 20\nline 1 2 0.1 100\ngen 1 0 40 0.01 10 0\n")
    drawn = sample(empty, 10, 1, case)
    assert drawn.draw.shape == (10, 0) and not drawn.samples.any()
    moments = spec_moments(empty, case)
    assert not moments.covariance.any() and not moments.chol_factor.any()


def test_a_built_gaussian_spec_draws_without_factoring_again(rts, monkeypatch):
    gaussian = gaussian_from_std_corr([9.4, 13.1], 0.2)
    mixture = MixtureSpec(components=((0.5, gaussian), (0.5, gaussian_from_std_corr([7.0, 14.0], 0.5))))
    before = [sample(spec, 500, 3, rts).draw for spec in (gaussian, mixture)]

    def refuse(*args):
        raise AssertionError("a built spec factored its covariance again")

    monkeypatch.setattr(uncertainty, "_repair_and_factor", refuse)
    for spec, draw in zip((gaussian, mixture), before):
        assert np.array_equal(sample(spec, 500, 3, rts).draw, draw)


def test_sample_set_columns_must_be_strictly_ascending_and_in_range():
    # A repeated column would be summed twice by every count.
    def sample_set(cols):
        return SampleSet(np.zeros((4, np.size(cols))), cols, 24)

    assert sample_set([7, 14]).uncertain_columns.tolist() == [7, 14]
    assert sample_set([]).uncertain_columns.size == 0
    for cols in ([7, 7, 14], [14, 7], [-1], [24], [7.9, 14.2]):
        with pytest.raises(ValueError, match="strictly ascending"):
            sample_set(cols)
    with pytest.raises(ValueError, match="1-D"):
        SampleSet(np.zeros((4, 2)), [[7, 14]], 24)
    with pytest.raises(ValueError, match="2-D"):
        SampleSet(np.zeros(2), [7, 14], 24)


@pytest.mark.parametrize("width", [0, 1, 3])
def test_sample_set_draw_must_have_one_column_per_uncertain_column(width):
    with pytest.raises(ValueError, match="one column per uncertain column"):
        SampleSet(np.zeros((4, width)), [7, 14], 24)


def test_nodal_samples_hold_the_draw_and_positive_zeros(rts, gauss_vb):
    s = sample(gauss_vb, 500, 12, rts)
    assert s.draw.shape == (500, 2) and s.n_buses == 24
    full = s.samples
    assert full.shape == (500, 24)
    # Bit for bit: the same float64 patterns, signed zeros included.
    assert full[:, [7, 14]].tobytes() == s.draw.tobytes()
    rest = np.delete(full, [7, 14], axis=1)
    assert not np.any(rest) and not np.any(np.signbit(rest))
    # The nodal matrix is built afresh on each request, from the draw.
    assert s.samples is not full and np.array_equal(s.samples, full)
