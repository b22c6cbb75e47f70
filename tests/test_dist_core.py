"""Distribution core: moment oracle, sampling determinism, text round-trips."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, ndtri

from momsand import dist_core as dc
from momsand.assumptions import DEFAULT_A_GRID_LARGE, DEFAULT_A_GRID_SMALL
from momsand.errors import DegenerateZeroError, InvalidOrderError


def riesz_moment_oracle(q: float) -> float:
    # E (1 + cos U)^q = 2^q Gamma(q + 1/2) / (Gamma(q + 1) sqrt(pi))
    return 2.0**q * math.exp(gammaln(q + 0.5) - gammaln(q + 1.0)) / math.sqrt(math.pi)


def test_two_point_moments_closed_form():
    spec = dc.two_point(0.5, 1.5, 0.5)
    assert dc.abs_moment(spec, 1.0) == pytest.approx(1.0, abs=1e-15)
    for q in (0.3, 1.0, 2.0, 3.7):
        expected = 0.5 * 0.5**q + 0.5 * 1.5**q
        assert dc.abs_moment(spec, q) == pytest.approx(expected, rel=1e-15)


def test_finite_moments_match_fsum():
    spec = dc.finitely_supported([(0.2, 0.25), (1.0, 0.5), (3.0, 0.25)])
    for q in (0.5, 1.0, 2.0):
        expected = 0.25 * 0.2**q + 0.5 * 1.0**q + 0.25 * 3.0**q
        assert dc.abs_moment(spec, q) == pytest.approx(expected, rel=1e-15)


def test_uniform_moments():
    spec = dc.uniform(0.0, 2.0)
    assert dc.abs_moment(spec, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert dc.abs_moment(spec, 2.0) == pytest.approx(4.0 / 3.0, rel=1e-12)
    # straddling zero: E|X| on U(-1, 2) is (1/3)(1/2 + 2)
    spec2 = dc.uniform(-1.0, 2.0)
    assert dc.abs_moment(spec2, 1.0) == pytest.approx(5.0 / 6.0, rel=1e-12)


def test_lognormal_and_exponential_moments():
    spec = dc.log_normal(0.0, 0.5)
    assert dc.abs_moment(spec, 2.0) == pytest.approx(math.exp(0.5), rel=1e-12)
    spec2 = dc.exponential(2.0)
    expected = math.exp(gammaln(2.5)) / 2.0**1.5
    assert dc.abs_moment(spec2, 1.5) == pytest.approx(expected, rel=1e-12)


def test_riesz_factor_moments_vs_gamma_oracle():
    spec = dc.riesz_factor()
    for q in (0.15, 0.5, 1.0, 2.0, 2.7, 3.0, 5.0, 7.3):
        assert dc.abs_moment(spec, q) == pytest.approx(riesz_moment_oracle(q), rel=1e-12)
    assert dc.abs_moment(spec, 1.0) == pytest.approx(1.0, rel=1e-13)
    assert dc.abs_moment(spec, 2.0) == pytest.approx(1.5, rel=1e-13)
    assert dc.abs_moment(spec, 3.0) == pytest.approx(2.5, rel=1e-13)


def _max_rel_error(values, exact) -> float:
    return max(float(abs(mpmath.mpf(v) / e - 1)) for v, e in zip(values, exact))


@pytest.mark.parametrize("lo, hi, bound", [(0.01, 12.0, 4e-15), (12.0, 170.0, 4e-14),
                                           (170.0, 1023.0, 4e-12)])
def test_riesz_factor_moment_accuracy_vs_mpmath(lo, hi, bound):
    spec = dc.riesz_factor()
    qs = [float(q) for q in np.linspace(lo, hi, 1001)]
    with mpmath.workdps(40):
        exact = [
            2 ** mpmath.mpf(q) * mpmath.gamma(mpmath.mpf(q) + 0.5)
            / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(mpmath.mpf(q) + 1))
            for q in qs
        ]
        assert _max_rel_error([dc.abs_moment(spec, q) for q in qs], exact) <= bound


def test_riesz_factor_moment_is_correctly_rounded_at_integer_order():
    spec = dc.riesz_factor()
    assert [dc.abs_moment(spec, q) for q in (1.0, 2.0, 3.0)] == [1.0, 1.5, 2.5]
    for k in range(1, 61):
        assert dc.abs_moment(spec, float(k)) == float(Fraction(math.comb(2 * k, k), 2**k))


def test_riesz_quantile_accuracy_vs_mpmath():
    # 1 - cos(pi u) cancels near u = 0: in floats it reads 0.0 at u = 2^-30 and is off by
    # 6e15 ulp at 1e-9; the half-angle form is within a few ulp on all of [0, 1)
    spec = dc.riesz_factor()
    rng = np.random.default_rng(11)
    edges = [2.0**-53, 1e-9, 2.0**-30, 0.5 - 2.0**-53, 0.5, 0.5 + 2.0**-53, 1.0 - 2.0**-53]
    us = [*edges, *rng.random(2000), *np.exp(rng.uniform(math.log(2.0**-53), 0.0, 2500))]
    got = dc.quantile(spec, np.array(us))
    assert dc.quantile(spec, 2.0**-30) > 0.0
    with mpmath.workdps(80):  # 1 - cos(pi u) loses 32 of them at u = 2^-53
        worst = max(
            float(abs(mpmath.mpf(float(g)) - e) / math.ulp(float(e)))
            for g, e in zip(got, (1 - mpmath.cos(mpmath.pi * mpmath.mpf(float(u))) for u in us))
        )
    assert worst <= 4.0


def test_riesz_quantile_is_monotone():
    spec = dc.riesz_factor()
    u = np.sort(np.random.default_rng(12).random(10**6))
    assert np.all(np.diff(dc.quantile(spec, u)) >= 0.0)
    # across the switch to 2 - 2 sin^2 at u = 1/2 and at the ends of [0, 1)
    edges = np.array([0.0, 2.0**-53, 0.5 - 2.0**-53, 0.5, 0.5 + 2.0**-53, 1.0 - 2.0**-53])
    assert np.all(np.diff(dc.quantile(spec, edges)) > 0.0)


@pytest.mark.parametrize("rate", [0.7, 1.0, 2.0])
def test_exponential_moment_accuracy_vs_mpmath(rate):
    spec = dc.exponential(rate)
    # the grid holds lgamma's worst point, q = 31.422145 at rate 0.7 (3.2e-14)
    qs = [float(q) for q in np.linspace(0.01, 40.0, 2001)]
    with mpmath.workdps(40):
        exact = [mpmath.gamma(mpmath.mpf(q) + 1) / mpmath.mpf(rate) ** mpmath.mpf(q) for q in qs]
        assert _max_rel_error([dc.abs_moment(spec, q) for q in qs], exact) <= 3.5e-14


def test_scaled_copy_moment_scaling():
    base = dc.two_point(0.5, 1.5, 0.5)
    scaled = dc.scaled_copy(base, -2.0)
    for q in (0.5, 1.0, 3.0):
        assert dc.abs_moment(scaled, q) == pytest.approx(
            2.0**q * dc.abs_moment(base, q), rel=1e-15
        )


def test_invalid_order_rejected():
    with pytest.raises(InvalidOrderError):
        dc.abs_moment(dc.two_point(0.5, 1.5, 0.5), 0.0)
    with pytest.raises(InvalidOrderError):
        dc.abs_moment(dc.riesz_factor(), -1.0)


def test_normalize_unit_p_moment():
    spec = dc.two_point(1.0, 3.0, 0.5)
    for p in (0.5, 1.0, 2.0):
        normed, scale = dc.normalize_unit_p_moment(spec, p)
        assert dc.abs_moment(normed, p) == pytest.approx(1.0, abs=1e-12)
        assert scale == pytest.approx(dc.abs_moment(spec, p) ** (-1.0 / p))


def test_normalize_degenerate_zero():
    spec = dc.finitely_supported([(0.0, 1.0)])
    with pytest.raises(DegenerateZeroError):
        dc.normalize_unit_p_moment(spec, 1.0)


def test_quantile_finite_support_masses():
    spec = dc.finitely_supported([(0.5, 0.25), (1.5, 0.5), (2.5, 0.25)])
    u = np.linspace(0.0005, 0.9995, 2000)
    q = dc.quantile(spec, u)
    assert set(np.unique(q)) == {0.5, 1.5, 2.5}
    assert np.mean(q == 0.5) == pytest.approx(0.25, abs=0.01)
    assert np.mean(q == 1.5) == pytest.approx(0.5, abs=0.01)
    # monotone in u
    assert np.all(np.diff(q) >= 0.0)


def test_quantile_families_monotone():
    u = np.linspace(0.001, 0.999, 500)
    for spec in (
        dc.uniform(-1.0, 2.0),
        dc.log_normal(0.1, 0.7),
        dc.exponential(1.5),
        dc.riesz_factor(),
        dc.scaled_copy(dc.exponential(1.0), -1.0),
    ):
        q = dc.quantile(spec, u)
        assert np.all(np.isfinite(q))
        diffs = np.diff(q)
        # negative scale flips the direction, monotone either way
        assert np.all(diffs >= -1e-12) or np.all(diffs <= 1e-12)


def test_riesz_quantile_range():
    u = np.linspace(0.0, 1.0, 101)
    q = dc.quantile(dc.riesz_factor(), u)
    assert q.min() >= 0.0 and q.max() <= 2.0
    assert dc.quantile(dc.riesz_factor(), 0.5) == pytest.approx(1.0, abs=1e-12)


def _searchsorted_quantile(spec, u):
    # the plain binary-search inverse CDF, which the chunked gather must reproduce
    # bit for bit
    if spec.family == dc.SCALED:
        inner = u if spec.scale >= 0.0 else 1.0 - u
        return spec.scale * _searchsorted_quantile(spec.base, inner)
    vals, probs = dc.finite_support(spec)
    order = np.argsort(vals, kind="stable")
    cum = np.cumsum(probs[order])[:-1]
    return vals[order][np.searchsorted(cum, u, side="right")]


def _atoms_law(k):
    rng = np.random.default_rng(k)
    # unsorted values, a repeated one from four atoms on, unequal probabilities
    vals = rng.normal(size=k)
    if k >= 4:
        vals[-1] = vals[0]
    weights = rng.uniform(0.5, 2.0, size=k)
    return dc.finitely_supported(zip(vals, weights / weights.sum()))


FINITE_LAWS = {
    **{f"{k}_atoms": _atoms_law(k) for k in (2, 3, 4, 32, 33, 64)},
    "twopoint": dc.two_point(0.5, 1.5, 0.3),
    "rademacher": dc.rademacher_sign(),
    "scaled_negative": dc.scaled_copy(_atoms_law(5), -0.75),
}


@pytest.mark.parametrize("law", sorted(FINITE_LAWS))
def test_finite_quantile_matches_searchsorted(law):
    spec = FINITE_LAWS[law]
    base = spec.base if spec.family == dc.SCALED else spec
    vals, probs = dc.finite_support(base)
    cuts = np.cumsum(probs[np.argsort(vals, kind="stable")])[:-1]
    edges = np.concatenate(
        [[0.0, np.nextafter(1.0, 0.0)], cuts, np.nextafter(cuts, 0.0)]
    )
    u = np.concatenate([edges, np.random.default_rng(7).random(10**5)])
    u_before = u.copy()
    got = dc.quantile(spec, u)
    assert got.tobytes() == _searchsorted_quantile(spec, u).tobytes()
    assert np.array_equal(u, u_before)
    # a scalar u still gives a scalar
    one = dc.quantile(spec, 0.25)
    assert np.ndim(one) == 0 and one == _searchsorted_quantile(spec, np.array([0.25]))[0]


def _plain_quantile(spec, u):
    # one fresh array per operation: the in-place maps must reproduce these bits
    if spec.family == dc.SCALED:
        return spec.scale * _plain_quantile(spec.base, u if spec.scale >= 0.0 else 1.0 - u)
    if dc.finite_support(spec) is not None:
        return _searchsorted_quantile(spec, u)
    if spec.family == dc.UNIFORM:
        return u * (spec.hi - spec.lo) + spec.lo
    if spec.family == dc.LOGNORMAL:
        return np.exp(ndtri(u) * spec.sigma + spec.mu)
    if spec.family == dc.EXPONENTIAL:
        return -np.log1p(-u) / spec.rate
    assert spec.family == dc.RIESZ_FACTOR
    return 2.0 * np.abs(np.sin(np.abs(u - (u > 0.5)) * (np.pi / 2.0)) ** 2 - (u > 0.5))


QUARTERS = dc.finitely_supported([(2.0, 0.25), (-1.0, 0.5), (0.5, 0.25)])
EIGHTHS = dc.finitely_supported([(0.3, 0.125), (-2.0, 0.25), (1.0, 0.5), (-0.7, 0.125)])

SAMPLED_LAWS = {
    **{f"{k}_atoms": _atoms_law(k) for k in (2, 5, 32, 33, 34)},
    "scaled_atoms_negative": dc.scaled_copy(_atoms_law(5), -0.75),
    "eighths": EIGHTHS,
    "scaled_quarters_negative": dc.scaled_copy(QUARTERS, -1.5),
    "twopoint_pa_0.3": dc.two_point(0.5, 1.5, 0.3),
    "at_2^-9": dc.finitely_supported([(1.0, 2.0**-9), (2.0, 1.0 - 2.0**-9)]),
    "uniform": dc.uniform(-1.0, 2.0),
    "lognormal": dc.log_normal(0.1, 0.7),
    "exponential": dc.exponential(2.5),
    "riesz": dc.riesz_factor(),
    "rademacher": dc.rademacher_sign(),
    "scaled_uniform_negative": dc.scaled_copy(dc.uniform(0.0, 2.0), -1.5),
    "scaled_lognormal": dc.scaled_copy(dc.log_normal(0.0, 0.5), 2.0),
}


def _reference_draws(spec, shape, gen):
    """sample's contract by its letter, in one call over all the draws: one uniform
    per draw, mapped through the quantile."""
    return _plain_quantile(spec, gen.random(shape))


@pytest.mark.parametrize("law", sorted(SAMPLED_LAWS))
def test_in_place_sampling_matches_fresh_arrays(law):
    spec = SAMPLED_LAWS[law]
    # 70,000 draws: two full gather chunks and a partial third
    shape = (700, 100)
    u = np.random.default_rng(3).random(shape)
    u_before = u.copy()
    want = _plain_quantile(spec, u).tobytes()
    assert dc.quantile(spec, u).tobytes() == want
    assert u.tobytes() == u_before.tobytes()
    buf = np.full((1000, 100), np.nan)
    assert dc.quantile(spec, u, out=buf[:700]).tobytes() == want
    aliased = u.copy()
    assert dc.quantile(spec, aliased, out=aliased).tobytes() == want

    # every law, the dyadic ones (rademacher, eighths, scaled_quarters_negative)
    # among them, draws one uniform each
    src = dc.RandomSource(5, 2)
    drawn = dc.sample(spec, shape, src.generator(block=3))
    assert drawn.tobytes() == _reference_draws(spec, shape, src.generator(block=3)).tobytes()
    into = dc.sample(spec, shape, src.generator(block=3), out=buf[:700])
    assert into.tobytes() == drawn.tobytes()
    assert np.shares_memory(into, buf)


@pytest.mark.parametrize("spec, closed", [
    (dc.uniform(-1.0, 2.0), True),
    (dc.exponential(2.5), True),
    (dc.scaled_copy(dc.exponential(2.5), 1.5), True),
    (dc.scaled_copy(dc.uniform(0.0, 2.0), -1.5), False),
    (dc.log_normal(0.1, 0.7), False),
    (dc.riesz_factor(), False),
    (QUARTERS, False),
], ids=["uniform", "exponential", "scaled", "scaled_negative", "lognormal", "riesz", "quarters"])
def test_quantile_poly_is_the_quantile_in_u_and_l(spec, closed):
    poly = dc.quantile_poly(spec)
    assert (poly is not None) == closed
    if closed:
        u = np.linspace(0.0, 0.99, 100)
        value = sum(c * u**t * (-np.log1p(-u)) ** k for (t, k), c in poly.items())
        np.testing.assert_allclose(value, dc.quantile(spec, u), rtol=1e-14, atol=1e-15)


def test_quantile_rejects_an_out_it_cannot_fill():
    u = np.linspace(0.0, 0.9, 10)
    for out in (np.empty(9), np.empty(20)[::2]):
        with pytest.raises(ValueError, match="C-contiguous"):
            dc.quantile(dc.uniform(0.0, 1.0), u, out=out)


FREQUENCY_LAWS = {
    "twopoint_half": dc.two_point(0.5, 1.5, 0.5),
    "quarters_unsorted": QUARTERS,
    "eighths": EIGHTHS,
}


@pytest.mark.parametrize("law", sorted(FREQUENCY_LAWS))
def test_finite_draw_frequencies(law):
    spec = FREQUENCY_LAWS[law]
    draws = 10**6
    x = dc.sample(spec, draws, dc.RandomSource(17, 3).generator())
    vals, probs = dc.finite_support(spec)
    assert np.isin(x, vals).all()
    for v, pr in zip(vals, probs):
        # each count is Binomial(draws, pr); 5 standard deviations
        sd = math.sqrt(draws * pr * (1.0 - pr))
        assert abs(np.count_nonzero(x == v) - draws * pr) <= 5.0 * sd


@pytest.mark.parametrize("spec", [dc.rademacher_sign(), dc.uniform(0.0, 1.0)], ids=["rademacher", "uniform"])
def test_sample_rejects_an_out_it_cannot_fill(spec):
    with pytest.raises(ValueError, match="contiguous"):
        dc.sample(spec, 10, dc.RandomSource(1).generator(), out=np.empty(20)[::2])


def test_sampling_determinism_and_stream_separation():
    spec = dc.two_point(0.5, 1.5, 0.5)
    src = dc.RandomSource(123, 0)
    a = dc.sample(spec, 1000, src.generator())
    b = dc.sample(spec, 1000, src.generator())
    assert np.array_equal(a, b)
    c = dc.sample(spec, 1000, dc.RandomSource(123, 1).generator())
    assert not np.array_equal(a, c)
    d = dc.sample(spec, 1000, src.generator(block=1))
    assert not np.array_equal(a, d)


def test_expect_kinked_integrand():
    spec = dc.uniform(0.0, 2.0)
    # E|X - 1/2|: the integral of |x - 1/2| / 2 over [0, 2]
    assert dc.expect(spec, 1.0, 0.5) == pytest.approx((0.125 + 1.125) / 2.0, rel=1e-15)


def test_expect_finite_and_scaled():
    spec = dc.two_point(0.5, 1.5, 0.5)
    assert dc.expect(spec, 2.0) == 1.25
    flipped = dc.scaled_copy(spec, -1.0)
    assert dc.expect(flipped, 1.0) == 1.0
    # only the atom 1.5 lies in the window 1 < |X| <= 2: 0.5 * |1.5 - 1|
    assert dc.expect(flipped, 1.0, 1.0, 1.0, 2.0) == 0.25


# the benchmark's continuous certify laws; each is normalized at every CERTIFY_PS
CERTIFY_CONTINUOUS = (
    "riesz",
    "lognormal:mu=0,sigma=0.5",
    "exponential:rate=1",
    "uniform:lo=0,hi=2",
    "scaled:scale=2,base=(uniform:lo=0,hi=1)",
)
CERTIFY_PS = (0.5, 0.9, 1.25, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 8.5)


def _truncated_moment_mp(base: dc.DistributionSpec, k, lo, hi):
    """E Y^k 1{lo < Y <= hi} for a nonnegative continuous base law Y, in mpmath."""
    if base.family == dc.UNIFORM:
        lo, hi = max(lo, mpmath.mpf(base.lo)), min(hi, mpmath.mpf(base.hi))
        if lo >= hi:
            return mpmath.mpf(0)
        return (hi ** (k + 1) - lo ** (k + 1)) / ((k + 1) * (mpmath.mpf(base.hi) - base.lo))
    if base.family == dc.EXPONENTIAL:
        rate = mpmath.mpf(base.rate)
        return mpmath.gammainc(k + 1, rate * lo, rate * hi) / rate**k
    if base.family == dc.RIESZ_FACTOR:
        # Y / 2 is Beta(1/2, 1/2)
        lo, hi = min(lo / 2, 1), min(hi / 2, 1)
        half = mpmath.mpf(0.5)
        return (2**k * mpmath.betainc(k + half, half, lo, hi) / mpmath.pi)
    if base.family == dc.LOGNORMAL:
        mu, sigma = mpmath.mpf(base.mu), mpmath.mpf(base.sigma)

        def z(x):
            if x == 0:
                return -mpmath.inf
            return (mpmath.log(x) - mu) / sigma - k * sigma

        z_lo, z_hi = z(lo), z(hi)
        # erfc of the side away from the centre, so that tails keep their digits
        if z_lo >= 0:
            mass = (mpmath.erfc(z_lo / mpmath.sqrt(2)) - mpmath.erfc(z_hi / mpmath.sqrt(2))) / 2
        else:
            mass = (mpmath.erfc(-z_hi / mpmath.sqrt(2)) - mpmath.erfc(-z_lo / mpmath.sqrt(2))) / 2
        return mpmath.exp(k * mu + k * k * sigma * sigma / 2) * mass
    raise AssertionError(base.family)


def expect_mp(spec: dc.DistributionSpec, r, shift=0.0, a=-1.0, b=math.inf):
    """E|(sY)^r - shift| 1{a < (sY)^r <= b} for spec = sY, s > 0, at 40 digits."""
    with mpmath.workdps(40):
        s, r, shift = mpmath.mpf(spec.scale), mpmath.mpf(r), mpmath.mpf(shift)
        y_of = lambda t: mpmath.mpf(max(t, 0.0)) ** (1 / r) / s  # noqa: E731
        y_lo, y_split, y_hi = y_of(a), y_of(shift), y_of(b)
        total = mpmath.mpf(0)
        if y_lo < min(y_split, y_hi):
            lo, hi = y_lo, min(y_split, y_hi)
            total += (shift * _truncated_moment_mp(spec.base, 0, lo, hi)
                      - s**r * _truncated_moment_mp(spec.base, r, lo, hi))
        if max(y_lo, y_split) < y_hi:
            lo, hi = max(y_lo, y_split), y_hi
            total += (s**r * _truncated_moment_mp(spec.base, r, lo, hi)
                      - shift * _truncated_moment_mp(spec.base, 0, lo, hi))
        return total


def _fitter_shapes(spec, p):
    """(name, r, shift, a, b) of every expect call the fitters make on spec at p."""
    m1 = dc.expect(spec, 1.0)
    shapes = [("E|X|", 1.0, 0.0, -1.0, math.inf), ("mu", 1.0, m1, -1.0, math.inf)]
    if p > 1.0:
        norm_p = dc.abs_moment(spec, p) ** (1.0 / p)
        shapes += [(f"tail {a}", 1.0, m1, a * norm_p, math.inf) for a in DEFAULT_A_GRID_LARGE]
    else:
        m = dc.abs_moment(spec, p)
        shapes += [(f"delta {a}", p, m, m, a * m) for a in DEFAULT_A_GRID_SMALL]
    return shapes


# measured maxima on this grid: 9.7e-17, 5.2e-16, 1.0e-14 (lognormal and exponential
# tails at A = 20) and 1.2e-13 (exponential, p = 0.9, A = 1.1: the narrow window
# E(|X|^p - m) over E|X|^p cancels about twentyfold)
EXPECT_BOUNDS = {"E|X|": 4e-16, "mu": 2e-15, "tail": 4e-14, "delta": 5e-13}


def test_expect_matches_mpmath_on_the_fitters_shapes():
    worst = dict.fromkeys(EXPECT_BOUNDS, 0.0)
    for law in CERTIFY_CONTINUOUS:
        for p in CERTIFY_PS:
            spec, _ = dc.normalize_unit_p_moment(dc.parse_spec(law), p)
            for name, r, shift, a, b in _fitter_shapes(spec, p):
                exact, value = expect_mp(spec, r, shift, a, b), dc.expect(spec, r, shift, a, b)
                if exact == 0:  # a bounded law with no mass past the level
                    assert value == 0.0, (law, p, name)
                    continue
                with mpmath.workdps(40):
                    err = float(abs(mpmath.mpf(value) / exact - 1))
                kind = name.split()[0]
                worst[kind] = max(worst[kind], err)
    assert all(worst[kind] <= bound for kind, bound in EXPECT_BOUNDS.items()), worst


# the shapes expect hands the incomplete functions on the certify laws: a = k + 1
# for the exponential law and a = k + 1/2, b = 1/2 for the Riesz factor, at k = 0, 1, p
GAMMA_SHAPES = sorted({(a,) for p in CERTIFY_PS for a in (1.0, 2.0, p + 1.0)})
BETA_SHAPES = sorted({(a, 0.5) for p in CERTIFY_PS for a in (0.5, 1.5, p + 0.5)})
# a geometric grid through the bulk, then decades into tails near 1e-300
BULK = [10.0 ** (k / 4) for k in range(-12, 12)]
GAMMA_XS = [10.0**-k for k in range(301, 3, -8)] + BULK + [10.0**3, 700.0, 720.0, 745.0]
BETA_XS = ([10.0**-k for k in range(301, 3, -8)] + [x for x in BULK if x < 1.0]
           + [1.0 - 10.0 ** (-k / 2) for k in range(1, 27)] + [1.0 - 1e-13])


def _worst_relative_error(fn, exact, shapes, xs):
    """Largest relative error of fn(*shape, x, upper) against the 40-digit exact value."""
    worst = 0.0
    with mpmath.workdps(40):
        for shape in shapes:
            for x in xs:
                for upper in (False, True):
                    got, want = fn(*shape, x, upper), exact(*shape, x, upper)
                    if want < 1e-300:  # below the normal floats
                        assert got < 1e-290, (shape, x, upper)
                        continue
                    worst = max(worst, float(abs(got / want - 1)))
    return worst


def _gamma_mp(a, x, upper):
    lower = mpmath.gammainc(a, 0, x, regularized=True)
    if not upper:
        return lower
    # 1 - P keeps 40 digits while P < 1/2, and mpmath is slow on Q near 1
    return 1 - lower if lower < 0.5 else mpmath.gammainc(a, x, mpmath.inf, regularized=True)


def _beta_mp(a, b, x, upper):
    return mpmath.betainc(a, b, *((x, 1) if upper else (0, x)), regularized=True)


def test_gamma_inc_matches_mpmath():
    # measured maximum 1.7e-15; scipy.special.gammainc reads 1.1e-13 on this grid
    # (a = 2.5, x = 1e-117) and gammaincc 4.0e-14 at x = 720
    worst = _worst_relative_error(dc.gamma_inc, _gamma_mp, GAMMA_SHAPES, GAMMA_XS)
    assert worst <= 3e-15, worst


def test_beta_inc_matches_mpmath():
    # measured maximum 2.9e-15; scipy.special.betainc is 1.1e-10 off at
    # a = 1/2, x = 1 - 1e-13
    worst = _worst_relative_error(dc.beta_inc, _beta_mp, BETA_SHAPES, BETA_XS)
    assert worst <= 5e-15, worst


def test_incomplete_functions_are_exact_at_the_edges():
    for a in (0.5, 1.0, 9.5):
        assert (dc.gamma_inc(a, 0.0), dc.gamma_inc(a, 0.0, upper=True)) == (0.0, 1.0)
        assert (dc.gamma_inc(a, math.inf), dc.gamma_inc(a, math.inf, upper=True)) == (1.0, 0.0)
        for x, lower in ((0.0, 0.0), (1.0, 1.0), (1.5, 1.0), (math.inf, 1.0)):
            assert dc.beta_inc(a, 0.5, x) == lower
            assert dc.beta_inc(a, 0.5, x, upper=True) == 1.0 - lower
    # a nan never settles the steps: an error, not an endless loop
    with pytest.raises(ArithmeticError):
        dc.gamma_inc(2.0, math.nan)
    with pytest.raises(ArithmeticError):
        dc.beta_inc(2.0, 0.5, math.nan)


def test_finite_support_contents():
    vals, probs = dc.finite_support(dc.two_point(0.5, 1.5, 0.25))
    assert list(vals) == [0.5, 1.5]
    assert list(probs) == [0.25, 0.75]
    vals, probs = dc.finite_support(dc.rademacher_sign())
    assert list(vals) == [-1.0, 1.0]
    assert list(probs) == [0.5, 0.5]
    vals, _ = dc.finite_support(dc.scaled_copy(dc.two_point(0.5, 1.5, 0.5), 2.0))
    assert list(vals) == [1.0, 3.0]
    assert dc.finite_support(dc.uniform(0.0, 1.0)) is None


def test_spec_text_round_trips():
    specs = [
        dc.two_point(0.5, 1.5, 0.5),
        dc.finitely_supported([(0.2, 0.25), (1.0, 0.5), (3.0, 0.25)]),
        dc.uniform(-1.0, 2.0),
        dc.log_normal(0.1, 0.7),
        dc.exponential(2.5),
        dc.riesz_factor(),
        dc.rademacher_sign(),
        dc.scaled_copy(dc.two_point(0.5, 1.5, 0.5), 0.8164965809277261),
    ]
    for spec in specs:
        text = dc.spec_to_text(spec)
        assert dc.parse_spec(text) == spec


# one spec of every family with its text form; the reports print these texts
SPEC_TEXTS = {
    dc.TWO_POINT: (dc.two_point(0.5, 1.5, 0.25), "twopoint:a=0.5,b=1.5,pa=0.25"),
    dc.FINITE: (dc.finitely_supported([(0.5, 0.25), (2, 0.75)]), "finite:atoms=0.5@0.25|2.0@0.75"),
    dc.UNIFORM: (dc.uniform(0, 2), "uniform:lo=0.0,hi=2.0"),
    dc.LOGNORMAL: (dc.log_normal(0, 0.5), "lognormal:mu=0.0,sigma=0.5"),
    dc.EXPONENTIAL: (dc.exponential(1), "exponential:rate=1.0"),
    dc.RIESZ_FACTOR: (dc.riesz_factor(), "riesz"),
    dc.RADEMACHER: (dc.rademacher_sign(), "rademacher"),
    dc.SCALED: (
        dc.scaled_copy(dc.two_point(0.5, 1.5, 0.25), -2),
        "scaled:scale=-2.0,base=(twopoint:a=0.5,b=1.5,pa=0.25)",
    ),
}


@pytest.mark.parametrize("family", dc.FAMILIES)
def test_every_family_text_round_trips(family):
    spec, text = SPEC_TEXTS[family]
    assert spec.family == family
    assert dc.spec_to_text(spec) == text
    assert dc.parse_spec(text) == spec


def test_nested_scaled_text_composes_the_scales():
    spec = dc.parse_spec("scaled:scale=2,base=(scaled:scale=3,base=(uniform:lo=0,hi=1))")
    assert spec == dc.scaled_copy(dc.uniform(0, 1), 6)
    assert dc.parse_spec(dc.spec_to_text(spec)) == spec


def test_parse_spec_errors():
    for bad in (
        "nosuchfamily:a=1",
        "twopoint:a=0.5",
        "twopoint:a=0.5,b=1.5,pa=1.5",
        "uniform:lo=2,hi=1",
        "finite:atoms=1@0.5|2@0.6",
        "garbage",
    ):
        with pytest.raises(ValueError):
            dc.parse_spec(bad)


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(0.05, 0.95),
    b=st.floats(1.05, 8.0),
    pa=st.floats(0.05, 0.95),
)
def test_two_point_round_trip_property(a, b, pa):
    spec = dc.two_point(a, b, pa)
    assert dc.parse_spec(dc.spec_to_text(spec)) == spec
    assert dc.abs_moment(spec, 1.0) == pytest.approx(
        a * pa + b * (1.0 - pa), rel=1e-14
    )


def test_generator_block_determinism():
    src = dc.RandomSource(99, 5)
    g1 = src.generator(block=3).random(8)
    g2 = src.generator(block=3).random(8)
    g3 = src.generator(block=4).random(8)
    assert np.array_equal(g1, g2)
    assert not np.array_equal(g1, g3)
    child = src.child(2)
    assert child.seed == 99 and child.stream_id == 7
