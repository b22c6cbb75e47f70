"""Distribution core: moment oracle, sampling determinism, text round-trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, ndtri

from momsand import dist_core as dc
from momsand.errors import DegenerateZeroError, InvalidOrderError


def riesz_moment_oracle(q: float) -> float:
    # E (1 + cos U)^q = 2^q Gamma(q + 1/2) / (Gamma(q + 1) sqrt(pi))
    return 2.0**q * math.exp(gammaln(q + 0.5) - gammaln(q + 1.0)) / math.sqrt(math.pi)


def test_two_point_moments_closed_form():
    spec = dc.two_point(0.5, 1.5, 0.5)
    est = dc.abs_moment(spec, 1.0)
    assert est.value == pytest.approx(1.0, abs=1e-15)
    assert est.method == dc.FINITE_SUM
    assert est.abs_error == 0.0
    for q in (0.3, 1.0, 2.0, 3.7):
        expected = 0.5 * 0.5**q + 0.5 * 1.5**q
        assert dc.abs_moment(spec, q).value == pytest.approx(expected, rel=1e-15)


def test_finite_moments_match_fsum():
    spec = dc.finitely_supported([(0.2, 0.25), (1.0, 0.5), (3.0, 0.25)])
    for q in (0.5, 1.0, 2.0):
        expected = 0.25 * 0.2**q + 0.5 * 1.0**q + 0.25 * 3.0**q
        assert dc.abs_moment(spec, q).value == pytest.approx(expected, rel=1e-15)


def test_uniform_moments():
    spec = dc.uniform(0.0, 2.0)
    assert dc.abs_moment(spec, 1.0).value == pytest.approx(1.0, abs=1e-12)
    assert dc.abs_moment(spec, 2.0).value == pytest.approx(4.0 / 3.0, rel=1e-12)
    # straddling zero: E|X| on U(-1, 2) is (1/3)(1/2 + 2)
    spec2 = dc.uniform(-1.0, 2.0)
    assert dc.abs_moment(spec2, 1.0).value == pytest.approx(5.0 / 6.0, rel=1e-12)


def test_lognormal_and_exponential_moments():
    spec = dc.log_normal(0.0, 0.5)
    assert dc.abs_moment(spec, 2.0).value == pytest.approx(math.exp(0.5), rel=1e-12)
    spec2 = dc.exponential(2.0)
    expected = math.exp(gammaln(2.5)) / 2.0**1.5
    assert dc.abs_moment(spec2, 1.5).value == pytest.approx(expected, rel=1e-12)


def test_riesz_factor_moments_vs_gamma_oracle():
    spec = dc.riesz_factor()
    for q in (0.15, 0.5, 1.0, 2.0, 2.7, 3.0, 5.0, 7.3):
        est = dc.abs_moment(spec, q)
        assert est.method == dc.QUADRATURE
        assert est.value == pytest.approx(riesz_moment_oracle(q), rel=1e-12)
    assert dc.abs_moment(spec, 1.0).value == pytest.approx(1.0, rel=1e-13)
    assert dc.abs_moment(spec, 2.0).value == pytest.approx(1.5, rel=1e-13)
    assert dc.abs_moment(spec, 3.0).value == pytest.approx(2.5, rel=1e-13)


def test_scaled_copy_moment_scaling():
    base = dc.two_point(0.5, 1.5, 0.5)
    scaled = dc.scaled_copy(base, -2.0)
    for q in (0.5, 1.0, 3.0):
        assert dc.abs_moment(scaled, q).value == pytest.approx(
            2.0**q * dc.abs_moment(base, q).value, rel=1e-15
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
        assert dc.abs_moment(normed, p).value == pytest.approx(1.0, abs=1e-12)
        assert scale == pytest.approx(dc.abs_moment(spec, p).value ** (-1.0 / p))


def test_normalize_degenerate_zero():
    spec = dc.finitely_supported([(0.0, 1.0)])
    with pytest.raises(DegenerateZeroError):
        dc.normalize_unit_p_moment(spec, 1.0)


def test_degenerate_modulus_detection():
    assert dc.is_degenerate_modulus(dc.rademacher_sign(), 1.0)
    assert dc.is_degenerate_modulus(dc.finitely_supported([(1.0, 1.0)]), 2.0)
    assert not dc.is_degenerate_modulus(dc.two_point(0.5, 1.5, 0.5), 1.0)
    assert not dc.is_degenerate_modulus(dc.uniform(0.0, 2.0), 1.0)


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
    # the binary-search inverse CDF the comparison ladder must reproduce bit for bit
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


LADDER_LAWS = {
    **{f"{k}_atoms": _atoms_law(k) for k in (2, 3, 4, 32, 33, 64)},
    "twopoint": dc.two_point(0.5, 1.5, 0.3),
    "rademacher": dc.rademacher_sign(),
    "scaled_negative": dc.scaled_copy(_atoms_law(5), -0.75),
}


@pytest.mark.parametrize("law", sorted(LADDER_LAWS))
def test_finite_quantile_matches_searchsorted(law):
    spec = LADDER_LAWS[law]
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
    return 1.0 - np.cos(np.pi * u)


SAMPLED_LAWS = {
    **{f"{k}_atoms": _atoms_law(k) for k in (2, 5, 32, 33, 34)},
    "scaled_atoms_negative": dc.scaled_copy(_atoms_law(5), -0.75),
    "uniform": dc.uniform(-1.0, 2.0),
    "lognormal": dc.log_normal(0.1, 0.7),
    "exponential": dc.exponential(2.5),
    "riesz": dc.riesz_factor(),
    "rademacher": dc.rademacher_sign(),
    "scaled_uniform_negative": dc.scaled_copy(dc.uniform(0.0, 2.0), -1.5),
    "scaled_lognormal": dc.scaled_copy(dc.log_normal(0.0, 0.5), 2.0),
}


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

    src = dc.RandomSource(5, 2)
    drawn = dc.sample(spec, shape, src.generator(block=3))
    assert drawn.tobytes() == _plain_quantile(spec, src.generator(block=3).random(shape)).tobytes()
    into = dc.sample(spec, shape, src.generator(block=3), out=buf[:700])
    assert into.tobytes() == drawn.tobytes()
    assert np.shares_memory(into, buf)


def test_quantile_rejects_an_out_it_cannot_fill():
    u = np.linspace(0.0, 0.9, 10)
    for out in (np.empty(9), np.empty(20)[::2]):
        with pytest.raises(ValueError, match="C-contiguous"):
            dc.quantile(dc.uniform(0.0, 1.0), u, out=out)


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
    value, err = dc.expect(spec, lambda x: abs(x - 0.5), breaks=[0.5])
    # integral of |x - 1/2| / 2 over [0, 2]
    assert value == pytest.approx((0.125 + 1.125) / 2.0, rel=1e-12)
    assert err < 1e-9


def test_expect_finite_and_scaled():
    spec = dc.two_point(0.5, 1.5, 0.5)
    value, err = dc.expect(spec, lambda x: x * x)
    assert value == pytest.approx(1.25, rel=1e-15)
    assert err == 0.0
    flipped = dc.scaled_copy(spec, -1.0)
    value2, _ = dc.expect(flipped, lambda x: x)
    assert value2 == pytest.approx(-1.0, rel=1e-15)


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
    assert dc.abs_moment(spec, 1.0).value == pytest.approx(
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
