"""Certificate fitters: anchors, degeneracy paths, and the one-step lemmas."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from momsand import dist_core as dc
from momsand.assumptions import (
    PairSpec,
    check_pair_nondegeneracy,
    default_q_grid,
    delta_window,
    draw_pair,
    fit_large_p,
    fit_small_p,
    large_p_parts,
    verify_large_p,
    verify_small_p,
)
from momsand.errors import (
    DegenerateModulusError,
    EmptyWindowError,
    NotNormalizedError,
    NoValidQError,
)

TWO_POINT = dc.two_point(0.5, 1.5, 0.5)  # E|X|^1 = 1 already
# E X^2 = (0.36 + 1.64)/2 = 1, so this one is normalized for p = 2
LARGE_SPEC = dc.two_point(0.6, math.sqrt(1.64), 0.5)


def test_small_p_certificate_anchor():
    cert = fit_small_p(TWO_POINT, 1.0)
    # lambda = (sqrt(0.5) + sqrt(1.5)) / 2
    assert cert.lam == pytest.approx(0.9659258262890682, abs=1e-15)
    assert cert.a_param == 1.5
    assert cert.delta == pytest.approx(0.25, abs=1e-12)
    assert cert.margins["lambda_gap"] == pytest.approx(1.0 - cert.lam)


def test_small_p_delta_window_flat_in_a():
    # the only window mass sits at |X| = 1.5, so every A >= 1.5 gives 0.25
    for a_param in (1.5, 2.0, 5.0, 10.0):
        assert delta_window(TWO_POINT, 1.0, a_param) == pytest.approx(0.25, abs=1e-12)
    assert delta_window(TWO_POINT, 1.0, 1.25) == pytest.approx(0.0, abs=1e-15)


def test_small_p_explicit_a_empty_window():
    with pytest.raises(EmptyWindowError):
        fit_small_p(TWO_POINT, 1.0, a_param=1.25)


def test_small_p_uniform_quadrature_cross_check():
    spec, scale = dc.normalize_unit_p_moment(dc.uniform(0.0, 2.0), 0.5)
    cert = fit_small_p(spec, 0.5, a_param=2.0)
    hi = 2.0 * scale  # the normalized law is U(0, 2*scale)
    m = dc.abs_moment(spec, 0.5)
    assert m == pytest.approx(1.0, abs=1e-12)

    def integrand(x):
        ax = math.sqrt(x)
        return (ax - m) if m <= ax <= 2.0 * m else 0.0

    oracle, _ = quad(
        integrand, 0.0, hi, points=[m**2, min(hi, (2.0 * m) ** 2)], limit=200
    )
    oracle /= hi
    assert cert.delta == pytest.approx(oracle, rel=1e-9)


def test_small_p_requires_normalization():
    with pytest.raises(NotNormalizedError):
        fit_small_p(dc.two_point(1.0, 3.0, 0.5), 1.0)


def test_small_p_degenerate_modulus():
    with pytest.raises(DegenerateModulusError):
        fit_small_p(dc.rademacher_sign(), 1.0)
    with pytest.raises(DegenerateModulusError):
        fit_small_p(dc.finitely_supported([(1.0, 1.0)]), 0.5)


def test_large_p_certificate_anchor():
    cert = fit_large_p(LARGE_SPEC, 2.0)
    assert cert.mu == pytest.approx(0.3403124237432849, abs=1e-14)
    assert cert.a_param == 1.5  # two atoms below 1.5: zero tail at the first grid A
    assert cert.lam_chain == (pytest.approx(0.9403124237432849, abs=1e-14),)
    assert 0.0 < cert.lam < 1.0
    # lambda(q) = (E X^q)^{1/q} increases in q, so the smallest grid q wins
    assert cert.q == pytest.approx(min(default_q_grid(2.0)))
    assert cert.margins["tail_slack"] >= 0.0
    assert cert.margins["chain_gap_min"] == pytest.approx(1.0 - 0.9403124237432849)


def test_large_p_chain_length_follows_p():
    spec, _ = dc.normalize_unit_p_moment(dc.uniform(0.2, 1.8), 3.2)
    cert = fit_large_p(spec, 3.2)
    assert len(cert.lam_chain) == 3
    assert all(0.0 < lam < 1.0 for lam in cert.lam_chain)


def test_large_p_degenerate_and_grid_errors():
    with pytest.raises(DegenerateModulusError):
        fit_large_p(dc.finitely_supported([(1.0, 1.0)]), 2.0)
    with pytest.raises(NoValidQError):
        fit_large_p(LARGE_SPEC, 2.0, q_grid=[0.5, 2.5])
    with pytest.raises(NotNormalizedError):
        fit_large_p(dc.two_point(1.0, 3.0, 0.5), 2.0)


def test_default_q_grid_interior():
    grid = default_q_grid(2.0)
    assert len(grid) == 9
    assert all(1.0 < q < 2.0 for q in grid)
    grid = default_q_grid(3.5)
    assert all(2.5 < q < 3.5 for q in grid)


def test_verify_small_p_slack():
    cert = fit_small_p(TWO_POINT, 1.0)
    checks = verify_small_p(TWO_POINT, cert)
    assert abs(checks["lambda_slack"]) <= 1e-9
    assert abs(checks["delta_gap"]) <= 1e-9


def test_verify_large_p_slack():
    cert = fit_large_p(LARGE_SPEC, 2.0)
    checks = verify_large_p(LARGE_SPEC, cert)
    for key, slack in checks.items():
        if key.endswith("_slack"):
            assert slack >= -1e-9, key


def affine_truncated_moment(
    spec: dc.DistributionSpec, p: float, u: float, v: float, cut: float
):
    """E|uX + v|^p 1{|X| <= cut}, the quantity behind the one-step lower bounds,
    as a finite sum over the atoms of spec."""
    vals, probs = dc.finite_support(spec)
    return math.fsum(pr * abs(u * x + v) ** p for x, pr in zip(vals, probs) if abs(x) <= cut)


def test_one_step_window_lower_bound():
    # E|uX + v|^p 1{|X|^p <= A} >= delta * max(|u|, |v|)^p on a small grid
    cert = fit_small_p(TWO_POINT, 1.0)
    cut = cert.a_param  # p = 1: |X|^p <= A means |X| <= A
    for u in (-2.0, -1.0, 0.0, 1.0, 2.0):
        for v in (-2.0, -1.0, 0.0, 1.0, 2.0):
            if u == 0.0 and v == 0.0:
                continue
            value = affine_truncated_moment(TWO_POINT, 1.0, u, v, cut)
            floor = cert.delta * max(abs(u), abs(v))
            assert value >= floor - 1e-12, (u, v)


def test_one_step_modulus_lower_bound():
    cert = fit_large_p(LARGE_SPEC, 2.0)
    p = 2.0
    m1 = dc.expect(LARGE_SPEC, 1.0)
    scale = (cert.mu**p / 8.0**p) * min(1.0, m1 ** (-p))
    for u in (-2.0, -1.0, 0.0, 1.0, 2.0):
        for v in (-2.0, -1.0, 0.0, 1.0, 2.0):
            if u == 0.0 and v == 0.0:
                continue
            value = affine_truncated_moment(LARGE_SPEC, p, u, v, cert.a_param)
            floor = scale * max(abs(u), abs(v)) ** p
            assert value >= floor - 1e-12, (u, v)


def test_pair_spec_validation():
    with pytest.raises(ValueError):
        PairSpec(x_spec=dc.rademacher_sign(), b_specs=(TWO_POINT,))
    with pytest.raises(ValueError):
        PairSpec(
            x_spec=TWO_POINT,
            b_specs=(TWO_POINT, TWO_POINT),
            coupling="comonotone-scalar",
        )
    with pytest.raises(ValueError):
        PairSpec(x_spec=TWO_POINT, b_specs=(), coupling="independent")
    pair = PairSpec(x_spec=TWO_POINT, b_specs=(TWO_POINT, TWO_POINT))
    assert pair.dim == 2


def test_draw_pair_comonotone_shared_rank():
    pair = PairSpec(
        x_spec=dc.two_point(0.5, 1.5, 0.5),
        b_specs=(dc.two_point(1.0, 2.0, 0.5),),
        coupling="comonotone-scalar",
    )
    x, b = draw_pair(pair, 4000, dc.RandomSource(11).generator())
    assert b.shape == (4000, 1)
    # both laws split at the same median, so high X forces high B
    assert np.all((x > 1.0) == (b[:, 0] > 1.5))


def test_nondegeneracy_flags_fixed_point():
    degenerate = PairSpec(
        x_spec=dc.finitely_supported([(0.5, 1.0)]),
        b_specs=(dc.finitely_supported([(1.0, 1.0)]),),
    )
    report = check_pair_nondegeneracy(degenerate)
    assert report.fixed_point == (2.0,) and report.exact

    healthy = PairSpec(
        x_spec=dc.two_point(0.5, 1.5, 0.5),
        b_specs=(dc.two_point(1.0, 2.0, 0.5),),
    )
    report = check_pair_nondegeneracy(healthy)
    assert report.fixed_point is None and report.exact


def test_nondegeneracy_x_identically_one():
    # X == 1 everywhere: a fixed point needs B == 0
    fixed = PairSpec(
        x_spec=dc.finitely_supported([(1.0, 1.0)]),
        b_specs=(dc.finitely_supported([(0.0, 1.0)]),),
    )
    report = check_pair_nondegeneracy(fixed)
    assert report.fixed_point == (0.0,) and report.exact
    moving = PairSpec(
        x_spec=dc.finitely_supported([(1.0, 1.0)]),
        b_specs=(dc.finitely_supported([(3.0, 1.0)]),),
    )
    report = check_pair_nondegeneracy(moving)
    assert report.fixed_point is None and report.exact


def _point(value):
    return dc.finitely_supported([(value, 1.0)])


# B = 3(X - 1) atom by atom, so v = -3 is a fixed point
_X3 = ((0.5, 0.2), (1.0, 0.3), (1.5, 0.5))
_B3 = tuple((3.0 * (x - 1.0), pr) for x, pr in _X3)


@pytest.mark.parametrize("pair, fixed_point, exact", [
    (PairSpec(_point(0.5), (_point(1.0),)), (2.0,), True),
    (PairSpec(_point(1.0), (_point(0.0),)), (0.0,), True),
    (PairSpec(_point(1.0), (_point(3.0),)), None, True),
    (PairSpec(dc.uniform(0.0, 2.0), (_point(0.0), _point(0.0))), (0.0, 0.0), True),
    # the two perpetuity pairs of the mc_paths benchmark
    (PairSpec(dc.uniform(0.0, 2.0), (dc.uniform(0.0, 1.0), dc.exponential(1.0))), None, True),
    (PairSpec(dc.uniform(0.0, 2.0), (dc.exponential(1.0),), "comonotone-scalar"), None, False),
    (PairSpec(dc.finitely_supported(_X3), (dc.finitely_supported(_B3),), "comonotone-scalar"),
     (-3.0,), True),
    (PairSpec(dc.finitely_supported(_X3[::-1]), (dc.finitely_supported(_B3[::-1]),),
              "comonotone-scalar"), (-3.0,), True),
    # B = 6U - 3 = -3(1 - 2U) = -3(1 - X)
    (PairSpec(dc.uniform(0.0, 2.0), (dc.uniform(-3.0, 3.0),), "comonotone-scalar"), (-3.0,), False),
    (PairSpec(dc.uniform(0.0, 2.0), (dc.uniform(-3.0, 4.0),), "comonotone-scalar"), None, False),
], ids=["demo", "x_one_b_zero", "x_one_b_three", "continuous_x_b_zero", "bench_independent",
        "bench_comonotone", "comonotone_ascending", "comonotone_descending", "uniform_line",
        "uniform_off_line"])
def test_nondegeneracy_decision_table(monkeypatch, pair, fixed_point, exact):
    def no_draws(*args, **kwargs):
        raise AssertionError("the nondegeneracy decision built a generator")

    monkeypatch.setattr(dc.RandomSource, "generator", no_draws)
    report = check_pair_nondegeneracy(pair)
    assert report.exact is exact
    if fixed_point is None:
        assert report.fixed_point is None
    else:
        assert report.fixed_point == pytest.approx(fixed_point, rel=1e-12, abs=1e-12)


def test_tail_condition_holds_only_strictly_below_mu_over_4():
    # at A = 1 the atom sqrt(1.64) > A ||X||_2 = 1 carries the tail, 0.5 |sqrt(1.64) - E|X||
    parts = large_p_parts(LARGE_SPEC, 2.0)
    tail = dataclasses.replace(parts, mu=1.0).tail(1.0)
    assert tail == pytest.approx(0.5 * (math.sqrt(1.64) - 0.6) / 2.0, rel=1e-12)
    short = dataclasses.replace(parts, mu=4.0 * (tail - 1e-10))  # mu/4 1e-10 below tail(A)
    assert short.mu / 4.0 < tail
    assert short.tail(1.0) is None
    with pytest.raises(EmptyWindowError):
        short.check(1.0, short.tail(1.0), 1.5, short.lam(1.5))
    at_edge = dataclasses.replace(parts, mu=4.0 * tail)  # no margin: not certified either
    assert at_edge.tail(1.0) is None
    clear = dataclasses.replace(parts, mu=4.0 * (tail + 1e-10))
    assert clear.tail(1.0) == tail
    clear.check(1.0, tail, 1.5, clear.lam(1.5))
