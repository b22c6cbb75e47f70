"""Constant formulas: k-search vs a linear-scan oracle, frozen anchors."""

import importlib.util
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from momsand import constants
from momsand import dist_core as dc
from momsand.assumptions import (
    DEFAULT_A_GRID_LARGE,
    LargePCertificate,
    LargePParts,
    SmallPCertificate,
    default_q_grid,
    fit_large_p,
    large_p_parts,
)
from momsand.constants import (
    K_CAP,
    LARGE_P,
    SMALL_P,
    ConstantBundle,
    lower_constant_large_p,
    lower_constant_small_p,
    minimal_k,
    optimize_large_p,
    optimize_small_p,
    upper_constant_large_p,
)
from momsand.errors import (
    ChainLengthMismatchError,
    DegenerateModulusError,
    HypothesisError,
    KTooLargeError,
    NonfiniteMomentError,
    NoValidQError,
)

TWO_POINT = dc.two_point(0.5, 1.5, 0.5)
LARGE_SPEC = dc.two_point(0.6, math.sqrt(1.64), 0.5)


def scan_k(ln_lam, a_coef, b_coef, ln_rhs, cap=200_000):
    """Independent oracle: first k with ln k + (a k + b) ln lam <= ln rhs."""
    for k in range(1, cap + 1):
        if math.log(k) + (a_coef * k + b_coef) * ln_lam <= ln_rhs:
            return k
    return None


def small_cert(lam, delta, a_param, p=1.0):
    return SmallPCertificate(p=p, lam=lam, delta=delta, a_param=a_param, margins={})


def large_cert(p, mu, a_param, q, lam, chain):
    return LargePCertificate(
        p=p, mu=mu, a_param=a_param, q=q, lam=lam, lam_chain=tuple(chain), margins={}
    )


def test_small_p_anchor_half_half():
    bundle = lower_constant_small_p(small_cert(0.5, 0.5, 2.0))
    assert bundle.k == 12
    assert bundle.lower_c == pytest.approx(1.0 / 1536.0, rel=1e-15)
    assert bundle.upper_C == 1.0
    assert bundle.regime == SMALL_P
    assert bundle.c0 is None
    assert bundle.eps0 == pytest.approx(0.5 / 8.0)
    assert bundle.eps1 == pytest.approx(0.125 / 8.0)


def test_small_p_anchor_delta_one():
    bundle = lower_constant_small_p(small_cert(0.5, 1.0, 2.0))
    # k minimal with k 4^{1-k} <= (1/4) / (4096 * 2) = 1/32768
    oracle = scan_k(math.log(0.5), 2.0, -2.0, -math.log(32768.0))
    assert bundle.k == oracle == 11
    assert bundle.lower_c == pytest.approx(1.0 / 176.0, rel=1e-15)


def test_small_p_lambda_near_one_stays_feasible():
    # lambda = 0.999 still lands well under the 1e9 cap
    bundle = lower_constant_small_p(small_cert(0.999, 0.5, 2.0))
    assert bundle.k == 17326
    ln_rhs = 3 * math.log(0.5) + 2 * math.log(0.001) - 12 * math.log(2) - math.log(2)
    assert scan_k(math.log(0.999), 2.0, -2.0, ln_rhs) == 17326


def test_k_too_large_signal():
    with pytest.raises(KTooLargeError) as exc_info:
        lower_constant_small_p(small_cert(1.0 - 1e-9, 0.5, 2.0))
    assert isinstance(exc_info.value.trace, list)
    assert len(exc_info.value.trace) > 0


def test_minimal_k_matches_scan_small_regime():
    rng = np.random.default_rng(20240301)
    for _ in range(200):
        lam = rng.uniform(0.05, 0.97)
        delta = rng.uniform(0.01, 1.0)
        a_param = rng.uniform(1.05, 10.0)
        ln_rhs = (
            3.0 * math.log(delta)
            + 2.0 * math.log1p(-lam)
            - 12.0 * math.log(2.0)
            - math.log(a_param)
        )
        k = minimal_k(math.log(lam), 2.0, -2.0, ln_rhs, [])
        assert k == scan_k(math.log(lam), 2.0, -2.0, ln_rhs)
        # minimality witness in the log domain
        f = lambda j: math.log(j) + (2.0 * j - 2.0) * math.log(lam)
        assert f(k) <= ln_rhs + 1e-12
        if k > 1:
            assert f(k - 1) > ln_rhs - 1e-12


def test_minimal_k_matches_scan_large_regime():
    rng = np.random.default_rng(20240302)
    for _ in range(200):
        p = rng.uniform(1.05, 4.0)
        lam = rng.uniform(0.1, 0.9)
        ln_rhs = rng.uniform(-40.0, 0.0)
        k = minimal_k(math.log(lam), p, 0.0, ln_rhs, [])
        assert k == scan_k(math.log(lam), p, 0.0, ln_rhs)


def scan_k_far(ln_lam, a_coef, b_coef, ln_rhs, cap=10**8, chunk=2**18):
    """scan_k for k in the millions.  NumPy's log, within 1e-9 of math.log's,
    skips each k that fails by more than that margin; from the first k it
    keeps, math.log decides k by k as scan_k does."""
    for lo in range(1, cap + 1, chunk):
        ks = np.arange(lo, min(lo + chunk, cap + 1))
        near = np.flatnonzero(np.log(ks) + (a_coef * ks + b_coef) * ln_lam <= ln_rhs + 1e-9)
        if len(near):
            for k in range(int(ks[near[0]]), cap + 1):
                if math.log(k) + (a_coef * k + b_coef) * ln_lam <= ln_rhs:
                    return k
            return None
    return None


@pytest.mark.parametrize("shift", [-1, 1, 3, None])
def test_minimal_k_checks_the_newton_candidate(monkeypatch, shift):
    # a candidate off by one or more, or none (0), goes to doubling and bisection
    newton = constants._newton_k
    monkeypatch.setattr(
        constants, "_newton_k", lambda *args: 0 if shift is None else newton(*args) + shift
    )
    rng = np.random.default_rng(20240304)
    for _ in range(100):
        p, lam, ln_rhs = rng.uniform(1.05, 4.0), rng.uniform(0.1, 0.99), rng.uniform(-40.0, 0.0)
        k = minimal_k(math.log(lam), p, 0.0, ln_rhs, [])
        assert k == scan_k(math.log(lam), p, 0.0, ln_rhs)


@pytest.mark.parametrize("a_coef, b_coef", [(2.0, -2.0), (1.3, 0.0), (4.0, 0.0)])
def test_minimal_k_matches_scan_next_to_the_peak(a_coef, b_coef):
    # ln_rhs just below f(ceil k*): the first integer past the peak fails by a
    # hair and f is nearly flat there
    f = lambda j, ln_lam: math.log(j) + (a_coef * j + b_coef) * ln_lam
    rng = np.random.default_rng(20240303)
    past_ceil = 0
    for k_star in np.concatenate([rng.uniform(0.3, 3.0, 60), 10.0 ** rng.uniform(0.5, 4.5, 20)]):
        ln_lam = -1.0 / (a_coef * k_star)
        top = f(math.ceil(k_star), ln_lam)
        for ln_rhs in (math.nextafter(top, -math.inf), top - 1e-12 * max(1.0, abs(top)),
                       top - 1e-6):
            k = minimal_k(ln_lam, a_coef, b_coef, ln_rhs, [])
            assert k == scan_k(ln_lam, a_coef, b_coef, ln_rhs)
            past_ceil += k > math.ceil(k_star)
    assert past_ceil > 20


@pytest.mark.parametrize("lam", [0.999, 1.0 - 1e-4, 1.0 - 1e-5, 1.0 - 1e-6])
def test_minimal_k_matches_scan_small_regime_lambda_near_one(lam):
    ln_rhs = 3.0 * math.log(0.5) + 2.0 * math.log1p(-lam) - 12.0 * math.log(2.0) - math.log(2.0)
    k = minimal_k(math.log(lam), 2.0, -2.0, ln_rhs, [])
    assert k == scan_k_far(math.log(lam), 2.0, -2.0, ln_rhs)
    if k <= 200_000:
        assert k == scan_k(math.log(lam), 2.0, -2.0, ln_rhs)


@pytest.mark.parametrize("build, message, trace", [
    (lambda: lower_constant_small_p(small_cert(1.0 - 1e-9, 0.5, 2.0)),
     "no admissible k up to the 10^9 cap (lambda = 0.999999999)",
     [{"id": "lambda", "inputs": {"p": 1.0}, "value": 0.999999999},
      {"id": "delta", "inputs": {"a_param": 2.0}, "value": 0.5},
      {"id": "ln_rhs_small", "inputs": {"delta": 0.5, "lambda": 0.999999999, "a_param": 2.0},
       "value": -52.53688661941581}]),
    (lambda: lower_constant_small_p(small_cert(1.0 - 1e-10, 0.5, 2.0)),
     "k search still increasing at the 10^9 cap (peak near 5.000e+09)",
     [{"id": "lambda", "inputs": {"p": 1.0}, "value": 0.9999999999},
      {"id": "delta", "inputs": {"a_param": 2.0}, "value": 0.5},
      {"id": "ln_rhs_small", "inputs": {"delta": 0.5, "lambda": 0.9999999999, "a_param": 2.0},
       "value": -57.142056583359306}]),
    (lambda: lower_constant_large_p(large_cert(2.0, 0.5, 2.0, 1.5, 1.0 - 1e-9, (0.5,))),
     "no admissible k up to the 10^9 cap (lambda = 0.999999999)",
     [{"id": "mu", "inputs": {"p": 2.0}, "value": 0.5},
      {"id": "lambda_q", "inputs": {"q": 1.5}, "value": 0.999999999},
      {"id": "ln_c0", "inputs": {"p": 2.0, "lambda": 0.999999999, "a_param": 2.0, "q": 1.5},
       "value": 55.5295107157437},
      {"id": "ln_rhs_large", "inputs": {"mu": 0.5, "lambda": 0.999999999,
                                        "ln_c0": 55.5295107157437},
       "value": -98.55126939454667}]),
])
def test_k_too_large_message_and_trace(build, message, trace):
    # the message and trace the doubling-and-bisection search alone gave
    with pytest.raises(KTooLargeError) as info:
        build()
    assert str(info.value) == message
    assert info.value.trace == trace


def test_large_p_anchor_direct_formula():
    p, mu, lam, a_param, q = 2.0, 2.0, 0.5, 2.0, 1.5
    cert = large_cert(p, mu, a_param, q, lam, (0.5,))
    bundle = lower_constant_large_p(cert)
    ln_c0 = (
        (1.0 - p) * math.log1p(-lam)
        + p * (math.log(2.0 * a_param) - math.log(3.0 * lam))
        + (p / q) * (math.log(2.0 * p) - math.log((q + 1.0 - p) * math.log(2.0)))
        + (2.0 * p * p / min(p - 1.0, 1.0)) * math.log(48.0)
    )
    assert bundle.c0 == pytest.approx(math.exp(ln_c0), rel=1e-12)
    ln_rhs = (
        math.log1p(-lam)
        + 3.0 * p * math.log(mu)
        - math.log(8.0)
        - ln_c0
        - 10.0 * p * math.log(2.0)
        - p * math.log(3.0)
    )
    oracle = scan_k(math.log(lam), p, 0.0, ln_rhs)
    assert bundle.k == oracle
    expected_c = math.exp(
        3.0 * p * math.log(mu)
        - math.log(8.0 * bundle.k)
        - 10.0 * p * math.log(2.0)
        - p * math.log(3.0)
    )
    assert bundle.lower_c == pytest.approx(expected_c, rel=1e-12)
    assert bundle.regime == LARGE_P
    assert bundle.lower_c <= bundle.upper_C


def test_large_p_lower_c_monotone_in_mu():
    values = []
    for mu in (2.0, 1.0, 0.5, 0.1, 0.01):
        cert = large_cert(2.0, mu, 2.0, 1.5, 0.5, (0.5,))
        values.append(lower_constant_large_p(cert).lower_c)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_large_p_lambda_monotonicity():
    ks, cs = [], []
    for lam in (0.3, 0.45, 0.6, 0.75, 0.9):
        cert = large_cert(2.0, 1.0, 2.0, 1.5, lam, (0.5,))
        bundle = lower_constant_large_p(cert)
        ks.append(bundle.k)
        cs.append(bundle.lower_c)
    # smaller lambda never needs a larger k, never yields a smaller constant
    assert all(a <= b for a, b in zip(ks, ks[1:]))
    assert all(a >= b for a, b in zip(cs, cs[1:]))


def test_large_p_underflow_reported_as_zero():
    cert = large_cert(5.0, 1e-30, 2.0, 4.5, 0.5, (0.5, 0.5, 0.5, 0.5))
    bundle = lower_constant_large_p(cert)
    assert bundle.lower_c == 0.0
    assert any(entry["id"] == "lower_c_underflow" for entry in bundle.trace)


def test_upper_constant_trivial_below_one():
    assert upper_constant_large_p(0.7, ()) == (1.0, 1.0)
    assert upper_constant_large_p(1.0, ()) == (1.0, 1.0)


def test_upper_constant_anchor_p_three_halves():
    product_c, recursive_c = upper_constant_large_p(1.5, (0.5,))
    root = math.sqrt(0.5)
    assert recursive_c == pytest.approx(2.0**1.5 * (1.0 + root / (1.0 - root)), rel=1e-15)
    assert recursive_c == pytest.approx(9.656854249492383, abs=1e-12)
    assert product_c == pytest.approx(2.0**1.875 / (1.0 - root), rel=1e-12)
    assert product_c == pytest.approx(12.52339056424141, abs=1e-11)
    assert recursive_c <= product_c


def test_upper_constant_anchor_p_2_2():
    product_c, recursive_c = upper_constant_large_p(2.2, (0.9, 0.9))
    expected = 2.0**3.52 / ((1.0 - 0.9**1.2) * (1.0 - 0.9**0.2))
    assert product_c == pytest.approx(expected, rel=1e-12)
    assert recursive_c <= product_c


def test_recursive_below_product_random_chains():
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = rng.uniform(1.01, 6.0)
        chain = tuple(rng.uniform(0.05, 0.95, size=max(math.ceil(p) - 1, 0)))
        product_c, recursive_c = upper_constant_large_p(p, chain)
        assert recursive_c <= product_c * (1.0 + 1e-12)
        assert recursive_c >= 1.0


def test_chain_length_mismatch():
    with pytest.raises(ChainLengthMismatchError):
        upper_constant_large_p(2.5, (0.5,))
    with pytest.raises(ChainLengthMismatchError):
        upper_constant_large_p(1.5, (0.5, 0.5))


def test_bundle_determinism():
    cert = small_cert(0.7, 0.3, 2.0)
    assert lower_constant_small_p(cert) == lower_constant_small_p(cert)
    cert2 = fit_large_p(LARGE_SPEC, 2.0)
    assert lower_constant_large_p(cert2) == lower_constant_large_p(cert2)


def test_optimize_small_p_picks_smallest_penalizing_a():
    bundle, _ = optimize_small_p(TWO_POINT, 1.0)
    scan = bundle.trace[-1]
    assert scan["id"] == "a_scan"
    assert scan["value"] == 1.5
    candidates = [c["lower_c"] for c in scan["inputs"]["candidates"] if c["lower_c"]]
    assert bundle.lower_c == max(candidates)


def test_optimize_small_p_interior_choice_uniform():
    spec, _ = dc.normalize_unit_p_moment(dc.uniform(0.0, 2.0), 1.0)
    bundle, _ = optimize_small_p(spec, 1.0)
    scan = bundle.trace[-1]["inputs"]["candidates"]
    tried = [c for c in scan if c["lower_c"] is not None]
    assert len(tried) >= 3
    assert bundle.lower_c == max(c["lower_c"] for c in tried)


def test_optimize_propagates_degeneracy():
    with pytest.raises(DegenerateModulusError):
        optimize_small_p(dc.rademacher_sign(), 1.0)
    with pytest.raises(DegenerateModulusError):
        optimize_large_p(dc.finitely_supported([(1.0, 1.0)]), 2.0)


def test_optimize_large_p_singleton_equals_direct():
    cert = fit_large_p(LARGE_SPEC, 2.0, q_grid=[1.5], a_grid=[2.0])
    direct = lower_constant_large_p(cert)
    scanned, _ = optimize_large_p(LARGE_SPEC, 2.0, a_grid=[2.0], q_grid=[1.5])
    assert scanned.lower_c == direct.lower_c
    assert scanned.k == direct.k


def test_optimize_large_p_grid_growth_never_hurts():
    small_grid, _ = optimize_large_p(LARGE_SPEC, 2.0, a_grid=[2.0, 3.0])
    big_grid, _ = optimize_large_p(LARGE_SPEC, 2.0, a_grid=[1.5, 2.0, 3.0, 5.0])
    assert big_grid.lower_c >= small_grid.lower_c


def test_k_cap_constant():
    assert K_CAP == 10**9


def _counting(monkeypatch, name):
    """Count the calls to dc.<name> in the returned list."""
    calls = []
    original = getattr(dc, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(dc, name, wrapper)
    return calls


def test_optimize_large_p_fits_each_part_once(monkeypatch):
    # the tail is fitted once per A and lambda(q) once per q, so the q grid
    # does not change the expect() count and the A grid not the abs_moment() count
    spec, _ = dc.normalize_unit_p_moment(dc.uniform(0.0, 2.0), 3.5)
    expects = _counting(monkeypatch, "expect")
    moments = _counting(monkeypatch, "abs_moment")

    def counts(**grids):
        del expects[:], moments[:]
        optimize_large_p(spec, 3.5, **grids)
        return len(expects), len(moments)

    q_grid = default_q_grid(3.5)
    assert len(q_grid) == 9 and len(DEFAULT_A_GRID_LARGE) == 6
    assert counts(q_grid=q_grid[:1])[0] == counts(q_grid=q_grid)[0]
    assert counts(a_grid=DEFAULT_A_GRID_LARGE[:1])[1] == counts(a_grid=DEFAULT_A_GRID_LARGE)[1]


# ---------------------------------------------------------------------------
# the lean (A, q) scan against a scan of full bundles

_workloads_spec = importlib.util.spec_from_file_location(
    "workloads", Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
)
_workloads = importlib.util.module_from_spec(_workloads_spec)
_workloads_spec.loader.exec_module(_workloads)


def _full_scan(spec, p, a_grid=DEFAULT_A_GRID_LARGE, q_grid=None):
    """optimize_large_p as a scan that builds lower_constant_large_p at every point."""
    q_grid = default_q_grid(p) if q_grid is None else q_grid
    parts = large_p_parts(spec, p)
    best, scan, last_err = None, [], NoValidQError("empty (A, q) grid for the large-p scan")
    for a in a_grid:
        for q in q_grid:
            try:
                cert = parts.certificate(a, parts.tail(a), q, parts.lam(q))
                bundle = lower_constant_large_p(cert)
            except HypothesisError as exc:
                bundle, last_err = None, exc
            lower_c = None if bundle is None else bundle.lower_c
            scan.append({"a_param": a, "q": q, "lower_c": lower_c})
            if lower_c is not None and (best is None or lower_c > best[0].lower_c):
                best = (bundle, cert, [a, q])
    if best is None:
        raise last_err
    bundle, cert, point = best
    entry = {"id": "aq_scan", "inputs": {"candidates": scan}, "value": point}
    return replace(bundle, trace=bundle.trace + (entry,)), cert


def _normalized(law, p):
    return dc.normalize_unit_p_moment(dc.parse_spec(law), p)[0]


@pytest.mark.parametrize("p", [1.25, 2.5, 4.5, 8.5])
@pytest.mark.parametrize("law", _workloads.CERTIFY_LAWS)
def test_lean_scan_matches_the_full_scan(law, p):
    spec = _normalized(law, p)
    bundle, cert = optimize_large_p(spec, p)
    want_bundle, want_cert = _full_scan(spec, p)
    assert bundle == want_bundle
    assert cert == want_cert


LARGE_TRACE_IDS = [
    "mu", "lambda_q", "ln_c0", "ln_rhs_large", "k_minimality", "lower_c_large",
    "upper_C_recursive", "upper_C_product", "upper_C", "eps0_large", "eps1_large",
]


def test_large_p_bundles_carry_the_full_trace():
    bundle = lower_constant_large_p(large_cert(2.0, 2.0, 2.0, 1.5, 0.5, (0.5,)))
    assert [entry["id"] for entry in bundle.trace] == LARGE_TRACE_IDS
    witness = bundle.trace[4]["inputs"]
    assert witness["k"] == bundle.k > 1
    assert witness["f_k"] <= witness["ln_rhs"] < witness["f_k_minus_1"]
    under = lower_constant_large_p(large_cert(5.0, 1e-30, 2.0, 4.5, 0.5, (0.5,) * 4))
    assert [entry["id"] for entry in under.trace] == (
        LARGE_TRACE_IDS[:5] + ["lower_c_underflow"] + LARGE_TRACE_IDS[5:]
    )
    # the scan's winner: the full bundle of its certificate, then the scan entry
    for law in _workloads.CERTIFY_LAWS:
        best, cert = optimize_large_p(_normalized(law, 2.5), 2.5)
        assert best.trace[:-1] == lower_constant_large_p(cert).trace
        assert [entry["id"] for entry in best.trace] == LARGE_TRACE_IDS + ["aq_scan"]


def _raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    exc = info.value
    return type(exc), str(exc), getattr(exc, "trace", None)


def test_lean_scan_raises_as_the_full_scan_when_every_point_fails(monkeypatch):
    monkeypatch.setattr(constants, "K_CAP", 10)
    spec = _normalized("uniform:lo=0,hi=2", 1.25)
    got = _raised(lambda: optimize_large_p(spec, 1.25))
    assert got[0] is KTooLargeError and got[2]
    assert got == _raised(lambda: _full_scan(spec, 1.25))


def test_lean_scan_raises_the_shared_upper_error_at_the_first_success():
    # at p = 45 the upper constant overflows; A = 2 succeeds first, and
    # A = 1 meets the tail condition but not the range check A > 1
    spec = _normalized("uniform:lo=0,hi=2", 45.0)
    for a_grid, kind in (([2.0, 1.0], NonfiniteMomentError), ([1.0, 2.0], ValueError)):
        got = _raised(lambda: optimize_large_p(spec, 45.0, a_grid=a_grid))
        assert got[0] is kind
        assert got == _raised(lambda: _full_scan(spec, 45.0, a_grid=a_grid))


@pytest.mark.parametrize("law", _workloads.CERTIFY_LAWS)
def test_large_p_scan_builds_certificates_for_the_first_success_and_the_winner_only(
    law, monkeypatch
):
    built = []
    original = LargePParts.certificate

    def certificate(self, a_val, tail, q, lam):
        built.append((a_val, q))
        return original(self, a_val, tail, q, lam)

    monkeypatch.setattr(LargePParts, "certificate", certificate)
    _, cert = optimize_large_p(_normalized(law, 3.5), 3.5)
    # 54 grid points, at most two certificates; the winner's is built last
    assert 1 <= len(built) <= 2
    assert built[-1] == (cert.a_param, cert.q)


def test_scan_ties_go_to_the_earlier_point_and_build_two_bundles():
    built = []

    def lower_constant(cert):
        built.append(cert)
        return ConstantBundle(2.0, LARGE_P, lower_c(cert), 1.0, 1, None, 0.0, 0.0, ())

    def lower_c(cert):
        return {1.0: 0.1, 2.0: 0.5, 3.0: 0.5, 4.0: 0.2}[cert]

    bundle, cert = constants._scan(
        [(1.0,), (2.0,), (3.0,), (4.0,)], ("a_param",), lambda a: a, lower_c,
        lower_constant, "a_scan", None,
    )
    assert cert == 2.0 and bundle.lower_c == 0.5 and bundle.trace[-1]["value"] == 2.0
    # the first success and the winner; no other point builds a bundle
    assert built == [1.0, 2.0]
