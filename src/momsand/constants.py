"""Explicit constants for the two-sided moment comparison.

Each lower constant comes with an integer k chosen minimal for a defining
inequality of the shape

    k * lambda^(a k + b) <= RHS(certificate),

worked in the log domain: f(k) = ln k + (a k + b) ln lambda is concave with
peak at k* = -1/(a ln lambda), so once f(1) fails every k below the peak
fails, and the minimal admissible k sits on the decreasing branch.  Newton's
method on f(x) = ln RHS, started past the peak, gives a candidate k, taken
when f(k) <= ln RHS < f(k - 1); when that check fails, doubling plus
bisection finds k exactly.  A linear scan gives the same k; the tests keep
one as an oracle.

Small exponents (0 < p <= 1):
    k lambda^(2k-2) <= delta^3 (1-lambda)^2 / (2^12 A),
    lower_c = delta^3 / (16 k),  upper_C = 1,
    eps0 = delta/8,  eps1 = delta^3/8.

Large exponents (p > 1):
    C0 = (1-lambda)^(1-p) (2A/(3 lambda))^p (2p/((q+1-p) ln 2))^(p/q)
         * 48^(2 p^2 / min(p-1, 1)),
    k lambda^(p k) <= (1-lambda) mu^(3p) / (8 C0 2^(10p) 3^p),
    lower_c = mu^(3p) / (8 k 2^(10p) 3^p),
    eps0 = min(1/(4*3^p), mu^p/(8*24^p)),
    eps1 = min(mu^p/8^p, mu^(2p)/(2^(p-1) 64^p)) * eps0.

C0 explodes as p -> 1+ (the 48^... factor), so it is kept as ln C0
throughout; when lower_c falls below the smallest normal float we report an
explicit 0.0 with a trace entry instead of a denormal, because the constant
genuinely degenerates there.

The upper constant for p > 1 exists in two forms fed by the Lyapunov ratio
chain (lambda_1, ..., lambda_{ceil(p)-1}): the recursion

    C(p) = 2^p (1 + C(p-1) lambda_1^(p-1) / (1 - lambda_1^(p-1))),
    C(p) = 1 for p <= 1,

where each descent consumes the next chain element, and the closed product

    2^(p(p+1)/2) * prod_j 1/(1 - lambda_j^(p-j)).

The recursion never exceeds the product (induction on the integer part), and
we assert that on every call.

optimize_small_p and optimize_large_p share one scan over the A or (A, q)
grid.  The parts that do not depend on the grid are fitted once per scan,
the large-p tail once per A and lambda(q) once per q; each point computes
only its lower_c, a large-p point from (p, mu, lambda, q, A) through the
same formula as its bundle but without building its certificate or trace,
and a small-p point from its certificate (the fit at A) by k and
delta^3 / (16 k), without a bundle or trace.  The full bundle (trace, upper constants, eps0 and
eps1) are built twice at most: for the winner, and for the first point
that succeeds.  The first grid point with the largest lower_c wins
(ties go to the earlier point), a failing point is recorded with lower_c
None, and both return (bundle, certificate).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace

from . import dist_core as dc
from .assumptions import (
    DEFAULT_A_GRID_LARGE,
    DEFAULT_A_GRID_SMALL,
    LargePCertificate,
    SmallPCertificate,
    default_q_grid,
    large_p_parts,
    small_p_parts,
)
from .errors import (
    ChainLengthMismatchError,
    EmptyWindowError,
    HypothesisError,
    KTooLargeError,
    MomsandError,
    NonfiniteMomentError,
    NoValidQError,
)

SMALL_P = "SmallP"
LARGE_P = "LargeP"

K_CAP = 10**9
_MIN_NORMAL = 2.2250738585072014e-308
_LN_MAX_FLOAT = math.log(sys.float_info.max)


@dataclass(frozen=True)
class ConstantBundle:
    p: float
    regime: str
    lower_c: float
    upper_C: float
    k: int
    c0: float | None
    eps0: float
    eps1: float
    trace: tuple


def _f(k: int, ln_lam: float, a_coef: float, b_coef: float) -> float:
    return math.log(k) + (a_coef * k + b_coef) * ln_lam


def _newton_k(ln_lam: float, a_coef: float, b_coef: float, ln_rhs: float, k_star: float) -> int:
    """The ceiling of the root of f(x) = ln_rhs past the peak k_star, by Newton's
    method; 0 when the steps do not settle below the cap.

    f is concave, so its tangents lie above it: from x = max(2 k_star, 1),
    where f' < 0, the first step lands at or past the root, and each later
    step moves down towards it.
    """
    slope = a_coef * ln_lam
    x = max(2.0 * k_star, 1.0)
    for _ in range(100):
        df = 1.0 / x + slope
        if not df < 0.0:  # at the peak, in rounding
            return 0
        step = (math.log(x) + (a_coef * x + b_coef) * ln_lam - ln_rhs) / df
        x -= step
        if abs(step) < 1e-3:
            return math.ceil(x) if x < K_CAP else 0
    return 0


def minimal_k(
    ln_lam: float, a_coef: float, b_coef: float, ln_rhs: float, trace: list | tuple
) -> int:
    """Smallest k >= 1 with ln k + (a k + b) ln_lam <= ln_rhs, cap 10^9.

    Newton's candidate k is taken once f(k) <= ln_rhs < f(k - 1) holds;
    otherwise doubling and bisection find k.  Either way f(k) <= ln_rhs <
    f(k - 1), so both give the one k where f, decreasing there, crosses
    ln_rhs.
    """
    if not ln_lam < 0.0:
        raise ValueError("minimal_k needs lambda < 1")
    if _f(1, ln_lam, a_coef, b_coef) <= ln_rhs:
        return 1
    k_star = -1.0 / (a_coef * ln_lam)
    if k_star > K_CAP:
        raise KTooLargeError(
            f"k search still increasing at the 10^9 cap (peak near {k_star:.3e})",
            trace=list(trace),
        )
    k = _newton_k(ln_lam, a_coef, b_coef, ln_rhs, k_star)
    if (
        k >= 2
        and _f(k, ln_lam, a_coef, b_coef) <= ln_rhs < _f(k - 1, ln_lam, a_coef, b_coef)
    ):
        return k
    # all integers below the peak inherit f >= f(1) > ln_rhs, so start there
    hi = max(2, math.ceil(k_star))
    lo = hi - 1
    while _f(hi, ln_lam, a_coef, b_coef) > ln_rhs:
        if hi >= K_CAP:
            raise KTooLargeError(
                f"no admissible k up to the 10^9 cap (lambda = {math.exp(ln_lam)!r})",
                trace=list(trace),
            )
        lo, hi = hi, min(2 * hi, K_CAP)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _f(mid, ln_lam, a_coef, b_coef) <= ln_rhs:
            hi = mid
        else:
            lo = mid
    return hi


def _witness(k: int, ln_lam: float, a_coef: float, b_coef: float, ln_rhs: float) -> dict:
    entry = {
        "id": "k_minimality",
        "inputs": {
            "k": k,
            "f_k": _f(k, ln_lam, a_coef, b_coef),
            "f_k_minus_1": _f(k - 1, ln_lam, a_coef, b_coef) if k > 1 else None,
            "ln_rhs": ln_rhs,
        },
        "value": float(k),
    }
    return entry


def _small_p_lower(cert: SmallPCertificate, trace: list | None = None) -> tuple[float, int]:
    """The small-p lower constant delta^3 / (16 k) of a certificate, and k.

    Its trace entries, from lambda to the k witness, go to trace when one is
    given; the scan scores its points without one.  Raises ValueError for a
    certificate out of range, and KTooLargeError, carrying the trace up to
    the k search, when no k fits under the cap.
    """
    if not (0.0 < cert.lam < 1.0 and cert.delta > 0.0 and cert.a_param > 1.0):
        raise ValueError("certificate out of range: need lambda<1, delta>0, A>1")
    lam, delta, a_param = cert.lam, cert.delta, cert.a_param
    ln_rhs = 3.0 * math.log(delta) + 2.0 * math.log1p(-lam) - 12.0 * math.log(2.0) - math.log(a_param)
    if trace is not None:
        trace += [
            {"id": "lambda", "inputs": {"p": cert.p}, "value": lam},
            {"id": "delta", "inputs": {"a_param": a_param}, "value": delta},
            {
                "id": "ln_rhs_small",
                "inputs": {"delta": delta, "lambda": lam, "a_param": a_param},
                "value": ln_rhs,
            },
        ]
    k = minimal_k(math.log(lam), 2.0, -2.0, ln_rhs, () if trace is None else trace)
    if trace is not None:
        trace.append(_witness(k, math.log(lam), 2.0, -2.0, ln_rhs))
    return delta**3 / (16.0 * k), k


def _score(lower, *point) -> float:
    """The scan's lower_c at one point, lower(*point)[0], built without a trace; when
    no k fits, the point is built again with one, for the KTooLargeError to carry."""
    try:
        return lower(*point)[0]
    except KTooLargeError:
        return lower(*point, [])[0]  # raises again, with the trace


def lower_constant_small_p(cert: SmallPCertificate) -> ConstantBundle:
    p, delta = cert.p, cert.delta
    trace: list = []
    lower_c, k = _small_p_lower(cert, trace)
    eps0 = delta / 8.0
    eps1 = delta**3 / 8.0
    trace += [
        {"id": "lower_c_small", "inputs": {"delta": delta, "k": k}, "value": lower_c},
        {"id": "upper_C_small", "inputs": {}, "value": 1.0},
        {"id": "eps0_small", "inputs": {"delta": delta}, "value": eps0},
        {"id": "eps1_small", "inputs": {"delta": delta}, "value": eps1},
    ]
    return ConstantBundle(
        p=p,
        regime=SMALL_P,
        lower_c=lower_c,
        upper_C=1.0,
        k=k,
        c0=None,
        eps0=eps0,
        eps1=eps1,
        trace=tuple(trace),
    )


def _ln_c0(p: float, lam: float, a_param: float, q: float) -> float:
    return (
        (1.0 - p) * math.log1p(-lam)
        + p * (math.log(2.0 * a_param) - math.log(3.0 * lam))
        + (p / q) * (math.log(2.0 * p) - math.log((q + 1.0 - p) * math.log(2.0)))
        + (2.0 * p * p / min(p - 1.0, 1.0)) * math.log(48.0)
    )


def _large_p_lower(
    p: float, mu: float, lam: float, q: float, a_param: float, trace: list | None = None
) -> tuple[float, int, float, float]:
    """The large-p lower constant at one point: (lower_c, k, ln_c0, ln_lower_c).

    Its trace entries, from mu to the k witness and an underflow, go to
    trace when one is given; the scan scores its points without one.
    Raises ValueError for a point out of range, and KTooLargeError,
    carrying the trace up to the k search, when no k fits under the cap.
    """
    if not (0.0 < lam < 1.0 and mu > 0.0 and a_param > 1.0 and max(p - 1.0, 1.0) < q < p):
        raise ValueError("certificate out of range for the large-p constant")
    ln_c0 = _ln_c0(p, lam, a_param, q)
    ln_tail_base = 3.0 * p * math.log(mu) - 10.0 * p * math.log(2.0) - p * math.log(3.0)
    ln_rhs = math.log1p(-lam) + ln_tail_base - math.log(8.0) - ln_c0
    ln_lam = math.log(lam)
    if trace is not None:
        trace += [
            {"id": "mu", "inputs": {"p": p}, "value": mu},
            {"id": "lambda_q", "inputs": {"q": q}, "value": lam},
            {
                "id": "ln_c0",
                "inputs": {"p": p, "lambda": lam, "a_param": a_param, "q": q},
                "value": ln_c0,
            },
            {
                "id": "ln_rhs_large",
                "inputs": {"mu": mu, "lambda": lam, "ln_c0": ln_c0},
                "value": ln_rhs,
            },
        ]
    k = minimal_k(ln_lam, p, 0.0, ln_rhs, () if trace is None else trace)
    if trace is not None:
        trace.append(_witness(k, ln_lam, p, 0.0, ln_rhs))
    ln_lower = ln_tail_base - math.log(8.0 * k)
    lower_c = math.exp(ln_lower)
    if 0.0 < lower_c < _MIN_NORMAL or (lower_c == 0.0 and math.isfinite(ln_lower)):
        if trace is not None:
            trace.append(
                {"id": "lower_c_underflow", "inputs": {"ln_lower_c": ln_lower}, "value": 0.0}
            )
        lower_c = 0.0
    return lower_c, k, ln_c0, ln_lower


def lower_constant_large_p(cert: LargePCertificate) -> ConstantBundle:
    p, mu = cert.p, cert.mu
    trace: list = []
    lower_c, k, ln_c0, ln_lower = _large_p_lower(p, mu, cert.lam, cert.q, cert.a_param, trace)
    c0 = math.exp(ln_c0) if ln_c0 < 709.0 else None  # past float range; ln_c0 is in the trace
    product_c, recursive_c = upper_constant_large_p(p, cert.lam_chain)
    upper = min(product_c, recursive_c)
    eps0 = min(
        math.exp(-math.log(4.0) - p * math.log(3.0)),
        math.exp(p * math.log(mu) - math.log(8.0) - p * math.log(24.0)),
    )
    eps1 = (
        min(
            math.exp(p * (math.log(mu) - math.log(8.0))),
            math.exp(2.0 * p * math.log(mu) - (p - 1.0) * math.log(2.0) - p * math.log(64.0)),
        )
        * eps0
    )
    trace += [
        {"id": "lower_c_large", "inputs": {"mu": mu, "k": k, "ln_lower_c": ln_lower}, "value": lower_c},
        {
            "id": "upper_C_recursive",
            "inputs": {"chain": list(cert.lam_chain), "note": "descent level j consumes chain[j]"},
            "value": recursive_c,
        },
        {"id": "upper_C_product", "inputs": {"chain": list(cert.lam_chain)}, "value": product_c},
        {"id": "upper_C", "inputs": {}, "value": upper},
        {"id": "eps0_large", "inputs": {"mu": mu}, "value": eps0},
        {"id": "eps1_large", "inputs": {"mu": mu}, "value": eps1},
    ]
    return ConstantBundle(
        p=p,
        regime=LARGE_P,
        lower_c=lower_c,
        upper_C=upper,
        k=k,
        c0=c0,
        eps0=eps0,
        eps1=eps1,
        trace=tuple(trace),
    )


def _chain(p: float, lambda_chain) -> tuple[float, ...]:
    """The ratio chain for p > 0: ceil(p) - 1 ratios strictly inside (0, 1)."""
    if p <= 0.0:
        raise ValueError("p must be positive")
    chain = tuple(float(x) for x in lambda_chain)
    need = max(math.ceil(p) - 1, 0)
    if len(chain) != need:
        raise ChainLengthMismatchError(
            f"chain length {len(chain)} != ceil(p)-1 = {need} for p = {p}"
        )
    if any(not (0.0 < lam < 1.0) for lam in chain):
        raise ValueError("chain ratios must lie strictly inside (0, 1)")
    return chain


def _recursive_c(p: float, chain: tuple[float, ...]) -> float:
    if p <= 1.0:
        return 1.0
    lam1 = chain[0]
    rest = _recursive_c(p - 1.0, chain[1:])
    ratio = lam1 ** (p - 1.0)
    return 2.0**p * (1.0 + rest * ratio / (1.0 - ratio))


def _dependent_c(p: float, chain: tuple[float, ...]) -> float:
    if p <= 1.0:
        return 1.0
    rest = _dependent_c(p - 1.0, chain[1:])
    return 2.0**p * (1.0 + rest / (1.0 - chain[0] ** (p - 1.0)))


def upper_constant_large_p(p: float, lambda_chain) -> tuple[float, float]:
    """Both upper-constant forms for p > 0; returns (product_C, recursive_C)."""
    chain = _chain(p, lambda_chain)
    if p <= 1.0:
        return 1.0, 1.0
    recursive = _recursive_c(p, chain)
    ln_product = p * (p + 1.0) / 2.0 * math.log(2.0)
    for j, lam in enumerate(chain, start=1):
        ln_product -= math.log1p(-(lam ** (p - j)))
    if ln_product > _LN_MAX_FLOAT:
        raise NonfiniteMomentError(
            f"the upper constant exp({ln_product!r}) overflows at p = {p}"
        )
    product = math.exp(ln_product)
    if not recursive <= product * (1.0 + 1e-12):
        raise MomsandError(
            f"recursive form {recursive!r} exceeded product form {product!r}"
        )
    return product, recursive


def dependent_upper_constant(p: float, lambda_chain) -> float:
    """Upper constant for pairs where B may depend on X.

    Same descent as the independent recursion but the geometric tail starts
    at exponent zero, so the chain factor multiplies only the denominator:
    D(p) = 2^p (1 + D(p-1) / (1 - lambda_1^{p-1})), D(p) = 1 for p <= 1.
    """
    return _dependent_c(p, _chain(p, lambda_chain))


def _scan(points, keys, certificate, score, lower_constant, scan_id, empty):
    """(bundle, certificate) of the first grid point with the largest lower_c.

    Each point is scored by score(*point), its lower_c, which raises where
    certificate(*point) would.  The certificate and the full bundle,
    lower_constant(cert), are built for the winner, and for the first point
    that succeeds, so that an error of the parts every point shares (the
    large-p upper constant) is raised there, where a scan of full bundles
    raised it.  When every point fails, the last error (`empty` for no
    points) is raised again.
    """
    best, scan, last_err = None, [], empty
    for point in points:
        try:
            value = score(*point)
        except HypothesisError as exc:
            value, last_err = None, exc
        scan.append(dict(zip(keys, point), lower_c=value))
        if value is not None and best is None:
            cert = certificate(*point)
            best = (value, point, cert, lower_constant(cert))
        elif value is not None and value > best[0]:
            best = (value, point, None, None)
    if best is None:
        raise last_err
    _, point, cert, bundle = best
    if bundle is None:
        cert = certificate(*point)
        bundle = lower_constant(cert)
    value = point[0] if len(point) == 1 else list(point)
    entry = {"id": scan_id, "inputs": {"candidates": scan}, "value": value}
    return replace(bundle, trace=bundle.trace + (entry,)), cert


def optimize_small_p(
    spec: dc.DistributionSpec, p: float, a_grid=DEFAULT_A_GRID_SMALL
) -> tuple[ConstantBundle, SmallPCertificate]:
    """Best lower constant over the A grid, with its certificate."""
    # the window mass delta(A) is the fit at A, so each point builds its certificate
    certificate = functools.cache(small_p_parts(spec, p).certificate)
    return _scan(
        [(float(a),) for a in a_grid], ("a_param",), certificate,
        lambda a: _score(_small_p_lower, certificate(a)), lower_constant_small_p,
        "a_scan", EmptyWindowError("empty A grid for the small-p scan"),
    )


def optimize_large_p(
    spec: dc.DistributionSpec,
    p: float,
    a_grid=DEFAULT_A_GRID_LARGE,
    q_grid=None,
) -> tuple[ConstantBundle, LargePCertificate]:
    """Joint (A, q) grid scan maximizing the large-p lower constant, with its certificate."""
    a_grid = [float(a) for a in a_grid]
    q_grid = [float(q) for q in (default_q_grid(p) if q_grid is None else q_grid)]
    parts = large_p_parts(spec, p)
    tails = {a: parts.tail(a) for a in a_grid}
    lams = {q: parts.lam(q) for q in q_grid}

    def score(a, q):
        parts.check(a, tails[a], q, lams[q])
        return _score(_large_p_lower, p, parts.mu, lams[q], q, a)

    return _scan(
        [(a, q) for a in a_grid for q in q_grid], ("a_param", "q"),
        lambda a, q: parts.certificate(a, tails[a], q, lams[q]),
        score, lower_constant_large_p, "aq_scan",
        NoValidQError("empty (A, q) grid for the large-p scan"),
    )
