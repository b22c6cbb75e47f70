"""Distribution specifications, moment oracles, and seeded sampling.

A DistributionSpec describes the law of a scalar random variable X from a
small set of parametric families (two-point, general finite support, uniform,
lognormal, exponential, the "Riesz factor" law of 1 + cos U with U uniform on
[0, 2pi], Rademacher signs, and scaled copies of any of these).  On top of the
specs the module provides

  * abs_moment: E|X|^q as a float, from a finite sum or a closed form (no
    family needs quadrature),
  * raw_moment: the signed E X^l of an integer order, with a bound on its
    rounding, for the moment engine,
  * normalize_unit_p_moment: rescale so that E|X|^p = 1,
  * expect: the truncated moment E||X|^r - shift| 1{a < |X|^r <= b} behind
    E|X|, the mean absolute deviation, its tail and the window mass that
    the hypothesis fitters use, again from a finite sum or a closed form,
  * gamma_inc and beta_inc: the regularized incomplete gamma and beta
    functions behind expect on exponential and Riesz factor laws, by their
    series and continued fractions (DLMF 8.7.1, 8.9.2 and 8.17.22) in
    plain Python.

Sampling is counter-based: a RandomSource is a (seed, stream_id) pair and
every draw is a deterministic function of it, so identical sources reproduce
bitwise-identical paths no matter how work is scheduled.  quantile is the
inverse CDF of every family, and a draw of any law is the quantile of its
uniform, so one shared uniform couples any two specs comonotonically.

Text form: specs parse from "family:key=value,..." strings, for example
"twopoint:a=0.5,b=1.5,pa=0.5", "uniform:lo=0,hi=2", "riesz",
"finite:atoms=-1@0.25|0.5@0.5|2@0.25", and
"scaled:scale=0.5,base=(twopoint:a=1,b=3,pa=0.5)".

SciPy loads on first use, as scipy.special only, in one place: the
lognormal quantile (ndtri).  Importing the package, abs_moment, expect and
any work on the other laws never load it.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateZeroError,
    InvalidOrderError,
    NonfiniteMomentError,
)

TWO_POINT = "twopoint"
FINITE = "finite"
UNIFORM = "uniform"
LOGNORMAL = "lognormal"
EXPONENTIAL = "exponential"
RIESZ_FACTOR = "riesz"
RADEMACHER = "rademacher"
SCALED = "scaled"

FAMILIES = (
    TWO_POINT,
    FINITE,
    UNIFORM,
    LOGNORMAL,
    EXPONENTIAL,
    RIESZ_FACTOR,
    RADEMACHER,
    SCALED,
)

_PROB_SUM_TOL = 1e-9
# draws per chunk of a finite law's gather: a 256 KB index array at most
GATHER_CHUNK = 2**15


@dataclass(frozen=True)
class DistributionSpec:
    """Tagged union over the supported families; use the factory functions."""

    family: str
    a: float | None = None
    b: float | None = None
    prob_a: float | None = None
    atoms: tuple[tuple[float, float], ...] | None = None
    lo: float | None = None
    hi: float | None = None
    mu: float | None = None
    sigma: float | None = None
    rate: float | None = None
    base: "DistributionSpec | None" = None
    scale: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == TWO_POINT:
            if not (0.0 < self.prob_a < 1.0):
                raise ValueError("prob_a must lie strictly inside (0, 1)")
        elif self.family == FINITE:
            if not self.atoms:
                raise ValueError("finite support needs at least one atom")
            total = math.fsum(pr for _, pr in self.atoms)
            if any(pr <= 0.0 for _, pr in self.atoms):
                raise ValueError("atom probabilities must be positive")
            if abs(total - 1.0) > _PROB_SUM_TOL:
                raise ValueError(f"atom probabilities sum to {total}, not 1")
            # store exactly normalized so enumeration identities are tight
            object.__setattr__(
                self,
                "atoms",
                tuple((float(v), float(pr) / total) for v, pr in self.atoms),
            )
        elif self.family == UNIFORM:
            if not (self.lo < self.hi):
                raise ValueError("uniform requires lo < hi")
        elif self.family == LOGNORMAL:
            if not (self.sigma > 0.0):
                raise ValueError("lognormal requires sigma > 0")
        elif self.family == EXPONENTIAL:
            if not (self.rate > 0.0):
                raise ValueError("exponential requires rate > 0")
        elif self.family == SCALED:
            if self.base is None or self.scale is None or self.scale == 0.0:
                raise ValueError("scaled copy needs a base spec and scale != 0")


def two_point(a: float, b: float, prob_a: float) -> DistributionSpec:
    return DistributionSpec(TWO_POINT, a=float(a), b=float(b), prob_a=float(prob_a))


def finitely_supported(atoms) -> DistributionSpec:
    return DistributionSpec(FINITE, atoms=tuple((float(v), float(p)) for v, p in atoms))


def uniform(lo: float, hi: float) -> DistributionSpec:
    return DistributionSpec(UNIFORM, lo=float(lo), hi=float(hi))


def log_normal(mu: float, sigma: float) -> DistributionSpec:
    return DistributionSpec(LOGNORMAL, mu=float(mu), sigma=float(sigma))


def exponential(rate: float) -> DistributionSpec:
    return DistributionSpec(EXPONENTIAL, rate=float(rate))


def riesz_factor() -> DistributionSpec:
    return DistributionSpec(RIESZ_FACTOR)


def rademacher_sign() -> DistributionSpec:
    return DistributionSpec(RADEMACHER)


def scaled_copy(base: DistributionSpec, scale: float) -> DistributionSpec:
    # composing scales keeps normalization a single exact multiplication
    if base.family == SCALED:
        return DistributionSpec(SCALED, base=base.base, scale=float(scale) * base.scale)
    return DistributionSpec(SCALED, base=base, scale=float(scale))


@dataclass(frozen=True)
class RandomSource:
    """Counter-based stream identity: (seed, stream_id) keys a Philox stream.

    Vectorized simulations carve a stream into fixed-size replication blocks;
    block b draws from a disjoint counter region of the same keyed stream, so
    results do not depend on how many workers process the blocks.
    """

    seed: int
    stream_id: int = 0

    def generator(self, block: int = 0) -> np.random.Generator:
        key = np.array([self.seed % 2**64, self.stream_id % 2**64], dtype=np.uint64)
        bitgen = np.random.Philox(counter=[0, 0, block, 0], key=key)
        return np.random.Generator(bitgen)

    def child(self, offset: int) -> "RandomSource":
        return RandomSource(self.seed, self.stream_id + offset)


# ---------------------------------------------------------------------------
# support structure helpers


def finite_support(spec: DistributionSpec):
    """(values, probs) arrays in declaration order, or None if continuous."""
    if spec.family == TWO_POINT:
        return (
            np.array([spec.a, spec.b]),
            np.array([spec.prob_a, 1.0 - spec.prob_a]),
        )
    if spec.family == FINITE:
        vals = np.array([v for v, _ in spec.atoms])
        probs = np.array([p for _, p in spec.atoms])
        return vals, probs
    if spec.family == RADEMACHER:
        return np.array([-1.0, 1.0]), np.array([0.5, 0.5])
    if spec.family == SCALED:
        sup = finite_support(spec.base)
        if sup is None:
            return None
        return sup[0] * spec.scale, sup[1]
    return None


def is_nonnegative(spec: DistributionSpec) -> bool:
    """True when X >= 0 almost surely can be read off the parameters."""
    if spec.family in (LOGNORMAL, EXPONENTIAL, RIESZ_FACTOR):
        return True
    if spec.family == UNIFORM:
        return spec.lo >= 0.0
    if spec.family == SCALED:
        return spec.scale > 0.0 and is_nonnegative(spec.base)
    sup = finite_support(spec)
    if sup is not None:
        return bool(np.all(sup[0] >= 0.0))
    return False


# ---------------------------------------------------------------------------
# moments


def check_order(q: float) -> None:
    """InvalidOrderError unless the moment order q lies in (0, inf); nan does not."""
    if not (0.0 < q < math.inf):
        raise InvalidOrderError(f"moment order must be positive and finite, got {q}")


def abs_moment(spec: DistributionSpec, q: float) -> float:
    """E|X|^q from a finite sum or a closed form.

    No family needs quadrature.  Each value carries only the rounding of its
    formula (u = 2^-53):
      * finite support: math.fsum of p |v|^q, within about 2u relative;
      * uniform: a difference of powers over (q + 1)(hi - lo), within a few u
        unless 0 <= lo is close to hi, where the difference cancels;
      * lognormal: exp(q mu + q^2 sigma^2 / 2), within about u times the
        magnitude of the exponent;
      * exponential: exp(lgamma(q + 1) - q log rate), within about u times
        the magnitude of the exponent plus lgamma's own error; 3.3e-14
        relative at most on q in (0, 40] for rates 0.7 to 2;
      * Riesz factor: correctly rounded at integer q, and within 6e-15
        relative elsewhere on (0, 1023] (see _riesz_factor_moment).
    For every family, a moment that overflows or is not finite raises
    NonfiniteMomentError.
    """
    check_order(q)
    q = float(q)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = _family_abs_moment(spec, q)
    except OverflowError as exc:
        raise NonfiniteMomentError(f"E|X|^q overflows at q = {q} for {spec_to_text(spec)}") from exc
    if not math.isfinite(value):
        raise NonfiniteMomentError(
            f"E|X|^q = {value} is not finite at q = {q} for {spec_to_text(spec)}"
        )
    return value


def _family_abs_moment(spec: DistributionSpec, q: float) -> float:
    if spec.family == SCALED:
        return abs_moment(spec.base, q) * abs(spec.scale) ** q

    sup = finite_support(spec)
    if sup is not None:
        vals, probs = sup
        return math.fsum(p * abs(v) ** q for v, p in zip(vals, probs))

    if spec.family == UNIFORM:
        return _truncated_moment(spec, q, 0.0, math.inf, False)

    if spec.family == LOGNORMAL:
        return math.exp(q * spec.mu + 0.5 * q * q * spec.sigma * spec.sigma)

    if spec.family == EXPONENTIAL:
        return math.exp(math.lgamma(q + 1.0) - q * math.log(spec.rate))

    if spec.family == RIESZ_FACTOR:
        return _riesz_factor_moment(q)

    raise AssertionError(f"unhandled family {spec.family}")


def _riesz_factor_moment(q: float) -> float:
    """E(1 + cos U)^q = 2^q Gamma(q + 1/2) / (sqrt(pi) Gamma(q + 1)) =: M(q).

    At integer q = k, M(k) = C(2k, k) / 2^k, and the integer division rounds
    correctly.  Otherwise q = m + f with 0 < f < 1, and M(f) from math.gamma
    is carried up by M(x) = 2 (1 - 1/(2x)) M(x - 1) for x = f + 1, ..., q:
    the power 2^m is applied exactly at the end, and each factor adds about
    two roundings.  Against mpmath this stays within 6e-15 relative on
    [0.01, 1023], where math.gamma(q + 1) alone is 7e-14 off near q = 127.
    """
    if q > 1100.0:
        # M(q) > 2^q / sqrt(pi (q + 1)) passes the float range before q = 1031
        raise OverflowError(f"the Riesz factor moment overflows at q = {q}")
    m = math.floor(q)
    if q == m:
        return math.comb(2 * m, m) / 2**m
    f = q - m
    value = 2.0**f * (math.gamma(f + 0.5) / math.gamma(f + 1.0)) / math.sqrt(math.pi)
    for j in range(1, m + 1):
        value *= 1.0 - 0.5 / (f + j)
    return math.ldexp(value, m)


class RawMoment(NamedTuple):
    """E X^l as computed, within gamma(ulps) * magnitude of the exact value.

    gamma(k) = k u / (1 - k u) with u = 2^-53 (Higham 2002, ch. 3), and
    magnitude, the sum of the absolute values of the formula's terms, is at
    least |E X^l|, so the cancellation of a signed law stays inside the bound.
    """

    value: float
    magnitude: float
    ulps: float


def raw_moment(spec: DistributionSpec, l: int) -> RawMoment:
    """E X^l for an integer l >= 0, with its rounding bound, for every family.

      * finite support: math.fsum of p v^l (8 ulps of sum p |v|^l);
      * uniform: sum_{t <= l} hi^t lo^(l - t) / (l + 1), which is
        (hi^(l+1) - lo^(l+1)) / ((l + 1)(hi - lo)) with the division done
        term by term (16 ulps of the sum of the terms' magnitudes);
      * exponential: l! / rate^l (6 ulps);
      * Riesz factor: C(2l, l) / 2^l, correctly rounded;
      * lognormal: exp(l mu + l^2 sigma^2 / 2).  The exponent's terms carry
        about 4 roundings each, which exp turns into a relative error of
        their size times u, so its stated bound is 6 (|l mu| + l^2 sigma^2 / 2)
        + 2 ulps;
      * scaled: s^l times the base's value (4 ulps more than the base).
    A moment that overflows raises NonfiniteMomentError.
    """
    try:
        moment = _family_raw_moment(spec, int(l))
    except (OverflowError, ZeroDivisionError):  # a power that underflows to 0 divides
        moment = None
    if moment is None or not (math.isfinite(moment.value) and math.isfinite(moment.magnitude)):
        raise NonfiniteMomentError(f"E X^{l} overflows for {spec_to_text(spec)}")
    return moment


def _family_raw_moment(spec: DistributionSpec, l: int) -> RawMoment:
    if l == 0:
        return RawMoment(1.0, 1.0, 0.0)
    if spec.family == SCALED:
        base = _family_raw_moment(spec.base, l)
        return RawMoment(spec.scale**l * base.value, abs(spec.scale) ** l * base.magnitude,
                         base.ulps + 4.0)
    sup = finite_support(spec)
    if sup is not None:
        terms = [float(pr) * float(v) ** l for v, pr in zip(*sup)]
        return RawMoment(math.fsum(terms), math.fsum(map(abs, terms)), 8.0)
    if spec.family == UNIFORM:
        terms = [spec.hi**t * spec.lo ** (l - t) for t in range(l + 1)]
        return RawMoment(math.fsum(terms) / (l + 1), math.fsum(map(abs, terms)) / (l + 1), 16.0)
    if spec.family == EXPONENTIAL:
        value = math.factorial(l) / spec.rate**l
        return RawMoment(value, value, 6.0)
    if spec.family == RIESZ_FACTOR:
        value = math.comb(2 * l, l) / 2**l
        return RawMoment(value, value, 1.0)
    if spec.family == LOGNORMAL:
        drift, spread = l * spec.mu, 0.5 * l * l * spec.sigma * spec.sigma
        value = math.exp(drift + spread)
        return RawMoment(value, value, 6.0 * (abs(drift) + spread) + 2.0)
    raise AssertionError(f"unhandled family {spec.family}")


def normalize_unit_p_moment(spec: DistributionSpec, p: float):
    """Return (scaled spec, scale) with E|scale*X|^p = 1."""
    mp = abs_moment(spec, p)
    if mp <= 0.0:
        raise DegenerateZeroError("cannot normalize a law concentrated at zero")
    scale = mp ** (-1.0 / p)
    return scaled_copy(spec, scale), scale


# ---------------------------------------------------------------------------
# sampling


def quantile(spec: DistributionSpec, u, out=None):
    """Inverse CDF, vectorized over u in [0, 1); monotone nondecreasing.

    A finite law with sorted values v_0 <= ... <= v_k and cut points
    c_j = P(X <= v_j), j < k, maps u to v_idx with idx = #{j : c_j <= u},
    that is searchsorted(c, u, side="right"), over flat chunks of
    GATHER_CHUNK draws, so the index arrays stay small whatever the size of
    u.  Continuous families evaluate their closed forms in place, with the
    same floating-point operations as the plain expressions.

    out, when given, is a C-contiguous float array of u's shape that
    receives the values and is returned; it may be u itself, which is then
    overwritten.  With out=None a fresh array is returned and u is never
    written to, which the comonotone coupling relies on.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim == 0:
        return quantile(spec, u[None])[0]
    if out is None:
        out = np.empty(u.shape)
    elif not (out.shape == u.shape and out.flags.c_contiguous):
        raise ValueError("out must be a C-contiguous array of the shape of u")
    if spec.family == SCALED:
        if spec.scale < 0.0:
            u = np.subtract(1.0, u, out=out)
        quantile(spec.base, u, out=out)
        out *= spec.scale
        return out
    sup = finite_support(spec)
    if sup is not None:
        _gather_atoms(sup, u, out)
    elif spec.family == UNIFORM:
        np.multiply(u, spec.hi - spec.lo, out=out)
        out += spec.lo
    elif spec.family == LOGNORMAL:
        from scipy import special

        special.ndtri(u, out=out)
        out *= spec.sigma
        out += spec.mu
        np.exp(out, out=out)
    elif spec.family == EXPONENTIAL:
        np.negative(u, out=out)
        np.log1p(out, out=out)
        np.negative(out, out=out)
        out /= spec.rate
    elif spec.family == RIESZ_FACTOR:
        # 1 - cos(pi u) in half-angle form: 2 sin^2(pi w / 2) with w = min(u, 1 - u),
        # and 2 - 2 sin^2(pi w / 2) above 1/2, so nothing cancels near u = 0 and sin
        # runs on [0, pi/4] only; w = |u - [u > 1/2]| is exact for every float u
        upper = u > 0.5  # before out, which may be u, is written
        np.subtract(u, upper, out=out)
        np.abs(out, out=out)
        out *= np.pi / 2.0
        np.sin(out, out=out)
        np.square(out, out=out)
        out -= upper
        np.abs(out, out=out)
        out *= 2.0
    else:
        raise AssertionError(f"unhandled family {spec.family}")
    return out


def _gather_atoms(support, u: np.ndarray, out: np.ndarray) -> None:
    """Finite-law quantile of u into out, chunk by chunk of the flat arrays."""
    vals, probs = support
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    cum = np.cumsum(probs[order])[:-1]
    flat_u, flat_out = u.reshape(-1), out.reshape(-1)
    for start in range(0, flat_u.size, GATHER_CHUNK):
        idx = np.searchsorted(cum, flat_u[start:start + GATHER_CHUNK], side="right")
        # idx never leaves 0..k, so "clip" changes no value; unlike the default
        # "raise" it writes straight into out
        np.take(vals, idx, out=flat_out[start:start + GATHER_CHUNK], mode="clip")


def sample(spec: DistributionSpec, size, gen: np.random.Generator, out=None) -> np.ndarray:
    """Draw samples from gen: one uniform per draw, mapped through quantile,
    for every law.  A draw is the quantile of its uniform, so one shared
    uniform couples any two specs.

    With out, a C-contiguous float array of shape size, the uniforms are
    drawn into it and mapped in place, so a caller that reuses out allocates
    nothing of its size per draw.
    """
    u = gen.random(size) if out is None else gen.random(out=out)
    return quantile(spec, u, out=u)


def quantile_poly(spec: DistributionSpec):
    """spec's quantile at U as a polynomial {(t, k): coefficient} in U and
    L = -log(1 - U), for uniform and exponential laws and positive scalings of
    them; None for any other law."""
    if spec.family == SCALED and spec.scale > 0.0:
        base = quantile_poly(spec.base)
        return None if base is None else {key: spec.scale * c for key, c in base.items()}
    if spec.family == UNIFORM:
        return {(0, 0): spec.lo, (1, 0): spec.hi - spec.lo}
    if spec.family == EXPONENTIAL:
        return {(0, 1): 1.0 / spec.rate}
    return None


# ---------------------------------------------------------------------------
# truncated moments (used by the hypothesis fitters)


def expect(spec: DistributionSpec, r: float, shift: float = 0.0, a: float = -1.0,
           b: float = math.inf) -> float:
    """E||X|^r - shift| 1{a < |X|^r <= b} for r > 0 and shift >= 0.

    A finite law sums its atoms' terms with math.fsum.  A scaled copy sX is
    |s|^r times its base's value at shift, a and b over |s|^r.  A continuous
    law splits the window at |X|^r = shift and reads the side below from
    lower truncated moments, the side above from upper (tail) ones, so that
    a deep tail keeps its relative accuracy.
    """
    sup = finite_support(spec)
    if sup is not None:
        terms = [pr * abs(t - shift) for v, pr in zip(*sup) if a < (t := abs(v) ** r) <= b]
        return math.fsum(terms)
    if spec.family == SCALED:
        c = abs(spec.scale) ** r
        return c * expect(spec.base, r, shift / c, a / c, b / c)
    total = 0.0
    for t_lo, t_hi, upper in ((a, min(b, shift), False), (max(a, shift), b, True)):
        x_lo, x_hi = (_root(t, r) for t in (t_lo, t_hi))
        if x_lo < x_hi:
            side = (_truncated_moment(spec, r, x_lo, x_hi, upper)
                    - shift * _truncated_moment(spec, 0.0, x_lo, x_hi, upper))
            total += side if upper else -side
    return total


def _root(t: float, r: float) -> float:
    """max(t, 0)^(1/r), a window end in the units of |X|; one past every float is inf."""
    try:
        return max(t, 0.0) ** (1.0 / r)
    except OverflowError:
        return math.inf


def _truncated_moment(spec: DistributionSpec, k: float, lo: float, hi: float,
                      upper: bool) -> float:
    """E|X|^k 1{lo < |X| <= hi} of a continuous law, 0 <= lo < hi <= inf.

    Uniform: powers of the parts of [lo, hi] on either side of 0.  Otherwise
    E|X|^k times the increment of the law tilted by |x|^k, read from its
    upper tail when upper is set: the normal CDF at (log x - mu) / sigma -
    k sigma (math.erfc) for a lognormal law, the regularized incomplete gamma
    function gamma_inc at (k + 1, rate x) for an exponential one, and the
    regularized incomplete beta function beta_inc at (k + 1/2, 1/2, x / 2)
    for the Riesz factor, since X / 2 is Beta(1/2, 1/2).  Each computes the
    side asked for directly, so a deep tail keeps its relative accuracy.
    """
    if spec.family == UNIFORM:
        total = 0.0
        for u, v in ((max(spec.lo, 0.0), spec.hi), (max(-spec.hi, 0.0), -spec.lo)):
            u, v = max(u, lo), min(v, hi)
            if u < v:
                total += v ** (k + 1.0) - u ** (k + 1.0)
        return total / ((k + 1.0) * (spec.hi - spec.lo))
    if spec.family == LOGNORMAL:
        z = [(math.log(x) - spec.mu) / spec.sigma - k * spec.sigma if x > 0.0 else -math.inf
             for x in (lo, hi)]
        cdf = [0.5 * math.erfc((zx if upper else -zx) / math.sqrt(2.0)) for zx in z]
    elif spec.family == EXPONENTIAL:
        cdf = [gamma_inc(k + 1.0, spec.rate * x, upper) for x in (lo, hi)]
    elif spec.family == RIESZ_FACTOR:
        cdf = [beta_inc(k + 0.5, 0.5, min(x, 2.0) / 2.0, upper) for x in (lo, hi)]
    else:
        raise AssertionError(f"unhandled family {spec.family}")
    mass = cdf[0] - cdf[1] if upper else cdf[1] - cdf[0]
    return mass * _family_abs_moment(spec, k) if k > 0.0 else mass


# a series or continued fraction stops once a step changes it by at most an ulp
_EPS = 2.0**-52
# the steps allowed before a series or continued fraction counts as not converging
_MAX_STEPS = 10_000
# stands in for a zero denominator of the modified Lentz method
_TINY = 1e-300


def gamma_inc(a: float, x: float, upper: bool = False) -> float:
    """The regularized incomplete gamma function P(a, x), or Q(a, x) = 1 - P(a, x)
    when upper is set; a > 0, x >= 0.

    Below x = a + 1 the series DLMF 8.7.1 gives P; from there Legendre's
    continued fraction DLMF 8.9.2, in its even part and by the modified
    Lentz method, gives Q.  The other side is one minus that, and is not
    small where it is taken that way, so the side asked for keeps its
    relative accuracy however deep its tail.  Against mpmath, within 2e-15
    relative down to values near 1e-300 for a in [1, 10] (see _gamma_front).
    Exactly 0 or 1 at x = 0 and x = inf; ArithmeticError if the steps do not
    settle, as for a nan.
    """
    if x <= 0.0:
        return float(upper)
    if x == math.inf:
        return float(not upper)
    if x < a + 1.0:
        # P = x^a e^-x / Gamma(a + 1) * sum_n x^n / ((a + 1) ... (a + n))
        term = total = 1.0
        for n in range(1, _MAX_STEPS):
            term *= x / (a + n)
            total += term
            if term <= total * _EPS:
                return _side(total * _gamma_front(a, x) / a, upper, False)
    else:
        # Q = x^a e^-x / Gamma(a) / (x + 1 - a - 1 (1 - a) / (x + 3 - a - 2 (2 - a) / ...))
        b = x + 1.0 - a
        c, d = 1.0 / _TINY, 1.0 / b
        frac = d
        for i in range(1, _MAX_STEPS):
            an = -i * (i - a)
            b += 2.0
            d = 1.0 / (an * d + b or _TINY)
            c = b + an / c or _TINY
            step = c * d
            frac *= step
            if abs(step - 1.0) <= _EPS:
                return _side(frac * _gamma_front(a, x), upper, True)
    raise ArithmeticError(f"the incomplete gamma function did not converge at a = {a}, x = {x}")


def _side(value: float, upper: bool, value_is_upper: bool) -> float:
    """value on the side asked for: itself, or one minus it."""
    return value if value_is_upper == upper else 1.0 - value


def _gamma_front(a: float, x: float) -> float:
    """x^a e^-x / Gamma(a) from the powers themselves, each within about an
    ulp, while the value is a normal float (e^-x is taken as two halves to
    reach x = 1400); otherwise, or when a power leaves the float range, as
    exp(a ln x - x - lgamma(a)), whose rounding grows with the exponent:
    4e-14 relative near 1e-300."""
    if x < 1400.0:
        half = math.exp(-0.5 * x)
        with contextlib.suppress(OverflowError):
            value = x**a * half / math.gamma(a) * half
            if value >= sys.float_info.min:
                return value
    return math.exp(a * math.log(x) - x - math.lgamma(a))


def beta_inc(a: float, b: float, x: float, upper: bool = False) -> float:
    """The regularized incomplete beta function I_x(a, b), or 1 - I_x(a, b)
    when upper is set; a, b > 0, 0 <= x <= 1.

    The continued fraction DLMF 8.17.22, by the modified Lentz method, for
    x <= (a + 1) / (a + b + 2), where it converges fast; above that the
    same fraction of I_{1-x}(b, a) = 1 - I_x(a, b).  As with gamma_inc the
    side asked for is computed directly, not as one minus a value near 1.
    Against mpmath, within 3e-15 relative down to values near 1e-300 for
    b = 1/2 and a in [1/2, 9] (see _beta_front).  Exactly 0 or 1 at x = 0
    and x >= 1; ArithmeticError if the steps do not settle, as for a nan.
    """
    if x <= 0.0:
        return float(upper)
    if x >= 1.0:
        return float(not upper)
    value_is_upper = x > (a + 1.0) / (a + b + 2.0)
    if value_is_upper:
        a, b, x = b, a, 1.0 - x
    # I_x(a, b) = x^a (1 - x)^b / (a B(a, b)) / (1 + d_1 / (1 + d_2 / (1 + ...))),
    # d_2m = m (b - m) x / ((a + 2m - 1)(a + 2m)),
    # d_2m+1 = -(a + m)(a + b + m) x / ((a + 2m)(a + 2m + 1))
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1.0) or _TINY)
    frac = d
    for m in range(1, _MAX_STEPS):
        for dm in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 / (1.0 + dm * d or _TINY)
            c = 1.0 + dm / c or _TINY
            step = c * d
            frac *= step
        if abs(step - 1.0) <= _EPS:
            return _side(frac * _beta_front(a, b, x) / a, upper, value_is_upper)
    raise ArithmeticError(f"the incomplete beta function did not converge at a = {a}, "
                          f"b = {b}, x = {x}")


def _beta_front(a: float, b: float, x: float) -> float:
    """x^a (1 - x)^b / B(a, b) from the powers themselves while the value is a
    normal float, otherwise from its logarithm (see _gamma_front)."""
    with contextlib.suppress(OverflowError):
        value = x**a * (1.0 - x) ** b * math.gamma(a + b) / (math.gamma(a) * math.gamma(b))
        if value >= sys.float_info.min:
            return value
    return math.exp(a * math.log(x) + b * math.log1p(-x)
                    + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))


# ---------------------------------------------------------------------------
# text form


# (text key, field) pairs of each family whose text is "family:key=value,..."
_TEXT_KEYS = {
    TWO_POINT: (("a", "a"), ("b", "b"), ("pa", "prob_a")),
    UNIFORM: (("lo", "lo"), ("hi", "hi")),
    LOGNORMAL: (("mu", "mu"), ("sigma", "sigma")),
    EXPONENTIAL: (("rate", "rate"),),
    RIESZ_FACTOR: (),
    RADEMACHER: (),
}


def spec_to_text(spec: DistributionSpec) -> str:
    if spec.family in _TEXT_KEYS:
        body = ",".join(f"{key}={getattr(spec, field)!r}" for key, field in _TEXT_KEYS[spec.family])
        return f"{spec.family}:{body}" if body else spec.family
    if spec.family == FINITE:
        body = "|".join(f"{v!r}@{p!r}" for v, p in spec.atoms)
        return f"finite:atoms={body}"
    if spec.family == SCALED:
        return f"scaled:scale={spec.scale!r},base=({spec_to_text(spec.base)})"
    raise AssertionError(f"unhandled family {spec.family}")


def parse_spec(text: str) -> DistributionSpec:
    """Parse the "family:key=value,..." text form; inverse of spec_to_text."""
    text = text.strip()
    family, _, rest = text.partition(":")
    family = family.strip().lower()
    kv = _split_params(rest)
    try:
        if family in _TEXT_KEYS:
            return DistributionSpec(
                family, **{field: float(kv[key]) for key, field in _TEXT_KEYS[family]}
            )
        if family == FINITE:
            atoms = []
            for piece in kv["atoms"].split("|"):
                v, _, pr = piece.partition("@")
                atoms.append((float(v), float(pr)))
            return finitely_supported(atoms)
        if family == SCALED:
            base_text = kv["base"]
            if base_text.startswith("(") and base_text.endswith(")"):
                base_text = base_text[1:-1]
            return scaled_copy(parse_spec(base_text), float(kv["scale"]))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"malformed distribution spec {text!r}: {exc}") from exc
    raise ValueError(f"unknown distribution family {family!r}")


def _split_params(rest: str) -> dict:
    """Split "k=v,k=v" at depth zero of parentheses."""
    out = {}
    depth = 0
    piece = []
    pieces = []
    for ch in rest:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            pieces.append("".join(piece))
            piece = []
        else:
            piece.append(ch)
    if piece:
        pieces.append("".join(piece))
    for item in pieces:
        if not item.strip():
            continue
        key, _, value = item.partition("=")
        out[key.strip().lower()] = value.strip()
    return out
