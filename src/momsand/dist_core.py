"""Distribution specifications, moment oracles, and seeded sampling.

A DistributionSpec describes the law of a scalar random variable X from a
small set of parametric families (two-point, general finite support, uniform,
lognormal, exponential, the "Riesz factor" law of 1 + cos U with U uniform on
[0, 2pi], Rademacher signs, and scaled copies of any of these).  On top of the
specs the module provides

  * abs_moment: E|X|^q with a method tag (finite sum, closed form, or
    quadrature) and a certified absolute error,
  * normalize_unit_p_moment: rescale so that E|X|^p = 1,
  * expect: E f(X) for arbitrary integrands with declared kink locations,
    used by the hypothesis fitters.

Sampling is counter-based: a RandomSource is a (seed, stream_id) pair and
every draw is a deterministic function of it, so identical sources reproduce
bitwise-identical paths no matter how work is scheduled.  All families are
sampled by inverse-CDF transform of a single uniform per draw, which is also
what makes comonotone coupling of two specs trivial (share the uniform).
A finite law finds its atom by a comparison ladder, idx = sum_c (u >= c)
over the cumulative cut points c.  That equals searchsorted(c, u,
side="right") and is cheaper up to LADDER_MAX_CUTS = 32 cut points;
longer supports use searchsorted.

Text form: specs parse from "family:key=value,..." strings, for example
"twopoint:a=0.5,b=1.5,pa=0.5", "uniform:lo=0,hi=2", "riesz",
"finite:atoms=-1@0.25|0.5@0.5|2@0.25", and
"scaled:scale=0.5,base=(twopoint:a=1,b=3,pa=0.5)".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

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

# method tags for MomentEstimate
CLOSED_FORM = "ClosedForm"
QUADRATURE = "Quadrature"
FINITE_SUM = "FiniteSum"

_PROB_SUM_TOL = 1e-9
_DEGENERACY_TOL = 1e-9
# finite laws with more cut points than this sample by binary search
LADDER_MAX_CUTS = 32
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
class MomentEstimate:
    q: float
    value: float
    abs_error: float
    method: str


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


def abs_moment(spec: DistributionSpec, q: float) -> MomentEstimate:
    """E|X|^q with a certified absolute error.

    Finite-support families sum exactly; uniform, lognormal, and exponential
    have closed forms; the Riesz factor is integrated by an algebraic-weight
    quadrature rule that is exact to roundoff for every q > 0.  For every
    family, a moment that overflows or is not finite raises
    NonfiniteMomentError.
    """
    if not (q > 0.0):
        raise InvalidOrderError(f"moment order must be positive, got {q}")
    q = float(q)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            est = _family_abs_moment(spec, q)
    except OverflowError as exc:
        raise NonfiniteMomentError(f"E|X|^q overflows at q = {q} for {spec_to_text(spec)}") from exc
    if not math.isfinite(est.value):
        raise NonfiniteMomentError(
            f"E|X|^q = {est.value} is not finite at q = {q} for {spec_to_text(spec)}"
        )
    return est


def _family_abs_moment(spec: DistributionSpec, q: float) -> MomentEstimate:
    if spec.family == SCALED:
        inner = abs_moment(spec.base, q)
        s = abs(spec.scale) ** q
        return MomentEstimate(q, s * inner.value, s * inner.abs_error, inner.method)

    sup = finite_support(spec)
    if sup is not None:
        vals, probs = sup
        value = math.fsum(p * abs(v) ** q for v, p in zip(vals, probs))
        return MomentEstimate(q, value, 0.0, FINITE_SUM)

    if spec.family == UNIFORM:
        value = _uniform_abs_moment(spec.lo, spec.hi, q)
        return MomentEstimate(q, value, 0.0, CLOSED_FORM)

    if spec.family == LOGNORMAL:
        value = math.exp(q * spec.mu + 0.5 * q * q * spec.sigma * spec.sigma)
        return MomentEstimate(q, value, 0.0, CLOSED_FORM)

    if spec.family == EXPONENTIAL:
        value = math.exp(special.gammaln(q + 1.0) - q * math.log(spec.rate))
        return MomentEstimate(q, value, 0.0, CLOSED_FORM)

    if spec.family == RIESZ_FACTOR:
        value, err = _riesz_factor_moment(q)
        return MomentEstimate(q, value, err, QUADRATURE)

    raise AssertionError(f"unhandled family {spec.family}")


def _uniform_abs_moment(lo: float, hi: float, q: float) -> float:
    # integral of |x|^q over [lo, hi] divided by the width; split at 0 if needed
    width = hi - lo
    if lo >= 0.0:
        num = hi ** (q + 1.0) - lo ** (q + 1.0)
    elif hi <= 0.0:
        num = (-lo) ** (q + 1.0) - (-hi) ** (q + 1.0)
    else:
        num = (-lo) ** (q + 1.0) + hi ** (q + 1.0)
    return num / ((q + 1.0) * width)


def _riesz_factor_moment(q: float) -> tuple[float, float]:
    """(1/2pi) int_0^{2pi} (1+cos t)^q dt by singularity-aware quadrature.

    Reduction: the integral equals (2^{q+1}/pi) int_0^{pi/2} sin^{2q} u du.
    The integrand vanishes like u^{2q} at u = 0, so a plain panel rule stalls
    for small q; QUADPACK's algebraic-weight rule integrates
    (sin u / u)^{2q} * u^{2q} with the u^{2q} factor treated analytically and
    is exact to roundoff for every q > 0.
    """
    a = 2.0 * q
    # an overflowing prefactor raises before any quadrature runs or warns
    c = 2.0 ** (q + 1.0) / math.pi

    def smooth_part(u: float) -> float:
        if u == 0.0:
            return 1.0
        return (math.sin(u) / u) ** a

    val, err = integrate.quad(
        smooth_part,
        0.0,
        math.pi / 2.0,
        weight="alg",
        wvar=(a, 0.0),
        epsabs=1e-14,
        epsrel=1e-13,
        limit=200,
    )
    return c * val, c * abs(err)


def normalize_unit_p_moment(spec: DistributionSpec, p: float):
    """Return (scaled spec, scale) with E|scale*X|^p = 1."""
    est = abs_moment(spec, p)
    if est.value <= 0.0:
        raise DegenerateZeroError("cannot normalize a law concentrated at zero")
    scale = est.value ** (-1.0 / p)
    return scaled_copy(spec, scale), scale


def is_degenerate_modulus(spec: DistributionSpec, p: float) -> bool:
    """Cauchy-Schwarz equality test: (E|X|^{p/2})^2 >= (1 - 1e-9) E|X|^p."""
    half = abs_moment(spec, p / 2.0).value
    full = abs_moment(spec, p).value
    if full <= 0.0:
        return True
    return half * half >= (1.0 - _DEGENERACY_TOL) * full


# ---------------------------------------------------------------------------
# sampling


def quantile(spec: DistributionSpec, u, out=None):
    """Inverse CDF, vectorized over u in [0, 1); monotone nondecreasing.

    A finite law with sorted values v_0 <= ... <= v_k and cut points
    c_j = P(X <= v_j), j < k, maps u to v_idx with idx = #{j : c_j <= u}.
    Up to LADDER_MAX_CUTS cut points idx is a comparison ladder,
    sum_j (u >= c_j), one vectorized pass per cut point; above that it is
    searchsorted(c, u, side="right").  Both count the same set, so the
    ladder only saves time: for a few atoms it beats the binary search.
    The atoms are gathered over flat chunks of GATHER_CHUNK draws, so the
    index arrays stay small whatever the size of u.  Continuous families
    evaluate their closed forms in place, with the same floating-point
    operations as the plain expressions.

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
        np.multiply(np.pi, u, out=out)
        np.cos(out, out=out)
        np.subtract(1.0, out, out=out)
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
        chunk = flat_u[start:start + GATHER_CHUNK]
        if len(cum) > LADDER_MAX_CUTS:
            idx = np.searchsorted(cum, chunk, side="right")
        else:
            # one byte per count (at most LADDER_MAX_CUTS) keeps the passes cheap
            idx = np.zeros(chunk.shape, dtype=np.uint8)
            for c in cum:
                idx += chunk >= c
        # idx never leaves 0..k, so "clip" changes no value; unlike the default
        # "raise" it writes straight into out
        np.take(vals, idx, out=flat_out[start:start + GATHER_CHUNK], mode="clip")


def sample(spec: DistributionSpec, size, gen: np.random.Generator, out=None) -> np.ndarray:
    """Draw samples: one uniform per draw pushed through the quantile map.

    With out, a C-contiguous float array of shape size, the uniforms are
    drawn into it (the same stream as gen.random(size)) and mapped in place,
    so a caller that reuses out allocates nothing per draw.
    """
    u = gen.random(size) if out is None else gen.random(out=out)
    return quantile(spec, u, out=u)


# ---------------------------------------------------------------------------
# general expectations (used by the hypothesis fitters)


def expect(spec: DistributionSpec, fn, breaks=()):
    """E fn(X) and an absolute error bound.

    fn is a scalar callable.  breaks lists x-locations where fn kinks or
    jumps; quadrature subdivides there so window indicators and absolute
    values integrate accurately.  Finite-support laws sum exactly.
    """
    if spec.family == SCALED:
        s = spec.scale
        inner_breaks = [bk / s for bk in breaks]
        return expect(spec.base, lambda x: fn(s * x), inner_breaks)

    sup = finite_support(spec)
    if sup is not None:
        vals, probs = sup
        value = math.fsum(p * fn(v) for v, p in zip(vals, probs))
        return value, 0.0

    if spec.family == UNIFORM:
        width = spec.hi - spec.lo
        return _quad_segments(lambda x: fn(x) / width, spec.lo, spec.hi, breaks)

    if spec.family == LOGNORMAL:
        m, s = spec.mu, spec.sigma

        def integrand(x: float) -> float:
            z = (math.log(x) - m) / s
            dens = math.exp(-0.5 * z * z) / (x * s * math.sqrt(2.0 * math.pi))
            return fn(x) * dens

        return _quad_segments(integrand, 0.0, math.inf, breaks)

    if spec.family == EXPONENTIAL:
        r = spec.rate

        def integrand(x: float) -> float:
            return fn(x) * r * math.exp(-r * x)

        return _quad_segments(integrand, 0.0, math.inf, breaks)

    if spec.family == RIESZ_FACTOR:
        # X = 1 + cos t with t uniform on [0, pi] by symmetry
        t_breaks = [
            math.acos(min(1.0, max(-1.0, bk - 1.0))) for bk in breaks if 0.0 <= bk <= 2.0
        ]

        def integrand(t: float) -> float:
            return fn(1.0 + math.cos(t)) / math.pi

        return _quad_segments(integrand, 0.0, math.pi, t_breaks)

    raise AssertionError(f"unhandled family {spec.family}")


def _quad_segments(f, lo: float, hi: float, knots) -> tuple[float, float]:
    pts = sorted({float(k) for k in knots if lo < k < hi})
    if math.isinf(hi):
        edges = [lo] + pts
        total = 0.0
        err = 0.0
        for left, right in zip(edges[:-1], edges[1:]):
            v, e = integrate.quad(f, left, right, epsabs=1e-13, epsrel=1e-12, limit=200)
            total += v
            err += abs(e)
        v, e = integrate.quad(f, edges[-1], math.inf, epsabs=1e-13, epsrel=1e-12, limit=200)
        return total + v, err + abs(e)
    v, e = integrate.quad(
        f, lo, hi, points=pts or None, epsabs=1e-13, epsrel=1e-12, limit=200
    )
    return v, abs(e)


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
