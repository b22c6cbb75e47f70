"""Fit and certify the hypothesis parameters behind the moment sandwich.

Given a spec normalized to E|X|^p = 1, the fitters extract the quantities the
constant formulas consume:

  * small exponents (0 < p <= 1): the Cauchy-Schwarz ratio
    lambda = E|X|^{p/2} / (E|X|^p)^{1/2} and the window mass
    delta(A) = E(|X|^p - m) 1{m <= |X|^p <= A m} with m = E|X|^p,
  * large exponents (p > 1): the mean absolute deviation
    mu = E| |X| - E|X| |, a truncation level A with tail
    E||X| - E|X|| 1{|X| > A} <= mu/4, a moment order q < p with
    lambda(q) = (E|X|^q)^{1/q} < 1, and the Lyapunov ratio chain
    lambda_k = (E|X|^{p-k})^{1/(p-k)} / (E|X|^{p-k+1})^{1/(p-k+1)}.

Certificates carry margins (distance to the degenerate boundary plus the
quadrature error absorbed) and re-verify against the moment oracle.  Only
deterministic moment methods are allowed inside certificates; a Monte Carlo
moment would poison reproducibility.

The module also owns PairSpec, the (X, B) pair model for perpetuity partial
sums, and an advisory fixed-point check for the nondegeneracy condition
P(Xv + B = v) < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dist_core as dc
from .errors import (
    DegenerateModulusError,
    EmptyWindowError,
    NoValidQError,
    NotNormalizedError,
)

DEFAULT_A_GRID_SMALL = (1.1, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0)
DEFAULT_A_GRID_LARGE = (1.5, 2.0, 3.0, 5.0, 10.0, 20.0)

_SLACK = 1e-9
_NORM_TOL = 1e-9


@dataclass(frozen=True)
class SmallPCertificate:
    p: float
    lam: float
    delta: float
    a_param: float
    margins: dict


@dataclass(frozen=True)
class LargePCertificate:
    p: float
    mu: float
    a_param: float
    q: float
    lam: float
    lam_chain: tuple[float, ...]
    margins: dict


@dataclass(frozen=True)
class PairSpec:
    """An i.i.d. pair model (X, B) with X >= 0 scalar and B in R^d."""

    x_spec: dc.DistributionSpec
    b_specs: tuple[dc.DistributionSpec, ...]
    coupling: str = "independent"
    norm: str = "l2"

    def __post_init__(self):
        if self.coupling not in ("independent", "comonotone-scalar"):
            raise ValueError(f"unknown coupling {self.coupling!r}")
        if self.coupling == "comonotone-scalar" and len(self.b_specs) != 1:
            raise ValueError("comonotone coupling is defined for scalar B only")
        if self.norm not in ("l1", "l2", "sup"):
            raise ValueError(f"unknown norm {self.norm!r}")
        if not self.b_specs:
            raise ValueError("B needs at least one component")
        if not dc.is_nonnegative(self.x_spec):
            raise ValueError("X must be certified nonnegative for pair models")

    @property
    def dim(self) -> int:
        return len(self.b_specs)


@dataclass(frozen=True)
class NondegeneracyReport:
    margin: float
    suspected: bool
    samples_used: int
    candidate: tuple | None


def _require_normalized(spec: dc.DistributionSpec, p: float) -> float:
    mp = dc.abs_moment(spec, p).value
    if abs(mp - 1.0) > _NORM_TOL:
        raise NotNormalizedError(
            f"spec has E|X|^p = {mp!r}, normalize to 1 before fitting"
        )
    return mp


def delta_window(spec: dc.DistributionSpec, p: float, a_param: float):
    """Window mass E(|X|^p - m) 1{m <= |X|^p <= A m}, m = E|X|^p; with error."""
    m = dc.abs_moment(spec, p).value
    lo = m ** (1.0 / p)
    hi = (a_param * m) ** (1.0 / p)

    def fn(x: float) -> float:
        ax = abs(x) ** p
        if m <= ax <= a_param * m:
            return ax - m
        return 0.0

    value, err = dc.expect(spec, fn, breaks=[-hi, -lo, lo, hi])
    return value / m, err / m


def fit_small_p(
    spec: dc.DistributionSpec,
    p: float,
    a_param: float | None = None,
    a_grid=DEFAULT_A_GRID_SMALL,
) -> SmallPCertificate:
    """Certificate for 0 < p <= 1; scans the A grid unless a_param pins A."""
    if not (0.0 < p <= 1.0):
        raise ValueError(f"small-p fitter needs 0 < p <= 1, got {p}")
    mp = _require_normalized(spec, p)
    half = dc.abs_moment(spec, p / 2.0)
    lam = half.value / math.sqrt(mp)
    if lam >= 1.0 - 1e-9:
        raise DegenerateModulusError(
            f"lambda = {lam!r}: |X|^p carries no usable spread"
        )

    candidates = [float(a_param)] if a_param is not None else [float(a) for a in a_grid]
    for a_val in candidates:
        if not a_val > 1.0:
            continue
        delta, derr = delta_window(spec, p, a_val)
        if delta > max(1e-12, 2.0 * derr):
            margins = {
                "lambda_gap": 1.0 - lam,
                "delta": delta,
                "window_abs_error": derr,
                "moment_abs_error": half.abs_error,
            }
            return SmallPCertificate(p=p, lam=lam, delta=delta, a_param=a_val, margins=margins)
    raise EmptyWindowError(
        f"delta(A) <= 0 for all scanned A in {candidates}; widen the grid"
    )


def default_q_grid(p: float, count: int = 9) -> tuple[float, ...]:
    """Equispaced interior points of (max(p-1, 1), p), endpoints excluded."""
    lo = max(p - 1.0, 1.0)
    if not (p > lo):
        return ()
    step = (p - lo) / (count + 1)
    return tuple(lo + step * k for k in range(1, count + 1))


def fit_large_p(
    spec: dc.DistributionSpec,
    p: float,
    q_grid=None,
    a_grid=DEFAULT_A_GRID_LARGE,
) -> LargePCertificate:
    """Certificate for p > 1 on a normalized spec."""
    if not (p > 1.0):
        raise ValueError(f"large-p fitter needs p > 1, got {p}")
    mp = _require_normalized(spec, p)
    norm_p = mp ** (1.0 / p)

    m1, m1_err = dc.expect(spec, abs, breaks=[0.0])
    mu, mu_err = dc.expect(spec, lambda x: abs(abs(x) - m1), breaks=[-m1, 0.0, m1])
    mu /= norm_p
    if mu < 1e-9:
        raise DegenerateModulusError(f"mu = {mu!r}: |X| is numerically constant")

    a_param = None
    tail = None
    tail_err = 0.0
    for a_val in a_grid:
        cut = a_val * norm_p

        def fn(x: float, _cut=cut) -> float:
            if abs(x) > _cut:
                return abs(abs(x) - m1)
            return 0.0

        t_val, t_err = dc.expect(spec, fn, breaks=[-cut, -m1, m1, cut])
        t_val /= norm_p
        if t_val <= mu / 4.0 + _SLACK:
            a_param, tail, tail_err = float(a_val), t_val, t_err
            break
    if a_param is None:
        raise EmptyWindowError(
            f"no grid A in {tuple(a_grid)} meets the mu/4 tail condition"
        )

    lo_q = max(p - 1.0, 1.0)
    grid = default_q_grid(p) if q_grid is None else tuple(q_grid)
    grid = tuple(q for q in grid if lo_q < q < p)
    if not grid:
        raise NoValidQError(f"q grid has no points strictly inside ({lo_q}, {p})")
    best_q, best_lam = None, None
    for q in grid:
        lam_q = dc.abs_moment(spec, q).value ** (1.0 / q) / norm_p
        if best_lam is None or lam_q < best_lam:
            best_q, best_lam = float(q), lam_q
    if best_lam >= 1.0 - 1e-9:
        raise DegenerateModulusError(
            f"lambda(q) = {best_lam!r} at q = {best_q}: no strict moment gap"
        )

    chain = []
    for k in range(1, math.ceil(p)):
        r_hi = p - k + 1.0
        r_lo = p - k
        hi_norm = dc.abs_moment(spec, r_hi).value ** (1.0 / r_hi)
        lo_norm = dc.abs_moment(spec, r_lo).value ** (1.0 / r_lo)
        lam_k = lo_norm / hi_norm
        if lam_k >= 1.0 - 1e-9:
            raise DegenerateModulusError(
                f"chain ratio lambda_{k} = {lam_k!r} is not strictly below 1"
            )
        chain.append(lam_k)

    margins = {
        "mu": mu,
        "mu_abs_error": (mu_err + m1_err) / norm_p,
        "tail_slack": mu / 4.0 - tail,
        "tail_abs_error": tail_err / norm_p,
        "lambda_gap": 1.0 - best_lam,
        "chain_gap_min": min((1.0 - lk for lk in chain), default=1.0),
    }
    return LargePCertificate(
        p=p,
        mu=mu,
        a_param=a_param,
        q=best_q,
        lam=best_lam,
        lam_chain=tuple(chain),
        margins=margins,
    )


def verify_small_p(spec: dc.DistributionSpec, cert: SmallPCertificate) -> dict:
    """Recompute the certificate inequalities; slack must survive re-checking."""
    mp = dc.abs_moment(spec, cert.p).value
    half = dc.abs_moment(spec, cert.p / 2.0).value
    lam_slack = cert.lam * math.sqrt(mp) - half
    delta, derr = delta_window(spec, cert.p, cert.a_param)
    return {
        "lambda_slack": lam_slack,
        "delta_recomputed": delta,
        "delta_gap": delta - cert.delta,
        "window_abs_error": derr,
    }


def verify_large_p(spec: dc.DistributionSpec, cert: LargePCertificate) -> dict:
    mp = dc.abs_moment(spec, cert.p).value
    norm_p = mp ** (1.0 / cert.p)
    m1, _ = dc.expect(spec, abs, breaks=[0.0])
    mad, _ = dc.expect(spec, lambda x: abs(abs(x) - m1), breaks=[-m1, 0.0, m1])
    cut = cert.a_param * norm_p
    tail, _ = dc.expect(
        spec,
        lambda x: abs(abs(x) - m1) if abs(x) > cut else 0.0,
        breaks=[-cut, -m1, m1, cut],
    )
    lam_q = dc.abs_moment(spec, cert.q).value ** (1.0 / cert.q)
    checks = {
        "mu_slack": mad - cert.mu * norm_p,
        "tail_slack": cert.mu / 4.0 * norm_p - tail,
        "lambda_slack": cert.lam * norm_p - lam_q,
    }
    for k, lam_k in enumerate(cert.lam_chain, start=1):
        r_hi = cert.p - k + 1.0
        r_lo = cert.p - k
        hi_norm = dc.abs_moment(spec, r_hi).value ** (1.0 / r_hi)
        lo_norm = dc.abs_moment(spec, r_lo).value ** (1.0 / r_lo)
        checks[f"chain_{k}_slack"] = lam_k * hi_norm - lo_norm
    return checks


def affine_truncated_moment(
    spec: dc.DistributionSpec, p: float, u: float, v: float, cut: float
):
    """E|uX + v|^p 1{|X| <= cut}, the quantity behind the one-step lower bounds."""
    breaks = [-cut, cut]
    if u != 0.0:
        breaks.append(-v / u)

    def fn(x: float) -> float:
        if abs(x) <= cut:
            return abs(u * x + v) ** p
        return 0.0

    return dc.expect(spec, fn, breaks=breaks)


# ---------------------------------------------------------------------------
# pair sampling and the advisory nondegeneracy check


def draw_pair(pair: PairSpec, size: int, gen: np.random.Generator):
    """One i.i.d. batch of (X, B); comonotone coupling shares the uniform."""
    if pair.coupling == "comonotone-scalar":
        u = gen.random(size)
        x = dc.quantile(pair.x_spec, u)
        b = dc.quantile(pair.b_specs[0], u)[:, None]
        return x, b
    x = dc.sample(pair.x_spec, size, gen)
    b = np.empty((size, pair.dim))
    for j, bspec in enumerate(pair.b_specs):
        b[:, j] = dc.sample(bspec, size, gen)
    return x, b


def check_pair_nondegeneracy(
    pair: PairSpec, samples: int = 10_000, src: dc.RandomSource | None = None
) -> NondegeneracyReport:
    """Advisory check of P(Xv + B = v) < 1 for every v.

    A violating v would force B/(1 - X) to sit on a single point wherever
    X != 1 (and B = 0 wherever X = 1), so we measure the dispersion of that
    ratio.  Evidence only: sampling cannot prove the condition.
    """
    src = src or dc.RandomSource(0, 0)
    gen = src.generator()
    x, b = draw_pair(pair, samples, gen)
    usable = np.abs(1.0 - x) > 1e-9
    used = int(np.count_nonzero(usable))
    if used == 0:
        # X == 1 everywhere: a fixed point exists iff B is identically zero
        center = np.median(b, axis=0)
        spread = np.mean(np.abs(b - center), axis=0) + np.abs(center)
        margin = float(np.max(spread / (1.0 + np.abs(center))))
        return NondegeneracyReport(
            margin=margin,
            suspected=margin < 1e-8,
            samples_used=0,
            candidate=tuple(np.zeros(pair.dim)) if margin < 1e-8 else None,
        )
    ratios = b[usable] / (1.0 - x[usable])[:, None]
    center = np.median(ratios, axis=0)
    spread = np.mean(np.abs(ratios - center), axis=0)
    rel = spread / (1.0 + np.abs(center))
    margin = float(np.max(rel))
    suspected = margin < 1e-8
    return NondegeneracyReport(
        margin=margin,
        suspected=suspected,
        samples_used=used,
        candidate=tuple(float(c) for c in center) if suspected else None,
    )
