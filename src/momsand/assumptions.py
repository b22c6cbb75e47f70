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

SmallPParts and LargePParts hold what does not depend on the grid, fitted
once; their certificate() assembles the certificate at one grid point, for
fit_small_p/fit_large_p and for the scans in constants alike.
LargePParts.check() raises as certificate() does without building one, so
the large-p scan checks every point and builds only the certificates it
keeps.

Certificates carry margins (distances to the degenerate boundary) and
re-verify against the closed-form oracles dist_core.abs_moment and, for E|X|,
mu, the tail and delta(A), dist_core.expect.  Only deterministic moments are
allowed inside certificates; a Monte Carlo moment would poison reproducibility.

The module also owns PairSpec, the (X, B) pair model for perpetuity partial
sums, with the cells of its comonotone coupling, and the decision of the
nondegeneracy condition P(Xv + B = v) < 1 for every v: no draws, exact for
every independent pair and every comonotone pair of finite laws.
"""

from __future__ import annotations

import contextlib
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

_NORM_TOL = 1e-9
_GRID_CELLS = 256

NORM_KINDS = ("l1", "l2", "sup")


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
        if self.norm not in NORM_KINDS:
            raise ValueError(f"unknown norm {self.norm!r}")
        if not self.b_specs:
            raise ValueError("B needs at least one component")
        if not dc.is_nonnegative(self.x_spec):
            raise ValueError("X must be certified nonnegative for pair models")

    @property
    def dim(self) -> int:
        return len(self.b_specs)

    def comonotone_cells(self):
        """(x, b, widths): X's and B's quantiles at the midpoints of the cells the cut
        points of X and B split [0, 1] into, and the cells' widths.

        A finite law cuts at its cumulative probabilities in increasing value
        order, as dc.quantile does, so it is one atom on each cell and these are
        the step's atoms; a continuous law cuts at the points k / _GRID_CELLS."""
        cuts = [np.array([0.0, 1.0])]
        for spec in (self.x_spec, *self.b_specs):
            support = dc.finite_support(spec)
            if support is None:
                cuts.append(np.arange(1, _GRID_CELLS) / _GRID_CELLS)
            else:
                values, probs = support
                cuts.append(np.cumsum(probs[np.argsort(values, kind="stable")])[:-1])
        cuts = np.unique(np.concatenate(cuts))
        widths = np.diff(cuts)
        keep = widths > 1e-15
        mids = ((cuts[:-1] + cuts[1:]) / 2.0)[keep]
        return dc.quantile(self.x_spec, mids), dc.quantile(self.b_specs[0], mids), widths[keep]


@dataclass(frozen=True)
class NondegeneracyReport:
    """A v with P(Xv + B = v) = 1 or None; exact unless decided on grid cells."""

    fixed_point: tuple[float, ...] | None
    exact: bool


def check_normalized(spec: dc.DistributionSpec, p: float) -> float:
    mp = dc.abs_moment(spec, p)
    if abs(mp - 1.0) > _NORM_TOL:
        raise NotNormalizedError(f"E|X|^p = {mp!r} at p = {p}; normalize X to E|X|^p = 1")
    return mp


def _lp_norm(spec: dc.DistributionSpec, r: float) -> float:
    return dc.abs_moment(spec, r) ** (1.0 / r)


def delta_window(spec: dc.DistributionSpec, p: float, a_param: float, m: float | None = None):
    """Window mass E(|X|^p - m) 1{m <= |X|^p <= A m} over m, m = E|X|^p if not given."""
    m = dc.abs_moment(spec, p) if m is None else m
    return dc.expect(spec, p, m, m, a_param * m) / m


@dataclass(frozen=True)
class SmallPParts:
    """The part of a small-p certificate that does not depend on A."""

    spec: dc.DistributionSpec
    p: float
    mp: float
    lam: float

    def certificate(self, a_val: float) -> SmallPCertificate:
        """The certificate at A; EmptyWindowError unless delta(A) > 1e-12."""
        if a_val > 1.0:
            delta = delta_window(self.spec, self.p, a_val, self.mp)
            if delta > 1e-12:
                margins = {"lambda_gap": 1.0 - self.lam, "delta": delta}
                return SmallPCertificate(
                    p=self.p, lam=self.lam, delta=delta, a_param=a_val, margins=margins
                )
        raise EmptyWindowError(f"delta(A) <= 0 at A = {a_val}")


def small_p_parts(spec: dc.DistributionSpec, p: float) -> SmallPParts:
    """Check E|X|^p = 1 and fit lambda for 0 < p <= 1."""
    if not (0.0 < p <= 1.0):
        raise ValueError(f"small-p fitter needs 0 < p <= 1, got {p}")
    mp = check_normalized(spec, p)
    lam = dc.abs_moment(spec, p / 2.0) / math.sqrt(mp)
    if lam >= 1.0 - 1e-9:
        raise DegenerateModulusError(f"lambda = {lam!r}: |X|^p carries no usable spread")
    return SmallPParts(spec, p, mp, lam)


def fit_small_p(
    spec: dc.DistributionSpec,
    p: float,
    a_param: float | None = None,
    a_grid=DEFAULT_A_GRID_SMALL,
) -> SmallPCertificate:
    """Certificate for 0 < p <= 1 at the first A of the grid, or at a_param, with delta(A) > 0."""
    parts = small_p_parts(spec, p)
    candidates = [float(a_param)] if a_param is not None else [float(a) for a in a_grid]
    for a_val in candidates:
        with contextlib.suppress(EmptyWindowError):
            return parts.certificate(a_val)
    raise EmptyWindowError(f"delta(A) <= 0 for all scanned A in {candidates}; widen the grid")


def default_q_grid(p: float, count: int = 9) -> tuple[float, ...]:
    """Equispaced interior points of (max(p-1, 1), p), endpoints excluded."""
    lo = max(p - 1.0, 1.0)
    if not (p > lo):
        return ()
    step = (p - lo) / (count + 1)
    return tuple(lo + step * k for k in range(1, count + 1))


@dataclass(frozen=True)
class LargePParts:
    """The parts of a large-p certificate that depend on neither A nor q."""

    spec: dc.DistributionSpec
    p: float
    norm_p: float
    m1: float
    mu: float
    chain: tuple[float, ...]

    def tail(self, a_val: float) -> float | None:
        """E||X| - E|X|| 1{|X| > A ||X||_p} over ||X||_p if it is below mu/4, else None."""
        t_val = dc.expect(self.spec, 1.0, self.m1, a_val * self.norm_p) / self.norm_p
        return t_val if t_val < self.mu / 4.0 else None

    def lam(self, q: float):
        """lambda(q) = ||X||_q / ||X||_p for q strictly inside (max(p-1, 1), p), else None."""
        if not max(self.p - 1.0, 1.0) < q < self.p:
            return None
        return _lp_norm(self.spec, q) / self.norm_p

    def check(self, a_val: float, tail, q: float, lam) -> None:
        """Raise where a hypothesis fails at (A, q), given tail(A) and lam(q)."""
        if tail is None:
            raise EmptyWindowError(f"A = {a_val} does not meet the mu/4 tail condition")
        if lam is None:
            raise NoValidQError(f"q = {q} is not inside ({max(self.p - 1.0, 1.0)}, {self.p})")
        if lam >= 1.0 - 1e-9:
            raise DegenerateModulusError(f"lambda(q) = {lam!r} at q = {q}: no strict moment gap")
        for k, lam_k in enumerate(self.chain, start=1):
            if lam_k >= 1.0 - 1e-9:
                raise DegenerateModulusError(
                    f"chain ratio lambda_{k} = {lam_k!r} is not strictly below 1"
                )

    def certificate(self, a_val: float, tail, q: float, lam) -> LargePCertificate:
        """The certificate at (A, q) from tail(A) and lam(q); raises as check does."""
        self.check(a_val, tail, q, lam)
        margins = {
            "mu": self.mu,
            "tail_slack": self.mu / 4.0 - tail,
            "lambda_gap": 1.0 - lam,
            "chain_gap_min": min((1.0 - lk for lk in self.chain), default=1.0),
        }
        return LargePCertificate(
            p=self.p, mu=self.mu, a_param=a_val, q=q, lam=lam, lam_chain=self.chain, margins=margins
        )


def large_p_parts(spec: dc.DistributionSpec, p: float) -> LargePParts:
    """Check E|X|^p = 1 and fit E|X|, mu and the ratio chain for p > 1."""
    if not (p > 1.0):
        raise ValueError(f"large-p fitter needs p > 1, got {p}")
    norm_p = check_normalized(spec, p) ** (1.0 / p)
    m1 = dc.expect(spec, 1.0)
    mu = dc.expect(spec, 1.0, m1) / norm_p
    if mu < 1e-9:
        raise DegenerateModulusError(f"mu = {mu!r}: |X| is numerically constant")
    chain = tuple(
        _lp_norm(spec, p - k) / _lp_norm(spec, p - k + 1.0) for k in range(1, math.ceil(p))
    )
    return LargePParts(spec, p, norm_p, m1, mu, chain)


def fit_large_p(
    spec: dc.DistributionSpec,
    p: float,
    q_grid=None,
    a_grid=DEFAULT_A_GRID_LARGE,
) -> LargePCertificate:
    """Certificate for p > 1 on a normalized spec: the first A of the grid
    that meets the mu/4 tail condition and the q with the smallest lambda(q)."""
    parts = large_p_parts(spec, p)
    grid = default_q_grid(p) if q_grid is None else q_grid
    lams = {float(q): lam for q in grid if (lam := parts.lam(q)) is not None}
    if not lams:
        raise NoValidQError(f"q grid has no points strictly inside ({max(p - 1.0, 1.0)}, {p})")
    q = min(lams, key=lams.get)
    for a_val in a_grid:
        with contextlib.suppress(EmptyWindowError):
            return parts.certificate(float(a_val), parts.tail(a_val), q, lams[q])
    raise EmptyWindowError(f"no grid A in {tuple(a_grid)} meets the mu/4 tail condition")


def verify_small_p(spec: dc.DistributionSpec, cert: SmallPCertificate) -> dict:
    """Recompute the certificate inequalities; slack must survive re-checking."""
    mp = dc.abs_moment(spec, cert.p)
    half = dc.abs_moment(spec, cert.p / 2.0)
    lam_slack = cert.lam * math.sqrt(mp) - half
    delta = delta_window(spec, cert.p, cert.a_param)
    return {
        "lambda_slack": lam_slack,
        "delta_recomputed": delta,
        "delta_gap": delta - cert.delta,
    }


def verify_large_p(spec: dc.DistributionSpec, cert: LargePCertificate) -> dict:
    norm_p = _lp_norm(spec, cert.p)
    m1 = dc.expect(spec, 1.0)
    mad = dc.expect(spec, 1.0, m1)
    tail = dc.expect(spec, 1.0, m1, cert.a_param * norm_p)
    checks = {
        "mu_slack": mad - cert.mu * norm_p,
        "tail_slack": cert.mu / 4.0 * norm_p - tail,
        "lambda_slack": cert.lam * norm_p - _lp_norm(spec, cert.q),
    }
    for k, lam_k in enumerate(cert.lam_chain, start=1):
        checks[f"chain_{k}_slack"] = lam_k * _lp_norm(spec, cert.p - k + 1.0) - _lp_norm(
            spec, cert.p - k
        )
    return checks


# ---------------------------------------------------------------------------
# pair sampling and the nondegeneracy decision


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


def _point_mass(spec: dc.DistributionSpec) -> float | None:
    """The value of a law concentrated on one point, else None."""
    support = dc.finite_support(spec)
    return None if support is None or np.ptp(support[0]) > 0.0 else float(support[0][0])


def check_pair_nondegeneracy(pair: PairSpec) -> NondegeneracyReport:
    """Decide whether B = v(1 - X) almost surely for some v, without draws.

    Independent coupling: B = v(1 - X) independent of X is constant, so v
    exists iff B == 0 (v = 0), or X == x0 != 1 and B == b0 (v = b0 / (1 - x0)).
    Comonotone coupling: b = v(1 - x) at pair.comonotone_cells(), v fitted
    by least squares, to 1e-9 times max |b|; exact for finite laws, where X
    and B are one atom on each cell, and a grid check otherwise.
    """
    if pair.coupling == "independent":
        x0, *b0 = (_point_mass(s) for s in (pair.x_spec, *pair.b_specs))
        if all(b == 0.0 for b in b0):
            return NondegeneracyReport((0.0,) * pair.dim, True)
        if x0 is not None and x0 != 1.0 and None not in b0:
            return NondegeneracyReport(tuple(b / (1.0 - x0) for b in b0), True)
        return NondegeneracyReport(None, True)
    x, b, _ = pair.comonotone_cells()
    gap = 1.0 - x
    with np.errstate(over="ignore", invalid="ignore"):
        norm2 = gap @ gap
        v = float(b @ gap / norm2) if norm2 > 0.0 else 0.0
        fits = bool(np.all(np.abs(b - v * gap) <= _NORM_TOL * np.max(np.abs(b))))
    exact = all(dc.finite_support(s) is not None for s in (pair.x_spec, *pair.b_specs))
    return NondegeneracyReport((v,) if fits else None, exact)
