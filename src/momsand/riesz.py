"""Riesz products on the torus and their probabilistic model.

For an increasing sequence of positive integers n_1 < ... < n_m the products

    Rbar_i(t) = prod_{j <= i} (1 + cos(n_j t)),   Rbar_0 = 1,

are nonnegative trigonometric polynomials with mean one.  When consecutive
ratios satisfy n_{k+1}/n_k >= 3, no frequency of one factor can be reached
by sums and differences of the earlier ones, so moments of combinations
sum a_i Rbar_i against normalized Lebesgue measure match the moments of the
probabilistic model sum a_i R_i built from i.i.d. factors distributed as
1 + cos(U), U uniform on the circle: both means are sum a_i, and at p = 2
both sides reduce to sum_{i,j} a_i a_j (3/2)^{min(i,j)}.

L_p norms on the torus are computed by the uniform-grid mean over N points,
which for periodic integrands is the trapezoid rule and is exact for
trigonometric polynomials of degree below N (Trefethen and Weideman 2014).
Each coefficient row gets its own N.  Where |S|^p, S = sum a_i Rbar_i, is a
trigonometric polynomial -- p an even integer, or an integer with the row's
coefficients of one sign, as every Rbar_i >= 0 -- its degree is
D = p (n_1 + ... + n_k), and N = max(MIN_POINTS, min(64 n_max, N_D)) with
N_D the least multiple of 2 gcd(n_j) above 2D: the N-point mean and the
N/2-point error estimate are then both exact, and N never exceeds the
dense rule's.  Every other row takes the dense N = max(MIN_POINTS, 64 n_max):
|.|^p has kinks where the combination vanishes, and the N vs N/2 Richardson
difference is reported as the error estimate instead of special-casing
roots.  An explicit quad_points must reach the row's N.

The integrand depends on t only through cos(n_j t), so it is even and has
period 2 pi / g with g = gcd(n_j).  On the grid t_k = 2 pi k / N its values
f_k therefore repeat with period M = N / gcd(g, N) and satisfy f_{M-k} = f_k,
which folds the N-point mean onto k = 0 .. floor(M/2):

    (1/N) sum_{k<N} f_k = (2 sum_{k<=M/2} f_k - f_0 - [M even] f_{M/2}) / M.

The N/2 subgrid (even k) folds the same way over M/2 when M is even; when M
is odd, 2k runs over every residue mod M, so the subgrid mean equals the
N-point mean.  Only about N/(2g) points are evaluated.  Grids stream in fixed
blocks of _BLOCK = 2^15 points so no full grid is ever stored, and partial
sums combine in block order regardless of worker count.  A pass serves rows of
one length and one N: a block forms prod = Rbar_i once, adds a_i prod to one
accumulator per row as the row alone would, and gives a unit row (0, ..., 0, 1)
prod itself.  It keeps prod, two scratch arrays and the accumulators, 256 KB
each, in flight per worker, so riesz_lp_norms, which alone plans passes, gives
the rows of one length and one N passes of at most _PASS_ROWS = 8: a corollary
scan's combinations and Rbar_k share them, and Rbar_0 .. Rbar_{k-1} take one each.
The 524,289 folded points of
4^1 .. 4^8's dense grid make 17 blocks to share among workers.  Of 2^13 .. 2^19,
2^15 gave that grid its fastest two-worker pass (45 ms, against 100 ms at 2^19,
on 2 vCPUs).  The block size sets how NumPy's pairwise sums group into the
fsum partials, so it is part of the reported bits and must not follow the
worker count.

Factors use exact phases: cos(n_j t_k) depends only on the residue
(n_j k) mod N, taken in int64 (N <= MAX_POINTS = 2^31 and n_j <= 2^20 keep
n_j k below 2^51).  With k = s + i, s a multiple of _SUB = 2^10 and i < _SUB,
each call tabulates cos and sin of theta_i = 2 pi ((n_j i) mod N) / N (144 KB
for 9 factors), each row s takes those of A_s = 2 pi ((n_j s) mod N) / N, and
1 + cos A_s cos theta_i - sin A_s sin theta_i replaces a libm cos per point
(12-15 ns).  Every argument is below 2 pi, so Rbar_8 on 4^1 .. 4^8 at p = 3
reads 2.5^8 to 1.5e-16 on the dense grid and exactly on its own exact-degree
grid.  _BLOCK is a multiple of _SUB, so rows start at multiples of _SUB and a
point's value does not depend on the block split.
Where row s's phase repeats every P_j = N / gcd(n_j _SUB, N) rows and P_j rows
divide _BLOCK, they are formed once per pass and broadcast over each block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dist_core as dc
from ._pool import map_indexed
from .errors import (
    GridTooLargeError,
    InvalidOrderError,
    NonfiniteMomentError,
    NotIncreasingError,
    NotLacunaryError,
    TooFewPointsError,
)
from .montecarlo import (
    EstimateWithCI,
    _exact,
    _no_moments,
    brute_force_lhs,
    choose_engine,
    coefficient_set,
    estimate_lhs,
)

MAX_TERM = 2**20
MIN_POINTS = 4096
MAX_POINTS = 2**31
POINTS_PER_FREQ = 64
_BLOCK = 2**15
_SUB = 2**10
# rows of one grid pass: 8 accumulators of _BLOCK floats, 2 MB a worker
_PASS_ROWS = 8

RATIO_FLOOR = 3.0


@dataclass(frozen=True)
class LacunarySequence:
    terms: tuple[int, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("sequence must be nonempty")
        clean = []
        for t in self.terms:
            it = int(t)
            if it != t or it < 1:
                raise ValueError(f"terms must be positive integers, got {t!r}")
            clean.append(it)
        object.__setattr__(self, "terms", tuple(clean))
        for a, b in zip(self.terms, self.terms[1:]):
            if not b > a:
                raise NotIncreasingError(f"terms must increase strictly: {a} !< {b}")
        if self.terms[-1] > MAX_TERM:
            raise ValueError(f"largest term {self.terms[-1]} exceeds the 2^20 cap")

    @property
    def m(self) -> int:
        return len(self.terms)

    @property
    def ratios(self) -> tuple[float, ...]:
        return tuple(b / a for a, b in zip(self.terms, self.terms[1:]))

    @property
    def tail_sum(self) -> float:
        return math.fsum(a / b for a, b in zip(self.terms, self.terms[1:]))


@dataclass(frozen=True)
class RieszCombination:
    seq: LacunarySequence
    coefficients: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(a) for a in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if not coeffs:
            raise ValueError("need at least the constant coefficient a_0")
        if len(coeffs) > self.seq.m + 1:
            raise ValueError(
                f"{len(coeffs)} coefficients but the sequence supports only "
                f"{self.seq.m + 1} products (a_0 .. a_{self.seq.m})"
            )


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    points: int


def check_lacunary(seq) -> dict:
    """Ratio report; the lacunary flag needs every ratio >= 3.

    A single term has no ratio: min_ratio is None and the flag holds.
    """
    if not isinstance(seq, LacunarySequence):
        seq = LacunarySequence(tuple(seq))
    ratios = seq.ratios
    return {
        "terms": list(seq.terms),
        "ratios": list(ratios),
        "min_ratio": min(ratios) if ratios else None,
        "tail_sum": seq.tail_sum,
        "lacunary": all(r >= RATIO_FLOOR for r in ratios),
    }


def _factor_rows(n_j: int, table, n_pts: int, start: int, out, tmp):
    """out = 1 + cos(2 pi n_j k / N), k = start, start + 1, ..., by the phase tables above."""
    cos_theta, sin_theta = table
    w = min(_SUB, len(out))
    starts = np.arange(start, start + len(out), _SUB, dtype=np.int64)
    phase = (n_j * starts) % n_pts * (2.0 * math.pi / n_pts)
    np.multiply(np.cos(phase)[:, None], cos_theta[:w], out=out.reshape(-1, w))
    np.multiply(np.sin(phase)[:, None], sin_theta[:w], out=tmp.reshape(-1, w))
    out -= tmp
    out += 1.0
    return out


def _combination_values(rows, factors, n_pts: int, lo: int, hi: int) -> list:
    """sum a_i Rbar_i(2 pi k / N) for k = lo .. hi - 1 and each row, by the phase tables above."""
    n = hi - lo
    prod = np.ones(n)
    values = [prod if row[-1] == 1.0 and not any(row[:-1]) else np.full(n, row[0]) for row in rows]
    factor = np.empty(n)
    tmp = np.empty(n)
    full = n - n % _SUB
    for j, (n_j, table, once) in enumerate(factors, 1):
        done = full if once is not None and full % once.size == 0 else 0
        if done:  # the whole rows repeat once: equal phase residues, equal bits
            whole = prod[:done].reshape(-1, once.size)
            whole *= once
        for a, b in ((done, full), (full, n)):  # whole rows, then the rest
            if b > a:
                prod[a:b] *= _factor_rows(n_j, table, n_pts, lo + a, factor[a:b], tmp[a:b])
        for row, acc in zip(rows, values):
            if acc is not prod and row[j] != 0.0:
                np.multiply(row[j], prod, out=factor)
                acc += factor
    return values


def _polynomial(coefficients, p: float) -> bool:
    """|sum a_i R_i|^p is a polynomial in the sum: p is an even integer, or an integer and
    the coefficients share one sign, which the sum then keeps, as every R_i >= 0."""
    one_sign = min(coefficients) >= 0.0 or max(coefficients) <= 0.0
    return float(p).is_integer() and (p % 2 == 0 or one_sign)


def _grid_floor(terms, row, p: float) -> tuple[int, int | None]:
    """The fewest grid points row may take, by the rule of the module docstring, and
    N_D where the row is polynomial (None where the dense rule applies)."""
    dense = max(MIN_POINTS, POINTS_PER_FREQ * (terms[-1] if terms else 1))
    if not (terms and _polynomial(row, p)):
        return dense, None
    g = math.gcd(*terms)
    exact = 2 * g * (int(p) * sum(terms) // g + 1)
    return max(MIN_POINTS, min(dense, exact)), exact


def _grid_points(terms, rows, p: float, quad_points: int | None) -> list[int]:
    """Each row's even grid size: its floor, or quad_points rounded up to even.

    A row of length k + 1 uses n_1 .. n_k of terms.  Raises before any grid
    work when p is outside [1, inf) or quad_points misses a row's floor or
    exceeds MAX_POINTS.
    """
    if not 1.0 <= p < math.inf:  # nan fails every comparison
        raise InvalidOrderError(f"torus norms need a finite p >= 1, got p = {p}")
    points = []
    for row in rows:
        floor, exact = _grid_floor(terms[: len(row) - 1], row, p)
        n_pts = floor if quad_points is None else int(quad_points)
        if n_pts < floor:
            rule = ("the dense rule max(4096, 64 * n_max)" if exact is None else
                    f"the exact-degree rule max(4096, min(64 * n_max, N_D)), N_D = {exact}")
            raise TooFewPointsError(f"{n_pts} grid points < required {floor} by {rule}")
        if n_pts > MAX_POINTS:  # also keeps n_j * k below 2^51 in int64
            raise GridTooLargeError(
                f"{n_pts} grid points exceed the cap of 2^31 = {MAX_POINTS}"
            )
        points.append(n_pts + n_pts % 2)
    return points


def riesz_lp_norms(
    seq: LacunarySequence, rows, p: float, quad_points: int | None = None
) -> list[QuadResult]:
    """Uniform-grid means of |sum a_i Rbar_i|^p over the torus, one per coefficient row.

    A row of length k + 1, of any k, uses n_1 .. n_k.  Its grid N is set by the
    rule of the module docstring, or by quad_points rounded up to even where that
    reaches the rule's N, and every row's N is checked before any pass.  Rows of one
    length and one N share passes of at most _PASS_ROWS rows, and a row reads the
    same bits in a shared pass as alone.  The error estimate is the difference
    against the N/2 subgrid; both means come from the folded values f_k, k = 0 ..
    floor(M/2), as the module docstring states.  `points` reports N.
    """
    rows = [RieszCombination(seq, tuple(row)).coefficients for row in rows]
    if not rows:
        raise ValueError("need one or more coefficient rows")
    passes: dict[tuple[int, int], list[int]] = {}
    for idx, n_pts in enumerate(_grid_points(seq.terms, rows, p, quad_points)):
        passes.setdefault((len(rows[idx]), n_pts), []).append(idx)
    results: dict[int, QuadResult] = {}
    for (length, n_pts), idxs in passes.items():
        for chunk in (idxs[lo:lo + _PASS_ROWS] for lo in range(0, len(idxs), _PASS_ROWS)):
            chunk_rows = [rows[i] for i in chunk]
            results.update(zip(chunk, _grid_pass(seq.terms[: length - 1], chunk_rows, p, n_pts)))
    return [results[idx] for idx in range(len(rows))]


def _grid_pass(terms, rows, p: float, n_pts: int) -> list[QuadResult]:
    """One streamed pass of the rows over the even N-point grid of riesz_lp_norms."""
    # math.gcd() of no terms is 0, so a constant folds onto the single point k = 0
    period = n_pts // math.gcd(math.gcd(*terms), n_pts)
    half = period // 2

    blocks = [(lo, min(lo + _BLOCK, half + 1)) for lo in range(0, half + 1, _BLOCK)]

    theta = np.multiply.outer(np.array(terms, dtype=np.int64), np.arange(_SUB)) % n_pts
    theta = theta * (2.0 * math.pi / n_pts)
    factors = []
    for n_j, table in zip(terms, zip(np.cos(theta), np.sin(theta))):
        span = n_pts // math.gcd(n_j * _SUB, n_pts) * _SUB  # P_j rows, in points
        fits = _BLOCK % span == 0  # then every block starts a period
        once = _factor_rows(n_j, table, n_pts, 0, np.empty(span), np.empty(span)) if fits else None
        factors.append((n_j, table, once))

    def run_block(block):
        lo, hi = block
        # an overflow leaves inf in the value, which is rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            values = _combination_values(rows, factors, n_pts, lo, hi)
            for vals in {id(v): v for v in values}.values():  # unit rows share prod
                np.abs(vals, out=vals)
                vals **= p
            return [(float(np.sum(v)), float(np.sum(v[lo % 2 :: 2])), float(v[0]), float(v[-1]))
                    for v in values]

    results = []
    for partials in zip(*map_indexed(run_block, blocks)):  # one row's block partials
        f_first = partials[0][2]
        f_half = partials[-1][3] if period % 2 == 0 else 0.0
        total = math.fsum(s for s, _, _, _ in partials)
        value = (2.0 * total - f_first - f_half) / period
        if not math.isfinite(value):
            raise NonfiniteMomentError(f"torus L_p norm at p = {p} is not finite")
        if period % 2:
            half_value = value
        else:
            total_even = math.fsum(e for _, e, _, _ in partials)
            half_value = (2.0 * total_even - f_first - (f_half if half % 2 == 0 else 0.0)) / half
        results.append(QuadResult(value, abs(value - half_value), n_pts))
    return results


def riesz_lp_norm(
    comb: RieszCombination, p: float, quad_points: int | None = None
) -> QuadResult:
    """Uniform-grid mean of |sum a_i Rbar_i|^p over the torus: riesz_lp_norms of one row."""
    return riesz_lp_norms(comb.seq, [comb.coefficients], p, quad_points)[0]


def _probabilistic_side(
    comb: RieszCombination, p: float, reps: int, src: dc.RandomSource
) -> EstimateWithCI:
    """E|sum a_i R_i|^p for products of i.i.d. 1 + cos(U) factors.

    choose_engine picks the engine.  A lone a_0 is its one outcome |a_0|^p,
    enumerated as `verify` does.  Where |S|^p is a polynomial in S (an even
    integer p, or an integer p and coefficients of one sign, which S then
    keeps, as every R_i >= 0) and the moment engine reaches order p, its
    exact |E S^p| is reported.  Every other p is sampled.
    """
    spec = dc.riesz_factor()
    coeffs = coefficient_set(list(comb.coefficients))
    engine, _ = choose_engine(None, coeffs.n, _no_moments(p, 1),
                              sample=not _polynomial(comb.coefficients, p))
    if engine == "enumerate":
        return brute_force_lhs(spec, coeffs, p)
    if engine == "moments":
        from .moments import sandwich_moments

        (moments,) = sandwich_moments(spec, [coeffs], int(p))
        return _exact(abs(float(moments.coords[0, int(p)])), 0)
    return estimate_lhs(spec, coeffs, p, reps, src)


def _corollary_reports(combs, p, reps, srcs, quad_points) -> list[dict]:
    """corollary_check of combinations of one sequence and length, sharing Rbar_i's norms."""
    seq = combs[0].seq
    verdict = check_lacunary(seq)
    if not verdict["lacunary"]:
        raise NotLacunaryError(
            f"min ratio {verdict['min_ratio']} < 3; the comparison needs ratio >= 3"
        )
    k = len(combs[0].coefficients) - 1
    units = [(0.0,) * i + (1.0,) for i in range(k + 1)]
    norms = riesz_lp_norms(seq, [comb.coefficients for comb in combs] + units, p, quad_points)
    toruses, unit_norms = norms[: len(combs)], norms[len(combs):]
    factor_p = dc.abs_moment(dc.riesz_factor(), p)
    per_term = [{"i": i, "torus": out.value, "probabilistic": factor_p**i}
                for i, out in enumerate(unit_norms)]
    reports = []
    for comb, torus, src in zip(combs, toruses, srcs):
        prob = _probabilistic_side(comb, p, reps, src)
        if not (math.isfinite(prob.mean) and math.isfinite(prob.std_error)):
            raise NonfiniteMomentError(
                f"probabilistic side E|sum a_i R_i|^p at p = {p} is not finite"
            )
        reports.append({
            "p": p,
            "sequence": list(seq.terms),
            "coefficients": list(comb.coefficients),
            "torus": torus,
            "probabilistic": prob,
            "per_term": per_term,
            # None where the probabilistic side underflows to 0 (tiny coefficients)
            "ratio": torus.value / prob.mean if prob.mean != 0.0 else None,
        })
    return reports


def corollary_check(
    comb: RieszCombination,
    p: float,
    reps: int,
    src: dc.RandomSource,
    quad_points: int | None = None,
) -> dict:
    """Torus norm vs probabilistic moment for one combination.

    Evidence, not certification: the comparison constants are not explicit,
    so the report carries both sides, their per-term norms, and the ratio.
    """
    return _corollary_reports([comb], p, reps, [src], quad_points)[0]


def corollary_ratio_scan(
    seq: LacunarySequence,
    p: float,
    draws: int,
    reps: int,
    src: dc.RandomSource,
    quad_points: int | None = None,
) -> dict:
    """Ratio statistics across random coefficient draws.

    The min and max ratio over draws play the role of empirical surrogates
    for the two comparison constants.
    """
    if draws < 1:
        raise ValueError("need at least one draw")
    gens = (src.child(1000 + d).generator() for d in range(draws))
    combs = [RieszCombination(seq, tuple(map(float, g.standard_normal(seq.m + 1)))) for g in gens]
    srcs = [src.child(2000 + d) for d in range(draws)]
    reports = _corollary_reports(combs, p, reps, srcs, quad_points)
    ratios = [rep["ratio"] for rep in reports]
    return {
        "p": p,
        "draws": draws,
        "ratios": ratios,
        "min_ratio": min(ratios),
        "max_ratio": max(ratios),
        "reports": reports,
    }
