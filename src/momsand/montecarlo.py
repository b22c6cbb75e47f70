"""One step model, two backends: the moment sandwich and perpetuity sums.

The sandwich sum sum_i v_i R_i (R_0 = 1, R_i = X_1 ... X_i, i.i.d.
factors) and the perpetuity partial sum S_n = sum_{i=1..n} R_{i-1} B_i are
one recursion: from acc = 0, r = 1, each step (x, b) does

    acc += r * b;  r *= x.

The sandwich's step i is (X_i, v_{i-1}) and R_n v_n is added after step n;
the perpetuity's step i is (X_i, B_i) under the coupling PairSpec declares.
E||acc||^p is computed by one of two backends:

  * _sample_paths, seeded Monte Carlo: reps are cut into fixed blocks of
    4096, block j draws from RandomSource.generator(block=j) and writes
    its values into its own slice of one preallocated array, which numpy's
    pairwise sums reduce.  Each worker thread draws into one buffer that it
    reuses for every block it runs, so memory in flight is about one
    block per worker.
    Kernels are elementwise, so no BLAS threading reorders a sum and a
    report depends on (seed, stream, reps), never on the worker count.
  * _walk, exact enumeration of finite per-step atoms (x, b, prob),
    lexicographic with step 1 most significant.  The last steps, at most
    1e5 paths of them, are walked once from acc = 0, r = 1 into sums S;
    each prefix (acc0, r0) of the earlier steps then yields one block
    acc0 + r0 * S, one fused pass per outcome, and peak memory stays
    bounded.

Both keep acc coordinate-major, (d, m) for m paths, so each update is one
contiguous pass per coordinate instead of m short rows of d.  Each element
still goes through the same IEEE operations (r * b is computed as b * r,
which rounds the same), so no value changes with the layout.

_exact_or_sampled picks between them: enumerate when the outcome count
fits the cap (ENUM_CAP = 1e7 for the sandwich, PERP_CAP = 1e6 for the
perpetuity), otherwise sample.  The sandwich verdict against
sum_i ||v_i||^p (E|X|^p)^i, the perpetuity bracket and the signed
counterexample for a degenerate |X| are built on top.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from . import dist_core as dc
from ._pool import map_indexed
from .assumptions import LargePCertificate, PairSpec, draw_pair
from .constants import LARGE_P, SMALL_P, ConstantBundle, dependent_upper_constant
from .errors import (
    EnumerationTooLargeError,
    NonfiniteMomentError,
    NotNormalizedError,
)

CHUNK = 4096
ENUM_CAP = 10**7
ENUM_BLOCK = 10**5
PERP_CAP = 10**6
MIN_REPS = 10**3

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

NORM_KINDS = ("l1", "l2", "sup")


@dataclass(frozen=True)
class CoefficientSet:
    """Vectors v_0 .. v_n in R^d plus the norm the sum is measured in."""

    vectors: tuple[tuple[float, ...], ...]
    norm: str = "l2"

    def __post_init__(self):
        if not self.vectors:
            raise ValueError("need at least v_0")
        dims = {len(v) for v in self.vectors}
        if len(dims) != 1 or 0 in dims:
            raise ValueError("all vectors must share one dimension d >= 1")
        if self.norm not in NORM_KINDS:
            raise ValueError(f"unknown norm {self.norm!r}")

    @property
    def dim(self) -> int:
        return len(self.vectors[0])

    @property
    def n(self) -> int:
        return len(self.vectors) - 1

    def matrix(self) -> np.ndarray:
        return np.asarray(self.vectors, dtype=float)


def coefficient_set(vectors, norm: str = "l2") -> CoefficientSet:
    """Build a CoefficientSet from scalars or vectors."""
    rows = []
    for v in vectors:
        if np.isscalar(v):
            rows.append((float(v),))
        else:
            rows.append(tuple(float(c) for c in v))
    return CoefficientSet(vectors=tuple(rows), norm=norm)


@dataclass(frozen=True)
class EstimateWithCI:
    mean: float
    std_error: float
    replications: int
    seed: int | None
    exact: bool


@dataclass(frozen=True)
class SandwichReport:
    lhs: EstimateWithCI
    rhs_sum: float
    bundle: ConstantBundle
    verdict: str
    ratio: float


@dataclass(frozen=True)
class GoldieBracketRow:
    n: int
    lower_edge: float
    middle: EstimateWithCI
    upper_edge: float
    b_moment: EstimateWithCI
    verdict: str
    lower_certified: bool
    exact: bool


def holder_norm(points: np.ndarray, kind: str) -> np.ndarray:
    """Row norms of an (m, d) array, accumulated column by column.

    A loop over the d columns is several times faster than a reduction along
    axis 1 for the small d used here.  For d <= 7 it adds in the order NumPy's
    reduction does, so the bits match; from d = 8 NumPy sums pairwise and the
    l1 and l2 norms may differ from it in the last bits.
    """
    cols = points.T
    if kind == "l2":
        out = cols[0] * cols[0]
        for c in cols[1:]:
            out += c * c
        return np.sqrt(out, out=out)
    fold = {"l1": np.add, "sup": np.maximum}.get(kind)
    if fold is None:
        raise ValueError(f"unknown norm {kind!r}")
    out = np.abs(cols[0])
    for c in cols[1:]:
        fold(out, np.abs(c), out=out)
    return out


def _vector_norm(vec, kind: str) -> float:
    return float(holder_norm(np.asarray([vec], dtype=float), kind)[0])


def _lone_term(coeffs: CoefficientSet, p: float) -> float:
    """||v_0||^p of a set with n = 0; an overflowing float power is non-finite."""
    try:
        return _vector_norm(coeffs.vectors[0], coeffs.norm) ** p
    except OverflowError:
        raise NonfiniteMomentError(f"||v_0||^p overflows at p = {p}") from None


def _write_csv(path: str, values: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("rep,value\n")
        for r, v in enumerate(values):
            fh.write(f"{r},{float(v)!r}\n")


def _stats(values: np.ndarray, reps: int, seed: int | None) -> EstimateWithCI:
    # an overflowing sum gives inf or nan, which _bracket_verdict rejects
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(values))
        se = math.sqrt(float(np.var(values, ddof=1)) / reps) if reps > 1 else 0.0
    return EstimateWithCI(mean=mean, std_error=se, replications=reps, seed=seed, exact=False)


def _exact(mean: float, count: int, seed: int | None = None) -> EstimateWithCI:
    return EstimateWithCI(mean=mean, std_error=0.0, replications=count, seed=seed, exact=True)


def _check_run(p: float, reps: int) -> None:
    if p <= 0.0:
        raise ValueError("p must be positive")
    if reps < MIN_REPS:
        raise ValueError(f"need at least {MIN_REPS} replications, got {reps}")


# ---------------------------------------------------------------------------
# the two backends of the step model


def _sample_paths(block_steps, tail, dim: int, norm: str, p: float, reps: int,
                  src: dc.RandomSource, csv_path: str | None) -> EstimateWithCI:
    """Monte Carlo backend: mean of ||acc||^p over reps independent paths.

    block_steps(m, gen, scratch) yields one block's steps (x, b) in order,
    drawing from gen, b as (d, 1) or (d, m); scratch(n) is the calling
    worker's (CHUNK, n) buffer, allocated on its first block and reused by
    the rest.  tail, when given, adds r * tail after the last step.  acc is
    held as (d, m), see the module docstring.
    """
    values = np.empty(reps)
    local = threading.local()

    def scratch(n: int) -> np.ndarray:
        buf = getattr(local, "buf", None)
        if buf is None:
            buf = local.buf = np.empty((CHUNK, n))
        return buf

    def run_block(block) -> None:
        idx, start = block
        m = min(CHUNK, reps - start)
        r = np.ones(m)
        acc = np.zeros((dim, m))
        with np.errstate(over="ignore", invalid="ignore"):
            for x, b in block_steps(m, src.generator(block=idx), scratch):
                acc += b * r
                r *= x
            if tail is not None:
                acc += tail[:, None] * r
            np.power(holder_norm(acc.T, norm), p, out=values[start:start + m])

    map_indexed(run_block, list(enumerate(range(0, reps, CHUNK))))
    if csv_path is not None:
        _write_csv(csv_path, values)
    return _stats(values, reps, src.seed)


def _walk(steps, tail, dim: int, norm: str, p: float, cap: int):
    """Enumeration backend: yield (values of ||acc||^p, probs) blocks in path order.

    steps lists each step's atoms (x, b, prob), b holding one row per atom;
    tail, when given, adds r * tail after the last step.  The last steps, at
    most ENUM_BLOCK paths of them, form the suffix: it is walked once from
    acc = 0, r = 1, tail included, giving its sums S and probabilities q.
    Each prefix (acc0, r0, p0) of the first `split` steps then yields one
    block, acc0 + r0 * S with probabilities p0 * q.  S is held as (d, M), see
    the module docstring.
    """
    widths = [len(x) for x, _, _ in steps]
    total = math.prod(widths)
    if total > cap:
        raise EnumerationTooLargeError(
            f"{total} outcomes over {len(widths)} steps exceed the cap of {cap:,}"
        )
    split = 0
    while math.prod(widths[split:]) > ENUM_BLOCK:
        split += 1
    acc, r, q = np.zeros((dim, 1)), np.ones(1), np.ones(1)
    with np.errstate(over="ignore", invalid="ignore"):
        for x, b, prob in steps[split:]:
            count = len(r)
            r_rep = np.repeat(r, len(x))
            acc = np.repeat(acc, len(x), axis=1) + np.tile(b.T, (1, count)) * r_rep
            r = r_rep * np.tile(x, count)
            q = np.repeat(q, len(x)) * np.tile(prob, count)
        if tail is not None:
            acc += tail[:, None] * r
    out = np.empty_like(acc)
    for combo in itertools.product(*(range(w) for w in widths[:split])):
        acc0, r0, p0 = np.zeros(dim), 1.0, 1.0
        for (x, b, prob), j in zip(steps, combo):
            acc0 = acc0 + r0 * b[j]
            r0 = r0 * float(x[j])
            p0 = p0 * float(prob[j])
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(acc, r0, out=out)
            out += acc0[:, None]
            # fresh arrays: _outcomes keeps every block while out is reused
            values = holder_norm(out.T, norm) ** p
        yield values, q * p0


def _outcomes(blocks):
    """All enumerated (values, probs), concatenated in walk order."""
    values, probs = zip(*blocks)
    return np.concatenate(values), np.concatenate(probs)


def _exact_mean(blocks) -> EstimateWithCI:
    """Exact mean as one pairwise sum over every outcome."""
    values, probs = _outcomes(blocks)
    return _exact(float(np.sum(values * probs)), len(values))


def _exact_or_sampled(atoms, steps: int, cap: int, exact, sampled) -> EstimateWithCI:
    """Run exact() when the step atoms are finite and width^steps <= cap, else sampled()."""
    if atoms is not None and len(atoms[0]) ** steps <= cap:
        return exact()
    return sampled()


# ---------------------------------------------------------------------------
# the sandwich: steps (X_i, v_{i-1}) and the terminal term R_n v_n


def estimate_lhs(
    spec: dc.DistributionSpec,
    coeffs: CoefficientSet,
    p: float,
    reps: int,
    src: dc.RandomSource,
    csv_path: str | None = None,
) -> EstimateWithCI:
    """Monte Carlo mean of ||sum_i v_i R_i||^p over independent paths."""
    _check_run(p, reps)
    if coeffs.n == 0:
        return _exact(_lone_term(coeffs, p), 0, src.seed)
    vmat = coeffs.matrix()

    def block_steps(m, gen, scratch):
        draws = dc.sample(spec, (m, coeffs.n), gen, out=scratch(coeffs.n)[:m])
        return zip(draws.T, vmat[:-1, :, None])

    return _sample_paths(block_steps, vmat[-1], coeffs.dim, coeffs.norm, p, reps, src, csv_path)


def _sandwich_walk(spec: dc.DistributionSpec, coeffs: CoefficientSet, p: float):
    support = dc.finite_support(spec)
    if support is None:
        raise ValueError("enumeration needs a finite-support factor law")
    if coeffs.n == 0:
        # one outcome, computed as rhs_sum computes it, so the ratio is exactly 1
        return iter([(np.asarray([_lone_term(coeffs, p)]), np.asarray([1.0]))])
    svals, sprobs = support
    vmat = coeffs.matrix()
    steps = [(svals, np.tile(v, (len(svals), 1)), sprobs) for v in vmat[:-1]]
    return _walk(steps, vmat[-1], coeffs.dim, coeffs.norm, p, ENUM_CAP)


def enumerate_lhs_distribution(spec, coeffs: CoefficientSet, p: float):
    """Full outcome distribution (values of ||sum v_i R_i||^p, probabilities)."""
    return _outcomes(_sandwich_walk(spec, coeffs, p))


def brute_force_lhs(spec, coeffs: CoefficientSet, p: float) -> EstimateWithCI:
    """Exact E||sum v_i R_i||^p by weighted enumeration, summed block by block."""
    if p <= 0.0:
        raise ValueError("p must be positive")
    partial = []
    count = 0
    for v, pr in _sandwich_walk(spec, coeffs, p):
        partial.append(float(np.sum(v * pr)))
        count += len(v)
    return _exact(math.fsum(partial), count)


def _sandwich_lhs(spec, coeffs: CoefficientSet, p: float, reps: int, src) -> EstimateWithCI:
    return _exact_or_sampled(
        dc.finite_support(spec), coeffs.n, ENUM_CAP,
        lambda: brute_force_lhs(spec, coeffs, p),
        lambda: estimate_lhs(spec, coeffs, p, reps, src),
    )


def rhs_sum(spec, coeffs: CoefficientSet, p: float) -> float:
    """sum_i ||v_i||^p (E|X|^p)^i with the exact moment oracle."""
    return lambda_weighted_sum(coeffs, p, dc.abs_moment(spec, p).value)


def _bracket_verdict(est: EstimateWithCI, lo_edge, hi_edge, check_lower=True):
    """PASS, FAIL or INCONCLUSIVE for the 3-sigma interval of est against the edges."""
    if not (math.isfinite(est.mean) and math.isfinite(est.std_error)):
        raise NonfiniteMomentError(f"estimate {est.mean} +- {est.std_error} is not finite")
    ci_lo = est.mean - 3.0 * est.std_error
    ci_hi = est.mean + 3.0 * est.std_error
    if (ci_lo >= lo_edge or not check_lower) and ci_hi <= hi_edge:
        return PASS
    if ci_hi < lo_edge and check_lower:
        return FAIL
    if ci_lo > hi_edge:
        return FAIL
    return INCONCLUSIVE


def run_sandwich(
    spec: dc.DistributionSpec,
    p: float,
    coeffs: CoefficientSet,
    bundle: ConstantBundle,
    reps: int,
    src: dc.RandomSource,
) -> SandwichReport:
    """Compare the (estimated or exact) LHS against the certified bracket."""
    if bundle.regime == SMALL_P and not p <= 1.0:
        raise ValueError("SmallP bundle used with p > 1")
    if bundle.regime == LARGE_P and not p > 1.0:
        raise ValueError("LargeP bundle used with p <= 1")
    lhs = _sandwich_lhs(spec, coeffs, p, reps, src)
    rhs = rhs_sum(spec, coeffs, p)
    tol = 1e-9 * rhs
    lo_edge = bundle.lower_c * rhs - tol
    hi_edge = bundle.upper_C * rhs + tol
    verdict = _bracket_verdict(lhs, lo_edge, hi_edge)
    ratio = lhs.mean / rhs if rhs > 0.0 else math.nan
    return SandwichReport(lhs=lhs, rhs_sum=rhs, bundle=bundle, verdict=verdict, ratio=ratio)


def khintchine_counterexample(
    n: int, p: float, reps: int, src: dc.RandomSource, spec: dc.DistributionSpec | None = None
) -> dict:
    """Ratio E|R_1 + ... + R_n|^p / n for sign factors.

    Products of independent signs are again independent signs, so the sum
    behaves like a signed random walk: for p > 2 the ratio grows without
    bound, which is exactly what a degenerate |X| (lambda = 1, mu = 0) does
    to any would-be two-sided comparison.  Pass another degenerate-|X| spec
    to watch the same blow-up there.
    """
    if n < 1:
        raise ValueError("need n >= 1 summands")
    if spec is None:
        spec = dc.rademacher_sign()
    coeffs = coefficient_set([0.0] + [1.0] * n)
    lhs = _sandwich_lhs(spec, coeffs, p, reps, src)
    rhs = rhs_sum(spec, coeffs, p)
    return {"n": n, "p": p, "lhs": lhs, "rhs_sum": rhs, "ratio": lhs.mean / rhs}


# ---------------------------------------------------------------------------
# perpetuity partial sums: steps (X_i, B_i)


def perpetuity_lhs(
    pair: PairSpec, n: int, p: float, reps: int, src: dc.RandomSource
) -> EstimateWithCI:
    """Monte Carlo E||S_n||^p with S_n = sum_{i=1..n} R_{i-1} B_i."""
    if n < 1:
        raise ValueError("need n >= 1 terms")
    _check_run(p, reps)

    def block_steps(m, gen, scratch):
        for _ in range(n):
            x, b = draw_pair(pair, m, gen)
            yield x, b.T

    return _sample_paths(block_steps, None, pair.dim, pair.norm, p, reps, src, None)


def _product_atoms(supports):
    """Lexicographic joint atoms of independent finite laws: (values, column j = law j; probs)."""
    grids = np.meshgrid(*[np.arange(len(v)) for v, _ in supports], indexing="ij")
    flat = [g.ravel() for g in grids]
    prob = np.ones(flat[0].size)
    for (_, pr), idx in zip(supports, flat):
        prob = prob * pr[idx]
    return np.column_stack([v[idx] for (v, _), idx in zip(supports, flat)]), prob


def _pair_branches(pair: PairSpec):
    """Joint (x, B, prob) atoms of one step, or None if not finite."""
    xs = dc.finite_support(pair.x_spec)
    if xs is None:
        return None
    bs = [dc.finite_support(b) for b in pair.b_specs]
    if any(b is None for b in bs):
        return None
    if pair.coupling == "comonotone-scalar":
        xp, bp = xs[1], bs[0][1]
        cuts = np.unique(np.concatenate([[0.0], np.cumsum(xp)[:-1], np.cumsum(bp)[:-1], [1.0]]))
        widths = np.diff(cuts)
        keep = widths > 1e-15
        mids = ((cuts[:-1] + cuts[1:]) / 2.0)[keep]
        x = dc.quantile(pair.x_spec, mids)
        b = dc.quantile(pair.b_specs[0], mids)[:, None]
        return x, b, widths[keep]
    values, prob = _product_atoms([xs, *bs])
    return values[:, 0], values[:, 1:], prob


def brute_force_perpetuity(pair: PairSpec, n: int, p: float) -> EstimateWithCI:
    """Exact E||S_n||^p by enumerating the joint step atoms."""
    if n < 1:
        raise ValueError("need n >= 1 terms")
    branches = _pair_branches(pair)
    if branches is None:
        raise ValueError("exact perpetuity needs finite-support X and B")
    return _exact_mean(_walk([branches] * n, None, pair.dim, pair.norm, p, PERP_CAP))


def _b_norm_moment(
    pair: PairSpec, p: float, reps: int, src: dc.RandomSource
) -> EstimateWithCI:
    """E||B||^p: exact for finite or scalar B, Monte Carlo otherwise."""
    supports = [dc.finite_support(b) for b in pair.b_specs]
    if all(s is not None for s in supports) and math.prod(len(s[0]) for s in supports) <= PERP_CAP:
        b, prob = _product_atoms(supports)
        one_step = [(np.ones(len(prob)), b, prob)]  # r after the step is never read
        return _exact_mean(_walk(one_step, None, pair.dim, pair.norm, p, PERP_CAP))
    if pair.dim == 1:
        return _exact(dc.abs_moment(pair.b_specs[0], p).value, 0)
    gen = src.child(10_000).generator()
    _, b = draw_pair(pair, max(reps, MIN_REPS), gen)
    with np.errstate(over="ignore", invalid="ignore"):
        values = holder_norm(b, pair.norm) ** p
    return _stats(values, len(values), src.seed)


def bracket_constants(
    pair: PairSpec, p: float, bundle: ConstantBundle, cert=None
) -> tuple[float, float, bool]:
    """(lower_c, upper_C, lower_certified) of the bracket for pair's coupling.

    An independent pair takes the bundle as is.  A dependent pair keeps only
    an uncertified lower constant; for p > 1 its upper constant comes from
    the large-p certificate's ratio chain.
    """
    if pair.coupling == "independent":
        return bundle.lower_c, bundle.upper_C, True
    if p <= 1.0:
        return bundle.lower_c, 1.0, False
    if not isinstance(cert, LargePCertificate):
        raise ValueError(
            "dependent coupling with p > 1 needs the large-p certificate "
            "(its ratio chain feeds the dependent upper constant)"
        )
    return bundle.lower_c, dependent_upper_constant(p, cert.lam_chain), False


def goldie_bracket(
    pair: PairSpec,
    p: float,
    n_list,
    constants: tuple[float, float, bool],
    reps: int,
    src: dc.RandomSource,
    require_normalized: bool = True,
) -> list[GoldieBracketRow]:
    """Bracket (1/n) E||S_n||^p between lower_c and upper_C times E||B||^p.

    constants is (lower_c, upper_C, lower_certified), as bracket_constants
    returns it.  The comparison presumes E X^p = 1 so that
    sum_i E R_{i-1}^p = n; pass require_normalized=False only to demonstrate
    how the bracket fails without that normalization (the fixed-point
    degeneracy).
    """
    if require_normalized:
        mp = dc.abs_moment(pair.x_spec, p).value
        if abs(mp - 1.0) > 1e-9:
            raise NotNormalizedError(
                f"pair has E X^p = {mp!r}; normalize X or pass require_normalized=False"
            )
    lower_c, upper_c, lower_certified = constants
    b_mom = _b_norm_moment(pair, p, reps, src)
    tol = 1e-9 * b_mom.mean
    lo_edge = lower_c * (b_mom.mean - 3.0 * b_mom.std_error) - tol
    hi_edge = upper_c * (b_mom.mean + 3.0 * b_mom.std_error) + tol

    rows = []
    branches = _pair_branches(pair)
    for idx, n in enumerate(n_list):
        est = _exact_or_sampled(
            branches, n, PERP_CAP,
            lambda: brute_force_perpetuity(pair, n, p),
            lambda: perpetuity_lhs(pair, n, p, reps, src.child(idx)),
        )
        middle = replace(est, mean=est.mean / n, std_error=est.std_error / n)
        verdict = _bracket_verdict(middle, lo_edge, hi_edge, check_lower=lower_certified)
        rows.append(
            GoldieBracketRow(
                n=n,
                lower_edge=lower_c * b_mom.mean,
                middle=middle,
                upper_edge=upper_c * b_mom.mean,
                b_moment=b_mom,
                verdict=verdict,
                lower_certified=lower_certified,
                exact=middle.exact,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# certified tail inequalities, checked on enumerated distributions


def lambda_weighted_sum(coeffs: CoefficientSet, p: float, lam: float) -> float:
    """sum_i lambda^i ||v_i||^p, the scale the tail bounds are stated in."""
    try:
        total = math.fsum(
            _vector_norm(v, coeffs.norm) ** p * lam**i for i, v in enumerate(coeffs.vectors)
        )
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise NonfiniteMomentError(f"sum_i lambda^i ||v_i||^p overflows at p = {p}")
    return total


def _tail_rows(spec, coeffs: CoefficientSet, p: float, lam: float, t_grid, level, bound):
    """Exact P(||sum v_i R_i||^p >= level(t) * sum lambda^i ||v_i||^p) vs bound(t)."""
    values, probs = enumerate_lhs_distribution(spec, coeffs, p)
    base = lambda_weighted_sum(coeffs, p, lam)
    rows = []
    for t in t_grid:
        mass, edge = float(np.sum(probs[values >= level(t) * base])), bound(t)
        rows.append({"t": t, "tail_prob": mass, "bound": edge, "ok": mass <= edge + 1e-12})
    return rows


def tail_check_large_p(
    spec, coeffs: CoefficientSet, p: float, q: float, lam: float, t_grid=(1.0, 2.0, 4.0, 8.0)
) -> list[dict]:
    """P(||sum v_i R_i||^p >= t * sum lambda^i ||v_i||^p) <= (1-lam)^((1-p)q/p) t^(-q/p)."""
    return _tail_rows(
        spec, coeffs, p, lam, t_grid, lambda t: t,
        lambda t: (1.0 - lam) ** ((1.0 - p) * q / p) * t ** (-q / p),
    )


def tail_check_small_p(
    spec, coeffs: CoefficientSet, p: float, lam: float, t_grid=(1.0, 2.0, 4.0, 8.0)
) -> list[dict]:
    """P(||sum v_i R_i||^p >= (t/(1-lam)) sum lambda^i ||v_i||^p) <= t^(-1/2)."""
    return _tail_rows(spec, coeffs, p, lam, t_grid, lambda t: t / (1.0 - lam), lambda t: t**-0.5)
