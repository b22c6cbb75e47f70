"""One step model, three backends: the moment sandwich and perpetuity sums.

The sandwich sum sum_i v_i R_i (R_0 = 1, R_i = X_1 ... X_i, i.i.d.
factors) and the perpetuity partial sum S_n = sum_{i=1..n} R_{i-1} B_i are
one recursion: from acc = 0, r = 1, each step (x, b) does

    acc += r * b;  r *= x.

The sandwich's step i is (X_i, v_{i-1}) and R_n v_n is added after step n;
the perpetuity's step i is (X_i, B_i) under the coupling PairSpec declares,
and PairSpec.comonotone_cells alone gives a comonotone pair's atoms.
E||acc||^p is computed by one of three backends:

  * _sample_paths, seeded Monte Carlo: reps are cut into fixed blocks of
    4096 paths, one pool task each, and block j draws from
    RandomSource.generator(block=j) into its own paths.  Its values go into
    its slice of one preallocated array, which numpy's pairwise sums reduce.
    Kernels are elementwise, so no BLAS threading reorders a sum, and a
    report depends on (seed, stream, reps), never on the worker count.
  * _walk, exact enumeration of finite per-step atoms (x, b, prob),
    lexicographic with step 1 most significant.  The last steps, at most
    1e5 paths of them (or the last step alone, if it is wider), are walked
    once from acc = 0, r = 1 into sums S; each prefix (acc0, r0) of the
    earlier steps then makes one block acc0 + r0 * S, one fused pass per
    outcome.  _exact_mean runs the blocks on the pool, each worker in one
    set of buffers the calling thread allocates, and adds the blocks' sums
    with math.fsum in walk order, so the mean does not depend on the worker
    count; _outcomes writes every block into its slice of one pair of arrays.
  * the moment backend, in the module moments: the same steps taken
    backward, T <- b + x T, in one loop for the sandwich's point masses and
    the perpetuity's fixed kernel, carry each coordinate's exact moments E T_c^a
    (a <= moment_order(p)) and, for d > 1, E||T||_2^4, for all coefficient
    sets or every perpetuity row at once, and give a MomentEnclosure of
    E||acc||^p by the log-convexity of t -> log E|S|^t (Lyapunov), widened
    by a forward bound on the rounding (Higham 2002, ch. 3).  It is
    imported when a choice first needs it.

Sampling and enumeration keep acc coordinate-major, (d, m) for m paths, so
each update is one contiguous pass per coordinate instead of m short rows of
d.  Each element still goes through the same IEEE operations (r * b is
computed as b * r, which rounds the same), so no value changes with the
layout.

choose_engine alone picks the backend, for the sandwich, each perpetuity row
and E||B||^p = E||S_1||^p: it enumerates when the step atoms are finite and
their outcomes, counted from the step's width before any outcome is built,
fit ENUM_CAP = 1e7, and past the cap takes the moment backend, or samples
when the caller asks for samples (verify's --csv, the Riesz side) or the
moment backend does not apply.  The sandwich verdict against
sum_i ||v_i||^p (E|X|^p)^i and the perpetuity bracket are built on top.

The signed counterexample for a degenerate |X| needs none of the three: its
factors are signs, R_i = eps_1 ... eps_i is a two-state Markov chain, and
every partial sum of R_1 + ... + R_n is an integer in [-n, n].  _sign_chain
takes the exact law of the sum from a dynamic program over (sign, partial
sum) in integer counts, O(n^2) integer operations at any n.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from . import dist_core as dc
from ._pool import concurrency, map_indexed
from .assumptions import NORM_KINDS, LargePCertificate, PairSpec, check_normalized
from .constants import LARGE_P, SMALL_P, ConstantBundle, dependent_upper_constant
from .errors import EnumerationTooLargeError, NonfiniteMomentError, UsageError

CHUNK = 4096
ENUM_CAP = 10**7
ENUM_BLOCK = 10**5
MIN_REPS = 10**3
# the moment backend's top order, and its top dimension: a set holds d x d second moments
MAX_MOMENT_ORDER = 16
MAX_MOMENT_DIM = 1024

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class CoefficientSet:
    """Vectors v_0 .. v_n in R^d plus the norm the sum is measured in.

    The (n + 1, d) float matrix of the vectors is built once, read-only, and
    every engine reads it; equality and hashing stay on vectors and norm."""

    vectors: tuple[tuple[float, ...], ...]
    norm: str = "l2"
    _matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.vectors:
            raise ValueError("need at least v_0")
        dims = {len(v) for v in self.vectors}
        if len(dims) != 1 or 0 in dims:
            raise ValueError("all vectors must share one dimension d >= 1")
        if self.norm not in NORM_KINDS:
            raise ValueError(f"unknown norm {self.norm!r}")
        matrix = np.asarray(self.vectors, dtype=float)
        matrix.flags.writeable = False
        object.__setattr__(self, "_matrix", matrix)

    @property
    def dim(self) -> int:
        return len(self.vectors[0])

    @property
    def n(self) -> int:
        return len(self.vectors) - 1

    def matrix(self) -> np.ndarray:
        return self._matrix


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
class MomentEnclosure:
    """lower <= E||S||^p <= upper, from exact moments of the listed orders, each
    known to within `rounding` of its value (relative) after float rounding."""

    lower: float
    upper: float
    orders: tuple[int, ...]
    rounding: float


@dataclass(frozen=True)
class SandwichReport:
    """ratio is lhs / rhs_sum, or the pair (lower, upper) / rhs_sum for an enclosure."""

    lhs: EstimateWithCI | MomentEnclosure
    rhs_sum: float
    verdict: str
    ratio: float | tuple[float, float]
    engine: str
    reason: str


@dataclass(frozen=True)
class GoldieBracketRow:
    n: int
    lower_edge: float
    middle: EstimateWithCI | MomentEnclosure
    upper_edge: float
    b_moment: EstimateWithCI | MomentEnclosure
    verdict: str
    lower_certified: bool
    exact: bool
    engine: str
    reason: str


def holder_norm(points: np.ndarray, kind: str, out: np.ndarray | None = None) -> np.ndarray:
    """Row norms of an (m, d) array, accumulated column by column, into out when given.

    For d = 1 every norm is |x|; the l2 norm squares nothing, so it does not
    overflow where |x| is finite, and elsewhere sqrt(x * x) = |x| in binary64.
    A loop over the d columns is several times faster than a reduction along
    axis 1 for the small d used here.  For d <= 7 it adds in the order NumPy's
    reduction does, so the bits match; from d = 8 NumPy sums pairwise and the
    l1 and l2 norms may differ from it in the last bits.  out, an (m,) float
    array, gets the same bits as a fresh result.
    """
    if kind not in NORM_KINDS:
        raise ValueError(f"unknown norm {kind!r}")
    cols = points.T
    if len(cols) == 1:
        return np.abs(cols[0], out=out)
    if kind == "l2":
        out = np.multiply(cols[0], cols[0], out=out)
        for c in cols[1:]:
            out += c * c
        return np.sqrt(out, out=out)
    fold = np.add if kind == "l1" else np.maximum
    out = np.abs(cols[0], out=out)
    for c in cols[1:]:
        fold(out, np.abs(c), out=out)
    return out


def _row_norms(coeffs: CoefficientSet) -> list[float]:
    """||v_i|| for i = 0 .. n, from one pass over the matrix; inf where the l2 norm's
    squares overflow, which the callers reject."""
    with np.errstate(over="ignore"):
        return holder_norm(coeffs.matrix(), coeffs.norm).tolist()


def _lone_term(coeffs: CoefficientSet, p: float) -> float:
    """||v_0||^p of a set with n = 0; an overflowing float power is non-finite."""
    try:
        return _row_norms(coeffs)[0] ** p
    except OverflowError:
        raise NonfiniteMomentError(f"||v_0||^p overflows at p = {p}") from None


def _stats(values: np.ndarray, reps: int, seed: int | None) -> EstimateWithCI:
    """Mean and standard error of values, which it consumes: they end as squared deviations.

    The operations are np.mean's and np.var(ddof=1)'s in their order, so both
    figures match those functions bit for bit without a temporary of values' size.
    """
    # an overflowing sum gives inf or nan, which _bracket_verdict rejects
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.add.reduce(values) / reps
        dev = np.subtract(values, mean, out=values)
        var = np.add.reduce(np.multiply(dev, dev, out=dev)) / (reps - 1) if reps > 1 else 0.0
        se = math.sqrt(float(var) / reps)
    return EstimateWithCI(mean=float(mean), std_error=se, replications=reps, seed=seed, exact=False)


def _exact(mean: float, count: int, seed: int | None = None) -> EstimateWithCI:
    return EstimateWithCI(mean=mean, std_error=0.0, replications=count, seed=seed, exact=True)


def _check_run(p: float, reps: int) -> None:
    dc.check_order(p)
    if reps < MIN_REPS:
        raise ValueError(f"need at least {MIN_REPS} replications, got {reps}")


# ---------------------------------------------------------------------------
# the sampling and enumeration backends of the step model


def _sample_paths(block_steps, tail, dim: int, norm: str, p: float, reps: int,
                  src: dc.RandomSource, csv_path: str | None) -> EstimateWithCI:
    """Monte Carlo backend: mean of ||acc||^p over reps independent paths.

    reps are cut into blocks of CHUNK paths, one pool task each, and block j
    draws from src.generator(block=j).  block_steps(gen, m, scratch) gets
    the block's generator and path count and yields its steps (x, b) in
    order: x holds the m paths' factors and b is (d, 1) or (d, m).
    scratch(shape) is the calling worker's float buffer, allocated on its
    first request and reused by the later ones, which it reallocates only
    when a request outgrows it.  tail, when given, adds r * tail after the
    last step.  acc is held as (d, m), see the module docstring, and each
    block writes its values into its slice of one preallocated array.
    """
    values = np.empty(reps)
    local = threading.local()

    def scratch(shape) -> np.ndarray:
        buf = getattr(local, "buf", None)
        if buf is None or buf.shape[0] < shape[0] or buf.shape[1] < shape[1]:
            buf = local.buf = np.empty(shape)
        return buf[:shape[0], :shape[1]]

    def run(j: int) -> None:
        lo = j * CHUNK
        m = min(CHUNK, reps - lo)
        # a sandwich draws its block here, before the step temporaries exist
        steps = block_steps(src.generator(block=j), m, scratch)
        r = np.ones(m)
        acc = np.zeros((dim, m))
        tmp = np.empty((dim, m))
        with np.errstate(over="ignore", invalid="ignore"):
            for x, b in steps:
                acc += np.multiply(b, r, out=tmp)
                r *= x
            if tail is not None:
                acc += np.multiply(tail[:, None], r, out=tmp)
            np.power(holder_norm(acc.T, norm), p, out=values[lo:lo + m])

    map_indexed(run, range(-(-reps // CHUNK)))
    if csv_path is not None:  # before _stats overwrites values
        with open(csv_path, "w") as fh:
            fh.write("rep,value\n")
            fh.writelines(f"{r},{float(v)!r}\n" for r, v in enumerate(values))
    return _stats(values, reps, src.seed)


@dataclass(frozen=True)
class _Walk:
    """Suffix sums S, (d, M), their probabilities q and the prefixes (acc0, r0, p0)
    in walk order: a prefix's block is ||acc0 + r0 * S||^p with probabilities p0 * q."""

    sums: np.ndarray
    probs: np.ndarray
    prefixes: list
    norm: str
    p: float


def _walk(steps, tail, dim: int, norm: str, p: float) -> _Walk:
    """Enumeration backend: the suffix sums and the prefixes of a lexicographic walk.

    steps lists each step's atoms (x, b, prob), b holding one row per atom;
    tail, when given, adds r * tail after the last step.  The last steps, at
    most ENUM_BLOCK paths of them, form the suffix; a last step wider than
    ENUM_BLOCK forms it alone, so that its atoms make one block and not one
    block each.  The suffix is walked once from acc = 0, r = 1, tail
    included, giving its sums S and probabilities q; each prefix (acc0, r0,
    p0) of the first `split` steps then makes one block.  S is held as
    (d, M), see the module docstring.  Overflow gives inf or nan values,
    which the verdicts reject, and no warning.
    """
    widths = [len(x) for x, _, _ in steps]
    split = 0
    while split < len(widths) - 1 and math.prod(widths[split:]) > ENUM_BLOCK:
        split += 1
    acc, r, q = np.zeros((dim, 1)), np.ones(1), np.ones(1)
    prefixes = []
    with np.errstate(over="ignore", invalid="ignore"):
        for x, b, prob in steps[split:]:
            count = len(r)
            r_rep = np.repeat(r, len(x))
            acc = np.repeat(acc, len(x), axis=1) + np.tile(b.T, (1, count)) * r_rep
            r = r_rep * np.tile(x, count)
            q = np.repeat(q, len(x)) * np.tile(prob, count)
        if tail is not None:
            acc += tail[:, None] * r
        for combo in itertools.product(*(range(w) for w in widths[:split])):
            acc0, r0, p0 = np.zeros(dim), 1.0, 1.0
            for (x, b, prob), j in zip(steps, combo):
                acc0 = acc0 + r0 * b[j]
                r0 = r0 * float(x[j])
                p0 = p0 * float(prob[j])
            prefixes.append((acc0, r0, p0))
    return _Walk(acc, q, prefixes, norm, p)


def _block_values(walk: _Walk, prefix, out=None, values=None) -> np.ndarray:
    """One prefix's ||acc0 + r0 * S||^p, through out and into values when given."""
    acc0, r0, _ = prefix
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.multiply(walk.sums, r0, out=out)
        out += acc0[:, None]
        values = holder_norm(out.T, walk.norm, out=values)
        values **= walk.p  # as ** does, with its fast paths for p = 0.5, 1 and 2
    return values


def _outcomes(walk: _Walk):
    """All enumerated (values, probs) in walk order, each block written into its
    slice of one preallocated pair of arrays."""
    m, total = len(walk.probs), len(walk.probs) * len(walk.prefixes)
    values, probs = np.empty(total), np.empty(total)
    out = np.empty_like(walk.sums)
    for lo, prefix in zip(range(0, total, m), walk.prefixes):
        _block_values(walk, prefix, out, values[lo:lo + m])
        np.multiply(walk.probs, prefix[2], out=probs[lo:lo + m])
    return values, probs


def _exact_mean(walk: _Walk) -> EstimateWithCI:
    """Exact mean: math.fsum, in walk order, of each block's pairwise sum of values * probs.

    The blocks run on the pool when there are at least 4 per worker, since
    a worker's first touch of its buffers costs about one block.  Each
    running block takes one set of buffers (out, values, probs) from a free
    list that the calling thread fills, one set per block run at once.
    fsum rounds the exact sum of the block sums once, so the mean has the
    same bits at every worker count.
    """
    sums, q, prefixes = walk.sums, walk.probs, walk.prefixes
    width = concurrency(len(prefixes))
    if len(prefixes) < 4 * width:
        width = 1
    free = [(np.empty_like(sums), np.empty_like(q), np.empty_like(q)) for _ in range(width)]

    def block(prefix) -> float:
        buffers = free.pop()
        try:
            out, values, probs = buffers
            _block_values(walk, prefix, out, values)
            # NumPy's error state is per thread, so each block sets its own
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply(q, prefix[2], out=probs)
                return float(np.add.reduce(np.multiply(values, probs, out=probs)))
        finally:
            free.append(buffers)

    partial = map_indexed(block, prefixes) if width > 1 else [block(pre) for pre in prefixes]
    return _exact(math.fsum(partial), len(prefixes) * len(q))


def _check_cap(width: int, steps: int) -> None:
    """EnumerationTooLargeError when steps steps of width atoms pass ENUM_CAP outcomes."""
    if width**steps > ENUM_CAP:
        raise EnumerationTooLargeError(f"{width**steps} outcomes exceed the cap of {ENUM_CAP:,}")


def choose_engine(width: int | None, steps: int, no_moments: str | None = None,
                  sample: bool = False) -> tuple[str, str]:
    """The engine choice, (engine, reason), for steps steps of width atoms each (None:
    a law that is not finitely supported).

    Within ENUM_CAP outcomes it enumerates; zero steps are one outcome whatever
    the law.  Past the cap it takes the moment backend, or samples when sample
    is set or no_moments says why the moment backend does not apply.  Neither
    engine has run when it is called.
    """
    if width is None and steps == 0:
        return "enumerate", f"0 steps = 1 outcome <= cap {ENUM_CAP:,}"
    total = math.inf if width is None else width**steps
    if total <= ENUM_CAP:
        return "enumerate", f"{width}^{steps} = {total:,} outcomes <= cap {ENUM_CAP:,}"
    past = ("the law is not finitely supported" if width is None
            else f"{width}^{steps} outcomes > cap {ENUM_CAP:,}")
    if no_moments is not None:
        return "montecarlo", f"{past}; {no_moments}"
    return ("montecarlo" if sample else "moments"), past


def _interval(est) -> tuple[float, float]:
    """The interval a verdict judges: an enclosure's ends, or mean +- 3 SE (a point
    for an exact mean)."""
    if isinstance(est, MomentEnclosure):
        return est.lower, est.upper
    return est.mean - 3.0 * est.std_error, est.mean + 3.0 * est.std_error


def _ends(est) -> tuple[float, float]:
    """The value a report scales by: an enclosure's ends, or the mean twice."""
    if isinstance(est, MomentEnclosure):
        return est.lower, est.upper
    return est.mean, est.mean


def moment_order(p: float) -> int:
    """The top moment order an enclosure of E||S||^p uses: the even order at or above p,
    and 4 at least."""
    return max(4, 2 * math.ceil(p / 2.0))


def _no_moments(p: float, dim: int, pair: PairSpec | None = None) -> str | None:
    """Why the moment backend cannot enclose E||S||^p in dimension dim (of pair's sums,
    when given), or None."""
    order = moment_order(p)
    if order > MAX_MOMENT_ORDER:
        return f"p = {p} needs moments of order {order} > {MAX_MOMENT_ORDER}"
    if dim > MAX_MOMENT_DIM:
        return f"d = {dim} > {MAX_MOMENT_DIM} for the moment engine's d x d second moments"
    if (pair is not None and pair.coupling != "independent" and _pair_width(pair) is None
            and any(dc.quantile_poly(spec) is None for spec in (pair.x_spec, *pair.b_specs))):
        return ("the moment engine has joint moments of a comonotone pair only for two "
                "finite laws, or for uniform and exponential ones")
    return None


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
    n, vmat = coeffs.n, coeffs.matrix()

    def block_steps(gen, m, scratch):
        draws = dc.sample(spec, (m, n), gen, out=scratch((m, n)))  # path-major
        return zip(draws.T, vmat[:-1, :, None])

    return _sample_paths(block_steps, vmat[-1], coeffs.dim, coeffs.norm, p, reps, src, csv_path)


def _sandwich_walk(spec: dc.DistributionSpec, coeffs: CoefficientSet, p: float) -> _Walk | None:
    """The sandwich's walk; None for n = 0, whose one outcome is _lone_term, computed as
    rhs_sum computes it, so the ratio is exactly 1, whatever the law."""
    if coeffs.n == 0:
        return None
    support = dc.finite_support(spec)
    if support is None:
        raise ValueError("enumeration needs a finite-support factor law")
    svals, sprobs = support
    vmat = coeffs.matrix()
    steps = [(svals, np.tile(v, (len(svals), 1)), sprobs) for v in vmat[:-1]]
    _check_cap(len(svals), coeffs.n)
    return _walk(steps, vmat[-1], coeffs.dim, coeffs.norm, p)


def enumerate_lhs_distribution(spec, coeffs: CoefficientSet, p: float):
    """Full outcome distribution (values of ||sum v_i R_i||^p, probabilities)."""
    walk = _sandwich_walk(spec, coeffs, p)
    if walk is None:
        return np.asarray([_lone_term(coeffs, p)]), np.ones(1)
    return _outcomes(walk)


def brute_force_lhs(spec, coeffs: CoefficientSet, p: float) -> EstimateWithCI:
    """Exact E||sum v_i R_i||^p by weighted enumeration."""
    dc.check_order(p)
    walk = _sandwich_walk(spec, coeffs, p)
    return _exact(_lone_term(coeffs, p), 1) if walk is None else _exact_mean(walk)


def _sandwich_choice(spec, coeffs: CoefficientSet, p: float,
                     sample: bool = False) -> tuple[str, str]:
    """choose_engine for coefficient sets of coeffs' n and d."""
    dc.check_order(p)
    support = dc.finite_support(spec)
    return choose_engine(None if support is None else len(support[0]), coeffs.n,
                         _no_moments(p, coeffs.dim), sample)


def rhs_sum(spec, coeffs: CoefficientSet, p: float) -> float:
    """sum_i ||v_i||^p (E|X|^p)^i with the exact moment oracle."""
    return lambda_weighted_sum(coeffs, p, dc.abs_moment(spec, p))


def _bracket_verdict(lhs: tuple[float, float], constants, base: tuple[float, float],
                     tol: float) -> str:
    """PASS, FAIL or INCONCLUSIVE for the interval lhs = (lo, hi) against the bracket.

    lhs is _interval of an estimate: mean +- 3 SE, the point (mean, mean) of
    an exact one, or an enclosure.  constants is (lower_c, upper_C,
    lower_certified), as bracket_constants returns it, and base = (lo, hi)
    encloses the scale they multiply.  The edges are lower_c * base_lo - tol
    and upper_C * base_hi + tol; an uncertified lower edge is not checked.
    """
    lo, hi = lhs
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NonfiniteMomentError(f"estimate [{lo}, {hi}] is not finite")
    lower_c, upper_c, check_lower = constants
    lo_edge = lower_c * base[0] - tol
    hi_edge = upper_c * base[1] + tol
    if (lo >= lo_edge or not check_lower) and hi <= hi_edge:
        return PASS
    if hi < lo_edge and check_lower:
        return FAIL
    if lo > hi_edge:
        return FAIL
    return INCONCLUSIVE


def run_sandwiches(spec: dc.DistributionSpec, p: float, sets,
                   constants: tuple[float, float, bool], reps: int, srcs,
                   csv_path: str | None = None) -> list[SandwichReport]:
    """run_sandwich over sets sharing n and d, each with its source in srcs; the moment
    engine takes them all in one pass.  A csv_path for the first set's sampled values
    has them sampled past the enumeration cap; it is a usage error, raised before any
    work, when that set is enumerated (within the cap, or n = 0)."""
    if not sets:
        return []
    chosen, reason = _sandwich_choice(spec, sets[0], p, sample=csv_path is not None)
    if csv_path is not None and chosen != "montecarlo":
        raise UsageError(f"--csv {csv_path}: the first set is exact ({reason}), "
                         "so no path is sampled")
    if chosen == "moments":
        from . import moments

        lhs = moments.sandwich_enclosures(spec, sets, p)
    elif chosen == "enumerate":
        lhs = [brute_force_lhs(spec, coeffs, p) for coeffs in sets]
    else:
        lhs = [estimate_lhs(spec, coeffs, p, reps, src, csv_path if d == 0 else None)
               for d, (coeffs, src) in enumerate(zip(sets, srcs))]
    reports = []
    for est, coeffs in zip(lhs, sets):
        rhs = rhs_sum(spec, coeffs, p)
        verdict = _bracket_verdict(_interval(est), constants, (rhs, rhs), 1e-9 * rhs)
        if not rhs > 0.0:
            ratio = math.nan
        elif chosen == "moments":
            ratio = (est.lower / rhs, est.upper / rhs)
        else:
            ratio = est.mean / rhs
        reports.append(SandwichReport(lhs=est, rhs_sum=rhs, verdict=verdict, ratio=ratio,
                                      engine=chosen, reason=reason))
    return reports


def run_sandwich(
    spec: dc.DistributionSpec,
    p: float,
    coeffs: CoefficientSet,
    constants: tuple[float, float, bool],
    reps: int,
    src: dc.RandomSource,
    csv_path: str | None = None,
) -> SandwichReport:
    """Compare the LHS (an enumerated mean, a sampled estimate or a moment enclosure)
    against the bracket constants times rhs_sum; a sampled LHS writes its per-path
    values to csv_path, when given."""
    return run_sandwiches(spec, p, [coeffs], constants, reps, [src], csv_path)[0]


# ---------------------------------------------------------------------------
# the signed counterexample: the exact law of a sum of sign products


def _negative_mass(spec: dc.DistributionSpec) -> float:
    """P(X < 0), the law of the sign of X.  A continuous law whose |X| is numerically
    constant lies near one of c and -c, on the side its parameters show."""
    support = dc.finite_support(spec)
    if support is None:
        return 0.0 if dc.is_nonnegative(spec) else 1.0
    values, probs = support
    # normalized probabilities of an all-negative law can add up to just above 1
    return min(1.0, math.fsum(probs[values < 0.0]))


def _sign_chain(n: int, q: float) -> tuple[list[tuple[int, int]], int]:
    """The law of S = R_1 + ... + R_n, R_i = eps_1 ... eps_i for i.i.d. signs with
    P(eps = -1) = q: the pairs (s, c) with c > 0 and P(S = s) = c / 2^bits, and bits.

    q = a / 2^e exactly, so a step weighs a flip by a and a stay by 2^e - a and
    every count is an integer.  After step i, plus[j] and minus[j] count the
    paths with S_i = 2j - i and R_i = +1 and -1: O(n^2) integer operations.
    A state's two successors weigh 2^e together, so the R = -1 one is that
    total less the R = +1 one, a shift in place of two multiplications.
    """
    flip, denom = q.as_integer_ratio()
    stay, e = denom - flip, denom.bit_length() - 1
    plus, minus = [1], [0]  # S_0 = 0 and R_0 = 1
    for _ in range(n):
        up = [stay * u + flip * w for u, w in zip(plus, minus)]
        plus, minus = [0] + up, [((u + w) << e) - x for u, w, x in zip(plus, minus, up)] + [0]
    law = [(2 * j - n, u + w) for j, (u, w) in enumerate(zip(plus, minus)) if u + w]
    return law, e * n


def _sign_chain_moment(law: list[tuple[int, int]], bits: int, p: float) -> float:
    """E|S|^p of the law _sign_chain gives, inf where it overflows.

    At an integer p it is one correctly rounded division of the exact integer
    sum of c |s|^p by 2^bits.  Otherwise each term is (c |s|^floor(p) / 2^bits)
    |s|^(p - floor(p)), added by math.fsum, so no power overflows or
    underflows ahead of its term.  Since E|S|^p >= 2^-bits top^p for the
    largest |s|, top, a p with p log2(top) > bits + 1024 overflows, and is
    decided before any power is taken; below it every integer has fewer than
    2 bits + 1025 bits.
    """
    top = max(abs(s) for s, _ in law)
    if top > 1 and p * math.log2(top) > bits + 1024:
        return math.inf
    whole = math.floor(p)
    frac, denom = p - whole, 1 << bits
    try:
        if frac == 0.0:
            return sum(c * abs(s) ** whole for s, c in law) / denom
        return math.fsum(c * abs(s) ** whole / denom * abs(s) ** frac for s, c in law)
    except OverflowError:
        return math.inf


def khintchine_counterexample(n: int, p: float, spec: dc.DistributionSpec | None = None) -> dict:
    """Ratio E|R_1 + ... + R_n|^p / n for sign factors, exactly.

    Products of independent signs are again signs, so the sum behaves like a
    signed random walk: for p > 2 the ratio grows without bound (3n - 2 at
    p = 4 for Rademacher signs), which is exactly what a degenerate |X|
    (lambda = 1, mu = 0) does to any would-be two-sided comparison.  Pass
    another degenerate-|X| spec, normalized to E|X|^p = 1, to watch the same
    blow-up there: only its sign law P(X < 0) is read, so each factor is a
    sign, sum_i E|R_i|^p = n and the sum's law is _sign_chain's.
    """
    if n < 1:
        raise ValueError("need n >= 1 summands")
    dc.check_order(p)
    q = 0.5 if spec is None else _negative_mass(spec)
    law, bits = _sign_chain(n, q)
    mean = _sign_chain_moment(law, bits, p)
    rhs = float(n)
    reason = (f"|X| is degenerate, so R_i is a sign chain with P(X < 0) = {q!r}: "
              f"the exact law of S over its {len(law)} values")
    return {"n": n, "p": p, "lhs": _exact(mean, len(law)), "rhs_sum": rhs, "ratio": mean / rhs,
            "engine": "sign_chain", "reason": reason}


# ---------------------------------------------------------------------------
# perpetuity partial sums: steps (X_i, B_i)


def perpetuity_lhs(
    pair: PairSpec, n: int, p: float, reps: int, src: dc.RandomSource
) -> EstimateWithCI:
    """Monte Carlo E||S_n||^p with S_n = sum_{i=1..n} R_{i-1} B_i."""
    if n < 1:
        raise ValueError("need n >= 1 terms")
    _check_run(p, reps)

    comonotone = pair.coupling == "comonotone-scalar"

    def block_steps(gen, m, scratch):
        x, b = np.empty(m), np.empty((pair.dim, m))
        for _ in range(n):
            if comonotone:  # one shared uniform, mapped through both quantiles
                gen.random(out=x)
                dc.quantile(pair.b_specs[0], x, out=b[0])
                dc.quantile(pair.x_spec, x, out=x)
            else:  # X, then each B column
                for law, row in zip((pair.x_spec, *pair.b_specs), (x, *b)):
                    dc.sample(law, m, gen, out=row)
            yield x, b

    return _sample_paths(block_steps, None, pair.dim, pair.norm, p, reps, src, None)


def _pair_width(pair: PairSpec) -> int | None:
    """How many joint atoms one step has; None if not finite."""
    laws = [dc.finite_support(s) for s in (pair.x_spec, *pair.b_specs)]
    if any(law is None for law in laws):
        return None
    if pair.coupling == "comonotone-scalar":
        return len(pair.comonotone_cells()[2])
    return math.prod(len(values) for values, _ in laws)


def _pair_branches(pair: PairSpec):
    """Joint (x, B, prob) atoms of one step of a pair whose laws are all finite."""
    if pair.coupling == "comonotone-scalar":
        x, b, widths = pair.comonotone_cells()
        return x, b[:, None], widths
    laws = [dc.finite_support(s) for s in (pair.x_spec, *pair.b_specs)]
    # independent laws: lexicographic joint atoms, X most significant, column j = law j
    grids = np.meshgrid(*[np.arange(len(v)) for v, _ in laws], indexing="ij")
    flat = [g.ravel() for g in grids]
    prob = np.ones(flat[0].size)
    for (_, pr), idx in zip(laws, flat):
        prob = prob * pr[idx]
    values = np.column_stack([v[idx] for (v, _), idx in zip(laws, flat)])
    return values[:, 0], values[:, 1:], prob


def brute_force_perpetuity(pair: PairSpec, n: int, p: float) -> EstimateWithCI:
    """Exact E||S_n||^p by enumerating the joint step atoms."""
    dc.check_order(p)
    if n < 1:
        raise ValueError("need n >= 1 terms")
    width = _pair_width(pair)
    if width is None:
        raise ValueError("exact perpetuity needs finite-support X and B")
    _check_cap(width, n)
    return _exact_mean(_walk([_pair_branches(pair)] * n, None, pair.dim, pair.norm, p))


def _b_norm_moment(pair: PairSpec, p: float, reps: int,
                   src: dc.RandomSource) -> EstimateWithCI | MomentEnclosure:
    """E||B||^p as the row n = 1, E||S_1||^p, taken by choose_engine; in closed form for
    a scalar B that is not finite."""
    if pair.dim == 1 and dc.finite_support(pair.b_specs[0]) is None:
        return _exact(dc.abs_moment(pair.b_specs[0], p), 0)
    b_only = replace(pair, x_spec=dc.finitely_supported([(1.0, 1.0)]), coupling="independent")
    chosen, _ = choose_engine(_pair_width(b_only), 1, _no_moments(p, pair.dim))
    if chosen == "moments":
        from . import moments

        return moments.perpetuity_enclosures(b_only, [1], p)[1]
    if chosen == "enumerate":
        return brute_force_perpetuity(b_only, 1, p)
    return perpetuity_lhs(pair, 1, p, max(reps, MIN_REPS), src.child(10_000))


def bracket_constants(
    p: float, bundle: ConstantBundle, cert=None, coupling: str = "independent"
) -> tuple[float, float, bool]:
    """(lower_c, upper_C, lower_certified): the one form a bracket takes its constants in.

    The bundle's regime must be p's.  The independent coupling, the
    sandwich's too, takes the bundle as is.  A dependent coupling keeps only
    an uncertified lower constant; for p > 1 its upper constant comes from
    the large-p certificate's ratio chain.
    """
    if bundle.regime == SMALL_P and not p <= 1.0:
        raise ValueError("SmallP bundle used with p > 1")
    if bundle.regime == LARGE_P and not p > 1.0:
        raise ValueError("LargeP bundle used with p <= 1")
    if coupling == "independent":
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
    degeneracy).  Each row takes its engine from choose_engine, and the rows
    the moment engine takes come from one pass.  An enclosed E||B||^p puts
    its lower end under the lower edge and its upper end under the upper one.
    """
    dc.check_order(p)
    if any(n < 1 for n in n_list):
        raise ValueError("need n >= 1 terms")
    if require_normalized:
        check_normalized(pair.x_spec, p)
    lower_c, upper_c, lower_certified = constants
    b_mom = _b_norm_moment(pair, p, reps, src)
    b_lo, b_hi = _ends(b_mom)
    width, no_moments = _pair_width(pair), _no_moments(p, pair.dim, pair)
    choices = [choose_engine(width, n, no_moments) for n in n_list]
    moment_rows = [n for n, (chosen, _) in zip(n_list, choices) if chosen == "moments"]
    enclosures = {}
    if moment_rows:
        from . import moments

        enclosures = moments.perpetuity_enclosures(pair, moment_rows, p)
    rows = []
    for idx, (n, (chosen, reason)) in enumerate(zip(n_list, choices)):
        if chosen == "moments":
            middle = enclosures[n]
        else:
            est = (brute_force_perpetuity(pair, n, p) if chosen == "enumerate"
                   else perpetuity_lhs(pair, n, p, reps, src.child(idx)))
            middle = replace(est, mean=est.mean / n, std_error=est.std_error / n)
        verdict = _bracket_verdict(_interval(middle), constants, _interval(b_mom), 1e-9 * b_hi)
        rows.append(
            GoldieBracketRow(
                n=n,
                lower_edge=lower_c * b_lo,
                middle=middle,
                upper_edge=upper_c * b_hi,
                b_moment=b_mom,
                verdict=verdict,
                lower_certified=lower_certified,
                exact=chosen == "enumerate",
                engine=chosen,
                reason=reason,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# certified tail inequalities, checked on enumerated distributions


def lambda_weighted_sum(coeffs: CoefficientSet, p: float, lam: float) -> float:
    """sum_i lambda^i ||v_i||^p, the scale the tail bounds are stated in."""
    try:
        total = math.fsum(x**p * lam**i for i, x in enumerate(_row_norms(coeffs)))
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
