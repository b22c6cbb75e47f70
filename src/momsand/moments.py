"""The moment backend of the step model: exact moments, and enclosures from them.

The steps (x, b) of montecarlo's step model, taken backward as T <- b + x T
from T = 0, with X independent of T, carry what an enclosure of E||S||^p
reads and no more:

  * every coordinate's E T_c^a, a <= order:

        E (b_c + X T_c)^a = sum_j C(a, j) E[b_c^(a-j) X^j] E T_c^j;

  * for d > 1 and p != 2, E||T||_2^4.  At p = 2 the enclosure takes the
    norm from orders 0 and 2 alone, E||S||_2^2 being the sum of the
    coordinates' second moments, so nothing carries the fourth.  With
    ||T'||^2 = ||b||^2 + 2 X <b, T> + X^2 ||T||^2 and X independent of b
    (the sandwich's fixed v, and the independent coupling) it follows from
    m = E T, M = E[T T^t], m3 = E[T ||T||^2] and q = E||T||^4, with
    mu_l = E X^l:

        m'  = E b + mu_1 m
        M'  = E[b b^t] + mu_1 (E b m^t + m E b^t) + mu_2 M
        m3' = E[b ||b||^2] + 2 mu_1 E[b b^t] m + mu_2 E b tr M + mu_1 E||b||^2 m
              + 2 mu_2 M E b + mu_3 m3
        q'  = E||b||^4 + 4 mu_2 <E[b b^t], M> + mu_4 q + 4 mu_1 <E[b ||b||^2], m>
              + 2 mu_2 E||b||^2 tr M + 4 mu_3 <E b, m3>.

So a set holds O(d order + d^2) floats, whatever the order.  One loop, _backward,
takes the steps: sandwich_moments gives it the point masses v_n, ..., v_0 of blocks
of at most _BLOCK floats per d x d layer, and perpetuity_moments one kernel
C(a, j) E[B^(a-j) X^j], keeping every row of an n-list from one pass.  Both run in
float64, and the same recursions on magnitudes (|v|, the magnitudes of the
raw moments and of the moments themselves) bound the rounding: each value
lies within gamma(2N) = 2N u / (1 - 2N u) of its magnitude, N the longest
chain of roundings (Higham 2002, ch. 3).  _enclose turns the moments of one
set or row into a MomentEnclosure of E||S||^p by the log-convexity of
t -> log E|S|^t (Lyapunov).

montecarlo imports this module when an engine choice first needs it, so
importing the package does not compile it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import dist_core as dc
from .assumptions import PairSpec
from .errors import NonfiniteMomentError
from .montecarlo import MomentEnclosure, _pair_width, moment_order

_U = 2.0**-53
# floats in one layer of a block of sets' d x d second moments: 2 MB
_BLOCK = 2**18


def _gamma(k: float) -> float:
    """Higham's gamma_k = k u / (1 - k u): the relative error of k roundings."""
    return k * _U / (1.0 - k * _U)


@dataclass(frozen=True)
class Moments:
    """E S_c^k for each coordinate c and k = 0 .. order, (d, order + 1), and
    E||S||_2^4 when d > 1 and it is carried (else None), each with a bound on
    its rounding."""

    coords: np.ndarray
    coord_errors: np.ndarray
    norm4: float | None = None
    norm4_error: float | None = None


def _pascal(order: int) -> tuple[np.ndarray, np.ndarray]:
    """C(a, j), zero above the diagonal, and a - j, for a, j = 0 .. order."""
    idx = range(order + 1)
    return (np.array([[math.comb(a, j) for j in idx] for a in idx], dtype=float),
            np.subtract.outer(idx, idx))


def _law_moments(spec: dc.DistributionSpec, order: int) -> tuple[np.ndarray, float]:
    """E X^l and its magnitude for l = 0 .. order, stacked (2, order + 1), and the
    largest rounding bound among them, in ulps."""
    rows = [dc.raw_moment(spec, l) for l in range(order + 1)]
    table = np.array([[r.value for r in rows], [r.magnitude for r in rows]])
    return table, max(r.ulps for r in rows)


def _fixed_b(v: np.ndarray):
    """(E b, E[b b^t], E[b ||b||^2], E||b||^2, E||b||^4) of a fixed b = v, (2, sets, d)."""
    n2 = (v * v).sum(axis=-1)
    return v, v[..., :, None] * v[..., None, :], v * n2[..., None], n2, n2 * n2


def _independent_b(beta: np.ndarray):
    """The same for B of independent components, from beta[..., c, k] = E B_c^k, k <= 4,
    (2, d, 5); each with a set axis of one."""
    b1, b2 = beta[:, None, :, 1], beta[:, None, :, 2]
    others = 1.0 - np.eye(b1.shape[-1])  # c != e: the components factor
    bb = b1[..., :, None] * b1[..., None, :] * others + np.eye(b1.shape[-1]) * b2[..., None]
    n2 = b2.sum(axis=-1)
    b3 = beta[:, None, :, 3] + b1 * (b2[..., None, :] * others).sum(axis=-1)
    n4 = beta[:, None, :, 4].sum(axis=-1) + (b2[..., :, None] * b2[..., None, :] * others).sum(
        axis=-1).sum(axis=-1)
    return b1, bb, b3, n2, n4


def _norm_step(state, mu: np.ndarray, b):
    """One step T <- b + X T of state = (m, M, m3, q) (module docstring), each with the
    leading axes (layer, set), from b's moments as _fixed_b gives them and
    mu[:, l] = E X^l, l <= 4.  Sums run elementwise, not through BLAS."""
    m, mm, m3, q = state
    b1, bb, b3, n2, n4 = b
    mu1, mu2, mu3, mu4 = (mu[:, None, l] for l in range(1, 5))  # (layer, 1)
    tr = np.trace(mm, axis1=-2, axis2=-1)
    q_new = (n4 + 4.0 * mu2 * (bb * mm).sum(axis=-1).sum(axis=-1) + mu4 * q
             + 4.0 * mu1 * (b3 * m).sum(axis=-1) + 2.0 * mu2 * n2 * tr
             + 4.0 * mu3 * (b1 * m3).sum(axis=-1))
    m3_new = (b3 + 2.0 * mu1[..., None] * (bb * m[..., None, :]).sum(axis=-1)
              + (mu2 * tr)[..., None] * b1 + (mu1 * n2)[..., None] * m
              + 2.0 * mu2[..., None] * (mm * b1[..., None, :]).sum(axis=-1)
              + mu3[..., None] * m3)
    cross = b1[..., :, None] * m[..., None, :]
    mm_new = (bb + mu1[..., None, None] * (cross + np.swapaxes(cross, -1, -2))
              + mu2[..., None, None] * mm)
    return b1 + mu1[..., None] * m, mm_new, m3_new, q_new


def _backward(steps, mu, law: np.ndarray):
    """Yield, after each step T <- b + X T from T = 0, the coordinates' E T_c^a and
    E||T||_2^4 (None unless carried), each stacked with its magnitude.  steps gives each
    step's kernel k[..., c, a, j], for E T'_c^a = sum_j k[a, j] mu_j E T_c^j, and b's
    moments as _fixed_b gives them, or None; law[:, l] = E X^l, l <= 4, is _norm_step's."""
    mom = None
    with np.errstate(over="ignore", invalid="ignore"):
        for kernel, b in steps:
            if mom is None:  # T = 0
                mom = np.zeros(kernel.shape[:-1])
                mom[..., 0] = 1.0
                norm = None if b is None else [np.zeros(b[i].shape) for i in (0, 1, 0, 3)]
            mom = (kernel @ (mu * mom)[..., None])[..., 0]
            if norm is not None:
                norm = _norm_step(norm, law, b)
            yield mom, None if norm is None else norm[3]


def _point_steps(vecs: np.ndarray, order: int, norm4: bool):
    """_backward's steps v_n, ..., v_0 for a block of sets, vecs (sets, n + 1, d): the
    kernel C(a, j) v_c^(a-j) with its magnitude, and b's moments where norm4 is set."""
    binom, shift = _pascal(order)
    powers = np.ones(vecs[:, 0].shape + (order + 1,))
    for v in np.moveaxis(vecs, 1, 0)[::-1]:
        np.cumprod(np.repeat(v[..., None], order, axis=-1), axis=-1, out=powers[..., 1:])
        coef = np.where(shift >= 0, binom * powers[..., np.maximum(shift, 0)], 0.0)
        yield np.stack([coef, np.abs(coef)]), _fixed_b(np.stack([v, np.abs(v)])) if norm4 else None


def sandwich_moments(spec: dc.DistributionSpec, sets, order: int,
                     norm4: bool = True) -> list[Moments]:
    """The Moments of S = sum_i v_i R_i for each set, the sets sharing n and d, with
    E||S||^4 for d > 1 when norm4 is set.

    From T = 0 the steps v_n, ..., v_0 each do T <- v + X T; a coordinate's
    step is E (v_c + X T_c)^a = sum_j C(a,j) v_c^(a-j) E X^j E T_c^j, one
    batched matmul over every set and coordinate, and for d > 1 _norm_step
    carries E||T||_2^4.  The same recursions on |v|, the magnitudes of E X^l
    (dist_core.raw_moment) and of the moments bound the sum of the absolute
    values of every term, and each value lies within gamma(2N) of that bound,
    N being the longest chain of roundings: per step, the powers of v, the
    product with E X^j, a sum of order + 1 terms and the rounding of E X^l
    itself; for the norm, two sums of d terms, the sums of d terms that b's
    moments take, and a dozen products and sums.
    """
    law, law_ulps = _law_moments(spec, max(order, 4))
    vecs = np.stack([c.matrix() for c in sets])  # (sets, n + 1, d)
    count, steps, dim = vecs.shape
    block = max(1, _BLOCK // (dim * max(dim, (order + 1) ** 2)))
    coord_err = _gamma(2 * steps * (4 * order + 8 + law_ulps))
    norm_err = _gamma(2 * steps * (4 * dim + 24 + law_ulps))
    out = []
    for lo in range(0, count, block):
        for mom, q in _backward(_point_steps(vecs[lo:lo + block], order, dim > 1 and norm4),
                                law[:, None, None, :order + 1], law):
            pass
        out += [Moments(mom[0, s], coord_err * mom[1, s],
                        None if q is None else float(q[0, s]),
                        None if q is None else norm_err * float(q[1, s]))
                for s in range(mom.shape[1])]
    return out


def _u_moment(t: int, k: int) -> tuple[float, float]:
    """E[U^t L^k] = sum_i C(t, i) (-1)^i k! / (i + 1)^(k + 1) and the sum of its terms'
    magnitudes (substitute W = 1 - U: E[W^i (-log W)^k] = k! / (i + 1)^(k + 1))."""
    if k == 0:
        return 1.0 / (t + 1), 1.0 / (t + 1)
    terms = [(-1) ** i * math.comb(t, i) * math.factorial(k) / (i + 1) ** (k + 1)
             for i in range(t + 1)]
    return math.fsum(terms), math.fsum(map(abs, terms))


def _poly_powers(poly: dict, order: int) -> list[dict]:
    """poly^m for m = 0 .. order, each {(t, k): (coefficient, magnitude)}."""
    out = [{(0, 0): (1.0, 1.0)}]
    for _ in range(order):
        nxt: dict = {}
        for (t, k), (c, m) in out[-1].items():
            for (t2, k2), c2 in poly.items():
                v, w = nxt.get((t + t2, k + k2), (0.0, 0.0))
                nxt[(t + t2, k + k2)] = (v + c * c2, w + m * abs(c2))
        out.append(nxt)
    return out


def _comonotone_moments(pair: PairSpec, order: int) -> tuple[np.ndarray, float]:
    """E[B^j X^m] and its magnitude, (2, order + 1, order + 1), for j + m <= order, of a
    comonotone pair, and its rounding bound in ulps: a sum over
    PairSpec.comonotone_cells for finite laws, else closed forms in U and L."""
    k1 = order + 1
    out = np.zeros((2, k1, k1))
    if _pair_width(pair) is not None:
        x, b, widths = pair.comonotone_cells()
        pw = np.arange(k1)
        xp, bp = x[:, None] ** pw, b[:, None] ** pw
        out[0] = np.einsum("k,kj,km->jm", widths, bp, xp)
        out[1] = np.einsum("k,kj,km->jm", widths, np.abs(bp), np.abs(xp))
        return out, 8.0 + len(widths)
    x_pows = _poly_powers(dc.quantile_poly(pair.x_spec), order)
    b_pows = _poly_powers(dc.quantile_poly(pair.b_specs[0]), order)
    for j in range(k1):
        for m in range(k1 - j):
            for (t, k), (c, w) in b_pows[j].items():
                for (t2, k2), (c2, w2) in x_pows[m].items():
                    value, size = _u_moment(t + t2, k + k2)
                    out[0, j, m] += c * c2 * value
                    out[1, j, m] += w * w2 * size
    return out, 10.0 * order + 20.0


def perpetuity_moments(pair: PairSpec, n_list, order: int, norm4: bool = True) -> dict:
    """{n: Moments of S_n} for each row n, from one pass of max(n_list) steps, with
    E||S_n||^4 for d > 1 when norm4 is set.

    S_n has the law of n steps of T <- B + X T from T = 0, so a coordinate's
    step is E (B_c + X T_c)^a = sum_j C(a,j) E[B_c^(a-j) X^j] E T_c^j, one
    matmul by a kernel built once, and for d > 1 _norm_step carries
    E||T||_2^4.  The joint moments factor under the independent coupling;
    the comonotone one, scalar, takes them from _comonotone_moments.
    Rounding is bounded as in sandwich_moments.
    """
    k1, dim = order + 1, pair.dim
    x, x_ulps = _law_moments(pair.x_spec, max(order, 4))
    if pair.coupling == "comonotone-scalar":
        joint, joint_ulps = _comonotone_moments(pair, order)
        joint = joint[:, None]  # (2, d = 1, B power, X power)
        beta, b_ulps = None, 0.0
    else:
        laws = [_law_moments(s, max(order, 4)) for s in pair.b_specs]
        beta = np.stack([m for m, _ in laws], axis=1)  # (2, d, max(order, 4) + 1)
        b_ulps = max(u for _, u in laws)
        joint = beta[:, :, :k1, None] * x[:, None, None, :k1]
        joint_ulps = x_ulps + b_ulps + 1.0
    binom, shift = _pascal(order)
    kernel = joint[..., np.maximum(shift, 0), np.arange(k1)]  # [a, j] = E[B^(a-j) X^j]
    kernel = np.where(shift >= 0, binom * kernel, 0.0)
    b_stats = _independent_b(beta) if dim > 1 and norm4 else None
    coord_chain = k1 + 4 + joint_ulps
    norm_chain = 4 * dim + 24 + x_ulps + b_ulps
    wanted, out = set(n_list), {}
    # the kernel holds E X^j already, so the state's factor is one, exactly
    steps = itertools.repeat((kernel, b_stats), max(wanted))
    for step, (mom, q) in enumerate(_backward(steps, 1.0, x), 1):
        if step in wanted:
            out[step] = Moments(
                mom[0], _gamma(2 * step * coord_chain) * mom[1],
                None if q is None else float(q[0, 0]),
                None if q is None else _gamma(2 * step * norm_chain) * float(q[1, 0]))
    return out


def _ln(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _exp(x: float) -> float:
    return math.exp(x) if x < 709.0 else math.inf


def _log_convex(p: float, moments: dict, step: int):
    """(lower, upper, orders) of E|Y|^p from intervals (lo, hi) of E|Y|^k for
    k = 0, step, 2 step, ...

    t -> ln E|Y|^t is convex on [0, inf) (Lyapunov), with E|Y|^0 = P(Y != 0)
    <= 1.  So the chord over the orders a < p < b next to p bounds it from
    above, and the chords beside them, extended to p, bound it from below.
    Past the top order the upper end is inf, and the chord over the top two
    orders, extended to p, bounds it from below.
    """
    if p in moments:
        lo, hi = moments[p]
        return max(lo, 0.0), hi, (int(p),)
    lo_ln = {k: _ln(lo) for k, (lo, _) in moments.items()}
    hi_ln = {k: _ln(hi) for k, (_, hi) in moments.items()}
    hi_ln[0] = 0.0
    a = min(step * math.floor(p / step), max(moments))
    b = a + step
    upper, lowers = math.inf, [(-math.inf, ())]
    if b in moments:
        upper = _exp(((b - p) * hi_ln[a] + (p - a) * hi_ln[b]) / step)
    if a >= step and lo_ln[a] > -math.inf:  # the chord (a - step, a), extended forward
        lowers.append((lo_ln[a] + (p - a) / step * (lo_ln[a] - hi_ln[a - step]), (a - step, a)))
    if b + step in moments and lo_ln[b] > -math.inf:  # the chord (b, b + step), extended back
        lowers.append((lo_ln[b] - (b - p) / step * (hi_ln[b + step] - lo_ln[b]), (b, b + step)))
    lower, used = max(lowers)
    orders = set(used) | ({a, b} if upper < math.inf else set())
    return _exp(lower), upper, tuple(sorted(orders - {0}))


def _enclose(mom: Moments, p: float, norm: str, signs, divide: int = 1) -> MomentEnclosure:
    """E||S||^p / divide enclosed from one set's or row's Moments.

    Each coordinate takes the even orders, or every order when signs[c] says
    S_c keeps one sign (+1 or -1; 0 when it may change sign).  For d > 1 the
    l2 norm also takes E||S||^2 and E||S||^4, and the norms are tied to the
    coordinates by max_c |x_c| <= ||x||_inf <= ||x||_2 <= ||x||_1 <= sqrt(d) ||x||_2,
    ||x||_2^p <= d^max(p/2 - 1, 0) sum_c |x_c|^p, ||x||_1^p <= d^max(p - 1, 0)
    sum_c |x_c|^p and ||x||_inf^p <= sum_c |x_c|^p.
    """
    values, errors = mom.coords, mom.coord_errors
    dim, order = values.shape[0], values.shape[1] - 1
    extra = [] if mom.norm4 is None else [mom.norm4, mom.norm4_error]
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(errors))
            and all(map(math.isfinite, extra))):
        raise NonfiniteMomentError(f"the moments of order up to {order} overflow")
    coords = []
    for c, sign in enumerate(signs):
        step = 1 if sign else 2
        moms = {}
        for k in range(0, order + 1, step):
            value, err = (sign or 1) ** k * values[c, k], errors[c, k]
            moms[k] = (value - err, value + err)
        coords.append(_log_convex(p, moms, step))
    lower, upper, orders = coords[0]
    if dim > 1:
        total = float(values[:, 2].sum())
        err = float(errors[:, 2].sum()) + _gamma(dim) * float(np.abs(values[:, 2]).sum())
        sums = {2: (total - err, total + err)}
        if mom.norm4 is not None:
            sums[4] = (mom.norm4 - mom.norm4_error, mom.norm4 + mom.norm4_error)
        lo2, hi2, orders = _log_convex(p, {0: (1.0, 1.0), **sums}, 2)
        lo_c, hi_c = max(c[0] for c in coords), math.fsum(c[1] for c in coords)
        if norm == "l2":
            lower, upper = max(lo2, lo_c), min(hi2, dim ** max(p / 2.0 - 1.0, 0.0) * hi_c)
        elif norm == "l1":
            lower = max(lo2, lo_c)
            upper = min(dim ** (p / 2.0) * hi2, dim ** max(p - 1.0, 0.0) * hi_c)
        else:
            lower, upper = max(dim ** (-p / 2.0) * lo2, lo_c), min(hi2, hi_c)
        orders = tuple(sorted(set(orders).union(*(c[2] for c in coords))))
    lower, upper = lower / divide, upper / divide
    if not math.isfinite(upper):
        raise NonfiniteMomentError(f"the enclosure of E||S||^p at p = {p} is not finite")
    # the logs, powers and products above: a few roundings each, relative to the logs' size
    if lower > 0.0:
        lower *= 1.0 - 64.0 * _U * (1.0 + abs(math.log(lower)))
    if upper > 0.0:
        upper *= 1.0 + 64.0 * _U * (1.0 + abs(math.log(upper)))
    used = [k for k in orders if k <= order]
    sizes = np.abs(values[:, used])
    rel = errors[:, used] / np.where(sizes > 0.0, sizes, np.inf)
    return MomentEnclosure(lower=float(lower), upper=float(upper), orders=orders,
                           rounding=float(np.max(rel, initial=0.0)))


def _sign(spec: dc.DistributionSpec) -> int:
    """+1 when X >= 0, -1 when X <= 0 can be read off the parameters, else 0."""
    if dc.is_nonnegative(spec):
        return 1
    return -1 if dc.is_nonnegative(dc.scaled_copy(spec, -1.0)) else 0


def sandwich_enclosures(spec, sets, p: float) -> list[MomentEnclosure]:
    """Moment enclosures of E||sum v_i R_i||^p for sets sharing n and d, from one pass.

    A coordinate keeps one sign when X >= 0 and its coefficients do."""
    dc.check_order(p)
    if len({(c.n, c.dim) for c in sets}) > 1:
        raise ValueError("the moment engine takes sets that share n and d")
    nonneg = dc.is_nonnegative(spec)
    out = []
    for mom, coeffs in zip(sandwich_moments(spec, sets, moment_order(p), p != 2.0), sets):
        vmat = coeffs.matrix()
        signs = nonneg * (np.all(vmat >= 0.0, axis=0).astype(int) - np.all(vmat <= 0.0, axis=0))
        out.append(_enclose(mom, p, coeffs.norm, signs.tolist()))
    return out


def perpetuity_enclosures(pair: PairSpec, n_list, p: float) -> dict:
    """{n: enclosure of (1/n) E||S_n||^p} for the rows n_list, from one moment pass.

    X >= 0, so a coordinate keeps the sign of its B component when that has one."""
    moments = perpetuity_moments(pair, n_list, moment_order(p), p != 2.0)
    signs = [_sign(spec) for spec in pair.b_specs]
    return {n: _enclose(mom, p, pair.norm, signs, n) for n, mom in moments.items()}
