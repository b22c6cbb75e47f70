"""One oracle suite across the engines.

Exact moments by the backward Horner recursion in Fraction equal exact
enumeration in Fraction; the float moment backend stays within its stated
rounding bound of them; every moment enclosure contains the enumerated
E||S||^p; and the sampled path still writes the reports it wrote before the
moment engine existed.  Fraction is a test oracle only.
"""

import itertools
import json
import math
import re
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from momsand import dist_core as dc
from momsand import moments as mo
from momsand import montecarlo as mc
from momsand.assumptions import PairSpec
from momsand.cli import main
from momsand.errors import NonfiniteMomentError

FIXTURES = Path(__file__).resolve().parent / "fixtures"

SIGNED = dc.finitely_supported([(-0.5, 0.3), (1.0, 0.4), (2.0, 0.3)])
TWO_POINT = dc.two_point(0.5, 1.5, 0.3)
X_PAIR = dc.two_point(0.4, 1.3, 0.5)
B_PAIR = dc.finitely_supported([(1.0, 0.5), (2.0, 0.25), (-1.0, 0.25)])
SCALAR = mc.coefficient_set([1.0, -0.75, 0.5, 1.25, -0.25])
VECTOR = mc.coefficient_set([(1.0, 0.5), (-0.75, 0.25), (0.5, -1.0), (1.25, 0.0), (0.25, 2.0)])
POSITIVE = mc.coefficient_set([1.0, 0.75, 0.5, 1.25, 0.25])


def _fractions(values):
    return [Fraction(float(v)) for v in values]


def _atoms(spec):
    values, probs = dc.finite_support(spec)
    return list(zip(_fractions(values), _fractions(probs)))


def _law_moment(spec, l):
    """E X^l in Fraction for the finite, uniform and exponential laws."""
    if dc.finite_support(spec) is not None:
        return sum(pr * v**l for v, pr in _atoms(spec))
    if spec.family == dc.SCALED:
        return Fraction(spec.scale) ** l * _law_moment(spec.base, l)
    if spec.family == dc.UNIFORM:
        lo, hi = Fraction(spec.lo), Fraction(spec.hi)
        return (hi ** (l + 1) - lo ** (l + 1)) / ((l + 1) * (hi - lo))
    assert spec.family == dc.EXPONENTIAL
    return Fraction(math.factorial(l)) / Fraction(spec.rate) ** l


def _horner(dim, order, steps, start=None):
    """{(c, e): {(a, b): E[T_c^a T_e^b]}} after T <- b + x T over steps, from T = start
    (a vector; 0 when None).

    Each step is joint(c, e, a, b, m) = E[b_c^a b_e^b x^m]."""
    keys = [(a, b) for a in range(order + 1) for b in range(order + 1 - a)]
    start = [Fraction(0)] * dim if start is None else start
    moms = {(c, e): {(a, b): start[c] ** a * start[e] ** b for a, b in keys}
            for c in range(dim) for e in range(dim)}
    for joint in steps:
        moms = {
            (c, e): {
                (a, b): sum(math.comb(a, j) * math.comb(b, l) * joint(c, e, a - j, b - l, j + l)
                            * old[(j, l)] for j in range(a + 1) for l in range(b + 1))
                for a, b in keys
            }
            for (c, e), old in moms.items()
        }
    return moms


def horner_sandwich(spec, coeffs, order):
    moments = [_law_moment(spec, m) for m in range(order + 1)]
    steps = []
    for row in reversed(coeffs.vectors[:-1]):
        v = _fractions(row)
        steps.append(lambda c, e, a, b, m, v=v: v[c] ** a * v[e] ** b * moments[m])
    return _horner(coeffs.dim, order, steps, _fractions(coeffs.vectors[-1]))


def _joint_atoms(pair):
    """The exact (x, b, prob) atoms of one step of a finite pair."""
    if pair.coupling == "comonotone-scalar":
        x, b, widths = pair.comonotone_cells()
        return list(zip(_fractions(x), [(v,) for v in _fractions(b)], _fractions(widths)))
    out = []
    for combo in itertools.product(*(_atoms(s) for s in (pair.x_spec, *pair.b_specs))):
        prob = math.prod(pr for _, pr in combo)
        out.append((combo[0][0], tuple(v for v, _ in combo[1:]), prob))
    return out


def horner_perpetuity(pair, n, order):
    atoms = _joint_atoms(pair)

    def joint(c, e, a, b, m):
        return sum(pr * bv[c] ** a * bv[e] ** b * x**m for x, bv, pr in atoms)

    return _horner(pair.dim, order, [joint] * n)


def _norm_power(vec, k):
    """||vec||_2^k for an even k, exactly."""
    return sum(x * x for x in vec) ** (k // 2)


def enumerate_sandwich(spec, coeffs, k):
    vecs = [_fractions(row) for row in coeffs.vectors]
    total = Fraction(0)
    for combo in itertools.product(_atoms(spec), repeat=coeffs.n):
        r, prob, s = Fraction(1), Fraction(1), list(vecs[0])
        for (x, pr), v in zip(combo, vecs[1:]):
            r, prob = r * x, prob * pr
            s = [a + r * b for a, b in zip(s, v)]
        total += prob * _norm_power(s, k)
    return total


def enumerate_perpetuity(pair, n, k):
    total = Fraction(0)
    for combo in itertools.product(_joint_atoms(pair), repeat=n):
        r, prob, s = Fraction(1), Fraction(1), [Fraction(0)] * pair.dim
        for x, bv, pr in combo:
            s = [a + r * b for a, b in zip(s, bv)]
            r, prob = r * x, prob * pr
        total += prob * _norm_power(s, k)
    return total


def norm_moment(moms, dim, k):
    """E||S||_2^k for an even k from the pair moments (dim 1 or 2)."""
    if dim == 1:
        return moms[(0, 0)][(k, 0)]
    half = k // 2
    return sum(math.comb(half, i) * moms[(0, 1)][(2 * i, k - 2 * i)] for i in range(half + 1))


PAIRS = {
    "independent_scalar": PairSpec(X_PAIR, (B_PAIR,)),
    "independent_vector": PairSpec(X_PAIR, (B_PAIR, dc.two_point(0.5, 1.5, 0.5))),
    "comonotone": PairSpec(dc.finitely_supported([(0.5, 0.3), (1.0, 0.4), (2.0, 0.3)]),
                           (B_PAIR,), coupling="comonotone-scalar"),
}


@pytest.mark.parametrize("coeffs", [SCALAR, VECTOR], ids=["scalar", "l2_vector"])
@pytest.mark.parametrize("spec", [SIGNED, TWO_POINT], ids=["signed", "twopoint"])
def test_fraction_horner_equals_fraction_enumeration_for_the_sandwich(spec, coeffs):
    moms = horner_sandwich(spec, coeffs, 6)
    for k in (2, 4, 6):
        assert norm_moment(moms, coeffs.dim, k) == enumerate_sandwich(spec, coeffs, k)


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_fraction_horner_equals_fraction_enumeration_for_the_perpetuity(name):
    pair = PAIRS[name]
    moms = horner_perpetuity(pair, 3, 6)
    for k in (2, 4, 6):
        assert norm_moment(moms, pair.dim, k) == enumerate_perpetuity(pair, 3, k)


def _within_bound(mom, exact):
    """mom's E S_c^k and E||S||_2^4 lie within their bounds of the pair moments exact."""
    dim, k1 = mom.coords.shape
    rows = [(float(mom.coords[c, k]), float(mom.coord_errors[c, k]), exact[(c, c)][(k, 0)])
            for c in range(dim) for k in range(k1)]
    if dim == 1:
        assert mom.norm4 is None
    else:
        want = sum(exact[pair][(2, 2)] for pair in itertools.product(range(dim), repeat=2))
        rows.append((mom.norm4, mom.norm4_error, want))
    # the bound is a rounding bound, not a blanket tolerance
    scale = max(abs(float(want)) for _, _, want in rows)
    for got, bound, want in rows:
        assert abs(Fraction(got) - want) <= Fraction(bound), (got, bound, want)
        assert bound <= 1e-10 * scale


SANDWICH_LAWS = [SIGNED, TWO_POINT, dc.uniform(-0.5, 2.0), dc.exponential(1.5),
                 dc.scaled_copy(dc.uniform(0.0, 1.0), 1.7)]


@pytest.mark.parametrize("spec", SANDWICH_LAWS, ids=lambda s: dc.spec_to_text(s))
def test_float_sandwich_moments_stay_within_their_bound(spec):
    for coeffs in (SCALAR, VECTOR):
        (mom,) = mo.sandwich_moments(spec, [coeffs], 6)
        _within_bound(mom, horner_sandwich(spec, coeffs, 6))


@pytest.mark.parametrize("block", [mo._BLOCK, 1])
def test_float_sandwich_moments_batch_the_sets(monkeypatch, block):
    # one block of three sets, or a block per set
    monkeypatch.setattr(mo, "_BLOCK", block)
    sets = [VECTOR, mc.coefficient_set([(0.5, -1.0)] * 5), mc.coefficient_set([(2.0, 1.0)] * 5)]
    batch = mo.sandwich_moments(SIGNED, sets, 4)
    assert len(batch) == 3
    for mom, coeffs in zip(batch, sets):
        (one,) = mo.sandwich_moments(SIGNED, [coeffs], 4)
        assert abs(mom.coords - one.coords).max() <= mom.coord_errors.max()
        assert abs(mom.norm4 - one.norm4) <= mom.norm4_error
        _within_bound(mom, horner_sandwich(SIGNED, coeffs, 4))


CONTINUOUS_PAIRS = {
    "comonotone_uniform_exponential": PairSpec(
        dc.uniform(0.0, 2.0), (dc.exponential(1.0),), coupling="comonotone-scalar"),
    "comonotone_scaled_uniforms": PairSpec(
        dc.scaled_copy(dc.uniform(0.5, 1.0), 1.5), (dc.uniform(-1.0, 3.0),),
        coupling="comonotone-scalar"),
    "independent_continuous": PairSpec(dc.uniform(0.0, 2.0),
                                       (dc.exponential(1.0), dc.uniform(-1.0, 1.0))),
}


def _u_moment(t, k):
    return sum((-1) ** i * math.comb(t, i) * Fraction(math.factorial(k), (i + 1) ** (k + 1))
               for i in range(t + 1))


def _u_poly(spec):
    if spec.family == dc.SCALED:
        return {key: Fraction(spec.scale) * c for key, c in _u_poly(spec.base).items()}
    if spec.family == dc.UNIFORM:
        return {(0, 0): Fraction(spec.lo), (1, 0): Fraction(spec.hi) - Fraction(spec.lo)}
    return {(0, 1): 1 / Fraction(spec.rate)}


def _poly_pow(poly, m):
    out = {(0, 0): Fraction(1)}
    for _ in range(m):
        nxt = {}
        for (t, k), c in out.items():
            for (t2, k2), c2 in poly.items():
                nxt[(t + t2, k + k2)] = nxt.get((t + t2, k + k2), 0) + c * c2
        out = nxt
    return out


def horner_continuous_pair(pair, n, order):
    if pair.coupling == "independent":
        laws = [[_law_moment(s, m) for m in range(order + 1)] for s in pair.b_specs]
        xs = [_law_moment(pair.x_spec, m) for m in range(order + 1)]

        def joint(c, e, a, b, m):
            bpart = laws[c][a + b] if c == e else laws[c][a] * laws[e][b]
            return bpart * xs[m]
    else:
        px, pb = _u_poly(pair.x_spec), _u_poly(pair.b_specs[0])

        def joint(c, e, a, b, m):
            prod = {}
            for (t, k), cb in _poly_pow(pb, a + b).items():
                for (t2, k2), cx in _poly_pow(px, m).items():
                    prod[(t + t2, k + k2)] = prod.get((t + t2, k + k2), 0) + cb * cx
            return sum(c * _u_moment(t, k) for (t, k), c in prod.items())

    return _horner(pair.dim, order, [joint] * n)


@pytest.mark.parametrize("name", sorted(PAIRS) + sorted(CONTINUOUS_PAIRS))
def test_float_perpetuity_moments_stay_within_their_bound(name):
    pair = PAIRS.get(name) or CONTINUOUS_PAIRS[name]
    rows = mo.perpetuity_moments(pair, [1, 3], 6)
    for n in (1, 3):
        exact = (horner_perpetuity(pair, n, 6) if name in PAIRS
                 else horner_continuous_pair(pair, n, 6))
        _within_bound(rows[n], exact)


P_GRID = (0.5, 0.9, 1.5, 2.5, 3.5, 5.5)


def _contains(enc, value):
    slack = 1e-12 * abs(value)  # the enumerated mean's own rounding
    return enc.lower - slack <= value <= enc.upper + slack


@pytest.mark.parametrize("norm", ["l2", "l1", "sup"])
def test_sandwich_enclosures_contain_the_enumerated_value(norm):
    cases = [(spec, mc.coefficient_set(coeffs.vectors, norm))
             for spec in (SIGNED, TWO_POINT) for coeffs in (SCALAR, VECTOR, POSITIVE)]
    for p in P_GRID:
        for spec, coeffs in cases:
            enc = mo.sandwich_enclosures(spec, [coeffs], p)[0]
            want = mc.brute_force_lhs(spec, coeffs, p).mean
            assert _contains(enc, want), (p, dc.spec_to_text(spec), coeffs, enc, want)
            assert 0.0 < enc.lower and enc.orders


@pytest.mark.parametrize("norm", ["l2", "l1", "sup"])
def test_perpetuity_enclosures_contain_the_enumerated_value(norm):
    pairs = [PairSpec(pair.x_spec, pair.b_specs, pair.coupling, norm) for pair in PAIRS.values()]
    for p in P_GRID:
        for pair in pairs:
            encs = mo.perpetuity_enclosures(pair, [1, 2, 4], p)
            for n, enc in encs.items():
                want = mc.brute_force_perpetuity(pair, n, p).mean / n
                assert _contains(enc, want), (p, pair, n, enc, want)


@pytest.mark.parametrize("norm", ["l2", "l1", "sup"])
def test_vector_enclosures_past_the_norms_fourth_moment_contain_the_enumerated_value(norm):
    # for d > 1, E||S||_2^k stops at k = 4; p = 7.5 and 9 lie past it
    coeffs = mc.coefficient_set(VECTOR.vectors, norm)
    pair = PairSpec(X_PAIR, PAIRS["independent_vector"].b_specs, norm=norm)
    for p in (7.5, 9.0):
        enc = mo.sandwich_enclosures(SIGNED, [coeffs], p)[0]
        assert _contains(enc, mc.brute_force_lhs(SIGNED, coeffs, p).mean), (p, enc)
        enc = mo.perpetuity_enclosures(pair, [3], p)[3]
        assert _contains(enc, mc.brute_force_perpetuity(pair, 3, p).mean / 3), (p, enc)


def test_nonnegative_sums_use_the_integer_orders_next_to_p():
    enc = mo.sandwich_enclosures(TWO_POINT, [POSITIVE], 2.5)[0]
    assert enc.orders in ((1, 2, 3), (2, 3, 4))
    signed = mo.sandwich_enclosures(TWO_POINT, [SCALAR], 2.5)[0]
    assert signed.orders == (2, 4)
    exact = mo.sandwich_enclosures(TWO_POINT, [POSITIVE], 3.0)[0]
    assert exact.orders == (3,)
    want = mc.brute_force_lhs(TWO_POINT, POSITIVE, 3.0).mean
    assert exact.lower <= want <= exact.upper
    assert exact.upper - exact.lower <= 1e-12 * want


def _without_added_keys(text):
    """The report less its wall time and the engine and reason members added since."""
    text = re.sub(r',\n  "wall_time_s": [^,\n]*', "", text)
    return re.sub(r'\n *"(engine|reason)": [^\n]*,(?=\n)', "", text)


def test_wide_sets_keep_the_moment_state_small():
    # 20 sets in d = 200 at p = 2.5, and a d = 64 perpetuity at order 16: each holds
    # d x d second moments and d (order + 1) coordinate moments, never d^2 order^2
    rng = np.random.default_rng(3)
    sets = [mc.coefficient_set(rng.standard_normal((21, 200))) for _ in range(20)]
    pair = PairSpec(dc.uniform(0.0, 2.0), tuple(dc.uniform(-1.0, 1.0) for _ in range(64)))
    tracemalloc.start()
    try:
        encs = mo.sandwich_enclosures(dc.uniform(0.0, 2.0), sets, 2.5)
        rows = mo.perpetuity_enclosures(pair, [3], 15.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert all(0.0 < enc.lower <= enc.upper < math.inf for enc in [*encs, rows[3]])


def test_past_the_top_dimension_the_sandwich_is_sampled():
    coeffs = mc.coefficient_set([[1.0] * (mc.MAX_MOMENT_DIM + 1)] * 3)
    rep = mc.run_sandwich(dc.uniform(0.0, 2.0), 2.5, coeffs, (0.0, 1e9, True), mc.MIN_REPS,
                          dc.RandomSource(1))
    assert rep.engine == "montecarlo"
    assert rep.reason.endswith(f"d = {mc.MAX_MOMENT_DIM + 1} > {mc.MAX_MOMENT_DIM} for the "
                               "moment engine's d x d second moments")


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name, argv", [
    ("verify_montecarlo", ["verify", "--dist", "uniform:lo=0,hi=2", "--p", "2.5", "--n", "3",
                           "--coeffs", "random:count=2,seed=5", "--reps", "2000", "--seed", "3"]),
    ("perpetuity_montecarlo", ["perpetuity", "--dist", "uniform:lo=0,hi=2",
                               "--b-dist", "exponential:rate=1", "--b-dist", "uniform:lo=0,hi=1",
                               "--p", "1.5", "--n-list", "1,3", "--reps", "2000",
                               "--seed", "4"]),
    # a dyadic law past the cap, a finite law that is not dyadic, and a perpetuity
    # whose X and first B are dyadic, each over several blocks of paths
    ("verify_dyadic_montecarlo", ["verify", "--dist", "twopoint:a=0.5,b=1.5,pa=0.5",
                                  "--p", "2.5", "--n", "24", "--coeffs", "random:count=2,seed=5",
                                  "--reps", "20000", "--seed", "3"]),
    ("verify_finite_montecarlo", ["verify", "--dist", "finite:atoms=0.5@0.3|1@0.4|2@0.3",
                                  "--p", "2.5", "--n", "15", "--coeffs", "random:count=2,seed=5",
                                  "--reps", "20000", "--seed", "3"]),
    ("perpetuity_dyadic_montecarlo", ["perpetuity", "--dist", "twopoint:a=0.5,b=1.5,pa=0.5",
                                      "--b-dist", "twopoint:a=0.4,b=1.3,pa=0.25",
                                      "--b-dist", "uniform:lo=0,hi=1", "--p", "1.5",
                                      "--n-list", "1,4,9", "--reps", "20000", "--seed", "4"]),
])
def test_the_sampled_path_reproduces_its_reports(capsys, monkeypatch, sampled, name, argv,
                                                 threads):
    # the first two fixtures are the reports of their argvs before the moment engine
    # existed, verify_finite_montecarlo before the sampler lost its one-byte dyadic
    # draws, its raw perpetuity rows and its quantile comparison ladder, and the two
    # dyadic ones since every law draws one uniform per value
    monkeypatch.setenv("MOMSAND_THREADS", threads)
    assert main(argv) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    rows = report["results"].get("reports") or report["results"]["rows"]
    assert {(row.get("report") or row)["engine"] for row in rows} == {"montecarlo"}
    want = (FIXTURES / f"{name}.json").read_text().rstrip("\n")
    assert _without_added_keys(out.rstrip("\n")) == want


@pytest.mark.parametrize("seed", [1, 7])
def test_the_sampled_bench_ops_are_decided_by_moments(capsys, seed):
    # the mc_paths batch's verify and perpetuity ops, past the cap or on continuous laws
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    try:
        from workloads import build
    finally:
        sys.path.pop(0)
    ops = [op for op in build("mc_paths", seed)
           if op["argv"][0] in ("verify", "perpetuity") and not op["id"].startswith("probe")]
    assert len(ops) == 5
    for op in ops:
        assert main(op["argv"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        rows = results.get("rows") or [row["report"] for row in results["reports"]]
        assert {(row["engine"], row["verdict"]) for row in rows} == {("moments", "PASS")}, op["id"]


@pytest.mark.parametrize("norm", ["l2", "l1", "sup"])
def test_p2_vector_sums_carry_no_fourth_norm_moment(monkeypatch, norm):
    # at p = 2 the enclosure takes the norm from orders 0 and 2, so E||T||^4 is never
    # stepped, and the enclosure is the one built with it
    pair = PairSpec(dc.uniform(0.0, 2.0), (dc.uniform(0.0, 1.0), dc.exponential(1.0)),
                    norm=norm)
    coeffs = mc.coefficient_set(VECTOR.vectors, norm)
    n_list, order = [1, 2, 4, 8, 16, 32, 64], mc.moment_order(2.0)
    carried = mo.perpetuity_moments(pair, n_list, order, norm4=True)
    want_rows = {n: mo._enclose(mom, 2.0, norm, [1, 1], n) for n, mom in carried.items()}
    (with_norm4,) = mo.sandwich_moments(SIGNED, [coeffs], order, norm4=True)
    want_set = mo._enclose(with_norm4, 2.0, norm, [0, 0])
    steps = []
    real = mo._norm_step
    monkeypatch.setattr(mo, "_norm_step", lambda *args: steps.append(1) or real(*args))
    assert mo.perpetuity_enclosures(pair, n_list, 2.0) == want_rows
    assert mo.sandwich_enclosures(SIGNED, [coeffs], 2.0) == [want_set]
    assert steps == []
    assert all(mom.norm4 is None for mom in mo.perpetuity_moments(pair, [3], order, False).values())
    mo.perpetuity_enclosures(pair, [3], 2.5)  # the spy sees the steps where p != 2
    assert len(steps) == 3


def test_p2_enclosure_survives_an_overflowing_fourth_norm_moment():
    # B = (b, b) with b near 4e76: E S_c^4 is near 7.5e307 and E||S||^4, about four
    # times that, overflows; E||S||^2 is near 1.6e154
    b = dc.finitely_supported([(4e76, 0.5), (4.04e76, 0.5)])
    pair = PairSpec(TWO_POINT, (b, b))
    carried = mo.perpetuity_moments(pair, [2], mc.moment_order(2.0))[2]
    assert carried.norm4 == math.inf and np.all(np.isfinite(carried.coords))
    with pytest.raises(NonfiniteMomentError):  # the enclosure that read it
        mo._enclose(carried, 2.0, "l2", [1, 1], 2)
    enc = mo.perpetuity_enclosures(pair, [2], 2.0)[2]
    assert enc.orders == (2,) and 0.0 < enc.lower <= enc.upper < math.inf
    assert _contains(enc, mc.brute_force_perpetuity(pair, 2, 2.0).mean / 2)
