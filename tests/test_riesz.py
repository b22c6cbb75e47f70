"""Riesz products on the torus: quadrature anchors, moment identities."""

import dataclasses
import json
import math
import tracemalloc
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from momsand import dist_core as dc
from momsand import montecarlo as mc
from momsand import riesz as rz
from momsand.errors import NotIncreasingError, NotLacunaryError, TooFewPointsError
from momsand.riesz import (
    LacunarySequence,
    RieszCombination,
    check_lacunary,
    corollary_check,
    corollary_ratio_scan,
    riesz_lp_norm,
    riesz_lp_norms,
)

SEQ = LacunarySequence((4, 16, 64, 256, 1024))


def riesz_eval(seq: LacunarySequence, i: int, t):
    """Rbar_i(t) = prod_{j <= i} (1 + cos(n_j t)); Rbar_0 = 1: the plain product that
    the grid passes are checked against."""
    arr = np.asarray(t, dtype=float)
    out = np.ones_like(arr)
    for j in range(i):
        out = out * (1.0 + np.cos(seq.terms[j] * arr))
    if np.ndim(t) == 0:
        return float(out)
    return out


def src(seed=0):
    return dc.RandomSource(seed=seed, stream_id=13)


def comb(coefficients, seq=SEQ):
    return RieszCombination(seq, tuple(coefficients))


def test_check_lacunary_anchors():
    out = check_lacunary((4, 16, 64, 256))
    assert out["lacunary"]
    assert out["min_ratio"] == pytest.approx(4.0)
    assert not check_lacunary((2, 4, 8))["lacunary"]
    mixed = check_lacunary((3, 10, 31))
    assert mixed["ratios"] == [pytest.approx(10.0 / 3.0), pytest.approx(3.1)]
    assert mixed["lacunary"]


def test_sequence_validation():
    with pytest.raises(NotIncreasingError):
        LacunarySequence((4, 4, 16))
    with pytest.raises(NotIncreasingError):
        LacunarySequence((16, 4))
    with pytest.raises(ValueError):
        LacunarySequence((0, 4))
    with pytest.raises(ValueError):
        LacunarySequence((4, 2**21))


def test_riesz_eval_anchors():
    assert riesz_eval(SEQ, 0, 0.3) == 1.0
    assert riesz_eval(SEQ, 1, 0.0) == pytest.approx(2.0)
    two = LacunarySequence((4, 16))
    # cos(4 pi/4) = cos(pi) = -1 kills the first factor
    assert riesz_eval(two, 2, math.pi / 4.0) == pytest.approx(0.0, abs=1e-12)


def test_riesz_eval_nonnegative_grid():
    t = np.linspace(0.0, 2.0 * math.pi, 4097)
    for i in range(len(SEQ.terms) + 1):
        values = riesz_eval(SEQ, i, t)
        assert np.all(values >= -1e-12)


def test_mean_one_each_term():
    for i in range(6):
        unit = comb((0.0,) * i + (1.0,))
        out = riesz_lp_norm(unit, 1.0)
        assert out.value == pytest.approx(1.0, abs=1e-8)


def test_second_moment_growth():
    for i in range(6):
        unit = comb((0.0,) * i + (1.0,))
        out = riesz_lp_norm(unit, 2.0)
        assert out.value == pytest.approx(1.5**i, rel=1e-6)


def test_second_moment_exact_small_case():
    seq = LacunarySequence((4, 16))
    out = riesz_lp_norm(RieszCombination(seq, (0.0, 0.0, 1.0)), 2.0)
    assert out.value == pytest.approx(2.25, abs=1e-10)
    assert out.error_estimate <= 1e-10


def test_constant_combination():
    only_a0 = comb((2.5,))
    for p in (1.0, 2.0, 3.5):
        out = riesz_lp_norm(only_a0, p)
        assert out.value == pytest.approx(2.5**p, rel=1e-10)


def test_homogeneity():
    base = comb((1.0, -0.5, 0.25))
    scaled = comb((3.0, -1.5, 0.75))
    for p in (1.0, 2.0, 3.0):
        a = riesz_lp_norm(base, p).value
        b = riesz_lp_norm(scaled, p).value
        assert b == pytest.approx(3.0**p * a, rel=1e-9)


def test_quadrature_doubling_converges():
    target = comb((1.0, 0.5, -0.25, 0.125))
    coarse = riesz_lp_norm(target, 2.5, quad_points=2**14)
    fine = riesz_lp_norm(target, 2.5, quad_points=2**15)
    assert abs(fine.value - coarse.value) <= 1e-9 * max(abs(fine.value), 1.0)
    assert fine.points > coarse.points


def test_too_few_points():
    with pytest.raises(TooFewPointsError):
        riesz_lp_norm(comb((1.0, 1.0)), 2.0, quad_points=8)


def test_bilinear_second_moment_formula():
    # E (sum a_i Rbar_i)^2 = sum_{i,j} a_i a_j 1.5^{min(i,j)}
    coeffs = (1.0, -0.5, 0.25, 0.75)
    expected = sum(
        ai * aj * 1.5 ** min(i, j)
        for i, ai in enumerate(coeffs)
        for j, aj in enumerate(coeffs)
    )
    out = riesz_lp_norm(comb(coeffs), 2.0)
    assert out.value == pytest.approx(expected, rel=1e-9)


def test_corollary_single_term_p2():
    report = corollary_check(comb((0.0, 0.0, 1.0)), 2.0, reps=2000, src=src())
    assert report["torus"].value == pytest.approx(2.25, rel=1e-8)
    assert report["probabilistic"].mean == pytest.approx(2.25, rel=1e-12)
    assert report["ratio"] == pytest.approx(1.0, rel=1e-8)
    assert report["per_term"][2]["probabilistic"] == pytest.approx(2.25)


def test_corollary_nonnegative_p1():
    report = corollary_check(comb((0.5, 1.0, 0.25)), 1.0, reps=2000, src=src())
    assert report["probabilistic"].mean == pytest.approx(1.75, abs=1e-12)
    assert report["torus"].value == pytest.approx(1.75, rel=1e-7)
    assert report["ratio"] == pytest.approx(1.0, rel=1e-6)


def test_corollary_p3_ratio_bounded():
    report = corollary_check(comb((1.0, 0.5, 0.25)), 3.0, reps=200_000, src=src(4))
    assert math.isfinite(report["ratio"])
    assert 0.1 < report["ratio"] < 10.0


def test_corollary_rejects_dense_sequence():
    seq = LacunarySequence((2, 4, 8))
    with pytest.raises(NotLacunaryError):
        corollary_check(RieszCombination(seq, (1.0, 1.0)), 2.0, reps=2000, src=src())


def test_p2_matches_product_moment_estimate():
    from momsand.montecarlo import coefficient_set, estimate_lhs

    coeffs = (1.0, -0.5, 0.25)
    exact = riesz_lp_norm(comb(coeffs), 2.0).value
    est = estimate_lhs(
        dc.riesz_factor(), coefficient_set(list(coeffs)), 2.0, reps=200_000, src=src(8)
    )
    assert abs(est.mean - exact) <= 4.0 * est.std_error


def test_ratio_scan_deterministic():
    out1 = corollary_ratio_scan(SEQ, 2.0, draws=3, reps=4000, src=src(21))
    out2 = corollary_ratio_scan(SEQ, 2.0, draws=3, reps=4000, src=src(21))
    assert out1["ratios"] == out2["ratios"]
    assert len(out1["reports"]) == 3
    assert out1["min_ratio"] == min(out1["ratios"])
    assert out1["max_ratio"] == max(out1["ratios"])


def test_ratio_scan_band_p2():
    out = corollary_ratio_scan(SEQ, 2.0, draws=5, reps=4000, src=src(22))
    # p = 2 both sides share the exact bilinear form: ratios pin to 1
    for r in out["ratios"]:
        assert r == pytest.approx(1.0, rel=1e-6)


def _unfolded(comb_, p, n_pts):
    """Plain N-point grid mean and its distance to the N/2 subgrid mean."""
    t = np.arange(n_pts) * (2.0 * math.pi / n_pts)
    combo = sum(a * riesz_eval(comb_.seq, i, t) for i, a in enumerate(comb_.coefficients))
    f = np.abs(combo) ** p
    value = math.fsum(f) / n_pts
    return value, abs(value - math.fsum(f[0::2]) / (n_pts // 2))


GCD_ONE = LacunarySequence((3, 10, 31, 100))


@pytest.mark.parametrize(
    "seq, quad_points",
    [
        (GCD_ONE, None),  # g = 1, M = N even
        (GCD_ONE, 64 * 100 + 2),  # g = 1, M/2 odd
        (SEQ, None),  # g = 4 divides N
        (SEQ, 64 * 256 + 2),  # g does not divide N: gcd 2, M odd
        (SEQ, 64 * 256 + 8),  # gcd 4, M/2 odd
    ],
)
@pytest.mark.parametrize("p", [1.0, 2.0, 2.5, 3.0, 4.7])
def test_fold_matches_unfolded_grid(seq, quad_points, p):
    target = comb((1.0, -0.8, 0.6, -0.9, 0.7), seq)
    out = riesz_lp_norm(target, p, quad_points)
    value, error = _unfolded(target, p, out.points)
    assert out.value == pytest.approx(value, rel=1e-12, abs=0.0)
    assert abs(out.error_estimate - error) <= 1e-11 * max(abs(value), 1.0)


@pytest.mark.parametrize("seq, g", [(SEQ, 4), (GCD_ONE, 1)])
def test_fold_evaluates_a_fraction_of_the_grid(monkeypatch, seq, g):
    evaluated = []
    real = rz._combination_values

    def counting(*args):
        values = real(*args)
        lo, hi = args[-2:]
        assert [len(vals) for vals in values] == [hi - lo]  # one row's values per grid point
        evaluated.append(hi - lo)
        return values

    monkeypatch.setattr(rz, "_combination_values", counting)
    out = riesz_lp_norm(comb((1.0, -0.5, 0.25, 0.75, -0.6), seq), 3.0)
    assert sum(evaluated) <= out.points // (2 * g) + 2


def test_ratio_scan_matches_per_draw_checks(monkeypatch):
    seq = LacunarySequence((4, 16, 64, 256))
    base = src(23)
    calls = []
    real = rz._grid_pass

    def counting(terms, rows, p, n_pts):
        calls.append([len(row) for row in rows])
        return real(terms, rows, p, n_pts)

    monkeypatch.setattr(rz, "_grid_pass", counting)
    scan = corollary_ratio_scan(seq, 2.5, draws=3, reps=2000, src=base)
    monkeypatch.setattr(rz, "_grid_pass", real)
    # the three draws share one pass with Rbar_m, and Rbar_0 .. Rbar_{m-1} take one
    # pass each for the whole scan
    assert sorted(calls) == sorted([[seq.m + 1] * 4] + [[i + 1] for i in range(seq.m)])
    for d, report in enumerate(scan["reports"]):
        gen = base.child(1000 + d).generator()
        coeffs = tuple(float(c) for c in gen.standard_normal(seq.m + 1))
        alone = corollary_check(comb(coeffs, seq), 2.5, 2000, base.child(2000 + d))
        assert json.dumps(report, sort_keys=True, default=dataclasses.asdict) == json.dumps(
            alone, sort_keys=True, default=dataclasses.asdict
        )


# ratio-4 sequences: the folded grid of 4^1 .. 4^6 is 32,769 points, of 4^1 .. 4^8 524,289
POWERS_OF_4 = {m: LacunarySequence(tuple(4**k for k in range(1, m + 1))) for m in (6, 8)}
POWERS_OF_4_TO_9 = LacunarySequence(tuple(4**k for k in range(1, 10)))


@pytest.mark.parametrize("m", sorted(POWERS_OF_4))
@pytest.mark.parametrize("p", [1.0, 2.5, 3.0, 4.5])
def test_block_size_moves_values_by_a_few_ulps(monkeypatch, m, p):
    seq = POWERS_OF_4[m]
    rng = np.random.default_rng(m)
    combs = [comb(rng.standard_normal(m + 1), seq) for _ in range(2)]
    combs += [comb((0.0,) * i + (1.0,), seq) for i in range(m + 1)]
    blocked = [riesz_lp_norm(c, p) for c in combs]
    if p == 3.0:  # E(1 + cos U)^3 = 5/2, exact on the torus for ratio-4 sequences
        pure = blocked[2:]
        if m == 8:  # and Rbar_9 on 4^1 .. 4^9, the bench's riesz_term9
            pure.append(riesz_lp_norm(comb((0.0,) * 9 + (1.0,), POWERS_OF_4_TO_9), p))
        for i, out in enumerate(pure):
            assert out.value == pytest.approx(2.5**i, rel=1e-15, abs=0.0)
    monkeypatch.setattr(rz, "_BLOCK", 2**30)  # every grid in a single block
    single = [riesz_lp_norm(c, p) for c in combs]
    for ours, one in zip(blocked, single):
        assert abs(ours.value - one.value) <= 2e-15 * one.value
        assert abs(ours.error_estimate - one.error_estimate) <= 2e-15 * one.value


@pytest.mark.parametrize("m", sorted(POWERS_OF_4))
def test_p2_norm_is_the_exact_bilinear_form(m):
    # E (sum a_i Rbar_i)^2 = sum_{i,j} a_i a_j (3/2)^{min(i,j)}, summed in rationals
    rng = np.random.default_rng(100 + m)
    for _ in range(3):
        coeffs = rng.standard_normal(m + 1)
        exact = sum(
            Fraction(ai) * Fraction(aj) * Fraction(3, 2) ** min(i, j)
            for i, ai in enumerate(coeffs)
            for j, aj in enumerate(coeffs)
        )
        out = riesz_lp_norm(comb(coeffs, POWERS_OF_4[m]), 2.0)
        assert out.value == pytest.approx(float(exact), rel=1e-15, abs=0.0)


# riesz_lp_norm's values as float.hex, recorded before the shared pass and the periodic
# factor rows existed: two seeded Gaussian rows and every unit row on 4^1 .. 4^8 (p 2.5
# and 3), 3^1 .. 3^8 (p 2.5, row periods that do not divide a block's 32 rows), GCD_ONE
# (p 3.5) and SEQ at 3 * 2^16 points (one block of 24 rows, row periods 3) and at
# 64 * 1024 + 2 (odd fold period), and Rbar_9 on 4^1 .. 4^9 at p 3
GRID_VALUES = json.loads(
    (Path(__file__).resolve().parent / "fixtures" / "torus_grid_values.json").read_text()
)


def _grid_groups():
    """{(sequence, p, quad_points, length): [(coefficients, expected QuadResult fields)]}"""
    groups = defaultdict(list)
    for case in GRID_VALUES:
        coeffs = tuple(float.fromhex(c) for c in case["coefficients"])
        key = (tuple(case["sequence"]), case["p"], case["quad_points"], len(coeffs))
        want = (float.fromhex(case["value"]), float.fromhex(case["error_estimate"]), case["points"])
        groups[key].append((coeffs, want))
    return groups


def _fields(out):
    return (out.value, out.error_estimate, out.points)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_grid_values_match_the_recorded_bits(monkeypatch, threads):
    monkeypatch.setenv("MOMSAND_THREADS", threads)
    groups = _grid_groups()
    assert sum(map(len, groups.values())) == len(GRID_VALUES) == 57
    for (terms, p, quad_points, _), cases in groups.items():
        seq = LacunarySequence(terms)
        for coeffs, want in cases:
            assert _fields(riesz_lp_norm(comb(coeffs, seq), p, quad_points)) == want
        shared = riesz_lp_norms(seq, [coeffs for coeffs, _ in cases], p, quad_points)
        assert [_fields(out) for out in shared] == [want for _, want in cases]
        # a unit row twice, and before a combination: each array takes abs and pow once
        unit, unit_want = cases[-1]
        assert unit == (0.0,) * (len(unit) - 1) + (1.0,)
        rows = [unit, unit, *(coeffs for coeffs, _ in cases[:-1])]
        wants = [unit_want, unit_want, *(want for _, want in cases[:-1])]
        assert [_fields(out) for out in riesz_lp_norms(seq, rows, p, quad_points)] == wants


def test_shared_pass_rejects_an_empty_row_list():
    with pytest.raises(ValueError):
        riesz_lp_norms(SEQ, [], 3.0)


def test_one_call_plans_rows_of_any_length(monkeypatch):
    # 10 rows of length 9 and 3 shorter ones: each reads its lone bits, and the 10
    # take passes of at most _PASS_ROWS rows
    seq = POWERS_OF_4[8]
    rng = np.random.default_rng(9)
    rows = [tuple(rng.standard_normal(9)) for _ in range(10)]
    rows[4:4] = [tuple(rng.standard_normal(length)) for length in (3, 6, 8)]
    alone = [riesz_lp_norm(comb(row, seq), 3.0) for row in rows]
    sizes = []
    real = rz._grid_pass

    def counting(terms, rows_, p, n_pts):
        sizes.append(len(rows_))
        return real(terms, rows_, p, n_pts)

    monkeypatch.setattr(rz, "_grid_pass", counting)
    assert riesz_lp_norms(seq, rows, 3.0) == alone
    assert sorted(sizes) == [1, 1, 1, 2, rz._PASS_ROWS]


def test_ratio_scan_caps_the_rows_a_pass(monkeypatch):
    # 16 draws and Rbar_8 make 17 rows on the 524,289 folded points of 4^1 .. 4^8; in
    # passes of at most _PASS_ROWS = 8 rows a worker holds 8 accumulators, prod and two
    # scratch arrays, 256 KB each, at a time: 3.4 MB in all here
    monkeypatch.setenv("MOMSAND_THREADS", "1")
    seq = POWERS_OF_4[8]
    corollary_ratio_scan(seq, 2.0, draws=1, reps=1000, src=src(24))  # lazy imports and caches
    calls = []
    real = rz._grid_pass
    def counting(terms, rows, *args):
        calls.append(len(rows))
        return real(terms, rows, *args)

    monkeypatch.setattr(rz, "_grid_pass", counting)
    tracemalloc.start()
    try:
        scan = corollary_ratio_scan(seq, 2.0, draws=16, reps=1000, src=src(24))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(calls) == sorted([rz._PASS_ROWS, rz._PASS_ROWS, 1] + [1] * 8)
    # one pass of all 17 rows holds 19 such arrays: 5.6 MB
    assert peak < (rz._PASS_ROWS + 3) * 8 * rz._BLOCK + 1_000_000
    last = scan["reports"][-1]
    assert last["torus"] == riesz_lp_norm(comb(last["coefficients"], seq), 2.0)
    assert last["per_term"][8]["torus"] == riesz_lp_norm(comb((0.0,) * 8 + (1.0,), seq), 2.0).value


def test_repeating_rows_line_up_with_every_block():
    # at N = 72,960 the phases of n = 1045 repeat every 3 rows, and the second block, of
    # 3 whole rows, starts at row 32; a last coefficient of 1.0 beside others is no lone product
    target = RieszCombination(LacunarySequence((259, 1045)), (0.5, -1.0, 1.0))
    out = riesz_lp_norm(target, 3.0, quad_points=72960)
    value, error = _unfolded(target, 3.0, out.points)
    assert out.value == pytest.approx(value, rel=1e-12, abs=0.0)
    assert abs(out.error_estimate - error) <= 1e-11 * value


@pytest.mark.parametrize("p, coeffs", [(4.0, (1.0, -0.5, 0.75, -1.25, 0.5)),
                                       (3.0, (1.0, 0.5, 0.75, 1.25, 0.0))])
def test_probabilistic_side_is_exact_where_the_power_is_a_polynomial(p, coeffs):
    exact = rz._probabilistic_side(comb(coeffs), p, 1000, src(3))
    assert exact.exact and exact.std_error == 0.0
    est = mc.estimate_lhs(dc.riesz_factor(), mc.coefficient_set(coeffs), p, 200_000, src(4))
    assert not est.exact
    assert abs(est.mean - exact.mean) <= 4.0 * est.std_error, (exact.mean, est)
    negated = rz._probabilistic_side(comb([-a for a in coeffs]), p, 1000, src(3))
    assert negated == exact  # |E S^p| of -S, whose coefficients share one sign too


def test_probabilistic_side_samples_where_the_power_is_no_polynomial():
    mixed = (1.0, -0.5, 0.75, -1.25, 0.5)
    for p in (2.5, 3.0, 5.0, 18.0):
        assert not rz._probabilistic_side(comb(mixed), p, 1000, src(3)).exact, p
    assert not rz._probabilistic_side(comb((1.0, 0.5, 2.0)), 17.0, 1000, src(3)).exact
    assert rz._probabilistic_side(comb(mixed), 16.0, 1000, src(3)).exact
    # E(1e100 (1 + R_1))^3 = 1e300 E(2 + cos U)^3 = 1.1e301, where sampling's SE overflows
    big = rz._probabilistic_side(comb((1e100, 1e100)), 3.0, 1000, src(3))
    assert big.exact and big.mean == pytest.approx(1.1e301, rel=1e-14)


# exact-degree grids: where |S|^p is a trigonometric polynomial of degree D = p sum n_j, a
# row takes max(4096, min(64 n_max, N_D)) points, N_D the least multiple of 2 gcd(n_j)
# above 2D; every other row takes max(4096, 64 n_max)
def test_exact_degree_grid_points():
    top = (0.0,) * 9 + (1.0,)
    # D = 3 * (4 + ... + 4^9) = 1,048,572, so N_D = 2 * (D + 4) = 2^21, against 64 * 4^9 = 2^24
    assert riesz_lp_norm(comb(top, POWERS_OF_4_TO_9), 3.0).points == 2**21
    assert riesz_lp_norm(comb(top, POWERS_OF_4_TO_9), 2.5).points == 2**24
    mixed = (1.0, -0.5, 0.75, -1.25, 0.5, 0.25, -1.0, 0.5, 1.5)
    assert riesz_lp_norm(comb(mixed, POWERS_OF_4[8]), 3.0).points == 2**22
    # even p takes the exact grid whatever the signs: D = 4 * 87,380, N_D = 699,048
    assert riesz_lp_norm(comb(mixed, POWERS_OF_4[8]), 4.0).points == 699_048
    # at p = 40, N_D = 6,990,408 passes 64 * 4^8 = 4,194,304, which stays
    assert riesz_lp_norm(comb(top[1:], POWERS_OF_4[8]), 40.0).points == 2**22


def test_exact_degree_unit_rows_read_the_factor_moment():
    for i in range(10):
        out = riesz_lp_norm(comb((0.0,) * i + (1.0,), POWERS_OF_4_TO_9), 3.0)
        assert abs(out.value - 2.5**i) <= 4 * math.ulp(2.5**i), (i, out)


@pytest.mark.parametrize("m", [6, 8])
@pytest.mark.parametrize("p, one_sign", [(1.0, True), (2.0, False), (3.0, True), (4.0, False),
                                         (6.0, False)])
def test_exact_degree_grid_matches_the_dense_grid(m, p, one_sign):
    seq = POWERS_OF_4[m]
    rng = np.random.default_rng(int(10 * m + p))
    for _ in range(2):
        coeffs = rng.standard_normal(m + 1)
        coeffs = np.abs(coeffs) if one_sign else coeffs
        out = riesz_lp_norm(comb(coeffs, seq), p)
        dense = riesz_lp_norm(comb(coeffs, seq), p, quad_points=64 * seq.terms[-1])
        assert out.points < dense.points
        assert out.value == pytest.approx(dense.value, rel=1e-15, abs=0.0)
        assert out.error_estimate <= 1e-14 * out.value


def test_a_pass_of_exact_and_dense_rows_gives_each_its_lone_bits():
    seq = POWERS_OF_4[6]
    rows = [(0.0,) * 6 + (1.0,), (1.0, -0.5, 0.75, -1.25, 0.5, 0.25, -1.0),
            (0.5, 1.0, 0.25, 0.0, 2.0, 0.75, 1.5), (-1.0, -0.5, 0.0, -2.0, -0.25, -1.0, -0.5),
            (0.25, -1.0, 0.5, 0.5, -0.75, 1.0, 2.0)]
    shared = riesz_lp_norms(seq, rows, 3.0)
    assert [out.points for out in shared] == [2**15, 2**18, 2**15, 2**15, 2**18]
    assert shared == [riesz_lp_norm(comb(row, seq), 3.0) for row in rows]


def test_explicit_points_meet_the_row_rule():
    seq = POWERS_OF_4[6]
    unit, mixed = (0.0,) * 6 + (1.0,), (1.0, -0.5, 0.75, -1.25, 0.5, 0.25, -1.0)
    # D = 3 * (4 + ... + 4^6) = 16,380: N_D = 32,768 < 3 * 2^15 < 64 * 4^6 = 2^18
    assert riesz_lp_norm(comb(unit, seq), 3.0, quad_points=3 * 2**15).points == 3 * 2**15
    with pytest.raises(TooFewPointsError, match=r"^98304 grid points < required 262144 by the "
                                                r"dense rule max\(4096, 64 \* n_max\)$"):
        riesz_lp_norm(comb(mixed, seq), 3.0, quad_points=3 * 2**15)
    with pytest.raises(TooFewPointsError, match=r"^32766 grid points < required 32768 by the "
                                                r"exact-degree rule max\(4096, min\(64 \* n_max, "
                                                r"N_D\)\), N_D = 32768$"):
        riesz_lp_norm(comb(unit, seq), 3.0, quad_points=32766)


def test_a_scan_checks_every_row_before_any_pass(monkeypatch):
    # 16 one-signed draws fill two passes that 3 * 2^15 points serve; the 17th, of mixed
    # signs, needs the dense 2^18, and no pass may run before that is known
    def no_grid(*args):
        raise AssertionError("a torus grid pass ran")

    seq = POWERS_OF_4[6]
    combs = [comb((1.0 + i,) + (0.5,) * 6, seq) for i in range(16)]
    combs.append(comb((1.0, -0.5, 0.75, -1.25, 0.5, 0.25, -1.0), seq))
    monkeypatch.setattr(rz, "_combination_values", no_grid)
    with pytest.raises(TooFewPointsError, match="< required 262144 by the dense rule"):
        rz._corollary_reports(combs, 3.0, 1000, [src(i) for i in range(17)], 3 * 2**15)
