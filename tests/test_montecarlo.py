"""Sum-of-products moments: enumeration oracles, MC agreement, sandwich verdicts."""

import dataclasses
import hashlib
import itertools
import math
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import momsand
from momsand import dist_core as dc
from momsand import montecarlo as mc
from momsand.assumptions import PairSpec, fit_large_p, fit_small_p
from momsand.constants import optimize_large_p, optimize_small_p
from momsand.errors import EnumerationTooLargeError, InvalidOrderError, NonfiniteMomentError

TWO_POINT = dc.two_point(0.5, 1.5, 0.5)
LARGE_SPEC = dc.two_point(0.6, math.sqrt(1.64), 0.5)


def src(seed=0, stream=5):
    return dc.RandomSource(seed=seed, stream_id=stream)


def test_brute_force_anchor_all_ones():
    coeffs = mc.coefficient_set([1.0, 1.0, 1.0])
    out = mc.brute_force_lhs(TWO_POINT, coeffs, 1.0)
    assert out.exact
    assert out.mean == pytest.approx(3.0, abs=1e-12)


def test_brute_force_anchor_alternating():
    coeffs = mc.coefficient_set([1.0, -1.0, 1.0])
    out = mc.brute_force_lhs(TWO_POINT, coeffs, 1.0)
    assert out.mean == pytest.approx(1.0, abs=1e-12)


def test_brute_force_single_coefficient():
    coeffs = mc.coefficient_set([-2.0])
    out = mc.brute_force_lhs(TWO_POINT, coeffs, 1.7)
    assert out.mean == pytest.approx(2.0**1.7, rel=1e-14)


def test_brute_force_manual_two_term():
    # v = (1, 1), X in {a, b}: E|1 + X| = (|1+a| + |1+b|) / 2
    coeffs = mc.coefficient_set([1.0, 1.0])
    out = mc.brute_force_lhs(TWO_POINT, coeffs, 1.0)
    assert out.mean == pytest.approx(0.5 * (1.5 + 2.5), abs=1e-14)


def test_enumeration_cap_raises():
    atoms = [(float(i), 0.1) for i in range(10)]
    spec = dc.finitely_supported(atoms)
    coeffs = mc.coefficient_set([1.0] * 9)
    with pytest.raises(EnumerationTooLargeError):
        mc.brute_force_lhs(spec, coeffs, 1.0)


def test_enumerated_distribution_probabilities():
    coeffs = mc.coefficient_set([1.0, -1.0, 0.5])
    values, probs = mc.enumerate_lhs_distribution(TWO_POINT, coeffs, 1.0)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(values >= 0.0)
    values2, probs2 = mc.enumerate_lhs_distribution(TWO_POINT, coeffs, 1.0)
    assert np.array_equal(values, values2)
    assert np.array_equal(probs, probs2)


def test_estimate_matches_enumeration():
    coeffs = mc.coefficient_set([1.0, 0.5, -0.25, 1.0])
    exact = mc.brute_force_lhs(TWO_POINT, coeffs, 0.8).mean
    misses = 0
    for seed in range(10):
        est = mc.estimate_lhs(TWO_POINT, coeffs, 0.8, reps=20_000, src=src(seed))
        assert est.replications == 20_000
        assert not est.exact
        if abs(est.mean - exact) > 4.0 * est.std_error:
            misses += 1
    assert misses <= 1


def test_estimate_zero_terms_is_exact():
    # single coefficient, no random factors: deterministic value 3
    est = mc.estimate_lhs(TWO_POINT, mc.coefficient_set([3.0]), 1.0, reps=1000, src=src())
    assert est.exact
    assert est.replications == 0
    assert est.mean == pytest.approx(3.0)
    assert est.std_error == 0.0


def test_estimate_rejects_tiny_runs():
    coeffs = mc.coefficient_set([1.0, 1.0])
    with pytest.raises(ValueError):
        mc.estimate_lhs(TWO_POINT, coeffs, 1.0, reps=10, src=src())


@pytest.mark.parametrize("p", [0.0, -1.0, math.nan, math.inf])
def test_every_engine_rejects_the_order_before_any_draw_or_walk(monkeypatch, p):
    calls = []
    monkeypatch.setattr(mc, "_sample_paths", lambda *args, **kwargs: calls.append(args))
    monkeypatch.setattr(mc, "_walk", lambda *args, **kwargs: calls.append(args))
    coeffs = mc.coefficient_set([1.0, 1.0])
    pair = PairSpec(x_spec=TWO_POINT, b_specs=(TWO_POINT,))
    runs = [
        lambda: mc.estimate_lhs(TWO_POINT, coeffs, p, reps=1000, src=src()),
        lambda: mc.brute_force_lhs(TWO_POINT, coeffs, p),
        lambda: mc.perpetuity_lhs(pair, 2, p, reps=1000, src=src()),
        lambda: mc.brute_force_perpetuity(pair, 2, p),
        lambda: mc.goldie_bracket(pair, p, [2], (0.1, 10.0, True), reps=1000, src=src()),
    ]
    for run in runs:
        with pytest.raises(InvalidOrderError):
            run()
    assert calls == []


def test_estimate_determinism_same_source():
    coeffs = mc.coefficient_set([1.0, -1.0, 2.0])
    a = mc.estimate_lhs(TWO_POINT, coeffs, 1.3, reps=8192, src=src(11))
    b = mc.estimate_lhs(TWO_POINT, coeffs, 1.3, reps=8192, src=src(11))
    c = mc.estimate_lhs(TWO_POINT, coeffs, 1.3, reps=8192, src=src(12))
    assert a == b
    assert a.mean != c.mean


def test_estimate_thread_count_invariance(monkeypatch):
    coeffs = mc.coefficient_set([1.0, 0.5, 0.5, -1.0])
    monkeypatch.setenv("MOMSAND_THREADS", "1")
    serial = mc.estimate_lhs(TWO_POINT, coeffs, 2.0, reps=20_000, src=src(3))
    monkeypatch.setenv("MOMSAND_THREADS", "4")
    threaded = mc.estimate_lhs(TWO_POINT, coeffs, 2.0, reps=20_000, src=src(3))
    assert serial.mean == threaded.mean
    assert serial.std_error == threaded.std_error


@pytest.mark.parametrize("spec", [dc.rademacher_sign(), dc.two_point(-1.0, 1.0, 0.3)],
                         ids=["rademacher", "twopoint_pa03"])
def test_serial_draws_reuse_one_block_buffer(monkeypatch, spec):
    # serial: one (CHUNK, n) draw buffer serves both blocks, and the finite
    # law's gather adds only chunk-sized index arrays on top of it
    monkeypatch.setenv("MOMSAND_THREADS", "1")
    n = 100
    coeffs = mc.coefficient_set([1.0] * (n + 1))
    tracemalloc.start()
    try:
        mc.estimate_lhs(spec, coeffs, 4.0, reps=2 * mc.CHUNK, src=src(4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * mc.CHUNK * n * 8


@pytest.mark.parametrize("spec", [dc.rademacher_sign(), TWO_POINT], ids=["rademacher", "twopoint"])
def test_serial_draws_stay_within_one_block_of_float_draws(monkeypatch, spec):
    # 16 blocks at one thread, one per task: the draws and the step temporaries
    # stay within one block of float draws
    monkeypatch.setenv("MOMSAND_THREADS", "1")
    n = 100
    coeffs = mc.coefficient_set([1.0] * (n + 1))
    # a first small run loads numpy.random's modules, which are no buffer of the run
    mc.estimate_lhs(spec, coeffs, 4.0, reps=mc.MIN_REPS, src=src(4))
    tracemalloc.start()
    try:
        mc.estimate_lhs(spec, coeffs, 4.0, reps=16 * mc.CHUNK, src=src(4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * mc.CHUNK * n * 8


# 11 full blocks and a short one, one pool task each
BLOCK_REPS = 11 * mc.CHUNK + 5


def _reference_values(reps, src_, block_steps, dim, tail, norm, p):
    """||acc||^p per path, each block stepped alone from its own generator, as the
    stream contract has it: block j draws from src_.generator(block=j)."""
    values = []
    for j, start in enumerate(range(0, reps, mc.CHUNK)):
        m = min(mc.CHUNK, reps - start)
        acc, r = np.zeros((dim, m)), np.ones(m)
        for x, b in block_steps(m, src_.generator(block=j)):
            acc = acc + b * r
            r = r * x
        if tail is not None:
            acc = acc + tail[:, None] * r
        values.append(mc.holder_norm(acc.T, norm) ** p)
    return np.concatenate(values)


@pytest.mark.parametrize("spec, vectors", [
    (dc.rademacher_sign(), [[1.0], [-0.5], [2.0], [0.25], [1.0], [0.5], [-1.0], [1.5], [0.75]]),
    (dc.finitely_supported([(0.5, 0.125), (1.0, 0.5), (2.0, 0.375)]),
     [[1.0], [0.5], [-1.0], [2.0], [0.5], [0.25], [1.0], [-0.5], [1.0]]),
    (dc.two_point(0.5, 1.5, 0.3), [[1.0], [-0.5], [2.0], [0.25], [1.0], [0.5]]),
    (dc.uniform(0.0, 2.0), [[1.0, 0.5, -1.0], [0.25, 2.0, 0.0], [-1.5, 0.75, 1.0], [0.5, 0.5, 0.5]]),
    # signs with coefficients in {0, 1}: every value the float loop holds is an integer
    (dc.two_point(-1.0, 1.0, 0.375), [[1.0], [0.0], [1.0], [1.0], [0.0], [1.0], [1.0], [1.0]]),
], ids=["rademacher", "dyadic_k3", "twopoint_pa03", "uniform_dim3", "signs_k3"])
def test_sampled_blocks_match_the_per_block_reference(monkeypatch, tmp_path, spec, vectors):
    coeffs = mc.CoefficientSet(tuple(map(tuple, vectors)), "l2")
    vmat = coeffs.matrix()
    p, reps = 2.5, BLOCK_REPS

    def block_steps(m, gen):
        draws = dc.sample(spec, (m, coeffs.n), gen)
        return zip(draws.T, vmat[:-1, :, None])

    expect = _reference_values(reps, src(21), block_steps, coeffs.dim, vmat[-1], "l2", p)
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("MOMSAND_THREADS", threads)
        path = tmp_path / f"values_{threads}.csv"
        est = mc.estimate_lhs(spec, coeffs, p, reps, src(21), csv_path=str(path))
        got = np.array([float(line.split(",")[1]) for line in path.read_text().split()[1:]])
        assert np.array_equal(got, expect)
        assert est == mc._stats(expect.copy(), reps, 21)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_each_block_is_one_pool_task(monkeypatch, threads):
    # the sandwich and the perpetuity map the block indices, whatever the
    # worker count or the number of steps
    monkeypatch.setenv("MOMSAND_THREADS", threads)
    mapped, loop = [], mc.map_indexed

    def spy(fn, items):
        items = list(items)
        mapped.append(items)
        return loop(fn, items)

    monkeypatch.setattr(mc, "map_indexed", spy)
    law = dc.uniform(0.0, 2.0)
    mc.estimate_lhs(law, mc.coefficient_set([1.0, 0.5, -0.25]), 2.5, BLOCK_REPS, src(3))
    pair = PairSpec(x_spec=law, b_specs=(dc.exponential(1.0),))
    mc.perpetuity_lhs(pair, 30, 2.0, BLOCK_REPS, src(3))
    assert mapped == [list(range(12))] * 2


def test_scale_equivariance():
    base = mc.coefficient_set([1.0, -0.5, 0.25])
    scaled = mc.coefficient_set([4.0, -2.0, 1.0])
    for p in (0.5, 1.0, 2.0):
        lhs_base = mc.brute_force_lhs(TWO_POINT, base, p).mean
        lhs_scaled = mc.brute_force_lhs(TWO_POINT, scaled, p).mean
        assert lhs_scaled == pytest.approx(4.0**p * lhs_base, rel=1e-12)
        rhs_base = mc.rhs_sum(TWO_POINT, base, p)
        rhs_scaled = mc.rhs_sum(TWO_POINT, scaled, p)
        assert lhs_scaled / rhs_scaled == pytest.approx(lhs_base / rhs_base, rel=1e-12)


def test_norm_ordering_vector_coefficients():
    vectors = ((1.0, -2.0, 0.5), (0.0, 1.0, 1.0), (3.0, 0.0, 0.0))
    by_norm = {}
    for norm in mc.NORM_KINDS:
        coeffs = mc.CoefficientSet(vectors=vectors, norm=norm)
        by_norm[norm] = mc.brute_force_lhs(TWO_POINT, coeffs, 1.5).mean
    assert by_norm["sup"] <= by_norm["l2"] + 1e-12
    assert by_norm["l2"] <= by_norm["l1"] + 1e-12


def test_small_p_upper_bound_holds_exactly():
    rng = np.random.default_rng(404)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        vec = rng.standard_normal(n) * rng.uniform(0.5, 2.0)
        coeffs = mc.coefficient_set([float(v) for v in vec])
        p = float(rng.choice([0.3, 0.5, 0.8, 1.0]))
        lhs = mc.brute_force_lhs(TWO_POINT, coeffs, p).mean
        rhs = mc.rhs_sum(TWO_POINT, coeffs, p)
        assert lhs <= rhs + 1e-12 * max(rhs, 1.0)


def test_rhs_sum_anchors():
    coeffs = mc.coefficient_set([1.0, 1.0, 1.0])
    # normalized spec: E|X| = 1, so each term contributes 1
    assert mc.rhs_sum(TWO_POINT, coeffs, 1.0) == pytest.approx(3.0, abs=1e-12)
    wide = dc.two_point(1.0, 3.0, 0.5)
    pair = mc.coefficient_set([1.0, 1.0])
    assert mc.rhs_sum(wide, pair, 1.0) == pytest.approx(1.0 + 2.0, abs=1e-12)
    assert mc.rhs_sum(TWO_POINT, mc.coefficient_set([0.0]), 1.0) == 0.0


def test_run_sandwich_alternating_passes():
    bundle, _ = optimize_small_p(TWO_POINT, 1.0)
    coeffs = mc.coefficient_set([1.0, -1.0, 1.0])
    constants = mc.bracket_constants(1.0, bundle)
    report = mc.run_sandwiches(TWO_POINT, 1.0, [coeffs], constants, 10_000, [src()])[0]
    assert report.verdict == mc.PASS
    assert report.lhs.exact
    assert report.ratio == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert report.lhs.mean >= bundle.lower_c * report.rhs_sum


def test_run_sandwich_regime_mismatch():
    bundle, _ = optimize_small_p(TWO_POINT, 1.0)
    coeffs = mc.coefficient_set([1.0])
    with pytest.raises(ValueError):
        mc.bracket_constants(2.0, bundle)


def test_run_sandwich_single_term_ratio_one():
    bundle, _ = optimize_small_p(TWO_POINT, 1.0)
    coeffs = mc.coefficient_set([2.0])
    constants = mc.bracket_constants(1.0, bundle)
    report = mc.run_sandwiches(TWO_POINT, 1.0, [coeffs], constants, 1000, [src()])[0]
    assert report.verdict == mc.PASS
    assert report.ratio == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("spec", [dc.uniform(0.0, 2.0), dc.log_normal(0.0, 0.5)],
                         ids=["uniform", "lognormal"])
def test_zero_steps_are_one_exact_outcome_whatever_the_law(spec):
    coeffs = mc.coefficient_set([2.0])
    report = mc.run_sandwiches(spec, 2.5, [coeffs], (0.5, 2.0, True), 10, [src()])[0]
    assert report.engine == "enumerate"
    assert report.lhs == mc.brute_force_lhs(spec, coeffs, 2.5)
    assert report.lhs == mc.EstimateWithCI(mean=2.0**2.5, std_error=0.0, replications=1,
                                           seed=None, exact=True)
    assert report.ratio == 1.0 and report.verdict == mc.PASS


def test_run_sandwich_nonnegative_p1_is_tight():
    bundle, _ = optimize_small_p(TWO_POINT, 1.0)
    coeffs = mc.coefficient_set([0.3, 1.2, 0.7, 2.0])
    constants = mc.bracket_constants(1.0, bundle)
    report = mc.run_sandwiches(TWO_POINT, 1.0, [coeffs], constants, 1000, [src()])[0]
    # nonnegative summands at p = 1: expectation is additive, ratio exactly 1
    assert report.ratio == pytest.approx(1.0, rel=1e-13)
    assert report.verdict == mc.PASS


def test_run_sandwich_large_p_estimate_path():
    bundle, _ = optimize_large_p(LARGE_SPEC, 2.0)
    coeffs = mc.coefficient_set([1.0, -1.0, 0.5, 0.25])
    constants = mc.bracket_constants(2.0, bundle)
    report = mc.run_sandwiches(LARGE_SPEC, 2.0, [coeffs], constants, 5000, [src(2)])[0]
    assert report.lhs.exact  # two-point, 2^4 outcomes: enumerated, not sampled
    assert report.verdict == mc.PASS


def test_khintchine_small_case_exact():
    out = mc.khintchine_counterexample(2, 4.0)
    # (e1 + e1 e2)^4: values 0 or 16 with equal chance
    assert out["lhs"].exact
    assert out["lhs"].mean == 8.0
    assert out["rhs_sum"] == 2.0
    assert out["ratio"] == 4.0


def test_khintchine_p2_no_growth():
    for n in (2, 5, 10):
        out = mc.khintchine_counterexample(n, 2.0)
        assert out["ratio"] == 1.0


def test_khintchine_fourth_moment_growth():
    # E|R_1 + ... + R_n|^4 = 3n^2 - 2n for signs, exactly
    out = mc.khintchine_counterexample(100, 4.0)
    assert out["lhs"] == mc.EstimateWithCI(mean=29800.0, std_error=0.0, replications=101,
                                           seed=None, exact=True)
    assert (out["engine"], out["ratio"]) == ("sign_chain", 298.0)


def test_csv_dump(tmp_path):
    coeffs = mc.coefficient_set([1.0, -1.0])
    path = tmp_path / "draws.csv"
    est = mc.estimate_lhs(TWO_POINT, coeffs, 1.0, reps=2048, src=src(), csv_path=str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "rep,value"
    assert len(lines) == 2049
    values = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert values.mean() == pytest.approx(est.mean, rel=1e-12)


def test_tail_small_p_certified_spec():
    cert = fit_small_p(TWO_POINT, 1.0)
    coeffs = mc.coefficient_set([1.0, 0.5, -0.5, 0.25])
    rows = mc.tail_check_small_p(TWO_POINT, coeffs, 1.0, cert.lam, (1.0, 2.0, 4.0, 8.0))
    assert len(rows) == 4
    assert all(row["ok"] for row in rows)
    assert all(row["tail_prob"] <= row["bound"] + 1e-12 for row in rows)
    bounds = [row["bound"] for row in rows]
    assert bounds == sorted(bounds, reverse=True)


def test_tail_large_p_certified_spec():
    cert = fit_large_p(LARGE_SPEC, 2.0)
    coeffs = mc.coefficient_set([1.0, -1.0, 0.5])
    rows = mc.tail_check_large_p(
        LARGE_SPEC, coeffs, 2.0, cert.q, cert.lam, (1.0, 2.0, 4.0, 8.0)
    )
    assert len(rows) == 4
    assert all(row["ok"] for row in rows)
    bounds = [row["bound"] for row in rows]
    assert bounds == sorted(bounds, reverse=True)


def test_csv_values_match_reference_kernel(tmp_path):
    # reference: each block's single (m, n) draw, cumprod, then the explicit
    # contraction over v_0 .. v_n; 5000 reps make one full and one partial block
    spec = dc.uniform(0.0, 2.0)
    coeffs = mc.CoefficientSet(((1.0, -0.5), (0.25, 2.0), (-1.5, 0.75), (0.5, 0.5)), "l2")
    p, reps = 1.7, 5000
    path = tmp_path / "values.csv"
    mc.estimate_lhs(spec, coeffs, p, reps, src(8), csv_path=str(path))
    lines = path.read_text().strip().splitlines()[1:]
    got = np.array([float(line.split(",")[1]) for line in lines])

    vmat = coeffs.matrix()
    blocks = []
    for j, start in enumerate(range(0, reps, mc.CHUNK)):
        m = min(mc.CHUNK, reps - start)
        prods = np.cumprod(dc.sample(spec, (m, coeffs.n), src(8).generator(block=j)), axis=1)
        acc = np.tile(vmat[0], (m, 1))
        for i in range(1, coeffs.n + 1):
            acc = acc + prods[:, i - 1][:, None] * vmat[i][None, :]
        blocks.append(mc.holder_norm(acc, coeffs.norm) ** p)
    assert len(blocks) == 2
    assert np.array_equal(got, np.concatenate(blocks))


def _split_and_unsplit(monkeypatch, fn):
    whole = fn()
    monkeypatch.setattr(mc, "ENUM_BLOCK", 7)
    return whole, fn()


def test_prefix_split_walk_matches_unsplit_sandwich(monkeypatch):
    spec = dc.finitely_supported([(0.5, 0.3), (1.0, 0.4), (2.0, 0.3)])
    coeffs = mc.CoefficientSet(((1.0, 0.5), (-0.5, 1.0), (2.0, -1.0), (0.25, 0.0), (1.0, 1.0)))
    whole, split = _split_and_unsplit(
        monkeypatch, lambda: mc.enumerate_lhs_distribution(spec, coeffs, 1.5)
    )
    assert len(whole[0]) == 3**4
    assert np.array_equal(whole[0], split[0])
    assert np.array_equal(whole[1], split[1])


@pytest.mark.parametrize("coupling", ["independent", "comonotone-scalar"])
def test_prefix_split_walk_matches_unsplit_perpetuity(monkeypatch, coupling):
    from momsand.assumptions import PairSpec

    pair = PairSpec(
        x_spec=dc.finitely_supported([(0.5, 0.3), (1.0, 0.4), (1.5, 0.3)]),
        b_specs=(dc.two_point(0.5, 2.0, 0.4),),
        coupling=coupling,
    )
    whole, split = _split_and_unsplit(
        monkeypatch,
        lambda: mc._outcomes(
            mc._walk([mc._pair_branches(pair)] * 5, pair.dim, pair.norm, 2.5)
        ),
    )
    assert len(whole[0]) == len(mc._pair_branches(pair)[0]) ** 5
    assert np.array_equal(whole[0], split[0])
    assert np.array_equal(whole[1], split[1])


def _random_law(seed, size):
    gen = np.random.default_rng(seed)
    weights = gen.uniform(0.5, 2.0, size)
    return dc.finitely_supported(zip(gen.normal(size=size), weights / weights.sum()))


def _wide_perpetuity():
    # 2 x 400 x 400 = 320,000 joint atoms in the one step
    pair = PairSpec(TWO_POINT, (_random_law(1, 400), _random_law(2, 400)))
    outcomes = mc._outcomes(mc._walk([mc._pair_branches(pair)], 2, "l2", 2.0))
    return (lambda: mc.brute_force_perpetuity(pair, 1, 2.0)), outcomes, 2 * 400 * 400


def _wide_sandwich():
    # ENUM_BLOCK + 1 atoms at n = 1, then the unit step (1, v_1): the suffix is
    # both steps, not the unit step alone with one prefix per atom
    spec, coeffs = _random_law(3, mc.ENUM_BLOCK + 1), mc.coefficient_set([1.0, -0.5])
    x, probs = dc.finite_support(spec)
    values = np.abs(1.0 + -0.5 * x) ** 2.0
    return (lambda: mc.brute_force_lhs(spec, coeffs, 2.0)), (values, probs), mc.ENUM_BLOCK + 1


@pytest.mark.parametrize("case", [_wide_perpetuity, _wide_sandwich], ids=["perpetuity", "sandwich"])
def test_walk_keeps_a_wide_last_step_in_one_block(monkeypatch, case):
    # a step past mc.ENUM_BLOCK atoms is in the suffix, so the walk yields one
    # block and not one per atom
    run, (values, probs), count = case()
    blocks = []

    def counting_mean(walk):
        blocks.append(len(walk.prefixes))
        return exact_mean(walk)

    exact_mean = mc._exact_mean
    monkeypatch.setattr(mc, "_exact_mean", counting_mean)
    est = run()
    assert blocks == [1]
    assert est.exact and est.replications == count == len(values) > mc.ENUM_BLOCK
    assert est.mean == pytest.approx(math.fsum(values * probs), rel=2.0**-52, abs=0.0)


# ---------------------------------------------------------------------------
# the suffix-once walk against a naive walk over every path

WALK_LAWS = {
    "twopoint": [(0.4, 0.3), (1.3, 0.7)],
    "three_atoms": [(0.35, 0.3), (1.1, 0.4), (1.7, 0.3)],
}


def _naive_norm(vec, norm):
    if norm == "l1":
        return math.fsum(abs(c) for c in vec)
    if norm == "l2":
        return math.sqrt(math.fsum(c * c for c in vec))
    return max(abs(c) for c in vec)


def _naive_walk(steps, tail, norm, p):
    """(values, probs) over every path, step 1 most significant; steps hold (x, b, prob) atoms."""
    values, probs = [], []
    for path in itertools.product(*steps):
        acc, r, pr = [0.0] * len(path[0][1]), 1.0, 1.0
        for x, b, prob in path:
            acc = [a + r * c for a, c in zip(acc, b)]
            r, pr = r * x, pr * prob
        if tail is not None:
            acc = [a + r * c for a, c in zip(acc, tail)]
        values.append(_naive_norm(acc, norm) ** p)
        probs.append(pr)
    return np.array(values), np.array(probs)


def _walk_coeffs(n, dim, norm):
    # each column keeps one sign, so no path's sum cancels and 1e-14 relative
    # bounds any regrouping; with sign-changing columns a path summing to
    # 2e-4 from terms near 1 moved by 3e-14 relative
    rows = [
        [(-1.0) ** j * (0.3 + abs(math.cos(1.3 * i + 0.7 * j))) for j in range(dim)]
        for i in range(n + 1)
    ]
    return mc.CoefficientSet(tuple(tuple(r) for r in rows), norm)


def _assert_same_outcomes(got, want):
    values, probs = got
    assert len(values) == len(want[0])
    np.testing.assert_allclose(values, want[0], rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(probs, want[1], rtol=1e-14, atol=0.0)
    assert abs(math.fsum(probs) - 1.0) <= 1e-14


@pytest.mark.parametrize("block", [1, 7, mc.ENUM_BLOCK])
@pytest.mark.parametrize("norm", mc.NORM_KINDS)
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("law", sorted(WALK_LAWS))
def test_walk_matches_naive_sandwich(monkeypatch, law, dim, norm, block):
    monkeypatch.setattr(mc, "ENUM_BLOCK", block)
    atoms = WALK_LAWS[law]
    n = 9 if len(atoms) == 2 else 6
    coeffs = _walk_coeffs(n, dim, norm)
    p = 2.5
    want = _naive_walk(
        [[(x, v, prob) for x, prob in atoms] for v in coeffs.vectors[:-1]],
        coeffs.vectors[-1], norm, p,
    )
    spec = dc.finitely_supported(atoms)
    _assert_same_outcomes(mc.enumerate_lhs_distribution(spec, coeffs, p), want)
    mean = math.fsum(want[0] * want[1])
    est = mc.brute_force_lhs(spec, coeffs, p)
    assert est.exact and est.replications == len(want[0])
    assert est.mean == pytest.approx(mean, rel=1e-14, abs=0.0)


def _walk_pairs():
    # B components of one sign each, for the reason _walk_coeffs gives
    x = dc.finitely_supported(WALK_LAWS["three_atoms"])
    b_laws = (
        dc.finitely_supported(WALK_LAWS["twopoint"]),
        dc.finitely_supported([(-0.6, 0.5), (-1.7, 0.5)]),
        dc.finitely_supported([(0.45, 0.6), (1.2, 0.4)]),
    )
    for norm in mc.NORM_KINDS:
        for dim in (1, 2, 3):
            yield PairSpec(x, b_laws[:dim], norm=norm)
        # cut points 0.3, 0.5, 0.7: four joint atoms
        yield PairSpec(x, (b_laws[1],), coupling="comonotone-scalar", norm=norm)


@pytest.mark.parametrize("block", [1, 7, mc.ENUM_BLOCK])
@pytest.mark.parametrize(
    "pair", list(_walk_pairs()), ids=lambda pair: f"{pair.coupling}-d{pair.dim}-{pair.norm}"
)
def test_walk_matches_naive_perpetuity(monkeypatch, pair, block):
    monkeypatch.setattr(mc, "ENUM_BLOCK", block)
    n, p = (3 if pair.dim < 3 else 2), 2.5
    if pair.coupling == "independent":
        # joint atoms by hand: X most significant, then each B component in order
        laws = [dc.finite_support(s) for s in (pair.x_spec, *pair.b_specs)]
        step = [
            (combo[0][0], [c for c, _ in combo[1:]], math.prod(pr for _, pr in combo))
            for combo in itertools.product(*(list(zip(*law)) for law in laws))
        ]
    else:
        x, b, prob = mc._pair_branches(pair)
        step = list(zip(x, b.tolist(), prob))
    want = _naive_walk([step] * n, None, pair.norm, p)
    walk = mc._walk([mc._pair_branches(pair)] * n, pair.dim, pair.norm, p)
    _assert_same_outcomes(mc._outcomes(walk), want)
    est = mc.brute_force_perpetuity(pair, n, p)
    assert est.exact and est.replications == len(want[0])
    assert est.mean == pytest.approx(math.fsum(want[0] * want[1]), rel=1e-14, abs=0.0)


# ---------------------------------------------------------------------------
# the exact mean on the worker pool against the serial fresh-array reference


def _reference_mean(walk):
    """(mean, count) of a walk as a serial loop takes it: fresh arrays per block,
    np.sum of values * probs, then math.fsum of the block sums in walk order."""
    partial, count = [], 0
    out = np.empty_like(walk.sums)
    for acc0, r0, p0 in walk.prefixes:
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(walk.sums, r0, out=out)
            out += acc0[:, None]
            values = mc.holder_norm(out.T, walk.norm) ** walk.p
            partial.append(float(np.sum(values * (walk.probs * p0))))
        count += len(values)
    return math.fsum(partial), count


def _means_at_each_worker_count(monkeypatch, exact, walk):
    """exact()'s (mean bits, count) at MOMSAND_THREADS=1 and =2, and the reference's;
    the walk must have enough blocks that two workers take them."""
    pooled = []
    map_indexed = mc.map_indexed

    def counting_map(fn, items):
        pooled.append(len(items))
        return map_indexed(fn, items)

    monkeypatch.setattr(mc, "map_indexed", counting_map)
    got = []
    for threads in ("1", "2"):
        monkeypatch.setenv("MOMSAND_THREADS", threads)
        est = exact()
        assert est.exact
        got.append((est.mean.hex(), est.replications))
    assert pooled and len(walk.prefixes) >= 8
    mean, count = _reference_mean(walk)
    return got, (mean.hex(), count)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 2.5, 3.5])
@pytest.mark.parametrize("norm", mc.NORM_KINDS)
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sandwich_exact_mean_bits_match_the_serial_reference(monkeypatch, dim, norm, p):
    monkeypatch.setattr(mc, "ENUM_BLOCK", 7)
    spec = dc.finitely_supported(WALK_LAWS["three_atoms"])
    coeffs = _walk_coeffs(6, dim, norm)
    got, want = _means_at_each_worker_count(
        monkeypatch, lambda: mc.brute_force_lhs(spec, coeffs, p),
        mc._sandwich_walk(spec, coeffs, p),
    )
    assert got == [want, want]


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 2.5, 3.5])
@pytest.mark.parametrize(
    "pair", list(_walk_pairs()), ids=lambda pair: f"{pair.coupling}-d{pair.dim}-{pair.norm}"
)
def test_perpetuity_exact_mean_bits_match_the_serial_reference(monkeypatch, pair, p):
    monkeypatch.setattr(mc, "ENUM_BLOCK", 7)
    n = 3
    got, want = _means_at_each_worker_count(
        monkeypatch, lambda: mc.brute_force_perpetuity(pair, n, p),
        mc._walk([mc._pair_branches(pair)] * n, pair.dim, pair.norm, p),
    )
    assert got == [want, want]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("atoms, mean", [
    ([(0.5, 0.5), (1e200, 0.5)], math.inf),
    # a path through two 1e-200 atoms has probability 0 and value inf: inf * 0 is nan
    ([(0.5, 0.5), (1e200, 0.5), (2.0, 1e-200)], math.nan),
])
def test_overflowing_exact_mean_warns_from_no_worker(monkeypatch, threads, atoms, mean):
    # partial sums reach 1e300 * 1e200: the blocks overflow to inf inside the
    # pool's workers, whose NumPy error state is not the caller's
    monkeypatch.setattr(mc, "ENUM_BLOCK", 4)
    monkeypatch.setenv("MOMSAND_THREADS", threads)
    spec = dc.finitely_supported(atoms)
    coeffs = mc.coefficient_set([1e300] * 6)
    assert len(mc._sandwich_walk(spec, coeffs, 2.0).prefixes) >= 8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = mc.brute_force_lhs(spec, coeffs, 2.0)
        values, _ = mc.enumerate_lhs_distribution(spec, coeffs, 2.0)
    assert est.mean.hex() == mean.hex() and est.replications == len(values) == len(atoms)**5
    assert np.isinf(values).any()


def test_outcomes_blocks_alias_no_reused_buffer(monkeypatch):
    # with one buffer reused across blocks every block would read as the last one;
    # the reference concatenates each block's fresh arrays, and the bits must match
    monkeypatch.setattr(mc, "ENUM_BLOCK", 7)
    spec = dc.finitely_supported(WALK_LAWS["three_atoms"])
    for dim in (1, 2, 3):
        walk = mc._sandwich_walk(spec, _walk_coeffs(6, dim, "l2"), 2.5)
        values, probs = mc._outcomes(walk)
        m = walk.sums.shape[1]
        blocks = [mc._block_values(walk, prefix) for prefix in walk.prefixes]
        assert len(blocks) > 2
        assert values.tobytes() == np.concatenate(blocks).tobytes()
        want_probs = np.concatenate([walk.probs * p0 for _, _, p0 in walk.prefixes])
        assert probs.tobytes() == want_probs.tobytes()
        assert len({values[j * m:(j + 1) * m].tobytes() for j in range(len(blocks))}) == len(blocks)


def _norm_rows(dim):
    """Rows whose entries span 1e-150 .. 1e150, with signed zeros mixed in."""
    gen = np.random.default_rng(dim)
    rows = gen.standard_normal((4096, dim)) * 10.0 ** gen.uniform(-150.0, 150.0, (4096, dim))
    rows[::5, 0] = 0.0
    rows[::7, -1] = -0.0
    rows[::11] = -0.0
    return rows


def _reduced_norm(rows, kind):
    a = np.abs(rows)
    with np.errstate(over="ignore", under="ignore"):
        if kind == "l1":
            return a.sum(axis=1)
        if kind == "l2":
            return np.sqrt((a * a).sum(axis=1))
        return a.max(axis=1)


@pytest.mark.parametrize("kind", mc.NORM_KINDS)
@pytest.mark.parametrize("dim", range(1, 8))
def test_column_norms_match_reduction_bits(kind, dim):
    rows = _norm_rows(dim)
    with np.errstate(over="ignore", under="ignore"):
        got = mc.holder_norm(rows, kind)
    assert got.view(np.uint64).tolist() == _reduced_norm(rows, kind).view(np.uint64).tolist()


@pytest.mark.parametrize("kind", mc.NORM_KINDS)
@pytest.mark.parametrize("dim", [8, 16])
def test_column_norms_drift_past_seven_columns(kind, dim):
    # NumPy sums eight or more columns pairwise, so l1 and l2 may move in the last bits
    rows = _norm_rows(dim)
    with np.errstate(over="ignore", under="ignore"):
        got = mc.holder_norm(rows, kind)
    want = _reduced_norm(rows, kind)
    assert np.array_equal(np.isfinite(got), np.isfinite(want))
    finite = np.isfinite(want)
    np.testing.assert_allclose(got[finite], want[finite], rtol=dim * 2.0**-52, atol=0.0)


@pytest.mark.parametrize("kind", mc.NORM_KINDS)
@pytest.mark.parametrize("dim", range(1, 9))
def test_column_norms_into_out_match_fresh_bits(kind, dim):
    rows = _norm_rows(dim)
    out = np.full(len(rows), np.nan)
    with np.errstate(over="ignore", under="ignore"):
        got = mc.holder_norm(rows, kind, out=out)
        want = mc.holder_norm(rows, kind)
    assert got is out
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


# ---------------------------------------------------------------------------
# Monte Carlo bits pinned: float.hex of mean and std_error, so a change to the
# order or kind of any floating-point operation in sampling or in the path
# kernel shows.  5000 reps give one full block of mc.CHUNK and one partial
# block.  Every law draws one uniform per value, mapped through its quantile.
# The continuous laws' values depend on how the NumPy/SciPy build rounds exp,
# log1p, cos and ndtri; another build may need them re-recorded.

PIN_REPS = 5000
PIN_LAWS = {
    "twopoint": TWO_POINT,
    "lognormal": dc.log_normal(0.0, 0.5),
    "exponential": dc.exponential(1.0),
    "uniform": dc.uniform(0.0, 2.0),
    "riesz": dc.riesz_factor(),
    "scaled": dc.scaled_copy(dc.exponential(1.0), -0.8),
}


def _pin_coeffs(n, dim, norm):
    rows = [[math.cos(1.3 * i + 0.7 * j) for j in range(dim)] for i in range(n + 1)]
    return mc.CoefficientSet(tuple(tuple(r) for r in rows), norm)


def _pinned_runs():
    runs = {}
    for law, spec in PIN_LAWS.items():
        # in one dimension every norm is |.|, so sup is pinned at d = 3 only
        for dim, norm in ((1, "l2"), (3, "l2"), (3, "sup")):
            runs[f"{law}_d{dim}_{norm}"] = (
                lambda spec=spec, dim=dim, norm=norm: mc.estimate_lhs(
                    spec, _pin_coeffs(6, dim, norm), 2.5, PIN_REPS, src(22)))
    independent = PairSpec(dc.uniform(0.0, 2.0), (dc.uniform(0.0, 1.0), dc.log_normal(0.0, 0.5)))
    # X's quantile runs first on the shared uniform and must leave it for B's
    comonotone = PairSpec(dc.exponential(1.0), (TWO_POINT,), coupling="comonotone-scalar")
    runs["perpetuity_independent_d2"] = lambda: mc.perpetuity_lhs(
        independent, 5, 2.5, PIN_REPS, src(23))
    runs["perpetuity_comonotone"] = lambda: mc.perpetuity_lhs(
        comonotone, 5, 2.5, PIN_REPS, src(24))
    return runs


PINNED_BITS = {
    "exponential_d1_l2": ("0x1.5d241bef7bae5p+7", "0x1.76b3b31ff3f83p+5"),
    "exponential_d3_l2": ("0x1.2ef6973eb0885p+9", "0x1.19b48d5949605p+7"),
    "exponential_d3_sup": ("0x1.62128560017f3p+8", "0x1.66223ff0460c1p+6"),
    "lognormal_d1_l2": ("0x1.61ed929f1a842p+5", "0x1.9c8f75f836b7ep+2"),
    "lognormal_d3_l2": ("0x1.d9a92c08acf94p+6", "0x1.2f4ce1b78393cp+4"),
    "lognormal_d3_sup": ("0x1.235a9ccd3c0afp+6", "0x1.8bac5e3a12339p+3"),
    "perpetuity_comonotone": ("0x1.0d205579aca29p+9", "0x1.6f133e854acd0p+6"),
    "perpetuity_independent_d2": ("0x1.b8bb8786b6d83p+7", "0x1.02ad339f49144p+3"),
    "riesz_d1_l2": ("0x1.ccc7ff3d95b4cp+4", "0x1.3ca1e5e392667p+1"),
    "riesz_d3_l2": ("0x1.3a241f027af01p+6", "0x1.90777ef14b674p+2"),
    "riesz_d3_sup": ("0x1.55b395e1be554p+5", "0x1.bcb5fd65b1cc7p+1"),
    "scaled_d1_l2": ("0x1.c1aa7b9777f7dp+2", "0x1.7e249209ce514p+1"),
    "scaled_d3_l2": ("0x1.c636430da3766p+4", "0x1.6595f23e33303p+3"),
    "scaled_d3_sup": ("0x1.e712b9ae05a6fp+3", "0x1.90ae8c9817a55p+2"),
    "twopoint_d1_l2": ("0x1.d0b812b259d2cp+2", "0x1.724fa30abfd31p-2"),
    "twopoint_d3_l2": ("0x1.0d025f102bfe6p+4", "0x1.8225f7c78aedbp-1"),
    "twopoint_d3_sup": ("0x1.1b9b8ac136ac0p+3", "0x1.73ba74b41cffdp-2"),
    "uniform_d1_l2": ("0x1.6e8e8d2594126p+3", "0x1.b1b46bf98059ap-1"),
    "uniform_d3_l2": ("0x1.ca4ea386996c5p+4", "0x1.dff784c64497bp+0"),
    "uniform_d3_sup": ("0x1.fd405a643051bp+3", "0x1.0dd179df411d9p+0"),
}


@pytest.mark.parametrize("case", sorted(_pinned_runs()))
def test_monte_carlo_bits_pinned(case):
    est = _pinned_runs()[case]()
    assert not est.exact and est.replications == PIN_REPS
    assert (est.mean.hex(), est.std_error.hex()) == PINNED_BITS[case]


# ---------------------------------------------------------------------------
# enumeration bits pinned: float.hex of the exact mean and a digest of every
# outcome's value and probability, so a change to the order or kind of any
# floating-point operation in the walk shows.  Each case is past
# mc.ENUM_BLOCK, so it walks both a prefix and the shared suffix.

PIN_ENUM_LAW = dc.finitely_supported([(0.35, 0.3), (1.1, 0.4), (1.7, 0.3)])
PIN_ENUM_PAIR_B = (dc.two_point(0.5, 2.0, 0.4), dc.finitely_supported([(-0.6, 0.5), (1.7, 0.5)]))


def _digest(values, probs):
    return hashlib.blake2b(values.tobytes() + probs.tobytes(), digest_size=8).hexdigest()


def _pinned_walks():
    runs = {}
    for dim in (2, 3):
        for norm in mc.NORM_KINDS:
            coeffs = _pin_coeffs(11, dim, norm)  # 3^11 outcomes
            runs[f"sandwich_d{dim}_{norm}"] = (
                lambda coeffs=coeffs: mc.brute_force_lhs(PIN_ENUM_LAW, coeffs, 2.5),
                lambda coeffs=coeffs: mc.enumerate_lhs_distribution(PIN_ENUM_LAW, coeffs, 2.5),
            )
    for norm in mc.NORM_KINDS:
        pair = PairSpec(PIN_ENUM_LAW, PIN_ENUM_PAIR_B, norm=norm)  # 12^5 outcomes
        runs[f"perpetuity_d2_{norm}"] = (
            lambda pair=pair: mc.brute_force_perpetuity(pair, 5, 2.5),
            lambda pair=pair: mc._outcomes(
                mc._walk([mc._pair_branches(pair)] * 5, 2, pair.norm, 2.5)),
        )
    return runs


PINNED_ENUM_BITS = {
    "perpetuity_d2_l1": ("0x1.cc33f6177a9f6p+9", "4d1e27fb6aa84c7d"),
    "perpetuity_d2_l2": ("0x1.de486a9db025fp+8", "122e3633a63c342c"),
    "perpetuity_d2_sup": ("0x1.6803140b61ed8p+8", "8d5336d766b11291"),
    "sandwich_d2_l1": ("0x1.2248f32e75dfbp+8", "e7a0796409a7c439"),
    "sandwich_d2_l2": ("0x1.23e11d5a8ef29p+7", "56314aede7e48c80"),
    "sandwich_d2_sup": ("0x1.a594d47af5a9bp+6", "ccd65a180effe930"),
    "sandwich_d3_l1": ("0x1.e88b5ff2b33d2p+9", "e77d037f396e6893"),
    "sandwich_d3_l2": ("0x1.4d50e0423283bp+8", "497d807d4ec3e0eb"),
    "sandwich_d3_sup": ("0x1.8e37458b39ec2p+7", "482da27b4c6a467a"),
}


@pytest.mark.parametrize("case", sorted(_pinned_walks()))
def test_enumeration_bits_pinned(case):
    exact, outcomes = _pinned_walks()[case]
    est = exact()
    assert est.exact and est.replications in (3**11, 12**5)
    assert (est.mean.hex(), _digest(*outcomes())) == PINNED_ENUM_BITS[case]


@pytest.mark.parametrize("case", sorted(_pinned_walks()))
def test_enumeration_mean_within_an_ulp_of_fsum(case):
    exact, outcomes = _pinned_walks()[case]
    values, probs = outcomes()
    want = math.fsum(values * probs)
    assert abs(exact().mean - want) <= math.ulp(want)


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


@pytest.mark.parametrize("n", [2, 3, 4097, 10**6])
@pytest.mark.parametrize("poison", [None, math.inf])
def test_stats_match_numpy_bit_for_bit(n, poison):
    values = np.random.default_rng(n).lognormal(0.0, 2.0, n)
    if poison is not None:
        values[n // 2] = poison
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(values))
        se = math.sqrt(float(np.var(values, ddof=1)) / n)
    est = mc._stats(values.copy(), n, seed=None)
    assert (_bits(est.mean), _bits(est.std_error)) == (_bits(mean), _bits(se))
    if poison is not None:
        assert est.mean == math.inf and math.isnan(est.std_error)


def test_stats_allocates_no_copy_of_its_input():
    values = np.random.default_rng(0).random(10**6)
    tracemalloc.start()
    try:
        mc._stats(values, len(values), seed=None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # an 8 MB temporary of deviations would show here
    assert peak < 2**20


# ---------------------------------------------------------------------------
# the exact sign chain of the counterexample against its oracles:
#   * Rademacher signs: S = 2K - n with K ~ Binomial(n, 1/2), summed in Fraction,
#     bit for bit at an integer p and within 2 ulp otherwise;
#   * P(-1) = 3/8 and 0.3: brute-force enumeration of the same sum, to 1e-14;
#   * X = 1 and X = -1: S = n, and S = -1 or 0 by the parity of n;
#   * p = 4: the ratio 3n - 2, bit for bit.

X_ONE, X_MINUS_ONE = dc.finitely_supported([(1.0, 1.0)]), dc.finitely_supported([(-1.0, 1.0)])
SIGN_CHAIN_CASES = (
    [("binomial", None, n, p) for n in (1, 2, 7, 50, 200) for p in (0.5, 1.0, 2.5, 3.0, 4.0, 7.5)]
    + [("brute", dc.two_point(-1.0, 1.0, q), n, p)
       for q in (0.375, 0.3) for n in (1, 5, 16) for p in (0.5, 2.5, 4.0)]
    + [("constant", spec, n, p) for spec in (X_ONE, X_MINUS_ONE) for n in (1, 4, 7)
       for p in (0.5, 4.0)]
    + [("3n-2", None, n, 4.0) for n in (1, 2, 20, 100, 200)]
)


@pytest.mark.parametrize("kind, spec, n, p", SIGN_CHAIN_CASES)
def test_sign_chain_matches_its_oracles(kind, spec, n, p):
    out = mc.khintchine_counterexample(n, p, spec)
    mean = out["lhs"].mean
    assert out["rhs_sum"] == float(n) and out["ratio"] == mean / n
    if kind == "binomial":
        power = int(p) if p.is_integer() else p
        total = sum(Fraction(math.comb(n, k)) * Fraction(abs(2 * k - n) ** power)
                    for k in range(n + 1))
        want = float(total / 2**n)
        assert mean == want if p.is_integer() else abs(mean - want) <= 2 * math.ulp(want)
        assert out["lhs"].replications == n + 1
    elif kind == "brute":
        want = mc.brute_force_lhs(spec, mc.coefficient_set([0.0] + [1.0] * n), p).mean
        assert mean == pytest.approx(want, rel=1e-14, abs=0.0)
    elif kind == "constant":
        want = float(n) ** p if spec is X_ONE else float(n % 2)
        assert mean == want and out["lhs"].replications == 1
    else:
        assert out["ratio"] == 3.0 * n - 2.0


def test_sign_chain_counts_sum_to_the_denominator():
    # twopoint pa 0.3: q = a / 2^54, so every path weighs a^k (2^54 - a)^(n - k)
    law, bits = mc._sign_chain(30, 0.3)
    assert bits == 54 * 30 and sum(c for _, c in law) == 2**bits
    assert [s for s, _ in law] == list(range(-30, 31, 2))


@pytest.mark.parametrize("n, p", [(100, 200.0), (100, 1e300), (1000, 1e300), (2, 1e308)])
def test_sign_chain_overflow_is_inf_without_huge_powers(n, p):
    # E|S|^p >= 2^-n n^p for signs, decided from p log2(n) before any power is taken
    out = mc.khintchine_counterexample(n, p)
    assert out["lhs"].mean == math.inf and out["ratio"] == math.inf


def test_sign_chain_moment_past_float_powers_is_still_exact():
    # 100^160 overflows a float, but P(S = s) |s|^160 does not: the mean is the
    # correctly rounded quotient of the exact integer sum
    law, bits = mc._sign_chain(100, 63 / 64)
    want = float(Fraction(sum(c * abs(s) ** 160 for s, c in law), 2**bits))
    assert math.isfinite(want) and mc._sign_chain_moment(law, bits, 160.0) == want
    assert math.isfinite(mc._sign_chain_moment(law, bits, 160.5))
    # X = -1: S = -1 at odd n, so every p is finite, p = 1e300 included
    assert mc.khintchine_counterexample(101, 1e300, X_MINUS_ONE)["lhs"].mean == 1.0


@pytest.mark.parametrize("n", [1, 2, 30, 100])
@pytest.mark.parametrize("p", [0.5, 2.0, 4.0, 20.0])
def test_counterexample_samples_enumerates_and_encloses_nothing(monkeypatch, n, p):
    def refuse(*args, **kwargs):
        raise AssertionError("the sign chain called another engine")

    for name in ("_sample_paths", "estimate_lhs", "brute_force_lhs"):
        monkeypatch.setattr(mc, name, refuse)
    # an import of the moment engine fails here
    monkeypatch.delattr(momsand, "moments", raising=False)
    monkeypatch.setitem(sys.modules, "momsand.moments", None)
    out = mc.khintchine_counterexample(n, p)
    assert out["lhs"].exact and out["lhs"].std_error == 0.0 and out["lhs"].seed is None


def test_negative_mass_of_an_all_negative_law_is_one():
    # normalized, these probabilities add up to just above 1 in math.fsum
    probs = (0.0035937290600572126, 0.17959422324141228, 0.5369927384455012, 0.2798193092530292)
    spec = dc.finitely_supported([(-1.0, pr) for pr in probs])
    assert math.fsum(pr for _, pr in spec.atoms) > 1.0
    # X = -1: S = -1 at odd n
    assert mc.khintchine_counterexample(5, 4.0, spec)["lhs"].mean == 1.0


def _per_vector_weighted_sum(coeffs, p, lam):
    """sum_i lambda^i ||v_i||^p with one holder_norm call per vector, as it was computed
    before the row norms came from one pass: the reference for lambda_weighted_sum."""

    def norm(vec):
        with np.errstate(over="ignore"):
            return float(mc.holder_norm(np.asarray([vec], dtype=float), coeffs.norm)[0])

    try:
        total = math.fsum(norm(v) ** p * lam**i for i, v in enumerate(coeffs.vectors))
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise NonfiniteMomentError(f"sum_i lambda^i ||v_i||^p overflows at p = {p}")
    return total


@pytest.mark.parametrize("norm", ["l1", "l2", "sup"])
@pytest.mark.parametrize("dim", [1, 3])
def test_weighted_sum_matches_the_per_vector_sum_bit_for_bit(norm, dim):
    rng = np.random.default_rng(17 + dim)
    sets = [mc.coefficient_set(rng.standard_normal((n + 1, dim)) * scale, norm)
            for n in (0, 1, 20) for scale in (1e-3, 1.0, 1e5)]
    for coeffs in sets:
        for p in (0.5, 1.0, 2.0, 3.5, 7.25):
            for lam in (0.0, 0.3, 1.0, 1.7):
                want = _per_vector_weighted_sum(coeffs, p, lam)
                assert mc.lambda_weighted_sum(coeffs, p, lam).hex() == want.hex()
    huge = mc.coefficient_set([[1e200] * dim, [1.0] * dim], norm)
    for p in (2.0, 3.5):
        with pytest.raises(NonfiniteMomentError):
            _per_vector_weighted_sum(huge, p, 0.5)
        with pytest.raises(NonfiniteMomentError):
            mc.lambda_weighted_sum(huge, p, 0.5)


def test_coefficient_matrix_is_built_once_and_read_only():
    vectors = ((1.0, -2.0), (0.5, 0.25), (-3.0, 4.0))
    coeffs = mc.CoefficientSet(vectors, "l1")
    matrix = coeffs.matrix()
    assert matrix is coeffs.matrix()
    assert matrix.dtype == np.float64 and matrix.tolist() == [list(v) for v in vectors]
    assert not matrix.flags.writeable
    with pytest.raises(ValueError):
        matrix[0, 0] = 7.0
    assert coeffs.vectors == vectors
    # equality and hashing see the vectors and the norm alone, as before
    twin = mc.coefficient_set([list(v) for v in vectors], "l1")
    assert twin == coeffs and twin.matrix() is not matrix
    assert hash(twin) == hash(coeffs) == hash((vectors, "l1"))
    assert mc.CoefficientSet(vectors, "l2") != coeffs
    assert len({coeffs, twin, mc.CoefficientSet(vectors, "l2")}) == 2
    assert "_matrix" not in repr(coeffs)
    renormed = dataclasses.replace(coeffs, norm="sup")
    assert renormed.norm == "sup" and not renormed.matrix().flags.writeable
    assert renormed.matrix().tolist() == matrix.tolist()
