"""Perpetuity partial sums: exact enumeration, coupling, bracket verdicts."""

import math

import numpy as np
import pytest

from momsand import dist_core as dc
from momsand import montecarlo as mc
from momsand.assumptions import PairSpec, draw_pair, fit_large_p, fit_small_p
from momsand.constants import lower_constant_large_p, optimize_small_p
from momsand.errors import ChainLengthMismatchError, EnumerationTooLargeError, NotNormalizedError
from momsand.montecarlo import (
    _b_norm_moment,
    bracket_constants,
    brute_force_perpetuity,
    dependent_upper_constant,
    goldie_bracket,
    perpetuity_lhs,
)

X_P2 = dc.two_point(0.6, math.sqrt(1.64), 0.5)  # E X^2 = 1
X_P1 = dc.two_point(0.5, 1.5, 0.5)  # E X = 1
B_SPEC = dc.two_point(0.5, 1.5, 0.5)


def src(seed=0, stream=9):
    return dc.RandomSource(seed=seed, stream_id=stream)


def indep_pair(x=X_P2, b=B_SPEC):
    return PairSpec(x_spec=x, b_specs=(b,), coupling="independent", norm="l2")


def test_single_step_equals_b_moment():
    pair = indep_pair()
    for p in (0.7, 1.0, 2.0):
        out = brute_force_perpetuity(pair, 1, p)
        expected = 0.5 * (0.5**p + 1.5**p)
        assert out.exact
        assert out.mean == pytest.approx(expected, abs=1e-12)


def test_two_step_manual_independent():
    pair = indep_pair()
    # S_2 = B_1 + X_1 B_2 over the 2x2x2 tree of (B_1, X_1, B_2)
    atoms_b = (0.5, 1.5)
    atoms_x = (0.6, math.sqrt(1.64))
    total = 0.0
    for b1 in atoms_b:
        for x1 in atoms_x:
            for b2 in atoms_b:
                total += abs(b1 + x1 * b2) ** 2 / 8.0
    out = brute_force_perpetuity(pair, 2, 2.0)
    assert out.mean == pytest.approx(total, rel=1e-13)


def test_nonnegative_p1_partial_sums_are_linear():
    x = dc.finitely_supported([(0.0, 0.5), (2.0, 0.5)])  # E X = 1
    pair = indep_pair(x=x, b=B_SPEC)
    # nonnegative steps at p = 1: E S_n = sum E R_{i-1} E B_i = n exactly
    for n in range(1, 8):
        out = brute_force_perpetuity(pair, n, 1.0)
        assert out.mean == pytest.approx(float(n), rel=1e-12)


def test_brute_vs_monte_carlo_independent():
    pair = indep_pair()
    exact = brute_force_perpetuity(pair, 6, 2.0).mean
    est = perpetuity_lhs(pair, 6, 2.0, reps=40_000, src=src(1))
    assert abs(est.mean - exact) <= 4.0 * est.std_error


def test_brute_vs_monte_carlo_comonotone():
    pair = PairSpec(x_spec=X_P2, b_specs=(B_SPEC,), coupling="comonotone-scalar")
    exact = brute_force_perpetuity(pair, 6, 2.0).mean
    est = perpetuity_lhs(pair, 6, 2.0, reps=40_000, src=src(2))
    assert abs(est.mean - exact) <= 4.0 * est.std_error


def test_comonotone_cells_follow_the_atoms_value_order():
    # the same laws declared in decreasing atom order give the same cells and bits
    b = dc.finitely_supported([(1.0, 0.5), (2.0, 0.5)])
    up = PairSpec(dc.two_point(0.5, 1.5, 0.7), (b,), coupling="comonotone-scalar")
    down = PairSpec(dc.two_point(1.5, 0.5, 0.3), (dc.finitely_supported([(2.0, 0.5), (1.0, 0.5)]),),
                    coupling="comonotone-scalar")
    exact = brute_force_perpetuity(up, 3, 2.0)
    assert brute_force_perpetuity(down, 3, 2.0) == exact
    assert exact.mean == pytest.approx(17.16375, rel=1e-12)


def test_comonotone_differs_from_independent():
    dep = PairSpec(x_spec=X_P2, b_specs=(B_SPEC,), coupling="comonotone-scalar")
    ind = indep_pair()
    v_dep = brute_force_perpetuity(dep, 4, 2.0).mean
    v_ind = brute_force_perpetuity(ind, 4, 2.0).mean
    # positively coupled steps push mass outward: strictly larger second moment
    assert v_dep > v_ind * 1.01


def test_perpetuity_determinism_and_threads(monkeypatch):
    pair = indep_pair()
    monkeypatch.setenv("MOMSAND_THREADS", "1")
    a = perpetuity_lhs(pair, 12, 2.0, reps=20_000, src=src(5))
    monkeypatch.setenv("MOMSAND_THREADS", "4")
    b = perpetuity_lhs(pair, 12, 2.0, reps=20_000, src=src(5))
    assert a == b


@pytest.mark.parametrize("pair", [
    # a vector B with a dyadic and a continuous component
    PairSpec(x_spec=dc.uniform(0.0, 2.0), b_specs=(B_SPEC, dc.exponential(1.0))),
    # a dyadic X, drawn like every law from one uniform per value
    PairSpec(x_spec=X_P2, b_specs=(dc.uniform(0.0, 1.0), dc.two_point(0.4, 1.3, 0.3))),
    PairSpec(x_spec=dc.uniform(0.0, 2.0), b_specs=(dc.exponential(1.0),),
             coupling="comonotone-scalar"),
    # comonotone with a dyadic B: X and B read the one shared uniform
    PairSpec(x_spec=X_P2, b_specs=(B_SPEC,), coupling="comonotone-scalar"),
], ids=["independent_mixed_b", "independent_dyadic_x", "comonotone", "comonotone_dyadic"])
def test_sampled_blocks_match_the_per_block_reference(monkeypatch, pair):
    # 11 full blocks and a short one, one pool task each, at 1, 2 and 3
    # workers.  The reference steps each block alone: block j draws every
    # step's (X, B) from its own generator, in order
    n, p, reps = 30, 2.0, 11 * mc.CHUNK + 5
    values = []
    for j, start in enumerate(range(0, reps, mc.CHUNK)):
        m = min(mc.CHUNK, reps - start)
        gen = src(6).generator(block=j)
        acc, r = np.zeros((pair.dim, m)), np.ones(m)
        for _ in range(n):
            x, b = draw_pair(pair, m, gen)
            acc = acc + b.T * r
            r = r * x
        values.append(mc.holder_norm(acc.T, pair.norm) ** p)
    expect = mc._stats(np.concatenate(values), reps, 6)
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("MOMSAND_THREADS", threads)
        assert perpetuity_lhs(pair, n, p, reps, src(6)) == expect


def test_dependent_upper_constant_anchors():
    assert dependent_upper_constant(0.5, ()) == 1.0
    assert dependent_upper_constant(1.0, ()) == 1.0
    # p = 2, chain (1/2): 4 (1 + 1 / (1 - 1/2)) = 12
    assert dependent_upper_constant(2.0, (0.5,)) == pytest.approx(12.0, rel=1e-14)
    with pytest.raises(ChainLengthMismatchError):
        dependent_upper_constant(2.5, (0.5,))


def test_dependent_constant_dominates_independent():
    from momsand.constants import upper_constant_large_p

    rng = np.random.default_rng(16)
    for _ in range(50):
        p = float(rng.uniform(1.05, 4.0))
        chain = tuple(rng.uniform(0.1, 0.9, size=math.ceil(p) - 1))
        dep = dependent_upper_constant(p, chain)
        _, recursive = upper_constant_large_p(p, chain)
        assert dep >= recursive - 1e-9


def test_b_norm_moment_vector_exact():
    b1 = dc.two_point(1.0, 2.0, 0.5)
    b2 = dc.finitely_supported([(0.0, 0.5), (3.0, 0.5)])
    pair = PairSpec(x_spec=X_P1, b_specs=(b1, b2), coupling="independent", norm="l2")
    out = _b_norm_moment(pair, 1.0, reps=0, src=src())
    expected = (1.0 + math.sqrt(10.0) + 2.0 + math.sqrt(13.0)) / 4.0
    assert out.exact
    assert out.mean == pytest.approx(expected, rel=1e-13)


def test_b_norm_moment_samples_a_continuous_vector_b_as_the_first_row(monkeypatch):
    # S_1 = B_1, so a B that is neither finite nor scalar is the n = 1 perpetuity row
    pair = PairSpec(X_P1, (dc.uniform(0.0, 1.0), dc.exponential(1.0)), norm="l2")
    # the moment engine takes it: p = 2 is an exact order, E B_1^2 + E B_2^2
    enc = _b_norm_moment(pair, 2.0, reps=0, src=src(4))
    assert enc.orders == (2,)
    assert enc.lower <= 1.0 / 3.0 + 2.0 <= enc.upper
    assert enc.upper - enc.lower <= 1e-12 * enc.upper
    # where the moment engine does not apply, the row is sampled
    monkeypatch.setattr(mc, "_no_moments", lambda *args: "sampled for the test")
    out = _b_norm_moment(pair, 2.0, reps=5000, src=src(4))
    want = perpetuity_lhs(pair, 1, 2.0, 5000, src(4).child(10_000))
    assert not out.exact
    assert out == want  # every field, mean and std_error bit for bit
    # too few reps are raised to MIN_REPS, as for every sampled moment
    assert _b_norm_moment(pair, 2.0, reps=0, src=src(4)).replications == mc.MIN_REPS


# five X atoms times two B atoms: 10 joint atoms per step, so 10^n outcomes
TEN_ATOM_PAIR = PairSpec(
    dc.finitely_supported([(0.2, 0.2), (0.6, 0.2), (1.0, 0.2), (1.4, 0.2), (1.8, 0.2)]),
    (B_SPEC,),
)


def test_one_cap_bounds_the_perpetuity_rows(sampled):
    rows = goldie_bracket(
        TEN_ATOM_PAIR, 1.0, [7, 8], (0.01, 100.0, True), reps=1000, src=src(),
        require_normalized=False,
    )
    assert [(row.n, row.exact, row.middle.replications) for row in rows] == [
        (7, True, mc.ENUM_CAP), (8, False, 1000)
    ]
    with pytest.raises(EnumerationTooLargeError):
        brute_force_perpetuity(TEN_ATOM_PAIR, 8, 1.0)


def test_sampled_rows_never_build_the_pairs_joint_atoms(monkeypatch):
    # 2 x 300 x 300 = 180,000 joint atoms per step: 180,000^2 outcomes pass ENUM_CAP
    wide = dc.finitely_supported([(float(k), 1.0 / 300) for k in range(1, 301)])
    pair = PairSpec(x_spec=X_P1, b_specs=(wide, wide))
    built = []
    real = mc._pair_branches
    monkeypatch.setattr(mc, "_pair_branches", lambda p: built.append(p) or real(p))
    rows = goldie_bracket(pair, 1.0, [2, 3], (0.01, 100.0, True), reps=1000, src=src())
    assert [row.exact for row in rows] == [False, False]
    # only E||B||^p enumerates: the 90,000 atoms of B alone, X held at 1
    assert rows[0].b_moment.exact and rows[0].b_moment.replications == 90_000
    assert pair not in built


def test_goldie_bracket_independent_exact_rows():
    pair = indep_pair()
    cert = fit_large_p(X_P2, 2.0)
    bundle = lower_constant_large_p(cert)
    constants = bracket_constants(2.0, bundle)
    rows = goldie_bracket(pair, 2.0, [1, 2, 3, 4, 5, 6], constants, reps=10_000, src=src())
    assert len(rows) == 6
    for row in rows:
        assert row.exact
        assert row.lower_certified
        assert row.verdict == mc.PASS
        assert row.lower_edge <= row.middle.mean <= row.upper_edge


def test_goldie_bracket_monte_carlo_rows(sampled):
    pair = indep_pair()
    cert = fit_large_p(X_P2, 2.0)
    constants = bracket_constants(2.0, lower_constant_large_p(cert), cert)
    # 4^10 outcomes fit ENUM_CAP, so the first sampled horizon is n = 12 (4^12 ~ 16.8M)
    rows = goldie_bracket(pair, 2.0, [12, 25, 50], constants, reps=100_000, src=src(3))
    for row in rows:
        assert not row.exact
        assert row.middle.std_error > 0
        assert row.verdict == mc.PASS


def test_goldie_bracket_small_p_certificate():
    pair = indep_pair(x=X_P1, b=B_SPEC)
    bundle, _ = optimize_small_p(X_P1, 1.0)
    constants = bracket_constants(1.0, bundle)
    rows = goldie_bracket(pair, 1.0, [1, 2, 4], constants, reps=10_000, src=src())
    for row in rows:
        assert row.verdict == mc.PASS


def test_goldie_bracket_dependent_upper_only():
    pair = PairSpec(x_spec=X_P2, b_specs=(B_SPEC,), coupling="comonotone-scalar")
    cert = fit_large_p(X_P2, 2.0)
    bundle = lower_constant_large_p(cert)
    constants = bracket_constants(2.0, bundle, cert, pair.coupling)
    rows = goldie_bracket(pair, 2.0, [1, 2, 3], constants, reps=10_000, src=src())
    for row in rows:
        assert not row.lower_certified
        assert row.verdict == mc.PASS
        assert row.upper_edge > row.middle.mean


@pytest.mark.parametrize("coupling", ["independent", "comonotone-scalar"])
def test_bracket_constants_rejects_a_regime_mismatch(coupling):
    pair = PairSpec(x_spec=X_P2, b_specs=(B_SPEC,), coupling=coupling)
    small, _ = optimize_small_p(X_P1, 1.0)
    cert = fit_large_p(X_P2, 2.0)
    with pytest.raises(ValueError, match="SmallP bundle used with p > 1"):
        bracket_constants(2.0, small, cert, pair.coupling)
    with pytest.raises(ValueError, match="LargeP bundle used with p <= 1"):
        bracket_constants(1.0, lower_constant_large_p(cert), cert, pair.coupling)


def test_goldie_bracket_requires_normalization():
    pair = indep_pair(x=X_P1)  # E X^2 = 1.25, not normalized at p = 2
    with pytest.raises(NotNormalizedError):
        goldie_bracket(pair, 2.0, [1], (0.1, 10.0, True), reps=10_000, src=src())


def test_fixed_point_demo_exits_bracket():
    x = dc.finitely_supported([(0.5, 1.0)])
    b = dc.finitely_supported([(1.0, 1.0)])
    pair = PairSpec(x_spec=x, b_specs=(b,), coupling="independent")
    rows = goldie_bracket(
        pair,
        1.0,
        [1, 2, 4, 8, 16, 32, 64],
        (0.05, 10.0, True),
        reps=10_000,
        src=src(),
        require_normalized=False,
    )
    middles = [row.middle.mean for row in rows]
    # closed form: S_n = 2 (1 - 2^{-n}), so (1/n) E S_n shrinks like 2/n
    for row in rows:
        expected = 2.0 * (1.0 - 0.5**row.n) / row.n
        assert row.middle.mean == pytest.approx(expected, rel=1e-12)
    assert all(a > b for a, b in zip(middles, middles[1:]))
    assert rows[-1].verdict == mc.FAIL
    assert rows[0].verdict == mc.PASS
