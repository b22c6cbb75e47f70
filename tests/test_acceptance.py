"""Acceptance gate: one test per criterion, one [PASS]/[FAIL] line each.

The suites of certified random specs built for criteria 1 and 2 are shared
with criterion 9, so the tail checks run against exactly the distributions
the sandwich checks certified.
"""

import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from momsand import dist_core as dc
from momsand import montecarlo as mc
from momsand.assumptions import PairSpec
from momsand.cli import cmd_certify
from momsand.constants import (
    lower_constant_large_p,
    lower_constant_small_p,
    optimize_large_p,
    upper_constant_large_p,
)
from momsand.riesz import (
    LacunarySequence,
    RieszCombination,
    corollary_check,
    corollary_ratio_scan,
    riesz_lp_norm,
)
from momsand.assumptions import LargePCertificate, SmallPCertificate


def conclude(ok: bool, label: str):
    print(("[PASS] " if ok else "[FAIL] ") + label)
    assert ok, label


def random_two_point_texts(count=20, seed=20260816):
    rng = np.random.default_rng(seed)
    texts = []
    for _ in range(count):
        a = float(rng.uniform(0.1, 0.9))
        b = float(rng.uniform(1.1, 4.0))
        pa = float(rng.uniform(0.15, 0.85))
        texts.append(f"twopoint:a={a!r},b={b!r},pa={pa!r}")
    return texts


def coefficient_draws(rng, count=10, n_max=12, d_max=3):
    sets = []
    for _ in range(count):
        n = int(rng.integers(1, n_max + 1))
        d = int(rng.integers(1, d_max + 1))
        mat = rng.standard_normal((n + 1, d)) * rng.uniform(0.5, 2.0)
        if n >= 1 and (np.all(mat >= 0) or np.all(mat <= 0)):
            mat[0] = -mat[0]  # keep the signs mixed
        sets.append(mc.CoefficientSet(tuple(tuple(map(float, r)) for r in mat), "l2"))
    return sets


def build_suite(p_values, seed):
    """Certify 20 random two-point specs at each p via the CLI pipeline."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    rows = []
    for text in random_two_point_texts():
        for p in p_values:
            results, code = cmd_certify({"command": "certify", "dist": text, "p": p})
            assert code == 0
            spec = dc.parse_spec(results["normalized_spec"])
            rows.append(
                {
                    "spec": spec,
                    "p": p,
                    "bundle": results["bundle"],
                    "cert": results["certificate"],
                    "coeff_sets": coefficient_draws(rng),
                }
            )
    return {"rows": rows, "build_seconds": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def small_suite():
    return build_suite((0.3, 0.5, 1.0), seed=11)


@pytest.fixture(scope="module")
def large_suite():
    return build_suite((1.5, 2.0, 2.5), seed=12)


def test_criterion_01_small_p_sandwich(small_suite):
    t0 = time.perf_counter()
    failures = 0
    checks = 0
    for row in small_suite["rows"]:
        bundle = row["bundle"]
        for coeffs in row["coeff_sets"]:
            lhs = mc.brute_force_lhs(row["spec"], coeffs, row["p"]).mean
            rhs = mc.rhs_sum(row["spec"], coeffs, row["p"])
            tol = 1e-9 * rhs
            checks += 1
            if not (bundle.lower_c * rhs - tol <= lhs <= rhs + tol):
                failures += 1
    elapsed = small_suite["build_seconds"] + time.perf_counter() - t0
    ok = failures == 0 and checks == 20 * 3 * 10 and elapsed < 60.0
    conclude(
        ok,
        f"criterion 1: small-p sandwich exact, {checks} checks, "
        f"{failures} failures, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_02_large_p_sandwich(large_suite):
    t0 = time.perf_counter()
    failures = 0
    checks = 0
    for row in large_suite["rows"]:
        bundle = row["bundle"]
        product_c, recursive_c = upper_constant_large_p(
            row["p"], row["cert"].lam_chain
        )
        upper = min(recursive_c, product_c)
        for coeffs in row["coeff_sets"]:
            lhs = mc.brute_force_lhs(row["spec"], coeffs, row["p"]).mean
            rhs = mc.rhs_sum(row["spec"], coeffs, row["p"])
            tol = 1e-9 * rhs
            checks += 1
            if not (bundle.lower_c * rhs - tol <= lhs <= upper * rhs + tol):
                failures += 1
    elapsed = large_suite["build_seconds"] + time.perf_counter() - t0
    ok = failures == 0 and checks == 20 * 3 * 10 and elapsed < 120.0
    conclude(
        ok,
        f"criterion 2: large-p sandwich exact, {checks} checks, "
        f"{failures} failures, {elapsed:.1f}s (< 120s)",
    )


def test_criterion_03_p1_nonnegative_equality(small_suite):
    rng = np.random.default_rng(33)
    worst = 0.0
    checks = 0
    for row in small_suite["rows"]:
        if row["p"] != 1.0:
            continue
        for _ in range(5):
            n = int(rng.integers(1, 13))
            values = np.abs(rng.standard_normal(n + 1)) * rng.uniform(0.5, 2.0)
            coeffs = mc.coefficient_set([float(v) for v in values])
            lhs = mc.brute_force_lhs(row["spec"], coeffs, 1.0).mean
            rhs = mc.rhs_sum(row["spec"], coeffs, 1.0)
            worst = max(worst, abs(lhs - rhs) / rhs)
            checks += 1
    ok = checks == 100 and worst <= 1e-12
    conclude(
        ok,
        f"criterion 3: p=1 nonnegative equality, {checks} checks, "
        f"worst relative gap {worst:.2e} (<= 1e-12)",
    )


def test_criterion_04_khintchine_counterexample():
    out = mc.khintchine_counterexample(100, 4.0)
    est = out["lhs"]
    exact = 3 * 100**2 - 2 * 100
    ok = est.exact and est.mean == exact and out["ratio"] > 250.0
    conclude(
        ok,
        f"criterion 4: sign-product fourth moment {est.mean!r} vs {exact} (exact), "
        f"ratio {out['ratio']:.1f} (> 250)",
    )


def test_criterion_05_riesz_exactness():
    t0 = time.perf_counter()
    seq = LacunarySequence((4, 16, 64, 256, 1024))
    worst_mean = 0.0
    worst_second = 0.0
    worst_drift = 0.0
    for i in range(6):
        unit = RieszCombination(seq, (0.0,) * i + (1.0,))
        mean_c = riesz_lp_norm(unit, 1.0, quad_points=2**17)
        mean_f = riesz_lp_norm(unit, 1.0, quad_points=2**18)
        second_c = riesz_lp_norm(unit, 2.0, quad_points=2**17)
        second_f = riesz_lp_norm(unit, 2.0, quad_points=2**18)
        worst_mean = max(worst_mean, abs(mean_c.value - 1.0))
        worst_second = max(worst_second, abs(second_c.value - 1.5**i))
        worst_drift = max(
            worst_drift,
            abs(mean_f.value - mean_c.value) / max(abs(mean_f.value), 1.0),
            abs(second_f.value - second_c.value) / max(abs(second_f.value), 1.0),
        )
    elapsed = time.perf_counter() - t0
    ok = (
        worst_mean <= 1e-8
        and worst_second <= 1e-6
        and worst_drift < 1e-9
        and elapsed < 30.0
    )
    conclude(
        ok,
        f"criterion 5: torus means off by {worst_mean:.1e} (<= 1e-8), "
        f"second moments by {worst_second:.1e} (<= 1e-6), doubling drift "
        f"{worst_drift:.1e} (< 1e-9), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_06_corollary_coherence():
    seq = LacunarySequence((4, 16, 64, 256, 1024))
    src = dc.RandomSource(seed=0, stream_id=2)
    worst = 0.0
    for i in range(6):
        unit = RieszCombination(seq, (0.0,) * i + (1.0,))
        report = corollary_check(unit, 2.0, reps=1000, src=src)
        worst = max(worst, abs(report["ratio"] - 1.0))
    scan = corollary_ratio_scan(seq, 3.0, draws=20, reps=20_000, src=src)
    band = scan["max_ratio"] / scan["min_ratio"]
    ok = worst <= 1e-6 and band <= 10.0
    conclude(
        ok,
        f"criterion 6: p=2 single-term ratios off by {worst:.1e} (<= 1e-6), "
        f"p=3 ratio band factor {band:.2f} over 20 draws (<= 10)",
    )


def test_criterion_07_constant_formulas():
    rng = np.random.default_rng(77)
    bad = 0

    def witness_holds(bundle):
        entry = next(e for e in bundle.trace if e["id"] == "k_minimality")
        w = entry["inputs"]
        if not w["f_k"] <= w["ln_rhs"] + 1e-12:
            return False
        if w["k"] > 1 and not w["f_k_minus_1"] > w["ln_rhs"] - 1e-12:
            return False
        return True

    for _ in range(1000):
        lam = float(rng.uniform(0.05, 0.95))
        delta = float(rng.uniform(0.01, 1.0))
        a_param = float(rng.uniform(1.05, 10.0))
        cert = SmallPCertificate(
            p=float(rng.uniform(0.1, 1.0)), lam=lam, delta=delta,
            a_param=a_param, margins={},
        )
        if not witness_holds(lower_constant_small_p(cert)):
            bad += 1
    for _ in range(1000):
        p = float(rng.uniform(1.05, 4.0))
        lo, hi = max(p - 1.0, 1.0), p
        q = float(lo + (hi - lo) * rng.uniform(0.05, 0.95))
        cert = LargePCertificate(
            p=p,
            mu=float(rng.uniform(0.01, 1.0)),
            a_param=float(rng.uniform(1.5, 20.0)),
            q=q,
            lam=float(rng.uniform(0.1, 0.9)),
            lam_chain=tuple(rng.uniform(0.1, 0.9, size=math.ceil(p) - 1)),
            margins={},
        )
        if not witness_holds(lower_constant_large_p(cert)):
            bad += 1

    anchor = lower_constant_small_p(
        SmallPCertificate(p=1.0, lam=0.5, delta=0.5, a_param=2.0, margins={})
    )
    anchor_ok = anchor.k == 12 and anchor.lower_c == pytest.approx(
        1.0 / 1536.0, rel=1e-12
    )
    product_c, recursive_c = upper_constant_large_p(1.5, (0.5,))
    upper_ok = (
        recursive_c == pytest.approx(9.657, abs=5e-4)
        and product_c == pytest.approx(12.52, abs=5e-3)
        and recursive_c <= product_c
    )
    ok = bad == 0 and anchor_ok and upper_ok
    conclude(
        ok,
        f"criterion 7: k-minimality witness on 2000 random tuples "
        f"({bad} violations), k=12 c=1/1536 anchor, recursive "
        f"{recursive_c:.3f} <= product {product_c:.2f}",
    )


def test_criterion_08_goldie_bracket():
    x_spec = dc.two_point(0.6, math.sqrt(1.64), 0.5)  # E X^2 = 1
    b_spec = dc.two_point(0.5, 1.5, 0.5)
    pair = PairSpec(x_spec=x_spec, b_specs=(b_spec,), coupling="independent")
    bundle, _ = optimize_large_p(x_spec, 2.0)
    src = dc.RandomSource(seed=0, stream_id=3)

    constants = mc.bracket_constants(2.0, bundle)
    exact_rows = mc.goldie_bracket(pair, 2.0, list(range(1, 7)), constants, 1000, src)
    exact_ok = all(r.exact and r.verdict == mc.PASS for r in exact_rows)

    # 4^10 outcomes fit ENUM_CAP, so the first horizon past it is n = 12 (4^12 ~ 16.8M),
    # where the default engine encloses the rows by exact moments
    mc_rows = mc.goldie_bracket(pair, 2.0, [12, 25, 50], constants, 100_000, src.child(1))
    mc_ok = all((not r.exact) and r.engine == "moments" and r.verdict == mc.PASS
                for r in mc_rows)

    demo_pair = PairSpec(
        x_spec=dc.finitely_supported([(0.5, 1.0)]),
        b_specs=(dc.finitely_supported([(1.0, 1.0)]),),
        coupling="independent",
    )
    demo_rows = mc.goldie_bracket(
        demo_pair,
        1.0,
        [1, 2, 4, 8, 16, 32, 64],
        (0.05, 10.0, True),
        1000,
        src.child(2),
        require_normalized=False,
    )
    middles = [r.middle.mean for r in demo_rows]
    demo_ok = (
        all(a > b for a, b in zip(middles, middles[1:]))
        and middles[-1] < 0.05
        and demo_rows[-1].verdict == mc.FAIL
    )
    ok = exact_ok and mc_ok and demo_ok
    conclude(
        ok,
        "criterion 8: bracket holds exactly for n=1..6, by MC (1e5 reps) for "
        f"n=12,25,50, and the fixed-point pair sinks to {middles[-1]:.4f} "
        "(< 0.05 lower edge, verdict FAIL)",
    )


def test_criterion_09_tail_lemmas(small_suite, large_suite):
    violations = 0
    checks = 0
    for row in small_suite["rows"]:
        lam = row["cert"].lam
        for coeffs in row["coeff_sets"]:
            for out in mc.tail_check_small_p(row["spec"], coeffs, row["p"], lam):
                checks += 1
                violations += 0 if out["ok"] else 1
    for row in large_suite["rows"]:
        cert = row["cert"]
        for coeffs in row["coeff_sets"]:
            for out in mc.tail_check_large_p(
                row["spec"], coeffs, row["p"], cert.q, cert.lam
            ):
                checks += 1
                violations += 0 if out["ok"] else 1
    ok = violations == 0 and checks == 2 * 600 * 4
    conclude(
        ok,
        f"criterion 9: tail bounds at t in {{1,2,4,8}} over both certified "
        f"suites, {checks} checks, {violations} violations",
    )


def _cli_report(argv, threads):
    env = dict(os.environ)
    env["MOMSAND_THREADS"] = str(threads)
    proc = subprocess.run(
        [sys.executable, "-m", "momsand.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return re.sub(r'"wall_time_s": [0-9eE+.-]+', '"wall_time_s": 0', proc.stdout)


def test_criterion_10_thread_determinism():
    commands = [
        ["verify", "--dist", "twopoint:a=0.5,b=1.5,pa=0.5", "--p", "2.0",
         "--coeffs", "1,1,1,1", "--reps", "20000", "--seed", "3"],
        ["riesz", "--seq", "4,16,64", "--p", "2.5", "--coeffs", "1,0.5,-0.25",
         "--reps", "4000"],
    ]
    identical = True
    for argv in commands:
        single = _cli_report(argv, 1)
        repeat = _cli_report(argv, 1)
        quad = _cli_report(argv, 4)
        identical = identical and single == repeat == quad
    conclude(
        identical,
        "criterion 10: CLI reports byte-identical across reruns and "
        "MOMSAND_THREADS in {1,4} (wall-time excluded)",
    )
