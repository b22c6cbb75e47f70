"""Command-line harness: exit codes, report shape, config precedence."""

import dataclasses
import hashlib
import inspect
import json
import math
import os
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momsand import cli, errors
from momsand import dist_core as dc
from momsand import montecarlo as mc
from momsand import riesz
from momsand._pool import map_indexed, worker_count
from momsand.assumptions import fit_large_p, fit_small_p
from momsand.cli import main
from momsand.constants import lower_constant_large_p, lower_constant_small_p

TP = "twopoint:a=0.5,b=1.5,pa=0.5"
TP_LARGE = "twopoint:a=0.6,b=1.2806248474865698,pa=0.5"


def _reject_constant(name):
    raise ValueError(f"stdout is not strict JSON: {name}")


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    report = json.loads(out, parse_constant=_reject_constant) if out.strip() else None
    return code, report, out


def test_moments_riesz_table(capsys):
    code, report, _ = run_cli(capsys, ["moments", "--dist", "riesz", "--q", "1,2"])
    assert code == 0
    assert report["tool"] == "momsand"
    assert report["command"] == "moments"
    table = report["results"]["table"]
    assert table[0]["value"] == pytest.approx(1.0)
    assert table[1]["value"] == pytest.approx(1.5)
    assert [sorted(row) for row in table] == [["q", "value"]] * 2


def test_malformed_dist_is_usage_error(capsys):
    code = main(["moments", "--dist", "nosuch:family=1"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "usage error" in err


def test_missing_required_flag(capsys):
    code, report, _ = run_cli(capsys, ["certify", "--p", "1.0"])
    assert code == 2


def test_certify_small_p(capsys):
    code, report, _ = run_cli(capsys, ["certify", "--dist", TP, "--p", "1.0"])
    assert code == 0
    bundle = report["results"]["bundle"]
    assert bundle["regime"] == "SmallP"
    assert bundle["upper_C"] == 1.0
    assert 0.0 < bundle["lower_c"] < 1.0
    cert = report["results"]["certificate"]
    assert cert["lam"] == pytest.approx(0.9659258262890682, abs=1e-12)
    assert cert["a_param"] == 1.5
    recheck = report["results"]["recheck"]
    assert all(v >= -1e-9 for v in recheck.values())


def test_certify_degenerate_exit_three(capsys):
    code, report, _ = run_cli(capsys, ["certify", "--dist", "rademacher", "--p", "1.0"])
    assert code == 3
    assert report is None


def test_certify_large_p_trace_witness(capsys):
    code, report, _ = run_cli(capsys, ["certify", "--dist", TP_LARGE, "--p", "2.0"])
    assert code == 0
    bundle = report["results"]["bundle"]
    assert bundle["regime"] == "LargeP"
    assert bundle["upper_C"] > 1.0
    witnesses = [e for e in bundle["trace"] if e["id"] == "k_minimality"]
    assert len(witnesses) == 1
    w = witnesses[0]["inputs"]
    assert w["f_k"] <= w["ln_rhs"] + 1e-12
    if witnesses[0]["value"] > 1:
        assert w["f_k_minus_1"] > w["ln_rhs"] - 1e-12


def _as_json(obj):
    return json.loads(json.dumps(dataclasses.asdict(obj)))


@pytest.mark.parametrize(
    "dist, p, grids",
    [
        ("uniform:lo=0,hi=2", 0.5, []),
        ("uniform:lo=0,hi=2", 0.5, ["--grid-a", "1.05,4,1.5"]),
        ("exponential:rate=1", 3.5, []),
        # q = 1.2 lies outside (max(p - 1, 1), p) = (1.5, 2.5)
        ("uniform:lo=0,hi=2", 2.5, ["--grid-a", "3,1.5", "--grid-q", "2.4,1.2,1.6,2"]),
    ],
)
def test_certify_reports_the_scan_winner(capsys, dist, p, grids):
    code, report, _ = run_cli(capsys, ["certify", "--dist", dist, "--p", str(p), *grids])
    assert code == 0
    cert, bundle = report["results"]["certificate"], report["results"]["bundle"]
    scan = bundle["trace"][-1]
    spec, _ = dc.normalize_unit_p_moment(dc.parse_spec(dist), p)
    if p <= 1.0:
        assert scan["id"] == "a_scan"
        fresh = fit_small_p(spec, p, a_param=scan["value"])
        fresh_bundle = lower_constant_small_p(fresh)
    else:
        assert scan["id"] == "aq_scan"
        a_val, q = scan["value"]
        fresh = fit_large_p(spec, p, q_grid=[q], a_grid=[a_val])
        fresh_bundle = lower_constant_large_p(fresh)
    assert cert == _as_json(fresh)
    expected = _as_json(fresh_bundle)
    expected["trace"].append(scan)
    assert bundle == expected
    # the winner is the first candidate with the largest lower_c
    candidates = scan["inputs"]["candidates"]
    lower = [c["lower_c"] for c in candidates]
    winner = candidates[lower.index(max(c for c in lower if c is not None))]
    assert bundle["lower_c"] == winner["lower_c"]
    point = [scan["value"]] if p <= 1.0 else scan["value"]
    assert [winner[k] for k in ("a_param", "q")[: len(point)]] == point


def test_verify_explicit_coefficients(capsys):
    code, report, _ = run_cli(
        capsys,
        ["verify", "--dist", TP, "--p", "1.0", "--coeffs", "1,-1,1", "--reps", "2000"],
    )
    assert code == 0
    res = report["results"]
    assert res["draws"] == 1
    assert res["min_ratio"] == pytest.approx(1.0 / 3.0, rel=1e-9)
    assert res["all_pass"] is True
    assert res["reports"][0]["report"]["verdict"] == "PASS"
    assert res["reports"][0]["report"]["lhs"]["exact"] is True


def test_verify_vector_coefficients(capsys):
    code, report, _ = run_cli(
        capsys,
        [
            "verify",
            "--dist",
            TP,
            "--p",
            "1.0",
            "--coeffs",
            "1,0;0,1;1,1",
            "--reps",
            "2000",
        ],
    )
    assert code == 0
    rows = report["results"]["reports"]
    assert rows[0]["coefficients"] == [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]


def test_verify_degenerate_reports_counterexample(capsys):
    code, report, _ = run_cli(
        capsys,
        ["verify", "--dist", "rademacher", "--p", "4.0", "--n", "20", "--reps", "2000"],
    )
    assert code == 1
    res = report["results"]
    assert res["verdict"] == "FAIL"
    # the exact sign chain: E S^4 = 3 n^2 - 2n at n = 20, rhs_sum = n
    assert res["counterexample"]["ratio"] == 58.0


def test_verify_single_coefficient_ratio_one(capsys):
    code, report, _ = run_cli(
        capsys, ["verify", "--dist", TP, "--p", "1.0", "--coeffs", "2", "--reps", "2000"]
    )
    assert code == 0
    assert report["results"]["min_ratio"] == pytest.approx(1.0, rel=1e-12)


def test_verify_random_draws(capsys):
    code, report, _ = run_cli(
        capsys,
        [
            "verify",
            "--dist",
            TP,
            "--p",
            "0.5",
            "--n",
            "4",
            "--coeffs",
            "random:count=5,seed=3",
            "--reps",
            "2000",
        ],
    )
    assert code == 0
    res = report["results"]
    assert res["draws"] == 5
    assert res["all_pass"] is True
    assert 0.0 < res["min_ratio"] <= res["max_ratio"] <= 1.0 + 1e-9


@pytest.mark.parametrize("p", ["0.5", "2.5"])
def test_verify_rows_take_the_top_level_bundle(capsys, p):
    code, report, _ = run_cli(
        capsys,
        ["verify", "--dist", TP, "--p", p, "--n", "3", "--coeffs", "random:count=3,seed=1",
         "--reps", "2000"],
    )
    assert code == 0
    assert report["results"]["bundle"]["lower_c"] > 0.0
    for row in report["results"]["reports"]:
        assert set(row["report"]) == {"engine", "lhs", "ratio", "reason", "rhs_sum", "verdict"}


def test_riesz_term(capsys):
    code, report, _ = run_cli(
        capsys, ["riesz", "--seq", "4,16,64", "--p", "2.0", "--term", "2"]
    )
    assert code == 0
    res = report["results"]
    assert res["torus"]["value"] == pytest.approx(2.25, rel=1e-8)
    assert res["probabilistic_exact"] == pytest.approx(2.25)
    assert res["lacunary"]["lacunary"] is True


def test_riesz_needs_a_mode(capsys):
    code, _, _ = run_cli(capsys, ["riesz", "--seq", "4,16,64", "--p", "2.0"])
    assert code == 2


@pytest.mark.parametrize("term", ["-1", "4"])
def test_riesz_term_out_of_range_is_usage_error(capsys, term):
    code = main(["riesz", "--seq", "4,16,64", "--p", "3", "--term", term])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"--term {term}" in captured.err


RIESZ_SEQ_8 = ",".join(str(4**k) for k in range(1, 9))


@pytest.mark.parametrize("mode", [["--term", "8"], ["--coeffs", "1,0.5,-0.5"], ["--draws", "1"]])
@pytest.mark.parametrize("p", ["nan", "inf", "-inf", "0.5"])
def test_riesz_order_outside_one_to_inf_is_rejected_before_the_grid(capsys, monkeypatch, p, mode):
    def no_grid(*args):
        raise AssertionError("a torus grid pass ran")

    monkeypatch.setattr(riesz, "_combination_values", no_grid)
    code = main(["riesz", "--seq", RIESZ_SEQ_8, f"--p={p}", *mode])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"usage error: torus norms need a finite p >= 1, got p = {float(p)}"
    ]


@pytest.mark.parametrize("mode", [["--term", "8"], ["--coeffs", "1,0.5,-0.5"], ["--draws", "1"]])
@pytest.mark.parametrize("points", [2**31 + 1, 2**31 + 2, 10**18])
def test_riesz_grid_above_the_cap_is_rejected_before_the_grid(capsys, monkeypatch, points, mode):
    def no_grid(*args):
        raise AssertionError("a torus grid pass ran")

    monkeypatch.setattr(riesz, "_combination_values", no_grid)
    code = main(["riesz", "--seq", RIESZ_SEQ_8, "--p", "3", "--quad-points", str(points), *mode])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"usage error: {points} grid points exceed the cap of 2^31 = 2147483648"
    ]


NONFINITE_CASES = [
    (["riesz", "--seq", "4,16,64", "--p", "4", "--coeffs=1e100,1e100", "--reps", "1000"],
     "torus L_p norm"),
    # the torus value is finite here, the Monte Carlo standard error is not (mixed signs
    # at p = 3 are sampled; one-signed coefficients get the finite exact value)
    (["riesz", "--seq", "4,16,64", "--p", "3", "--coeffs=1e100,-1e100", "--reps", "1000"],
     "probabilistic side"),
    (["verify", "--dist", TP, "--p", "4", "--n", "3", "--coeffs", "1e100,1e100,1e100,1e100"],
     "sum_i lambda^i ||v_i||^p overflows"),
    # E||S|| is about 4e154, but in d = 2 the l2 norm squares the entries: exact enumeration
    (["verify", "--dist", TP, "--p", "1", "--n", "3",
      "--coeffs", "1e154,0;1e154,0;1e154,0;1e154,0"],
     "is not finite"),
    # the moment engine: v^4 passes the float range though sum ||v_i||^p does not,
    # and a component's E B^2 overflows before any row runs
    (["verify", "--dist", "uniform:lo=0,hi=2", "--p", "2.5", "--n", "2",
      "--coeffs", "1e80,1e80,1e80"],
     "the moments of order up to 4 overflow"),
    (["verify", "--dist", "uniform:lo=0,hi=2", "--p", "2", "--n", "3",
      "--coeffs", "1e153,1e153,1e153,1e153"],
     "the moments of order up to 4 overflow"),
    (["perpetuity", "--dist", "uniform:lo=0,hi=2",
      "--b-dist", "scaled:scale=1e200,base=(uniform:lo=0,hi=1)", "--b-dist", "uniform:lo=0,hi=1",
      "--p", "2", "--n-list", "1"],
     "E X^2 overflows"),
    # the normalized copy's E X^2 is scale^2 * 2 / rate^2, and rate^2 underflows to 0
    (["verify", "--dist", "exponential:rate=1e-300", "--p", "0.5", "--n", "5",
      "--coeffs", "random:count=2,seed=1", "--reps", "1000"],
     "E X^2 overflows for scaled:"),
    # a single coefficient: ||v_0||^p is a Python float power, exact and Monte Carlo
    (["verify", "--dist", TP, "--p", "4", "--coeffs", "1e100"], "||v_0||^p overflows"),
    (["verify", "--dist", "uniform:lo=0,hi=2", "--p", "4", "--coeffs", "1e100"],
     "||v_0||^p overflows"),
    # the large-p upper constant's product form passes the float range
    (["certify", "--dist", "uniform:lo=0,hi=2", "--p", "300"], "overflows at p = 300.0"),
    (["perpetuity", "--dist", "uniform:lo=0,hi=2", "--b-dist", "uniform:lo=0,hi=1",
      "--p", "300", "--n-list", "2", "--reps", "4096"],
     "overflows at p = 300.0"),
    # E(1 + cos U)^q passes the float range at q = 1030; 10^9 must not run comb(2q, q)
    (["moments", "--dist", "riesz", "--q", "1100"], "overflows at q = 1100.0"),
    (["moments", "--dist", "riesz", "--q", "1000000000"], "overflows at q = 1000000000.0"),
]


@pytest.mark.parametrize("argv, message", NONFINITE_CASES)
def test_nonfinite_results_are_usage_errors(capsys, argv, message):
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(argv)
    captured = capsys.readouterr()
    if captured.out.strip():
        json.loads(captured.out, parse_constant=_reject_constant)
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("argv, rhs", [
    (["verify", "--dist", TP, "--p", "1", "--n", "3", "--coeffs", "1e154,1e154,1e154,1e154"],
     4e154),
    (["verify", "--dist", TP, "--p", "0.5", "--coeffs", "1e200,1e200"], 2e100),
])
def test_scalar_norms_square_nothing(capsys, argv, rhs):
    # in d = 1 every norm is |x|, finite where the squares of the entries are not
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    (row,) = json.loads(out, parse_constant=_reject_constant)["results"]["reports"]
    assert row["report"]["verdict"] == "PASS"
    assert row["report"]["rhs_sum"] == pytest.approx(rhs, rel=1e-15)


# the sampled path past the cap: the sum of |S|^2 overflows, and for lognormal factors the
# squares do; a perpetuity row and the Monte Carlo E||B||^p both overflow
SAMPLED_NONFINITE_CASES = [
    ["verify", "--dist", "uniform:lo=0,hi=2", "--p", "2", "--n", "3",
     "--coeffs", "1e153,1e153,1e153,1e153", "--reps", "2000"],
    ["verify", "--dist", "lognormal:mu=0,sigma=1", "--p", "2", "--n", "3",
     "--coeffs", "1e153,1e153,1e153,1e153", "--reps", "2000"],
    ["perpetuity", "--dist", "uniform:lo=0,hi=2",
     "--b-dist", "scaled:scale=1e200,base=(uniform:lo=0,hi=1)", "--b-dist", "uniform:lo=0,hi=1",
     "--p", "2", "--n-list", "1", "--reps", "2000"],
]


@pytest.mark.parametrize("threads", [None, "2"])
@pytest.mark.parametrize("argv", SAMPLED_NONFINITE_CASES)
def test_sampled_nonfinite_results_are_usage_errors_without_warnings(capsys, monkeypatch,
                                                                     sampled, threads, argv):
    if threads is None:
        monkeypatch.delenv("MOMSAND_THREADS", raising=False)
    else:
        monkeypatch.setenv("MOMSAND_THREADS", threads)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "is not finite" in err


# finite Riesz moments past q = 510, where a quadrature raised an IntegrationWarning
FINITE_LARGE_Q = ["moments", "--dist", "riesz", "--q", "600,1000.5"]
# the demo never normalizes X, so its bracket must check the order itself
FIXED_POINT_ORDERS = [
    ["perpetuity", "--fixed-point-demo", f"--p={p}", "--reps", "2000"]
    for p in ("0", "-1", "nan", "inf")
]


@pytest.mark.parametrize("threads", [None, "2"])
@pytest.mark.parametrize(
    "argv",
    [argv for argv, _ in NONFINITE_CASES]
    + [["moments", "--dist", TP, "--q", "2000"], ["moments", "--dist", "riesz", "--q", "2000"]]
    # an infinite order is rejected before any family's moment runs
    + [["verify", "--dist", "riesz", "--p", "inf", "--n", "3"],
       ["moments", "--dist", "riesz", "--q", "inf"],
       ["verify", "--config", "CONFIG"]]
    + [FINITE_LARGE_Q]
    + FIXED_POINT_ORDERS,
)
def test_nonfinite_paths_emit_no_numpy_warnings(capsys, monkeypatch, tmp_path, threads, argv):
    if "CONFIG" in argv:
        path = tmp_path / "cfg.json"
        path.write_text('{"dist": "riesz", "p": 1e400, "n": 3}')  # JSON's 1e400 reads as inf
        argv = [str(path) if arg == "CONFIG" else arg for arg in argv]
    if threads is None:
        monkeypatch.delenv("MOMSAND_THREADS", raising=False)
    else:
        monkeypatch.setenv("MOMSAND_THREADS", threads)
    # every category: SciPy's IntegrationWarning is a UserWarning, not a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out, err = capsys.readouterr()
    if argv == FINITE_LARGE_Q:
        assert (code, err) == (0, "")
        json.loads(out, parse_constant=_reject_constant)
        return
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("usage error: ")
    if argv in FIXED_POINT_ORDERS:
        assert "moment order must be positive and finite" in err


def test_riesz_dense_sequence_exit_three(capsys):
    code, _, _ = run_cli(
        capsys, ["riesz", "--seq", "2,4,8", "--p", "2.0", "--coeffs", "1,1"]
    )
    assert code == 3


def test_perpetuity_independent_rows(capsys):
    code, report, _ = run_cli(
        capsys,
        [
            "perpetuity",
            "--dist",
            TP_LARGE,
            "--b-dist",
            TP,
            "--p",
            "2.0",
            "--n-list",
            "1,2,3",
            "--reps",
            "5000",
        ],
    )
    assert code == 0
    res = report["results"]
    assert len(res["rows"]) == 3
    assert all(row["verdict"] == "PASS" for row in res["rows"])
    assert res["nondegeneracy"] == {"exact": True, "fixed_point": None}


def test_perpetuity_rows_ignore_the_declared_atom_order(capsys):
    # the comonotone cells cut at each law's atoms in value order, as the quantile does;
    # finite laws, since twopoint's 1 - pa makes the two declarations differ in a bit
    rows = []
    for x in ("finite:atoms=1.5@0.3|0.5@0.7", "finite:atoms=0.5@0.7|1.5@0.3"):
        code, report, _ = run_cli(
            capsys,
            ["perpetuity", "--dist", x, "--b-dist", "finite:atoms=1@0.5|2@0.5",
             "--coupling", "comonotone-scalar", "--p", "2", "--n-list", "1,2,3"],
        )
        assert code == 0
        assert all(row["exact"] for row in report["results"]["rows"])
        rows.append(report["results"]["rows"])
    assert rows[0] == rows[1]


@pytest.mark.parametrize("p", ["0", "-1", "nan", "inf"])
def test_counterexample_rejects_the_order_before_sampling(capsys, monkeypatch, p):
    def spy(*args, **kwargs):
        raise AssertionError("sampled before the order check")

    monkeypatch.setattr(mc, "_sample_paths", spy)
    line = _usage_error_line(capsys, ["counterexample", f"--p={p}", "--reps", "1000"])
    assert "moment order must be positive and finite" in line


def test_perpetuity_fixed_point_demo(capsys):
    code, report, _ = run_cli(
        capsys, ["perpetuity", "--fixed-point-demo", "--p", "1.0", "--reps", "2000"]
    )
    assert code == 0
    res = report["results"]
    assert res["demonstrated"] is True
    assert res["rows"][-1]["verdict"] == "FAIL"
    middles = [row["middle"]["mean"] for row in res["rows"]]
    assert middles == sorted(middles, reverse=True)


def test_counterexample_command(capsys):
    code, report, _ = run_cli(
        capsys, ["counterexample", "--n", "100", "--p", "4.0", "--reps", "100000"]
    )
    assert code == 0
    assert report["results"]["counterexample"]["ratio"] == 298.0


def test_csv_dump_is_written_before_the_stats_consume_it(tmp_path, capsys):
    path = tmp_path / "draws.csv"
    argv = ["verify", "--dist", "uniform:lo=0,hi=2", "--p", "1.5", "--coeffs", "1,-0.5,0.25",
            "--reps", "5000", "--seed", "3", "--csv", str(path)]
    assert main(argv) == 0
    data = path.read_bytes()
    assert data.startswith(b"rep,value\n") and data.count(b"\n") == 5001
    # pinned bytes: the values of the reported run (stream 600) as the kernel wrote
    # them, before _stats consumed them
    assert hashlib.blake2b(data, digest_size=8).hexdigest() == "bd3502b1bbd17ba6"


def test_csv_mean_is_the_reported_mean(tmp_path, capsys):
    path = tmp_path / "draws.csv"
    argv = ["verify", "--dist", "uniform:lo=0,hi=2", "--p", "1.5", "--coeffs", "1,-0.5,0.25",
            "--reps", "5000", "--seed", "3", "--csv", str(path)]
    code, report, _ = run_cli(capsys, argv)
    assert code == 0
    values = np.array([float(line.split(",")[1]) for line in path.read_text().splitlines()[1:]])
    lhs = report["results"]["reports"][0]["report"]["lhs"]
    assert lhs["exact"] is False and lhs["replications"] == len(values) == 5000
    assert np.mean(values) == lhs["mean"]


def test_csv_with_an_enumerated_first_set_is_usage_error(tmp_path, capsys):
    # 2^2 outcomes: the first set is computed exactly, so there are no samples to dump
    path = tmp_path / "draws.csv"
    argv = ["verify", "--dist", TP, "--p", "1.0", "--coeffs", "1,-0.5,0.25", "--csv", str(path)]
    assert _usage_error_line(capsys, argv).startswith("usage error: --csv ")
    assert not path.exists()


def test_csv_with_a_lone_term_is_usage_error(tmp_path, capsys):
    # n = 0 samples no path, so there is nothing to dump
    path = tmp_path / "draws.csv"
    argv = ["verify", "--dist", TP, "--p", "1.0", "--coeffs", "1", "--csv", str(path)]
    assert _usage_error_line(capsys, argv).startswith("usage error: --csv ")
    assert not path.exists()


def test_csv_with_a_degenerate_modulus_is_usage_error(tmp_path, capsys):
    # a degenerate |X| runs the sign counterexample, which dumps nothing
    path = tmp_path / "draws.csv"
    argv = ["verify", "--dist", "rademacher", "--p", "4", "--n", "10", "--reps", "2000",
            "--csv", str(path)]
    assert _usage_error_line(capsys, argv).startswith("usage error: --csv ")
    assert not path.exists()


def test_config_file_and_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"dist": TP, "p": 1.0, "coeffs": "1,-1,1", "reps": 2000})
    )
    code, report, _ = run_cli(capsys, ["verify", "--config", str(cfg)])
    assert code == 0
    assert report["config"]["p"] == 1.0
    assert report["results"]["min_ratio"] == pytest.approx(1.0 / 3.0, rel=1e-9)

    # a flag on the command line beats the same key in the config file
    code2, report2, _ = run_cli(capsys, ["verify", "--config", str(cfg), "--p", "0.5"])
    assert code2 == 0
    assert report2["config"]["p"] == 0.5


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"dist": TP, "p": 1.0, "bogus_key": 7}))
    code, report, _ = run_cli(capsys, ["verify", "--config", str(cfg)])
    assert code == 2
    assert report is None


def test_config_roundtrip_reproduces_report(tmp_path, capsys):
    code, report, _ = run_cli(
        capsys,
        ["verify", "--dist", TP, "--p", "1.0", "--coeffs", "1,-1,1", "--reps", "2000"],
    )
    cfg = tmp_path / "replay.json"
    cfg.write_text(json.dumps(report["config"]))
    code2, report2, _ = run_cli(capsys, ["verify", "--config", str(cfg)])
    assert code2 == code == 0
    report.pop("wall_time_s")
    report2.pop("wall_time_s")
    assert report == report2


def test_out_file_matches_stdout(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, text = run_cli(
        capsys,
        ["moments", "--dist", "riesz", "--q", "1,2", "--out", str(out_path)],
    )
    assert code == 0
    assert out_path.read_text() == text


def test_unwritable_out_is_a_usage_error_with_nothing_printed(tmp_path, capsys):
    code = main(["moments", "--dist", "riesz", "--out", str(tmp_path / "missing" / "x.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("dist", [
    "exponential:rate=1e-300", "lognormal:mu=700,sigma=0.1", "uniform:lo=-1,hi=1e300"])
def test_a_window_end_past_every_float_certifies(capsys, dist):
    # at p = 0.01 the window's end |X|^p <= A m is |X| <= (A m)^100 in the base law's
    # units, past every float: it is inf, and the certificate is scale-invariant
    code, report, _ = run_cli(capsys, ["certify", "--dist", dist, "--p", "0.01"])
    assert code == 0
    recheck = report["results"]["recheck"]
    assert recheck["lambda_slack"] == recheck["delta_gap"] == 0.0
    if dist.startswith("exponential"):
        _, unit, _ = run_cli(capsys, ["certify", "--dist", "exponential:rate=1", "--p", "0.01"])
        want = unit["results"]["bundle"]["lower_c"]
        assert report["results"]["bundle"]["lower_c"] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_thread_count_does_not_change_report(tmp_path, capsys, monkeypatch):
    argv = [
        "verify",
        "--dist",
        TP,
        "--p",
        "2.0",
        "--coeffs",
        "1,1,1,1",
        "--reps",
        "20000",
    ]
    monkeypatch.setenv("MOMSAND_THREADS", "1")
    _, report1, _ = run_cli(capsys, argv)
    monkeypatch.setenv("MOMSAND_THREADS", "4")
    _, report4, _ = run_cli(capsys, argv)
    report1.pop("wall_time_s")
    report4.pop("wall_time_s")
    assert report1 == report4


@pytest.mark.parametrize(
    "dist",
    [
        "lognormal:mu=0,sigma=1",
        "exponential:rate=1",
        "uniform:lo=0,hi=2",
        "riesz",
        "twopoint:a=0.5,b=1.5,pa=0.5",
    ],
)
def test_moment_overflow_is_usage_error(capsys, dist):
    code = main(["moments", "--dist", dist, "--q", "2000"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "E|X|^q" in captured.err and "q = 2000.0" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--dist", TP, "--p", "1.0", "--coeffs", "0,0,0"],
        ["verify", "--dist", TP, "--p", "1.0", "--n", "3", "--coeffs", "random:count=0"],
        ["verify", "--dist", TP, "--p", "1.0", "--coeffs", "nan,1"],
        ["riesz", "--seq", "4,16,64", "--p", "2.0", "--coeffs", "0,0"],
    ],
)
def test_degenerate_coefficients_are_usage_errors(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"--coeffs {argv[-1]}" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--dist", TP, "--p", "1.0", "--n", "3", "--dim", "0"],
        ["verify", "--dist", TP, "--p", "1.0", "--n", "3", "--dim", "-2"],
        ["verify", "--dist", TP, "--p", "1.0", "--dim", "3", "--coeffs", "1,2,3"],
        ["verify", "--dist", TP, "--p", "1.0", "--dim", "1", "--coeffs", "1,0;0,1"],
        # a degenerate law takes the counterexample branch, which must not skip the check
        ["verify", "--dist", "rademacher", "--p", "4.0", "--n", "6", "--dim", "0"],
    ],
)
def test_bad_dim_is_usage_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: ") and "--dim" in lines[0]


def test_explicit_vector_coefficients_set_dim(capsys):
    code, report, _ = run_cli(
        capsys, ["verify", "--dist", TP, "--p", "1.0", "--coeffs", "1,0;0,1", "--reps", "2000"]
    )
    assert code == 0
    assert report["config"]["dim"] == 2


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity masks")
def test_worker_count_defaults_to_the_usable_cpus(monkeypatch):
    monkeypatch.delenv("MOMSAND_THREADS", raising=False)
    assert worker_count() == len(os.sched_getaffinity(0))
    # a cap of 1 runs every item on the calling thread
    monkeypatch.setenv("MOMSAND_THREADS", "1")
    assert map_indexed(lambda _: threading.get_ident(), range(4)) == [threading.get_ident()] * 4


@pytest.mark.parametrize("raw", ["abc", "0", "-2", "1.5", ""])
def test_bad_thread_count_is_usage_error(capsys, monkeypatch, raw):
    monkeypatch.setenv("MOMSAND_THREADS", raw)
    with pytest.raises(ValueError, match="MOMSAND_THREADS"):
        worker_count()
    code = main(["moments", "--dist", "riesz", "--q", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "MOMSAND_THREADS" in captured.err


@pytest.mark.parametrize(
    "command, value",
    [("moments", math.nan), ("counterexample", math.inf), ("riesz", -math.inf),
     ("certify", np.float64(math.nan))],
)
def test_nonfinite_report_is_usage_error(capsys, monkeypatch, tmp_path, command, value):
    # a value nested in a dataclass inside a list, as the real reports hold them
    est = mc.EstimateWithCI(mean=value, std_error=0.0, replications=1, seed=0, exact=True)
    monkeypatch.setitem(cli._DISPATCH, command, lambda resolved: ({"rows": [est]}, 0))
    out_path = tmp_path / "report.json"
    code = main([command, "--out", str(out_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    # the message of the json.dumps call the writer stands in for
    with pytest.raises(ValueError) as info:
        _json_dumps({"rows": [est]})
    assert captured.err == f"usage error: {info.value}\n"
    assert "NaN" not in captured.err and "Infinity" not in captured.err
    assert not out_path.exists()


UNIFORM = "uniform:lo=0,hi=2"


def _usage_error_line(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: ")
    return lines[0]


def test_explicit_coefficients_set_n(capsys):
    code, report, _ = run_cli(
        capsys, ["verify", "--dist", UNIFORM, "--p", "2", "--coeffs", "1,2,3", "--reps", "2000"]
    )
    assert code == 0
    assert report["config"]["n"] == 2


def test_n_differing_from_coefficients_is_usage_error(capsys):
    argv = ["verify", "--dist", UNIFORM, "--p", "2", "--n", "5", "--coeffs", "1,2,3"]
    assert "--n 5" in _usage_error_line(capsys, argv)


def test_degenerate_verify_runs_at_the_coefficients_n(capsys):
    code, report, _ = run_cli(
        capsys, ["verify", "--dist", "rademacher", "--p", "4", "--coeffs", "5,5,7", "--reps", "2000"]
    )
    assert code == 1
    res = report["results"]
    assert report["config"]["n"] == 2
    assert res["verdict"] == "FAIL"
    # the exact sign chain: E S^4 = 3 n^2 - 2n = 8 at n = 2, rhs_sum = n
    assert res["counterexample"]["n"] == 2
    assert res["counterexample"]["ratio"] == 4.0


def test_degenerate_verify_single_coefficient_is_usage_error(capsys):
    argv = ["verify", "--dist", "rademacher", "--p", "4", "--coeffs", "5", "--reps", "2000"]
    assert "--coeffs 5" in _usage_error_line(capsys, argv)


@pytest.mark.parametrize("n", ["-3", "-1"])
def test_negative_n_is_usage_error(capsys, n):
    argv = ["verify", "--dist", TP, "--p", "1.0", "--n", n, "--reps", "2000"]
    assert _usage_error_line(capsys, argv).startswith(f"usage error: --n {n}")


def test_zero_n_is_the_lone_term(capsys):
    code, report, _ = run_cli(capsys, ["verify", "--dist", TP, "--p", "1.0", "--n", "0", "--reps", "2000"])
    assert code == 0
    assert report["results"]["min_ratio"] == report["results"]["max_ratio"] == 1.0


@pytest.mark.parametrize(
    "extra, flag",
    [
        (["--coeffs", "5,abc,7"], "--coeffs 5,abc,7"),
        (["--coeffs", "0,0,0"], "--coeffs 0,0,0"),
        (["--coeffs", "1,0;0,1;1,1"], "--coeffs 1,0;0,1;1,1"),
        # the sign counterexample is scalar
        (["--n", "3", "--dim", "2"], "--dim 2"),
        # and sums all-ones coefficients, so random draws would go unused
        (["--n", "5", "--coeffs", "random:count=3"], "--coeffs random:count=3"),
    ],
)
def test_degenerate_verify_checks_its_coefficients(capsys, extra, flag):
    argv = ["verify", "--dist", "rademacher", "--p", "4", *extra, "--reps", "2000"]
    assert _usage_error_line(capsys, argv).startswith(f"usage error: {flag}")


ERROR_CLASSES = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if cls not in (errors.MomsandError, errors.UsageError, errors.HypothesisError)
]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_each_error_class_exits_with_its_family_code(capsys, monkeypatch, cls):
    families = [f for f in (errors.UsageError, errors.HypothesisError) if issubclass(cls, f)]
    assert len(families) == 1

    def fail(resolved):
        raise cls("raised on purpose")

    monkeypatch.setitem(cli._DISPATCH, "moments", fail)
    code = main(["moments"])
    captured = capsys.readouterr()
    hypothesis = families[0] is errors.HypothesisError
    assert code == (3 if hypothesis else 2)
    assert captured.out == ""
    kind = "hypothesis" if hypothesis else "usage"
    assert captured.err.splitlines() == [f"{kind} error: raised on purpose"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "--dist", TP, "--p", "1.0", "--n", "3", "--dim", "0"], "--dim 0"),
        (["verify", "--dist", TP, "--p", "1.0", "--n", "3", "--dim", "-2"], "--dim -2"),
        (["verify", "--dist", TP, "--p", "1.0", "--dim", "3", "--coeffs", "1,2,3"], "--dim 3"),
        (["verify", "--dist", TP, "--p", "1.0", "--dim", "1", "--coeffs", "1,0;0,1"], "--dim 1"),
        (["verify", "--dist", TP, "--p", "1.0", "--coeffs", "0,0,0"], "--coeffs 0,0,0"),
        (
            ["verify", "--dist", TP, "--p", "1.0", "--n", "3", "--coeffs", "random:count=0"],
            "--coeffs random:count=0",
        ),
        (["verify", "--dist", TP, "--p", "1.0", "--coeffs", "nan,1"], "--coeffs nan,1"),
        (["verify", "--dist", UNIFORM, "--p", "2", "--n", "5", "--coeffs", "1,2,3"], "--n 5"),
        (["verify", "--dist", TP, "--p", "1.0", "--n", "-3", "--reps", "2000"], "--n -3"),
        (["verify", "--dist", TP, "--p", "1.0", "--n", "-1", "--reps", "2000"], "--n -1"),
        # a malformed coefficient is reported although this window also fails to certify
        (
            ["verify", "--dist", UNIFORM, "--p", "2.5", "--grid-a", "1.01", "--coeffs", "1,abc"],
            "--coeffs 1,abc",
        ),
    ],
)
def test_coefficient_errors_come_before_fitting(capsys, monkeypatch, argv, flag):
    fitted = []
    monkeypatch.setattr(cli, "_certify_pipeline", lambda *args: fitted.append(args))
    assert _usage_error_line(capsys, argv).startswith(f"usage error: {flag}")
    assert fitted == []


BRACKET = ["--dist", UNIFORM, "--b-dist", "uniform:lo=0,hi=1", "--reps", "2000"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["moments", "--dist", "riesz", "--q", ""], "--q"),
        (["certify", "--dist", TP, "--p", "0.5", "--grid-a", ""], "--grid-a"),
        (["certify", "--dist", TP_LARGE, "--p", "2.0", "--grid-q", ","], "--grid-q"),
        # p <= 1 scans no q, but a list flag that is given must hold a value
        (["certify", "--dist", TP, "--p", "0.5", "--grid-q", ""], "--grid-q"),
        (["verify", "--dist", TP, "--p", "1.0", "--coeffs", "1,1", "--grid-a", ""], "--grid-a"),
        (["verify", "--dist", UNIFORM, "--p", "2.5", "--coeffs", "1,1", "--grid-q", ""], "--grid-q"),
        (["perpetuity", *BRACKET, "--p", "2.0", "--grid-a", ""], "--grid-a"),
        (["perpetuity", *BRACKET, "--p", "2.0", "--grid-q", ""], "--grid-q"),
        (["perpetuity", *BRACKET, "--p", "1.0", "--n-list", ""], "--n-list"),
        (["perpetuity", "--fixed-point-demo", "--p", "1.0", "--n-list", ""], "--n-list"),
    ],
)
def test_empty_list_flag_is_usage_error(capsys, argv, flag):
    assert _usage_error_line(capsys, argv).startswith(f"usage error: {flag} ")


def test_overflowing_c0_is_null(capsys):
    # ln c0 passes 709 near p = 9.5, yet k exists and the certificate stands
    code, report, _ = run_cli(capsys, ["certify", "--dist", TP, "--p", "10"])
    assert code == 0
    bundle = report["results"]["bundle"]
    assert bundle["c0"] is None
    (ln_c0,) = [row["value"] for row in bundle["trace"] if row["id"] == "ln_c0"]
    assert ln_c0 >= 709.0
    assert bundle["lower_c"] > 0.0


def test_single_term_sequence_has_no_min_ratio(capsys):
    code, report, _ = run_cli(capsys, ["riesz", "--seq", "4", "--term", "1", "--p", "3"])
    assert code == 0
    lac = report["results"]["lacunary"]
    assert lac["ratios"] == [] and lac["min_ratio"] is None and lac["lacunary"] is True


def test_underflowing_riesz_ratio_is_null(capsys):
    argv = ["riesz", "--seq", "4,16", "--p", "2", "--coeffs", "0,1e-200", "--reps", "2000"]
    code, report, _ = run_cli(capsys, argv)
    assert code == 0
    check = report["results"]["check"]
    assert check["probabilistic"]["mean"] == 0.0 and check["ratio"] is None


# one short argv of every report kind; the parser and the encoder see them all
ONE_OF_EACH = {
    "moments": ["moments", "--dist", "riesz", "--q", "1,2.5"],
    "certify_small_p": ["certify", "--dist", TP, "--p", "0.5"],
    "certify_large_p": ["certify", "--dist", TP_LARGE, "--p", "2.0"],
    "verify_exact": ["verify", "--dist", TP, "--p", "1.5", "--coeffs", "1,0;0,1;1,1", "--reps", "2000"],
    "verify_mc": ["verify", "--dist", UNIFORM, "--p", "2.5", "--n", "3", "--dim", "2",
                  "--coeffs", "random:count=2", "--reps", "2000"],
    "riesz": ["riesz", "--seq", "4,16,64", "--p", "3", "--coeffs", "1,0.5,-0.5,0.25",
              "--reps", "2000"],
    "perpetuity": ["perpetuity", "--dist", TP_LARGE, "--b-dist", TP, "--b-dist", UNIFORM,
                   "--p", "2.0", "--n-list", "1,2", "--reps", "2000"],
    "counterexample": ["counterexample", "--n", "30", "--p", "4", "--reps", "2000"],
}


def test_parser_built_once(capsys):
    cli._build_parser.cache_clear()
    for argv in ONE_OF_EACH.values():
        code, _, _ = run_cli(capsys, argv)
        assert code in (0, 1)
        # errors in between leave the shared parser usable
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--no-such-flag"])
        assert exc.value.code == 2
        assert main(["moments", "--dist", "nosuch:family=1"]) == 2
        capsys.readouterr()
    info = cli._build_parser.cache_info()
    assert info.misses == 1 and info.hits == 3 * len(ONE_OF_EACH) - 1
    # the append action starts each call from its own empty list
    for b_dists in ([TP], [UNIFORM, TP]):
        argv = ["perpetuity", "--dist", TP_LARGE, "--p", "2.0", "--n-list", "1",
                "--reps", "2000"]
        for b in b_dists:
            argv += ["--b-dist", b]
        _, report, _ = run_cli(capsys, argv)
        assert report["config"]["b_dist"] == b_dists


def _asdict_encode(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    return cli._encode(obj)


@pytest.mark.parametrize("name", sorted(ONE_OF_EACH))
def test_one_level_encoding_matches_asdict(name):
    args = cli._build_parser().parse_args(ONE_OF_EACH[name])
    results, _ = cli._DISPATCH[args.command](cli._resolve_config(args))
    text = json.dumps(results, indent=2, sort_keys=True, default=cli._encode)
    assert text == json.dumps(results, indent=2, sort_keys=True, default=_asdict_encode)


def _json_dumps(report):
    """The json.dumps call cli._dumps stands in for."""
    return json.dumps(report, indent=2, sort_keys=True, default=cli._encode, allow_nan=False)


@pytest.mark.parametrize("name", sorted(ONE_OF_EACH))
def test_writer_matches_json_dumps_on_each_report(monkeypatch, capsys, name):
    reports = []
    dumps = cli._dumps
    monkeypatch.setattr(cli, "_dumps", lambda report: reports.append(report) or dumps(report))
    code, _, out = run_cli(capsys, ONE_OF_EACH[name])
    assert code in (0, 1) and len(reports) == 1
    assert out == _json_dumps(reports[0]) + "\n"


@dataclasses.dataclass(frozen=True)
class _Pair:
    first: object
    second: object


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_LEAVES = st.one_of(
    st.text(st.one_of(st.characters(), st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028é€😀')),
            max_size=6),
    st.booleans(),
    st.none(),
    st.integers(min_value=-(10**40), max_value=10**40),
    _FINITE,
    st.sampled_from([-0.0, 5e-324, 1e16, 1.7976931348623157e308, -1.7976931348623157e308]),
    _FINITE.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.lists(_FINITE, max_size=3).map(np.array),
    st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=2), max_size=2).map(np.array),
)
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        # written as text: True, 1 and 1.0 are one key but three texts
        st.dictionaries(st.one_of(st.integers(-2, 2), st.booleans(), st.sampled_from([1.0, -0.5])),
                        children, max_size=3),
        st.builds(_Pair, children, children),
    ),
    max_leaves=40,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_TREES)
def test_writer_matches_json_dumps_on_any_tree(tree):
    assert cli._dumps(tree) == _json_dumps(tree)


def _without_wall_time(text):
    return re.sub(r'\n *"wall_time_s": [^\n]*', "", text)


# verify's sign counterexample for a degenerate |X| at n = 30, p and digest of
# the report without wall_time_s: the exact sign chain, whatever the law's sign
# probability (a dyadic or a 54-bit one) and however nearly its normalized
# table is +-1, with no path sampled.
DEGENERATE_REPORTS = {
    "twopoint:a=-1,b=1,pa=0.3": ("4", "0191ca591217bf22"),
    # normalized to the table +-(1 - 2^-53)
    "twopoint:a=-1.1,b=1.1,pa=0.5": ("3", "2dbf9cffadb1ce40"),
    # normalized to the table +-(1 + 2^-52)
    "twopoint:a=-0.3,b=0.3,pa=0.5": ("2.5", "07ef8a92485a6076"),
    "rademacher": ("4", "ec05f01a4711bb31"),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("law", sorted(DEGENERATE_REPORTS))
def test_degenerate_verify_reports_pinned(capsys, monkeypatch, law, threads):
    p, digest = DEGENERATE_REPORTS[law]
    monkeypatch.setenv("MOMSAND_THREADS", threads)
    calls, loop = [], mc._sample_paths
    monkeypatch.setattr(mc, "_sample_paths", lambda *a: calls.append(a) or loop(*a))
    code, report, out = run_cli(capsys, ["verify", "--dist", law, "--p", p, "--n", "30",
                                         "--reps", "5000", "--seed", "3"])
    assert code == 1 and report["results"]["verdict"] == "FAIL"
    ce = report["results"]["counterexample"]
    assert ce["engine"] == "sign_chain" and ce["lhs"]["exact"] and ce["lhs"]["std_error"] == 0.0
    assert calls == []
    text = _without_wall_time(out).encode()
    assert hashlib.blake2b(text, digest_size=8).hexdigest() == digest


@pytest.mark.parametrize("command", [["counterexample"], ["verify", "--dist", "rademacher"]])
def test_counterexample_results_ignore_reps_and_seed(capsys, command):
    # exact: --reps and --seed are echoed in the config and change no result
    runs = [run_cli(capsys, [*command, "--n", "40", "--p", "3.5", "--reps", reps, "--seed", seed])
            for reps, seed in (("1000", "0"), ("250000", "17"))]
    assert [report["config"]["reps"] for _, report, _ in runs] == [1000, 250_000]
    assert [report["config"]["seed"] for _, report, _ in runs] == [0, 17]
    first, second = (cli._dumps(report["results"]) for _, report, _ in runs)
    assert first == second


@pytest.mark.parametrize("p", ["200", "1e300"])
def test_counterexample_overflow_is_a_usage_error(capsys, p):
    # E|S|^p overflows: inf, decided before any power is taken, and refused by the writer
    line = _usage_error_line(capsys, ["counterexample", "--n", "100", "--p", p])
    assert line == "usage error: Out of range float values are not JSON compliant: inf"


@pytest.mark.parametrize("name", sorted(ONE_OF_EACH))
def test_same_argv_twice_same_report(capsys, name):
    first = run_cli(capsys, ONE_OF_EACH[name])
    second = run_cli(capsys, ONE_OF_EACH[name])
    assert first[0] == second[0]
    assert "wall_time_s" in first[2]
    assert _without_wall_time(first[2]) == _without_wall_time(second[2])


# reps = 10,000 is two full Monte Carlo blocks of mc.CHUNK and a partial third
MULTI_BLOCK_CASES = {
    "verify_lognormal": ["verify", "--dist", "lognormal:mu=0,sigma=0.5", "--p", "2.5",
                         "--n", "6", "--coeffs", "random:count=2,seed=4"],
    "verify_uniform_dim3": ["verify", "--dist", UNIFORM, "--p", "3.5", "--n", "6",
                            "--dim", "3", "--coeffs", "random:count=2,seed=5"],
    "verify_negative_scale": ["verify", "--dist", "scaled:scale=-1.5,base=(uniform:lo=0,hi=2)",
                              "--p", "1.5", "--n", "6", "--coeffs", "random:count=2,seed=6"],
    # 2^30 outcomes are past ENUM_CAP, so the finite law is sampled
    "verify_twopoint_n30": ["verify", "--dist", TP, "--p", "1.5", "--n", "30",
                            "--coeffs", "random:count=1,seed=7"],
    "perpetuity_independent": ["perpetuity", "--dist", UNIFORM, "--b-dist", "uniform:lo=0,hi=1",
                               "--b-dist", "exponential:rate=1", "--p", "2", "--n-list", "1,4"],
    "perpetuity_comonotone": ["perpetuity", "--dist", UNIFORM, "--b-dist", "exponential:rate=1",
                              "--coupling", "comonotone-scalar", "--p", "2.5", "--n-list", "1,4"],
    # with riesz._BLOCK = 128 below, the 513 folded grid points take five blocks
    "riesz_grid": ["riesz", "--seq", "4,16,64", "--p", "2.5", "--coeffs", "1,0.5,-0.25"],
}


@pytest.mark.parametrize("case", sorted(MULTI_BLOCK_CASES))
def test_multi_block_reports_match_at_every_worker_count(capsys, monkeypatch, sampled, case):
    monkeypatch.setattr(riesz, "_BLOCK", 128)
    block_counts = []

    def counting(fn, items):
        items = list(items)
        block_counts.append(len(items))
        return map_indexed(fn, items)

    for module in (mc, riesz):
        monkeypatch.setattr(module, "map_indexed", counting)
    # the sampled fixture: past the cap, the sampled blocks are what is checked
    argv = [*MULTI_BLOCK_CASES[case], "--reps", "10000", "--seed", "11"]
    reports = {}
    # frequent thread switches make a race between workers more likely to show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in ("1", "2", "3", None):
            if threads is None:
                monkeypatch.delenv("MOMSAND_THREADS", raising=False)
            else:
                monkeypatch.setenv("MOMSAND_THREADS", threads)
            code, report, _ = run_cli(capsys, argv)
            assert code == 0
            report.pop("wall_time_s")
            reports[threads] = report
    finally:
        sys.setswitchinterval(interval)
    assert max(block_counts) >= 3
    assert reports["2"] == reports["1"]
    assert reports["3"] == reports["1"]
    assert reports[None] == reports["1"]


def test_bench_combination_grid_spreads_over_workers(capsys, monkeypatch):
    block_counts = []

    def counting(fn, items):
        items = list(items)
        block_counts.append(len(items))
        return map_indexed(fn, items)

    monkeypatch.setattr(riesz, "map_indexed", counting)
    # the torus workload's riesz_coeffs: 524,289 folded grid points on 4^1 .. 4^8
    argv = ["riesz", "--seq", RIESZ_SEQ_8, "--p", "3",
            "--coeffs=0.3,-1.2,0.8,0.05,-0.6,1.1,-0.4,0.9,-0.7", "--seed", "11"]
    texts = {}
    for threads in ("1", "2", None):
        if threads is None:
            monkeypatch.delenv("MOMSAND_THREADS", raising=False)
        else:
            monkeypatch.setenv("MOMSAND_THREADS", threads)
        code, _, out = run_cli(capsys, argv)
        assert code == 0
        texts[threads] = _without_wall_time(out)
    # the combination's pass comes first; several blocks keep both workers busy
    assert block_counts[0] >= 4
    assert texts["2"] == texts["1"]
    assert texts[None] == texts["1"]


def _run_with(capsys, tmp_path, command, cfg, via="config", extra=()):
    """Run `command` with `cfg` as a config file or as flags; exit code, stdout, stderr."""
    if via == "config":
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = [command, "--config", str(path), *extra]
    else:
        argv = [command, *(f"--{key.replace('_', '-')}={value}" for key, value in cfg.items())]
    try:
        code = main(argv)
    except SystemExit as exc:  # the parser rejects a bad value as it rejects a bad flag
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


CONFIG_MISTAKES = {
    # a list for a single-valued flag
    "list_p": ("perpetuity", {"p": [1]}, "--p"),
    "list_n": ("counterexample", {"n": [3]}, "--n"),
    "list_term": ("riesz", {"seq": "4,16", "p": 3, "term": [1]}, "--term"),
    # text or a float for an int flag
    "text_reps": ("verify", {"dist": TP, "p": 1, "n": 2, "reps": "abc"}, "--reps"),
    "float_seed": ("verify", {"dist": TP, "p": 1, "n": 2, "seed": 1.5}, "--seed"),
    "number_dist": ("certify", {"dist": 5, "p": 2}, "--dist"),
    "text_switch": ("perpetuity", {"fixed_point_demo": "no"}, "--fixed-point-demo"),
    # a value outside the flag's choices
    "bad_coupling": ("perpetuity", {"dist": UNIFORM, "b_dist": [UNIFORM], "coupling": "weird"},
                     "--coupling"),
    "bad_norm": ("verify", {"dist": TP, "p": 1, "n": 2, "norm": "l3"}, "--norm"),
}


def test_csv_samples_past_the_cap_and_refuses_an_exact_first_set(tmp_path, capsys):
    path = tmp_path / "draws.csv"
    argv = ["verify", "--dist", UNIFORM, "--p", "1.5", "--coeffs", "1,-0.5,0.25", "--reps", "2000",
            "--seed", "3"]
    code, report, _ = run_cli(capsys, [*argv, "--csv", str(path)])
    assert code == 0 and path.exists()
    assert report["results"]["reports"][0]["report"]["engine"] == "montecarlo"
    # without --csv the moment engine encloses the same set
    code, report, _ = run_cli(capsys, argv)
    assert report["results"]["reports"][0]["report"]["engine"] == "moments"
    # 2^2 outcomes: the finite law's first set is enumerated, before any work
    exact = tmp_path / "exact.csv"
    line = _usage_error_line(capsys, ["verify", "--dist", TP, "--p", "1.5", "--coeffs",
                                      "1,-0.5,0.25", "--csv", str(exact)])
    assert line == (f"usage error: --csv {exact}: the first set is exact "
                    "(2^2 = 4 outcomes <= cap 10,000,000), so no path is sampled")
    # n = 0: the one outcome v_0 of a continuous law
    line = _usage_error_line(capsys, ["verify", "--dist", UNIFORM, "--p", "1.5", "--coeffs", "1.5",
                                      "--csv", str(exact)])
    assert line.endswith("(0 steps = 1 outcome <= cap 10,000,000), so no path is sampled")
    assert not exact.exists()


def test_zero_steps_of_a_continuous_law_are_one_exact_outcome(capsys):
    # n = 0 draws nothing, so --reps below the Monte Carlo floor is no error
    code, report, _ = run_cli(capsys, ["verify", "--dist", UNIFORM, "--p", "2.5", "--coeffs",
                                       "1.5", "--reps", "10"])
    assert code == 0
    (row,) = report["results"]["reports"]
    assert row["report"]["engine"] == "enumerate"
    assert row["report"]["lhs"] == {"exact": True, "mean": 2.7556759606310752,
                                    "replications": 1, "seed": None, "std_error": 0.0}
    assert row["report"]["ratio"] == 1.0


@pytest.mark.parametrize("p", ["2.5", "3"])
def test_one_coefficient_riesz_is_one_exact_outcome(capsys, p):
    # a lone a_0 draws nothing on the probabilistic side either, and reads as verify's n = 0
    code, report, _ = run_cli(capsys, ["riesz", "--seq", "4,16", "--p", p, "--coeffs", "1.5",
                                       "--reps", "10"])
    assert code == 0
    check = report["results"]["check"]
    assert check["probabilistic"] == {"exact": True, "mean": 1.5 ** float(p), "replications": 1,
                                      "seed": None, "std_error": 0.0}
    assert check["ratio"] == 1.0


def test_overflowing_enclosure_is_its_typed_error(capsys):
    # sum_i ||v_i||^p fits the float range, but the fourth moments pass it
    coeffs = mc.coefficient_set([1e80, 1e80, 1e80])
    with pytest.raises(errors.NonfiniteMomentError):
        mc.run_sandwich(dc.uniform(0.0, 2.0), 2.5, coeffs, (0.0, 10.0, True), 1000,
                        dc.RandomSource(1))
    line = _usage_error_line(capsys, ["verify", "--dist", UNIFORM, "--p", "2.5",
                                      "--coeffs", "1e80,1e80,1e80"])
    assert line == "usage error: the moments of order up to 4 overflow"


def test_a_pair_without_joint_moments_is_sampled(capsys):
    argv = ["perpetuity", "--dist", UNIFORM, "--b-dist", "lognormal:mu=0,sigma=0.5",
            "--coupling", "comonotone-scalar", "--p", "2", "--n-list", "40", "--reps", "2000"]
    code, report, _ = run_cli(capsys, argv)
    assert code == 0
    (row,) = report["results"]["rows"]
    assert row["engine"] == "montecarlo"
    assert row["reason"].startswith("the law is not finitely supported; the moment engine")


@pytest.mark.parametrize("case", sorted(CONFIG_MISTAKES))
def test_config_mistake_is_usage_error(capsys, tmp_path, case):
    command, cfg, flag = CONFIG_MISTAKES[case]
    code, out, err = _run_with(capsys, tmp_path, command, cfg)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    # one usage error line, or the parser's usage text and its error line
    assert re.search(rf"^(usage error: |momsand {command}: error: argument ){flag}\b",
                     err.splitlines()[-1])


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize(
    "key, value",
    [("dist", UNIFORM), ("b_dist", "uniform:lo=0,hi=1"), ("grid_a", "2"), ("grid_q", "3"),
     ("coupling", "comonotone-scalar")],
)
def test_fixed_point_demo_rejects_a_pair_it_would_not_run(capsys, tmp_path, key, value, via):
    flag = "--" + key.replace("_", "-")
    if via == "flag":
        argv = ["perpetuity", "--fixed-point-demo", f"{flag}={value}"]
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"fixed_point_demo": True, key: value}))
        argv = ["perpetuity", "--config", str(path)]
    assert _usage_error_line(capsys, argv).startswith(f"usage error: {flag}")


def test_config_b_dist_text_is_one_spec(capsys, tmp_path):
    cfg = {"dist": UNIFORM, "b_dist": "uniform:lo=0,hi=1", "p": 2, "n_list": "1", "reps": 2000,
           "fixed_point_demo": False}
    code, out, _ = _run_with(capsys, tmp_path, "perpetuity", cfg)
    assert code == 0
    # a typed echo: JSON 2 for --p is 2.0, and false leaves the switch unset
    report = json.loads(out)
    assert report["config"]["b_dist"] == ["uniform:lo=0,hi=1"]
    assert report["config"]["fixed_point_demo"] is None
    flags = ["perpetuity", "--dist", UNIFORM, "--b-dist", "uniform:lo=0,hi=1", "--p", "2",
             "--n-list", "1", "--reps", "2000"]
    assert _without_wall_time(out) == _without_wall_time(run_cli(capsys, flags)[2])


def test_config_integer_for_float_flag_echoes_a_float(capsys, tmp_path):
    code, out, _ = _run_with(capsys, tmp_path, "certify", {"dist": TP, "p": 1})
    assert code == 0
    p = json.loads(out)["config"]["p"]
    assert p == 1.0 and isinstance(p, float)


def test_command_line_b_dist_replaces_the_config_list(capsys, tmp_path):
    cfg = {"dist": UNIFORM, "b_dist": ["uniform:lo=0,hi=1", "exponential:rate=1"], "p": 2,
           "n_list": "1", "reps": 2000}
    code, out, _ = _run_with(capsys, tmp_path, "perpetuity", cfg,
                             extra=["--b-dist", "exponential:rate=1"])
    assert code == 0
    assert json.loads(out)["config"]["b_dist"] == ["exponential:rate=1"]


EMPTY_COEFFS = {
    # the parent drew random:count=20 here
    "uniform": {"dist": UNIFORM, "p": 2.5, "coeffs": "", "n": 3, "reps": 2000},
    # and ran the n = 100 sign counterexample here
    "rademacher": {"dist": "rademacher", "p": 4, "coeffs": "", "reps": 1000},
}


@pytest.mark.parametrize("via", ["flags", "config"])
@pytest.mark.parametrize("law", sorted(EMPTY_COEFFS))
def test_empty_verify_coeffs_is_usage_error(capsys, monkeypatch, tmp_path, law, via):
    fitted = []
    monkeypatch.setattr(cli, "_certify_pipeline", lambda *args: fitted.append(args))
    code, out, err = _run_with(capsys, tmp_path, "verify", EMPTY_COEFFS[law], via)
    assert (code, out) == (2, "")
    assert err.splitlines() == ["usage error: --coeffs '': the list is empty"]
    assert fitted == []


RIESZ_MODE_PAIRS = {
    "term_coeffs": {"term": 1, "coeffs": "1,2"},
    "term_draws": {"term": 1, "draws": 2},
    "coeffs_draws": {"coeffs": "1,2", "draws": 2},
}


@pytest.mark.parametrize("via", ["flags", "config"])
@pytest.mark.parametrize("pair", sorted(RIESZ_MODE_PAIRS))
def test_riesz_modes_exclude_each_other(capsys, tmp_path, pair, via):
    cfg = {"seq": "4,16", "p": 3, "reps": 2000, **RIESZ_MODE_PAIRS[pair]}
    code, out, err = _run_with(capsys, tmp_path, "riesz", cfg, via)
    assert (code, out) == (2, "")
    assert re.search(r"^momsand riesz: error: argument --\w+: not allowed with argument --\w+$",
                     err.splitlines()[-1])


def test_riesz_without_a_mode_names_all_three(capsys):
    line = _usage_error_line(capsys, ["riesz", "--seq", "4,16", "--p", "3"])
    assert line == "usage error: riesz needs one of --term, --coeffs, --draws"
