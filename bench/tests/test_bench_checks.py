"""Tests for the benchmark's own checkers: run with `python3 -m pytest bench/tests`."""

import json

import pytest

import checks
import tracing
from momsand import dist_core as dc
from momsand.montecarlo import brute_force_lhs, coefficient_set


def _report(results, wall=0.5):
    return json.dumps(
        {"tool": "momsand", "results": results, "wall_time_s": wall}, indent=2, sort_keys=True
    )


def _pass(codes, outputs):
    return {"codes": codes, "outputs": outputs, "errors": [None] * len(codes)}


NO_FAIL_OP = {"id": "op", "argv": [], "check": {"kind": "no_fail"}}


def test_bilinear_oracle_matches_enumeration():
    spec = dc.two_point(0.5, 1.5, 0.3)
    vectors = [(1.0, -0.5), (0.25, 2.0), (-1.5, 0.75), (0.5, 0.5), (2.0, -1.0)]
    m1 = 0.3 * 0.5 + 0.7 * 1.5
    m2 = 0.3 * 0.25 + 0.7 * 2.25
    exact = brute_force_lhs(spec, coefficient_set(vectors), 2.0).mean
    assert checks.bilinear_second_moment(vectors, m1, m2) == pytest.approx(exact, rel=1e-12)


def test_strict_json_rejects_nan():
    with pytest.raises(checks.NonStrictJSON):
        checks.strict_json('{"ratio": NaN}')
    problems = checks.check_op(NO_FAIL_OP, 0, '{"results": {"ratio": NaN}}')
    assert problems and "strict JSON" in problems[0]


def test_unexpected_exit_code_counts_as_failed():
    out = _report({"verdict": "PASS"})
    assert checks.tally([NO_FAIL_OP], _pass([0], [out]), {}) == {}
    failures = checks.tally([NO_FAIL_OP], _pass([3], [out]), {})
    assert list(failures) == ["op"]


def test_thread_pass_mismatch_counts_as_failed():
    serial = _pass([0], [_report({"mean": 1.0}, wall=0.5)])
    same_but_wall = _pass([0], [_report({"mean": 1.0}, wall=0.25)])
    assert checks.tally([NO_FAIL_OP], serial, {"threads": same_but_wall}) == {}
    drifted = _pass([0], [_report({"mean": 1.0000000000000002}, wall=0.5)])
    failures = checks.tally([NO_FAIL_OP], serial, {"threads": drifted})
    assert "threads pass report differs" in failures["op"][0]


def test_self_time_subtracts_direct_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0, 0],
        ["dist_core.sample", 1.0, 5.0, 0, 0, 100],
        ["dist_core.quantile", 2.0, 4.0, 1, 0, 100],
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 2.0]
    metrics = tracing.layer_metrics(spans, {})
    assert metrics["dist_core.uniform_s"] == 2.0
    assert metrics["dist_core.draws"] == 100
