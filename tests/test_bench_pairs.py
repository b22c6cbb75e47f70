"""tools/bench_pairs.py's verdict on synthetic runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]  # spread 0.02


def _verdict(change, parent=PARENT, better="lower", bound=0.25):
    return bench_pairs.verdict(parent, change, better, bound)


def test_a_clear_gain():
    out = _verdict([0.7 + 0.001 * k for k in range(10)])
    assert out["change_wins"] == 10 and out["pairs"] == 10
    assert out["parent_median"] == 1.0 and out["change_median"] == pytest.approx(0.7045)
    assert out["parent_spread"] == pytest.approx(0.02)
    assert out["gain"] and not out["regressed"] and not out["unresolved"]


def test_nine_wins_and_a_tie_still_gain_but_eight_do_not():
    nine = [0.7] * 9 + [PARENT[9]]  # the tie counts for neither side
    assert _verdict(nine)["change_wins"] == 9 and _verdict(nine)["gain"]
    eight = [0.7] * 8 + [2.0, PARENT[9]]
    assert _verdict(eight)["change_wins"] == 8 and not _verdict(eight)["gain"]


def test_every_pair_won_by_less_than_the_spread_is_no_gain():
    out = _verdict([p - 0.005 for p in PARENT])
    assert out["change_wins"] == 10 and not out["gain"]


def test_a_regression_past_the_bound():
    out = _verdict([1.3] * 10)
    assert out["change_wins"] == 0 and out["regressed"] and not out["gain"]
    assert not _verdict([1.2] * 10)["regressed"]  # worse, but within the 25% bound


def test_a_spread_wider_than_the_bound_is_unresolved():
    wide = [0.6, 1.4, 0.7, 1.3, 1.0, 1.0, 0.8, 1.2, 0.9, 1.1]  # quartiles 0.825, 1.175
    out = _verdict([1.0] * 10, parent=wide, bound=0.25)
    assert out["parent_spread"] == pytest.approx(0.35) and out["unresolved"]
    assert not out["regressed"]
    # unless every change run beats every parent run
    out = _verdict([0.5] * 10, parent=wide, bound=0.25)
    assert not out["unresolved"] and out["change_wins"] == 10


def test_higher_is_better_flips_every_side():
    out = _verdict([1.3 + 0.001 * k for k in range(10)], better="higher")
    assert out["change_wins"] == 10 and out["gain"] and not out["regressed"]
    out = _verdict([0.7] * 10, better="higher")
    assert out["change_wins"] == 0 and out["regressed"] and not out["gain"]


def test_bad_inputs_are_rejected():
    with pytest.raises(ValueError):
        _verdict(PARENT, better="faster")
    with pytest.raises(ValueError):
        _verdict(PARENT[:9])


def test_every_declared_metric_has_a_direction_and_bound():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for metric in declared:
        out = bench_pairs.verdict(PARENT, PARENT, metric["better"], metric["bound"])
        assert out["change_wins"] == 0 and not out["gain"] and not out["regressed"]
