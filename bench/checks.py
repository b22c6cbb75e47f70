"""Seed-independent oracles for the benchmark's operations.

Each check takes an operation (see workloads.py), its exit code and its
stdout, and returns a list of problems; an empty list means the report is
correct.  The oracles are closed forms computed here from the operation's
fixed parameters and the coefficients the report echoes, so they hold for
every workload seed.
"""

from __future__ import annotations

import json
import math
import re

FAIL = "FAIL"

# The CLI prints reports with indent=2 and sorted keys, so the top-level
# wall-clock field is the one line with exactly this indentation.
_WALL_LINE = re.compile(r'^  "wall_time_s": .*$', re.MULTILINE)


class NonStrictJSON(ValueError):
    """The text holds NaN or +-Infinity, which strict JSON forbids."""


def _reject_constant(name: str):
    raise NonStrictJSON(f"non-strict JSON constant {name}")


def strict_json(text: str):
    """Parse `text` as strict JSON: NaN, Infinity and -Infinity raise."""
    return json.loads(text, parse_constant=_reject_constant)


def strip_wall_time(text: str) -> str:
    """The report with its top-level wall_time_s line removed."""
    return _WALL_LINE.sub("", text)


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def bilinear_second_moment(vectors, m1: float, m2: float) -> float:
    """E||sum_i v_i R_i||_2^2 = sum_ij <v_i, v_j> m2^min(i,j) m1^|i-j|.

    R_i is a product of i i.i.d. factors with E X = m1 and E X^2 = m2, so
    E R_i R_j = m2^min(i,j) m1^|i-j|.
    """
    terms = []
    for i, vi in enumerate(vectors):
        for j, vj in enumerate(vectors):
            dot = math.fsum(a * b for a, b in zip(vi, vj))
            terms.append(dot * m2 ** min(i, j) * m1 ** abs(i - j))
    return math.fsum(terms)


def riesz_factor_moment(p: float) -> float:
    """E(1 + cos U)^p = 2^p Gamma(p + 1/2) / (sqrt(pi) Gamma(p + 1))."""
    return math.exp(
        p * math.log(2.0) + math.lgamma(p + 0.5) - 0.5 * math.log(math.pi) - math.lgamma(p + 1.0)
    )


def _verdicts(obj):
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key == "verdict":
                yield value
            else:
                yield from _verdicts(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _verdicts(value)


def _no_fail(results) -> list[str]:
    fails = sum(1 for v in _verdicts(results) if v == FAIL)
    return [f"{fails} FAIL verdicts"] if fails else []


def _exact_verify(check: dict, results: dict) -> list[str]:
    problems = []
    atoms = check["atoms"]
    outcomes = len(atoms) ** check["n"]
    rows = results["reports"]
    if len(rows) != check["count"]:
        problems.append(f"{len(rows)} coefficient sets, expected {check['count']}")
    if check["p"] == 2.0:
        # the law is normalized to E X^2 = 1 before the comparison
        scale = math.fsum(prob * v * v for v, prob in atoms) ** -0.5
        m1 = scale * math.fsum(prob * v for v, prob in atoms)
        m2 = scale * scale * math.fsum(prob * v * v for v, prob in atoms)
    for d, row in enumerate(rows):
        lhs = row["report"]["lhs"]
        if lhs["exact"] is not True:
            problems.append(f"set {d}: lhs not exact")
        if lhs["replications"] != outcomes:
            problems.append(f"set {d}: {lhs['replications']} outcomes, expected {outcomes}")
        if row["report"]["verdict"] == FAIL:
            problems.append(f"set {d}: FAIL verdict")
        if check["p"] == 2.0:
            want = bilinear_second_moment(row["coefficients"], m1, m2)
            err = _rel_err(lhs["mean"], want)
            if not err <= 1e-12:
                problems.append(f"set {d}: lhs {lhs['mean']!r} vs bilinear {want!r} (rel {err:.1e})")
    return problems


def _counterexample(check: dict, results: dict) -> list[str]:
    # products of independent signs are independent signs, so
    # E|R_1 + ... + R_n|^4 = 3n^2 - 2n against sum_i E|R_i|^4 = n
    report = results["counterexample"]
    n = check["n"]
    want = 3.0 * n - 2.0
    tol = 4.0 * report["lhs"]["std_error"] / n
    if not abs(report["ratio"] - want) <= tol:
        return [f"ratio {report['ratio']!r} not within 4 SE/n = {tol:.3g} of 3n-2 = {want}"]
    return []


def _exact_perpetuity(check: dict, results: dict) -> list[str]:
    rows = results["rows"]
    problems = _no_fail(results)
    if len(rows) != check["rows"]:
        problems.append(f"{len(rows)} rows, expected {check['rows']}")
    problems += [f"n={row['n']}: not exact" for row in rows if row["exact"] is not True]
    return problems


def _fixed_point_demo(check: dict, results: dict) -> list[str]:
    problems = [] if results["demonstrated"] is True else ["demonstrated is not true"]
    p = check["p"]
    rows = results["rows"]
    if [row["n"] for row in rows] != check["n_list"]:
        problems.append(f"rows cover n = {[row['n'] for row in rows]}")
    for row in rows:
        n = row["n"]
        want = (2.0 * (1.0 - 0.5**n)) ** p / n
        if not _rel_err(row["middle"]["mean"], want) <= 1e-12:
            problems.append(f"n={n}: {row['middle']['mean']!r} vs closed form {want!r}")
    return problems


def _riesz_term(check: dict, results: dict) -> list[str]:
    want = riesz_factor_moment(check["p"]) ** check["i"]
    problems = []
    for key, got in (("torus", results["torus"]["value"]),
                     ("probabilistic_exact", results["probabilistic_exact"])):
        if not _rel_err(got, want) <= 1e-9:
            problems.append(f"{key} {got!r} vs (E X^p)^i = {want!r}")
    return problems


def _riesz_coeffs(check: dict, results: dict) -> list[str]:
    # at integer p each product's torus norm is an exact grid integral
    report = results["check"]
    factor = riesz_factor_moment(check["p"])
    problems = []
    for term in report["per_term"]:
        want = factor ** term["i"]
        if not _rel_err(term["torus"], want) <= 1e-9:
            problems.append(f"term {term['i']}: torus {term['torus']!r} vs {want!r}")
    if not report["ratio"] > 0.0:
        problems.append(f"ratio {report['ratio']!r} is not positive")
    return problems


def _riesz_draws(check: dict, results: dict) -> list[str]:
    scan = results["scan"]
    if not scan["min_ratio"] > 0.0:
        return [f"min ratio {scan['min_ratio']!r} is not positive"]
    band = scan["max_ratio"] / scan["min_ratio"]
    return [] if band <= check["band"] else [f"ratio band {band:.3g} > {check['band']}"]


def _certify(check: dict, results: dict) -> list[str]:
    problems = []
    bundle = results["bundle"]
    cert = results["certificate"]
    witness = next(e for e in bundle["trace"] if e["id"] == "k_minimality")["inputs"]
    k = witness["k"]
    ln_lam = math.log(cert["lam"])
    a_coef, b_coef = (2.0, -2.0) if bundle["regime"] == "SmallP" else (cert["p"], 0.0)

    def f(kk):
        return math.log(kk) + (a_coef * kk + b_coef) * ln_lam

    ln_rhs = witness["ln_rhs"]
    if not abs(f(k) - witness["f_k"]) <= 1e-12 * max(1.0, abs(f(k))):
        problems.append(f"reported f(k) {witness['f_k']!r} vs recomputed {f(k)!r}")
    if not f(k) <= ln_rhs + 1e-12:
        problems.append(f"f(k={k}) = {f(k)!r} exceeds ln_rhs {ln_rhs!r}")
    if k > 1 and not f(k - 1) > ln_rhs - 1e-12:
        problems.append(f"k={k} not minimal: f(k-1) = {f(k - 1)!r} <= ln_rhs")
    for key, value in results["recheck"].items():
        if (key.endswith("_slack") or key == "delta_gap") and not value >= -1e-12:
            problems.append(f"recheck {key} = {value!r} < -1e-12")
    if not 0.0 <= bundle["lower_c"] <= bundle["upper_C"]:
        problems.append(f"lower_c {bundle['lower_c']!r} vs upper_C {bundle['upper_C']!r}")
    return problems


_CHECKS = {
    "no_fail": lambda check, results: _no_fail(results),
    "exact_verify": _exact_verify,
    "counterexample": _counterexample,
    "exact_perpetuity": _exact_perpetuity,
    "fixed_point_demo": _fixed_point_demo,
    "riesz_term": _riesz_term,
    "riesz_coeffs": _riesz_coeffs,
    "riesz_draws": _riesz_draws,
    "certify": _certify,
}


def check_op(op: dict, code, stdout: str, error: str | None = None) -> list[str]:
    """Problems with one operation's exit code and report; [] when correct."""
    if error is not None:
        return [f"raised: {error.strip().splitlines()[-1]}"]
    problems = [] if code == 0 else [f"exit code {code!r}, expected 0"]
    try:
        report = strict_json(stdout)
    except ValueError as exc:
        return problems + [f"stdout is not strict JSON: {exc}"]
    check = op["check"]
    try:
        problems += _CHECKS[check["kind"]](check, report["results"])
    except (KeyError, TypeError, StopIteration, ValueError, ZeroDivisionError) as exc:
        problems.append(f"report lacks what the {check['kind']} check reads: {exc!r}")
    return problems


def tally(ops: list[dict], serial: dict, others: dict[str, dict]) -> dict[str, list[str]]:
    """Failed operations and why.

    `serial` holds the first serial batch: per-operation `codes`, `outputs`
    and `errors`, plus `mismatches`, the indices whose report changed in a
    later serial batch.  `others` maps a pass name (threads, traced) to the
    same per-operation fields; each report there, minus wall_time_s, must be
    byte-identical to the serial one.
    """
    failures: dict[str, list[str]] = {}
    for idx, op in enumerate(ops):
        problems = check_op(op, serial["codes"][idx], serial["outputs"][idx], serial["errors"][idx])
        if idx in serial.get("mismatches", ()):
            problems.append("report changed between serial reruns")
        base = (serial["codes"][idx], strip_wall_time(serial["outputs"][idx]))
        for name, other in others.items():
            if (other["codes"][idx], strip_wall_time(other["outputs"][idx])) != base:
                problems.append(f"{name} pass report differs from the serial pass")
        if problems:
            failures[op["id"]] = problems
    return failures
