"""Command-line surface: seeded experiments with machine-readable reports.

Every subcommand prints one JSON report to stdout (and to --out when given)
containing the tool version, the fully resolved configuration, and the
results.  Reports are byte-identical across reruns with the same config,
whatever MOMSAND_THREADS says, except for the wall_time_s field.

Subcommands:
  moments         moment table for a distribution spec
  certify         fit hypothesis certificates and derive the constants
  verify          run the sandwich comparison over coefficient draws
  riesz           torus norms and the probabilistic comparison
  perpetuity      partial-sum bracket for an (X, B) pair
  counterexample  signed-factor ratio blow-up report

Exit codes: 0 all passed, 1 a verification verdict failed, 2 usage or
parsing error, 3 a hypothesis could not be certified (degeneracy).

Config files are JSON objects whose keys mirror the flag names with
underscores (e.g. {"dist": "uniform:lo=0,hi=2", "p": 0.5}); explicit flags
win over config values.  The resolved config embedded in each report can be
fed back via --config to reproduce the run.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time

import numpy as np

from . import __version__
from . import dist_core as dc
from . import montecarlo as mc
from ._pool import worker_count
from .assumptions import (
    DEFAULT_A_GRID_LARGE,
    DEFAULT_A_GRID_SMALL,
    PairSpec,
    check_pair_nondegeneracy,
    verify_large_p,
    verify_small_p,
)
from .constants import optimize_large_p, optimize_small_p
from .errors import (
    ChainLengthMismatchError,
    DegenerateModulusError,
    DegenerateZeroError,
    EmptyWindowError,
    EnumerationTooLargeError,
    InvalidOrderError,
    KTooLargeError,
    NonfiniteMomentError,
    NotIncreasingError,
    NotLacunaryError,
    NotNormalizedError,
    NoValidQError,
    TooFewPointsError,
)
from .riesz import (
    LacunarySequence,
    RieszCombination,
    check_lacunary,
    corollary_check,
    corollary_ratio_scan,
    riesz_lp_norm,
)

_USAGE_ERRORS = (
    ValueError,
    OSError,
    json.JSONDecodeError,
    InvalidOrderError,
    DegenerateZeroError,
    NonfiniteMomentError,
    EnumerationTooLargeError,
    TooFewPointsError,
    ChainLengthMismatchError,
    NotIncreasingError,
)
_HYPOTHESIS_ERRORS = (
    DegenerateModulusError,
    EmptyWindowError,
    NoValidQError,
    KTooLargeError,
    NotLacunaryError,
    NotNormalizedError,
)

_DEFAULTS = {
    ("moments", "q"): "1,2",
    ("verify", "reps"): 50_000,
    ("verify", "seed"): 0,
    ("verify", "norm"): "l2",
    ("counterexample", "n"): 100,
    ("counterexample", "p"): 4.0,
    ("counterexample", "reps"): 100_000,
    ("counterexample", "seed"): 0,
    ("riesz", "reps"): 200_000,
    ("riesz", "seed"): 0,
    ("perpetuity", "reps"): 50_000,
    ("perpetuity", "seed"): 0,
    ("perpetuity", "norm"): "l2",
    ("perpetuity", "coupling"): "independent",
    ("perpetuity", "p"): 1.0,
}


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momsand",
        description="numerical laboratory for two-sided moment bounds on sums of products",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file; flags override it")
        sp.add_argument("--out", help="also write the JSON report to this path")
        sp.add_argument("--seed", type=int, help="base seed for all streams")
        sp.add_argument("--reps", type=int, help="Monte Carlo replications")

    sp = sub.add_parser("moments", help="moment table for a distribution spec")
    common(sp)
    sp.add_argument("--dist", help="distribution spec, e.g. twopoint:a=0.5,b=1.5,pa=0.5")
    sp.add_argument("--q", help="comma list of moment orders")

    sp = sub.add_parser("certify", help="fit certificates and derive constants")
    common(sp)
    sp.add_argument("--dist")
    sp.add_argument("--p", type=float)
    sp.add_argument("--grid-a", dest="grid_a", help="comma list of truncation levels A")
    sp.add_argument("--grid-q", dest="grid_q", help="comma list of moment orders q")

    sp = sub.add_parser("verify", help="sandwich comparison over coefficient draws")
    common(sp)
    sp.add_argument("--dist")
    sp.add_argument("--p", type=float)
    sp.add_argument("--n", type=int, help="number of product factors")
    sp.add_argument("--dim", type=int, help="coefficient dimension d")
    sp.add_argument("--norm", choices=mc.NORM_KINDS)
    sp.add_argument(
        "--coeffs",
        help="explicit '1,-1,1' or '1,0;0,1' vectors, or random:count=K,scale=S",
    )
    sp.add_argument("--grid-a", dest="grid_a")
    sp.add_argument("--grid-q", dest="grid_q")
    sp.add_argument("--csv", help="dump per-replication samples of the first draw")

    sp = sub.add_parser("riesz", help="torus norms vs the probabilistic model")
    common(sp)
    sp.add_argument("--seq", help="comma list of increasing frequencies")
    sp.add_argument("--p", type=float)
    sp.add_argument("--term", type=int, help="single product index i")
    sp.add_argument("--coeffs", help="comma list a0,a1,...")
    sp.add_argument("--draws", type=int, help="random coefficient draws to scan")
    sp.add_argument("--quad-points", dest="quad_points", type=int)

    sp = sub.add_parser("perpetuity", help="partial-sum bracket for an (X, B) pair")
    common(sp)
    sp.add_argument("--dist", help="X law (nonnegative)")
    sp.add_argument("--b-dist", dest="b_dist", action="append", help="B component law (repeatable)")
    sp.add_argument("--coupling", choices=("independent", "comonotone-scalar"))
    sp.add_argument("--p", type=float)
    sp.add_argument("--n-list", dest="n_list", help="comma list of horizons n")
    sp.add_argument("--norm", choices=mc.NORM_KINDS)
    sp.add_argument("--grid-a", dest="grid_a")
    sp.add_argument("--grid-q", dest="grid_q")
    sp.add_argument(
        "--fixed-point-demo",
        dest="fixed_point_demo",
        action="store_true",
        default=None,
        help="run the degenerate pair X=0.5, B=1 whose bracket must fail",
    )

    sp = sub.add_parser("counterexample", help="signed-factor ratio blow-up")
    common(sp)
    sp.add_argument("--n", type=int)
    sp.add_argument("--p", type=float)

    return parser


def _resolve_config(args: argparse.Namespace) -> dict:
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a JSON object")
    dests = sorted(
        k for k in vars(args) if k not in ("command", "config")
    )
    unknown = set(cfg) - set(dests) - {"command", "config"}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    resolved = {"command": args.command}
    for dest in dests:
        value = getattr(args, dest)
        if value is None:
            value = cfg.get(dest)
        if value is None:
            value = _DEFAULTS.get((args.command, dest))
        resolved[dest] = value
    if args.command == "verify":
        # explicit --coeffs fix d by their row width and an unset n by their row
        # count; random ones and none mean d = 1 and leave n to --n
        rows = _explicit_rows(resolved["coeffs"])
        if resolved["dim"] is None:
            resolved["dim"] = len(rows[0].split(",")) if rows else 1
        if resolved["n"] is None and rows:
            resolved["n"] = len(rows) - 1
    return resolved


def _explicit_rows(text) -> list[str] | None:
    """The row texts of explicit --coeffs, or None for random: ones and none."""
    if not text or str(text).startswith("random:"):
        return None
    text = str(text)
    return text.split(";") if ";" in text else text.split(",")


def _require(resolved: dict, key: str):
    value = resolved.get(key)
    if value is None:
        raise ValueError(f"--{key.replace('_', '-')} is required for {resolved['command']}")
    return value


def _float_list(text: str) -> list[float]:
    return [float(part) for part in str(text).split(",") if part.strip() != ""]


def _int_list(text: str) -> list[int]:
    return [int(part) for part in str(text).split(",") if part.strip() != ""]


def _grid(resolved: dict, key: str):
    raw = resolved.get(key)
    return tuple(_float_list(raw)) if raw is not None else None


def _coefficient_sets(resolved: dict) -> list[mc.CoefficientSet]:
    text = resolved.get("coeffs")
    norm = resolved.get("norm") or "l2"
    seed = int(resolved.get("seed") or 0)
    dim = int(resolved["dim"])
    if text and str(text).startswith("random:"):
        params = {}
        body = str(text)[len("random:"):]
        for item in body.split(","):
            if not item:
                continue
            key, _, val = item.partition("=")
            params[key.strip()] = val.strip()
        extra = set(params) - {"count", "scale", "seed"}
        if extra:
            raise ValueError(f"unknown random coefficient options: {sorted(extra)}")
        count = int(params.get("count", 20))
        if count < 1:
            raise ValueError(f"--coeffs {text}: count must be at least 1, got {count}")
        scale = float(params.get("scale", 1.0))
        cseed = int(params.get("seed", seed))
        n = _require(resolved, "n")
        sets = []
        for d in range(count):
            gen = dc.RandomSource(cseed, 500 + d).generator()
            mat = scale * gen.standard_normal((int(n) + 1, dim))
            sets.append(
                mc.CoefficientSet(
                    tuple(tuple(float(x) for x in row) for row in mat), norm
                )
            )
    elif text:
        try:
            rows = [tuple(float(x) for x in row.split(",")) for row in _explicit_rows(text)]
        except ValueError as exc:
            raise ValueError(f"--coeffs {text}: {exc}") from None
        sets = [mc.CoefficientSet(tuple(rows), norm)]
        if sets[0].dim != dim:
            raise ValueError(
                f"--dim {dim} differs from the row width {sets[0].dim} of --coeffs {text}"
            )
    elif resolved.get("n") is not None:
        resolved = dict(resolved)
        resolved["coeffs"] = "random:count=20,scale=1.0"
        return _coefficient_sets(resolved)
    else:
        raise ValueError("verify needs --coeffs or --n")
    for coeffs in sets:
        _check_coefficients(text, coeffs.matrix())
    return sets


def _check_coefficients(text, values) -> None:
    """Reject coefficients that leave the ratio of the two sides undefined."""
    if not np.all(np.isfinite(values)):
        raise ValueError(f"--coeffs {text}: coefficients must be finite")
    if not np.any(values):
        raise ValueError(f"--coeffs {text}: all coefficients are zero, so the ratio is undefined")


def _certify_pipeline(spec, p: float, resolved: dict):
    """Scan the grid for the best constants, then recheck the winning certificate."""
    grid_a = _grid(resolved, "grid_a")
    if p <= 1.0:
        bundle, cert = optimize_small_p(spec, p, grid_a or DEFAULT_A_GRID_SMALL)
        return bundle, cert, verify_small_p(spec, cert)
    grid_q = _grid(resolved, "grid_q")
    bundle, cert = optimize_large_p(spec, p, grid_a or DEFAULT_A_GRID_LARGE, grid_q or None)
    return bundle, cert, verify_large_p(spec, cert)


def cmd_moments(resolved: dict):
    spec = dc.parse_spec(_require(resolved, "dist"))
    qs = _float_list(resolved["q"])
    table = [dc.abs_moment(spec, q) for q in qs]
    return {"table": table}, 0


def cmd_certify(resolved: dict):
    spec0 = dc.parse_spec(_require(resolved, "dist"))
    p = float(_require(resolved, "p"))
    spec, scale = dc.normalize_unit_p_moment(spec0, p)
    bundle, cert, recheck = _certify_pipeline(spec, p, resolved)
    results = {
        "normalized_spec": dc.spec_to_text(spec),
        "normalization_scale": scale,
        "certificate": cert,
        "bundle": bundle,
        "recheck": recheck,
    }
    return results, 0


def cmd_verify(resolved: dict):
    spec0 = dc.parse_spec(_require(resolved, "dist"))
    p = float(_require(resolved, "p"))
    reps = int(resolved["reps"])
    seed = int(resolved["seed"])
    if int(resolved["dim"]) < 1:
        raise ValueError(f"--dim {resolved['dim']}: the dimension must be at least 1")
    n = resolved["n"]
    if n is not None and int(n) < 0:
        raise ValueError(f"--n {n}: the number of factors must be at least 0")
    rows = _explicit_rows(resolved["coeffs"])
    if rows and int(n) != len(rows) - 1:
        raise ValueError(
            f"--n {n} differs from the {len(rows) - 1} factors of --coeffs {resolved['coeffs']}"
        )
    spec, scale = dc.normalize_unit_p_moment(spec0, p)
    src = dc.RandomSource(seed, 0)
    try:
        bundle, cert, recheck = _certify_pipeline(spec, p, resolved)
    except DegenerateModulusError as exc:
        # No certificate can exist; report the ratio blow-up that explains why.
        if str(resolved["coeffs"]).startswith("random:"):
            raise ValueError(
                f"--coeffs {resolved['coeffs']}: the sign counterexample for a degenerate |X| "
                "sums all-ones coefficients, so random ones would go unused"
            )
        if rows:
            _coefficient_sets(resolved)  # explicit values are checked here as well
        if int(resolved["dim"]) > 1:
            flag = f"--coeffs {resolved['coeffs']}" if rows else f"--dim {resolved['dim']}"
            raise ValueError(f"{flag}: the sign counterexample for a degenerate |X| is scalar")
        n = 100 if n is None else int(n)
        if n < 1:
            flag = f"--coeffs {resolved['coeffs']}" if rows else f"--n {n}"
            raise ValueError(f"{flag}: the counterexample for a degenerate |X| needs n >= 1")
        ce = mc.khintchine_counterexample(n, p, reps, src, spec=spec)
        results = {
            "normalized_spec": dc.spec_to_text(spec),
            "degenerate": str(exc),
            "counterexample": ce,
            "verdict": mc.FAIL,
            "note": "no two-sided comparison holds for a degenerate |X|",
        }
        return results, 1
    sets = _coefficient_sets(resolved)
    rows = []
    any_fail = False
    all_pass = True
    for d, coeffs in enumerate(sets):
        rep = mc.run_sandwich(spec, p, coeffs, bundle, reps, src.child(600 + d))
        rows.append({"coefficients": list(coeffs.vectors), "report": rep})
        any_fail = any_fail or rep.verdict == mc.FAIL
        all_pass = all_pass and rep.verdict == mc.PASS
    if resolved.get("csv"):
        mc.estimate_lhs(spec, sets[0], p, reps, src.child(700), csv_path=resolved["csv"])
    ratios = [row["report"].ratio for row in rows]
    results = {
        "normalized_spec": dc.spec_to_text(spec),
        "normalization_scale": scale,
        "certificate": cert,
        "bundle": bundle,
        "recheck": recheck,
        "draws": len(rows),
        "reports": rows,
        "min_ratio": min(ratios),
        "max_ratio": max(ratios),
        "all_pass": all_pass,
    }
    return results, 1 if any_fail else 0


def cmd_riesz(resolved: dict):
    seq = LacunarySequence(tuple(_int_list(_require(resolved, "seq"))))
    p = float(_require(resolved, "p"))
    reps = int(resolved["reps"])
    seed = int(resolved["seed"])
    quad_points = resolved.get("quad_points")
    quad_points = int(quad_points) if quad_points is not None else None
    src = dc.RandomSource(seed, 0)
    lac = check_lacunary(seq)
    if resolved.get("term") is not None:
        i = int(resolved["term"])
        if not 0 <= i <= seq.m:
            raise ValueError(f"--term {i} is outside 0..{seq.m}, the products of --seq")
        comb = RieszCombination(seq, (0.0,) * i + (1.0,))
        torus = riesz_lp_norm(comb, p, quad_points)
        factor_p = dc.abs_moment(dc.riesz_factor(), p).value
        results = {
            "lacunary": lac,
            "term": i,
            "torus": torus,
            "probabilistic_exact": factor_p**i,
        }
        return results, 0
    if resolved.get("coeffs") is not None:
        comb = RieszCombination(seq, tuple(_float_list(resolved["coeffs"])))
        _check_coefficients(resolved["coeffs"], np.asarray(comb.coefficients))
        report = corollary_check(comb, p, reps, src, quad_points)
        return {"lacunary": lac, "check": report}, 0
    if resolved.get("draws") is not None:
        scan = corollary_ratio_scan(seq, p, int(resolved["draws"]), reps, src, quad_points)
        return {"lacunary": lac, "scan": scan}, 0
    raise ValueError("riesz needs one of --term, --coeffs, --draws")


def cmd_perpetuity(resolved: dict):
    p = float(_require(resolved, "p"))
    reps = int(resolved["reps"])
    seed = int(resolved["seed"])
    norm = resolved.get("norm") or "l2"
    src = dc.RandomSource(seed, 0)
    if resolved.get("fixed_point_demo"):
        pair = PairSpec(
            x_spec=dc.finitely_supported([(0.5, 1.0)]),
            b_specs=(dc.finitely_supported([(1.0, 1.0)]),),
            coupling="independent",
            norm=norm,
        )
        n_list = _int_list(resolved.get("n_list") or "1,2,4,8,16,32,64")
        rows = mc.goldie_bracket(
            pair, p, n_list, (0.05, 10.0, True), reps, src, require_normalized=False
        )
        middles = [row.middle.mean for row in rows]
        closed = [(2.0 * (1.0 - 0.5**n)) ** p / n for n in n_list]
        decreasing = all(a > b for a, b in zip(middles, middles[1:]))
        demo_ok = decreasing and rows[-1].verdict == mc.FAIL
        results = {
            "pair": {"x": "finite:atoms=0.5@1", "b": ["finite:atoms=1@1"]},
            "bracket": (0.05, 10.0),
            "rows": rows,
            "closed_form": closed,
            "demonstrated": demo_ok,
            "note": "X has a fixed point Xv+B = v at v = 2, so (1/n)E|S_n|^p "
            "sinks below any positive lower edge",
        }
        return results, 0 if demo_ok else 1
    x0 = dc.parse_spec(_require(resolved, "dist"))
    b_texts = resolved.get("b_dist") or []
    if not b_texts:
        raise ValueError("perpetuity needs at least one --b-dist")
    b_specs = tuple(dc.parse_spec(t) for t in b_texts)
    x_spec, scale = dc.normalize_unit_p_moment(x0, p)
    pair = PairSpec(
        x_spec=x_spec,
        b_specs=b_specs,
        coupling=resolved["coupling"],
        norm=norm,
    )
    nondeg = check_pair_nondegeneracy(pair, 10_000, src.child(50))
    bundle, cert, recheck = _certify_pipeline(x_spec, p, resolved)
    constants = mc.bracket_constants(pair, p, bundle, cert)
    n_list = _int_list(resolved.get("n_list") or "1,2,3,4,5,6")
    rows = mc.goldie_bracket(pair, p, n_list, constants, reps, src.child(1))
    any_fail = any(row.verdict == mc.FAIL for row in rows)
    results = {
        "normalized_x": dc.spec_to_text(x_spec),
        "normalization_scale": scale,
        "nondegeneracy": nondeg,
        "certificate": cert,
        "bundle": bundle,
        "recheck": recheck,
        "rows": rows,
    }
    return results, 1 if any_fail else 0


def cmd_counterexample(resolved: dict):
    n = int(resolved["n"])
    p = float(resolved["p"])
    reps = int(resolved["reps"])
    src = dc.RandomSource(int(resolved["seed"]), 0)
    report = mc.khintchine_counterexample(n, p, reps, src)
    return {"counterexample": report}, 0


_DISPATCH = {
    "moments": cmd_moments,
    "certify": cmd_certify,
    "verify": cmd_verify,
    "riesz": cmd_riesz,
    "perpetuity": cmd_perpetuity,
    "counterexample": cmd_counterexample,
}


def _encode(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # one level only: json calls _encode again for nested dataclasses
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        worker_count()  # a bad MOMSAND_THREADS is a usage error for every command
        resolved = _resolve_config(args)
        results, code = _DISPATCH[args.command](resolved)
        report = {
            "tool": "momsand",
            "version": __version__,
            "command": args.command,
            "config": resolved,
            "results": results,
            "wall_time_s": time.perf_counter() - t0,
        }
        # strict JSON: a NaN or infinity left anywhere in the report is a ValueError
        text = json.dumps(report, indent=2, sort_keys=True, default=_encode, allow_nan=False)
    except _HYPOTHESIS_ERRORS as exc:
        print(f"hypothesis error: {exc}", file=sys.stderr)
        return 3
    except _USAGE_ERRORS as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    print(text)
    if resolved.get("out"):
        with open(resolved["out"], "w") as fh:
            fh.write(text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
