"""Command-line surface: seeded experiments with machine-readable reports.

Every subcommand prints one JSON report to stdout (and to --out when given)
containing the tool version, the fully resolved configuration, and the
results.  Reports are byte-identical across reruns with the same config,
whatever MOMSAND_THREADS says, except for the wall_time_s field.  A report
is strict JSON with sorted keys: "{", one line per top-level member, each
value in json's compact form, then "}".  `python3 -m json.tool` pretty-prints
one.

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
underscores (e.g. {"dist": "uniform:lo=0,hi=2", "p": 0.5}).  The parser reads
each value as that flag's --key=value, so it has the flag's type, choices and
default; explicit flags win over config values.  The resolved config embedded
in each report can be fed back via --config to reproduce the run.
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
from .errors import DegenerateModulusError, HypothesisError, UsageError
from .riesz import (
    LacunarySequence,
    RieszCombination,
    check_lacunary,
    corollary_check,
    corollary_ratio_scan,
    riesz_lp_norm,
)


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
    sp.set_defaults(q="1,2")

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
    sp.add_argument("--csv", help="sample every coefficient set past the enumeration cap "
                    "instead of enclosing it by moments, and dump the first set's "
                    "per-replication samples")
    sp.set_defaults(reps=50_000, seed=0, norm="l2")

    sp = sub.add_parser("riesz", help="torus norms vs the probabilistic model")
    common(sp)
    sp.add_argument("--seq", help="comma list of increasing frequencies")
    sp.add_argument("--p", type=float)
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--term", type=int, help="single product index i")
    mode.add_argument("--coeffs", help="comma list a0,a1,...")
    mode.add_argument("--draws", type=int, help="random coefficient draws to scan")
    sp.add_argument("--quad-points", dest="quad_points", type=int,
                    help="torus grid points N, rounded up to even; at least each row's "
                    "default N (the exact-degree or dense rule, README: riesz)")
    sp.set_defaults(reps=200_000, seed=0)

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
    sp.set_defaults(reps=50_000, seed=0, norm="l2", coupling="independent", p=1.0)

    sp = sub.add_parser("counterexample", help="signed-factor ratio blow-up")
    common(sp)
    sp.add_argument("--n", type=int)
    sp.add_argument("--p", type=float)
    sp.set_defaults(n=100, p=4.0, reps=100_000, seed=0)

    return parser


def _resolve_config(args: argparse.Namespace, argv=None) -> dict:
    """The report's config: `argv` (sys.argv[1:] by default) parsed again with each
    config-file value as a --key=value flag ahead of the command's own, which win."""
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(cfg) - set(vars(args))
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        tokens = []
        for key, value in cfg.items():
            flag = "--" + key.replace("_", "-")
            if key in ("command", "config") or (key == "b_dist" and args.b_dist):
                continue  # a command-line --b-dist replaces the config's list
            if isinstance(value, list) and key != "b_dist":
                raise ValueError(f"{flag}: a JSON list is accepted only for --b-dist")
            for item in value if isinstance(value, list) else [value]:
                if item is True:
                    tokens.append(flag)
                elif item is not None and item is not False:
                    tokens.append(f"{flag}={item if isinstance(item, str) else json.dumps(item)}")
        argv = sys.argv[1:] if argv is None else list(argv)
        at = argv.index(args.command) + 1
        args = _build_parser().parse_args([*argv[:at], *tokens, *argv[at:]])
    return {key: value for key, value in vars(args).items() if key != "config"}


def _require(resolved: dict, key: str):
    value = resolved.get(key)
    if value is None:
        raise ValueError(f"--{key.replace('_', '-')} is required for {resolved['command']}")
    return value


def _spec(flag: str, text: str) -> dc.DistributionSpec:
    """The law a spec flag gives; a malformed spec is a usage error naming the flag."""
    try:
        return dc.parse_spec(text)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _list(resolved: dict, key: str, cast=float) -> list | None:
    """The comma list a flag holds, None when unset; an empty list is a usage error."""
    text = resolved.get(key)
    if text is None:
        return None
    values = [cast(part) for part in text.split(",") if part.strip() != ""]
    if not values:
        raise ValueError(f"--{key.replace('_', '-')} {text!r}: the list is empty")
    return values


def _verify_coefficients(resolved: dict) -> list[mc.CoefficientSet]:
    """Check verify's --coeffs, --n and --dim once and build its coefficient sets.

    Explicit rows fix an unset --dim by their width and an unset --n by their
    count, and the echoed config shows both; random draws and none mean d = 1
    and leave n to --n, which alone draws random:count=20.  Neither flag gives
    no sets, which only the degenerate counterexample accepts.
    """
    text, n = resolved["coeffs"], resolved["n"]
    if text is not None and not text.strip():
        raise ValueError(f"--coeffs {text!r}: the list is empty")
    explicit = text is not None and not text.startswith("random:")
    rows = text.split(";" if ";" in text else ",") if explicit else []
    if resolved["dim"] is None:
        resolved["dim"] = len(rows[0].split(",")) if rows else 1
    if n is None and rows:
        resolved["n"] = n = len(rows) - 1
    dim = resolved["dim"]
    if dim < 1:
        raise ValueError(f"--dim {dim}: the dimension must be at least 1")
    if n is not None and n < 0:
        raise ValueError(f"--n {n}: the number of factors must be at least 0")
    if rows and n != len(rows) - 1:
        raise ValueError(f"--n {n} differs from the {len(rows) - 1} factors of --coeffs {text}")
    norm = resolved["norm"]
    if rows:
        try:
            values = tuple(tuple(float(x) for x in row.split(",")) for row in rows)
        except ValueError as exc:
            raise ValueError(f"--coeffs {text}: {exc}") from None
        sets = [mc.CoefficientSet(values, norm)]
        if sets[0].dim != dim:
            raise ValueError(
                f"--dim {dim} differs from the row width {sets[0].dim} of --coeffs {text}"
            )
        _check_coefficients(text, sets[0].matrix())
    elif text is not None or n is not None:
        params = {}
        body = (text or "random:count=20")[len("random:"):]
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
        cseed = int(params.get("seed", resolved["seed"]))
        n = _require(resolved, "n")
        sets = []
        for d in range(count):
            gen = dc.RandomSource(cseed, 500 + d).generator()
            mat = scale * gen.standard_normal((n + 1, dim))
            _check_coefficients(text, mat)
            sets.append(mc.CoefficientSet(tuple(map(tuple, mat.tolist())), norm))
    else:
        return []
    return sets


def _check_coefficients(text, values) -> None:
    """Reject coefficients that leave the ratio of the two sides undefined."""
    if not np.all(np.isfinite(values)):
        raise ValueError(f"--coeffs {text}: coefficients must be finite")
    if not np.any(values):
        raise ValueError(f"--coeffs {text}: all coefficients are zero, so the ratio is undefined")


def _certify_pipeline(spec, p: float, resolved: dict):
    """Scan the grid for the best constants, then recheck the winning certificate."""
    grid_a, grid_q = _list(resolved, "grid_a"), _list(resolved, "grid_q")
    for key, grid in (("grid_a", grid_a), ("grid_q", grid_q)):
        if grid is not None and not np.all(np.isfinite(grid)):
            flag = key.replace("_", "-")
            raise ValueError(f"--{flag} {resolved[key]}: grid values must be finite")
    if p <= 1.0:
        bundle, cert = optimize_small_p(spec, p, grid_a or DEFAULT_A_GRID_SMALL)
        return bundle, cert, verify_small_p(spec, cert)
    bundle, cert = optimize_large_p(spec, p, grid_a or DEFAULT_A_GRID_LARGE, grid_q)
    return bundle, cert, verify_large_p(spec, cert)


def cmd_moments(resolved: dict):
    spec = _spec("--dist", _require(resolved, "dist"))
    qs = _list(resolved, "q")
    table = [{"q": q, "value": dc.abs_moment(spec, q)} for q in qs]
    return {"table": table}, 0


def cmd_certify(resolved: dict):
    spec0 = _spec("--dist", _require(resolved, "dist"))
    p = _require(resolved, "p")
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
    spec0 = _spec("--dist", _require(resolved, "dist"))
    p = _require(resolved, "p")
    reps = resolved["reps"]
    sets = _verify_coefficients(resolved)
    spec, scale = dc.normalize_unit_p_moment(spec0, p)
    src = dc.RandomSource(resolved["seed"], 0)
    try:
        bundle, cert, recheck = _certify_pipeline(spec, p, resolved)
    except DegenerateModulusError as exc:
        # No certificate can exist; report the ratio blow-up that explains why.
        text, n = resolved["coeffs"], resolved["n"]
        if resolved["csv"]:
            raise ValueError(f"--csv {resolved['csv']}: a degenerate |X| samples no paths to dump")
        if text and text.startswith("random:"):
            raise ValueError(
                f"--coeffs {text}: the sign counterexample for a degenerate |X| "
                "sums all-ones coefficients, so random ones would go unused"
            )
        if resolved["dim"] > 1:
            flag = f"--coeffs {text}" if text else f"--dim {resolved['dim']}"
            raise ValueError(f"{flag}: the sign counterexample for a degenerate |X| is scalar")
        n = 100 if n is None else n
        if n < 1:
            flag = f"--coeffs {text}" if text else f"--n {n}"
            raise ValueError(f"{flag}: the counterexample for a degenerate |X| needs n >= 1")
        ce = mc.khintchine_counterexample(n, p, spec=spec)
        results = {
            "normalized_spec": dc.spec_to_text(spec),
            "degenerate": str(exc),
            "counterexample": ce,
            "verdict": mc.FAIL,
            "note": "no two-sided comparison holds for a degenerate |X|",
        }
        return results, 1
    if not sets:
        raise ValueError("verify needs --coeffs or --n")
    constants = mc.bracket_constants(p, bundle)
    srcs = [src.child(600 + d) for d in range(len(sets))]
    # --csv samples past the cap, and the first set's samples go to it
    reports = mc.run_sandwiches(spec, p, sets, constants, reps, srcs, resolved["csv"])
    rows = [{"coefficients": list(c.vectors), "report": rep} for c, rep in zip(sets, reports)]
    any_fail = any(rep.verdict == mc.FAIL for rep in reports)
    all_pass = all(rep.verdict == mc.PASS for rep in reports)
    # an enclosure's ratio is its (lower, upper) pair
    ratios = [(r, r) if isinstance(r, float) else r for r in (rep.ratio for rep in reports)]
    results = {
        "normalized_spec": dc.spec_to_text(spec),
        "normalization_scale": scale,
        "certificate": cert,
        "bundle": bundle,
        "recheck": recheck,
        "draws": len(rows),
        "reports": rows,
        "min_ratio": min(lo for lo, _ in ratios),
        "max_ratio": max(hi for _, hi in ratios),
        "all_pass": all_pass,
    }
    return results, 1 if any_fail else 0


def cmd_riesz(resolved: dict):
    _require(resolved, "seq")
    seq = LacunarySequence(tuple(_list(resolved, "seq", int)))
    p = _require(resolved, "p")
    reps = resolved["reps"]
    quad_points = resolved["quad_points"]
    src = dc.RandomSource(resolved["seed"], 0)
    lac = check_lacunary(seq)
    if resolved.get("term") is not None:
        i = resolved["term"]
        if not 0 <= i <= seq.m:
            raise ValueError(f"--term {i} is outside 0..{seq.m}, the products of --seq")
        comb = RieszCombination(seq, (0.0,) * i + (1.0,))
        torus = riesz_lp_norm(comb, p, quad_points)
        factor_p = dc.abs_moment(dc.riesz_factor(), p)
        results = {
            "lacunary": lac,
            "term": i,
            "torus": torus,
            "probabilistic_exact": factor_p**i,
        }
        return results, 0
    if resolved.get("coeffs") is not None:
        comb = RieszCombination(seq, tuple(_list(resolved, "coeffs")))
        _check_coefficients(resolved["coeffs"], np.asarray(comb.coefficients))
        report = corollary_check(comb, p, reps, src, quad_points)
        return {"lacunary": lac, "check": report}, 0
    if resolved.get("draws") is not None:
        scan = corollary_ratio_scan(seq, p, resolved["draws"], reps, src, quad_points)
        return {"lacunary": lac, "scan": scan}, 0
    raise ValueError("riesz needs one of --term, --coeffs, --draws")


def cmd_perpetuity(resolved: dict):
    p = resolved["p"]
    reps = resolved["reps"]
    norm = resolved["norm"]
    src = dc.RandomSource(resolved["seed"], 0)
    if resolved.get("fixed_point_demo"):
        for key in ("dist", "b_dist", "grid_a", "grid_q"):
            if resolved[key]:
                raise ValueError(f"--{key.replace('_', '-')}: --fixed-point-demo runs its own pair")
        if resolved["coupling"] != "independent":
            raise ValueError("--coupling: --fixed-point-demo runs its own independent pair")
        pair = PairSpec(
            x_spec=dc.finitely_supported([(0.5, 1.0)]),
            b_specs=(dc.finitely_supported([(1.0, 1.0)]),),
            norm=norm,
        )
        n_list = _list(resolved, "n_list", int) or [1, 2, 4, 8, 16, 32, 64]
        constants = (0.05, 10.0, True)
        rows = mc.goldie_bracket(pair, p, n_list, constants, reps, src, require_normalized=False)
        middles = [row.middle.mean for row in rows]
        closed = [(2.0 * (1.0 - 0.5**n)) ** p / n for n in n_list]
        decreasing = all(a > b for a, b in zip(middles, middles[1:]))
        demo_ok = decreasing and rows[-1].verdict == mc.FAIL
        results = {
            "pair": {"x": "finite:atoms=0.5@1", "b": ["finite:atoms=1@1"]},
            "bracket": constants[:2],
            "rows": rows,
            "closed_form": closed,
            "demonstrated": demo_ok,
            "note": "X has a fixed point Xv+B = v at v = 2, so (1/n)E|S_n|^p "
            "sinks below any positive lower edge",
        }
        return results, 0 if demo_ok else 1
    x0 = _spec("--dist", _require(resolved, "dist"))
    if not resolved["b_dist"]:
        raise ValueError("perpetuity needs at least one --b-dist")
    b_specs = tuple(_spec("--b-dist", text) for text in resolved["b_dist"])
    x_spec, scale = dc.normalize_unit_p_moment(x0, p)
    pair = PairSpec(
        x_spec=x_spec,
        b_specs=b_specs,
        coupling=resolved["coupling"],
        norm=norm,
    )
    nondeg = check_pair_nondegeneracy(pair)
    bundle, cert, recheck = _certify_pipeline(x_spec, p, resolved)
    constants = mc.bracket_constants(p, bundle, cert, pair.coupling)
    n_list = _list(resolved, "n_list", int) or [1, 2, 3, 4, 5, 6]
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
    # exact: --reps and --seed are echoed in the config and change nothing
    return {"counterexample": mc.khintchine_counterexample(resolved["n"], resolved["p"])}, 0


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
        # one level only: the writer calls _encode again for nested dataclasses
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _dumps(report: dict) -> str:
    """report as strict JSON with sorted keys, one top-level member a line.

    Each member's value is json.dumps's compact text (its C encoder), with
    _encode for dataclasses and NumPy values; a NaN or an infinity raises
    json's ValueError.  The two-space member lines are kept because the
    benchmark finds and drops the "wall_time_s" line by them.
    """
    members = [f"  {json.dumps(key)}: "
               f"{json.dumps(report[key], sort_keys=True, default=_encode, allow_nan=False)}"
               for key in sorted(report)]
    return "{\n" + ",\n".join(members) + "\n}"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        worker_count()  # a bad MOMSAND_THREADS is a usage error for every command
        resolved = _resolve_config(args, argv)
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
        text = _dumps(report)
        if resolved.get("out"):  # an unwritable path is a usage error, before any output
            with open(resolved["out"], "w") as fh:
                fh.write(text + "\n")
    except HypothesisError as exc:
        print(f"hypothesis error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ValueError, OSError) as exc:  # JSONDecodeError is a ValueError
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
