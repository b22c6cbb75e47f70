"""The benchmark's workloads: fixed batches of `momsand` CLI operations.

Each operation is a dict with an `id`, the `argv` handed to
`momsand.cli.main`, and a `check` naming the oracle its report must satisfy
(see checks.py).  The workload seed picks only the random coefficient sets,
the Monte Carlo `--seed` values and the explicit Riesz coefficients; sizes,
laws and exponents are fixed, so the work per operation does not depend on
the seed.

Every workload ends with the same three small probe operations.  They cost
well under 1% of a batch and make every traced layer do some work on every
workload, so a layer that a workload barely uses reads a small measured
time instead of an exact zero.
"""

from __future__ import annotations

import random

RIESZ_SEQ_8 = ",".join(str(4**k) for k in range(1, 9))
RIESZ_SEQ_9 = ",".join(str(4**k) for k in range(1, 10))

TWO_POINT = "twopoint:a=0.5,b=1.5,pa=0.5"
TWO_POINT_B = "twopoint:a=0.4,b=1.3,pa=0.3"
THREE_ATOMS = "finite:atoms=0.5@0.3|1@0.4|2@0.3"
FOUR_ATOMS = "finite:atoms=0.25@0.2|0.75@0.3|1.5@0.3|2.5@0.2"

CERTIFY_LAWS = (
    "riesz",
    "lognormal:mu=0,sigma=0.5",
    "exponential:rate=1",
    "uniform:lo=0,hi=2",
    "finite:atoms=0.5@0.25|1@0.5|2@0.25",
    TWO_POINT,
    "scaled:scale=2,base=(uniform:lo=0,hi=1)",
)
CERTIFY_PS = (0.5, 0.9, 1.25, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 8.5)

WORKLOADS = ("mc_paths", "torus", "exact_certify")


def _atoms(text: str) -> list[tuple[float, float]]:
    """(value, probability) pairs of a twopoint: or finite: spec text."""
    family, _, body = text.partition(":")
    if family == "twopoint":
        kv = dict(item.split("=") for item in body.split(","))
        pa = float(kv["pa"])
        return [(float(kv["a"]), pa), (float(kv["b"]), 1.0 - pa)]
    pieces = body.partition("=")[2].split("|")
    return [(float(v), float(prob)) for v, prob in (piece.split("@") for piece in pieces)]


class _Seeds:
    """Seed-derived values for one workload; the same seed gives the same values."""

    def __init__(self, workload: str, seed: int):
        self._rng = random.Random(f"momsand-bench/{workload}/{seed}")

    def int(self) -> int:
        return self._rng.randrange(1, 2**31)

    def coeffs(self, count: int) -> str:
        return ",".join(f"{self._rng.gauss(0.0, 1.0):.6g}" for _ in range(count))


def _op(op_id: str, argv: list, kind: str, **params) -> dict:
    return {"id": op_id, "argv": [str(a) for a in argv], "check": dict(kind=kind, **params)}


def _exact_verify(op_id, law, p, n, count, seeds, dim=1, norm="l2") -> dict:
    argv = ["verify", "--dist", law, "--p", p, "--n", n, "--dim", dim, "--norm", norm,
            "--coeffs", f"random:count={count},seed={seeds.int()}"]
    return _op(op_id, argv, "exact_verify", atoms=_atoms(law), p=p, n=n, count=count)


def _probes(seeds: _Seeds) -> list[dict]:
    return [
        _op("probe_riesz", ["riesz", "--seq", "4,16,64", "--p", 3, "--term", 3],
            "riesz_term", p=3.0, i=3),
        _exact_verify("probe_enum", TWO_POINT, 2.0, 8, 1, seeds),
        _op("probe_perpetuity",
            ["perpetuity", "--dist", "uniform:lo=0,hi=2", "--b-dist", "uniform:lo=0,hi=1",
             "--p", 2, "--n-list", 2, "--reps", 4096, "--seed", seeds.int()],
            "no_fail"),
    ]


def _mc_paths(seeds: _Seeds) -> list[dict]:
    def mc_verify(op_id, law, p, n, count, *extra):
        argv = ["verify", "--dist", law, "--p", p, "--n", n,
                "--coeffs", f"random:count={count},seed={seeds.int()}",
                "--seed", seeds.int(), *extra]
        return _op(op_id, argv, "no_fail")

    def perpetuity(op_id, coupling, p, b_dists):
        argv = ["perpetuity", "--dist", "uniform:lo=0,hi=2"]
        for b in b_dists:
            argv += ["--b-dist", b]
        argv += ["--coupling", coupling, "--p", p, "--n-list", "1,2,4,8,16,32,64",
                 "--seed", seeds.int()]
        return _op(op_id, argv, "no_fail")

    return [
        _op("counterexample",
            ["counterexample", "--n", 100, "--p", 4, "--reps", 1_000_000,
             "--seed", seeds.int()],
            "counterexample", n=100),
        mc_verify("verify_lognormal", "lognormal:mu=0,sigma=0.5", 2.5, 20, 4,
                  "--reps", 200_000),
        mc_verify("verify_uniform", "uniform:lo=0,hi=2", 3.5, 20, 20, "--dim", 3),
        mc_verify("verify_twopoint_n40", TWO_POINT, 1.5, 40, 20),
        perpetuity("perpetuity_independent", "independent", 2.0,
                   ["uniform:lo=0,hi=1", "exponential:rate=1"]),
        perpetuity("perpetuity_comonotone", "comonotone-scalar", 2.5,
                   ["exponential:rate=1"]),
    ]


def _torus(seeds: _Seeds) -> list[dict]:
    return [
        _op("riesz_coeffs",
            ["riesz", "--seq", RIESZ_SEQ_8, "--p", 3, f"--coeffs={seeds.coeffs(9)}",
             "--seed", seeds.int()],
            "riesz_coeffs", p=3.0),
        _op("riesz_draws",
            ["riesz", "--seq", RIESZ_SEQ_8, "--p", 2.5, "--draws", 2, "--seed", seeds.int()],
            "riesz_draws", band=10.0),
        # (E X^p)^i is the exact torus value only where no nontrivial sum
        # k_1 n_1 + ... + k_m n_m with |k_j| <= p vanishes: integer p <= 3
        # for ratio-4 sequences (at p = 3.5 the value is 7% above it)
        _op("riesz_term9", ["riesz", "--seq", RIESZ_SEQ_9, "--p", 3, "--term", 9],
            "riesz_term", p=3.0, i=9),
    ]


def _exact_certify(seeds: _Seeds) -> list[dict]:
    ops = [
        _exact_verify("exact_twopoint_p2", TWO_POINT, 2.0, 22, 1, seeds, dim=2),
        _exact_verify("exact_twopoint_n23", TWO_POINT_B, 2.5, 23, 1, seeds),
        _exact_verify("exact_three_atoms", THREE_ATOMS, 0.5, 14, 1, seeds, dim=2),
        _exact_verify("exact_four_atoms", FOUR_ATOMS, 3.5, 11, 1, seeds, dim=3, norm="sup"),
        _op("exact_perpetuity",
            ["perpetuity", "--dist", TWO_POINT, "--b-dist", TWO_POINT_B, "--p", 2,
             "--n-list", "1,2,3,4,5,6,7,8,9", "--seed", seeds.int()],
            "exact_perpetuity", rows=9),
        _op("exact_perpetuity_comonotone",
            ["perpetuity", "--dist", THREE_ATOMS, "--b-dist", "finite:atoms=1@0.5|2@0.5",
             "--coupling", "comonotone-scalar", "--p", 2.5, "--n-list", "1,2,4,8",
             "--seed", seeds.int()],
            "exact_perpetuity", rows=4),
        _op("fixed_point_demo", ["perpetuity", "--fixed-point-demo"], "fixed_point_demo",
            p=1.0, n_list=[1, 2, 4, 8, 16, 32, 64]),
    ]
    for law in CERTIFY_LAWS:
        for p in CERTIFY_PS:
            name = law.partition(":")[0]
            ops.append(_op(f"certify_{name}_p{p}", ["certify", "--dist", law, "--p", p],
                           "certify"))
    return ops


_BATCHES = {"mc_paths": _mc_paths, "torus": _torus, "exact_certify": _exact_certify}


def build(workload: str, seed: int) -> list[dict]:
    """The operation batch of `workload` for `seed`."""
    if workload not in _BATCHES:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    seeds = _Seeds(workload, seed)
    return _BATCHES[workload](seeds) + _probes(seeds)
