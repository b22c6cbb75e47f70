"""Spans around calls into momsand's layers, recorded from outside the package.

`install` rebinds public functions in the momsand modules (and the names
that `from ... import` copied into other modules) to wrappers that record a
span per call: name, start, end, parent span, operation id and a work count
taken from the call's arguments or return value.  Spans stay in memory and
are written out once the batch ends; `layer_metrics` derives self times and
counts from them.

Only the serial pass is traced: spans of one operation nest on one thread.
"""

from __future__ import annotations

import threading
import time

import numpy as np


def _size(args, kwargs, result) -> int:
    return int(np.size(result))


def _replications(args, kwargs, result) -> int:
    return int(result.replications)


def _path_steps(args, kwargs, result) -> int:
    # estimate_lhs(spec, coeffs, ...) has coeffs.n factors per path;
    # perpetuity_lhs(pair, n, ...) has n steps per path
    length = args[1] if isinstance(args[1], int) else args[1].n
    return int(result.replications) * int(length)


def _draw_size(args, kwargs, result) -> int:
    return int(args[1])


def _points(args, kwargs, result) -> int:
    return int(result.points)


class Tracer:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, op id, work]
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.op_id = -1
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, work=None):
        """`fn` wrapped so that each call records a span called `name`."""

        def wrapper(*args, **kwargs):
            stack = self._stack()
            idx = len(self.spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, 0]
            self.spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if work is not None:
                span[5] = work(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counting(self, name: str, fn, work):
        """`fn` wrapped so that each call adds its work to counter `name`."""

        def wrapper(*args, **kwargs):
            self.counters[name] = self.counters.get(name, 0) + work(args, kwargs)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


def install(tracer: Tracer) -> None:
    """Rebind momsand's layer entry points to traced wrappers."""
    import scipy.integrate

    from momsand import assumptions, cli, constants, dist_core, montecarlo, riesz

    def bind(modules, attr, name, work=None):
        original = getattr(modules[0], attr)
        wrapped = tracer.span(name, original, work)
        for module in modules:
            setattr(module, attr, wrapped)

    bind([cli], "optimize_large_p", "constants.optimize")
    bind([cli], "optimize_small_p", "constants.optimize")
    for attr in ("fit_large_p", "fit_small_p"):
        bind([assumptions, cli, constants], attr, "assumptions.fit")
    for attr in ("verify_large_p", "verify_small_p"):
        bind([assumptions, cli], attr, "assumptions.verify")
    bind([assumptions, montecarlo], "draw_pair", "assumptions.draw_pair", _draw_size)
    bind([dist_core], "sample", "dist_core.sample", _size)
    bind([dist_core], "quantile", "dist_core.quantile", _size)
    bind([dist_core], "abs_moment", "dist_core.abs_moment")
    bind([dist_core], "expect", "dist_core.expect")
    bind([scipy.integrate], "quad", "dist_core.quad")
    bind([montecarlo, riesz], "estimate_lhs", "montecarlo.sample", _path_steps)
    bind([montecarlo], "perpetuity_lhs", "montecarlo.sample", _path_steps)
    bind([montecarlo], "brute_force_lhs", "montecarlo.enum", _replications)
    bind([montecarlo], "brute_force_perpetuity", "montecarlo.enum", _replications)
    bind([riesz, cli], "riesz_lp_norm", "riesz.grid", _points)
    # the blocks run inside map_indexed, so a span there would take their
    # time away from the layer that owns them: count blocks only
    for module in (montecarlo, riesz):
        module.map_indexed = tracer.counting(
            "pool.blocks", module.map_indexed, lambda args, kwargs: len(args[1])
        )


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans: list[list], counters: dict[str, int]) -> dict[str, float]:
    """Per-layer self times, call counts, work counts and rates of one batch."""
    own = self_times(spans)
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    refits = 0
    for idx, (name, start, end, parent, _, done) in enumerate(spans):
        parent_name = spans[parent][0] if parent >= 0 else None
        self_s[name] = self_s.get(name, 0.0) + own[idx]
        if parent_name == name:
            continue  # a recursive call: its work is the outer call's work
        total_s[name] = total_s.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + done
        if name == "assumptions.fit" and parent_name == "constants.optimize":
            refits += 1

    def rate(name):
        busy = total_s.get(name, 0.0)
        return work.get(name, 0) / busy if busy > 0.0 else 0.0

    return {
        "cli.self_s": self_s.get("cli.main", 0.0),
        "dist_core.uniform_s": self_s.get("dist_core.sample", 0.0),
        "dist_core.quantile_s": self_s.get("dist_core.quantile", 0.0),
        "dist_core.quantile_calls": calls.get("dist_core.quantile", 0),
        "dist_core.draws": work.get("dist_core.quantile", 0),
        "dist_core.quad_s": self_s.get("dist_core.quad", 0.0),
        "dist_core.quad_calls": calls.get("dist_core.quad", 0),
        "dist_core.moment_s": self_s.get("dist_core.abs_moment", 0.0)
        + self_s.get("dist_core.expect", 0.0),
        "dist_core.abs_moment_calls": calls.get("dist_core.abs_moment", 0),
        "dist_core.expect_calls": calls.get("dist_core.expect", 0),
        "assumptions.fit_s": self_s.get("assumptions.fit", 0.0)
        + self_s.get("assumptions.verify", 0.0),
        "assumptions.draw_pair_s": self_s.get("assumptions.draw_pair", 0.0),
        "constants.optimize_s": self_s.get("constants.optimize", 0.0),
        "constants.refits": refits,
        "montecarlo.sample_s": self_s.get("montecarlo.sample", 0.0),
        "montecarlo.path_steps": work.get("montecarlo.sample", 0),
        "montecarlo.path_steps_per_s": rate("montecarlo.sample"),
        "montecarlo.enum_s": self_s.get("montecarlo.enum", 0.0),
        "montecarlo.outcomes": work.get("montecarlo.enum", 0),
        "montecarlo.outcomes_per_s": rate("montecarlo.enum"),
        "riesz.grid_s": self_s.get("riesz.grid", 0.0),
        "riesz.grid_passes": calls.get("riesz.grid", 0),
        "riesz.grid_points": work.get("riesz.grid", 0),
        "riesz.grid_points_per_s": rate("riesz.grid"),
        "pool.blocks": counters.get("pool.blocks", 0),
    }
