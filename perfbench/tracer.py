"""Spans around the library's public functions, installed from outside the
program, and the per-layer metrics derived from them.

Each span is ``[name, start, end, parent index, answer id, counts]``. Spans
are kept in memory while the workload runs and written out by the worker at
exit. Wrappers replace the function on its own module and on every module
that bound the same object with ``from ... import`` (``cli``, ``solvers``,
``stochastic`` and the package namespace), so calls inside the library are
recorded as well as the benchmark's own.
"""

from __future__ import annotations

import functools
import time

import copclean
from copclean import cleaning, cli, construction, graphs, solvers, stochastic
from workloads import EXPECT

MODULES = (copclean, graphs, solvers, stochastic, construction, cleaning, cli)
EXACT = {("cycle:5", 2): EXPECT["c5/per_cop/optimal.value"],
         ("complete:5", 1): EXPECT["et_k5.value"]}


def _states(a, kw, res):
    return {"states": res.states}


def _cleanable(a, kw, res):
    ok, _, states = res
    return {"states": states, "greedy_hits": int(ok and states == 0)}


def _expected_time(a, kw, res):
    g = a[0]
    exact = None
    if res.mode == "random" and res.move_model == "per_cop" and res.placement_policy == "optimal":
        exact = EXACT.get((g.name, res.k))
    err = 0.0 if exact is None else abs(res.value - exact) / exact
    return {"iterations": res.iterations, "rel_err": err}


def _blocking(a, kw, res):
    return {"sampled_pairs": res.checked_pairs if res.mode == "sampled" else 0}


# (module, attribute, span name, counts taken from the call and its result)
TARGETS = (
    (graphs, "enumerate_connected", "graphs.enumerate_connected",
     lambda a, kw, res: {"classes": len(res)}),
    (graphs, "canonical_key", None, None),
    (graphs, "emit_graph6", "graphs.graph6", None),
    (graphs, "parse_graph6", "graphs.graph6", None),
    (solvers, "solve_cleaning", "solvers.solve_cleaning", _states),
    (solvers, "max_clean", "solvers.max_clean", _states),
    (solvers, "cleanable", "solvers.cleanable", _cleanable),
    (solvers, "seeing_number", "solvers.seeing_number", _states),
    (solvers, "inference_number", "solvers.inference_number", _states),
    (solvers, "pursuit_solve", "solvers.pursuit_solve", _states),
    (solvers, "reach_number", "solvers.reach_number", None),
    (solvers, "cop_number", "solvers.cop_number", None),
    (solvers, "limited_capture_solve", "solvers.limited_capture_solve", _states),
    (solvers, "capture_number_limited", "solvers.capture_number_limited", None),
    (stochastic, "expected_time", "stochastic.expected_time", _expected_time),
    (stochastic, "monte_carlo", "stochastic.monte_carlo",
     lambda a, kw, res: {"trials": res.trials}),
    (construction, "build_construction", "construction.build_construction", None),
    (construction, "check_blocking", "construction.check_blocking", _blocking),
    (construction, "check_middle_dominating", "construction.check_middle_dominating", None),
    (cleaning, "run_script", "cleaning.run_script", None),
    (cli, "cmd_sweep", "cli.sweep", None),
)
STATIC_TARGETS = (
    ("from_edges", "graphs.build"),
    ("from_edge_arrays", "graphs.build"),
)


def _canonical_name(a, kw):
    colors = a[2] if len(a) > 2 else kw.get("colors")
    return "graphs.canonical_key" if colors is None else "graphs.canonical_key.colored"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.active = False
        self.answer = None

    def wrap(self, fn, name, counts=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            if not tracer.active:
                return fn(*a, **kw)
            label = name(a, kw) if callable(name) else name
            idx = len(tracer.spans)
            span = [label, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1,
                    tracer.answer, None]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            span[1] = time.perf_counter()
            try:
                res = fn(*a, **kw)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if counts is not None:
                span[5] = counts(a, kw, res)
            return res

        return wrapper

    def install(self):
        """Replace each target on every module that holds the same object."""
        for module, attr, name, counts in TARGETS:
            orig = getattr(module, attr)
            wrapped = self.wrap(orig, name or _canonical_name, counts)
            for m in MODULES:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
        for attr, name in STATIC_TARGETS:
            orig = getattr(graphs.Graph, attr)
            setattr(graphs.Graph, attr, staticmethod(self.wrap(orig, name)))


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-name totals, self times, counts and ratios from one traced pass.

    A name's time counts only its outermost spans, so a function that
    re-enters itself is not counted twice. Self time is a span's duration
    minus its direct children's, which run inside it on the same thread.
    """
    child_s = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    out: dict[str, float] = {}

    def add(key, v):
        out[key] = out.get(key, 0) + v

    covered = 0.0
    max_rel_err = 0.0
    for i, (name, t0, t1, parent, _, counts) in enumerate(spans):
        d = t1 - t0
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", d - child_s[i])
        add(name.split(".")[0] + ".self_s", d - child_s[i])
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            add(f"{name}.s", d)
        if parent < 0:
            covered += d
        counts = counts or {}
        if counts.get("sampled_pairs"):
            add(f"{name}.sampled_s", d)
        for key, v in counts.items():
            if key == "rel_err":
                max_rel_err = max(max_rel_err, v)
            else:
                add(f"{name}.{key}", v)
    out["stochastic.expected_time.max_rel_err"] = max_rel_err

    def ratio(a, b):
        return out.get(a, 0.0) / out[b] if out.get(b) else 0.0

    out["graphs.canonical_key.calls_per_class"] = ratio(
        "graphs.canonical_key.calls", "graphs.enumerate_connected.classes")
    out["solvers.cleanable.greedy_hit_ratio"] = ratio(
        "solvers.cleanable.greedy_hits", "solvers.cleanable.calls")
    for name in ("solvers.solve_cleaning", "solvers.max_clean",
                 "solvers.limited_capture_solve"):
        out[f"{name}.states_per_s"] = ratio(f"{name}.states", f"{name}.s")
    out["stochastic.monte_carlo.trials_per_s"] = ratio(
        "stochastic.monte_carlo.trials", "stochastic.monte_carlo.s")
    out["construction.check_blocking.pairs_per_s"] = ratio(
        "construction.check_blocking.sampled_pairs", "construction.check_blocking.sampled_s")
    out["trace.wall_s"] = wall_s
    out["trace.span_coverage"] = covered / wall_s
    return out
