"""The three benchmark workloads: inputs made from a seed, the timed answers,
and the checks every answer must pass.

A workload is a function ``run(inputs, ask)``. ``ask(answer_id, kind, call,
extract)`` times ``call()`` alone, then turns its result into a small summary
with ``extract`` outside the timed region. A checker then reads the
summaries, after the last answer, and names every answer that failed.

Library calls go through module attributes (``solvers.max_clean``, not a
name bound at import), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

from copclean import cleaning, cli, construction, families, graphs, solvers, stochastic

# Values every correct solver must give. Floats are compared at REL_TOL,
# which the seed's value iteration (relative error below 1e-12) and an exact
# solver both meet. Values marked "seed" were taken from the seed commit;
# the rest are closed forms or figures from the paper and the ROADMAP.
EXPECT = {
    "heawood.max_clean": 10,
    "heawood.states": 105,
    "c12.max_clean": 4,
    "grid4x5k3.max_clean": 20,
    "grid4x5k3.states": 95_318,
    "grid5x5k2.max_clean": 25,
    "grid5x5k2.states": 83_020,
    "see4x5.value": 2,                      # seed
    "limited3x4k2.capture_time": 3,
    "limited3x5k2.capture_time": 4,
    "limited4x4k2.capture_time": 5,
    "cop_heawood.value": 3,
    "et_c10.value": 33.39213708881626,      # seed, value iteration run to its fixed point
    "et_c12.value": 53.12857440816366,      # seed, likewise
    "c5/per_cop/optimal.value": 747 / 140,
    "c5/per_cop/uniform.value": 711 / 100,
    "c5/joint_multiset/optimal.value": 191 / 35,
    "c5/joint_multiset/uniform.value": 183 / 25,
    "c5/belief.value": 2.0,
    "et_k5.value": 5.0,
}
REL_TOL = 1e-9
MC_SIGMAS = 5
MC_TRIALS = 100_000
BLOCKING_SAMPLES = 1_000_000
SWEEP_ARGV = ["sweep", "--n-max", "7", "--check", "cleanable", "--k", "2", "--l", "1",
              "--json", "--jobs", "1"]


def grid(rows: int, cols: int) -> graphs.Graph:
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return graphs.Graph.from_edges(rows * cols, edges, name=f"grid:{rows}x{cols}")


def make_inputs(workload: str, seed: int) -> dict:
    """Everything a workload reads, built from ``seed`` alone."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep-n7":
        # the sweep covers every connected class, so the seed chooses nothing
        return {"seed": seed}
    if workload == "exact-games":
        tree_seeds = [rng.randrange(1 << 31) for _ in range(3)]
        return {
            "seed": seed,
            "heawood": families.heawood(),
            "c12": families.cycle(12),
            "grid4x5": grid(4, 5),
            "grid5x5": grid(5, 5),
            "grid3x4": grid(3, 4),
            "grid3x5": grid(3, 5),
            "grid4x4": grid(4, 4),
            "tree_seeds": tree_seeds,
            "trees": [families.random_tree(22, s) for s in tree_seeds],
        }
    if workload == "paper-checks":
        return {
            "seed": seed,
            "c5": families.cycle(5),
            "c10": families.cycle(10),
            "c12": families.cycle(12),
            "k5": families.complete(5),
            "mc_seeds": [rng.randrange(1 << 31) for _ in range(2)],
            "blocking_seed": rng.randrange(1 << 31),
        }
    raise ValueError(f"unknown workload {workload!r}")


def _clean(res) -> dict:
    return {"max_clean": res.max_clean, "min_gas": res.min_gas, "states": res.states,
            "witness": res.witness}


def _threshold(res) -> dict:
    return {"value": res.value, "states": res.states}


def _limited(res) -> dict:
    return {"capture_time": res.capture_time, "states": res.states}


def _value(v) -> dict:
    return {"value": v}


def _expected(res) -> dict:
    return {"value": res.value, "iterations": res.iterations}


def _monte_carlo(res) -> dict:
    return {"mean": res.mean_time, "stderr": res.stderr, "trials": res.trials}


def _blocking(res) -> dict:
    return {"passed": res.passed, "max_blocked": res.max_blocked, "mode": res.mode,
            "checked_pairs": res.checked_pairs}


def _trace(res) -> dict:
    return {"cleaned_at": res.fully_cleaned_at, "min_gas": res.min_gas}


def _cli_sweep():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(SWEEP_ARGV)
    return code, out.getvalue()


def _sweep_summary(res) -> dict:
    code, text = res
    lines = [json.loads(line) for line in text.splitlines()]
    return {"code": code, "records": lines[:-1], "summary": lines[-1].get("summary")}


def run_sweep_n7(inputs, ask):
    sweep = ask("sweep", "sweep", _cli_sweep, _sweep_summary)
    # the property answers run on the classes the sweep printed, so the
    # enumeration is paid once per pass, cold, as every CLI call pays it
    records = sweep["records"] if sweep else []
    classes = ask("classes", "graphs",
                  lambda: [graphs.parse_graph6(r["graph6"]) for r in records], lambda gs: gs)
    for i, g in enumerate(classes or ()):
        ask(f"cleanable@{i}", "clean", lambda: solvers.cleanable(g, 2, 1),
            lambda r: {"ok": r[0], "states": r[2], "greedy_hits": int(r[0] and r[2] == 0)})
        ask(f"max_clean1@{i}", "clean", lambda: solvers.max_clean(g, 1, 1), _clean)
        ask(f"max_clean2@{i}", "clean", lambda: solvers.max_clean(g, 2, 1), _clean)
        ask(f"seeing@{i}", "clean", lambda: solvers.seeing_number(g, 1), _threshold)
        for r in range(4):
            ask(f"inference{r}@{i}", "clean", lambda: solvers.inference_number(g, 1, r),
                _threshold)
        ask(f"cop@{i}", "capture", lambda: solvers.cop_number(g), _value)
        ask(f"reach1@{i}", "capture", lambda: solvers.reach_number(g, 1), _value)
        if g.n <= 5:
            ask(f"capture_limited@{i}", "capture",
                lambda: solvers.capture_number_limited(g, 1), _value)


def run_exact_games(inputs, ask):
    h = inputs["heawood"]
    ask("heawood", "clean", lambda: solvers.max_clean(h, 2, 1, witness=True), _clean)
    ask("c12", "clean", lambda: solvers.max_clean(inputs["c12"], 1, 1), _clean)
    ask("grid4x5k3", "clean", lambda: solvers.max_clean(inputs["grid4x5"], 3, 1), _clean)
    ask("grid5x5k2", "clean", lambda: solvers.max_clean(inputs["grid5x5"], 2, 1), _clean)
    for i, t in enumerate(inputs["trees"]):
        for k in (1, 2):
            ask(f"tree{i}k{k}", "clean", lambda: solvers.max_clean(t, k, 1, witness=True),
                _clean)
    ask("see4x5", "clean", lambda: solvers.seeing_number(inputs["grid4x5"], 1), _threshold)
    for name in ("3x4", "3x5", "4x4"):
        g = inputs[f"grid{name}"]
        ask(f"limited{name}k2", "capture", lambda: solvers.limited_capture_solve(g, 2, 1),
            _limited)
    ask("cop_heawood", "capture", lambda: solvers.cop_number(h), _value)


def run_paper_checks(inputs, ask):
    c5 = inputs["c5"]
    ask("et_c10", "random", lambda: stochastic.expected_time(inputs["c10"], 2), _expected)
    ask("et_c12", "random", lambda: stochastic.expected_time(inputs["c12"], 2), _expected)
    for mm in stochastic.MOVE_MODELS:
        for pl in stochastic.PLACEMENTS:
            ask(f"c5/{mm}/{pl}", "random",
                lambda: stochastic.expected_time(c5, 2, 0, move_model=mm, placement=pl),
                _expected)
    ask("c5/belief", "random", lambda: stochastic.expected_time(c5, 2, 0, mode="belief", l=0),
        _expected)
    ask("et_k5", "random", lambda: stochastic.expected_time(inputs["k5"], 1), _expected)
    s_c5, s_k5 = inputs["mc_seeds"]
    ask("mc_c5", "random",
        lambda: stochastic.monte_carlo(c5, 2, 0, trials=MC_TRIALS, seed=s_c5), _monte_carlo)
    ask("mc_k5", "random",
        lambda: stochastic.monte_carlo(inputs["k5"], 1, 0, trials=MC_TRIALS, seed=s_k5),
        _monte_carlo)

    built = {}

    def build(label, spec, **kw):
        # later answers read the graph from ``built``; if the build raised,
        # they raise KeyError and count as failed too
        def call():
            built[label] = construction.build_construction(spec, **kw)
            return built[label]
        ask(f"{label}.build", "construction", call,
            lambda cg: {"n": cg.graph.n, "expected_n": cg.blocks * (cg.block_size + 1)})

    build("m12", construction.ConstructionSpec(k=2, m=12))
    ask("m12.blocking", "construction",
        lambda: construction.check_blocking(built["m12"], mode="exhaustive"), _blocking)
    build("m16", construction.ConstructionSpec(k=2, m=16))
    ask("m16.blocking", "construction",
        lambda: construction.check_blocking(built["m16"], mode="sampled",
                                            samples=BLOCKING_SAMPLES,
                                            seed=inputs["blocking_seed"]), _blocking)
    ask("m16.dominating", "construction",
        lambda: construction.check_middle_dominating(built["m16"]), _value)
    ask("m16.script_k", "construction",
        lambda: cleaning.run_script(built["m16"].graph,
                                    construction.scripted_seeing_strategy(built["m16"])),
        _trace)
    ask("m16.script_k-1", "construction",
        lambda: cleaning.run_script(
            built["m16"].graph,
            construction.scripted_seeing_strategy(built["m16"], cops=built["m16"].k - 1)),
        _trace)
    build("adversarial_m8",
          construction.ConstructionSpec(k=2, m=8, partition=((0, 2), (1, 5), (3, 6), (4, 7))),
          allow_bad_spacing=True)
    ask("adversarial_m8.blocking", "construction",
        lambda: construction.check_blocking(built["adversarial_m8"], mode="exhaustive"),
        _blocking)


RUNNERS = {
    "sweep-n7": run_sweep_n7,
    "exact-games": run_exact_games,
    "paper-checks": run_paper_checks,
}


# -- checks ---------------------------------------------------------------


def close(got, want) -> bool:
    return got is not None and math.isclose(got, want, rel_tol=REL_TOL)


def check_sweep_n7(res: dict, inputs) -> dict:
    """Failed answer ids with reasons. The per-graph relations are the ones
    the verify suites assert (AC4): Lipschitz inference, the see/infer gap,
    the single-searcher floor, and the reach/cop/limited-capture chain."""
    bad = {}
    want_classes = sum(graphs.count_connected_classes(n) for n in range(1, 8))
    classes = res.get("classes")
    if classes is None or len(classes) != want_classes:
        bad["classes"] = f"expected {want_classes} classes"
    sweep = res.get("sweep")
    if sweep is not None:
        recs = sweep["records"]
        enumerated = [graphs.emit_graph6(g) for n in range(1, 8)
                      for g in graphs.enumerate_connected(n)]
        if not (sweep["code"] == 0 and [r["graph6"] for r in recs] == enumerated
                and all(r["ok"] for r in recs)
                and sweep["summary"] == {"check": "cleanable", "graphs": want_classes,
                                         "failures": 0}):
            bad["sweep"] = "sweep records are not all ok or do not match the classes"
    for i, g in enumerate(classes or ()):
        def get(label, field="value"):
            r = res.get(f"{label}@{i}")
            return None if r is None else r[field]

        n = g.n
        infer = [get(f"inference{r}") for r in range(4)]
        see, cop, reach = get("seeing"), get("cop"), get("reach1")
        mc1, mc2 = get("max_clean1", "max_clean"), get("max_clean2", "max_clean")
        relations = [
            (get("cleanable", "ok") is True, ["cleanable"]),
            (mc2 == n, ["max_clean2", "cleanable"]),
            (mc1 is not None and mc2 is not None and mc1 <= mc2, ["max_clean1"]),
            (mc1 is not None and mc1 >= min(n, graphs.metrics(g, 1).max_l_degree + 2),
             ["max_clean1"]),
            (infer[0] == see, ["inference0", "seeing"]),
            (None not in infer and all(infer[s] <= infer[r] <= infer[s] + (s - r)
                                       for r in range(4) for s in range(r + 1, 4)),
             [f"inference{r}" for r in range(4)]),
            (see is not None and infer[1] is not None and see - infer[1] in (0, 1),
             ["seeing", "inference1"]),
            (see is not None and see <= 2, ["seeing"]),
            (None not in (reach, cop, see) and reach <= cop and see <= cop, ["reach1", "cop"]),
        ]
        if n <= 5:
            cap = get("capture_limited")
            relations.append((cop is not None and cap is not None and cop <= cap,
                              ["capture_limited"]))
        for ok, labels in relations:
            if not ok:
                for label in labels:
                    bad.setdefault(f"{label}@{i}", f"relation failed on class {i} (n={n})")
    return bad


def _replay_ok(g, summary) -> bool:
    wit = summary.get("witness")
    return wit is not None and cleaning.run_script(g, wit).min_gas == summary["min_gas"]


def check_exact_games(res: dict, inputs, expect=EXPECT) -> dict:
    bad = {}
    for key, want in expect.items():
        aid, field = key.rsplit(".", 1)
        if aid in res and (res[aid] is None or res[aid][field] != want):
            bad[aid] = f"{field}: expected {want}"
    for aid, g in [("heawood", inputs["heawood"])] + [
            (f"tree{i}k{k}", t) for i, t in enumerate(inputs["trees"]) for k in (1, 2)]:
        if res.get(aid) is not None and not _replay_ok(g, res[aid]):
            bad.setdefault(aid, "witness does not replay to the reported minimum")
    for i, t in enumerate(inputs["trees"]):
        one, two = res.get(f"tree{i}k1"), res.get(f"tree{i}k2")
        if one and two and not one["max_clean"] <= two["max_clean"] <= t.n:
            bad.setdefault(f"tree{i}k2", "two searchers clean less than one")
    return bad


def check_paper_checks(res: dict, inputs, expect=EXPECT) -> dict:
    bad = {}
    for key, want in expect.items():
        aid, field = key.rsplit(".", 1)
        if aid in res and not close(None if res[aid] is None else res[aid][field], want):
            bad[aid] = f"{field}: expected {want}"
    for aid, exact in (("mc_c5", expect["c5/per_cop/optimal.value"]),
                       ("mc_k5", expect["et_k5.value"])):
        r = res.get(aid)
        if r is not None and not (r["stderr"] and r["trials"] == MC_TRIALS
                                  and abs(r["mean"] - exact) <= MC_SIGMAS * r["stderr"]):
            bad[aid] = f"mean not within {MC_SIGMAS} standard errors of {exact}"
    wants = {
        "m12.blocking": lambda r: r["passed"] and r["max_blocked"] == 1
        and r["mode"] == "exhaustive",
        "m16.blocking": lambda r: r["passed"] and r["checked_pairs"] == BLOCKING_SAMPLES,
        "m16.dominating": lambda r: r["value"] is True,
        "m16.script_k": lambda r: r["cleaned_at"] == 1,
        "m16.script_k-1": lambda r: r["cleaned_at"] is None and r["min_gas"] > 0,
        "adversarial_m8.blocking": lambda r: not r["passed"] and r["max_blocked"] > 1,
    }
    for label in ("m12", "adversarial_m8"):
        wants[f"{label}.build"] = lambda r: r["n"] == r["expected_n"]
    wants["m16.build"] = lambda r: r["n"] == r["expected_n"] == 262_148
    for aid, want in wants.items():
        if aid in res and (res[aid] is None or not want(res[aid])):
            bad[aid] = "construction check failed"
    return bad


CHECKERS = {
    "sweep-n7": check_sweep_n7,
    "exact-games": check_exact_games,
    "paper-checks": check_paper_checks,
}
