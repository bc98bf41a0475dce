"""Command line harness.

Subcommands: metrics, gen, construct, clean-sim, solve, expected-time, mc,
sweep, verify.  Exit codes: 0 success, 1 a suite or sweep reported failures,
2 usage or input errors, 3 instance too large for the exact solvers.

JSON output is emitted with sorted keys and no timing fields, so runs are
byte-identical across machines and worker counts; pass --timing to include
elapsed seconds where supported.  The exact-solver state budget can be
overridden via the COPCLEAN_STATE_BUDGET environment variable.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import time

from . import construction as cons
from . import families, solvers, stochastic
from .cleaning import StrategyScript, run_script
from .errors import BadParamError, CopcleanError, TooLargeError, UnsupportedSizeError
from .graphs import (
    ENUM_MAX_N,
    Graph,
    emit_graph6,
    enumerate_connected,
    metrics,
    parse_edge_list,
    parse_graph6,
)


def _emit(obj, as_json: bool):
    if as_json:
        print(json.dumps(obj, sort_keys=True))
    else:
        for key in sorted(obj):
            print(f"{key}: {obj[key]}")


# -- graph input ---------------------------------------------------------------


def _add_graph_input(p: argparse.ArgumentParser):
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--in", dest="g6_file", metavar="FILE",
                     help="file holding one graph6 record (first non-blank line)")
    grp.add_argument("--edges", metavar="FILE",
                     help="edge list file, one 'u v' pair per line")
    grp.add_argument("--family", metavar="SPEC",
                     help="family spec such as cycle:5, path:8, complete:4, "
                          "star:6, spider:3:2, tree:10:42, heawood")


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise BadParamError(f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError:
        raise BadParamError(f"{path} is not UTF-8 text") from None


def _load_graph(args) -> Graph:
    if args.family:
        return families.from_spec(args.family)
    if args.edges:
        return parse_edge_list(_read_text(args.edges))
    for line in _read_text(args.g6_file).splitlines():
        line = line.strip()
        if line:
            return parse_graph6(line)
    raise CopcleanError("no graph6 record found in input file")


# -- simple commands -------------------------------------------------------------


def cmd_metrics(args) -> int:
    g = _load_graph(args)
    _emit(metrics(g, l=args.l).to_dict(), args.json)
    return 0


def _check_sweep_params(args) -> None:
    """Reject negative radii and empty searcher or worker counts before
    anything is printed."""
    for name in ("l", "r", "rho"):
        if getattr(args, name) < 0:
            raise BadParamError(f"--{name} must be >= 0")
    for name in ("k", "jobs"):
        if getattr(args, name) < 1:
            raise BadParamError(f"--{name} must be >= 1")


def _check_enum_range(n_min: int, n_max: int, big: bool) -> None:
    """Reject an enumeration range before anything is printed."""
    if n_min > n_max:
        raise BadParamError(f"--n-min {n_min} exceeds --n-max {n_max}")
    if n_min < 1 or n_max > ENUM_MAX_N:
        raise UnsupportedSizeError(f"enumeration supported for 1 <= n <= {ENUM_MAX_N}")
    if n_max == ENUM_MAX_N and not big:
        raise CopcleanError(f"n={ENUM_MAX_N} enumeration takes a while; pass --big to confirm")


def cmd_gen(args) -> int:
    _check_enum_range(args.n, args.n, args.big)
    for g in enumerate_connected(args.n):
        print(emit_graph6(g))
    return 0


def cmd_clean_sim(args) -> int:
    g = _load_graph(args)
    script = StrategyScript.from_json(_read_text(args.script))
    trace = run_script(g, script)
    out = {
        "min_gas": trace.min_gas,
        "fully_cleaned_at": trace.fully_cleaned_at,
        "turns": len(script.turns),
    }
    if args.trace:
        sys.stdout.write(trace.to_json_lines())
    _emit(out, args.json)
    return 0


def cmd_construct(args) -> int:
    partition = None
    if args.partition:
        try:
            partition = tuple(
                tuple(int(x) for x in chunk.split(",")) for chunk in args.partition.split(";")
            )
        except ValueError:
            raise CopcleanError(f"bad partition syntax {args.partition!r}") from None
    spec = cons.ConstructionSpec(k=args.k, m=args.m, partition=partition)
    t0 = time.perf_counter()
    cg = cons.build_construction(spec, allow_bad_spacing=args.allow_bad_spacing)
    g = cg.graph
    out = {
        "k": cg.k,
        "m": cg.m,
        "n": g.n,
        "edges": g.edge_count(),
        "blocks": cg.blocks,
        "block_size": cg.block_size,
        "outside_degree": g.degree(cg.vertex_id(0, 0)),
        "hub_degree": g.degree(cg.hub_id(0)),
        "spacing_ok": cons.spacing_ok(cg.partition),
        "hubs_dominate": cons.check_middle_dominating(cg),
    }
    script = cons.scripted_seeing_strategy(cg)
    trace = run_script(g, script)
    out["script_cleans_at"] = trace.fully_cleaned_at
    if args.check != "none":
        rep = cons.check_blocking(cg, mode=args.check, samples=args.samples, seed=args.seed)
        out["blocking"] = rep.to_dict()
    if args.timing:
        out["elapsed"] = round(time.perf_counter() - t0, 3)
    _emit(out, args.json)
    if not out["hubs_dominate"] or out["script_cleans_at"] != 1:
        return 1
    if args.check != "none" and not out["blocking"]["passed"]:
        return 1
    return 0


# -- solve ----------------------------------------------------------------------


def cmd_solve(args) -> int:
    g = _load_graph(args)
    q = args.question
    out: dict = {"question": q, "n": g.n}
    wit = None
    if q == "see":
        res = solvers.seeing_number(g, args.l, witness=args.witness)
        out.update({"l": args.l, "value": res.value})
        wit = res.witness
    elif q == "infer":
        res = solvers.inference_number(g, args.l, args.r, witness=args.witness)
        out.update({"l": args.l, "r": args.r, "value": res.value})
        wit = res.witness
    elif q == "maxclean":
        res = solvers.max_clean(g, args.k, args.l, witness=args.witness)
        out.update({
            "l": args.l, "k": args.k, "value": res.max_clean,
            "min_gas": res.min_gas, "states": res.states,
        })
        wit = res.witness
    elif q == "cop":
        out["value"] = solvers.cop_number(g)
    elif q == "reach":
        out.update({"rho": args.rho, "value": solvers.reach_number(g, args.rho)})
    elif q == "capture-limited":
        res = solvers.limited_capture_solve(g, args.k, args.l)
        out.update({
            "l": args.l, "k": args.k, "capture": res.capture,
            "capture_time": res.capture_time,
            "placement": None if res.placement is None else list(res.placement),
            "states": res.states,
        })
    else:
        raise CopcleanError(f"unknown question {q!r}")
    if wit is not None:
        out["witness"] = json.loads(wit.to_json())
    _emit(out, args.json)
    return 0


def cmd_expected_time(args) -> int:
    g = _load_graph(args)
    res = stochastic.expected_time(
        g, args.k, args.rho, mode=args.mode, move_model=args.move_model,
        placement=args.placement, l=args.l,
    )
    _emit(res.to_dict(), args.json)
    return 0


def cmd_mc(args) -> int:
    g = _load_graph(args)
    res = stochastic.monte_carlo(
        g, args.k, args.rho, trials=args.trials, seed=args.seed,
        horizon=args.horizon, move_model=args.move_model, placement=args.placement,
    )
    _emit(res.to_dict(), args.json)
    return 0


# -- sweep ----------------------------------------------------------------------


def _check_see(g, p):
    return {"seeing": solvers.seeing_number(g, p["l"]).value}, True


def _check_infer(g, p):
    return {"inference": solvers.inference_number(g, p["l"], p["r"]).value}, True


def _check_maxclean(g, p):
    res = solvers.max_clean(g, p["k"], p["l"])
    return {"max_clean": res.max_clean, "min_gas": res.min_gas}, True


def _check_cleanable(g, p):
    ok, _, _ = solvers.cleanable(g, p["k"], p["l"])
    return {"cleanable": ok}, ok


def _check_cop(g, p):
    return {"cop_number": solvers.cop_number(g)}, True


def _check_reach(g, p):
    return {"reach_number": solvers.reach_number(g, p["rho"])}, True


def _check_chain(g, p):
    see = solvers.seeing_number(g, p["l"]).value
    cop = solvers.cop_number(g)
    reach1 = solvers.reach_number(g, 1)
    fields = {"seeing": see, "cop_number": cop, "reach_1": reach1}
    ok = reach1 <= cop and see <= cop
    if g.n <= 5:
        cap = solvers.capture_number_limited(g, p["l"])
        fields["capture_limited"] = cap
        ok = ok and cop <= cap
    return fields, ok


def _check_ded_lipschitz(g, p):
    vals = [solvers.inference_number(g, p["l"], r).value for r in range(4)]
    ok = True
    for r in range(4):
        for s in range(r + 1, 4):
            if not (vals[s] <= vals[r] <= vals[s] + (s - r)):
                ok = False
    return {"inference_r0_to_r3": vals}, ok


def _is_cycle(g) -> bool:
    return g.n >= 3 and all(g.degree(v) == 2 for v in range(g.n)) and g.is_connected()


def _check_girth_bound(g, p):
    l = p["l"]
    if not _is_cycle(g):
        return {"skipped": True}, True
    expected = g.n if g.n <= 2 * l + 2 else 2 * l + 2
    got = solvers.max_clean(g, 1, l).max_clean
    return {"max_clean": got, "expected": expected}, got == expected


def _check_clarke_probe(g, p):
    # dichotomy probe, reported but never asserted: does one searcher either
    # clean everything or top out at the sliding-window ceiling 2l+2?
    l = p["l"]
    v = solvers.max_clean(g, 1, l).max_clean
    if v == g.n:
        bucket = "full"
    elif v <= 2 * l + 2:
        bucket = "window"
    else:
        bucket = "between"
    return {"max_clean_1": v, "bucket": bucket, "dichotomy": bucket != "between"}, True


SWEEP_CHECKS = {
    "see": _check_see,
    "infer": _check_infer,
    "maxclean": _check_maxclean,
    "cleanable": _check_cleanable,
    "cop": _check_cop,
    "reach": _check_reach,
    "chain": _check_chain,
    "ded-lipschitz": _check_ded_lipschitz,
    "girth-bound": _check_girth_bound,
    "clarke-probe": _check_clarke_probe,
}


def _sweep_one(task):
    g6, check, params, timing = task
    g = parse_graph6(g6)
    t0 = time.perf_counter()
    fields, ok = SWEEP_CHECKS[check](g, params)
    rec = {"graph6": g6, "n": g.n, "check": check}
    rec.update(fields)
    rec["ok"] = ok
    if timing:
        rec["elapsed"] = round(time.perf_counter() - t0, 4)
    return rec


def _sweep_records(check, params, n_min, n_max, jobs, timing=False):
    """Records of ``check`` on every connected class with n_min..n_max
    vertices, in enumeration order.  With jobs > 1 one worker pool serves
    the whole range; output order does not depend on ``jobs``."""
    tasks = ((emit_graph6(g), check, params, timing)
             for n in range(n_min, n_max + 1) for g in enumerate_connected(n))
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            yield from pool.imap(_sweep_one, tasks, chunksize=16)
    else:
        yield from map(_sweep_one, tasks)


def cmd_sweep(args) -> int:
    _check_enum_range(args.n_min, args.n_max, args.big)
    _check_sweep_params(args)
    if args.check not in SWEEP_CHECKS:
        raise CopcleanError(f"unknown check {args.check!r}; pick from {sorted(SWEEP_CHECKS)}")
    params = {"l": args.l, "k": args.k, "r": args.r, "rho": args.rho}
    bad = 0
    total = 0
    for rec in _sweep_records(args.check, params, args.n_min, args.n_max, args.jobs,
                              args.timing):
        total += 1
        if not rec["ok"]:
            bad += 1
        if args.json:
            print(json.dumps(rec, sort_keys=True))
        elif not rec["ok"] or args.verbose:
            flat = " ".join(f"{k}={rec[k]}" for k in sorted(rec) if k not in ("graph6", "check"))
            print(f"{rec['graph6']}: {flat}")
    summary = {"summary": {"check": args.check, "graphs": total, "failures": bad}}
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print(f"{args.check}: {total} graphs, {bad} failures")
    return 1 if bad else 0


# -- verify suites ----------------------------------------------------------------


def _suite_thm_clean_8(args):
    n_max = 9 if args.big else 8
    details = [{"n": n, "graphs": 0, "failures": 0} for n in range(1, n_max + 1)]
    params = {"l": 1, "k": 2, "r": 0, "rho": 0}
    for rec in _sweep_records("cleanable", params, 1, n_max, args.jobs):
        d = details[rec["n"] - 1]
        d["graphs"] += 1
        if not rec["ok"]:
            d["failures"] += 1
    ok = not any(d["failures"] for d in details)
    return ok, {"per_n": details, "claim": "two sight-1 searchers clean every connected graph"}


def _run_enum_checks(args, check, params, n_max):
    bad = []
    total = 0
    for rec in _sweep_records(check, params, 1, n_max, args.jobs):
        total += 1
        if not rec["ok"]:
            bad.append(rec["graph6"])
    return bad, total


def _suite_ded_lipschitz(args):
    bad, total = _run_enum_checks(args, "ded-lipschitz", {"l": 1, "k": 1, "r": 0, "rho": 0}, 7)
    return not bad, {"graphs": total, "failures": bad[:10]}


def _suite_see_infer_gap(args):
    gaps = {}
    bad = []
    total = 0
    for n in range(1, 8):
        for g in enumerate_connected(n):
            total += 1
            see = solvers.seeing_number(g, 1).value
            inf1 = solvers.inference_number(g, 1, 1).value
            gap = see - inf1
            gaps[gap] = gaps.get(gap, 0) + 1
            if gap not in (0, 1):
                bad.append(emit_graph6(g))
    c5 = families.cycle(5)
    c5_gap = solvers.seeing_number(c5, 1).value - solvers.inference_number(c5, 1, 1).value
    ok = not bad and c5_gap == 1
    return ok, {"graphs": total, "gap_histogram": gaps, "cycle5_gap": c5_gap, "failures": bad[:10]}


def _suite_single_cop_bound(args):
    bad = []
    total = 0
    for n in range(1, 8):
        for g in enumerate_connected(n):
            total += 1
            m = metrics(g, 1)
            v = solvers.max_clean(g, 1, 1).max_clean
            if v < min(g.n, m.max_l_degree + 2):
                bad.append(emit_graph6(g))
    return not bad, {"graphs": total, "failures": bad[:10],
                     "claim": "one searcher holds at least min(n, max sight degree + 2) clean"}


def _suite_chain(args):
    bad, total = _run_enum_checks(args, "chain", {"l": 1, "k": 1, "r": 0, "rho": 0}, 7)
    return not bad, {"graphs": total, "failures": bad[:10],
                     "claim": "reach_1 <= cop_number, seeing_1 <= cop_number, "
                              "and cop_number <= sight-1 capture count on n<=5"}


def _suite_girth_bound(args):
    details = []
    ok = True
    for l in (1, 2):
        for n in range(3, 13):
            g = families.cycle(n)
            expected = n if n <= 2 * l + 2 else 2 * l + 2
            got = solvers.max_clean(g, 1, l).max_clean
            if got != expected:
                ok = False
            details.append({"n": n, "l": l, "max_clean": got, "expected": expected})
    # graphs whose shortest cycle is long relative to the sight radius need at
    # least min-degree many searchers; check one fewer always leaves gas
    floors = []
    for name, g, l in (("heawood", families.heawood(), 1),
                       ("cycle:6", families.cycle(6), 1)):
        m = metrics(g)
        short = m.min_degree - 1
        clean_ok, _, _ = solvers.cleanable(g, short, l)
        if clean_ok or m.girth < 2 * l + 4:
            ok = False
        floors.append({"graph": name, "l": l, "girth": m.girth,
                       "needs_more_than": short, "cleaned": clean_ok})
    return ok, {"cycles": details[:6] + details[-6:],
                "degree_floors": floors,
                "claim": "cycle window law 2l+2; long-girth min-degree floor"}


def _suite_construction(args):
    out = {}
    cg12 = cons.build_construction(cons.ConstructionSpec(k=2, m=12))
    rep12 = cons.check_blocking(cg12, mode="exhaustive")
    out["m12"] = {
        "n": cg12.graph.n, "blocking": rep12.to_dict(),
        "dominate": cons.check_middle_dominating(cg12),
        "cleans_at": run_script(cg12.graph, cons.scripted_seeing_strategy(cg12)).fully_cleaned_at,
    }
    cg16 = cons.build_construction(cons.ConstructionSpec(k=2))
    rep16 = cons.check_blocking(cg16, mode="sampled", samples=args.samples, seed=0)
    short = run_script(cg16.graph, cons.scripted_seeing_strategy(cg16, cops=1))
    out["m16"] = {
        "n": cg16.graph.n, "blocking": rep16.to_dict(),
        "dominate": cons.check_middle_dominating(cg16),
        "cleans_at": run_script(cg16.graph, cons.scripted_seeing_strategy(cg16)).fully_cleaned_at,
        "one_short_cleans_at": short.fully_cleaned_at,
        "one_short_min_gas": short.min_gas,
    }
    bad = cons.build_construction(
        cons.ConstructionSpec(k=2, m=8, partition=((0, 2), (1, 5), (3, 6), (4, 7))),
        allow_bad_spacing=True,
    )
    repbad = cons.check_blocking(bad, mode="exhaustive")
    out["adversarial_m8"] = repbad.to_dict()
    ok = (
        rep12.passed and rep16.passed
        and out["m12"]["dominate"] and out["m16"]["dominate"]
        and out["m12"]["cleans_at"] == 1 and out["m16"]["cleans_at"] == 1
        and short.fully_cleaned_at is None
        and not repbad.passed
    )
    return ok, out


def _suite_conjecture_10_scan(args):
    # reported probe: which convention puts the 5-cycle/2-searcher figure at
    # exactly 2?  Never hard-asserted; the grid is the deliverable.
    c5 = families.cycle(5)
    grid = {}
    for mm in stochastic.MOVE_MODELS:
        for pl in stochastic.PLACEMENTS:
            r = stochastic.expected_time(c5, 2, 0, move_model=mm, placement=pl)
            grid[f"random/{mm}/{pl}"] = round(r.value, 6)
    rb = stochastic.expected_time(c5, 2, 0, mode="belief", l=0)
    grid["belief/l0/optimal"] = rb.value
    matches = sorted(name for name, v in grid.items() if abs(v - 2.0) < 1e-9)
    return True, {"grid": grid, "equal_to_2": matches}


VERIFY_SUITES = {
    "thm-clean-8": _suite_thm_clean_8,
    "ded-lipschitz": _suite_ded_lipschitz,
    "see-infer-gap": _suite_see_infer_gap,
    "single-cop-bound": _suite_single_cop_bound,
    "chain": _suite_chain,
    "girth-bound": _suite_girth_bound,
    "construction": _suite_construction,
    "conjecture-10-scan": _suite_conjecture_10_scan,
}


def cmd_verify(args) -> int:
    if args.suite not in VERIFY_SUITES:
        raise CopcleanError(f"unknown suite {args.suite!r}; pick from {sorted(VERIFY_SUITES)}")
    t0 = time.perf_counter()
    ok, details = VERIFY_SUITES[args.suite](args)
    out = {"suite": args.suite, "passed": ok, "details": details}
    if args.timing:
        out["elapsed"] = round(time.perf_counter() - t0, 2)
    if args.json:
        print(json.dumps(out, sort_keys=True))
    else:
        print(json.dumps(details, sort_keys=True, indent=2))
        print(f"{args.suite}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="copclean", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("metrics", help="structural metrics of a graph")
    _add_graph_input(sp)
    sp.add_argument("--l", type=int, default=1)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_metrics)

    sp = sub.add_parser("gen", help="enumerate connected graphs as graph6")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--big", action="store_true")
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("construct", help="build the seeing/capture gap family")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--m", type=int)
    sp.add_argument("--partition", help="override classes, e.g. '0,2;1,5;3,6;4,7'")
    sp.add_argument("--allow-bad-spacing", action="store_true")
    sp.add_argument("--check", choices=["none", "exhaustive", "sampled"], default="none")
    sp.add_argument("--samples", type=int, default=1_000_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--timing", action="store_true")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("clean-sim", help="replay a strategy script")
    _add_graph_input(sp)
    sp.add_argument("--script", required=True, metavar="FILE")
    sp.add_argument("--trace", action="store_true", help="print every state")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_clean_sim)

    sp = sub.add_parser("solve", help="exact game values")
    sp.add_argument("question", choices=["see", "infer", "maxclean", "cop", "reach",
                                         "capture-limited"])
    _add_graph_input(sp)
    sp.add_argument("--l", type=int, default=1)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--r", type=int, default=0)
    sp.add_argument("--rho", type=int, default=0)
    sp.add_argument("--witness", action="store_true")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("expected-time", help="expected rounds until capture")
    _add_graph_input(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--rho", type=int, default=0)
    sp.add_argument("--mode", choices=list(stochastic.MODES), default="random")
    sp.add_argument("--move-model", choices=list(stochastic.MOVE_MODELS), default="per_cop")
    sp.add_argument("--placement", choices=list(stochastic.PLACEMENTS), default="optimal")
    sp.add_argument("--l", type=int, help="sight radius for belief mode")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_expected_time)

    sp = sub.add_parser("mc", help="Monte Carlo capture simulation")
    _add_graph_input(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--rho", type=int, default=0)
    sp.add_argument("--trials", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--horizon", type=int)
    sp.add_argument("--move-model", choices=list(stochastic.MOVE_MODELS), default="per_cop")
    sp.add_argument("--placement", choices=list(stochastic.PLACEMENTS), default="optimal")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_mc)

    sp = sub.add_parser("sweep", help="run a check over all connected graphs up to n")
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--n-min", type=int, default=1)
    sp.add_argument("--check", required=True)
    sp.add_argument("--l", type=int, default=1)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--r", type=int, default=0)
    sp.add_argument("--rho", type=int, default=0)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--big", action="store_true")
    sp.add_argument("--timing", action="store_true")
    sp.add_argument("--verbose", action="store_true")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("verify", help="named verification suites")
    sp.add_argument("--suite", required=True)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--big", action="store_true")
    sp.add_argument("--samples", type=int, default=1_000_000)
    sp.add_argument("--timing", action="store_true")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_verify)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except TooLargeError as e:
        payload = {"error": e.code, "message": str(e)}
        if e.partial is not None:
            payload["partial"] = {
                "min_gas": e.partial.min_gas,
                "max_clean_lower_bound": e.partial.max_clean,
                "states": e.partial.states,
            }
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 3
    except CopcleanError as e:
        print(json.dumps({"error": e.code, "message": str(e)}, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
