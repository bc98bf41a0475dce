"""copclean benchmark: runs one workload and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a copclean checkout. Each pass of the workload is a
fresh interpreter (``worker.py``), so the enumeration cache starts cold as
it does for every CLI call, and everything runs on one process with
``--jobs 1``. Passes repeat while the next one is expected to end within S
seconds; there is always at least one, and with ``--trace 1`` at least one
untraced and one traced pass, alternating.

The last line of stdout is the result: ``correct``, ``attempted``, ``failed``
and the metrics named in BENCHMARK.json (end-to-end ones untraced, per-layer
ones traced). The line before it is the full report: the machine, every
metric including the per-kind answer times, sample counts, counts that must
repeat and failed answers. Reports, counts and spans are kept under
``.perfbench-out/``. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".perfbench-out")
HARD_LIMIT_S = 170          # the whole run, every pass included
MIN_SETUP_SAMPLES = 5
COUNT_SUFFIXES = (".calls", ".states", ".iterations", ".classes", ".greedy_hits", ".trials",
                  ".sampled_pairs")
KINDS = ("sweep", "graphs", "clean", "capture", "random", "construction")


class BenchError(Exception):
    pass


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100 * len(s)) - 1)]


def code_hash() -> str:
    h = hashlib.sha256()
    for d in (os.path.join(ROOT, "src", "copclean"), HERE):
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                with open(os.path.join(d, name), "rb") as f:
                    h.update(name.encode() + f.read())
    return h.hexdigest()[:16]


def machine(seed) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        model = platform.processor() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "loadavg_at_start": list(os.getloadavg()),
        "seed": seed,
    }


def spawn(args, deadline, trace: int, setup_only: bool = False) -> dict:
    """Run one pass in a fresh interpreter and return what it wrote."""
    path = os.path.join(OUT, f"pass-{args.workload}-s{args.seed}-{os.getpid()}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace), "--out", path]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass overran the {HARD_LIMIT_S} s run limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(path) as f:
        res = json.load(f)
    os.remove(path)
    res["setup_s"] = res["t_ready"] - t0
    res["elapsed_s"] = time.monotonic() - t0
    return res


def run(args) -> tuple[dict, dict]:
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    modes = itertools.cycle((0, 1) if args.trace else (0,))
    done = {0: [], 1: []}
    mode = next(modes)
    while True:
        done[mode].append(spawn(args, deadline, mode))
        mode = next(modes)
        if args.trace and not done[1]:
            continue
        expected = (done[mode] or done[1 - mode])[-1]["elapsed_s"]
        if time.monotonic() - start + expected > args.seconds:
            break
    untraced, traced = done[0], done[1]
    setups = [p["setup_s"] for p in untraced]
    while not args.trace and len(setups) < MIN_SETUP_SAMPLES:
        setups.append(spawn(args, deadline, 0, setup_only=True)["setup_s"])

    all_passes = untraced + traced
    failed = {aid: why for p in all_passes for aid, why in p["failed"].items()}
    attempted = sum(len(p["answers"]) for p in all_passes)
    n_failed = sum(len(p["failed"]) for p in all_passes)
    latencies = [s for p in untraced for _, s in p["answers"]]

    med = statistics.median
    e2e = {
        "setup_s": med(setups),
        "wall_s": med([p["wall_s"] for p in untraced]),
        "cpu_s": med([p["cpu_s"] for p in untraced]),
        "answer_p50_ms": 1e3 * percentile(latencies, 50),
        "answer_p99_ms": 1e3 * percentile(latencies, 99),
        "peak_rss_mb": med([p["peak_rss_mb"] for p in untraced]),
    }
    for kind in KINDS:
        e2e[f"{kind}_s"] = med([sum(s for k, s in p["answers"] if k == kind) for p in untraced])
    e2e["failed_ratio"] = n_failed / attempted

    # counts must repeat exactly: across passes of this run, and across runs
    # of the same code with the same seed and trace mode
    mismatches = []
    for group in (untraced, traced):
        for p in group[1:]:
            if p["counts"] != group[0]["counts"]:
                mismatches.append("pass counts differ within the run")
    layer_counts = [{k: v for k, v in p["layers"].items() if k.endswith(COUNT_SUFFIXES)}
                    for p in traced]
    if any(c != layer_counts[0] for c in layer_counts[1:]):
        mismatches.append("traced counts differ within the run")
    counts = dict(untraced[0]["counts"])
    if layer_counts:
        counts.update(layer_counts[0])
    store = os.path.join(OUT, f"counts-{args.workload}-s{args.seed}-t{args.trace}.json")
    digest = code_hash()
    try:
        with open(store) as f:
            prev = json.load(f)
        if prev["code"] == digest and prev["counts"] != counts:
            diff = sorted(k for k in set(prev["counts"]) | set(counts)
                          if prev["counts"].get(k) != counts.get(k))
            mismatches.append(f"counts differ from an earlier run of this code: {diff[:10]}")
    except (OSError, ValueError, KeyError):
        pass
    with open(store, "w") as f:
        json.dump({"code": digest, "counts": counts}, f)

    layers = {}
    if traced:
        for key in traced[0]["layers"]:
            layers[key] = med([p["layers"][key] for p in traced])
        layers["trace.overhead_ratio"] = layers["trace.wall_s"] / e2e["wall_s"]

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "code": digest,
        "machine": dict(machine(args.seed), numpy=untraced[0]["numpy"]),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "samples": {"setup_s": len(setups), "answers": len(latencies)},
        "end_to_end": e2e,
        "per_layer": layers,
        "counts": counts,
        "count_mismatches": mismatches,
        "failed_answers": dict(list(failed.items())[:20]),
    }
    verdict = {
        "correct": not failed and not mismatches,
        "attempted": attempted,
        "failed": n_failed,
    }
    return report, verdict


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        print(f"run: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"run: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "copclean", "__init__.py")):
        print("run: no src/copclean here; run from the root of a copclean checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        report, verdict = run(args)
    except BenchError as e:
        print(f"run: {e}", file=sys.stderr)
        return 1

    if args.trace:
        # a layer the workload never calls has no spans: zero calls, zero time
        values = {m["name"]: report["per_layer"].get(m["name"], 0) for m in spec["per_layer"]}
    else:
        values = {m["name"]: report["end_to_end"][m["name"]] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    verdict["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    with open(os.path.join(OUT, f"report-{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w") as f:
        json.dump({"report": report, "result": verdict}, f, indent=1, sort_keys=True)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
