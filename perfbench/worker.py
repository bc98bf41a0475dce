"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --out FILE [--setup-only]

Run from the root of a copclean checkout; the library is imported from its
``src`` directory. The pass writes one JSON object to FILE: the clock reading
when set-up ended, every answer's kind and time, the failed answers, the
counts that must repeat, the peak RSS and, when traced, the per-layer metrics
(the spans go to FILE with ``.spans.json`` appended). ``--setup-only`` stops
after set-up, so ``run.py`` can sample set-up time cheaply.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

COUNT_FIELDS = ("states", "iterations", "greedy_hits", "trials")


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "copclean", "__init__.py")):
        print("worker: no src/copclean in the working directory", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import numpy

    import workloads

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    inputs = workloads.make_inputs(args.workload, args.seed)
    t_ready = time.monotonic()
    if args.setup_only:
        _write(args.out, {"t_ready": t_ready})
        return 0

    answers = []          # [kind, seconds]
    results = {}          # answer id -> summary, None if it raised
    errors = {}

    def ask(aid, kind, call, extract):
        if tracer is not None:
            tracer.answer = aid
            tracer.active = True
        t0 = time.perf_counter()
        try:
            raw = call()
        except Exception as e:  # a failed answer is counted, the pass goes on
            raw = e
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.active = False
        answers.append([kind, t1 - t0])
        results[aid] = None
        if isinstance(raw, Exception):
            errors[aid] = f"{type(raw).__name__}: {raw}"
            return None
        try:
            results[aid] = extract(raw)
        except Exception as e:
            errors[aid] = f"result unreadable: {type(e).__name__}: {e}"
        return results[aid]

    t_start, c_start = time.perf_counter(), time.process_time()
    workloads.RUNNERS[args.workload](inputs, ask)
    wall_s = time.perf_counter() - t_start
    cpu_s = time.process_time() - c_start

    try:
        bad = workloads.CHECKERS[args.workload](results, inputs)
    except Exception as e:  # a checker that cannot read the results fails them all
        bad = {aid: f"check raised {type(e).__name__}: {e}" for aid in results}
    failed = {**bad, **errors}

    counts: dict[str, int] = {}
    for aid, summary in results.items():
        if isinstance(summary, dict):
            label = aid.split("@")[0]
            for field in COUNT_FIELDS:
                if isinstance(summary.get(field), int):
                    key = f"{label}.{field}"
                    counts[key] = counts.get(key, 0) + summary[field]
    if isinstance(results.get("classes"), list):
        counts["classes"] = len(results["classes"])

    out = {
        "t_ready": t_ready,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "answers": answers,
        "failed": failed,
        "counts": counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
        "layers": None,
    }
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer.spans, wall_s)
        with open(args.out + ".spans.json", "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "answer", "counts"],
                       "spans": tracer.spans}, f)
    _write(args.out, out)
    return 0


def _write(path, obj):
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f)
    os.replace(tmp, path)


if __name__ == "__main__":
    sys.exit(main())
