"""Self-test of the benchmark's own logic; it changes nothing in the program.

    python3 perfbench/selftest.py      (from the root of a copclean checkout)

Checks that the input generator is deterministic per seed, and that the
checkers pass a correct answer and fail it when handed a wrong expected
value. Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402
from copclean import families, solvers, stochastic  # noqa: E402


def fingerprint(inputs: dict):
    """Inputs with every graph replaced by its vertex count and edge list."""
    def fp(v):
        if isinstance(v, list):
            return [fp(x) for x in v]
        if hasattr(v, "edges"):
            return (v.n, sorted(v.edges()))
        return v
    return {k: fp(v) for k, v in inputs.items()}


def main() -> int:
    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for w in workloads.RUNNERS:
        a = fingerprint(workloads.make_inputs(w, 7))
        expect(a == fingerprint(workloads.make_inputs(w, 7)), f"{w}: same seed, same inputs")
    for w in ("exact-games", "paper-checks"):
        expect(fingerprint(workloads.make_inputs(w, 7)) != fingerprint(workloads.make_inputs(w, 8)),
               f"{w}: another seed, other inputs")

    # paper-checks: a real expected time, checked against the pinned value
    k5 = families.complete(5)
    res = {"et_k5": workloads._expected(stochastic.expected_time(k5, 1))}
    inputs = workloads.make_inputs("paper-checks", 7)
    expect(workloads.check_paper_checks(res, inputs) == {}, "paper-checks: K5 passes")
    wrong = dict(workloads.EXPECT, **{"et_k5.value": 6.0})
    expect("et_k5" in workloads.check_paper_checks(res, inputs, wrong),
           "paper-checks: K5 against a wrong expected value fails")
    mc = {"mc_k5": {"mean": 5.5, "stderr": 0.01, "trials": workloads.MC_TRIALS}}
    expect("mc_k5" in workloads.check_paper_checks(mc, inputs),
           "paper-checks: Monte Carlo mean 50 standard errors off fails")

    # exact-games: a real witnessed tree solve, replayed by the checker
    inputs = workloads.make_inputs("exact-games", 7)
    t = inputs["trees"][0]
    res = {f"tree0k{k}": workloads._clean(solvers.max_clean(t, k, 1, witness=True))
           for k in (1, 2)}
    res["cop_heawood"] = workloads._value(solvers.cop_number(inputs["heawood"]))
    expect(workloads.check_exact_games(res, inputs) == {}, "exact-games: trees and cop pass")
    wrong = dict(workloads.EXPECT, **{"cop_heawood.value": 2})
    expect("cop_heawood" in workloads.check_exact_games(res, inputs, wrong),
           "exact-games: cop number against a wrong expected value fails")
    res["tree0k1"] = dict(res["tree0k1"], min_gas=res["tree0k1"]["min_gas"] + 1)
    expect("tree0k1" in workloads.check_exact_games(res, inputs),
           "exact-games: a witness that does not replay to the claim fails")

    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
