"""Expected capture times for randomly moving searchers, plus a Monte Carlo
cross-check.

The model: searchers step randomly each round (the evader sees everything
and plays an optimal adversary), capture happens when a searcher ends a step
within the capture radius.  Time counts searcher rounds; capture at
placement is time 0.

Expected values are computed exactly.  The almost-sure-capture region is
found first: outside it the evader reaches, with positive probability, a
state from which it can evade forever, so the expected time is infinite.
It takes two mask fixpoints, one vertex mask of evader positions per
searcher configuration: the adversarial attractor, which is the pursuit
game ``solvers._pursuit`` solves, then the states that can reach one
outside it.  Inside the region, Howard policy iteration over the evader's
replies gives the values.  There every evader policy yields a proper
chain, so each evaluation ``(I - P) v = 1`` is nonsingular and the method
ends after finitely many steps (R. A. Howard, *Dynamic Programming and
Markov Processes*, 1960; Bertsekas & Tsitsiklis, Math. Oper. Res. 16,
1991).  Wherever a choice is made, values within ``_TIE_REL`` count as
equal.

Two move models are supported: each searcher independently uniform over its
closed neighborhood ("per_cop"), or one uniform draw over the distinct
joint position multisets ("joint_multiset").

The Monte Carlo cross-check, ``monte_carlo``, draws from one PCG64 generator
per call, seeded with the caller's seed.  It runs its trials in lockstep with
numpy, a fixed-size chunk at a time: each round is one bounded draw per live
trial, in trial order, then two table gathers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import BadParamError, TooLargeError
from .graphs import Graph, _ball, _mask_bits
from .solvers import _joint_moves, _pursuit, _succs, limited_capture_solve

# relative gap below which two expected times count as equal: rounding in
# the dense solve stays near 1e-15, far below it
_TIE_REL = 1e-9
# largest almost-sure region solved: the dense matrix holds m*m floats
# (328 MB at the cap) and the solver copies it once; Heawood with k=3 has
# 6,370 states
_PI_MAX_STATES = 6_400
# trials simulated in lockstep: bounds the per-round arrays whatever
# ``trials`` is
_MC_CHUNK = 1 << 16


def _check_seed(seed: int) -> None:
    """A negative seed raises ``BadParamError``: numpy's generators take
    none.  Callers that do work before they draw check the seed first."""
    if seed < 0:
        raise BadParamError(f"seed must be >= 0, got {seed}")


def _seeded_rng(seed: int) -> np.random.Generator:
    """The generator every sampler draws from: numpy's PCG64 seeded with
    ``seed``.  A negative seed raises ``BadParamError``."""
    _check_seed(seed)
    return np.random.default_rng(seed)


def _exceeds(a, b):
    """``a`` is larger than ``b`` by more than the rounding guard."""
    return a > b + _TIE_REL * abs(b)

MOVE_MODELS = ("per_cop", "joint_multiset")
PLACEMENTS = ("optimal", "uniform")
MODES = ("random", "belief")


@dataclass
class ExpectedTimeResult:
    mode: str
    k: int
    rho: int
    move_model: Optional[str]
    placement_policy: str
    value: float                     # math.inf when capture is not a.s.
    placement: Optional[tuple[int, ...]]
    residual: float                  # largest Bellman residual |T v - v| of the values
    iterations: int                  # policy iterations (linear solves)
    states: int

    def to_dict(self) -> dict:
        d = asdict(self)
        if math.isinf(self.value):
            d["value"] = "INFINITE"
        if self.placement is not None:
            d["placement"] = list(self.placement)
        return d


class _RandomPursuit:
    """Shared state space and tables for the random-searcher chain."""

    def __init__(self, g: Graph, k: int, rho: int, move_model: str, state_budget=None):
        if move_model not in MOVE_MODELS:
            raise BadParamError(f"move model must be one of {MOVE_MODELS}")
        tables, won, _ = _pursuit(g, k, rho, state_budget, "searcher", "chain")
        self.cfgs, self.zones, self.free, self.closed = cfgs, _, free, closed = tables
        self.succs = succs = _succs(g, k)
        self.n = g.n
        self.nc = len(cfgs)

        # per config, one table from pick index to successor rank, each
        # index equally likely: per_cop picks one closed-neighborhood option
        # per searcher in config order (``_joint_moves``' product order, the
        # last searcher fastest), so a uniform index is an independent
        # uniform pick per searcher; joint_multiset picks one successor.
        # move_dist, the (successor rank, probability) list, is the table's
        # histogram, accumulated in table order.
        per_cop = move_model == "per_cop"
        tables = _joint_moves(g, k) if per_cop else succs
        self.move_table = []
        self.move_dist = []
        for ci, cfg in enumerate(cfgs):
            table = tables[ci]
            base = 1.0
            for size in ([closed[v].bit_count() for v in cfg] if per_cop else [len(table)]):
                base /= size
            acc: dict[int, float] = {}
            for r2 in table:
                acc[r2] = acc.get(r2, 0.0) + base
            self.move_table.append(table)
            self.move_dist.append(sorted(acc.items()))

        # deterministic evasion analysis: ``won`` is the attractor for
        # adversarial searchers (can they force capture?).  Per config,
        # ``evade_c[c]`` masks the searcher-to-move positions outside it:
        # the evader survives those against any searcher behavior, random
        # or not; an evader holding them is never caught
        self.evade_c = [f & ~w for f, w in zip(free, won)]
        # every searcher move has positive probability, so the evader reaches
        # an unwon state with positive probability from wherever it can
        # reach one at all.  ``esc[c]`` grows to the searcher-to-move
        # positions that can: the evader to move at c0 can from
        # ``free[c0] & _ball(rows, esc[c0], 1)``, and the searchers at c
        # step to every c0 in succs[c] (symmetric, so a change at c0 feeds
        # succs[c0])
        rows = g.bit_rows
        esc = list(self.evade_c)
        stack = [c for c, e in enumerate(esc) if e]
        while stack:
            c0 = stack.pop()
            e = free[c0] & _ball(rows, esc[c0], 1)
            for c in succs[c0]:
                x = esc[c] | e & free[c]
                if x != esc[c]:
                    esc[c] = x
                    stack.append(c)
        # inside the complement, capture is almost sure and times are finite
        self.finite_c = [f & ~x for f, x in zip(free, esc)]

    def policy_iteration(self):
        """Expected rounds to capture from searcher-to-move states (inf
        outside the almost-sure region), by Howard policy iteration over the
        evader's replies.  Returns the values, the largest Bellman residual
        ``|T v - v|`` over the region (an a-posteriori check of the values),
        and the number of policy evaluations."""
        n, zones, free, closed, finite = self.n, self.zones, self.free, self.closed, self.finite_c
        sids = [c * n + r for c, f in enumerate(finite) for r in _mask_bits(f)]
        m = len(sids)
        if m > _PI_MAX_STATES:
            raise TooLargeError(f"almost-sure region of {m} states exceeds the "
                                f"dense-solve cap {_PI_MAX_STATES}", partial=None)
        col = {sid: i for i, sid in enumerate(sids)}
        # one row per searcher outcome that does not capture: the state it
        # leaves, its probability and the evader's replies, padded with m
        # (value -inf); the region is closed, so every reply lies inside it
        width = max(x.bit_count() for x in closed)
        src, prob, replies = [], [], []
        for i, sid in enumerate(sids):
            c, r = divmod(sid, n)
            for c2, p in self.move_dist[c]:
                if not zones[c2] >> r & 1:
                    reps = [col[c2 * n + r2] for r2 in _mask_bits(closed[r] & free[c2])]
                    src.append(i)
                    prob.append(p)
                    replies.append(reps + [m] * (width - len(reps)))
        src = np.array(src, dtype=np.intp)
        prob = np.array(prob)
        replies = np.array(replies, dtype=np.intp).reshape(-1, width)
        outcome = np.arange(len(replies))
        pick = np.zeros(len(replies), dtype=np.intp)
        v = np.append(np.zeros(m), -np.inf)
        for iters in itertools.count(1):
            a = np.eye(m)
            np.add.at(a, (src, replies[outcome, pick]), -prob)
            v[:m] = np.linalg.solve(a, np.ones(m))
            vals = v[replies]
            best = vals.argmax(axis=1)
            top = vals[outcome, best]
            cur = vals[outcome, pick]
            switch = _exceeds(top, cur)
            if not switch.any():
                break
            pick[switch] = best[switch]
        bellman = np.ones(m)
        np.add.at(bellman, src, prob * top)
        residual = float(np.abs(bellman - v[:m]).max(initial=0.0))
        wc = [0.0 if (zc | f) >> r & 1 else math.inf
              for zc, f in zip(zones, finite) for r in range(n)]
        for sid, x in zip(sids, v[:m].tolist()):
            wc[sid] = x
        return wc, residual, iters

    def greedy_evader(self, wc):
        """``(start, reply)`` for the Monte Carlo adversary: ``start[c]``,
        its placement against config c; ``reply[c*n + r]``, its move from r
        after the searchers step to c (-1: captured).  It is deterministic:
        provably safe spots first (never captured from there), then the
        largest expected time within ``_TIE_REL``, an infinite one above
        every finite one; options ascend, so ties go to the lowest vertex
        id."""
        n, closed, zones, free, evade_c = self.n, self.closed, self.zones, self.free, self.evade_c

        def pick(c: int, options) -> int:
            if not options:
                return -1
            safe_opts = [r for r in options if evade_c[c] >> r & 1]
            if safe_opts:
                return min(safe_opts)
            best_r, best_v = -1, -1.0
            for r in options:
                v = wc[c * n + r]
                if _exceeds(v, best_v):
                    best_r, best_v = r, v
            return best_r

        start = [pick(c, _mask_bits(free[c])) for c in range(self.nc)]
        reply = [
            -1 if zones[c] >> r & 1 else pick(c, _mask_bits(closed[r] & free[c]))
            for c in range(self.nc) for r in range(n)
        ]
        return start, reply

    def placement_value(self, c: int, wc) -> float:
        safe = _mask_bits(self.free[c])
        return max((wc[c * self.n + r] for r in safe), default=0.0)

    def best_placement(self, wc) -> int:
        """Rank of the placement with the least ``placement_value``; each
        replaces the best so far only when smaller by more than
        ``_TIE_REL``, so ties go to the first.  0 when all are infinite."""
        best, best_c = math.inf, 0
        for c in range(self.nc):
            v = self.placement_value(c, wc)
            if _exceeds(best, v):
                best, best_c = v, c
        return best_c


def expected_time(
    g: Graph,
    k: int,
    rho: int = 0,
    mode: str = "random",
    move_model: str = "per_cop",
    placement: str = "optimal",
    l: Optional[int] = None,
    state_budget: Optional[int] = None,
) -> ExpectedTimeResult:
    """Expected number of searcher rounds until capture.

    mode "random": searchers move randomly (see module docstring), the
    evader is an optimal adversary, and the value comes from policy
    iteration, exact up to rounding: on C5 with k=2 it is 747/140 to within
    a unit in the last place.  ``iterations`` counts policy evaluations and
    ``residual`` is the largest Bellman residual ``|T v - v|`` over the
    almost-sure region; a region above ``_PI_MAX_STATES`` states raises
    ``TooLargeError``.  The optimal placement is ``best_placement``'s: ties
    within ``_TIE_REL`` go to the first.  mode "belief": searchers play the
    optimal limited-sight capture strategy (sight radius ``l``), which is
    deterministic, so the value is the worst-case round count; only rho=0
    and optimal placement are supported there.  Random searchers have no
    sight radius, so random mode refuses ``l``.
    """
    if mode not in MODES:
        raise BadParamError(f"mode must be one of {MODES}")
    if placement not in PLACEMENTS:
        raise BadParamError(f"placement must be one of {PLACEMENTS}")
    if mode == "belief":
        if rho != 0:
            raise BadParamError("belief mode tracks capture on the vertex itself (rho=0)")
        if l is None:
            raise BadParamError("belief mode needs the sight radius l")
        if placement != "optimal":
            raise BadParamError("belief mode supports optimal placement only")
        res = limited_capture_solve(g, k, l, state_budget=state_budget)
        value = float(res.capture_time) if res.capture else math.inf
        return ExpectedTimeResult(
            mode=mode, k=k, rho=rho, move_model=None, placement_policy=placement,
            value=value, placement=res.placement, residual=0.0, iterations=0,
            states=res.states,
        )
    if l is not None:
        raise BadParamError("the sight radius l applies to belief mode only")

    chain = _RandomPursuit(g, k, rho, move_model, state_budget=state_budget)
    wc, residual, iters = chain.policy_iteration()
    if placement == "optimal":
        c = chain.best_placement(wc)
        value, at = chain.placement_value(c, wc), chain.cfgs[c]
    else:
        # uniform over the n**k ordered placements: weight each multiset by
        # its orderings
        value = math.fsum(_orderings(cfg) * chain.placement_value(c, wc)
                          for c, cfg in enumerate(chain.cfgs)) / chain.n ** k
        at = None
    return ExpectedTimeResult(
        mode=mode, k=k, rho=rho, move_model=move_model, placement_policy=placement,
        value=value, placement=at, residual=residual, iterations=iters,
        states=2 * chain.nc * chain.n,
    )


def _orderings(cfg) -> int:
    counts: dict[int, int] = {}
    for v in cfg:
        counts[v] = counts.get(v, 0) + 1
    out = math.factorial(len(cfg))
    for c in counts.values():
        out //= math.factorial(c)
    return out


@dataclass
class MonteCarloResult:
    trials: int
    captured: int
    capture_frequency: float
    mean_time: Optional[float]       # over captured trials
    stderr: Optional[float]
    horizon: int
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


def monte_carlo(
    g: Graph,
    k: int,
    rho: int = 0,
    trials: int = 10_000,
    seed: int = 0,
    horizon: Optional[int] = None,
    move_model: str = "per_cop",
    placement: str = "optimal",
    state_budget: Optional[int] = None,
) -> MonteCarloResult:
    """Simulate the random-searcher chain against a greedy adversary driven
    by the exact analysis of ``expected_time`` (``greedy_evader``: provably
    safe spots first, then the largest expected time, an infinite one above
    every finite one, ties to the lowest vertex id).  The optimal
    placement is ``expected_time``'s.  A trial still running after
    ``horizon`` rounds counts as not captured.

    Reproducibility: every draw comes from one PCG64 generator per call,
    ``_seeded_rng(seed)``, so a seed fixes the whole result; a negative seed
    raises ``BadParamError``.  Trials run in lockstep, ``_MC_CHUNK`` at a
    time, chunk after chunk.  Under uniform placement a chunk first draws k
    vertices per trial, trial by trial.  Each round then makes one bounded
    ``integers`` draw per live trial, in trial order: a uniform index into
    the config's move table, ``_RandomPursuit.move_table``.  The greedy
    evader is deterministic, so its replies are tabulated once per call,
    and a round is that draw plus two gathers, one into the move tables and
    one into the replies.  ``mean_time`` and ``stderr`` come from the exact
    integer sums of t and t*t over the captured trials.
    """
    if trials < 1:
        raise BadParamError("need at least one trial")
    if placement not in PLACEMENTS:
        raise BadParamError(f"placement must be one of {PLACEMENTS}")
    if horizon is not None and horizon < 1:
        raise BadParamError("horizon must be at least one round")
    rng = _seeded_rng(seed)
    chain = _RandomPursuit(g, k, rho, move_model, state_budget=state_budget)
    wc, _, _ = chain.policy_iteration()
    n = chain.n
    if horizon is None:
        horizon = 10 * n * n
    start, reply = (np.array(t, dtype=np.intp) for t in chain.greedy_evader(wc))
    # the move tables end to end: config c's is flat[offset[c]:][:size[c]]
    size = np.array([len(t) for t in chain.move_table], dtype=np.intp)
    offset = np.cumsum(size) - size
    flat = np.fromiter(itertools.chain.from_iterable(chain.move_table), dtype=np.intp,
                       count=int(size.sum()))
    if placement == "optimal":
        fixed_c = chain.best_placement(wc)
    else:
        # base-n keys, first vertex most significant, ascend in the configs'
        # combinations_with_replacement order
        power = n ** np.arange(k - 1, -1, -1, dtype=np.int64)
        keys = np.array(chain.cfgs, dtype=np.int64) @ power

    captured = sum_t = sum_tt = 0
    for lo in range(0, trials, _MC_CHUNK):
        batch = min(_MC_CHUNK, trials - lo)
        if placement == "optimal":
            c = np.full(batch, fixed_c, dtype=np.intp)
        else:
            drawn = np.sort(rng.integers(n, size=(batch, k)), axis=1)
            c = np.searchsorted(keys, drawn @ power)
        r = start[c]
        alive = r >= 0
        captured += batch - int(np.count_nonzero(alive))   # at placement: time 0
        c, r = c[alive], r[alive]
        for t in range(1, horizon + 1):
            if not len(c):
                break
            c = flat[offset[c] + rng.integers(size[c])]
            r = reply[c * n + r]
            alive = r >= 0
            hits = len(r) - int(np.count_nonzero(alive))
            if hits:
                captured += hits
                sum_t += hits * t
                sum_tt += hits * t * t
                c, r = c[alive], r[alive]
    freq = captured / trials
    mean = err = None
    if captured:
        mean = sum_t / captured
        if captured > 1:
            # sample variance over captured, divided by captured, in integers:
            # (captured * sum_tt - sum_t**2) is captured times the squared
            # deviations' sum
            err = math.sqrt((captured * sum_tt - sum_t * sum_t)
                            / (captured * captured * (captured - 1)))
    return MonteCarloResult(
        trials=trials, captured=captured, capture_frequency=freq,
        mean_time=mean, stderr=err, horizon=horizon, seed=seed,
    )
