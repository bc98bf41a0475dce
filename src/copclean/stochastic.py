"""Expected capture times for randomly moving searchers, plus a Monte Carlo
cross-check.

The model: searchers step randomly each round (the evader sees everything
and plays an optimal adversary), capture happens when a searcher ends a step
within the capture radius.  Time counts searcher rounds; capture at
placement is time 0.

Expected values are computed exactly.  The almost-sure-capture region is
found first: outside it the evader reaches, with positive probability, a
state from which it can evade forever, so the expected time is infinite.
Value iteration runs only inside the region.

Two move models are supported: each searcher independently uniform over its
closed neighborhood ("per_cop"), or one uniform draw over the distinct
joint position multisets ("joint_multiset").
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional

from .errors import BadParamError, ConvergenceError, TooLargeError
from .graphs import Graph, _mask_bits
from .solvers import (
    NONE,
    _budget,
    _check_game_graph,
    _config_tables,
    _pursuit_attractor,
    _PURSUIT_MAX_N,
    limited_capture_solve,
)

_VI_TOL = 1e-12
_VI_MAX_ITERS = 1_000_000

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
    residual: float
    iterations: int
    states: int

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "k": self.k,
            "rho": self.rho,
            "move_model": self.move_model,
            "placement_policy": self.placement_policy,
            "value": "INFINITE" if math.isinf(self.value) else self.value,
            "placement": None if self.placement is None else list(self.placement),
            "residual": self.residual,
            "iterations": self.iterations,
            "states": self.states,
        }


class _RandomPursuit:
    """Shared state space and tables for the random-searcher chain."""

    def __init__(self, g: Graph, k: int, rho: int, move_model: str, state_budget=None):
        if k < 1:
            raise BadParamError("need at least one searcher")
        if rho < 0:
            raise BadParamError("capture radius must be >= 0")
        if move_model not in MOVE_MODELS:
            raise BadParamError(f"move model must be one of {MOVE_MODELS}")
        _check_game_graph(g, _PURSUIT_MAX_N)
        budget = _budget(state_budget)
        n = g.n
        self.g = g
        self.n = n
        self.k = k
        self.rho = rho
        self.move_model = move_model
        self.full = (1 << n) - 1
        rows = g.bit_rows
        self.rows = rows

        cfgs, rank, zones, succs = _config_tables(g, k, rho)
        self.cfgs = cfgs
        self.succs = succs
        self.zones = zones
        self.nc = len(cfgs)
        if 2 * self.nc * n > budget:
            raise TooLargeError(
                f"chain space 2*{self.nc}*{n} exceeds budget {budget}", partial=None
            )

        # move distribution per config: list of (successor rank, probability)
        closed = [rows[v] | (1 << v) for v in range(n)]
        self.move_dist = []
        for ci, cfg in enumerate(cfgs):
            if move_model == "joint_multiset":
                opts = self.succs[ci]
                p = 1.0 / len(opts)
                self.move_dist.append([(c2, p) for c2 in opts])
            else:
                acc: dict[int, float] = {}
                opt_lists = [_mask_bits(closed[v]) for v in cfg]
                base = 1.0
                for ol in opt_lists:
                    base /= len(ol)
                for prod in itertools.product(*opt_lists):
                    r2 = rank[tuple(sorted(prod))]
                    acc[r2] = acc.get(r2, 0.0) + base
                self.move_dist.append(sorted(acc.items()))

        self._compute_sure_capture_region()

    # deterministic evasion analysis: from which states can the evader
    # reach, with positive chain probability, a state where it evades any
    # searcher behavior forever?
    def _compute_sure_capture_region(self):
        n, nc = self.n, self.nc
        zones, succs, rows = self.zones, self.succs, self.rows

        # attractor for adversarial searchers (can they force capture?)
        wc, wr = _pursuit_attractor(n, rows, zones, succs)
        cop_win = [v != NONE for v in wc]   # searcher-to-move states
        rob_win = [v != NONE for v in wr]   # evader-to-move states

        # states from which the evader reaches the evasion region with
        # positive probability (every searcher move has positive probability)
        esc_c = [False] * (nc * n)
        esc_r = [False] * (nc * n)
        stack = []
        for c in range(nc):
            alive = self.full & ~zones[c]
            for r in _mask_bits(alive):
                sid = c * n + r
                if not cop_win[sid]:
                    esc_c[sid] = True
                    stack.append((0, sid))
                if not rob_win[sid]:
                    esc_r[sid] = True
                    stack.append((1, sid))
        while stack:
            kind, sid = stack.pop()
            c, r = divmod(sid, n)
            if kind == 0:
                # searcher state is escapable: evader states offering it too
                for r0 in _mask_bits((rows[r] | (1 << r)) & ~zones[c]):
                    psid = c * n + r0
                    if not esc_r[psid]:
                        esc_r[psid] = True
                        stack.append((1, psid))
            else:
                for c0 in succs[c]:
                    if zones[c0] >> r & 1:
                        continue
                    psid = c0 * n + r
                    if not esc_c[psid]:
                        esc_c[psid] = True
                        stack.append((0, psid))
        # inside the complement, capture is almost sure and times are finite
        self.finite_c = [not e for e in esc_c]
        self.finite_r = [not e for e in esc_r]
        # searcher-to-move states the evader survives against any searcher
        # behavior, random or not; an evader holding these is never caught
        self.evade_c = [not w for w in cop_win]

    def value_iteration(self, tol=_VI_TOL):
        """Expected rounds to capture from searcher-to-move states (inf
        outside the almost-sure region), by monotone iteration from zero."""
        n, nc = self.n, self.nc
        zones, rows = self.zones, self.rows
        inf = math.inf
        wc = [0.0 if f else inf for f in self.finite_c]
        alive_list = []
        for c in range(nc):
            for r in _mask_bits(self.full & ~zones[c]):
                sid = c * n + r
                if self.finite_c[sid]:
                    alive_list.append((c, r, sid))
        residual = inf
        iters = 0
        while residual > tol:
            iters += 1
            if iters > _VI_MAX_ITERS:
                raise ConvergenceError(
                    f"value iteration stuck above tol={tol}", residual=residual
                )
            residual = 0.0
            for c, r, sid in alive_list:
                total = 1.0
                for c2, p in self.move_dist[c]:
                    if zones[c2] >> r & 1:
                        continue
                    # evader's best reply after this searcher outcome
                    best = 0.0
                    for r2 in _mask_bits((rows[r] | (1 << r)) & ~zones[c2]):
                        v = wc[c2 * n + r2]
                        if v > best:
                            best = v
                    total += p * best
                diff = total - wc[sid]
                if diff > residual:
                    residual = diff
                wc[sid] = total
        self.wc = wc
        return wc, residual, iters

    def placement_value(self, c: int, wc) -> float:
        safe = self.full & ~self.zones[c]
        if safe == 0:
            return 0.0
        return max(wc[c * self.n + r] for r in _mask_bits(safe))


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
    evader is an optimal adversary, and the value is exact up to the value
    iteration tolerance.  mode "belief": searchers play the optimal
    limited-sight capture strategy (sight radius ``l``), which is
    deterministic, so the value is the worst-case round count; only
    rho=0 and optimal placement are supported there.
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

    chain = _RandomPursuit(g, k, rho, move_model, state_budget=state_budget)
    wc, residual, iters = chain.value_iteration()
    n, nc = chain.n, chain.nc
    if placement == "optimal":
        best = math.inf
        best_cfg = None
        for c in range(nc):
            v = chain.placement_value(c, wc)
            if v < best:
                best = v
                best_cfg = chain.cfgs[c]
        if best_cfg is None:
            best_cfg = chain.cfgs[0]
        return ExpectedTimeResult(
            mode=mode, k=k, rho=rho, move_model=move_model, placement_policy=placement,
            value=best, placement=best_cfg, residual=residual, iterations=iters,
            states=2 * nc * n,
        )
    # uniform over ordered placements: weight each multiset by its orderings
    total = 0.0
    weight_sum = 0
    for c, cfg in enumerate(chain.cfgs):
        w = _orderings(cfg)
        weight_sum += w
        v = chain.placement_value(c, wc)
        if math.isinf(v):
            total = math.inf
        if not math.isinf(total):
            total += w * v
    value = total if math.isinf(total) else total / weight_sum
    return ExpectedTimeResult(
        mode=mode, k=k, rho=rho, move_model=move_model, placement_policy=placement,
        value=value, placement=None, residual=residual, iterations=iters,
        states=2 * nc * n,
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
        return {
            "trials": self.trials,
            "captured": self.captured,
            "capture_frequency": self.capture_frequency,
            "mean_time": self.mean_time,
            "stderr": self.stderr,
            "horizon": self.horizon,
            "seed": self.seed,
        }


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
    by the exact analysis (prefers provably safe spots, then spots with
    infinite expected time, then the largest finite value, ties to the
    lowest vertex id).

    Per-trial generators are seeded as ``f"{seed}:{trial}"`` so any trial
    can be reproduced alone.
    """
    if trials < 1:
        raise BadParamError("need at least one trial")
    if placement not in PLACEMENTS:
        raise BadParamError(f"placement must be one of {PLACEMENTS}")
    if horizon is not None and horizon < 1:
        raise BadParamError("horizon must be at least one round")
    chain = _RandomPursuit(g, k, rho, move_model, state_budget=state_budget)
    wc, _, _ = chain.value_iteration()
    n, nc = chain.n, chain.nc
    if horizon is None:
        horizon = 10 * n * n
    rows, zones = chain.rows, chain.zones
    rank_of = {cfg: i for i, cfg in enumerate(chain.cfgs)}
    closed_opts = [_mask_bits(rows[v] | (1 << v)) for v in range(n)]

    if placement == "optimal":
        best = math.inf
        best_c = 0
        for c in range(nc):
            v = chain.placement_value(c, wc)
            if v < best:
                best = v
                best_c = c
        fixed_c = best_c
    else:
        fixed_c = None

    evade_c = chain.evade_c

    def evader_pick(c: int, options) -> int:
        # deterministic: provably safe spots first (never captured from
        # there), then positive-escape-chance spots, then the largest
        # expected time; ties to the lowest vertex id
        safe_opts = [r for r in options if evade_c[c * n + r]]
        if safe_opts:
            return min(safe_opts)
        inf_opts = [r for r in options if math.isinf(wc[c * n + r])]
        if inf_opts:
            return min(inf_opts)
        best_r = None
        best_v = -1.0
        for r in options:
            v = wc[c * n + r]
            if v > best_v or (v == best_v and (best_r is None or r < best_r)):
                best_r, best_v = r, v
        return best_r

    times = []
    captured = 0
    for i in range(trials):
        rng = random.Random(f"{seed}:{i}")
        if fixed_c is not None:
            c = fixed_c
        else:
            c = rank_of[tuple(sorted(rng.randrange(n) for _ in range(k)))]
        safe = _mask_bits(chain.full & ~zones[c])
        if not safe:
            captured += 1
            times.append(0)
            continue
        r = evader_pick(c, safe)
        t = 0
        caught = False
        while t < horizon:
            t += 1
            if move_model == "per_cop":
                moved = tuple(sorted(rng.choice(closed_opts[v]) for v in chain.cfgs[c]))
                c = rank_of[moved]
            else:
                c = rng.choice(chain.succs[c])
            if zones[c] >> r & 1:
                caught = True
                break
            opts = _mask_bits((rows[r] | (1 << r)) & ~zones[c])
            r = evader_pick(c, opts)
        if caught:
            captured += 1
            times.append(t)
    freq = captured / trials
    if captured:
        mean = sum(times) / captured
        if captured > 1:
            var = sum((x - mean) ** 2 for x in times) / (captured - 1)
            err = math.sqrt(var / captured)
        else:
            err = None
    else:
        mean = None
        err = None
    return MonteCarloResult(
        trials=trials, captured=captured, capture_frequency=freq,
        mean_time=mean, stderr=err, horizon=horizon, seed=seed,
    )
