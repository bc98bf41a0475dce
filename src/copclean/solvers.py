"""Exact game solvers.

Three engines share this module:

* ``solve_cleaning`` explores the full cleaning game (searchers vs. gas) over
  packed integer states and answers see/infer/max-clean questions, with an
  optional replayable witness script.  Every searcher placement seeds the
  search.  The thresholds ``cleanable``, ``seeing_number`` and
  ``inference_number`` are this search with ``stop_at`` set, one call per
  searcher count; it is breadth first, so their witnesses are shortest plays.
* ``pursuit_solve`` is classic perfect-information pursuit with a capture
  radius, solved by backward induction over cop-move/robber-move states
  (``_pursuit_attractor``, shared with the random-searcher chain in
  ``stochastic``).
* ``limited_capture_solve`` handles capture under limited sight: cops track a
  set of candidate robber locations, and the game is an AND-OR reachability
  problem over (positions, candidate-set) states, solved by one bucketed
  retrograde pass that yields both the winning region and the round counts.

All engines enforce explicit state budgets and raise ``TooLargeError`` with
partial results rather than running away on oversized inputs.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Optional

from .cleaning import StrategyScript
from .errors import BadParamError, TooLargeError
from .graphs import Graph, _mask_bits

_CLEAN_MAX_N = 26
_PURSUIT_MAX_N = 64
_DEFAULT_BUDGET = 5_000_000
NONE = -1   # unresolved entry of a retrograde table


def _budget(arg: Optional[int]) -> int:
    """The state budget: ``arg`` if given, else ``COPCLEAN_STATE_BUDGET``,
    else the default.  Either source must be a positive integer."""
    if arg is None:
        env = os.environ.get("COPCLEAN_STATE_BUDGET")
        if not env:
            return _DEFAULT_BUDGET
        try:
            arg = int(env)
        except ValueError:
            raise BadParamError(
                f"COPCLEAN_STATE_BUDGET must be a positive integer, got {env!r}"
            ) from None
    if arg < 1:
        raise BadParamError("state budget must be positive")
    return arg


def _check_game_graph(g: Graph, max_n: int):
    if g.n > max_n:
        raise TooLargeError(f"solver handles up to {max_n} vertices, got {g.n}", partial=None)
    if not g.is_connected():
        raise BadParamError("solver expects a connected graph")


# -- shared precomputation ---------------------------------------------------


def _nor_tables(g: Graph):
    """Byte-sliced tables so the neighbor-union of any vertex mask costs
    four lookups."""
    rows = g.bit_rows
    n = g.n
    tables = []
    for bpos in range(4):
        t = [0] * 256
        base = bpos * 8
        if base < n:
            for byte in range(1, 256):
                low = byte & -byte
                idx = base + low.bit_length() - 1
                rest = t[byte ^ low]
                t[byte] = (rows[idx] if idx < n else 0) | rest
        tables.append(t)
    return tables


def _configs(n: int, k: int):
    return list(itertools.combinations_with_replacement(range(n), k))


def _config_tables(g: Graph, k: int, l: int):
    """Configs plus per-config sight masks and joint-move successor ranks."""
    n = g.n
    rows = g.bit_rows
    closed1 = [rows[v] | (1 << v) for v in range(n)]
    sight1 = [g.closed_l_mask(v, l) for v in range(n)]
    cfgs = _configs(n, k)
    rank = {c: i for i, c in enumerate(cfgs)}
    sights = []
    succs = []
    move_opts = [_mask_bits(closed1[v]) for v in range(n)]
    for cfg in cfgs:
        s = 0
        for v in cfg:
            s |= sight1[v]
        sights.append(s)
        seen = set()
        for prod in itertools.product(*(move_opts[v] for v in cfg)):
            seen.add(rank[tuple(sorted(prod))])
        succs.append(sorted(seen))
    return cfgs, rank, sights, succs


def _occ_mask(cfg) -> int:
    m = 0
    for v in cfg:
        m |= 1 << v
    return m


# -- cleaning game -----------------------------------------------------------


@dataclass
class CleanSolve:
    k: int
    l: int
    min_gas: int
    max_clean: int
    reached_stop: Optional[bool]
    states: int
    capped: bool
    witness: Optional[StrategyScript]


def _witness_script(cfgs, closed1, parents, parent_key, final_cfg_rank, n, l) -> StrategyScript:
    """Rebuild a playable script from the BFS parent chain.  Keys are
    after-spread states; the final transition to ``final_cfg_rank`` realizes
    the reported gas minimum."""
    chain = []
    key = parent_key
    while key is not None:
        chain.append(key)
        key = parents[key]
    chain.reverse()
    cfg_ranks = [k >> n for k in chain] + [final_cfg_rank]
    place = cfgs[cfg_ranks[0]]
    turns = []
    for a, b in zip(cfg_ranks, cfg_ranks[1:]):
        src = cfgs[a]
        dst = cfgs[b]
        matched = None
        for perm in itertools.permutations(dst):
            if all(closed1[s] >> t & 1 for s, t in zip(src, perm)):
                matched = perm
                break
        turns.append(matched)
    return StrategyScript(l=l, place=place, turns=tuple(turns))


def solve_cleaning(
    g: Graph,
    k: int,
    l: int,
    stop_at: Optional[int] = None,
    witness: bool = False,
    state_budget: Optional[int] = None,
) -> CleanSolve:
    """Exhaustive reachability over the cleaning game for k searchers with
    sight radius l.

    Tracks the fewest simultaneous gas vertices over every post-clean
    snapshot of every play.  With ``stop_at`` set, returns as soon as a
    snapshot of at most that many gas vertices is found (reached_stop tells
    whether it was).  Budget overrun raises TooLargeError whose ``partial``
    holds the bound certified so far (true min gas can only be lower, so
    partial.max_clean is a valid lower bound).
    """
    if k < 1:
        raise BadParamError("need at least one searcher")
    if l < 0:
        raise BadParamError("sight radius must be >= 0")
    _check_game_graph(g, _CLEAN_MAX_N)
    budget = _budget(state_budget)
    n = g.n
    full = (1 << n) - 1
    rows = g.bit_rows
    closed1 = [rows[v] | (1 << v) for v in range(n)]
    cfgs, _, sights, succs = _config_tables(g, k, l)
    t0, t1, t2, t3 = _nor_tables(g)

    nconfigs = len(cfgs)
    use_bitmap = (nconfigs << n) <= (1 << 27)
    if use_bitmap:
        visited = bytearray(((nconfigs << n) + 7) >> 3)
    else:
        visited = set()
    parents = {} if witness else None

    best_gas = n + 1
    best_from = None     # (parent_key or None, cfg_rank) realizing best_gas
    states = 0
    frontier = []

    for ci, s in enumerate(sights):
        gas0 = full & ~s
        key = ci << n | gas0     # distinct per placement, so never seen yet
        if use_bitmap:
            visited[key >> 3] |= 1 << (key & 7)
        else:
            visited.add(key)
        states += 1
        if parents is not None:
            parents[key] = None
        pc = gas0.bit_count()
        if pc < best_gas:
            best_gas = pc
            best_from = (None, ci)
        frontier.append(key)
        if stop_at is not None and best_gas <= stop_at:
            break

    def result(reached, capped):
        wit = None
        if witness and best_from is not None:
            pkey, crank = best_from
            if pkey is None:
                wit = StrategyScript(l=l, place=cfgs[crank], turns=())
            else:
                wit = _witness_script(cfgs, closed1, parents, pkey, crank, n, l)
        return CleanSolve(
            k=k, l=l, min_gas=best_gas, max_clean=n - best_gas,
            reached_stop=None if stop_at is None else reached,
            states=states, capped=capped, witness=wit,
        )

    if stop_at is not None and best_gas <= stop_at:
        return result(True, False)

    while frontier:
        nxt = []
        for key in frontier:
            gas = key & full
            for c2 in succs[key >> n]:
                s2 = sights[c2]
                gas1 = gas & ~s2
                pc = gas1.bit_count()
                if pc < best_gas:
                    best_gas = pc
                    best_from = (key, c2)
                    if stop_at is not None and best_gas <= stop_at:
                        return result(True, False)
                nb = (
                    t0[gas1 & 255]
                    | t1[(gas1 >> 8) & 255]
                    | t2[(gas1 >> 16) & 255]
                    | t3[(gas1 >> 24) & 255]
                )
                gas2 = gas1 | (nb & ~s2)
                key2 = c2 << n | gas2
                if use_bitmap:
                    b, bit = key2 >> 3, 1 << (key2 & 7)
                    if visited[b] & bit:
                        continue
                    visited[b] |= bit
                else:
                    if key2 in visited:
                        continue
                    visited.add(key2)
                states += 1
                if parents is not None:
                    parents[key2] = key
                nxt.append(key2)
            if states > budget:
                raise TooLargeError(
                    f"state budget {budget} exhausted (visited {states})",
                    partial=result(False, True),
                )
        frontier = nxt

    return result(best_gas <= stop_at if stop_at is not None else None, False)


@dataclass
class ThresholdResult:
    value: int
    l: int
    witness: Optional[StrategyScript]
    states: int


def cleanable(g: Graph, k: int, l: int, witness: bool = False,
              state_budget: Optional[int] = None):
    """Can k searchers with sight l reach a moment with zero gas?
    Returns (bool, script-or-None, states-explored).

    This is ``solve_cleaning`` with ``stop_at=0``: the search is breadth
    first, so a witness is a shortest play that cleans the graph."""
    res = solve_cleaning(g, k, l, stop_at=0, witness=witness, state_budget=state_budget)
    return bool(res.reached_stop), res.witness if res.reached_stop else None, res.states


def seeing_number(g: Graph, l: int, witness: bool = False,
                  state_budget: Optional[int] = None) -> ThresholdResult:
    """Fewest searchers with sight l that can fully clean the graph: the
    inference number with r=0.  ``states`` sums the searches over every k
    tried, and a witness is a shortest cleaning play."""
    return inference_number(g, l, 0, witness=witness, state_budget=state_budget)


def inference_number(g: Graph, l: int, r: int, witness: bool = False,
                     state_budget: Optional[int] = None) -> ThresholdResult:
    """Fewest searchers with sight l that can corner the gas down to at most
    r simultaneous vertices (r=0 recovers the full-clean question).

    Runs ``solve_cleaning`` with ``stop_at=r`` for k = 1, 2, ... until one
    succeeds; a witness is a shortest play reaching at most r gas."""
    if r < 0:
        raise BadParamError("residue bound must be >= 0")
    total = 0
    for k in range(1, g.n + 1):
        res = solve_cleaning(g, k, l, stop_at=r, witness=witness, state_budget=state_budget)
        total += res.states
        if res.reached_stop:
            return ThresholdResult(value=k, l=l, witness=res.witness, states=total)
    raise BadParamError("unreachable: n searchers clean everything at placement")


def max_clean(g: Graph, k: int, l: int, witness: bool = False,
              state_budget: Optional[int] = None) -> CleanSolve:
    """Most vertices k searchers with sight l can have simultaneously clean."""
    return solve_cleaning(g, k, l, stop_at=None, witness=witness, state_budget=state_budget)


# -- perfect-information pursuit ----------------------------------------------


@dataclass
class PursuitResult:
    k: int
    rho: int
    capture: bool
    capture_time: Optional[int]
    placement: Optional[tuple[int, ...]]
    states: int


def _pursuit_attractor(n: int, rows, zones, succs):
    """Backward induction for pursuers that must bring the evader into their
    zone.  State ids are ``c * n + r`` for config rank c and evader vertex r
    outside ``zones[c]``.

    Returns ``(wc, wr)``: for pursuer-to-move and evader-to-move states, the
    number of pursuer rounds the pursuers need to force capture, or NONE
    where the evader escapes forever.  Staying put is always safe for the
    evader, so captures happen only on pursuer moves.
    """
    full = (1 << n) - 1
    size = len(zones) * n
    wc = [NONE] * size
    wr = [NONE] * size
    rob_counter = [0] * size
    buckets: dict[int, list[tuple[int, int]]] = {}

    # seed: pursuer states with a capturing move are won in one round
    for c, zc in enumerate(zones):
        can_capture = 0  # evader positions hit by some successor zone
        for c2 in succs[c]:
            can_capture |= zones[c2]
        for r in _mask_bits(full & ~zc):
            sid = c * n + r
            rob_counter[sid] = ((rows[r] | (1 << r)) & ~zc).bit_count()
            if can_capture >> r & 1:
                wc[sid] = 1
                buckets.setdefault(1, []).append((0, sid))

    while buckets:
        val = min(buckets)
        for kind, sid in buckets.pop(val):
            c, r = divmod(sid, n)
            if kind == 0:
                # resolved pursuer state: an option of the evader states
                # (same c) next to r, resolved once all their options are
                for r0 in _mask_bits((rows[r] | (1 << r)) & ~zones[c]):
                    psid = c * n + r0
                    if wr[psid] != NONE:
                        continue
                    rob_counter[psid] -= 1
                    if rob_counter[psid] == 0:
                        wr[psid] = val
                        buckets.setdefault(val, []).append((1, psid))
            else:
                # resolved evader state: pursuer states moving into c win
                for c0 in succs[c]:
                    if zones[c0] >> r & 1:
                        continue
                    psid = c0 * n + r
                    if wc[psid] == NONE:
                        wc[psid] = val + 1
                        buckets.setdefault(val + 1, []).append((0, psid))
    return wc, wr


def pursuit_solve(g: Graph, k: int, rho: int, state_budget: Optional[int] = None) -> PursuitResult:
    """Backward induction for k pursuers catching a visible evader.

    Pursuers place first, then the evader places outside their radius-rho
    zone.  Each round all pursuers step (or stay), capture is checked, then
    the evader steps to a vertex outside the zone (staying is always safe
    for it, so mid-game forced captures cannot happen).  Capture time counts
    pursuer rounds; placement capture is time 0.
    """
    if k < 1:
        raise BadParamError("need at least one pursuer")
    if rho < 0:
        raise BadParamError("capture radius must be >= 0")
    _check_game_graph(g, _PURSUIT_MAX_N)
    budget = _budget(state_budget)
    n = g.n
    full = (1 << n) - 1
    cfgs, _, zones, succs = _config_tables(g, k, rho)
    nc = len(cfgs)
    if 2 * nc * n > budget:
        raise TooLargeError(f"pursuit space 2*{nc}*{n} exceeds budget {budget}", partial=None)
    wc, _ = _pursuit_attractor(n, g.bit_rows, zones, succs)

    best = None
    best_cfg = None
    for c in range(nc):
        times = [wc[c * n + r] for r in _mask_bits(full & ~zones[c])]
        if NONE in times:
            continue
        cand = max(times, default=0)
        if best is None or cand < best:
            best = cand
            best_cfg = cfgs[c]
    return PursuitResult(
        k=k, rho=rho, capture=best is not None,
        capture_time=best, placement=best_cfg, states=2 * nc * n,
    )


def reach_number(g: Graph, rho: int, state_budget: Optional[int] = None) -> int:
    """Fewest pursuers that can force themselves within distance rho of the
    evader."""
    for k in range(1, g.n + 1):
        if pursuit_solve(g, k, rho, state_budget=state_budget).capture:
            return k
    raise BadParamError("unreachable: pursuers on every vertex capture at placement")


def cop_number(g: Graph, state_budget: Optional[int] = None) -> int:
    """Fewest pursuers that can land on the evader (capture radius 0)."""
    return reach_number(g, 0, state_budget=state_budget)


# -- limited-sight capture -----------------------------------------------------


@dataclass
class LimitedCaptureResult:
    k: int
    l: int
    capture: bool
    capture_time: Optional[int]
    placement: Optional[tuple[int, ...]]
    states: int


def limited_capture_solve(
    g: Graph,
    k: int,
    l: int,
    observe_after_cop_move: bool = True,
    state_budget: Optional[int] = None,
) -> LimitedCaptureResult:
    """Capture with sight radius l: the searchers only know the set of
    vertices the evader could occupy, refined by sightings.

    A game state is (positions, candidate set).  One round: searchers step
    jointly, candidates under a searcher are removed as captured, the rest
    split into sighted singletons and an unseen remainder (the mid-round
    split is governed by ``observe_after_cop_move``), each part grows by one
    evader step avoiding searchers, then splits again by sight.  Searchers
    win from a state if some joint step makes every resulting branch a win;
    branches with no surviving candidates are immediate wins.

    Capture_time is the worst-case number of rounds under optimal play by
    both sides (evader picks worst branch), minimized over placements.
    """
    if k < 1:
        raise BadParamError("need at least one searcher")
    if l < 0:
        raise BadParamError("sight radius must be >= 0")
    _check_game_graph(g, _CLEAN_MAX_N)
    budget = _budget(state_budget)
    n = g.n
    full = (1 << n) - 1
    cfgs, _, sights, succs = _config_tables(g, k, l)
    occ = [_occ_mask(c) for c in cfgs]
    t0, t1, t2, t3 = _nor_tables(g)

    def split(mask, sight):
        parts = []
        vis = mask & sight
        while vis:
            low = vis & -vis
            parts.append(low)
            vis ^= low
        inv = mask & ~sight
        if inv:
            parts.append(inv)
        return parts

    def expand(mask, occ2):
        nb = (
            t0[mask & 255] | t1[(mask >> 8) & 255]
            | t2[(mask >> 16) & 255] | t3[(mask >> 24) & 255]
        )
        return (mask | nb) & ~occ2

    # forward exploration
    state_id: dict[int, int] = {}
    id_state: list[int] = []
    moves_of: list[list[list[int]]] = []   # per state, per move, successor ids
    stack = []

    def intern(c2, piece):
        key = c2 << n | piece
        sid = state_id.get(key)
        if sid is None:
            sid = len(id_state)
            if sid >= budget:
                raise TooLargeError(
                    f"candidate-set space exceeds budget {budget}", partial=None
                )
            state_id[key] = sid
            id_state.append(key)
            moves_of.append([])
            stack.append(sid)
        return sid

    init_pieces = [
        [intern(ci, p) for p in split(full & ~occ[ci], sights[ci])]
        for ci in range(len(cfgs))
    ]

    while stack:
        sid = stack.pop()
        key = id_state[sid]
        c, S = key >> n, key & full
        mvs = []
        for c2 in succs[c]:
            o2 = occ[c2]
            s2 = sights[c2]
            S0 = S & ~o2
            if S0 == 0:
                mvs.append([])
                continue
            mid = split(S0, s2) if observe_after_cop_move else [S0]
            branch_ids = set()
            for piece in mid:
                grown = expand(piece, o2)
                for part in split(grown, s2):
                    branch_ids.add(intern(c2, part))
            mvs.append(sorted(branch_ids))
        moves_of[sid] = mvs

    nstates = len(id_state)

    # least fixpoint with round counts: a state wins iff some move has all
    # branches winning; buckets resolve states in increasing round count
    rev: list[list[tuple[int, int]]] = [[] for _ in range(nstates)]
    counters = []
    mtime = [NONE] * nstates
    buckets: dict[int, list[int]] = {}
    for sid, mvs in enumerate(moves_of):
        counters.append([len(branch) for branch in mvs])
        for mi, branch in enumerate(mvs):
            for b in branch:
                rev[b].append((sid, mi))
        if any(not branch for branch in mvs):
            mtime[sid] = 1
            buckets.setdefault(1, []).append(sid)
    while buckets:
        val = min(buckets)
        for sid in buckets.pop(val):
            for psid, mi in rev[sid]:
                if mtime[psid] != NONE:
                    continue
                counters[psid][mi] -= 1
                if counters[psid][mi] == 0:
                    mtime[psid] = val + 1
                    buckets.setdefault(val + 1, []).append(psid)

    best_time = None
    best_cfg = None
    for ci, pieces in enumerate(init_pieces):
        times = [mtime[p] for p in pieces]
        if NONE in times:
            continue
        t = max(times, default=0)
        if best_time is None or t < best_time:
            best_time = t
            best_cfg = cfgs[ci]
    return LimitedCaptureResult(
        k=k, l=l, capture=best_time is not None, capture_time=best_time,
        placement=best_cfg, states=nstates,
    )


def capture_possible_limited(g: Graph, k: int, l: int, **kw) -> bool:
    return limited_capture_solve(g, k, l, **kw).capture


def capture_number_limited(g: Graph, l: int, state_budget: Optional[int] = None) -> int:
    """Fewest searchers with sight l that can guarantee capture."""
    for k in range(1, g.n + 1):
        if limited_capture_solve(g, k, l, state_budget=state_budget).capture:
            return k
    raise BadParamError("unreachable: searchers on every vertex capture at placement")


def belief_capture_time(g: Graph, k: int, l: int, **kw) -> Optional[int]:
    """Worst-case rounds to capture under limited sight; None if the
    searchers cannot force capture."""
    res = limited_capture_solve(g, k, l, **kw)
    return res.capture_time if res.capture else None
