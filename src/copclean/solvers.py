"""Exact game solvers.

Three engines share this module:

* ``solve_cleaning`` explores the full cleaning game (searchers vs. gas) over
  packed integer states and answers see/infer/max-clean questions, with an
  optional replayable witness script.  Every searcher placement seeds the
  search.  The thresholds ``cleanable``, ``seeing_number`` and
  ``inference_number`` are this search with ``stop_at`` set, one call per
  searcher count; it is breadth first, so their witnesses are shortest plays.
  Its inner loop, once per successor, reads one keep mask per config (the
  vertices the config leaves unseen, ``_config_tables``' unseen mask) and
  does the spread's two table lookups inline.  A successor depends only on
  the gas mask and the config moved to, so one done mask per gas mask (the
  config ranks already expanded from it) lets a state skip every move an
  earlier state with the same gas has evaluated.
* ``pursuit_solve`` is classic perfect-information pursuit with a capture
  radius, solved by backward induction over sets of evader positions: one
  vertex mask per searcher configuration and side to move, grown round by
  round (A. Berarducci and B. Intrigila, "On the cop number of a graph",
  Adv. Appl. Math. 14, 1993).  ``_pursuit`` solves that game; the
  random-searcher chain in ``stochastic`` reads the same solved game.
* ``limited_capture_solve`` handles capture under limited sight: cops track a
  set of candidate robber locations, and the game is an AND-OR reachability
  problem over (positions, candidate-set) states.  A move from ``(c, S)`` to
  config ``c2`` gets the AND node of its key ``(c2, S - occ[c2])``, one node
  per distinct key, shared by every state making such a move.  Sharing
  changes no answer: a move's branches are a function of its key alone (the
  split, the evader's spread and the second split read only ``c2`` and
  ``S - occ[c2]``), so moves with one key have one branch set, hence one
  value in the least fixpoint (won iff every branch is, in the most rounds
  of any branch).  Each OR state's successors then carry the same values as
  with a node per move, and so do its own value and round count.  The
  branches are interned when the key is first met, and a repeat key would
  only meet states already interned, so states are numbered and counted as
  with a node per move.  Each placement is one more AND node, over the
  states the evader can start from, so the same solve also gives the best
  placement's value.

  States are interned one per orbit of Aut(G), the symmetry reduction of
  model checking (C. N. Ip and D. L. Dill, "Better verification through
  symmetry", Formal Methods in System Design 9, 1996) applied to the game
  of N. E. Clarke et al. ("Limited visibility Cops and Robbers", Discrete
  Appl. Math. 2020).  An automorphism σ maps the game onto itself: the
  moves of ``(σc, σS)`` and their branches are the images of those of
  ``(c, S)``, so by induction over the rounds the two states are won in
  the same round, or neither is.  A state's canonical form is ``(c0,
  σS)``, c0 the least rank of c's orbit and σS the least image of S over
  c's coset, the σ with σc = c0; every branch is interned under its
  canonical form, and only canonical states are expanded.  Moves keep
  their raw keys, so they are shared as before, and a move's branch set
  becomes the set of its branches' canonical forms.  A canonical form
  has the value and round count of the branch it replaces, and merging
  two branches of one orbit changes neither whether every branch is won
  nor the most rounds of any, so every move and state keeps its value
  and round count in the least fixpoint.  Each placement stays its own
  move, so ``placement`` keeps its first-on-ties rule.  One intern path
  serves every branch: a raw key met first is canonicalised once, its
  canonical key looked up or given a new state, and the raw key recorded
  against that state.  A graph whose group is trivial, or larger than
  ``_AUT_CAP`` elements, keeps the raw keys, each its own canonical key:
  the trivial group is a subgroup, and any subgroup gives an exact
  quotient.  The state budget bounds states and moves together, as both
  are stored; ``states`` counts the orbit states.

Every engine, the random chain in ``stochastic`` too, enters through
``_game``, which checks the searcher count, the radius, the vertex cap and
connectivity, in that order, then resolves the state budget and counts
the configurations, C(n+k-1, k).  Pursuit and the random chain refuse a
game whose 2*C*n states exceed the budget, and limited capture one whose
C placements do, before they build any table; the cleaning search
interns every placement first, as a placement can settle its search and
its partial result reads them all.  Every engine then reads one shared
bitmask layer, where every per-configuration table is built and no
engine derives one again: ``_config_tables`` enumerates the searcher
configurations with their sight masks, the unseen masks that are their
complements, and the closed neighbourhoods.  Every ball on bit rows, a
sight mask or the one-step closure of an evader mask, comes from
``graphs._ball``.  The tables that not every call reads are built on
first read: ``_keys``, the one multiset key of a configuration and the
one key-to-rank map, which only ``_succs``, ``_joint_moves`` and
``_orbits`` read; ``_succs``, the successor ranks of each configuration,
with ``_succ_bits``, the same ranks as one mask; and ``_spread``, the
tables of the neighbour union of a vertex mask (the gas spread of the
cleaning game, the evader's step in limited-sight capture), which both
engines look up inline.  ``_spread`` serves only
these two engines, whose inner loops it speeds up: its tables hold
``2^ceil(n/2)`` entries, affordable at their cap of 26 vertices but not at
pursuit's 64.  Both searches ask for the step tables only once their
placements are in and within budget, so a sweep's ``cleanable`` that some
placement already answers, or a search whose placements alone exceed the
budget, builds none of them.  ``_joint_moves``, the successor of every
joint step in product order, is built only for the per-searcher random
chain, the one reader that weighs steps.

The layer keeps the tables of one graph: a slot holds the last ``Graph``
passed in (by identity, with a strong reference) and what was built for it.
A threshold's loop over k, or a sweep asking several questions of one
class, builds each table once.  A call on another graph empties the slot,
so the tables of at most one graph are retained: for it, the spread tables,
one set of configurations and, once read, keys and successor tables per
searcher count k, one sight table per (k, l) asked, and whether the graph
is connected; for limited capture also ``_group``, the automorphisms with
their permutation tables, and ``_orbits``, the config orbits per k.  The
tables are tuples, and the key-to-rank map a dict: callers share them, so
none may change them.

Pursuit needs no game graph: its states are (configuration, vertex)
pairs, so the won states of one configuration and side to move form one
vertex mask, and a round of backward induction is a few mask operations
per configuration.  Limited-sight capture has no such layout (its states
carry a candidate set, and a move splits it into branches), so it builds
an AND-OR graph, with states and moves numbered apart, and solves it round
by round.  A move with no branches is won in round 0; a move won in round
t wins its makers in round t+1, and they complete, in round t+1, every
move whose last branch they are.  A step adds 0 or 1 round, so the moves
of one round are one list, and the pass yields both the winning region
and the round counts.

All engines enforce explicit state budgets and raise ``TooLargeError`` with
partial results rather than running away on oversized inputs.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass
from typing import Optional

from .cleaning import StrategyScript
from .errors import BadParamError, TooLargeError
from .graphs import Graph, _ball, _mask_bits, _walk_automorphisms

_CLEAN_MAX_N = 26
_PURSUIT_MAX_N = 64
_DEFAULT_BUDGET = 5_000_000
_AUT_CAP = 512   # Heawood has 336 automorphisms and Q4 384; K7 has 5,040
_CHUNK = 8       # mask bits per permutation table: 256 entries
NONE = -1   # a round count never reached: not won


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


# -- shared precomputation ---------------------------------------------------

# the one-graph slot: a Graph (held by identity) and the tables built for it
_slot: tuple = (None, {})


def _per_graph(build):
    """Memoise ``build(g, *args)`` in the one-graph slot.  A call on the
    graph the slot holds reuses its tables; a call on any other graph
    empties the slot first, so at most one graph's tables are retained."""

    @functools.wraps(build)
    def cached(g: Graph, *args):
        global _slot
        slot = _slot   # read once: another thread may replace it meanwhile
        if slot[0] is not g:
            slot = _slot = (g, {})
        tables = slot[1]
        key = (build, *args)
        out = tables.get(key)
        if out is None:
            out = tables[key] = build(g, *args)
        return out

    return cached


@_per_graph
def _spread(g: Graph):
    """The gas-spread primitive: ``(lo, hi, h)``, two tables of at most
    ``2^ceil(n/2)`` entries from which ``lo[mask & (1 << h) - 1] |
    hi[mask >> h]`` is the union of the neighbourhoods of the vertices in
    ``mask``, one lookup per half of the vertex ids.  Callers do the two
    lookups inline, in their inner loops, rather than through a call."""
    rows = g.bit_rows
    h = (g.n + 1) // 2
    return _or_table(rows[:h]), _or_table(rows[h:]), h


def _or_table(vals) -> tuple[int, ...]:
    """``t[m]``, the union of ``vals[i]`` over the set bits i of m, for every
    m below ``2^len(vals)``.  Each value doubles the table, its new half
    the old one with that value added, so no entry is built bit by bit."""
    t = [0]
    for v in vals:
        t += [x | v for x in t]
    return tuple(t)


@_per_graph
def _configs(g: Graph, k: int):
    """Configs (multisets of k vertices) in
    ``combinations_with_replacement`` order (a config's rank is its index)
    and ``closed[v]``, v's closed neighbourhood mask.  A config's multiset
    key and the key-to-rank map live in ``_keys``, its sight and unseen
    masks in ``_config_tables``."""
    n = g.n
    rows = g.bit_rows
    closed = tuple(rows[v] | 1 << v for v in range(n))
    return tuple(itertools.combinations_with_replacement(range(n), k)), closed


@_per_graph
def _keys(g: Graph, k: int):
    """``(bit, opts, rank)``, the one multiset key of the configs: a config's
    key is the sum of ``bit[v] = 1 << v * w`` over its vertices, ``w =
    k.bit_length()`` bits per vertex count, and ``rank`` maps each key to
    its config's rank.  ``opts[v]`` lists the keys of v's closed
    neighbourhood, ascending, so the keys one joint step reaches are the
    sums of one option per searcher.  ``rank`` is a dict, and like every
    table here no caller changes it.  Built on first read: a cleaning
    search settled at placement never asks for it."""
    cfgs, closed = _configs(g, k)
    w = k.bit_length()
    bit = tuple(1 << v * w for v in range(g.n))
    opts = tuple(tuple(bit[u] for u in _mask_bits(m)) for m in closed)
    return bit, opts, {sum(bit[v] for v in cfg): i for i, cfg in enumerate(cfgs)}


@_per_graph
def _config_tables(g: Graph, k: int, l: int):
    """``(cfgs, sights, unseen, closed)``: ``_configs`` with ``sights[c]``,
    the mask the searchers of config c see with sight l, and ``unseen[c]``,
    the vertices it misses; no engine takes that complement itself."""
    cfgs, closed = _configs(g, k)
    rows = g.bit_rows
    full = (1 << g.n) - 1
    sight1 = [_ball(rows, 1 << v, l) for v in range(g.n)]
    sights = []
    for cfg in cfgs:
        s = 0
        for v in cfg:
            s |= sight1[v]
        sights.append(s)
    return cfgs, tuple(sights), tuple(full & ~s for s in sights), closed


@_per_graph
def _succs(g: Graph, k: int):
    """``succs[c]``: the ranks one joint step from config c reaches,
    ascending.  Built on first read: a search settled at placement never
    asks for it.

    Configs come in ``combinations_with_replacement`` order, so
    ``parts[j]``, the set of key sums over the first j searchers, is kept
    until the j-th vertex changes."""
    cfgs = _configs(g, k)[0]
    _, opts, rank = _keys(g, k)
    parts = [{0}] + [None] * k
    prev = (-1,) * k
    out = []
    for cfg in cfgs:
        j = 0
        while prev[j] == cfg[j]:
            j += 1
        for j in range(j, k):
            o = opts[cfg[j]]
            parts[j + 1] = {s + b for s in parts[j] for b in o}
        out.append(tuple(sorted(map(rank.__getitem__, parts[k]))))
        prev = cfg
    return tuple(out)


@_per_graph
def _succ_bits(g: Graph, k: int):
    """``succ_bits[c]``: the ranks of ``succs[c]`` as one mask, bit r set
    for each successor rank r."""
    return tuple(sum(1 << r for r in sc) for sc in _succs(g, k))


def _joint_moves(g: Graph, k: int):
    """``moves[c]``: the successor rank of each joint step from config c in
    ``itertools.product`` order over the searchers' closed neighbourhoods
    (the last searcher fastest).  Only the per-searcher random chain reads
    it, so it is built per call, not kept."""
    _, opts, rank = _keys(g, k)
    return tuple(tuple(rank[sum(p)] for p in itertools.product(*map(opts.__getitem__, cfg)))
                 for cfg in _configs(g, k)[0])


@_per_graph
def _connected(g: Graph) -> bool:
    return g.is_connected()


@_per_graph
def _group(g: Graph):
    """Aut(G) as ``(inverse, tables)`` per element σ, or ``()`` when the
    group is trivial or has more than ``_AUT_CAP`` elements (the trivial
    group is a subgroup, so its quotient is still exact).  ``tables[j][x]``
    is the image under σ of the vertices ``_CHUNK*j + i`` for the set bits
    i of x, so the image σS of a vertex mask S is the sum over the chunks j
    of ``tables[j][S >> _CHUNK*j & (1 << _CHUNK) - 1]``.

    The walk stops past ``_AUT_CAP`` elements, as complete:26 and star:25
    have 26! and 25!.  The first elements found need not form a subgroup,
    so past the cap the group is the trivial one."""
    n = g.n
    auts = list(itertools.islice(_walk_automorphisms(g.bit_rows, n), _AUT_CAP + 1))
    if not 1 < len(auts) <= _AUT_CAP:
        return ()
    out = []
    for p in auts:
        inv = [0] * n
        for v, u in enumerate(p):
            inv[u] = v
        out.append((tuple(inv), tuple(_or_table([1 << u for u in p[b:b + _CHUNK]])
                                      for b in range(0, n, _CHUNK))))
    return tuple(out)


@_per_graph
def _orbits(g: Graph, k: int):
    """The orbits of the k-searcher configs under ``_group(g)``, or ``()``
    when that is empty: ``(base, least)``, so that ``base[c] | least[c](S)``
    is the canonical key of the state (c, S), the same for every state of
    its orbit.

    Configs are met in rank order, so the first of an orbit is its least,
    c0; the rank of σc is read from the multiset keys of ``_keys``.
    ``base[d]`` is c0 shifted past the n mask bits, and ``least[d]`` maps S
    to its least image over d's coset, the σ with σd = c0: on at most
    ``_CHUNK`` vertices, one table lookup per σ."""
    group = _group(g)
    if not group:
        return ()
    n = g.n
    cfgs = _configs(g, k)[0]
    bit, _, rank = _keys(g, k)
    base = [None] * len(cfgs)
    least = [None] * len(cfgs)
    chunks = range(0, n, _CHUNK)
    cmask = (1 << _CHUNK) - 1
    at = tuple.__getitem__

    def chunked(coset):
        def image(mask):
            parts = [mask >> b & cmask for b in chunks]
            return min([sum(map(at, tables, parts)) for tables in coset])
        return image

    def one_chunk(firsts):
        def image(mask):
            return min([t[mask] for t in firsts])
        return image

    for c0, cfg in enumerate(cfgs):
        if base[c0] is None:
            cosets = {}
            for inv, tables in group:
                cosets.setdefault(rank[sum(bit[inv[v]] for v in cfg)], []).append(tables)
            for d, coset in cosets.items():
                base[d] = c0 << n
                if n > _CHUNK:
                    least[d] = chunked(coset)
                elif len(coset) == 1:
                    least[d] = coset[0][0].__getitem__
                else:
                    least[d] = one_chunk([tables[0] for tables in coset])
    return tuple(base), tuple(least)


def _game(g: Graph, k: int, radius: int, max_n: int, state_budget: Optional[int],
          who: str = "searcher", radius_kind: str = "sight"):
    """Every engine's checks, then ``(budget, C)``, C the number of k-searcher
    configurations, so that an engine can refuse before it builds any table;
    ``who`` and ``radius_kind`` name the players and the radius in messages."""
    if k < 1:
        raise BadParamError(f"need at least one {who}")
    if radius < 0:
        raise BadParamError(f"{radius_kind} radius must be >= 0")
    if g.n > max_n:
        raise TooLargeError(f"solver handles up to {max_n} vertices, got {g.n}", partial=None)
    if not _connected(g):
        raise BadParamError("solver expects a connected graph")
    return _budget(state_budget), math.comb(g.n + k - 1, k)


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


def _witness_script(cfgs, closed, parents, parent_key, final_cfg_rank, n, l) -> StrategyScript:
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
            if all(closed[s] >> t & 1 for s, t in zip(src, perm)):
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

    The successor of a state ``(c, gas)`` under a move to ``c2`` depends
    only on ``(gas, c2)``, so a second evaluation of one pair changes
    nothing: ``gas1`` and its count ``pc`` are those of the first, after
    which ``best_gas <= pc``, so neither ``best_from`` nor the ``stop_at``
    return can fire; ``key2`` is already in ``visited``, so ``states``,
    ``parents`` and the order of the next frontier stay as they are; and
    the budget check reads ``states``, so it fires at the same frontier
    key.  ``done[gas]`` holds the ranks already expanded from a gas mask, in
    an earlier level or this one, and a state expands ``succs[c]`` less
    those, in ascending rank as before.
    """
    budget, _ = _game(g, k, l, _CLEAN_MAX_N, state_budget)
    cfgs, _, keep, closed = _config_tables(g, k, l)
    n = g.n
    full = (1 << n) - 1

    visited = set()
    done = {}   # gas mask -> mask of the config ranks expanded from it
    parents = {} if witness else None

    best_gas = n + 1
    best_from = None     # (parent_key or None, cfg_rank) realizing best_gas
    states = 0
    frontier = []

    def exhausted():
        return TooLargeError(f"state budget {budget} exhausted (visited {states})",
                             partial=result(False, True))

    def result(reached, capped):
        wit = None
        if witness and best_from is not None:
            wit = _witness_script(cfgs, closed, parents, *best_from, n, l)
        return CleanSolve(
            k=k, l=l, min_gas=best_gas, max_clean=n - best_gas,
            reached_stop=None if stop_at is None else reached,
            states=states, capped=capped, witness=wit,
        )

    for ci, gas0 in enumerate(keep):
        key = ci << n | gas0     # distinct per placement, so never seen yet
        visited.add(key)
        states += 1
        if parents is not None:
            parents[key] = None
        pc = gas0.bit_count()
        if pc < best_gas:
            best_gas = pc
            best_from = (None, ci)
            if stop_at is not None and best_gas <= stop_at:
                return result(True, False)
        frontier.append(key)

    # the placements did not settle it: only now, within budget, build the
    # step tables
    if states > budget:
        raise exhausted()
    succs, succ_bits = _succs(g, k), _succ_bits(g, k)
    lo, hi, h = _spread(g)
    low = (1 << h) - 1
    while frontier:
        nxt = []
        for key in frontier:
            gas = key & full
            c = key >> n
            seen = done.get(gas)
            if seen is None:
                done[gas] = succ_bits[c]
                todo = succs[c]
            else:
                rest = succ_bits[c] & ~seen
                done[gas] = seen | rest
                todo = _mask_bits(rest)
            for c2 in todo:
                kp = keep[c2]
                gas1 = gas & kp
                pc = gas1.bit_count()
                if pc < best_gas:
                    best_gas = pc
                    best_from = (key, c2)
                    if stop_at is not None and best_gas <= stop_at:
                        return result(True, False)
                key2 = c2 << n | gas1 | (lo[gas1 & low] | hi[gas1 >> h]) & kp
                if key2 in visited:
                    continue
                visited.add(key2)
                states += 1
                if parents is not None:
                    parents[key2] = key
                nxt.append(key2)
            if states > budget:
                raise exhausted()
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


def _pursuit(g: Graph, k: int, rho: int, state_budget: Optional[int],
             who: str = "pursuer", space: str = "pursuit"):
    """The pursuit game, solved over evader-position masks: returns its
    ``_config_tables`` tables, ``won`` and ``cover``.  ``who`` and
    ``space`` name the players and the state space in messages.

    For config rank c, ``free[c]`` is the vertices outside its capture
    zone, the radius-rho sight table's unseen mask.
    Two masks per config grow round by round to their least fixpoint:
    ``won[c]``, the evader vertices from which the pursuers to move at c
    force capture within t rounds, and ``moved[c]``, those lost within t
    rounds with the evader to move after the pursuers reached c, that is
    every step in ``closed[r] & free[c]`` lies in ``won[c]``.  Round 1
    wins ``hit[c] & free[c]``, the vertices some pursuer step captures:
    ``hit`` is the radius-(rho+1) sight table, as a step within N[v] and
    then radius rho reach exactly the radius-(rho+1) ball of v.  Round
    t+1 wins ``(hit[c] | moved[c0] for every c0 in succs[c]) & free[c]``
    with the masks of round t.  Staying put is always safe for the evader,
    so captures happen only on pursuer steps.  A vertex's first round in
    ``won[c]`` is the round count of backward induction over the (config,
    vertex) states, and ``cover[c]`` is the first round at which
    ``won[c]`` equals ``free[c]`` (0 for a full zone, NONE if never): the
    worst case over the evader's placements against c.

    A round recomputes only the configs a changed ``moved[c0]`` feeds,
    ``succs[c0]`` (the step relation is symmetric), and applies the new
    masks only once all are computed, so each round reads the last one's.
    """
    budget, nc = _game(g, k, rho, _PURSUIT_MAX_N, state_budget, who, "capture")
    n = g.n
    if 2 * nc * n > budget:
        raise TooLargeError(f"{space} space 2*{nc}*{n} exceeds budget {budget}", partial=None)
    tables = _config_tables(g, k, rho)
    cfgs, _, free, _ = tables
    succs = _succs(g, k)
    rows = g.bit_rows
    hit = _config_tables(g, k, rho + 1)[1]
    won = [h & f for h, f in zip(hit, free)]
    cover = [NONE] * len(cfgs)
    moved = [0] * len(cfgs)
    fresh = list(enumerate(won))
    t = 1
    while fresh:
        changed = []
        for c, w in fresh:
            f = free[c]
            won[c] = w
            if w == f:
                cover[c] = t if f else 0
            m = f & ~_ball(rows, f & ~w, 1)
            if m != moved[c]:
                moved[c] = m
                changed.append(c)
        t += 1
        dirty = set()
        for c0 in changed:
            dirty.update(succs[c0])
        fresh = []
        for c in dirty:
            if won[c] == free[c]:
                continue
            w = hit[c]
            for c0 in succs[c]:
                w |= moved[c0]
            w &= free[c]
            if w != won[c]:
                fresh.append((c, w))
    return tables, won, cover


def pursuit_solve(g: Graph, k: int, rho: int, state_budget: Optional[int] = None) -> PursuitResult:
    """Backward induction for k pursuers catching a visible evader.

    Pursuers place first, then the evader places outside their radius-rho
    zone.  Each round all pursuers step (or stay), capture is checked, then
    the evader steps to a vertex outside the zone (staying is always safe
    for it, so mid-game forced captures cannot happen).  Capture time counts
    pursuer rounds; placement capture is time 0.
    """
    (cfgs, _, _, _), _, cover = _pursuit(g, k, rho, state_budget)
    return PursuitResult(k=k, rho=rho, **_answer(cfgs, cover), states=2 * len(cfgs) * g.n)


def _answer(cfgs, times) -> dict:
    """``capture``, ``capture_time`` and ``placement`` of a capture engine
    from ``times[c]``, the rounds placement c needs (``NONE``: not won):
    the least count wins, and the first placement wins ties."""
    best = min((t for t in times if t != NONE), default=None)
    return dict(capture=best is not None, capture_time=best,
                placement=None if best is None else cfgs[times.index(best)])


def _fewest(g: Graph, who: str, solve) -> int:
    """The fewest k in 1..n for which ``solve(k)`` captures."""
    for k in range(1, g.n + 1):
        if solve(k).capture:
            return k
    raise BadParamError(f"unreachable: {who} on every vertex capture at placement")


def reach_number(g: Graph, rho: int, state_budget: Optional[int] = None) -> int:
    """Fewest pursuers that can force themselves within distance rho of the
    evader."""
    return _fewest(g, "pursuers", lambda k: pursuit_solve(g, k, rho, state_budget))


def cop_number(g: Graph, state_budget: Optional[int] = None) -> int:
    """Fewest pursuers that can land on the evader (capture radius 0)."""
    return reach_number(g, 0, state_budget=state_budget)


# -- limited-sight capture -----------------------------------------------------


@dataclass
class LimitedCaptureResult:
    """``states`` counts the orbit states interned: (positions, candidate
    set) states that an automorphism of the graph maps onto each other are
    one state.  With a trivial group, or one past ``_AUT_CAP`` elements,
    every state is its own orbit."""
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
    budget, nc = _game(g, k, l, _CLEAN_MAX_N, state_budget)
    if nc > budget:   # each placement is a stored move
        raise TooLargeError(f"candidate-set space exceeds budget {budget}", partial=None)
    cfgs, sights, _, _ = _config_tables(g, k, l)
    n = g.n
    full = (1 << n) - 1
    free = _config_tables(g, k, 0)[2]   # sight 0 misses all but the occupied

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

    # forward exploration into the AND-OR graph, states and moves numbered
    # apart: a state is one per orbit, a move one per placement, then one
    # per distinct move key
    state_id: dict[int, int] = {}   # raw or canonical state key -> state id
    move_id: dict[int, int] = {}    # move key c2 << n | S & free[c2] -> move id
    into: list[list[int]] = []      # into[s]: the moves state s is a branch of
    need: list[int] = []            # need[a]: move a's branches not yet won
    makers: list[list[int]] = []    # makers[a]: the states that make move a
    stack = []
    orbits = _orbits(g, k)
    if orbits:
        base, least = orbits

    def intern(c2, piece):
        # a raw key met first is its orbit's state, under the canonical key
        key = c2 << n | piece
        sid = state_id.get(key)
        if sid is None:
            canon = base[c2] | least[c2](piece) if orbits else key
            sid = state_id.get(canon)
            if sid is None:
                sid = len(into)
                if sid + len(need) >= budget:
                    raise TooLargeError(f"candidate-set space exceeds budget {budget}",
                                        partial=None)
                state_id[canon] = sid
                into.append([])
                stack.append((sid, canon))
            state_id[key] = sid
        return sid

    def add_move(branches, up):
        # the budget bounds what is stored: states and moves alike
        a = len(need)
        if a + len(into) >= budget:
            raise TooLargeError(f"candidate-set space exceeds budget {budget}", partial=None)
        need.append(len(branches))
        makers.append(up)
        for b in branches:
            into[b].append(a)
        return a

    # the placements, moves 0..C-1 with no makers, are interned before any
    # step table is built, so an over-budget start builds none
    for ci in range(len(cfgs)):
        add_move({intern(ci, p) for p in split(free[ci], sights[ci])}, [])
    succs = _succs(g, k)
    lo, hi, h = _spread(g)
    low = (1 << h) - 1

    while stack:
        sid, key = stack.pop()
        c, S = key >> n, key & full
        for c2 in succs[c]:
            f2 = free[c2]
            S0 = S & f2
            mkey = c2 << n | S0
            mv = move_id.get(mkey)
            if mv is not None:
                makers[mv].append(sid)
                continue
            s2 = sights[c2]
            branch_ids = set()
            if S0:
                mid = split(S0, s2) if observe_after_cop_move else [S0]
                for piece in mid:
                    grown = (piece | lo[piece & low] | hi[piece >> h]) & f2
                    for part in split(grown, s2):
                        branch_ids.add(intern(c2, part))
            move_id[mkey] = add_move(branch_ids, [sid])

    # the least fixpoint, round by round: a move with no branches is won in
    # round 0; every move won in round t wins each of its makers not yet won
    # in round t+1, and those states complete, in round t+1, every move
    # whose last branch they are
    rounds = [NONE] * len(need)
    won = bytearray(len(into))
    moves = [a for a, m in enumerate(need) if not m]
    t = 0
    while moves:
        for a in moves:
            rounds[a] = t
        t += 1
        nxt = []
        for a in moves:
            for s in makers[a]:
                if not won[s]:
                    won[s] = 1
                    for b in into[s]:
                        need[b] -= 1
                        if not need[b]:
                            nxt.append(b)
        moves = nxt
    return LimitedCaptureResult(k=k, l=l, **_answer(cfgs, rounds[:len(cfgs)]), states=len(into))


def capture_possible_limited(g: Graph, k: int, l: int, **kw) -> bool:
    return limited_capture_solve(g, k, l, **kw).capture


def capture_number_limited(g: Graph, l: int, state_budget: Optional[int] = None) -> int:
    """Fewest searchers with sight l that can guarantee capture."""
    return _fewest(g, "searchers",
                   lambda k: limited_capture_solve(g, k, l, state_budget=state_budget))


def belief_capture_time(g: Graph, k: int, l: int, **kw) -> Optional[int]:
    """Worst-case rounds to capture under limited sight; None if the
    searchers cannot force capture."""
    res = limited_capture_solve(g, k, l, **kw)
    return res.capture_time if res.capture else None
