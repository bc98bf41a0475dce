import hashlib
import itertools
import json
import random
import re

import pytest

import oracles
from copclean import solvers
from copclean.cleaning import run_script
from copclean.errors import BadParamError, TooLargeError
from copclean.families import (complete, cycle, from_spec, grid, heawood, path, random_tree,
                               spider, star)
from copclean.graphs import Graph, _connected_graph6, enumerate_connected, metrics, parse_graph6
from copclean.solvers import (
    _config_tables,
    _joint_moves,
    _spread,
    _succ_bits,
    _succs,
    belief_capture_time,
    capture_number_limited,
    capture_possible_limited,
    cleanable,
    cop_number,
    inference_number,
    limited_capture_solve,
    max_clean,
    pursuit_solve,
    reach_number,
    seeing_number,
    solve_cleaning,
)
from copclean.stochastic import expected_time, monte_carlo


# -- cleaning thresholds -----------------------------------------------------------


def test_cycle5_values():
    c5 = cycle(5)
    assert seeing_number(c5, 1).value == 2
    assert inference_number(c5, 1, 1).value == 1
    res = max_clean(c5, 1, 1)
    assert res.max_clean == 4 and res.min_gas == 1


def test_cycle10_window():
    res = max_clean(cycle(10), 1, 1)
    assert res.max_clean == 4
    assert max_clean(path(8), 1, 1).max_clean == 8
    # the 2l+2 window law on 26 vertices, the most the cleaning search takes
    for l in (1, 2):
        assert max_clean(cycle(26), 1, l).max_clean == 2 * l + 2


def test_spread_is_neighbour_union():
    rng = random.Random(10)
    for n in range(1, 27):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        g = Graph.from_edges(n, edges)
        lo, hi, h = _spread(g)
        for _ in range(50):
            mask = rng.getrandbits(n)
            want = 0
            for v in range(n):
                if mask >> v & 1:
                    want |= g.bit_rows[v]
            assert lo[mask & (1 << h) - 1] | hi[mask >> h] == want, (n, edges, mask)


def test_config_tables_match_brute_force(small_connected):
    # the count-key successor sets against the tuple product they replace,
    # and the per-searcher joint moves in product order (last searcher
    # fastest)
    for g in small_connected:
        balls = [[u for u in range(g.n) if u == v or g.bit_rows[v] >> u & 1]
                 for v in range(g.n)]
        dist = [g.bfs_dist(v) for v in range(g.n)]
        for k in (1, 2, 3):
            moves, succs = _joint_moves(g, k), _succs(g, k)
            for l in (0, 1, 2):
                cfgs, sights, unseen, closed = _config_tables(g, k, l)
                assert cfgs == tuple(itertools.combinations_with_replacement(range(g.n), k))
                rank = {c: i for i, c in enumerate(cfgs)}
                assert closed == tuple(sum(1 << u for u in b) for b in balls)
                for c, cfg in enumerate(cfgs):
                    picks = [rank[tuple(sorted(p))]
                             for p in itertools.product(*(balls[v] for v in cfg))]
                    assert succs[c] == tuple(sorted(set(picks))), (g.edges(), k, l, cfg)
                    assert moves[c] == tuple(picks), (g.edges(), k, cfg)
                    seen = [u for u in range(g.n) if min(dist[v][u] for v in cfg) <= l]
                    assert sights[c] == sum(1 << u for u in seen)
                    assert unseen[c] == sum(1 << u for u in range(g.n) if u not in seen)


def test_tables_are_read_only():
    tables = _config_tables(cycle(5), 2, 1)
    cfgs, sights, unseen, closed = tables
    succs = _succs(cycle(5), 2)
    for table in (tables, cfgs, sights, unseen, closed, succs, succs[0],
                  _joint_moves(cycle(5), 2)[0], _succ_bits(cycle(5), 2)):
        assert isinstance(table, tuple)


def test_step_tables_built_on_first_expansion(monkeypatch):
    # two sight-1 searchers on opposite vertices of C6 see all of it, so
    # cleanable settles at placement and builds no step table; max_clean
    # then expands, and builds each table once
    g = cycle(6)
    succs, succ_bits = solvers._succs.__wrapped__, solvers._succ_bits.__wrapped__
    assert cleanable(g, 2, 1)[0]
    assert solvers._slot[0] is g
    assert not {succs, succ_bits} & {key[0] for key in solvers._slot[1]}

    builds = []

    class Recording(dict):
        def __setitem__(self, key, value):
            builds.append(key)
            super().__setitem__(key, value)

    monkeypatch.setattr(solvers, "_slot", (g, Recording(solvers._slot[1])))
    assert max_clean(g, 2, 1).max_clean == 6
    assert [key for key in builds if key[0] in (succs, succ_bits)] == [(succs, 2), (succ_bits, 2)]


def test_budget_binds_before_step_tables():
    # the 21 placements of two searchers on C6 alone pass a budget of 10,
    # and their 4 orbit states (searchers 0, 1, 2 or 3 apart) one of 3, so
    # both searches refuse before they build a step or spread table
    g = cycle(6)
    late = {solvers._succs.__wrapped__, solvers._succ_bits.__wrapped__,
            solvers._spread.__wrapped__}
    for call, msg in (
        (lambda: max_clean(g, 2, 0, state_budget=10), "state budget 10 exhausted (visited 21)"),
        (lambda: limited_capture_solve(g, 2, 0, state_budget=3),
         "candidate-set space exceeds budget 3"),
    ):
        with pytest.raises(TooLargeError, match=re.escape(msg)):
            call()
        assert solvers._slot[0] is g
        assert not late & {key[0] for key in solvers._slot[1]}


def test_budget_binds_before_config_tables():
    # three searchers on C12 have C(14, 3) = 364 configurations: pursuit and
    # the random chain refuse their 2*364*12 states, and limited capture its
    # 364 placements, against a budget of 100 before building any table
    g = cycle(12)
    tables = {solvers._configs.__wrapped__, solvers._config_tables.__wrapped__}
    for call, msg in (
        (lambda: pursuit_solve(g, 3, 0, state_budget=100),
         "pursuit space 2*364*12 exceeds budget 100"),
        (lambda: expected_time(g, 3, 0, state_budget=100),
         "chain space 2*364*12 exceeds budget 100"),
        (lambda: limited_capture_solve(g, 3, 1, state_budget=100),
         "candidate-set space exceeds budget 100"),
    ):
        with pytest.raises(TooLargeError, match=re.escape(msg)):
            call()
        assert solvers._slot[0] is g
        assert not tables & {key[0] for key in solvers._slot[1]}


def test_table_reuse_matches_cold_calls():
    # one graph's tables are kept between calls; interleaving two graphs
    # must answer as fresh copies of them do, whose tables start cold
    a, b = cycle(7), spider(3, 2)
    calls = (
        lambda g: max_clean(g, 2, 1, witness=True),
        lambda g: pursuit_solve(g, 2, 0),
        lambda g: limited_capture_solve(g, 2, 1),
        lambda g: limited_capture_solve(g, 2, 1, observe_after_cop_move=False),
        lambda g: seeing_number(g, 1, witness=True),
        lambda g: expected_time(g, 2, 0),
    )
    want = {id(g): [repr(f(Graph.from_edges(g.n, g.edges()))) for f in calls] for g in (a, b)}
    for g in (a, b, a):
        assert [repr(f(g)) for f in calls] == want[id(g)]
    for i, f in enumerate(calls):
        for g in (a, b, a):
            assert repr(f(g)) == want[id(g)][i]
    assert solvers._slot[0] is a   # only the last graph's tables are kept


def test_cleaning_matches_oracle_exhaustive(small_connected):
    for g in small_connected:
        for k in (1, 2, 3):
            for l in (1, 2):
                want = oracles.brute_clean(g, k, l)
                got = max_clean(g, k, l)
                assert (got.max_clean, got.min_gas) == want, (g.edges(), k, l)


def test_thresholds_match_oracle(small_connected):
    for g in small_connected:
        assert seeing_number(g, 1).value == oracles.brute_seeing_number(g, 1)
        for r in (1, 2):
            assert inference_number(g, 1, r).value == oracles.brute_inference_number(g, 1, r)


def test_inference_r0_is_seeing(small_connected):
    for g in small_connected[:20]:
        assert inference_number(g, 1, 0).value == seeing_number(g, 1).value


def test_inference_monotone_in_r():
    for g in list(enumerate_connected(6))[::7]:
        vals = [inference_number(g, 1, r).value for r in range(4)]
        for r in range(3):
            assert vals[r + 1] <= vals[r] <= vals[r + 1] + 1


def test_cleanable_iff_zero_gas(small_connected):
    for g in small_connected:
        ok, script, _ = cleanable(g, 1, 1, witness=True)
        assert ok == (max_clean(g, 1, 1).min_gas == 0)
        if ok:
            assert run_script(g, script).fully_cleaned_at is not None


def test_witness_replays_to_claimed_minimum(small_connected):
    for g in small_connected:
        searched = []   # states of the full-clean search for k = 1, 2, ...
        for k in (1, 2):
            res = max_clean(g, k, 1, witness=True)
            assert res.witness is not None
            trace = run_script(g, res.witness)
            assert trace.min_gas == res.min_gas
            searched.append(solve_cleaning(g, k, 1, stop_at=0).states)
            assert cleanable(g, k, 1)[2] == searched[-1]
        see = seeing_number(g, 1, witness=True)
        assert run_script(g, see.witness).fully_cleaned_at is not None
        # states counts every search run, never 0 for a found answer
        assert see.value <= 2 and see.states == sum(searched[:see.value])


def test_cleaning_outputs_pinned():
    # every field of every search, witnesses, stop_at searches and a
    # budget-capped partial included, on every class with n <= 6 and five
    # named graphs; the digest is that of a search evaluating every
    # (gas, move) pair, so skipping repeated pairs must change no byte.  The
    # budget is checked once the placements are in, so a partial whose
    # placements alone pass the budget stops there
    graphs = [g for n in range(1, 7) for g in enumerate_connected(n)]
    graphs += map(from_spec, ("cycle:12", "heawood", "petersen", "grid:3:4", "tree:16:3"))
    digest = hashlib.sha256()
    for g in graphs:
        for k in (1, 2, 3):
            for l in (0, 1, 2):
                for stop in (None, 0, 1, 2):
                    res = solve_cleaning(g, k, l, stop_at=stop, witness=True)
                    digest.update(repr(res).encode() + b"\n")
                try:
                    res = solve_cleaning(g, k, l, witness=True, state_budget=7)
                except TooLargeError as e:
                    res = e.partial
                digest.update(repr(res).encode() + b"\n")
    assert digest.hexdigest() == "16213a68f18974490260008d2e9583c43176d2e6e48227702e1c8f7b5392a184"


def test_stop_at_short_circuits():
    g = cycle(8)
    res = solve_cleaning(g, 2, 1, stop_at=0)
    assert res.reached_stop
    assert res.min_gas == 0


def test_heawood_values():
    h = heawood()
    res = max_clean(h, 2, 1)
    assert res.max_clean == 10
    assert seeing_number(h, 1).value == 3


def test_single_searcher_lower_bound():
    for g in [cycle(7), path(9), star(6), spider(3, 3), random_tree(11, 4)]:
        m = metrics(g, 1)
        assert max_clean(g, 1, 1).max_clean >= min(g.n, m.max_l_degree + 2)


def test_state_budget_partial():
    g = cycle(12)
    with pytest.raises(TooLargeError) as e:
        solve_cleaning(g, 2, 1, state_budget=30)
    partial = e.value.partial
    assert partial is not None and partial.capped
    # a certified lower bound, never an overclaim
    assert partial.max_clean <= 12
    assert partial.max_clean >= 1


def test_oversize_and_disconnected_rejected():
    big = path(27)
    with pytest.raises(TooLargeError):
        max_clean(big, 1, 1)
    split = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(BadParamError):
        max_clean(split, 1, 1)
    with pytest.raises(BadParamError):
        pursuit_solve(split, 1, 0)
    with pytest.raises(BadParamError):
        max_clean(cycle(4), 0, 1)
    with pytest.raises(BadParamError):
        cleanable(cycle(5), 2, -1)
    with pytest.raises(BadParamError):
        seeing_number(cycle(5), -1)


# every engine: (call, player, radius kind, vertex cap, message at budget 4;
# limited capture on C5 with two searchers of sight 0 has 5 orbit states)
_ENGINES = {
    "solve_cleaning": (lambda g, k, r, b: solve_cleaning(g, k, r, state_budget=b),
                       "searcher", "sight", 26, "state budget 4 exhausted (visited 15)"),
    "pursuit_solve": (lambda g, k, r, b: pursuit_solve(g, k, r, state_budget=b),
                      "pursuer", "capture", 64, "pursuit space 2*15*5 exceeds budget 4"),
    "limited_capture_solve": (lambda g, k, r, b: limited_capture_solve(g, k, r, state_budget=b),
                              "searcher", "sight", 26, "candidate-set space exceeds budget 4"),
    "expected_time": (lambda g, k, r, b: expected_time(g, k, r, state_budget=b),
                      "searcher", "capture", 64, "chain space 2*15*5 exceeds budget 4"),
    "monte_carlo": (lambda g, k, r, b: monte_carlo(g, k, r, trials=10, state_budget=b),
                    "searcher", "capture", 64, "chain space 2*15*5 exceeds budget 4"),
}


@pytest.mark.parametrize("case", ["k=0", "radius<0", "n>cap", "disconnected", "budget"])
@pytest.mark.parametrize("engine", sorted(_ENGINES))
def test_front_door_errors(engine, case):
    # the checks run in this order: each case's input is also bad in every
    # later respect (far is disconnected and above the cap)
    call, who, kind, cap, budget_msg = _ENGINES[engine]
    far = Graph.from_edges(cap + 1, [(0, 1)])
    args, err, msg = {
        "k=0": ((far, 0, -1, 10), BadParamError, f"need at least one {who}"),
        "radius<0": ((far, 2, -1, 10), BadParamError, f"{kind} radius must be >= 0"),
        "n>cap": ((far, 2, 0, 10), TooLargeError,
                  f"solver handles up to {cap} vertices, got {cap + 1}"),
        "disconnected": ((Graph.from_edges(4, [(0, 1), (2, 3)]), 2, 0, 10), BadParamError,
                         "solver expects a connected graph"),
        "budget": ((cycle(5), 2, 0, 4), TooLargeError, budget_msg),
    }[case]
    with pytest.raises(err) as e:
        call(*args)
    assert str(e.value) == msg


def test_connectivity_checked_once_per_graph(monkeypatch):
    calls = []
    is_connected = Graph.is_connected
    monkeypatch.setattr(Graph, "is_connected", lambda g: calls.append(g) or is_connected(g))
    g = cycle(5)
    assert (seeing_number(g, 1).value, cop_number(g), capture_number_limited(g, 1)) == (2, 2, 2)
    assert calls == [g]


# -- pursuit -------------------------------------------------------------------


def test_pursuit_matches_oracle(small_connected):
    for g in small_connected:
        if g.n < 2:
            continue
        for k in (1, 2):
            for rho in (0, 1):
                want = oracles.brute_pursuit_time(g, k, rho)
                res = pursuit_solve(g, k, rho)
                got = res.capture_time if res.capture else None
                assert got == want, (g.edges(), k, rho)


def test_cop_number_reference_values():
    assert cop_number(cycle(4)) == 2
    assert cop_number(cycle(3)) == 1
    assert cop_number(path(7)) == 1
    assert cop_number(complete(6)) == 1
    assert cop_number(heawood()) == 3


def test_cop_number_trees_is_one():
    for seed in range(12):
        assert cop_number(random_tree(4 + seed % 9, seed)) == 1


def test_reach_number():
    assert reach_number(cycle(4), 1) == 1
    assert reach_number(cycle(8), 0) == 2
    # the evader keeps the antipode on a long cycle, so closing to
    # distance 1 still needs two pursuers
    assert reach_number(cycle(8), 1) == 2
    assert reach_number(cycle(8), 3) == 1
    assert reach_number(complete(5), 0) == 1


def test_pursuit_capture_time_values():
    res = pursuit_solve(cycle(5), 2, 0)
    assert res.capture and res.capture_time == 1
    res = pursuit_solve(complete(4), 1, 0)
    assert res.capture and res.capture_time == 1
    # a lone pursuer on the 4-cycle never closes the gap
    res = pursuit_solve(cycle(4), 1, 0)
    assert not res.capture and res.capture_time is None


PURSUIT_PINS = {
    # (spec, k, rho): (capture_time, placement, states), None for no capture
    ("heawood", 3, 0): (2, (0, 1, 2), 15_680),
    ("petersen", 3, 0): (1, (0, 2, 6), 4_400),
    ("petersen", 2, 1): (1, (0, 0), 1_100),
    ("grid:3:3", 2, 0): (2, (0, 5), 810),
    ("cycle:7", 2, 0): (2, (0, 2), 392),
    ("cycle:9", 1, 1): (None, None, 162),
    ("cycle:40", 2, 0): (10, (0, 19), 65_600),
    ("grid:5:5", 3, 0): (3, (0, 7, 22), 146_250),
    ("grid:5:5", 2, 2): (1, (2, 17), 16_250),
}


def test_pursuit_pinned():
    for (spec, k, rho), want in PURSUIT_PINS.items():
        res = pursuit_solve(from_spec(spec), k, rho)
        assert res.capture == (want[0] is not None), spec
        assert (res.capture_time, res.placement, res.states) == want, (spec, k, rho)


def test_pursuit_zone_covers_all():
    # with enough pursuers every start is covered before the evader places
    res = pursuit_solve(path(3), 2, 1)
    assert res.capture and res.capture_time == 0


# -- limited sight capture ---------------------------------------------------------


def test_limited_capture_matches_oracle(small_connected):
    # capture, capture_time and placement against synchronous rounds over
    # plain sets: 240 small cases, then four named graphs with l=1
    cases = [(g, k, l, obs) for g in small_connected if 2 <= g.n <= 5
             for k in (1, 2) for l in (0, 1) for obs in (True, False)]
    cases += [(from_spec(spec), k, 1, True)
              for spec in ("cycle:6", "cycle:7", "grid:2:4", "petersen") for k in (1, 2)]
    assert len(cases) == 248
    for g, k, l, obs in cases:
        got = limited_capture_solve(g, k, l, observe_after_cop_move=obs)
        want = oracles.brute_limited_capture_rounds(g, k, l, observe_after_cop_move=obs)
        assert (got.capture, got.capture_time, got.placement) == want, (g.edges(), k, l, obs)


def test_limited_capture_orbits_match_oracle():
    # graphs with large automorphism groups, where most states share an
    # orbit: the orbit solve against the referee's plain-set rounds
    cube = Graph.from_edges(8, [(u, u ^ 1 << b) for u in range(8) for b in range(3)
                                if u < u ^ 1 << b])
    graphs = [from_spec(spec) for spec in ("complete:4", "complete:5", "star:4", "cycle:6",
                                           "cycle:7", "cycle:8", "petersen")] + [cube]
    assert [len(solvers._group(g)) for g in graphs] == [24, 120, 24, 12, 14, 16, 120, 48]
    states = []
    for g in graphs:
        states.append(0)
        for k, l, obs in itertools.product((1, 2), (0, 1), (True, False)):
            got = limited_capture_solve(g, k, l, observe_after_cop_move=obs)
            want = oracles.brute_limited_capture_rounds(g, k, l, observe_after_cop_move=obs)
            assert (got.capture, got.capture_time, got.placement) == want, (g.edges(), k, l, obs)
            states[-1] += got.states
    # per graph, the orbits under the whole group of the states a solve
    # without orbits reaches (counted apart, from its interned keys)
    assert states == [12, 12, 62, 46, 60, 80, 56, 48]


def test_orbit_canonical_key_matches_brute_force():
    # base[c] | least[c](S) against the least (rank(σc), σS) over the σ
    # that minimise rank(σc), with σ from the referee's automorphisms: C8
    # and the 3-cube (one chunk) over every mask, k=3 on C8 reaching
    # configs only the identity fixes; Petersen, labelled by the 2-subsets
    # of {0..4} (adjacent when disjoint) so that S5 gives its group, on two
    # chunks over a fixed sample of masks
    cube = Graph.from_edges(8, [(u, u ^ 1 << b) for u in range(8) for b in range(3)
                                if u < u ^ 1 << b])
    pairs = list(itertools.combinations(range(5), 2))
    petersen = Graph.from_edges(10, [(i, j) for i, j in itertools.combinations(range(10), 2)
                                     if not set(pairs[i]) & set(pairs[j])])
    s5 = [tuple(pairs.index(tuple(sorted(p[a] for a in pair))) for pair in pairs)
          for p in oracles.brute_automorphisms(complete(5))]
    assert sorted(s5) == sorted(set(s5)) and len(solvers._group(petersen)) == 120
    sample = random.Random(0).sample(range(1 << 10), 100)
    for g, auts, ks, masks in ((cycle(8), oracles.brute_automorphisms(cycle(8)), (1, 2, 3), None),
                               (cube, oracles.brute_automorphisms(cube), (1, 2), None),
                               (petersen, s5, (1, 2), sample)):
        n = g.n
        for k in ks:
            cfgs = solvers._configs(g, k)[0]
            base, least = solvers._orbits(g, k)
            for c, cfg in enumerate(cfgs):
                ranks = [cfgs.index(tuple(sorted(p[v] for v in cfg))) for p in auts]
                coset = [p for p, r in zip(auts, ranks) if r == min(ranks)]
                for S in masks or range(1 << n):
                    want = min(ranks) << n | min(sum(1 << p[v] for v in range(n) if S >> v & 1)
                                                 for p in coset)
                    assert base[c] | least[c](S) == want, (n, k, cfg, S)


def test_limited_capture_census_digest():
    # every connected class with n <= 6, k and l in {1, 2}, both observe
    # modes: 1,144 solves pinned by the SHA-256 of their records
    records = []
    for n in range(1, 7):
        for g6 in _connected_graph6(n):
            g = parse_graph6(g6)
            for k, l, obs in itertools.product((1, 2), (1, 2), (True, False)):
                r = limited_capture_solve(g, k, l, observe_after_cop_move=obs)
                records.append([g6, k, l, obs, r.capture, r.capture_time, r.placement, r.states])
    assert len(records) == 1144
    assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == (
        "5d87f1832bd726c783215e414487ed07897c5ad34e873853725c346c2079a3ed")


def test_limited_capture_budget_counts_moves():
    # the 4x4 grid with three sight-1 searchers interns 3,391 orbit states
    # but 70,114 moves: the budget counts both
    g = grid(4, 4)
    with pytest.raises(TooLargeError, match="candidate-set space exceeds budget 10000"):
        limited_capture_solve(g, 3, 1, state_budget=10_000)
    res = limited_capture_solve(g, 3, 1, state_budget=80_000)
    assert (res.capture_time, res.states, res.placement) == (3, 3391, (0, 1, 7))


def test_limited_capture_group_past_cap(monkeypatch):
    # complete:26 and star:25 have 26! and 25! automorphisms: the walk
    # stops one past the cap and the solve uses the trivial group, so it
    # counts every state, as without orbits
    pulled = []

    def walk(rows, n):
        for p in walk_automorphisms(rows, n):
            pulled.append(p)
            yield p

    walk_automorphisms = solvers._walk_automorphisms
    monkeypatch.setattr(solvers, "_walk_automorphisms", walk)
    for g, states in ((complete(26), 650), (star(25), 675)):
        pulled.clear()
        res = limited_capture_solve(g, 1, 1)
        assert (res.capture, res.capture_time, res.placement, res.states) == (True, 1, (0,), states)
        assert len(pulled) == solvers._AUT_CAP + 1 and solvers._group(g) == ()
    # Heawood's 336 and Q4's 384 automorphisms fall under the cap
    q4 = Graph.from_edges(16, [(u, u ^ 1 << b) for u in range(16) for b in range(4)
                               if u < u ^ 1 << b])
    assert [len(solvers._group(g)) for g in (heawood(), q4)] == [336, 384]


def test_limited_capture_c4():
    assert capture_possible_limited(cycle(4), 1, 1) is False
    assert capture_possible_limited(cycle(4), 2, 1) is True
    assert capture_number_limited(cycle(4), 1) == 2
    assert capture_number_limited(cycle(5), 1) == 2


def test_full_sight_degenerates_to_pursuit():
    cases = [(g, k) for n in range(2, 6) for g in enumerate_connected(n) for k in (1, 2)]
    # two games on more than 16 vertices, with spread tables of 2^11 and 2^12 entries
    cases += [(cycle(24), 2), (random_tree(22, 5), 1)]
    for g, k in cases:
        lc = limited_capture_solve(g, k, metrics(g).diameter)
        pc = pursuit_solve(g, k, 0)
        assert lc.capture == pc.capture
        if lc.capture:
            assert lc.capture_time == pc.capture_time


@pytest.mark.parametrize("spec, k, observe, want", [
    ("grid:3:4", 2, True, (3, 409, (0, 9))), ("grid:3:4", 2, False, (3, 573, (0, 9))),
    ("grid:3:5", 2, True, (4, 1138, (0, 11))), ("grid:3:5", 2, False, (4, 1993, (0, 11))),
    ("grid:4:4", 2, True, (5, 758, (0, 2))), ("grid:4:4", 2, False, (7, 1461, (1, 7))),
    ("petersen", 2, True, (None, 16, None)), ("petersen", 3, True, (1, 33, (0, 2, 6))),
    ("heawood", 2, True, (None, 41, None)), ("heawood", 3, True, (3, 104, (0, 0, 2))),
    ("grid:4:4", 3, True, (3, 3391, (0, 1, 7))),
], ids=[f"{g}-{mode}" for g in ("3x4", "3x5", "4x4") for mode in ("observe", "no-observe")]
    + ["petersen-k2", "petersen-k3", "heawood-k2", "heawood-k3", "4x4-k3"])
def test_limited_capture_grid_pins(spec, k, observe, want):
    # (capture_time, states, placement) with searchers of sight 1 (grids
    # row-major): states count the orbit states under Aut(G), and with the
    # placement they pin the AND-OR graph's interning order, not only the
    # game value; a None time is no capture, which still explores every
    # reachable state
    res = limited_capture_solve(from_spec(spec), k, 1, observe_after_cop_move=observe)
    assert res.capture == (want[0] is not None)
    assert (res.capture_time, res.states, res.placement) == want


def test_max_clean_grid5x5_pin():
    res = max_clean(grid(5, 5), 2, 1)
    assert (res.max_clean, res.states) == (25, 83_020)


def test_belief_capture_time_cycle5():
    assert belief_capture_time(cycle(5), 2, 0) == 2
    assert belief_capture_time(cycle(5), 2, 1) is not None
    assert belief_capture_time(cycle(4), 1, 1) is None


def test_capture_monotone_in_sight(small_connected):
    for g in small_connected[:20]:
        if g.n < 2:
            continue
        for k in (1, 2):
            if limited_capture_solve(g, k, 1).capture:
                assert limited_capture_solve(g, k, 2).capture


def test_more_pursuers_never_hurt(small_connected):
    for g in small_connected[:20]:
        if g.n < 3:
            continue
        if limited_capture_solve(g, 1, 1).capture:
            assert limited_capture_solve(g, 2, 1).capture
