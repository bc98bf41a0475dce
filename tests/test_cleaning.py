import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from copclean import cleaning
from copclean.cleaning import (
    AFTER_CLEAN,
    AFTER_SPREAD,
    StrategyScript,
    init_state,
    run_script,
    sight,
    step,
)
from copclean.construction import ConstructionSpec, build_construction, scripted_seeing_strategy
from copclean.errors import BadParamError, IllegalMoveError, VertexRangeError
from copclean.families import cycle, path
from copclean.graphs import Graph, closed_l_neighborhood, enumerate_connected
from conftest import random_connected


def test_cycle5_walkthrough():
    # one searcher on the 5-cycle: place at 0, slide to 1
    g = cycle(5)
    s0 = init_state(g, (0,), 1)
    assert s0.gas == frozenset({2, 3})
    assert s0.t == 0 and s0.phase == AFTER_CLEAN
    after_clean, after_spread = step(g, s0, (1,), 1)
    assert after_clean.gas == frozenset({3})
    assert after_spread.gas == frozenset({3, 4})
    assert after_clean.t == after_spread.t == 1
    assert after_clean.phase == AFTER_CLEAN and after_spread.phase == AFTER_SPREAD


def test_cycle5_script_reaches_one_gas():
    g = cycle(5)
    trace = run_script(g, StrategyScript(l=1, place=(0,), turns=((1,), (2,))))
    assert trace.min_gas == 1
    assert trace.fully_cleaned_at is None
    gases = [len(s.gas) for s in trace.states if s.phase == AFTER_CLEAN]
    assert min(gases) == trace.min_gas


def test_path_sweep_cleans():
    g = path(4)
    trace = run_script(g, StrategyScript(l=1, place=(1,), turns=((2,),)))
    assert trace.fully_cleaned_at == 1
    assert trace.min_gas == 0


def test_instant_clean_at_placement():
    g = path(3)
    trace = run_script(g, StrategyScript(l=1, place=(1,), turns=()))
    assert trace.fully_cleaned_at == 0
    assert trace.min_gas == 0


def test_two_searchers_may_stack_and_cross():
    g = cycle(4)
    s0 = init_state(g, (0, 0), 1)
    assert s0.cops == (0, 0)
    s0 = init_state(g, (0, 1), 1)
    after_clean, _ = step(g, s0, (1, 0), 1)
    assert after_clean.cops == (0, 1)


def test_stay_put_is_legal():
    g = cycle(5)
    s0 = init_state(g, (0,), 1)
    after_clean, after_spread = step(g, s0, (0,), 1)
    assert after_clean.cops == (0,)
    # nothing new cleaned, gas grows back through unseen neighbors
    assert after_clean.gas == frozenset({2, 3})
    assert after_spread.gas == frozenset({2, 3})


def test_bad_moves():
    g = cycle(5)
    s0 = init_state(g, (0,), 1)
    with pytest.raises(IllegalMoveError):
        step(g, s0, (2,), 1)           # not adjacent
    with pytest.raises(IllegalMoveError):
        step(g, s0, (1, 1), 1)         # arity mismatch
    with pytest.raises(VertexRangeError):
        step(g, s0, (9,), 1)


def test_bad_init():
    g = cycle(5)
    with pytest.raises(VertexRangeError):
        init_state(g, (7,), 1)
    with pytest.raises(BadParamError):
        init_state(g, (), 1)
    with pytest.raises(BadParamError):
        init_state(g, (0,), -1)


def test_sight_union():
    g = path(6)
    assert sight(g, (0, 5), 1) == frozenset({0, 1, 4, 5})
    assert sight(g, (2,), 2) == frozenset({0, 1, 2, 3, 4})
    assert sight(g, (3,), 0) == frozenset({3})


def test_script_json_round_trip():
    s = StrategyScript(l=2, place=(4, 0), turns=((1, 3), (2, 2)))
    t = StrategyScript.from_json(s.to_json())
    assert t == s
    assert json.loads(s.to_json())["l"] == 2


def test_script_json_errors():
    with pytest.raises(BadParamError):
        StrategyScript.from_json("{not json")
    with pytest.raises(BadParamError):
        StrategyScript.from_json('{"l": 1, "place": [0]}')
    with pytest.raises(BadParamError):
        StrategyScript.from_json('{"l": 1, "place": [0], "turns": [0]}')


def test_trace_json_lines():
    g = cycle(4)
    trace = run_script(g, StrategyScript(l=1, place=(0,), turns=((1,),)))
    lines = trace.to_json_lines().strip().split("\n")
    objs = [json.loads(x) for x in lines]
    assert objs[0]["t"] == 0 and objs[0]["phase"] == AFTER_CLEAN
    assert [o["phase"] for o in objs[1:]] == [AFTER_CLEAN, AFTER_SPREAD]
    assert all(o["cops"] == sorted(o["cops"]) for o in objs)


@st.composite
def graph_and_walk(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    n = rng.randrange(2, 9)
    g = random_connected(n, rng)
    k = rng.randrange(1, 3)
    l = rng.randrange(0, 3)
    place = tuple(sorted(rng.randrange(n) for _ in range(k)))
    turns = []
    cops = place
    for _ in range(rng.randrange(0, 6)):
        targets = tuple(rng.choice([c] + list(g.neighbors(c))) for c in cops)
        turns.append(targets)
        cops = tuple(sorted(targets))
    return g, StrategyScript(l=l, place=place, turns=tuple(turns))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(graph_and_walk())
def test_step_invariants(gs):
    g, script = gs
    state = init_state(g, script.place, script.l)
    assert state.gas & sight(g, state.cops, script.l) == frozenset()
    for targets in script.turns:
        after_clean, after_spread = step(g, state, targets, script.l)
        seen = sight(g, after_clean.cops, script.l)
        # cleaning removes exactly the newly seen gas
        assert after_clean.gas == state.gas - seen
        # spread adds only unseen neighbors of surviving gas
        grown = after_spread.gas - after_clean.gas
        assert after_spread.gas >= after_clean.gas
        for v in grown:
            assert v not in seen
            assert any(w in after_clean.gas for w in g.neighbors(v))
        # and every unseen neighbour of surviving gas is gassed
        reach = set(after_clean.gas)
        for v in after_clean.gas:
            reach.update(g.neighbors(v))
        assert after_spread.gas == frozenset(reach) - seen
        state = after_spread


@settings(max_examples=80, deadline=None, derandomize=True)
@given(graph_and_walk())
def test_more_sight_never_hurts(gs):
    g, script = gs
    wider = StrategyScript(l=script.l + 1, place=script.place, turns=script.turns)
    assert run_script(g, wider).min_gas <= run_script(g, script).min_gas


@settings(max_examples=80, deadline=None, derandomize=True)
@given(graph_and_walk())
def test_parked_extra_searcher_never_hurts(gs):
    g, script = gs
    extra_place = tuple(sorted(script.place + (0,)))
    # align per-turn targets with the sorted tuple the engine tracks
    cops = script.place
    aug_cops = extra_place
    aug_turns = []
    for targets in script.turns:
        move_of = {}
        used: dict[int, list[int]] = {}
        for c, m in zip(cops, targets):
            used.setdefault(c, []).append(m)
        aug = []
        for c in aug_cops:
            if used.get(c):
                aug.append(used[c].pop())
            else:
                aug.append(c)      # the parked searcher stays
        aug_turns.append(tuple(aug))
        cops = tuple(sorted(targets))
        aug_cops = tuple(sorted(aug))
    wider = StrategyScript(l=script.l, place=extra_place, turns=tuple(aug_turns))
    assert run_script(g, wider).min_gas <= run_script(g, script).min_gas


def _referee_graphs():
    """Every class on at most six vertices, then a graph with an isolated
    vertex and the one-vertex graph: empty CSR rows and an empty ``nbrs``."""
    out = [g for n in range(1, 7) for g in enumerate_connected(n)]
    out.append(Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)]))
    out.append(Graph.from_edges(1, []))
    return out


def _random_walk(g, k, l, rng, turns=4):
    place = tuple(rng.randrange(g.n) for _ in range(k))
    cops, script = tuple(sorted(place)), []
    for _ in range(turns):
        targets = tuple(rng.choice([c] + g.neighbors(c)) for c in cops)
        script.append(targets)
        cops = tuple(sorted(targets))
    return StrategyScript(l=l, place=place, turns=tuple(script))


def _json_of_states(trace):
    return [json.dumps(s.to_dict(), sort_keys=True) for s in trace.states]


def _assert_matches_plain_sets(g, script):
    trace = run_script(g, script)
    want = oracles.plain_run_script(g, script.l, script.place, script.turns)
    assert [s.to_dict() for s in trace.states] == want
    assert trace.to_json_lines().splitlines() == _json_of_states(trace)
    cleaned = [s["gas"] for s in want if s["phase"] == AFTER_CLEAN]
    assert trace.min_gas == min(map(len, cleaned))
    assert trace.fully_cleaned_at == next((t for t, gas in enumerate(cleaned) if not gas), None)


def test_engine_matches_plain_set_steps():
    rng = random.Random(20)
    for g in _referee_graphs():
        for k in (1, 2):
            for l in (0, 1, 2):
                _assert_matches_plain_sets(g, _random_walk(g, k, l, rng))


def test_construction_scripts_match_plain_set_steps():
    cg = build_construction(ConstructionSpec(k=2, m=8))
    for cops in (1, 2):
        _assert_matches_plain_sets(cg.graph, scripted_seeing_strategy(cg, cops=cops))


def test_run_script_builds_no_set_until_asked(monkeypatch):
    # a play keeps its states as masks: neither its summary nor its JSON
    # lines build a set, and the states read afterwards agree with both
    cg = build_construction(ConstructionSpec(k=2, m=12))

    def no_set(*args):
        raise AssertionError("built a set")

    monkeypatch.setattr(cleaning, "_as_set", no_set)
    monkeypatch.setattr(cleaning, "frozenset", no_set, raising=False)
    trace = run_script(cg.graph, scripted_seeing_strategy(cg, cops=1))
    lines = trace.to_json_lines().splitlines()
    monkeypatch.undo()
    cleaned = [s for s in trace.states if s.phase == AFTER_CLEAN]
    assert trace.min_gas == min(len(s.gas) for s in cleaned) > 0
    assert trace.fully_cleaned_at is None
    assert lines == _json_of_states(trace)


def test_closed_l_neighborhood_is_the_bfs_ball():
    cg = build_construction(ConstructionSpec(k=2, m=8))
    probes = [(g, range(g.n)) for g in _referee_graphs()]
    probes.append((cg.graph, [0, 1, 300, 777, cg.hub_id(0), cg.hub_id(3)]))
    for g, vertices in probes:
        for v in vertices:
            dist = g.bfs_dist(v)
            for l in range(4):
                want = {w for w, d in enumerate(dist) if 0 <= d <= l}
                assert closed_l_neighborhood(g, v, l) == want, (g, v, l)
