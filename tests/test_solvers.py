import pytest

import oracles
from copclean.cleaning import run_script
from copclean.errors import BadParamError, TooLargeError
from copclean.families import complete, cycle, heawood, path, random_tree, spider, star
from copclean.graphs import Graph, enumerate_connected, metrics
from copclean.solvers import (
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


def test_cleaning_matches_oracle_exhaustive(small_connected):
    for g in small_connected:
        for k in (1, 2):
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


def test_pursuit_zone_covers_all():
    # with enough pursuers every start is covered before the evader places
    res = pursuit_solve(path(3), 2, 1)
    assert res.capture and res.capture_time == 0


# -- limited sight capture ---------------------------------------------------------


def test_limited_capture_matches_oracle(small_connected):
    for g in small_connected:
        if g.n < 2:
            continue
        for k in (1, 2):
            for l in (0, 1):
                want = oracles.brute_limited_capture(g, k, l)
                got = limited_capture_solve(g, k, l)
                assert got.capture == want, (g.edges(), k, l)


def test_limited_capture_c4():
    assert capture_possible_limited(cycle(4), 1, 1) is False
    assert capture_possible_limited(cycle(4), 2, 1) is True
    assert capture_number_limited(cycle(4), 1) == 2
    assert capture_number_limited(cycle(5), 1) == 2


def test_full_sight_degenerates_to_pursuit():
    for n in range(2, 6):
        for g in enumerate_connected(n):
            diam = metrics(g).diameter
            for k in (1, 2):
                lc = limited_capture_solve(g, k, diam)
                pc = pursuit_solve(g, k, 0)
                assert lc.capture == pc.capture
                if lc.capture:
                    assert lc.capture_time == pc.capture_time


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
