import itertools
import math
from collections import Counter

import numpy as np
import pytest

import oracles
from copclean import cli, stochastic
from copclean.errors import BadParamError, TooLargeError
from copclean.families import complete, cycle, path, star
from copclean.graphs import Graph, enumerate_connected, parse_graph6
from copclean.solvers import _joint_moves, _succs, cop_number
from copclean.stochastic import _RandomPursuit, expected_time, monte_carlo

# the four random-movement conventions on the 5-cycle with two searchers,
# as exact rationals
CYCLE5_GRID = {
    ("per_cop", "optimal"): 747 / 140,
    ("per_cop", "uniform"): 711 / 100,
    ("joint_multiset", "optimal"): 191 / 35,
    ("joint_multiset", "uniform"): 183 / 25,
}


def test_complete5_single_searcher_is_geometric():
    # closed neighborhood of any vertex is everything, so each round the
    # searcher lands on the evader with chance 1/5
    res = expected_time(complete(5), 1)
    assert math.isclose(res.value, 5.0, rel_tol=1e-14)
    assert res.residual <= 1e-12 * res.value


def test_cycle10_fixed_point_pinned():
    # the fixed point of the Bellman equation, which value iteration reaches
    # with tol=0 after 648 Gauss-Seidel sweeps
    res = expected_time(cycle(10), 2)
    assert math.isclose(res.value, 33.39213708881626, rel_tol=1e-13)


def test_grid3x4_fixed_point_pinned():
    edges = [(v, v + 1) for v in range(12) if v % 4 < 3] + [(v, v + 4) for v in range(8)]
    res = expected_time(Graph.from_edges(12, edges), 2)
    assert math.isclose(res.value, 270.8641088424303, rel_tol=1e-12)


def test_bellman_residual_is_rounding_noise():
    # residual is |T v - v| for the returned values, an a-posteriori check:
    # it stays at rounding level against the largest finite value
    for n in range(2, 7):
        for g in enumerate_connected(n):
            for k in (1, 2):
                for rho in (0, 1):
                    for mm in stochastic.MOVE_MODELS:
                        wc, residual, _ = _RandomPursuit(g, k, rho, mm).policy_iteration()
                        top = max((x for x in wc if math.isfinite(x)), default=0.0)
                        assert residual <= 1e-12 * top, (g.edges(), k, rho, mm)


def test_dense_solve_cap(monkeypatch, capsys):
    # C5 with k=2 has 50 states in its almost-sure region
    monkeypatch.setattr(stochastic, "_PI_MAX_STATES", 49)
    with pytest.raises(TooLargeError):
        expected_time(cycle(5), 2)
    with pytest.raises(TooLargeError):
        monte_carlo(cycle(5), 2, trials=1)
    assert cli.main(["expected-time", "--family", "cycle:5", "--k", "2", "--json"]) == 3
    assert "TOO_LARGE" in capsys.readouterr().err
    monkeypatch.setattr(stochastic, "_PI_MAX_STATES", 50)
    assert math.isclose(expected_time(cycle(5), 2).value, 747 / 140, rel_tol=1e-14)


def test_cycle4_needs_two():
    res = expected_time(cycle(4), 1)
    assert math.isinf(res.value)
    assert res.to_dict()["value"] == "INFINITE"
    res2 = expected_time(cycle(4), 2)
    assert math.isfinite(res2.value) and res2.value > 0


def test_cycle5_convention_grid():
    for (mm, pl), want in CYCLE5_GRID.items():
        res = expected_time(cycle(5), 2, move_model=mm, placement=pl)
        assert math.isclose(res.value, want, rel_tol=1e-14), (mm, pl, res.value)
    assert expected_time(cycle(5), 2, placement="optimal").placement == (0, 2)


def test_cycle5_belief_value_is_two():
    res = expected_time(cycle(5), 2, mode="belief", l=0)
    assert res.value == 2.0


def test_infinite_exactly_when_too_few(small_connected):
    for g in small_connected:
        if g.n < 2:
            continue
        c = cop_number(g)
        for k in (1, 2):
            res = expected_time(g, k)
            assert math.isinf(res.value) == (k < c), (g.edges(), k, c)


def test_sure_capture_region_matches_oracle():
    for n in range(2, 7):
        for g in enumerate_connected(n):
            for k in (1, 2):
                for rho in (0, 1):
                    chain = _RandomPursuit(g, k, rho, "per_cop")
                    got = {
                        (cfg, r): (bool(chain.finite_c[c] >> r & 1),
                                   bool(chain.evade_c[c] >> r & 1))
                        for c, cfg in enumerate(chain.cfgs)
                        for r in range(n) if not chain.zones[c] >> r & 1
                    }
                    assert got == oracles.brute_sure_capture(g, k, rho), (g.edges(), k, rho)


def test_greedy_evader_takes_lowest_infinite_option():
    # DBw is the 4-cycle 1-3-2-4 with vertex 0 pendant at 4.  One searcher
    # at 1 with capture radius 0: the evader at 0 may stay or go to 4.
    # Only 2 is provably safe there, so neither option is, and both have
    # infinite expected time; the tie goes to the lower id, 0
    g = parse_graph6("DBw")
    chain = _RandomPursuit(g, 1, 0, "per_cop")
    wc = chain.policy_iteration()[0]
    c = chain.cfgs.index((1,))
    assert chain.evade_c[c] == 1 << 2
    assert math.isinf(wc[c * g.n + 0]) and math.isinf(wc[c * g.n + 4])
    assert chain.greedy_evader(wc)[1][c * g.n + 0] == 0


def test_uniform_placement_never_beats_optimal():
    for mm in ("per_cop", "joint_multiset"):
        a = expected_time(cycle(5), 2, move_model=mm, placement="optimal")
        b = expected_time(cycle(5), 2, move_model=mm, placement="uniform")
        assert a.value <= b.value + 1e-9


def test_expected_time_argument_errors():
    g = cycle(5)
    with pytest.raises(BadParamError):
        expected_time(g, 1, mode="psychic")
    with pytest.raises(BadParamError):
        expected_time(g, 1, move_model="teleport")
    with pytest.raises(BadParamError):
        expected_time(g, 1, placement="corner")
    with pytest.raises(BadParamError):
        expected_time(g, 1, mode="belief")                 # needs l
    with pytest.raises(BadParamError):
        expected_time(g, 1, mode="belief", l=1, rho=1)
    with pytest.raises(BadParamError):
        expected_time(g, 1, mode="belief", l=1, placement="uniform")
    with pytest.raises(BadParamError):
        expected_time(g, 1, l=1)                          # random mode has no sight


def test_monte_carlo_deterministic():
    a = monte_carlo(cycle(5), 2, 0, trials=500, seed=42)
    b = monte_carlo(cycle(5), 2, 0, trials=500, seed=42)
    assert a.to_dict() == b.to_dict()
    c = monte_carlo(cycle(5), 2, 0, trials=500, seed=43)
    assert a.to_dict() != c.to_dict()


def test_monte_carlo_agrees_with_exact():
    exact = expected_time(complete(5), 1)
    mc = monte_carlo(complete(5), 1, 0, trials=20_000, seed=1)
    assert mc.captured == mc.trials
    assert abs(mc.mean_time - exact.value) <= 3 * mc.stderr
    exact = expected_time(cycle(5), 2)
    mc = monte_carlo(cycle(5), 2, 0, trials=20_000, seed=1)
    assert abs(mc.mean_time - exact.value) <= 3 * mc.stderr


@pytest.mark.parametrize("case", [(cycle(5), 2, 0, mm, pl) for mm, pl in CYCLE5_GRID]
                         + [(path(6), 1, 1, "per_cop", "uniform")])
def test_monte_carlo_agrees_under_every_convention(case):
    # the greedy evader plays the exact optimum, so the simulated mean
    # estimates the exact expected time under each move model and placement
    g, k, rho, mm, pl = case
    exact = expected_time(g, k, rho, move_model=mm, placement=pl).value
    mc = monte_carlo(g, k, rho, trials=50_000, seed=2, move_model=mm, placement=pl)
    assert mc.captured == mc.trials
    assert abs(mc.mean_time - exact) <= 4 * mc.stderr, (mc.mean_time, exact, mc.stderr)


def test_monte_carlo_rejects_negative_seed():
    with pytest.raises(BadParamError):
        monte_carlo(cycle(5), 2, trials=10, seed=-1)


def test_monte_carlo_escape_hits_horizon():
    mc = monte_carlo(cycle(4), 1, 0, trials=300, seed=5)
    assert mc.captured == 0
    assert mc.capture_frequency == 0.0
    assert mc.mean_time is None
    assert mc.horizon == 10 * 16


def test_monte_carlo_respects_horizon_override():
    mc = monte_carlo(path(4), 1, 0, trials=100, seed=2, horizon=3)
    assert mc.horizon == 3


def test_monte_carlo_rejects_short_horizon():
    for horizon in (0, -3):
        with pytest.raises(BadParamError):
            monte_carlo(path(4), 1, 0, trials=10, seed=2, horizon=horizon)


# (graph, k, rho, keyword arguments) -> (captured, mean_time, stderr); each
# call draws from one PCG64 generator seeded with its seed, so these figures
# fix every draw, and the evader's ties go by the rounding guard, not by
# solver noise
MC_STREAMS = [
    ((cycle(5), 2, 0), dict(trials=2000, seed=7),
     (2000, 5.2095, 0.14275676734330725)),
    ((cycle(5), 2, 0),
     dict(trials=2000, seed=7, move_model="joint_multiset", placement="uniform"),
     (2000, 7.1405, 0.15801855842717874)),
    ((path(6), 1, 1), dict(trials=2000, seed=3, placement="uniform"),
     (2000, 22.7855, 0.46063091004908296)),
    ((cycle(8), 2, 0), dict(trials=1000, seed=11, placement="uniform"),
     (1000, 26.475, 0.7821106520640618)),
    ((cycle(4), 1, 0), dict(trials=50, seed=5, horizon=20, placement="uniform"),
     (0, None, None)),
    ((star(3), 1, 0), dict(trials=500, seed=2, move_model="joint_multiset"),
     (500, 8.144, 0.3950578050598132)),
]


def trial_by_trial(g, k, rho, trials, seed, horizon, move_model, placement, chunk):
    """``monte_carlo``'s capture times, simulated one trial at a time in
    Python from the same draws: per chunk the placements, then per round one
    pick index per live trial in trial order.  A per_cop pick is decoded
    into one closed-neighborhood option per searcher."""
    chain = _RandomPursuit(g, k, rho, move_model)
    wc = chain.policy_iteration()[0]
    start, reply = chain.greedy_evader(wc)
    n = g.n
    rank = {cfg: i for i, cfg in enumerate(chain.cfgs)}
    opts = [[u for u in range(n) if chain.closed[v] >> u & 1] for v in range(n)]

    def step(c, pick):
        if move_model == "joint_multiset":
            return chain.succs[c][pick]
        cfg = chain.cfgs[c]
        digits = [(pick // rg.step) % len(rg) for rg in mixed_radix(chain, cfg)]
        return rank[tuple(sorted(opts[v][d] for v, d in zip(cfg, digits)))]

    rng = np.random.default_rng(seed)
    times = []
    for lo in range(0, trials, chunk):
        batch = min(chunk, trials - lo)
        if placement == "optimal":
            cs = [chain.best_placement(wc)] * batch
        else:
            cs = [rank[tuple(sorted(row))] for row in rng.integers(n, size=(batch, k)).tolist()]
        live = []
        for c in cs:
            if start[c] < 0:
                times.append(0)
            else:
                live.append((c, start[c]))
        for t in range(1, horizon + 1):
            if not live:
                break
            sizes = np.array([len(chain.move_table[c]) for c, _ in live])
            nxt = []
            for (c, r), pick in zip(live, rng.integers(sizes).tolist()):
                c = step(c, pick)
                r = reply[c * n + r]
                if r < 0:
                    times.append(t)
                else:
                    nxt.append((c, r))
            live = nxt
    return times


@pytest.mark.parametrize("case", [
    (cycle(5), 2, 0, "per_cop", "optimal", None),
    (cycle(5), 2, 0, "joint_multiset", "uniform", None),
    (path(6), 1, 1, "per_cop", "uniform", None),
    (star(3), 1, 1, "per_cop", "uniform", None),       # the hub captures at placement
    (cycle(4), 1, 0, "per_cop", "uniform", 30),         # the evader escapes
    (complete(4), 3, 0, "per_cop", "uniform", 2),       # the horizon cuts trials off
])
def test_monte_carlo_matches_trial_by_trial(monkeypatch, case):
    # a small chunk, which does not divide the trial count, runs several
    # chunks and a short last one
    g, k, rho, mm, pl, horizon = case
    monkeypatch.setattr(stochastic, "_MC_CHUNK", 37)
    res = monte_carlo(g, k, rho, trials=400, seed=6, horizon=horizon, move_model=mm,
                      placement=pl)
    times = trial_by_trial(g, k, rho, 400, 6, res.horizon, mm, pl, 37)
    assert res.captured == len(times)
    assert res.capture_frequency == len(times) / 400
    mean = sum(times) / len(times) if times else None
    assert res.mean_time == mean
    if len(times) > 1:
        var = sum((x - mean) ** 2 for x in times) / (len(times) - 1)
        assert math.isclose(res.stderr, math.sqrt(var / len(times)), rel_tol=1e-12)
    else:
        assert res.stderr is None


def test_monte_carlo_stream_pinned():
    for args, kwargs, (captured, mean, err) in MC_STREAMS:
        res = monte_carlo(*args, **kwargs)
        assert (res.captured, res.mean_time, res.stderr) == (captured, mean, err), kwargs


def mixed_radix(chain, cfg):
    """Per searcher of ``cfg``, the pick indices that choose each of its
    closed-neighborhood options: ``_joint_moves``' product order, the last
    searcher fastest."""
    sizes = [chain.closed[v].bit_count() for v in cfg]
    stride = math.prod(sizes)
    radix = []
    for size in sizes:
        stride //= size
        radix.append(range(0, size * stride, stride))
    return radix


def test_move_table_is_the_move_distribution():
    # one enumeration per config: the pick table read through its draw
    # ranges gives the sorted config of each searcher's closed-neighborhood
    # choice, and move_dist is that table's histogram
    for g, k, rho in ((cycle(5), 2, 0), (path(6), 1, 1), (complete(4), 3, 0)):
        chain = _RandomPursuit(g, k, rho, "per_cop")
        rank = {cfg: i for i, cfg in enumerate(chain.cfgs)}
        succs, moves = _succs(g, k), _joint_moves(g, k)
        opts = [sorted([v] + [u for u in range(g.n) if g.bit_rows[v] >> u & 1])
                for v in range(g.n)]
        for c, cfg in enumerate(chain.cfgs):
            table, radix = chain.move_table[c], mixed_radix(chain, cfg)
            assert table == moves[c] and list(succs[c]) == sorted(set(moves[c]))
            assert [len(rg) for rg in radix] == [len(opts[v]) for v in cfg]
            for digits in itertools.product(*(range(len(rg)) for rg in radix)):
                pick = sum(rg[d] for rg, d in zip(radix, digits))
                moved = tuple(sorted(opts[v][d] for v, d in zip(cfg, digits)))
                assert table[pick] == rank[moved]
            counts = Counter(table)
            dist = chain.move_dist[c]
            assert [c2 for c2, _ in dist] == sorted(counts)
            for c2, p in dist:
                assert math.isclose(p, counts[c2] / len(table), rel_tol=1e-12)
            assert math.isclose(sum(p for _, p in dist), 1.0, rel_tol=1e-12)
        joint = _RandomPursuit(g, k, rho, "joint_multiset")
        for c in range(joint.nc):
            succ = joint.succs[c]
            assert joint.move_table[c] == succ
            assert joint.move_dist[c] == [(c2, 1.0 / len(succ)) for c2 in succ]


def test_expected_time_matches_oracle(small_connected):
    for g in small_connected:
        for k in (1, 2):
            for rho in (0, 1):
                for mm in ("per_cop", "joint_multiset"):
                    want = oracles.brute_expected_time(g, k, rho, mm)
                    for pl in ("optimal", "uniform"):
                        got = expected_time(g, k, rho, move_model=mm, placement=pl).value
                        case = (g.edges(), k, rho, mm, pl)
                        assert math.isinf(got) == math.isinf(want[pl]), case
                        if not math.isinf(got):
                            assert math.isclose(got, want[pl], rel_tol=1e-9), case
