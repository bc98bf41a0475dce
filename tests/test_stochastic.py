import math

import pytest

from copclean.errors import BadParamError
from copclean.families import complete, cycle, path
from copclean.graphs import enumerate_connected
from copclean.solvers import cop_number
from copclean.stochastic import expected_time, monte_carlo

# the four random-movement conventions on the 5-cycle with two searchers,
# pinned from the exact value iteration
CYCLE5_GRID = {
    ("per_cop", "optimal"): 5.335714,
    ("per_cop", "uniform"): 7.110000,
    ("joint_multiset", "optimal"): 5.457143,
    ("joint_multiset", "uniform"): 7.320000,
}


def test_complete5_single_searcher_is_geometric():
    # closed neighborhood of any vertex is everything, so each round the
    # searcher lands on the evader with chance 1/5
    res = expected_time(complete(5), 1)
    assert abs(res.value - 5.0) < 1e-9
    assert res.residual <= 1e-12


def test_cycle4_needs_two():
    res = expected_time(cycle(4), 1)
    assert math.isinf(res.value)
    assert res.to_dict()["value"] == "INFINITE"
    res2 = expected_time(cycle(4), 2)
    assert math.isfinite(res2.value) and res2.value > 0


def test_cycle5_convention_grid():
    for (mm, pl), want in CYCLE5_GRID.items():
        res = expected_time(cycle(5), 2, move_model=mm, placement=pl)
        assert abs(res.value - want) < 1e-6, (mm, pl, res.value)
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
