"""Reference engine for the gas-cleaning process.

One searcher team with sight radius ``l`` moves on a graph whose unseen
region is filled with gas.  Per turn, in order: every searcher moves within
its closed 1-neighborhood (simultaneously), gas within sight of the new
positions is cleaned, then the remaining gas spreads one simultaneous round
into adjacent unseen vertices.  At placement (t=0) the initial sight is
cleaned and no spread happens.

States stay plain tuples and frozensets so traces can be serialized,
replayed, and eyeballed.  A step works on boolean vertex masks over the
graph's CSR arrays (``Graph.closed_ball`` for the sight,
``Graph.adjacent_to`` for the spread) and makes frozensets only for the
states it returns, so one path serves a 5-cycle and the 262,148-vertex
block graph alike.  The fast search lives in :mod:`copclean.solvers` and is
checked against this engine; ``tests/oracles.py`` keeps a plain-set step
that checks this one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BadParamError, IllegalMoveError, VertexRangeError
from .graphs import Graph

AFTER_CLEAN = "AFTER_CLEAN"
AFTER_SPREAD = "AFTER_SPREAD"


@dataclass(frozen=True)
class CleaningState:
    cops: tuple[int, ...]       # sorted positions
    gas: frozenset[int]
    t: int
    phase: str                  # AFTER_CLEAN or AFTER_SPREAD

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "phase": self.phase,
            "cops": list(self.cops),
            "gas": sorted(self.gas),
        }


@dataclass(frozen=True)
class StrategyScript:
    """A fully scripted play: placement then per-turn move targets.

    ``turns[t]`` lists one target per searcher, aligned with the sorted
    position tuple of the state being moved from.
    """

    l: int
    place: tuple[int, ...]
    turns: tuple[tuple[int, ...], ...]

    def to_json(self) -> str:
        return json.dumps(
            {"l": self.l, "place": list(self.place), "turns": [list(t) for t in self.turns]},
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "StrategyScript":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise BadParamError(f"bad strategy JSON: {e}") from None
        try:
            return StrategyScript(
                l=int(obj["l"]),
                place=tuple(int(v) for v in obj["place"]),
                turns=tuple(tuple(int(v) for v in t) for t in obj["turns"]),
            )
        except (KeyError, TypeError, ValueError) as e:
            raise BadParamError(f"bad strategy fields: {e}") from None


@dataclass(frozen=True)
class Trace:
    states: tuple[CleaningState, ...]
    min_gas: int                     # over AFTER_CLEAN snapshots
    fully_cleaned_at: Optional[int]  # first t with empty gas after cleaning

    def to_json_lines(self) -> str:
        return "\n".join(json.dumps(s.to_dict(), sort_keys=True) for s in self.states) + "\n"


def _as_set(mask: np.ndarray) -> frozenset[int]:
    return frozenset(np.flatnonzero(mask).tolist())


def sight(g: Graph, cops, l: int) -> frozenset[int]:
    return _as_set(g.closed_ball(cops, l))


def init_state(g: Graph, placements, l: int) -> CleaningState:
    if l < 0:
        raise BadParamError("sight radius must be >= 0")
    place = tuple(sorted(placements))
    if not place:
        raise BadParamError("need at least one searcher")
    for c in place:
        if not 0 <= c < g.n:
            raise VertexRangeError(f"placement {c} out of range")
    gas = _as_set(~g.closed_ball(place, l))
    return CleaningState(cops=place, gas=gas, t=0, phase=AFTER_CLEAN)


def step(g: Graph, state: CleaningState, moves, l: int):
    """Advance one turn; returns (after_clean, after_spread) states."""
    moves = tuple(moves)
    if len(moves) != len(state.cops):
        raise IllegalMoveError(f"expected {len(state.cops)} move targets, got {len(moves)}")
    for c, m in zip(state.cops, moves):
        if not 0 <= m < g.n:
            raise VertexRangeError(f"move target {m} out of range")
        if m != c and not g.adjacent(c, m):
            raise IllegalMoveError(f"searcher at {c} cannot reach {m} in one step")
    new_cops = tuple(sorted(moves))
    unseen = ~g.closed_ball(new_cops, l)
    gas = np.zeros(g.n, dtype=bool)
    gas[np.fromiter(state.gas, dtype=np.int64, count=len(state.gas))] = True
    cleaned = gas & unseen
    # cleaned is unseen already, so only its neighbours need the sight test
    spread = g.adjacent_to(cleaned)
    spread &= unseen
    spread |= cleaned
    after_clean = CleaningState(cops=new_cops, gas=_as_set(cleaned), t=state.t + 1,
                                phase=AFTER_CLEAN)
    after_spread = CleaningState(cops=new_cops, gas=_as_set(spread), t=state.t + 1,
                                 phase=AFTER_SPREAD)
    return after_clean, after_spread


def run_script(g: Graph, script: StrategyScript) -> Trace:
    state = init_state(g, script.place, script.l)
    states = [state]
    min_gas = len(state.gas)
    cleaned_at = 0 if not state.gas else None
    for targets in script.turns:
        after_clean, after_spread = step(g, state, targets, script.l)
        states.append(after_clean)
        states.append(after_spread)
        if len(after_clean.gas) < min_gas:
            min_gas = len(after_clean.gas)
        if cleaned_at is None and not after_clean.gas:
            cleaned_at = after_clean.t
        state = after_spread
    return Trace(states=tuple(states), min_gas=min_gas, fully_cleaned_at=cleaned_at)
