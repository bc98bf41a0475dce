"""Reference engine for the gas-cleaning process.

One searcher team with sight radius ``l`` moves on a graph whose unseen
region is filled with gas.  Per turn, in order: every searcher moves within
its closed 1-neighborhood (simultaneously), gas within sight of the new
positions is cleaned, then the remaining gas spreads one simultaneous round
into adjacent unseen vertices.  At placement (t=0) the initial sight is
cleaned and no spread happens.

A ``CleaningState`` is plain tuples and a frozenset, so traces can be
serialized, replayed, and eyeballed.  One turn kernel, ``_turn``, works on
boolean vertex masks over the graph's CSR arrays (``Graph.closed_ball`` for
the sight, ``Graph.adjacent_to`` for the spread).  ``step`` wraps it for a
single state.  ``run_script`` carries the gas mask from turn to turn and
keeps each state packed to one bit per vertex; the states become
frozensets only when ``Trace.states`` is read, and ``to_json_lines`` writes
them without any.  So one path serves a 5-cycle and the 262,148-vertex
block graph alike.  The fast search lives in :mod:`copclean.solvers` and is
checked against this engine; ``tests/oracles.py`` keeps a plain-set step
that checks this one.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Iterator, Optional

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
        return _record(self.cops, sorted(self.gas), self.t, self.phase)


def _record(cops: tuple[int, ...], gas: list[int], t: int, phase: str) -> dict:
    """A state as ``CleaningState.to_dict`` and the trace JSON give it,
    from its sorted gas list."""
    return {"t": t, "phase": phase, "cops": list(cops), "gas": gas}


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
        return json.dumps(asdict(self), sort_keys=True)

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
    """A scripted play's states, each kept as ``(cops, packed gas, t,
    phase)``: the gas mask over the graph's ``n`` vertices,
    ``np.packbits``-ed to bytes.

    ``states`` unpacks them into ``CleaningState``s, with frozenset gas,
    on first read and keeps them; ``to_json_lines`` unpacks one state at a
    time into its JSON line and builds no set."""

    n: int
    snapshots: tuple[tuple[tuple[int, ...], bytes, int, str], ...]
    min_gas: int                     # over AFTER_CLEAN snapshots
    fully_cleaned_at: Optional[int]  # first t with empty gas after cleaning

    def _records(self) -> Iterator[tuple[tuple[int, ...], list[int], int, str]]:
        """Each state as (cops, sorted gas list, t, phase), in play order."""
        for cops, packed, t, phase in self.snapshots:
            gas = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=self.n)
            yield cops, np.flatnonzero(gas).tolist(), t, phase

    @cached_property
    def states(self) -> tuple[CleaningState, ...]:
        return tuple(CleaningState(cops=cops, gas=frozenset(gas), t=t, phase=phase)
                     for cops, gas, t, phase in self._records())

    def to_json_lines(self) -> str:
        return "".join(json.dumps(_record(*r), sort_keys=True) + "\n" for r in self._records())


def _as_set(mask: np.ndarray) -> frozenset[int]:
    return frozenset(np.flatnonzero(mask).tolist())


def sight(g: Graph, cops, l: int) -> frozenset[int]:
    return _as_set(g.closed_ball(cops, l))


def _placed(g: Graph, placements, l: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The sorted placement and its gas mask: every vertex out of sight."""
    if l < 0:
        raise BadParamError("sight radius must be >= 0")
    place = tuple(sorted(placements))
    if not place:
        raise BadParamError("need at least one searcher")
    for c in place:
        if not 0 <= c < g.n:
            raise VertexRangeError(f"placement {c} out of range")
    return place, ~g.closed_ball(place, l)


def init_state(g: Graph, placements, l: int) -> CleaningState:
    place, gas = _placed(g, placements, l)
    return CleaningState(cops=place, gas=_as_set(gas), t=0, phase=AFTER_CLEAN)


def _turn(g: Graph, gas: np.ndarray, cops, moves, l: int):
    """One turn on a gas mask: (cops after the move, gas after the clean,
    gas after the spread)."""
    moves = tuple(moves)
    if len(moves) != len(cops):
        raise IllegalMoveError(f"expected {len(cops)} move targets, got {len(moves)}")
    for c, m in zip(cops, moves):
        if not 0 <= m < g.n:
            raise VertexRangeError(f"move target {m} out of range")
        if m != c and not g.adjacent(c, m):
            raise IllegalMoveError(f"searcher at {c} cannot reach {m} in one step")
    new_cops = tuple(sorted(moves))
    unseen = ~g.closed_ball(new_cops, l)
    cleaned = gas & unseen
    # cleaned is unseen already, so only its neighbours need the sight test
    spread = g.adjacent_to(cleaned)
    spread &= unseen
    spread |= cleaned
    return new_cops, cleaned, spread


def step(g: Graph, state: CleaningState, moves, l: int):
    """Advance one turn; returns (after_clean, after_spread) states."""
    gas = np.zeros(g.n, dtype=bool)
    gas[np.fromiter(state.gas, dtype=np.int64, count=len(state.gas))] = True
    cops, cleaned, spread = _turn(g, gas, state.cops, moves, l)
    t = state.t + 1
    return (CleaningState(cops=cops, gas=_as_set(cleaned), t=t, phase=AFTER_CLEAN),
            CleaningState(cops=cops, gas=_as_set(spread), t=t, phase=AFTER_SPREAD))


def run_script(g: Graph, script: StrategyScript) -> Trace:
    cops, gas = _placed(g, script.place, script.l)
    snapshots = [(cops, np.packbits(gas).tobytes(), 0, AFTER_CLEAN)]
    min_gas = int(np.count_nonzero(gas))
    cleaned_at = 0 if not min_gas else None
    for t, targets in enumerate(script.turns, 1):
        cops, cleaned, gas = _turn(g, gas, cops, targets, script.l)
        snapshots.append((cops, np.packbits(cleaned).tobytes(), t, AFTER_CLEAN))
        snapshots.append((cops, np.packbits(gas).tobytes(), t, AFTER_SPREAD))
        left = int(np.count_nonzero(cleaned))
        min_gas = min(min_gas, left)
        if cleaned_at is None and not left:
            cleaned_at = t
    return Trace(n=g.n, snapshots=tuple(snapshots), min_gas=min_gas, fully_cleaned_at=cleaned_at)
