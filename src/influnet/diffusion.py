"""Linear-threshold adoption simulation.

Influence runs opposite to the follow arrows: an account is exposed to
whatever the accounts it follows have adopted.  So the influencers of v
are its out-neighbors in the follow graph, which is exactly its in-edge
set after flipping every arc.  Days advance synchronously: each day every
inactive account adopts when the adopted fraction of the accounts it
follows reaches the threshold, judged against yesterday's state.  A node
only ever flips to active, never back.

Every cascade takes the threshold ``theta`` in [0, 1] and the day cap
``max_days``, an int >= 1, as plain arguments, checked on each call.  A
trace's score is
``spreading_score(trace.proportion_reached, trace.saturation_day)``; that
function holds the one score formula.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .graph import DirectedGraph


class _TraceFields(NamedTuple):
    seed: int
    theta: float
    active_counts: tuple[int, ...]
    population: int


class DiffusionTrace(_TraceFields):
    """Active-count history of one seeded run; index 0 is seeding day.

    The counts are checked however the record is built: by the
    constructor, ``_make`` or ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> DiffusionTrace:
        self = super().__new__(cls, *args, **kwargs)
        counts = self.active_counts
        if self.population < 1:
            raise ValueError("population must be >= 1")
        if not counts or counts[0] != 1:
            raise ValueError("a trace starts with the lone seed on day 0")
        if any(b < a for a, b in zip(counts, counts[1:])):
            raise ValueError("active counts cannot decrease")
        if counts[-1] > self.population:
            raise ValueError("active count exceeds population")
        return self

    @classmethod
    def _make(cls, iterable: Iterable) -> DiffusionTrace:
        # The inherited _make, which _replace calls, skips __new__.
        return cls(*iterable)

    @property
    def final_active(self) -> int:
        return self.active_counts[-1]

    @property
    def proportion_reached(self) -> float:
        return self.final_active / self.population

    @property
    def saturation_day(self) -> int:
        """First day on which the final active count was reached."""
        return self.active_counts.index(self.final_active)


def linear_threshold_run(
    g: DirectedGraph, seed: int, theta: float, max_days: int = 15
) -> DiffusionTrace:
    """Run one cascade from ``seed`` until a day adds nobody or ``max_days`` pass.

    A node adopts once at least one account it follows is active and the
    active fraction of the accounts it follows is at least ``theta``.
    """
    if not 0.0 <= theta <= 1.0:  # NaN fails too
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    if not isinstance(max_days, int) or isinstance(max_days, bool):
        raise ValueError(f"max_days must be an int, got {max_days!r}")
    if max_days < 1:
        raise ValueError("max_days must be >= 1")
    if seed not in g:
        raise ValueError(f"seed {seed} is not a node of the graph")
    start = g.pos[seed]
    active = {start}
    exposed: dict[int, int] = {}
    counts = [1]
    newly: Iterable[int] = (start,)
    for _ in range(max_days):
        touched: set[int] = set()
        for u in newly:
            for v in g.inc[u]:
                if v not in active:
                    exposed[v] = exposed.get(v, 0) + 1
                    touched.add(v)
        newly = [v for v in touched if exposed[v] / len(g.out[v]) >= theta]
        active.update(newly)
        counts.append(len(active))
        if not newly:
            break
    return DiffusionTrace(
        seed=seed,
        theta=theta,
        active_counts=tuple(counts),
        population=g.node_count,
    )


def spreading_score(proportion_reached: float, saturation_day: int) -> float:
    """Reach scaled against time to reach it.

    100 * proportion / max(saturation_day, 1); the floor keeps a cascade
    that never leaves its seed from dividing by zero.
    """
    if not 0.0 <= proportion_reached <= 1.0:
        raise ValueError("proportion_reached must be in [0, 1]")
    if saturation_day < 0:
        raise ValueError("saturation_day cannot be negative")
    return 100.0 * proportion_reached / max(saturation_day, 1)


DEFAULT_THETAS = (0.01, 0.05, 0.1, 0.2)


def threshold_sweep(
    g: DirectedGraph,
    seed: int,
    thetas: Sequence[float] = DEFAULT_THETAS,
    max_days: int = 15,
) -> list[DiffusionTrace]:
    """Repeat one seed's cascade across a grid of thresholds."""
    if not thetas:
        raise ValueError("thetas must be non-empty")
    return [linear_threshold_run(g, seed, t, max_days) for t in thetas]
