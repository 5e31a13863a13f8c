"""Seeded synthetic follow graphs for the benchmark.

The main component grows one node at a time.  Node i makes ``ATTEMPTS``
follow attempts: with probability ``PREFERENTIAL`` the target is drawn from
the list of earlier arc heads (so popular accounts gain followers in
proportion to their follower count), otherwise it is a uniformly chosen
earlier node.  With probability ``FOLLOW_BACK`` one account that i follows
follows i back.  Every node after node 0 follows an earlier node, so the
main component is one weak component.

The remaining knobs shape the rows the program has to repair or discard:
small disjoint fringe components outside the core, repeated rows,
self-loop rows, and shuffled row order.  Only workload definitions set
them.  The generator also works out, without the program, the shape the
program should report, which the output checks compare against.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass


ATTEMPTS = 10
PREFERENTIAL = 0.7
FOLLOW_BACK = 0.3
FRINGE_SIZES = (2, 6)


@dataclass(frozen=True)
class GraphSpec:
    n: int  # main-component nodes
    fringe_fraction: float = 0.0  # fringe nodes per main node
    duplicate_fraction: float = 0.0  # repeated rows per distinct arc
    self_loop_fraction: float = 0.0  # self-loop rows per distinct arc
    shuffle: bool = False


@dataclass(frozen=True)
class FollowGraph:
    """One generated input: the CSV text plus the shape it must ingest to."""

    csv: str
    arcs: tuple[tuple[int, int], ...]  # distinct arcs, sorted
    core_nodes: int
    excluded_nodes: int
    rows: int
    rows_dropped: int

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.csv.encode()).hexdigest()

    def shape(self) -> dict:
        return {
            "rows": self.rows,
            "rows_dropped": self.rows_dropped,
            "arcs": len(self.arcs),
            "core_nodes": self.core_nodes,
            "excluded_nodes": self.excluded_nodes,
            "sha256": self.sha256,
        }


def _main_component(spec: GraphSpec, rng: random.Random) -> set[tuple[int, int]]:
    arcs: set[tuple[int, int]] = set()
    heads: list[int] = []  # one entry per arc head, for preferential picks
    for i in range(1, spec.n):
        followed: list[int] = []
        for _ in range(ATTEMPTS):
            if heads and rng.random() < PREFERENTIAL:
                j = heads[rng.randrange(len(heads))]
            else:
                j = rng.randrange(i)
            if (i, j) not in arcs:
                arcs.add((i, j))
                heads.append(j)
                followed.append(j)
        if rng.random() < FOLLOW_BACK:
            j = followed[rng.randrange(len(followed))]
            if (j, i) not in arcs:
                arcs.add((j, i))
                heads.append(i)
    return arcs


def _fringe(spec: GraphSpec, rng: random.Random) -> tuple[set[tuple[int, int]], int]:
    """Small trees of follows on fresh ids, each its own weak component."""
    target = round(spec.n * spec.fringe_fraction)
    lo, hi = FRINGE_SIZES
    arcs: set[tuple[int, int]] = set()
    nxt = spec.n
    while nxt - spec.n < target:
        size = min(rng.randint(lo, hi), max(2, target - (nxt - spec.n)))
        members = range(nxt, nxt + size)
        for k in members[1:]:
            j = rng.randrange(members.start, k)
            arcs.add((k, j))
            if rng.random() < FOLLOW_BACK:
                arcs.add((j, k))
        nxt += size
    return arcs, nxt - spec.n


def generate(spec: GraphSpec, seed: int) -> FollowGraph:
    if spec.n < 2 or not 0 <= spec.fringe_fraction < 0.5:
        raise ValueError("need n >= 2 and a fringe smaller than half the core")
    rng = random.Random(seed)
    main = _main_component(spec, rng)
    fringe, fringe_nodes = _fringe(spec, rng)
    distinct = sorted(main | fringe)
    rows = [f"{i},{j}" for i, j in distinct]
    dupes = round(len(distinct) * spec.duplicate_fraction)
    rows += [rows[rng.randrange(len(distinct))] for _ in range(dupes)]
    # Self-loops only on nodes that have arcs, so dropping them keeps the node set.
    loops = round(len(distinct) * spec.self_loop_fraction)
    for _ in range(loops):
        v = distinct[rng.randrange(len(distinct))][0]
        rows.append(f"{v},{v}")
    if spec.shuffle:
        rng.shuffle(rows)
    return FollowGraph(
        csv="i,j\n" + "\n".join(rows) + "\n",
        arcs=tuple(distinct),
        core_nodes=spec.n,
        excluded_nodes=fringe_nodes,
        rows=len(rows),
        rows_dropped=dupes + loops,
    )
