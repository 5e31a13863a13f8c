"""Whole-network structure metrics.

Path statistics are taken over ordered node pairs with a finite directed
distance; unreachable pairs are skipped rather than penalized.  A graph
with no reachable pair, whatever its node count, has undefined (None)
path statistics.  Clustering ignores edge direction.

Both run on Python ints used as bitsets over node positions (ids sorted
ascending).  Distances come from one multi-source bit-parallel BFS (Then
et al., "The More the Merrier", VLDB 2014): bit t of ``reach[v]`` is set
once target t is within the current level of v.  Each level's newly set
bits are counted with ``int.bit_count``, so distance totals are exact
integers and the results do not depend on how targets are split into
blocks of ``BLOCK_BITS``.  A node whose reach already holds every target
of its block cannot gain a bit, so its row is carried to the next level
without OR-ing its out-neighbours' rows.

Clustering takes each node's neighbourhood as the union of its ``out``
and ``inc`` rows.  On an undirected graph ``inc`` is ``out`` and each
row already lists the distinct neighbours, so the rows serve as the
neighbourhoods directly.  The projection is symmetric, so each projected
edge {v, u} is met from its lower end only: the common neighbours of v
and u are counted once and the count is added to both ends' link totals.
The totals are the same integers as counting from both ends.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .graph import DirectedGraph, _components

# Targets per bit-parallel sweep.  Each level holds one int of this many
# bits per node, so memory stays near n * BLOCK_BITS / 8 bytes per level.
BLOCK_BITS = 4096


class NetworkSummary(NamedTuple):
    node_count: int
    edge_count: int
    average_path_length: float | None  # None: no pair is reachable
    average_clustering: float
    diameter: int | None
    component_count: int


class SmallWorldVerdict(NamedTuple):
    sigma: float
    clustering_ratio: float
    path_length_ratio: float
    is_small_world: bool


def _block_sweep(adj: Sequence[Sequence[int]], lo: int, hi: int) -> tuple[int, int, int]:
    """Distance total, reached-pair count and deepest level for targets lo..hi-1."""
    reach = [0] * len(adj)
    for t in range(lo, hi):
        reach[t] = 1 << (t - lo)
    seen = hi - lo
    full = (1 << seen) - 1
    total = pairs = depth = 0
    while True:
        nxt = []
        for r, outs in zip(reach, adj):
            if r != full:
                for w in outs:
                    r |= reach[w]
            nxt.append(r)
        count = sum(map(int.bit_count, nxt))
        gained = count - seen
        if not gained:
            return total, pairs, depth
        depth += 1
        total += depth * gained
        pairs += gained
        seen = count
        reach = nxt


def _distance_stats(g: DirectedGraph) -> tuple[float | None, int | None]:
    """Average finite pairwise distance and diameter, in one sweep; None if no pair is reached."""
    adj = g.out
    total = pairs = diam = 0
    for lo in range(0, len(adj), BLOCK_BITS):
        t, p, d = _block_sweep(adj, lo, min(lo + BLOCK_BITS, len(adj)))
        total += t
        pairs += p
        diam = max(diam, d)
    return (total / pairs, diam) if pairs else (None, None)


def local_clustering(g: DirectedGraph) -> dict[int, float]:
    """Per-node clustering coefficient on the undirected projection.

    For a node with k projected neighbors and T edges among them the
    coefficient is 2T / (k (k - 1)); nodes with k < 2 score 0.
    """
    if g.node_count == 0:
        raise ValueError("empty graph")
    if g.directed:
        hoods = [tuple(set(out).union(inc)) for out, inc in zip(g.out, g.inc)]
    else:
        hoods = g.out
    masks = []
    for hood in hoods:
        mask = 0
        for u in hood:
            mask |= 1 << u
        masks.append(mask)
    links2 = [0] * len(hoods)
    for v, (hood, mask) in enumerate(zip(hoods, masks)):
        own = 0
        for u in hood:
            if u > v:
                common = (mask & masks[u]).bit_count()
                own += common
                links2[u] += common
        links2[v] += own
    coeffs: dict[int, float] = {}
    for n, hood, links in zip(g.ids, hoods, links2):
        k = len(hood)
        coeffs[n] = links / (k * (k - 1)) if k >= 2 else 0.0
    return coeffs


def average_clustering(g: DirectedGraph) -> float:
    """Mean local clustering coefficient over all nodes."""
    coeffs = local_clustering(g)
    return math.fsum(coeffs.values()) / len(coeffs)


def summarize(g: DirectedGraph) -> NetworkSummary:
    """One-row structural profile of a graph.

    An edgeless graph has no reachable pair, so its path length and
    diameter are None (undefined).
    """
    apl, diam = _distance_stats(g)
    return NetworkSummary(
        node_count=g.node_count,
        edge_count=g.edge_count,
        average_path_length=apl,
        average_clustering=average_clustering(g),
        diameter=diam,
        component_count=len(_components(g)),
    )


def small_world_sigma(actual: NetworkSummary, baseline: NetworkSummary) -> SmallWorldVerdict:
    """Compare a network against an equivalent random baseline.

    sigma = (C / C_rand) / (L / L_rand); a value above 1 marks the actual
    network as small-world (clustering excess outweighs path-length excess).
    """
    if actual.average_path_length is None or baseline.average_path_length is None:
        raise ValueError("path length is undefined: no pair is reachable")
    if baseline.average_clustering <= 0 or baseline.average_path_length <= 0:
        raise ValueError("degenerate baseline: clustering and path length must be positive")
    c_ratio = actual.average_clustering / baseline.average_clustering
    l_ratio = actual.average_path_length / baseline.average_path_length
    sigma = c_ratio / l_ratio
    return SmallWorldVerdict(
        sigma=sigma,
        clustering_ratio=c_ratio,
        path_length_ratio=l_ratio,
        is_small_world=sigma > 1.0,
    )
