"""Shared oracles and corpus builders for the test suite.

The oracles take the slow obvious route on purpose: distances by
Floyd-Warshall, betweenness by enumerating every shortest path with exact
rationals, cascades by rescanning the whole node set each day.  Fast
implementations are judged against these on seeded corpora.  The Brandes
kernel that the current one replaced is kept here too, as the reference
its rows must equal bit for bit.
"""

from __future__ import annotations

import random
import sys
from collections.abc import Iterable
from fractions import Fraction
from pathlib import Path

import pytest

from influnet import CorrelationMatrix, DirectedGraph, ingest_edge_csv

DATA_DIR = Path(__file__).parent / "data"
FIXTURE = DATA_DIR / "follows12.csv"
GOLDEN_DIR = DATA_DIR / "golden"


def load_fixture() -> DirectedGraph:
    return ingest_edge_csv(FIXTURE.read_text(encoding="utf-8")).graph


def arc_pairs(g: DirectedGraph) -> set[tuple[int, int]]:
    """Every arc as an (i, j) id pair; both directions of an undirected edge."""
    return {(g.ids[p], g.ids[q]) for p, targets in enumerate(g.out) for q in targets}


def assert_constructor_index(g: DirectedGraph, n: int) -> None:
    """Undirected g on ids 0..n-1 is the graph, index and all, the validating constructor builds."""
    ref = DirectedGraph(g.edges(), nodes=range(n), directed=False)
    assert g == ref
    assert (g.pos, g.inc, g.edge_count) == (ref.pos, ref.inc, ref.edge_count)
    assert g.inc is g.out


def over_int_limit() -> str:
    """A digit string one longer than int() converts; skips the test when there is no limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit == 0:
        pytest.skip("int() has no digit limit here")
    return "7" * (limit + 1)


def followees(g: DirectedGraph, v: int) -> list[int]:
    """The ids that v follows."""
    return [g.ids[q] for q in g.out[g.pos[v]]]


def followers(g: DirectedGraph, v: int) -> list[int]:
    """The ids that follow v."""
    return [g.ids[p] for p in g.inc[g.pos[v]]]


def cell(m: CorrelationMatrix, row: str, col: str) -> float | None:
    """The coefficient of two named columns."""
    return m.values[m.labels.index(row)][m.labels.index(col)]


def random_digraph(rng: random.Random, n: int, p: float) -> DirectedGraph:
    edges = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and rng.random() < p
    ]
    return DirectedGraph(edges, nodes=range(n))


def random_strongly_connected(rng: random.Random, n: int, extra: int) -> DirectedGraph:
    """Hamiltonian cycle over a random order, one aperiodicity chord, extras.

    The chord closes a cycle of length n - 1, so cycle lengths n and n - 1
    coexist and the graph is aperiodic; power iteration cannot oscillate.
    """
    order = list(range(n))
    rng.shuffle(order)
    edges = {(order[i], order[(i + 1) % n]) for i in range(n)}
    if n >= 3:
        edges.add((order[0], order[2]))
    for _ in range(extra):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            edges.add((i, j))
    return DirectedGraph(edges, nodes=range(n))



def layered_bipartite(widths: list[int], gap: int = 1) -> DirectedGraph:
    """Complete bipartite arcs between consecutive layers; ids spaced by gap.

    Each layer multiplies the number of shortest paths through it by its
    width, so path counts grow fast.
    """
    layers, nxt = [], 0
    for w in widths:
        layers.append([gap * (nxt + k) for k in range(w)])
        nxt += w
    edges = [(u, v) for a, b in zip(layers, layers[1:]) for u in a for v in b]
    return DirectedGraph(edges)

def fw_distances(g: DirectedGraph) -> dict[tuple[int, int], int]:
    """All-pairs distances by Floyd-Warshall; unreachable pairs absent."""
    ids = sorted(g.nodes)
    inf = float("inf")
    dist = {(i, j): (0 if i == j else inf) for i in ids for j in ids}
    for i, j in arc_pairs(g):
        dist[(i, j)] = 1
    for k in ids:
        for i in ids:
            dik = dist[(i, k)]
            if dik == inf:
                continue
            for j in ids:
                alt = dik + dist[(k, j)]
                if alt < dist[(i, j)]:
                    dist[(i, j)] = alt
    return {
        (i, j): int(d)
        for (i, j), d in dist.items()
        if i != j and d != inf
    }


def fw_path_stats(g: DirectedGraph) -> tuple[float | None, int | None]:
    """Average finite path length and diameter from the Floyd-Warshall table.

    Both are None when no pair is reachable.
    """
    dists = fw_distances(g)
    if not dists:
        return None, None
    total = sum(dists.values())
    return total / len(dists), max(dists.values())


def oracle_index(edges, nodes=(), directed: bool = True):
    """``(ids, pos, out, inc, edge_count)`` as the graph constructor should build them.

    Arcs go into one set of (i, j) tuples, every source's targets are
    sorted separately, and ``inc`` is found by scanning every ``out`` list.
    """
    arcs: set[tuple[int, int]] = set()
    node_set = set(nodes)
    for i, j in edges:
        arcs.add((i, j))
        if not directed:
            arcs.add((j, i))
        node_set.update((i, j))
    ids = tuple(sorted(node_set))
    pos = {v: k for k, v in enumerate(ids)}
    out: list[list[int]] = [[] for _ in ids]
    for i, j in arcs:
        out[pos[i]].append(pos[j])
    for targets in out:
        targets.sort()
    inc = tuple(
        tuple(p for p in range(len(ids)) if q in out[p]) for q in range(len(ids))
    )
    edge_count = len(arcs) if directed else len(arcs) // 2
    return ids, pos, tuple(map(tuple, out)), inc, edge_count


def oracle_clustering(g: DirectedGraph) -> dict[int, float]:
    """Per-node coefficients by explicitly testing every neighbor pair."""
    nbrs = {
        n: frozenset(followees(g, n)) | frozenset(followers(g, n))
        for n in g.nodes
    }
    out: dict[int, float] = {}
    for n in g.nodes:
        hood = sorted(nbrs[n])
        k = len(hood)
        if k < 2:
            out[n] = 0.0
            continue
        tri = 0
        for a in range(k):
            for b in range(a + 1, k):
                if hood[b] in nbrs[hood[a]]:
                    tri += 1
        out[n] = 2 * tri / (k * (k - 1))
    return out


def oracle_betweenness(g: DirectedGraph) -> dict[int, Fraction]:
    """Betweenness by enumerating every shortest path, in exact rationals."""
    ids = sorted(g.nodes)
    n = len(ids)
    acc = {v: Fraction(0) for v in ids}
    if n < 3:
        return acc
    for s in ids:
        dist = {s: 0}
        preds: dict[int, list[int]] = {v: [] for v in ids}
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for w in followees(g, v):
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
                    if dist[w] == dist[v] + 1:
                        preds[w].append(v)
            frontier = nxt
        for t in ids:
            if t == s or t not in dist:
                continue
            paths: list[list[int]] = []
            stack = [[t]]
            while stack:
                path = stack.pop()
                head = path[-1]
                if head == s:
                    paths.append(path)
                    continue
                for p in preds[head]:
                    stack.append(path + [p])
            share = Fraction(1, len(paths))
            for path in paths:
                for v in path[1:-1]:
                    acc[v] += share
    scale = Fraction(1, (n - 1) * (n - 2))
    return {v: acc[v] * scale for v in ids}


def reference_brandes(adj: tuple[tuple[int, ...], ...], sources: Iterable[int],
                      rows: Iterable[list[float]]) -> None:
    """Add each source's dependencies into its row, pairing them as ``zip`` does.

    The kernel ``centrality._brandes`` replaced, kept as it was: its backward
    pass rescans every arc and keeps those one level deeper.  The new
    kernel must give the same rows, bit for bit.
    """
    n = len(adj)
    # coeff[x] = (1 + delta[x]) / sigma[x]; an entry is read only for a node
    # one level deeper than the reader in the current source's BFS, and such
    # a node was written earlier in the same backward pass, so the list is
    # never reset between sources.
    coeff = [0.0] * n
    for s, acc in zip(sources, rows):
        dist = [-1] * n
        sigma = [0] * n
        dist[s] = 0
        sigma[s] = 1
        order = [s]
        for v in order:  # order grows while it is walked: a FIFO queue
            d = dist[v] + 1
            sv = sigma[v]
            for w in adj[v]:
                dw = dist[w]
                if dw < 0:
                    dist[w] = d
                    sigma[w] = sv
                    order.append(w)
                elif dw == d:
                    sigma[w] += sv
        for w in order[:0:-1]:  # reverse BFS order, source excluded
            d = dist[w] + 1
            t = 0.0
            for x in adj[w]:
                if dist[x] == d:
                    t += coeff[x]
            sw = sigma[w]
            delta = sw * t
            coeff[w] = (1.0 + delta) / sw
            acc[w] += delta


def oracle_cascade(
    g: DirectedGraph, seed: int, theta: float, max_days: int
) -> list[set[int]]:
    """Day-by-day active sets by rescanning every node against yesterday.

    A node adopts when at least one account it follows is active and the
    active fraction of the accounts it follows is at least theta.
    """
    active = {seed}
    days = [set(active)]
    for _ in range(max_days):
        newly = set()
        for v in g.nodes:
            if v in active:
                continue
            follows = followees(g, v)
            if not follows:
                continue
            hit = sum(1 for u in follows if u in active)
            if hit >= 1 and hit / len(follows) >= theta:
                newly.add(v)
        active |= newly
        days.append(set(active))
        if not newly:
            break
    return days


def follower_reachable(g: DirectedGraph, seed: int) -> set[int]:
    """Nodes reachable from the seed walking follower links outward."""
    seen = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for v in frontier:
            for w in followers(g, v):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen
