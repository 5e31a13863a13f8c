"""Seeded undirected reference graphs.

Both generators draw from ``random.Random``, whose Mersenne Twister
stream is identical on every platform, and make every random decision in
a fixed order, so a (spec, seed) pair names one reproducible graph.  Both
build sorted neighbour rows on ids 0..n-1 straight into the position index.

G(n, p) skips geometrically from one chosen pair to the next instead of
tossing a coin per pair (Batagelj & Brandes, "Efficient generation of
large random networks", Phys. Rev. E 71, 036113, 2005), so it makes
O(n + m) draws rather than n(n-1)/2.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, NamedTuple

from .graph import DirectedGraph, _from_index


def gnp_random(n: int, p: float, rng_seed: int) -> DirectedGraph:
    """Erdos-Renyi G(n, p): each unordered pair chosen with probability p.

    The pairs (i, j > i) are walked in lexicographic order.  The number of
    pairs passed over before the next chosen one is geometric, drawn as
    floor(log1p(-r) / log1p(-p)) from one uniform r, so only the chosen
    pairs and one final overshooting draw cost anything.  Each pair goes
    straight into both endpoints' position lists, which come out sorted:
    a node's lower neighbours are found in earlier rows than its higher
    ones.
    """
    _check_n(n)
    _check_prob(p, "p")
    out: list[list[int]] = [[] for _ in range(n)]
    if p == 1.0:
        # log1p(-1) is undefined; every pair is chosen.
        out = [[*range(i), *range(i + 1, n)] for i in range(n)]
    elif p > 0.0:
        draw = random.Random(rng_seed).random
        log1p = math.log1p
        log_q = log1p(-p)
        last = n * (n - 1) // 2 - 1  # flat index of the final pair (n-2, n-1)
        k = -1  # flat index of the current pair (i, j); (0, 0) stands before (0, 1)
        i = j = 0
        while True:
            skip = log1p(-draw()) / log_q
            # Compared as a float first: a tiny p makes it inf, which int() rejects.
            if skip >= last - k:
                break
            step = int(skip) + 1
            k += step
            j += step
            while j >= n:
                i += 1
                j -= n - i - 1  # row i holds the pairs (i, i+1) .. (i, n-1)
            out[i].append(j)
            out[j].append(i)
    return _from_index(dict(zip(range(n), range(n))), tuple(map(tuple, out)), directed=False)


def watts_strogatz(n: int, k: int, p_rewire: float, rng_seed: int) -> DirectedGraph:
    """Ring lattice of degree k with each edge rewired with probability p.

    Edges (i, i+j) for j = 1..k/2 are visited ring by ring; a rewired edge
    keeps endpoint i and moves the far end to a uniformly drawn node,
    redrawing on self-loops and existing edges.  Edge count stays n*k/2.
    """
    _check_n(n)
    _check_prob(p_rewire, "p_rewire")
    if k < 2 or k % 2 != 0:
        raise ValueError(f"k must be a positive even integer, got {k}")
    if k >= n:
        raise ValueError(f"k must be smaller than n, got k={k} n={n}")
    rng = random.Random(rng_seed)
    half = k // 2
    nbrs = [{(i + j) % n for j in range(-half, half + 1) if j} for i in range(n)]
    for j in range(1, half + 1):
        for i in range(n):
            old = (i + j) % n
            if rng.random() >= p_rewire:
                continue
            if len(nbrs[i]) >= n - 1:
                # i is already joined to everyone else; nothing to move to.
                continue
            if old not in nbrs[i]:
                # The lattice edge was already moved away by an earlier pass.
                continue
            w = rng.randrange(n)
            while w == i or w in nbrs[i]:
                w = rng.randrange(n)
            nbrs[i].remove(old)
            nbrs[old].remove(i)
            nbrs[i].add(w)
            nbrs[w].add(i)
    rows = tuple(map(tuple, map(sorted, nbrs)))
    return _from_index(dict(zip(range(n), range(n))), rows, directed=False)


class _SpecFields(NamedTuple):
    model: str
    n: int
    p: float
    rng_seed: int
    k: int | None = None


class RandomGraphSpec(_SpecFields):
    """Recipe naming one reproducible baseline graph.

    The model is checked however the record is built: by the constructor,
    ``_make`` or ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> RandomGraphSpec:
        self = super().__new__(cls, *args, **kwargs)
        if self.model not in ("gnp", "watts_strogatz"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.model == "watts_strogatz" and self.k is None:
            raise ValueError("watts_strogatz needs k")
        return self

    @classmethod
    def _make(cls, iterable: Iterable) -> RandomGraphSpec:
        # The inherited _make, which _replace calls, skips __new__.
        return cls(*iterable)


def generate(spec: RandomGraphSpec) -> DirectedGraph:
    """Materialize the graph a spec names."""
    if spec.model == "gnp":
        return gnp_random(spec.n, spec.p, spec.rng_seed)
    assert spec.k is not None
    return watts_strogatz(spec.n, spec.k, spec.p, spec.rng_seed)


def _check_n(n: int) -> None:
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")


def _check_prob(p: float, name: str) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {p}")
