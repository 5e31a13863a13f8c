"""Seeded random graph generators."""

from __future__ import annotations

import math
import statistics

import pytest

from influnet import (
    RandomGraphSpec,
    average_clustering,
    generate,
    gnp_random,
    local_clustering,
    to_edge_csv,
    watts_strogatz,
)
from helpers import arc_pairs


def test_gnp_extremes():
    assert gnp_random(10, 0.0, 1).edge_count == 0
    assert gnp_random(10, 1.0, 1).edge_count == 45


def test_gnp_is_undirected():
    g = gnp_random(12, 0.4, 5)
    assert not g.directed
    arcs = arc_pairs(g)
    for i, j in g.edges():
        assert (j, i) in arcs


def test_gnp_seed_reproducibility():
    a = gnp_random(30, 0.3, 42)
    b = gnp_random(30, 0.3, 42)
    assert a == b
    assert to_edge_csv(a) == to_edge_csv(b)
    assert gnp_random(30, 0.3, 43) != a


def test_gnp_edge_count_tracks_expectation():
    n, p = 40, 0.2
    pairs = n * (n - 1) // 2
    counts = [gnp_random(n, p, seed).edge_count for seed in range(50)]
    mean = statistics.fmean(counts)
    se = math.sqrt(pairs * p * (1 - p) / len(counts))
    assert abs(mean - pairs * p) < 3 * se


def test_gnp_validation():
    with pytest.raises(ValueError, match="n must be"):
        gnp_random(1, 0.5, 0)
    with pytest.raises(ValueError, match="p must be"):
        gnp_random(10, 1.5, 0)


def test_ws_ring_without_rewiring():
    g = watts_strogatz(20, 4, 0.0, 0)
    assert g.edge_count == 40
    degrees = {len(g.inc[g.pos[v]]) for v in g.nodes}
    assert degrees == {4}
    # Each ring node's 4 neighbors share 3 of the 6 possible links.
    assert local_clustering(g) == {v: 0.5 for v in g.nodes}


def test_ws_rewiring_preserves_edge_count():
    for p in (0.05, 0.3, 1.0):
        g = watts_strogatz(30, 6, p, 7)
        assert g.edge_count == 90
    assert watts_strogatz(30, 6, 1.0, 7) != watts_strogatz(30, 6, 0.0, 7)


def test_ws_seed_reproducibility():
    assert watts_strogatz(25, 4, 0.2, 9) == watts_strogatz(25, 4, 0.2, 9)
    assert watts_strogatz(25, 4, 0.2, 9) != watts_strogatz(25, 4, 0.2, 10)


def test_ws_rewiring_erodes_clustering():
    ring = watts_strogatz(60, 6, 0.0, 3)
    noisy = watts_strogatz(60, 6, 0.5, 3)
    assert average_clustering(noisy) < average_clustering(ring)


def test_ws_validation():
    with pytest.raises(ValueError, match="even"):
        watts_strogatz(10, 3, 0.1, 0)
    with pytest.raises(ValueError, match="even"):
        watts_strogatz(10, 0, 0.1, 0)
    with pytest.raises(ValueError, match="smaller than n"):
        watts_strogatz(6, 6, 0.1, 0)
    with pytest.raises(ValueError, match="p_rewire"):
        watts_strogatz(10, 4, -0.2, 0)


def test_spec_dispatch():
    spec = RandomGraphSpec(model="gnp", n=15, p=0.25, rng_seed=11)
    assert generate(spec) == gnp_random(15, 0.25, 11)
    spec = RandomGraphSpec(model="watts_strogatz", n=16, p=0.1, rng_seed=2, k=4)
    assert generate(spec) == watts_strogatz(16, 4, 0.1, 2)


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown model"):
        RandomGraphSpec(model="scale_free", n=10, p=0.1, rng_seed=0)
    with pytest.raises(ValueError, match="needs k"):
        RandomGraphSpec(model="watts_strogatz", n=10, p=0.1, rng_seed=0)
