"""G(n, p) by geometric skipping: extreme probabilities, the index it builds, pair frequencies."""

from __future__ import annotations

import math
from statistics import NormalDist

import pytest

from influnet import gnp_random
from helpers import assert_constructor_index


@pytest.mark.parametrize("n", [2, 3, 12, 100])
def test_p0_draws_no_pair(n):
    g = gnp_random(n, 0.0, 7)
    assert (g.node_count, g.edge_count) == (n, 0)
    assert_constructor_index(g, n)


@pytest.mark.parametrize("n", [2, 3, 12, 100])
def test_p1_chooses_every_pair(n):
    g = gnp_random(n, 1.0, 7)
    assert g.edge_count == n * (n - 1) // 2
    assert_constructor_index(g, n)


def test_subnormal_p_skips_past_the_last_pair():
    # log1p(-r) / log1p(-5e-324) overflows to inf, which int() rejects.
    for seed in range(20):
        g = gnp_random(874, 5e-324, seed)
        assert (g.node_count, g.edge_count) == (874, 0)
    assert_constructor_index(g, 874)


def test_p_just_below_1_chooses_every_pair():
    # A pair is passed over only when r is the largest double below 1.
    p = math.nextafter(1.0, 0.0)
    for seed in range(20):
        g = gnp_random(40, p, seed)
        assert g.edge_count == 40 * 39 // 2
    assert_constructor_index(g, 40)


def test_two_nodes_have_one_pair_to_choose():
    counts = [gnp_random(2, 0.5, seed).edge_count for seed in range(200)]
    assert set(counts) == {0, 1}
    for seed in range(5):
        assert_constructor_index(gnp_random(2, 0.5, seed), 2)


def test_each_pair_is_chosen_with_probability_p():
    n, p, seeds = 12, 0.3, 4000
    pairs = n * (n - 1) // 2
    # Bonferroni over the 66 pairs at a family-wise two-sided level of 1e-3.
    z_bound = NormalDist().inv_cdf(1 - 1e-3 / (2 * pairs))
    hits = {(i, j): 0 for i in range(n) for j in range(i + 1, n)}
    for seed in range(seeds):
        for edge in gnp_random(n, p, seed).edges():
            hits[edge] += 1
    sd = math.sqrt(seeds * p * (1 - p))
    worst = max(abs(h - seeds * p) / sd for h in hits.values())
    assert worst < z_bound, (worst, z_bound)
