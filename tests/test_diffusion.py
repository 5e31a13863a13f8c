"""Threshold cascade simulation and the spreading score."""

from __future__ import annotations

import math
import random

import pytest

from influnet import (
    DiffusionTrace,
    DirectedGraph,
    full_table,
    linear_threshold_run,
    rank_candidates,
    spreading_score,
    threshold_sweep,
)
from influnet import report
from helpers import follower_reachable, oracle_cascade, random_digraph


def test_both_followers_adopt_next_day():
    g = DirectedGraph([(1, 2), (3, 2)])
    tr = linear_threshold_run(g, 2, 0.5)
    assert tr.active_counts == (1, 3, 3)
    assert tr.saturation_day == 1
    assert tr.proportion_reached == 1.0


def test_seed_with_no_followers_stalls():
    tr = linear_threshold_run(DirectedGraph([(1, 2)]), 1, 0.1)
    assert tr.active_counts == (1, 1)
    assert tr.saturation_day == 0
    assert tr.proportion_reached == 0.5
    assert spreading_score(tr.proportion_reached, tr.saturation_day) == 50.0


def test_threshold_boundary_is_inclusive():
    g = DirectedGraph([(9, 1), (9, 2)])
    assert linear_threshold_run(g, 1, 0.5).final_active == 2  # 1/2 >= 0.5 adopts
    assert linear_threshold_run(g, 1, 0.51).final_active == 1


def test_theta_one_needs_every_followee():
    g = DirectedGraph([(9, 1), (9, 2)])
    assert linear_threshold_run(g, 1, 1.0).final_active == 1
    fully = DirectedGraph([(9, 1)])
    assert linear_threshold_run(fully, 1, 1.0).final_active == 2


def test_activation_is_progressive():
    rng = random.Random(67)
    for _ in range(10):
        g = random_digraph(rng, 20, 0.15)
        seed = rng.choice(sorted(g.nodes))
        tr = linear_threshold_run(g, seed, 0.25)
        assert all(
            a <= b for a, b in zip(tr.active_counts, tr.active_counts[1:])
        )


def test_cascade_settles_within_node_count_days():
    rng = random.Random(71)
    for _ in range(10):
        g = random_digraph(rng, 12, 0.3)
        tr = linear_threshold_run(g, rng.choice(sorted(g.nodes)), 0.2, max_days=50)
        assert tr.saturation_day <= g.node_count - 1
        assert tr.active_counts[-1] == tr.active_counts[-2]


def test_max_days_caps_the_run():
    # A 6-chain of single followers spreads one hop per day.
    g = DirectedGraph([(i + 1, i) for i in range(5)])
    tr = linear_threshold_run(g, 0, 0.5, max_days=2)
    assert tr.active_counts == (1, 2, 3)
    assert tr.saturation_day == 2


def test_matches_naive_oracle():
    rng = random.Random(73)
    for _ in range(30):
        g = random_digraph(rng, rng.randint(3, 25), rng.uniform(0.05, 0.35))
        seed = rng.choice(sorted(g.nodes))
        theta = rng.choice([0.0, 0.1, 0.25, 1 / 3, 0.5, 1.0])
        tr = linear_threshold_run(g, seed, theta)
        days = oracle_cascade(g, seed, theta, 15)
        assert tr.active_counts == tuple(len(s) for s in days)


def test_zero_threshold_reaches_follower_closure():
    g = DirectedGraph([(1, 0), (2, 1), (3, 2), (4, 9), (5, 4)])
    tr = linear_threshold_run(g, 0, 0.0)
    assert tr.final_active == len(follower_reachable(g, 0))
    rng = random.Random(79)
    for _ in range(10):
        g = random_digraph(rng, 15, 0.15)
        seed = rng.choice(sorted(g.nodes))
        assert linear_threshold_run(g, seed, 0.0).final_active == len(follower_reachable(g, seed))


def test_higher_threshold_never_reaches_further():
    rng = random.Random(83)
    for _ in range(15):
        g = random_digraph(rng, 18, 0.2)
        seed = rng.choice(sorted(g.nodes))
        lo, hi = sorted((rng.random(), rng.random()))
        hi_reach = linear_threshold_run(g, seed, hi).final_active
        assert hi_reach <= linear_threshold_run(g, seed, lo).final_active


def test_rerun_is_deterministic():
    rng = random.Random(89)
    g = random_digraph(rng, 30, 0.12)
    a = linear_threshold_run(g, 0, 0.1)
    b = linear_threshold_run(g, 0, 0.1)
    assert a == b


def test_unknown_seed_rejected():
    with pytest.raises(ValueError, match="seed"):
        linear_threshold_run(DirectedGraph([(1, 2)]), 99, 0.1)


def test_config_validation():
    # Every cascade entry point checks theta (NaN included) and the day cap.
    g = DirectedGraph([(1, 2), (3, 2)])
    t = full_table(g)
    for theta, days, message in [
        (1.5, 15, "theta must be in"),
        (-0.1, 15, "theta must be in"),
        (math.nan, 15, "theta must be in"),
        (0.1, 0, "max_days must be >= 1"),
        (0.1, 2.5, "max_days must be an int"),
        (0.1, "3", "max_days must be an int"),
        (0.1, True, "max_days must be an int"),
    ]:
        with pytest.raises(ValueError, match=message):
            linear_threshold_run(g, 2, theta, days)
        with pytest.raises(ValueError, match=message):
            threshold_sweep(g, 2, [0.5, theta], days)
        with pytest.raises(ValueError, match=message):
            rank_candidates(g, [1, 2], t, theta, days)


def test_trace_validation():
    with pytest.raises(ValueError, match="seed on day 0"):
        DiffusionTrace(seed=1, theta=0.1, active_counts=(2, 3), population=5)
    with pytest.raises(ValueError, match="decrease"):
        DiffusionTrace(seed=1, theta=0.1, active_counts=(1, 3, 2), population=5)
    with pytest.raises(ValueError, match="population"):
        DiffusionTrace(seed=1, theta=0.1, active_counts=(1, 9), population=5)


def test_spreading_score_arithmetic():
    assert spreading_score(1.0, 1) == 100.0
    assert spreading_score(0.5, 5) == 10.0
    # Day 0 saturation means the seed never spread; charge one day.
    assert spreading_score(0.2, 0) == 20.0


def test_spreading_score_validation():
    with pytest.raises(ValueError):
        spreading_score(1.2, 3)
    with pytest.raises(ValueError):
        spreading_score(0.5, -1)


def test_sweep_covers_each_threshold():
    g = DirectedGraph([(1, 2), (3, 2), (4, 3)])
    traces = threshold_sweep(g, 2, thetas=(0.0, 0.5, 1.0), max_days=10)
    assert [tr.theta for tr in traces] == [0.0, 0.5, 1.0]
    assert all(tr.seed == 2 for tr in traces)


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        threshold_sweep(DirectedGraph([(1, 2)]), 1, thetas=())


def test_trace_csv_layout():
    g = DirectedGraph([(1, 2), (3, 2)])
    text = report.sweep([linear_threshold_run(g, 2, 0.5)], "csv")
    lines = text.splitlines()
    assert lines[0] == "seed,theta,day,active_count,proportion"
    assert lines[1] == "2,0.500000,0,1,0.333333"
    assert lines[-1] == "2,0.500000,2,3,1.000000"
