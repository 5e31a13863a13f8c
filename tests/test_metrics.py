"""Path statistics, clustering, summaries, and the small-world check."""

from __future__ import annotations

import functools
import math
import random

import pytest

from influnet import (
    DirectedGraph,
    gnp_random,
    NetworkSummary,
    average_clustering,
    ingest_edge_csv,
    local_clustering,
    small_world_sigma,
    summarize,
    to_edge_csv,
    watts_strogatz,
)
from influnet import metrics, report
from helpers import fw_distances, fw_path_stats, oracle_clustering, random_digraph


def test_path_stats_on_three_chain():
    g = DirectedGraph([(1, 2), (2, 3)])
    # Finite pairs: 1-2, 1-3, 2-3 with lengths 1, 2, 1.
    s = summarize(g)
    assert s.average_path_length == 4 / 3
    assert s.diameter == 2


def test_path_stats_on_directed_cycle():
    s = summarize(DirectedGraph([(1, 2), (2, 3), (3, 4), (4, 1)]))
    assert s.average_path_length == 2.0
    assert s.diameter == 3


def test_two_node_summary():
    s = summarize(DirectedGraph([(1, 2)]))
    assert s == NetworkSummary(2, 1, 1.0, 0.0, 1, 1)


def test_path_stats_need_two_nodes():
    # One node has no ordered pair, so its path statistics are undefined.
    assert metrics._distance_stats(DirectedGraph([], nodes=[1])) == (None, None)
    assert summarize(DirectedGraph([], nodes=[1])) == NetworkSummary(1, 0, None, 0.0, None, 1)


def test_no_reachable_pairs_rejected():
    # Isolated nodes reach no pair: the sweep leaves both statistics undefined.
    for nodes in ([1, 2], [1, 2, 3]):
        assert metrics._distance_stats(DirectedGraph([], nodes=nodes)) == (None, None)


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize(DirectedGraph())


def test_clustering_mutual_triangle():
    edges = [(1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1)]
    assert average_clustering(DirectedGraph(edges)) == 1.0


def test_clustering_ignores_direction():
    # One-way triangle still projects to a closed triple.
    g = DirectedGraph([(1, 2), (2, 3), (3, 1)])
    assert local_clustering(g) == {1: 1.0, 2: 1.0, 3: 1.0}


def test_clustering_star_is_zero():
    g = DirectedGraph([(1, 0), (2, 0), (3, 0)])
    assert average_clustering(g) == 0.0


def test_clustering_triangle_with_pendant():
    g = DirectedGraph([(1, 2), (2, 3), (3, 1), (4, 1)])
    coeffs = local_clustering(g)
    assert coeffs[1] == 1 / 3
    assert coeffs[2] == 1.0
    assert coeffs[3] == 1.0
    assert coeffs[4] == 0.0
    assert average_clustering(g) == pytest.approx(7 / 12, abs=1e-15)


def test_clustering_matches_pair_counting_oracle():
    rng = random.Random(23)
    for _ in range(25):
        g = random_digraph(rng, rng.randint(3, 12), 0.35)
        mine = local_clustering(g)
        ref = oracle_clustering(g)
        for v in g.nodes:
            assert mine[v] == ref[v]


def test_clustering_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(31)
    for _ in range(30):
        g = random_digraph(rng, rng.randint(3, 25), rng.choice([0.1, 0.2, 0.4]))
        projection = nx.Graph()
        projection.add_nodes_from(g.nodes)
        projection.add_edges_from(g.edges())
        assert local_clustering(g) == nx.clustering(projection)


def test_path_stats_match_floyd_warshall():
    rng = random.Random(29)
    for _ in range(25):
        g = random_digraph(rng, rng.randint(2, 10), 0.3)
        apl, diam = fw_path_stats(g)
        s = summarize(g)
        assert s.average_path_length == apl
        assert s.diameter == diam


def test_adding_edges_never_lengthens_paths():
    rng = random.Random(31)
    g = random_digraph(rng, 9, 0.25)
    before = fw_distances(g)
    arcs = set(g.edges())
    absent = [
        (i, j)
        for i in g.nodes
        for j in g.nodes
        if i != j and (i, j) not in arcs
    ]
    extra = rng.choice(absent)
    bigger = DirectedGraph([*arcs, extra], nodes=g.nodes)
    after = fw_distances(bigger)
    for pair, d in before.items():
        assert after[pair] <= d


def test_summary_survives_round_trip():
    rng = random.Random(37)
    g = random_digraph(rng, 15, 0.2)
    assert summarize(ingest_edge_csv(to_edge_csv(g)).graph) == summarize(g)


def test_block_size_does_not_change_results(monkeypatch):
    rng = random.Random(41)
    g = random_digraph(rng, 20, 0.15)
    whole = summarize(g)
    monkeypatch.setattr(metrics, "BLOCK_BITS", 3)
    assert summarize(g) == whole


@pytest.mark.parametrize("block", [4, metrics.BLOCK_BITS])
def test_path_stats_equal_floyd_warshall_across_blocks(monkeypatch, block):
    # With block 4, n runs from below one block to several blocks.
    monkeypatch.setattr(metrics, "BLOCK_BITS", block)
    rng = random.Random(43)
    for n in list(range(2, 14)) * 3:
        g = random_digraph(rng, n, rng.choice((0.1, 0.2, 0.4)))
        assert metrics._distance_stats(g) == fw_path_stats(g)


def test_path_stats_skip_unreachable_isolated_and_sparse_ids(monkeypatch):
    monkeypatch.setattr(metrics, "BLOCK_BITS", 2)
    # Two one-way chains with gapped ids, a mutual pair, and isolated nodes.
    g = DirectedGraph(
        [(100, 7), (7, 3000), (42, 900), (5, 6), (6, 5)], nodes=[1, 55, 8000]
    )
    apl, diam = fw_path_stats(g)
    s = summarize(g)
    assert (s.average_path_length, s.diameter) == (apl, diam)
    # Reached pairs: 100-7, 7-3000, 100-3000, 42-900, 5-6, 6-5.
    assert apl == 7 / 6
    assert diam == 2


def test_path_stats_on_undirected_baselines(monkeypatch):
    monkeypatch.setattr(metrics, "BLOCK_BITS", 8)
    graphs = [gnp_random(n, p, seed) for n, p, seed in ((12, 0.2, 1), (20, 0.15, 2), (30, 0.1, 3))]
    graphs += [watts_strogatz(n, 4, p, seed) for n, p, seed in ((12, 0.0, 4), (25, 0.2, 5))]
    for g in graphs:
        apl, diam = fw_path_stats(g)
        s = summarize(g)
        assert s.average_path_length == apl
        assert s.diameter == diam
        ref = oracle_clustering(g)
        assert local_clustering(g) == ref


def _union_find_count(g: DirectedGraph) -> int:
    """Weak components by merging the ends of every arc."""
    parent = list(range(g.node_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p, targets in enumerate(g.out):
        for q in targets:
            parent[find(p)] = find(q)
    return sum(find(x) == x for x in range(g.node_count))


@functools.cache
def _kernel_corpus():
    """Seeded graphs with their Floyd-Warshall path stats, oracle clustering and component count.

    Undirected G(n, p) and Watts-Strogatz graphs (edgeless, sparse and so
    disconnected, dense and so saturating early), a disjoint union of the
    two, and directed random graphs.
    """
    rng = random.Random(53)
    graphs = [gnp_random(2, 0.0, 0), gnp_random(60, 0.0, 0), gnp_random(2, 0.6, 1)]
    for _ in range(12):
        n = rng.randint(2, 60)
        graphs.append(gnp_random(n, rng.choice((0.02, 0.05, 0.1, 0.3, 0.6)), rng.randrange(1000)))
    for _ in range(8):
        n = rng.randint(5, 60)
        graphs.append(watts_strogatz(n, rng.choice((2, 4)), rng.choice((0.0, 0.1, 0.6)),
                                     rng.randrange(1000)))
    a, b = gnp_random(20, 0.3, 1), watts_strogatz(15, 4, 0.1, 2)
    shifted = [(i + 20, j + 20) for i, j in b.edges()]
    graphs.append(DirectedGraph([*a.edges(), *shifted], nodes=range(35), directed=False))
    for _ in range(8):
        graphs.append(random_digraph(rng, rng.randint(2, 30), rng.choice((0.05, 0.15, 0.4))))
    return [(g, fw_path_stats(g), oracle_clustering(g), _union_find_count(g)) for g in graphs]


@pytest.mark.parametrize("block", [1, 3, 8, metrics.BLOCK_BITS])
def test_structure_kernels_equal_oracles(monkeypatch, block):
    monkeypatch.setattr(metrics, "BLOCK_BITS", block)
    corpus = _kernel_corpus()
    # The corpus covers what the kernels special-case.
    assert any(not g.directed and comps > 1 for g, _, _, comps in corpus)
    assert any(g.directed for g, _, _, _ in corpus)
    for g, stats, clustering, comps in corpus:
        assert metrics._distance_stats(g) == stats
        assert local_clustering(g) == clustering
        assert summarize(g).component_count == comps


def test_saturation_is_judged_per_block(monkeypatch):
    # Paths 0-1-2 and 3-4-5-6 in blocks of three targets.  Node 0 reaches
    # all of block {0, 1, 2} at level 2, after holding only {0, 1}, and
    # never any of block {3, 4, 5}; node 6 fills block {3, 4, 5} only at
    # level 3 and holds block {6} from the start.
    monkeypatch.setattr(metrics, "BLOCK_BITS", 3)
    g = DirectedGraph([(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)], directed=False)
    # Ordered-pair distances: 8 over 6 pairs on the first path, 20 over 12 on the second.
    assert metrics._distance_stats(g) == fw_path_stats(g) == (28 / 18, 3)
    assert summarize(g).component_count == 2


def test_path_stats_errors_survive_small_blocks(monkeypatch):
    monkeypatch.setattr(metrics, "BLOCK_BITS", 1)
    assert summarize(DirectedGraph([], nodes=[4])) == NetworkSummary(1, 0, None, 0.0, None, 1)
    assert metrics._distance_stats(DirectedGraph([], nodes=[4, 9, 11])) == (None, None)


def test_clustering_with_mutual_arcs_matches_oracle():
    rng = random.Random(47)
    for _ in range(25):
        g = random_digraph(rng, rng.randint(3, 15), 0.3)
        arcs = set(g.edges())
        # Make about half the arcs mutual, so projected pairs repeat.
        arcs |= {(j, i) for i, j in sorted(arcs) if rng.random() < 0.5}
        g = DirectedGraph(sorted(arcs), nodes=g.nodes)
        assert local_clustering(g) == oracle_clustering(g)


def test_clustering_with_pendants_and_isolated_nodes_matches_oracle():
    # Each projected edge is counted from its lower position only.  A pendant
    # below its one neighbour is met from its own side, a pendant above it
    # from the neighbour's side, and isolated nodes at both ends of the id
    # range are met from neither.
    rng = random.Random(61)
    for _ in range(25):
        n = rng.randint(3, 12)
        arcs = {(i + 10, j + 10) for i, j in random_digraph(rng, n, 0.4).edges()}
        arcs.add((rng.randrange(10, 10 + n), 1))  # pendant 1 is followed
        arcs.add((100, rng.randrange(10, 10 + n)))  # pendant 100 follows
        g = DirectedGraph(sorted(arcs), nodes=[0, 1, *range(10, 10 + n), 100, 200])
        assert g.directed
        mine = local_clustering(g)
        assert mine == oracle_clustering(g)
        assert [mine[v] for v in (0, 1, 100, 200)] == [0.0] * 4


def test_sigma_is_ratio_of_ratios():
    actual = NetworkSummary(100, 400, 4.0, 0.3, 9, 1)
    base = NetworkSummary(100, 400, 2.0, 0.05, 5, 1)
    v = small_world_sigma(actual, base)
    assert v.clustering_ratio == 0.3 / 0.05
    assert v.path_length_ratio == 4.0 / 2.0
    assert v.sigma == v.clustering_ratio / v.path_length_ratio
    assert v.is_small_world


def test_sigma_against_itself_is_one():
    s = NetworkSummary(10, 20, 2.5, 0.2, 4, 1)
    v = small_world_sigma(s, s)
    assert v.sigma == 1.0
    assert not v.is_small_world


def test_sigma_rejects_degenerate_baseline():
    actual = NetworkSummary(10, 20, 2.5, 0.2, 4, 1)
    flat = NetworkSummary(10, 0, 1.0, 0.0, 1, 1)
    with pytest.raises(ValueError, match="baseline"):
        small_world_sigma(actual, flat)


def test_summary_csv_rendering():
    text = report.summary([("full", NetworkSummary(3, 2, 4 / 3, 0.0, 2, 1))], "csv")
    lines = text.splitlines()
    assert lines[0] == "network,nodes,edges,avg_path_length,avg_clustering,diameter,components"
    assert lines[1] == "full,3,2,1.333333,0.000000,2,1"
    assert text.endswith("\n")


def test_clustering_average_uses_every_node():
    # Isolated nodes count as zeros in the mean, not dropped.
    g = DirectedGraph([(1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1)], nodes=[1, 2, 3, 9])
    assert math.isclose(average_clustering(g), 3 / 4)
