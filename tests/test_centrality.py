"""Degree, betweenness, and eigenvector measures."""

from __future__ import annotations

import math
import random

import pytest

from influnet import (
    CentralityTable,
    ConvergenceError,
    DirectedGraph,
    betweenness_centrality,
    degree_table,
    eigenvector_centrality,
    full_table,
    top_k,
)
from influnet import report
from helpers import (
    followers, layered_bipartite, oracle_betweenness, random_digraph,
    random_strongly_connected,
)


def test_degree_table_star():
    in_degree, out_degree = degree_table(DirectedGraph([(1, 0), (2, 0), (3, 0)]))
    assert in_degree == {0: 3, 1: 0, 2: 0, 3: 0}
    assert out_degree == {0: 0, 1: 1, 2: 1, 3: 1}


def test_betweenness_middle_of_chain():
    b = betweenness_centrality(DirectedGraph([(1, 2), (2, 3)]))
    # Node 2 sits on the single 1->3 path; normalization is (n-1)(n-2) = 2.
    assert b == {1: 0.0, 2: 0.5, 3: 0.0}


def test_betweenness_five_chain():
    g = DirectedGraph([(0, 1), (1, 2), (2, 3), (3, 4)])
    b = betweenness_centrality(g)
    assert b[0] == 0.0
    assert b[1] == pytest.approx(3 / 12)
    assert b[2] == pytest.approx(4 / 12)
    assert b[3] == pytest.approx(3 / 12)
    assert b[4] == 0.0


def test_betweenness_complete_graph_is_zero():
    edges = [(i, j) for i in range(5) for j in range(5) if i != j]
    b = betweenness_centrality(DirectedGraph(edges))
    assert all(v == 0.0 for v in b.values())


def test_betweenness_split_paths():
    # Two equal shortest 0->3 paths; 1 and 2 each carry half.
    g = DirectedGraph([(0, 1), (0, 2), (1, 3), (2, 3)])
    b = betweenness_centrality(g)
    assert b[1] == pytest.approx(0.5 / 6)
    assert b[2] == pytest.approx(0.5 / 6)


def test_betweenness_tiny_graph_warns(caplog):
    with caplog.at_level("WARNING"):
        b = betweenness_centrality(DirectedGraph([(1, 2)]))
    assert b == {1: 0.0, 2: 0.0}
    assert any("fewer than 3" in r.message for r in caplog.records)


def test_betweenness_matches_enumeration_oracle():
    rng = random.Random(43)
    for _ in range(20):
        g = random_digraph(rng, rng.randint(3, 10), 0.3)
        b = betweenness_centrality(g)
        ref = oracle_betweenness(g)
        for v in g.nodes:
            assert abs(b[v] - float(ref[v])) < 1e-12


@pytest.mark.parametrize(
    "widths, gap",
    [([1, 3, 4, 3, 1], 1), ([2, 5, 5, 5, 2], 7), ([1, 4, 4, 4, 4, 1], 3)],
)
def test_betweenness_many_tied_paths_matches_oracle(widths, gap):
    # Up to 4**4 = 256 tied shortest paths per pair, so sigma >> 1.
    g = layered_bipartite(widths, gap)
    b = betweenness_centrality(g)
    ref = oracle_betweenness(g)
    for v in g.nodes:
        assert abs(b[v] - float(ref[v])) < 1e-12


def test_betweenness_gapped_ids_and_unreachable_pairs_match_oracle():
    # Two weak components with sparse ids, a sink, a source and an isolated
    # node: most ordered pairs have no path at all.
    edges = [(10, 40), (40, 90), (90, 10), (40, 1000), (5, 10), (700, 3000), (3000, 12)]
    g = DirectedGraph(edges, nodes=[555])
    b = betweenness_centrality(g)
    ref = oracle_betweenness(g)
    assert ref[40] > 0 and ref[3000] > 0
    for v in g.nodes:
        assert abs(b[v] - float(ref[v])) < 1e-12


def test_betweenness_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(61)
    for k in range(12):
        g = random_digraph(rng, rng.randint(3, 40), rng.choice([0.05, 0.1, 0.3]))
        if k % 3 == 0:  # spread the ids apart
            g = DirectedGraph(((7 * i + 2, 7 * j + 2) for i, j in g.edges()),
                              nodes=(7 * v + 2 for v in g.nodes))
        ng = nx.DiGraph()
        ng.add_nodes_from(g.nodes)
        ng.add_edges_from(g.edges())
        ref = nx.betweenness_centrality(ng, normalized=True)
        b = betweenness_centrality(g)
        for v in g.nodes:
            assert abs(b[v] - ref[v]) < 1e-12


def test_eigenvector_matches_networkx():
    # networkx also sums each node's score over its in-edges (its followers)
    # and normalizes to unit L2 norm.
    nx = pytest.importorskip("networkx")
    rng = random.Random(67)
    for _ in range(12):
        g = random_strongly_connected(rng, rng.randint(3, 40), rng.randint(0, 60))
        ng = nx.DiGraph()
        ng.add_nodes_from(g.nodes)
        ng.add_edges_from(g.edges())
        ref = nx.eigenvector_centrality(ng, max_iter=100000, tol=1e-14)
        x = eigenvector_centrality(g)
        for v in g.nodes:
            assert abs(x[v] - ref[v]) < 1e-8


def test_eigenvector_mutual_triangle_is_uniform():
    edges = [(1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1)]
    x = eigenvector_centrality(DirectedGraph(edges))
    for v in (1, 2, 3):
        assert x[v] == pytest.approx(1 / math.sqrt(3), abs=1e-10)


def test_eigenvector_directed_cycle_is_uniform():
    g = DirectedGraph([(1, 2), (2, 3), (3, 4), (4, 1)])
    x = eigenvector_centrality(g)
    for v in g.nodes:
        assert x[v] == pytest.approx(0.5, abs=1e-10)


def test_eigenvector_scores_follow_audience():
    # Followers feed the followee: only node 1 ends up with mass.
    x = eigenvector_centrality(DirectedGraph([(2, 1), (3, 1)]))
    assert x[1] == pytest.approx(1.0, abs=1e-12)
    assert x[2] == pytest.approx(0.0, abs=1e-12)
    assert x[3] == pytest.approx(0.0, abs=1e-12)


def test_eigenvector_residual_norm_sign():
    rng = random.Random(53)
    for _ in range(10):
        g = random_strongly_connected(rng, rng.randint(3, 20), rng.randint(0, 15))
        x = eigenvector_centrality(g)
        norm = math.sqrt(math.fsum(c * c for c in x.values()))
        assert norm == pytest.approx(1.0, abs=1e-12)
        y = {v: math.fsum(x[u] for u in followers(g, v)) for v in g.nodes}
        lam = math.fsum(x[v] * y[v] for v in g.nodes)
        res = max(abs(y[v] - lam * x[v]) for v in g.nodes)
        assert res < 1e-8
        assert all(c >= -1e-12 for c in x.values())


def test_eigenvector_oscillation_raises_with_payload():
    # Mutual-follow path 1<->2<->3: bipartite, so plain iteration oscillates,
    # and the A + I retry needs more than 5 steps too.
    g = DirectedGraph([(1, 2), (2, 1), (2, 3), (3, 2)])
    with pytest.raises(ConvergenceError) as err:
        eigenvector_centrality(g, max_iter=5)
    assert set(err.value.iterate) == {1, 2, 3}
    assert err.value.residual > 0


ACYCLIC_CORES = {
    "chain": ([(1, 2), (2, 3), (3, 4)], {4: 1.0}),
    # Longer than the default cap of 1000 steps: the cap rises to n + 1.
    "chain_1001": ([(v, v + 1) for v in range(1000)], {1000: 1.0}),
    # The longest chains have length 1: two end at node 0, three at node 9.
    "fan_in": (
        [(1, 0), (2, 0), (2, 9), (3, 9), (4, 9)],
        {0: 2 / math.sqrt(13), 9: 3 / math.sqrt(13)},
    ),
}


@pytest.mark.parametrize("name", sorted(ACYCLIC_CORES))
def test_eigenvector_on_acyclic_core_is_a_null_vector(name, caplog):
    edges, expected = ACYCLIC_CORES[name]
    g = DirectedGraph(edges)
    with caplog.at_level("WARNING"):
        x = full_table(g).eigenvector
    assert not caplog.records  # settled without the shifted retry
    assert math.isclose(math.fsum(c * c for c in x.values()), 1.0, rel_tol=1e-12)
    for v in g.nodes:  # A x = 0 exactly
        assert math.fsum(x[u] for u in followers(g, v)) == 0.0
    assert x == pytest.approx({v: expected.get(v, 0.0) for v in g.nodes}, abs=1e-12)


def test_measures_commute_with_relabeling():
    rng = random.Random(61)
    g = random_strongly_connected(rng, 10, 12)
    ids = sorted(g.nodes)
    shuffled = ids[:]
    rng.shuffle(shuffled)
    relabel = dict(zip(ids, shuffled))
    h = DirectedGraph([(relabel[i], relabel[j]) for i, j in g.edges()])
    tg = full_table(g)
    th = full_table(h)
    for v in ids:
        assert tg.in_degree[v] == th.in_degree[relabel[v]]
        assert tg.out_degree[v] == th.out_degree[relabel[v]]
        assert tg.betweenness[v] == pytest.approx(th.betweenness[relabel[v]], abs=1e-9)
        assert tg.eigenvector[v] == pytest.approx(th.eigenvector[relabel[v]], abs=1e-7)


def _degree_only_table(in_degree: dict[int, int]) -> CentralityTable:
    zeros = dict.fromkeys(in_degree, 0.0)
    return CentralityTable(in_degree, dict.fromkeys(in_degree, 0), zeros, zeros)


def test_top_k_orders_and_breaks_ties_by_id():
    t = _degree_only_table({1: 5, 2: 7, 3: 5, 4: 1})
    assert top_k(t, "in_degree", 1) == [2]
    assert top_k(t, "in_degree", 3) == [2, 1, 3]
    assert top_k(t, "in_degree", 99) == [2, 1, 3, 4]


def test_top_k_validation():
    t = _degree_only_table({1: 1})
    with pytest.raises(ValueError, match="unknown measure"):
        top_k(t, "pagerank", 1)
    with pytest.raises(ValueError, match=">= 1"):
        top_k(t, "in_degree", 0)


def test_full_table_has_every_column():
    g = DirectedGraph([(1, 2), (2, 3), (3, 1)])
    t = full_table(g)
    for name in ("in_degree", "out_degree", "betweenness", "eigenvector"):
        assert set(getattr(t, name)) == g.nodes


def test_centrality_csv_sorted_by_followers():
    g = DirectedGraph([(2, 1), (3, 1), (1, 2), (3, 2)])
    lines = report.centrality(full_table(g), "csv").splitlines()
    assert lines[0] == "node,in_degree,out_degree,betweenness,eigenvector"
    assert [row.split(",")[0] for row in lines[1:]] == ["1", "2", "3"]


def test_full_table_retries_periodic_core_with_shift(caplog):
    # Mutual-follow path 1<->2<->3: bipartite, so plain iteration oscillates.
    g = DirectedGraph([(1, 2), (2, 1), (2, 3), (3, 2)])
    with caplog.at_level("WARNING"):
        x = eigenvector_centrality(g)
    assert [r.levelname for r in caplog.records] == ["WARNING"]
    assert "shifted" in caplog.records[0].message
    caplog.clear()
    with caplog.at_level("WARNING"):
        assert full_table(g).eigenvector == x
    assert [r.levelname for r in caplog.records] == ["WARNING"]
    assert "shifted" in caplog.records[0].message
    # The path's Perron vector is (1, sqrt 2, 1) / 2.
    assert x[1] == pytest.approx(0.5, abs=1e-9)
    assert x[2] == pytest.approx(math.sqrt(0.5), abs=1e-9)
    assert x[3] == pytest.approx(0.5, abs=1e-9)
