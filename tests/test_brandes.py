"""The Brandes kernel: the old kernel's bits, and any number of shortest paths."""

from __future__ import annotations

import csv
import io
import random
from itertools import repeat

import pytest

from influnet import DirectedGraph, betweenness_centrality, centrality
from influnet.centrality import _brandes
from influnet.cli import main
from helpers import layered_bipartite, oracle_betweenness, random_digraph, reference_brandes

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from strategies import dense_digraphs, sparse_digraphs  # noqa: E402

PROPERTY = settings(max_examples=60, derandomize=True, deadline=None, database=None)


def kernel_rows(kernel, g: DirectedGraph, sources: list[int]) -> list[list[float]]:
    rows = [[0.0] * g.node_count for _ in sources]
    kernel(g.out, sources, rows)
    return rows


@PROPERTY
@given(sparse_digraphs(), st.data())
def test_sparse_rows_equal_the_old_kernel(g, data):
    sources = data.draw(st.permutations(range(g.node_count)))
    assert kernel_rows(_brandes, g, sources) == kernel_rows(reference_brandes, g, sources)


@PROPERTY
@given(dense_digraphs())
def test_dense_rows_equal_the_old_kernel(g):
    sources = list(range(g.node_count))
    assert kernel_rows(_brandes, g, sources) == kernel_rows(reference_brandes, g, sources)


def preferential_attachment(n: int, seed: int) -> DirectedGraph:
    """Each account follows 5 earlier ones, 70% of them picked by follower count.

    One account it follows follows it back with probability 0.3.
    """
    rng = random.Random(seed)
    arcs = {(1, 0)}
    heads = [0]
    for i in range(2, n):
        for _ in range(5):
            j = rng.choice(heads) if rng.random() < 0.7 else rng.randrange(i)
            arcs.add((i, j))
            heads.append(j)
        if rng.random() < 0.3:
            arcs.add((j, i))
    return DirectedGraph(arcs, nodes=range(n))


@pytest.mark.parametrize("seed", [0, 1])
def test_preferential_attachment_rows_and_totals_equal_the_old_kernel(seed):
    g = preferential_attachment(300, seed)
    sources = list(range(g.node_count))
    assert kernel_rows(_brandes, g, sources) == kernel_rows(reference_brandes, g, sources)
    new, old = [0.0] * g.node_count, [0.0] * g.node_count
    _brandes(g.out, sources, repeat(new))
    reference_brandes(g.out, sources, repeat(old))
    assert new == old


def c2_corpus():
    """The acceptance gate's 100 random digraphs, then three layered ones."""
    rng = random.Random(202)
    for _ in range(100):
        yield random_digraph(rng, rng.randint(3, 12), rng.uniform(0.15, 0.5))
    for widths in ([1, 3, 4, 3, 1], [2, 5, 5, 5, 2], [1, 4, 4, 4, 4, 1]):
        yield layered_bipartite(widths)


@pytest.mark.parametrize("cap", [1, 3])
def test_ratio_form_matches_the_enumeration_oracle(monkeypatch, cap):
    # A cap of 1 sends every source to the ratio form; 3 splits them.
    monkeypatch.setattr(centrality, "_SIGMA_CAP", cap)
    for g in c2_corpus():
        b = betweenness_centrality(g)
        ref = oracle_betweenness(g)
        for v in g.nodes:
            assert abs(b[v] - float(ref[v])) < 1e-12


def max_path_count(adj: tuple[tuple[int, ...], ...], s: int) -> int:
    """The largest number of shortest paths from s to any one node, level by level."""
    dist, sigma, frontier = {s: 0}, {s: 1}, [s]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    sigma[w] = 0
                    nxt.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
        frontier = nxt
    return max(sigma.values())


# From the one node of the first layer, the path count is multiplied by a
# layer's width at each layer after the second, so it first reaches 2**k at
# a depth fixed by k and the widths.  Widths of 7 keep it within a factor 7
# of the bound (max out-degree)**D, below 2**(3 * D).
@pytest.mark.parametrize("widths", [[1, 2, 2, 2, 2, 2, 2, 2, 2, 1], [1, 4, 4, 4, 4, 4, 1],
                                    [2, 8, 8, 2], [1, 7, 7, 7, 7, 7, 7, 1]])
def test_ratio_form_runs_for_exactly_the_sources_that_reach_the_cap(monkeypatch, widths):
    g = layered_bipartite(widths, gap=3)
    sources = list(range(g.node_count))
    counts = [max_path_count(g.out, s) for s in sources]
    ref = kernel_rows(reference_brandes, g, sources)
    monkeypatch.setattr(centrality, "_SIGMA_CAP", 1)  # every source takes ratios
    ratio_rows = kernel_rows(_brandes, g, sources)
    if all(w & (w - 1) == 0 for w in widths):  # ratios of powers of two are exact
        assert ratio_rows == ref
    ratio, took = centrality._ratio_dependencies, []

    def spy(order, succs, sigma, acc):
        took.append(order[0])
        ratio(order, succs, sigma, acc)

    monkeypatch.setattr(centrality, "_ratio_dependencies", spy)
    for k in range(max(counts).bit_length() + 1):
        monkeypatch.setattr(centrality, "_SIGMA_CAP", 1 << k)
        took.clear()
        rows = kernel_rows(_brandes, g, sources)
        assert took == [s for s in sources if counts[s] >= 1 << k]
        assert rows == [ratio_rows[s] if s in took else ref[s] for s in sources]


DIAMONDS = 1030  # 2**1030 shortest paths end to end: past float's 2**1024


def diamond_chain_arcs(k: int) -> list[tuple[int, int]]:
    """a -> {b, c} -> a', k times over: a_i = 3i, b_i = 3i + 1, c_i = 3i + 2."""
    return [arc for a in range(0, 3 * k, 3)
            for arc in ((a, a + 1), (a, a + 2), (a + 1, a + 3), (a + 2, a + 3))]


def test_huge_path_counts_give_exact_dependencies():
    g = DirectedGraph(diamond_chain_arcs(DIAMONDS))
    last = 3 * DIAMONDS  # the chain's sink
    [row] = kernel_rows(_brandes, g, [0])
    for k in range(DIAMONDS):
        # Every node past diamond k is reached through b_k on half its paths.
        downstream = last - (3 * k + 2)
        assert row[3 * k + 1] == row[3 * k + 2] == pytest.approx(downstream / 2, rel=1e-12)
        if k:
            assert row[3 * k] == pytest.approx(last - 3 * k, rel=1e-12)


def test_diamond_chain_through_the_cli(tmp_path, capsys):
    path = tmp_path / "diamonds.csv"
    path.write_text("i,j\n" + "".join(f"{i},{j}\n" for i, j in diamond_chain_arcs(DIAMONDS)))
    assert main(["centrality", "--input", str(path)]) == 0
    b = {int(r["node"]): r["betweenness"] for r in csv.DictReader(io.StringIO(capsys.readouterr().out))}
    assert len(b) == 3 * DIAMONDS + 1
    assert all(b[3 * k + 1] == b[3 * k + 2] != "0.000000" for k in range(DIAMONDS))
