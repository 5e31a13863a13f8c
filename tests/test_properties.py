"""Property tests: graph and G(n, p) indexes, ingest round trip, relabelling, fringes."""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from influnet import (  # noqa: E402
    ConvergenceError,
    DirectedGraph,
    eigenvector_centrality,
    full_table,
    gnp_random,
    ingest_edge_csv,
    largest_core,
    summarize,
    to_edge_csv,
)
from influnet.centrality import _acyclic  # noqa: E402
from influnet.graph import _components, _restrict  # noqa: E402
from helpers import arc_pairs, fw_distances, oracle_index  # noqa: E402
from strategies import sparse_digraphs  # noqa: E402

PROPERTY = settings(max_examples=50, derandomize=True, deadline=None, database=None)

ids = st.integers(0, 10**6)
arc_sets = st.sets(st.tuples(ids, ids).filter(lambda a: a[0] != a[1]), max_size=30)
# Few distinct ids, so arcs repeat, reverse one another and share endpoints.
few_ids = st.integers(0, 12)
arc_lists = st.lists(st.tuples(few_ids, few_ids).filter(lambda a: a[0] != a[1]), max_size=40)


@st.composite
def digraphs(draw, max_nodes: int = 10) -> DirectedGraph:
    """Nodes 0..n-1 (some possibly isolated) and at least one arc."""
    n = draw(st.integers(2, max_nodes))
    node = st.integers(0, n - 1)
    arcs = draw(st.sets(st.tuples(node, node).filter(lambda a: a[0] != a[1]), min_size=1))
    return DirectedGraph(arcs, nodes=range(n))


@st.composite
def connected_digraphs(draw, min_nodes: int, max_nodes: int, first_id: int = 0):
    """A weakly connected graph on first_id..first_id+n-1: a random tree plus extra arcs."""
    n = draw(st.integers(min_nodes, max_nodes))
    arcs = set()
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        arcs.add((u, v) if draw(st.booleans()) else (v, u))
    node = st.integers(0, n - 1)
    arcs.update(a for a in draw(st.lists(st.tuples(node, node), max_size=2 * n)) if a[0] != a[1])
    return DirectedGraph(
        ((first_id + i, first_id + j) for i, j in arcs),
        nodes=range(first_id, first_id + n),
    )


@st.composite
def dags(draw, max_nodes: int = 12) -> DirectedGraph:
    """Nodes 0..n-1 with arcs running forward in a drawn order of them: no cycle."""
    n = draw(st.integers(2, max_nodes))
    order = draw(st.permutations(range(n)))
    forward = st.integers(0, n - 2).flatmap(
        lambda i: st.tuples(st.just(i), st.integers(i + 1, n - 1))
    )
    arcs = draw(st.sets(forward, max_size=3 * n))
    return DirectedGraph(((order[i], order[j]) for i, j in arcs), nodes=range(n))


@st.composite
def mutual_trees(draw, max_nodes: int = 12) -> DirectedGraph:
    """A random tree on 0..n-1 with every edge followed both ways: a periodic core."""
    n = draw(st.integers(2, max_nodes))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    return DirectedGraph(edges + [(v, u) for u, v in edges])


def relabel(g: DirectedGraph, mapping: dict[int, int]) -> DirectedGraph:
    return DirectedGraph(
        ((mapping[i], mapping[j]) for i, j in g.edges()),
        nodes=(mapping[v] for v in g.nodes),
    )


def table_or_failure(g: DirectedGraph):
    """full_table, or ConvergenceError when no eigenvector solve settles."""
    try:
        return full_table(g)
    except ConvergenceError:
        return ConvergenceError


@PROPERTY
@given(arc_sets, st.sets(ids, max_size=5), st.booleans())
def test_index_is_sorted_and_mirrored(arcs, isolated, directed):
    g = DirectedGraph(arcs, nodes=isolated, directed=directed)
    assert list(g.ids) == sorted({v for arc in arcs for v in arc} | isolated)
    assert g.pos == {v: p for p, v in enumerate(g.ids)}
    assert len(g.out) == len(g.inc) == g.node_count
    for targets in (*g.out, *g.inc):
        assert list(targets) == sorted(set(targets))
    out_pairs = {(p, q) for p, targets in enumerate(g.out) for q in targets}
    inc_pairs = {(p, q) for q, sources in enumerate(g.inc) for p in sources}
    assert out_pairs == inc_pairs


@PROPERTY
@given(arc_lists, st.lists(st.integers(0, 20), max_size=6), st.booleans())
def test_index_equals_the_oracle(arcs, nodes, directed):
    g = DirectedGraph(arcs, nodes=nodes, directed=directed)
    assert (g.ids, g.pos, g.out, g.inc, g.edge_count) == oracle_index(arcs, nodes, directed)


@PROPERTY
@given(st.integers(2, 40), st.floats(0.0, 1.0), st.integers(0, 2**64))
def test_gnp_random_builds_the_constructors_index(n, p, seed):
    g = gnp_random(n, p, seed)
    ref = DirectedGraph(g.edges(), nodes=range(n), directed=False)
    assert g == ref
    assert (g.pos, g.inc, g.edge_count) == (ref.pos, ref.inc, ref.edge_count)
    out_pairs = {(a, b) for a, targets in enumerate(g.out) for b in targets}
    inc_pairs = {(a, b) for b, sources in enumerate(g.inc) for a in sources}
    assert out_pairs == inc_pairs


@PROPERTY
@given(arc_sets, st.booleans())
def test_edges_are_the_sorted_input_arcs(arcs, directed):
    g = DirectedGraph(arcs, directed=directed)
    if directed:
        assert list(g.edges()) == sorted(arcs)
    else:
        # One row per unordered pair, smaller id first.
        assert list(g.edges()) == sorted({(min(a), max(a)) for a in arcs})
        assert arc_pairs(g) == arcs | {(j, i) for i, j in arcs}
    assert g.edge_count == len(list(g.edges()))


@PROPERTY
@given(arc_sets)
def test_edge_csv_round_trips(arcs):
    g = DirectedGraph(arcs)  # every node is an arc end, so none is isolated
    assert ingest_edge_csv(to_edge_csv(g)).graph == g


@PROPERTY
@given(arc_lists, st.lists(few_ids, max_size=4), st.booleans())
def test_edge_csv_is_the_edge_rows(arcs, nodes, directed):
    g = DirectedGraph(arcs, nodes=nodes, directed=directed)
    assert to_edge_csv(g) == "i,j\n" + "".join(f"{i},{j}\n" for i, j in g.edges())


@PROPERTY
@given(arc_lists, st.lists(few_ids, max_size=4), st.booleans(), st.data())
def test_induced_subgraph_on_a_union_of_components(arcs, nodes, directed, data):
    g = DirectedGraph(arcs, nodes=nodes, directed=directed)
    comps = _components(g)
    chosen = data.draw(st.sets(st.sampled_from(range(len(comps))))) if comps else set()
    keep = {g.ids[p] for c in chosen for p in comps[c]}
    sub = _restrict(g, sorted(g.pos[v] for v in keep))
    ref = DirectedGraph(
        [(i, j) for i, j in arcs if i in keep and j in keep], nodes=keep, directed=directed
    )
    assert (sub.ids, sub.pos, sub.out, sub.inc) == (ref.ids, ref.pos, ref.out, ref.inc)
    assert sub.edge_count == ref.edge_count


# caplog is shared by the examples, so each one clears it first.
@settings(PROPERTY, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(arc_sets, st.data())
def test_ingest_equals_constructor_over_distinct_rows(caplog, arcs, data):
    repeated = st.lists(st.sampled_from(sorted(arcs)), max_size=10) if arcs else st.just([])
    repeats = data.draw(repeated)
    # A self-loop's id may be an arc end or appear in no arc; each side's
    # own padding makes rows such as 7,07, one id under two spellings.
    ends = sorted({v for arc in arcs for v in arc})
    loops = data.draw(st.lists(ids | st.sampled_from(ends) if ends else ids, max_size=5))
    rows = data.draw(st.permutations([*arcs, *repeats, *((v, v) for v in loops)]))

    def spell(v: int) -> str:  # the id's digits after a drawn number of leading zeros
        return "0" * data.draw(st.integers(0, 3)) + str(v)

    text = "".join(f"{spell(i)},{spell(j)}\n" for i, j in rows)
    caplog.clear()
    with caplog.at_level("WARNING", logger="influnet.graph"):
        result = ingest_edge_csv("i,j\n" + text)
    g, ref = result.graph, DirectedGraph(arcs)
    assert (g.ids, g.pos, g.out, g.inc, g.edge_count) == (
        ref.ids, ref.pos, ref.out, ref.inc, ref.edge_count
    )
    assert (result.self_loops_dropped, result.duplicates_dropped) == (len(loops), len(repeats))
    warned = [r.getMessage() for r in caplog.records]
    assert warned == [
        *([f"dropped {len(loops)} self-loop row(s)"] if loops else []),
        *([f"dropped {len(repeats)} duplicate row(s)"] if repeats else []),
    ]


@PROPERTY
@given(st.data())
def test_relabelling_commutes_with_summary_and_centrality(data):
    g = data.draw(digraphs())
    new_ids = data.draw(st.lists(ids, min_size=g.node_count, max_size=g.node_count, unique=True))
    mapping = dict(zip(sorted(g.nodes), new_ids))
    h = relabel(g, mapping)
    assert summarize(h) == summarize(g)
    before, after = table_or_failure(g), table_or_failure(h)
    if before is ConvergenceError:
        assert after is ConvergenceError
        return
    for name in ("in_degree", "out_degree", "betweenness", "eigenvector"):
        col, moved = getattr(before, name), getattr(after, name)
        for v in g.nodes:
            assert moved[mapping[v]] == pytest.approx(col[v], abs=1e-12), (name, v)


@PROPERTY
@given(st.data())
def test_smaller_disjoint_component_leaves_core_results_unchanged(data):
    core = data.draw(connected_digraphs(2, 10))
    gap = data.draw(st.integers(0, 100))
    fringe = data.draw(connected_digraphs(1, core.node_count - 1, max(core.nodes) + 1 + gap))
    g = DirectedGraph([*core.edges(), *fringe.edges()], nodes=core.nodes | fringe.nodes)
    found = largest_core(g)
    assert found == core
    rebuilt = DirectedGraph(  # through the validating constructor, from the id-level API
        [(i, j) for i, j in g.edges() if i in core and j in core], nodes=core.nodes
    )
    assert found == _restrict(g, [g.pos[v] for v in core.ids]) == rebuilt
    assert (found.ids, found.out, found.inc) == (rebuilt.ids, rebuilt.out, rebuilt.inc)
    assert summarize(found) == summarize(core)
    assert table_or_failure(found) == table_or_failure(core)


@PROPERTY
@given(digraphs())
def test_acyclic_iff_no_node_reaches_itself(g):
    dist = fw_distances(g)
    assert _acyclic(g) == (not any((j, i) in dist for i, j in dist))


@PROPERTY
@given(dags(), st.integers(1, 12))
def test_eigenvector_on_a_dag_ignores_a_short_cap(g, max_iter):
    assert _acyclic(g)
    assert eigenvector_centrality(g, max_iter=max_iter) == eigenvector_centrality(
        g, max_iter=10**6
    )


@pytest.mark.parametrize("graphs", [sparse_digraphs(), mutual_trees(), dags()],
                         ids=["sparse", "mutual_tree", "dag"])
@PROPERTY
@given(st.data())
def test_eigenvector_equals_the_table_column(graphs, data):
    g = data.draw(graphs)
    table = table_or_failure(g)
    try:
        x = eigenvector_centrality(g)
    except ConvergenceError:
        x = ConvergenceError
    assert x == (table if table is ConvergenceError else table.eigenvector)
