"""Graph construction, CSV ingestion, and component handling."""

from __future__ import annotations

import io
import random

import pytest

from influnet import (
    DirectedGraph,
    EdgeListParseError,
    ingest_edge_csv,
    largest_core,
    to_edge_csv,
)
from influnet.graph import _components, _restrict
from helpers import arc_pairs, load_fixture, over_int_limit, random_digraph


def components(g: DirectedGraph) -> list[list[int]]:
    """``_components`` mapped back to ids."""
    return [[g.ids[p] for p in comp] for comp in _components(g)]


def test_parse_small_network():
    g = ingest_edge_csv("i,j\n1,2\n1,3\n").graph
    assert g.nodes == {1, 2, 3}
    assert sorted(g.edges()) == [(1, 2), (1, 3)]
    assert g.directed
    assert g.edge_count == 2


def test_parse_header_only_is_empty():
    g = ingest_edge_csv("i,j\n").graph
    assert g.node_count == 0
    assert g.edge_count == 0


def test_parse_empty_input_rejected():
    with pytest.raises(EdgeListParseError, match="header"):
        ingest_edge_csv("")


def test_parse_rejects_edge_in_header_position():
    # Without a header the first edge would be swallowed as one.
    with pytest.raises(EdgeListParseError, match="header") as err:
        ingest_edge_csv("1,2\n2,3\n3,1\n")
    assert err.value.line_no == 1
    with pytest.raises(EdgeListParseError) as err:
        ingest_edge_csv("\n 4 , 5 \n5,6\n")
    assert err.value.line_no == 2
    # A UTF-8 byte-order mark does not disguise the first edge as a header.
    with pytest.raises(EdgeListParseError, match="header") as err:
        ingest_edge_csv("\ufeff1,2\n2,3\n3,1\n")
    assert err.value.line_no == 1


def test_parse_accepts_any_non_numeric_header():
    for header in ("i,j", "\ufeffi,j", "follower,followee", "source", "a,b,c", "1,x"):
        g = ingest_edge_csv(f"{header}\n1,2\n").graph
        assert sorted(g.edges()) == [(1, 2)]


def test_parse_wrong_arity_reports_line():
    with pytest.raises(EdgeListParseError) as err:
        ingest_edge_csv("i,j\n1,2\n5\n")
    assert err.value.line_no == 3
    assert "line 3" in str(err.value)


def test_parse_non_integer_reports_line():
    # Only ASCII decimal digits: int() would also take "+3", "1_0" and "\u0663".
    for bad in ("foo,2", "1_0,2", "+3,2", "2,\u0663", "1.0,2", ",2", "-0x1,2"):
        with pytest.raises(EdgeListParseError, match="decimal digits") as err:
            ingest_edge_csv(f"i,j\n1,2\n{bad}\n2,3\n")
        assert err.value.line_no == 3


def test_parse_negative_id_rejected():
    for bad in ("-1,2", "2,-7"):
        with pytest.raises(EdgeListParseError, match="negative node id") as err:
            ingest_edge_csv(f"i,j\n{bad}\n")
        assert err.value.line_no == 2


def test_parse_drops_and_counts_self_loops():
    result = ingest_edge_csv("i,j\n1,1\n1,2\n2,2\n")
    assert result.self_loops_dropped == 2
    assert result.duplicates_dropped == 0
    assert sorted(result.graph.edges()) == [(1, 2)]


def test_parse_drops_and_counts_duplicates():
    result = ingest_edge_csv("i,j\n1,2\n1,2\n2,1\n1,2\n")
    assert result.duplicates_dropped == 2
    assert sorted(result.graph.edges()) == [(1, 2), (2, 1)]


def test_parse_tolerates_whitespace_and_blank_lines():
    g = ingest_edge_csv("i,j\n\n 1 , 2 \n\n3,4\n").graph
    assert sorted(g.edges()) == [(1, 2), (3, 4)]


ACCEPTED_ROWS = [
    (" 1 , 2 ", (1, 2)),
    ("\t1\t,\t2\t", (1, 2)),
    ("1,2\r", (1, 2)),
    ("007,8", (7, 8)),
    ("7,07", None),  # 7 -> 7: a self-loop, dropped and counted
]


@pytest.mark.parametrize(("row", "arc"), ACCEPTED_ROWS)
def test_parse_row_accepted(row, arc):
    # Blank lines and CRLF endings around the row change nothing.
    result = ingest_edge_csv(f"i,j\r\n\r\n{row}\r\n\n  \n")
    assert list(result.graph.edges()) == ([arc] if arc else [])
    assert result.self_loops_dropped == (0 if arc else 1)
    assert result.graph.node_count == (2 if arc else 0)  # a dropped self-loop leaves no node


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_string_and_text_file_split_lines_alike(newline):
    text = newline.join(["i,j", "1,2", "2,3", "1,2", "3,3", ""])
    from_str = ingest_edge_csv(text)
    from_file = ingest_edge_csv(io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8"))
    assert from_str == from_file
    assert sorted(from_str.graph.edges()) == [(1, 2), (2, 3)]
    assert (from_str.self_loops_dropped, from_str.duplicates_dropped) == (1, 1)


REJECTED_ROWS = [
    ("1,2,3", "expected 2 comma-separated fields, got 3"),
    ("1,", "node ids must be decimal digits, got '1,'"),
    (",2", "node ids must be decimal digits, got ',2'"),
    ("-1,2", "negative node id in '-1,2'"),
    ("+1,2", "node ids must be decimal digits, got '+1,2'"),
    ("1_0,2", "node ids must be decimal digits, got '1_0,2'"),
    ("١,2", "node ids must be decimal digits, got '١,2'"),
    # A row is quoted whole up to 40 characters, and cut to 40 past that.
    ("x" * 38 + ",2", f"node ids must be decimal digits, got '{'x' * 38},2'"),
    ("x" * 39 + ",2", f"node ids must be decimal digits, got '{'x' * 39},'..."),
    ("-" + "1" * 40 + ",2", f"negative node id in '-{'1' * 39}'..."),
]


@pytest.mark.parametrize(("row", "message"), REJECTED_ROWS)
def test_parse_row_rejected(row, message):
    with pytest.raises(EdgeListParseError) as err:
        ingest_edge_csv(f"i,j\n1,2\n\n{row}\n2,3\n")
    assert err.value.line_no == 4
    assert str(err.value) == f"line 4: {message}"


def test_first_row_with_an_id_past_the_int_limit_is_a_missing_header():
    long_id = over_int_limit()
    for first in (f"{long_id},2", f"2,{long_id}", f" {long_id} , {long_id} "):
        with pytest.raises(EdgeListParseError, match="missing header row") as err:
            ingest_edge_csv(f"{first}\n2,3\n")
        assert err.value.line_no == 1


def test_id_past_the_int_limit_reports_its_line():
    long_id = over_int_limit()
    for row in (f"{long_id},2", f"2,{long_id}", f" {long_id} ,2"):
        with pytest.raises(EdgeListParseError, match="limit") as err:
            ingest_edge_csv(f"i,j\n1,2\n{row}\n2,3\n")
        assert err.value.line_no == 3
        assert str(err.value).startswith("line 3: ")
    # An id of exactly the limit's length still converts.
    at_limit = long_id[1:]
    g = ingest_edge_csv(f"i,j\n1,{at_limit}\n").graph
    assert list(g.edges()) == [(1, int(at_limit))]


def test_construction_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        DirectedGraph([(1, 1)])


def test_construction_rejects_bad_ids():
    with pytest.raises(ValueError):
        DirectedGraph([(-1, 2)])
    with pytest.raises(ValueError):
        DirectedGraph([], nodes=["a"])  # type: ignore[list-item]
    # An arc equal in value to one already seen is still checked.
    for bad in ((True, 2), (1, False), (1.0, 2), (1, 2.0)):
        with pytest.raises(ValueError):
            DirectedGraph([(1, 2), bad])  # type: ignore[list-item]
    # True and 1.0 equal the valid id 1, which comes first in every case.
    for directed in (True, False):
        for bad in (True, 1.0, -1):
            for edges, nodes in (
                ([(1, 2), (bad, 2)], ()),  # source
                ([(2, 1), (2, bad)], ()),  # target
                ([(1, 2)], (1, bad)),  # isolated node
            ):
                with pytest.raises(ValueError, match="non-negative integers"):
                    DirectedGraph(edges, nodes=nodes, directed=directed)


def test_construction_accepts_int_subclass():
    class Id(int):
        pass

    for directed in (True, False):
        g = DirectedGraph([(Id(1), Id(2))], nodes=[Id(3)], directed=directed)
        assert g.ids == (1, 2, 3)
        assert (1, 2) in arc_pairs(g)


def test_undirected_graph_symmetrizes():
    g = DirectedGraph([(1, 2)], directed=False)
    assert arc_pairs(g) == {(1, 2), (2, 1)}
    assert g.edge_count == 1
    assert list(g.edges()) == [(1, 2)]
    assert len(g.inc[g.pos[1]]) == len(g.out[g.pos[1]]) == 1


def test_degree_sums_match_edge_count():
    rng = random.Random(7)
    for _ in range(20):
        g = random_digraph(rng, rng.randint(2, 15), 0.3)
        assert sum(len(g.inc[g.pos[v]]) for v in g.nodes) == g.edge_count
        assert sum(len(g.out[g.pos[v]]) for v in g.nodes) == g.edge_count


def test_components_split_and_order():
    assert components(DirectedGraph([(1, 2), (3, 4)])) == [[1, 2], [3, 4]]


def test_components_ignore_direction():
    # 1 -> 2 <- 3 is one weak component despite no directed 1..3 path.
    assert components(DirectedGraph([(1, 2), (3, 2)])) == [[1, 2, 3]]


def test_components_size_then_min_id_order():
    g = DirectedGraph([(5, 6), (6, 7), (1, 2), (3, 4)])
    assert components(g) == [[5, 6, 7], [1, 2], [3, 4]]


def test_isolated_nodes_are_singleton_components():
    g = DirectedGraph([], nodes=range(5))
    assert components(g) == [[v] for v in range(5)]


def test_components_partition_nodes():
    rng = random.Random(17)
    for _ in range(15):
        g = random_digraph(rng, rng.randint(2, 25), 0.06)
        seen: set[int] = set()
        for c in map(set, components(g)):
            assert not (seen & c)
            seen |= c
        assert seen == g.nodes


def test_largest_core_picks_biggest_component():
    g = DirectedGraph([(1, 2), (2, 3), (8, 9)])
    core = largest_core(g)
    assert core is not g
    assert core.nodes == {1, 2, 3}
    assert core.edge_count == 2


def test_largest_core_of_connected_graph_is_identity():
    g = DirectedGraph([(1, 2), (2, 3), (3, 1)])
    assert largest_core(g) is g
    # One isolated node is a fringe: the core is rebuilt without it.
    fringed = DirectedGraph(g.edges(), nodes=[7])
    assert largest_core(fringed) == g


def test_largest_core_logs_the_nodes_it_drops(caplog):
    g = load_fixture()
    with caplog.at_level("INFO", logger="influnet.graph"):
        core = largest_core(g)
        assert largest_core(core) is core  # a connected graph drops nothing
    assert [r.getMessage() for r in caplog.records] == [
        "core: kept 8 of 12 nodes (4 outside the largest weak component)",
    ]


def test_largest_core_rejects_empty():
    with pytest.raises(ValueError):
        largest_core(DirectedGraph())


def test_induced_subgraph_cases():
    # Weak components {1, 2, 3}, {5, 6} and {9}; _restrict keeps unions of them.
    arcs = [(1, 2), (2, 3), (3, 1), (6, 5)]
    g = DirectedGraph(arcs, nodes=[9])
    assert _restrict(g, list(range(g.node_count))) == g
    assert _restrict(g, []).node_count == 0
    for keep in ({1, 2, 3}, {5, 6}, {9}, {1, 2, 3, 9}, {5, 6, 9}):
        sub = _restrict(g, sorted(g.pos[v] for v in keep))
        ref = DirectedGraph([(i, j) for i, j in arcs if i in keep and j in keep], nodes=keep)
        assert (sub.ids, sub.pos, sub.out, sub.inc) == (ref.ids, ref.pos, ref.out, ref.inc)
        assert sub.edge_count == ref.edge_count


def test_csv_round_trip_preserves_edges():
    rng = random.Random(19)
    for _ in range(15):
        g = random_digraph(rng, rng.randint(2, 20), 0.2)
        back = ingest_edge_csv(to_edge_csv(g)).graph
        assert set(back.edges()) == set(g.edges())
        assert back.nodes == {v for edge in g.edges() for v in edge}


def test_csv_cannot_carry_isolated_nodes():
    # The two-column schema only names edge endpoints.
    g = DirectedGraph([(1, 2)], nodes=[1, 2, 9])
    assert ingest_edge_csv(to_edge_csv(g)).graph.nodes == {1, 2}


def test_csv_serialization_is_canonical():
    a = DirectedGraph([(3, 4), (1, 2)])
    b = DirectedGraph([(1, 2), (3, 4)])
    assert to_edge_csv(a) == to_edge_csv(b) == "i,j\n1,2\n3,4\n"


def test_undirected_csv_lists_each_pair_once():
    g = DirectedGraph([(2, 1), (2, 3)], directed=False)
    assert to_edge_csv(g) == "i,j\n1,2\n2,3\n"
