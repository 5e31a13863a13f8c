"""DOT, GraphML, and CSV writers."""

from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest

from influnet import DirectedGraph, export_graph, ingest_edge_csv


def test_dot_single_edge():
    text = export_graph(DirectedGraph([(1, 2)]), "dot")
    assert text == "digraph G {\n  1 [size=0];\n  2 [size=1];\n  1 -> 2;\n}\n"


def test_dot_undirected_uses_plain_edges():
    text = export_graph(DirectedGraph([(1, 2)], directed=False), "dot")
    assert text.startswith("graph G {")
    assert "1 -- 2;" in text
    assert "->" not in text


def test_dot_size_tracks_followers():
    g = DirectedGraph([(1, 0), (2, 0), (3, 0)])
    text = export_graph(g, "dot")
    assert "0 [size=3];" in text
    assert "1 [size=0];" in text


def test_dot_includes_isolated_nodes():
    g = DirectedGraph([(1, 2)], nodes=[1, 2, 7])
    assert "7 [size=0];" in export_graph(g, "dot")


def test_graphml_structure():
    g = DirectedGraph([(1, 0), (2, 0), (3, 0)])
    root = ET.fromstring(export_graph(g, "graphml"))
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    graph = root.find("g:graph", ns)
    assert graph is not None
    assert graph.get("edgedefault") == "directed"
    nodes = graph.findall("g:node", ns)
    edges = graph.findall("g:edge", ns)
    assert len(nodes) == 4
    assert len(edges) == 3
    sizes = {
        node.get("id"): node.find("g:data", ns).text for node in nodes
    }
    assert sizes["n0"] == "3"
    assert sizes["n1"] == "0"


def test_graphml_undirected_edges_once():
    g = DirectedGraph([(1, 2), (2, 3)], directed=False)
    root = ET.fromstring(export_graph(g, "graphml"))
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    graph = root.find("g:graph", ns)
    assert graph.get("edgedefault") == "undirected"
    assert len(graph.findall("g:edge", ns)) == 2


def test_csv_export_round_trips():
    g = DirectedGraph([(5, 1), (1, 5), (2, 3)])
    assert ingest_edge_csv(export_graph(g, "csv")).graph == g


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="unknown export format"):
        export_graph(DirectedGraph([(1, 2)]), "gexf")
