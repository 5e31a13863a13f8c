"""Graph serialization: DOT and GraphML for external viewers, and the edge CSV.

DOT and GraphML both carry a per-node ``size`` attribute equal to the
node's follower count, so renderers can scale vertices by audience.
Every node is written out, isolated ones included.  The edge CSV is the
canonical form: the schema ``ingest_edge_csv`` reads, one row per edge,
so a node without edges is not written.  Output is fully sorted and
therefore byte-stable.
"""

from __future__ import annotations

from bisect import bisect_right

from .graph import DirectedGraph

FORMATS = ("dot", "graphml", "csv")

EDGE_CSV_HEADER = "i,j"


def export_graph(g: DirectedGraph, fmt: str) -> str:
    """Render ``g`` in one of the supported formats."""
    if fmt == "dot":
        return _to_dot(g)
    if fmt == "graphml":
        return _to_graphml(g)
    if fmt == "csv":
        return to_edge_csv(g)
    raise ValueError(f"unknown export format {fmt!r}; choose from {FORMATS}")


def to_edge_csv(g: DirectedGraph) -> str:
    """Serialize a graph to the same CSV schema ``ingest_edge_csv`` reads.

    Rows are sorted, so equal graphs serialize to identical bytes.
    """
    names = list(map(str, g.ids))
    rows = [EDGE_CSV_HEADER]
    for p, targets in enumerate(g.out):
        if not g.directed:
            # One row per unordered pair: only the targets after p.
            targets = targets[bisect_right(targets, p):]
        head = names[p] + ","
        rows += [head + names[q] for q in targets]
    return "\n".join(rows) + "\n"


def _to_dot(g: DirectedGraph) -> str:
    kind = "digraph" if g.directed else "graph"
    arrow = "->" if g.directed else "--"
    lines = [f"{kind} G {{"]
    for n in g.ids:
        lines.append(f'  {n} [size={g.in_degree(n)}];')
    for i, j in g.edges():
        lines.append(f"  {i} {arrow} {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _to_graphml(g: DirectedGraph) -> str:
    default = "directed" if g.directed else "undirected"
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="size" for="node" attr.name="size" attr.type="int"/>',
        f'  <graph id="G" edgedefault="{default}">',
    ]
    for n in g.ids:
        lines.append(
            f'    <node id="n{n}"><data key="size">{g.in_degree(n)}</data></node>'
        )
    for i, j in g.edges():
        lines.append(f'    <edge source="n{i}" target="n{j}"/>')
    lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"
