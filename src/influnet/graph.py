"""Directed graph container and edge-list ingestion.

Nodes are non-negative integers.  An edge (i, j) records that account i
follows account j.  The container is immutable once built: mutators return
new graphs.  Undirected graphs reuse the same storage with a symmetric arc
set and report each unordered pair as a single edge.
"""

from __future__ import annotations

import io
import logging
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

from .errors import EdgeListParseError

log = logging.getLogger(__name__)

EDGE_CSV_HEADER = "i,j"


class DirectedGraph:
    """Immutable adjacency-indexed graph."""

    __slots__ = ("_out", "_in", "_nodes", "_arcs", "directed")

    def __init__(
        self,
        edges: Iterable[tuple[int, int]] = (),
        nodes: Iterable[int] = (),
        directed: bool = True,
    ) -> None:
        arcs: set[tuple[int, int]] = set()
        node_set: set[int] = set()
        for n in nodes:
            _check_node(n)
            node_set.add(n)
        for i, j in edges:
            _check_node(i)
            _check_node(j)
            if i == j:
                raise ValueError(f"self-loop on node {i}")
            arcs.add((i, j))
            if not directed:
                arcs.add((j, i))
            node_set.add(i)
            node_set.add(j)
        out: dict[int, list[int]] = {n: [] for n in node_set}
        inc: dict[int, list[int]] = {n: [] for n in node_set}
        for i, j in sorted(arcs):
            out[i].append(j)
            inc[j].append(i)
        self._out = {n: tuple(v) for n, v in out.items()}
        self._in = {n: tuple(sorted(v)) for n, v in inc.items()}
        self._nodes = frozenset(node_set)
        self._arcs = frozenset(arcs)
        self.directed = directed

    @property
    def nodes(self) -> frozenset[int]:
        return self._nodes

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        if self.directed:
            return len(self._arcs)
        return len(self._arcs) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges in sorted order; one row per unordered pair when undirected."""
        for i, j in sorted(self._arcs):
            if not self.directed and i > j:
                continue
            yield (i, j)

    def arc_set(self) -> frozenset[tuple[int, int]]:
        return self._arcs

    def has_node(self, n: int) -> bool:
        return n in self._nodes

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self._arcs

    def out_neighbors(self, n: int) -> tuple[int, ...]:
        """Accounts that n follows."""
        return self._out[n]

    def in_neighbors(self, n: int) -> tuple[int, ...]:
        """Accounts that follow n."""
        return self._in[n]

    def out_degree(self, n: int) -> int:
        return len(self._out[n])

    def in_degree(self, n: int) -> int:
        return len(self._in[n])

    def __contains__(self, n: int) -> bool:
        return n in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return (
            self.directed == other.directed
            and self._nodes == other._nodes
            and self._arcs == other._arcs
        )

    def __hash__(self) -> int:
        return hash((self.directed, self._nodes, self._arcs))

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"<DirectedGraph {kind} nodes={self.node_count} edges={self.edge_count}>"


def _check_node(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"node ids must be non-negative integers, got {n!r}")


@dataclass(frozen=True)
class IngestResult:
    """Parsed graph plus counters for rows that were silently repaired."""

    graph: DirectedGraph
    self_loops_dropped: int
    duplicates_dropped: int


def ingest_edge_csv(source: str | TextIO | Iterable[str]) -> IngestResult:
    """Parse a two-column edge CSV into a directed graph.

    The first non-blank line must be a header; one that reads as two
    integer ids is taken for a missing header and rejected, so no edge is
    lost.  Each following row is ``i,j`` meaning account i follows account
    j.  Self-loops and repeated rows are dropped and counted.  Malformed
    rows raise :class:`EdgeListParseError` with the offending line number.
    """
    if isinstance(source, str):
        lines: Iterable[str] = io.StringIO(source)
    else:
        lines = source
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    loops = 0
    dupes = 0
    header_seen = False
    line_no = 0
    for line_no, raw in enumerate(lines, start=1):
        row = raw.strip()
        if not row:
            continue
        if not header_seen:
            header_seen = True
            if _is_edge_row(row):
                raise EdgeListParseError(
                    f"missing header row; first row {row!r} is an edge", line_no
                )
            continue
        parts = row.split(",")
        if len(parts) != 2:
            raise EdgeListParseError(
                f"expected 2 comma-separated fields, got {len(parts)}", line_no
            )
        try:
            i = int(parts[0].strip())
            j = int(parts[1].strip())
        except ValueError:
            raise EdgeListParseError(f"non-integer node id in {row!r}", line_no) from None
        if i < 0 or j < 0:
            raise EdgeListParseError(f"negative node id in {row!r}", line_no)
        if i == j:
            loops += 1
            continue
        if (i, j) in seen:
            dupes += 1
            continue
        seen.add((i, j))
        edges.append((i, j))
    if not header_seen:
        raise EdgeListParseError("missing header row", max(line_no, 1))
    if loops:
        log.warning("dropped %d self-loop row(s)", loops)
    if dupes:
        log.warning("dropped %d duplicate row(s)", dupes)
    return IngestResult(DirectedGraph(edges), loops, dupes)


def _is_edge_row(row: str) -> bool:
    parts = row.split(",")
    if len(parts) != 2:
        return False
    try:
        int(parts[0].strip())
        int(parts[1].strip())
    except ValueError:
        return False
    return True


def parse_edge_csv(source: str | TextIO | Iterable[str]) -> DirectedGraph:
    """Parse a two-column edge CSV, discarding the repair counters."""
    return ingest_edge_csv(source).graph


def to_edge_csv(g: DirectedGraph) -> str:
    """Serialize a graph to the same CSV schema ``parse_edge_csv`` reads.

    Rows are sorted, so equal graphs serialize to identical bytes.
    """
    out = [EDGE_CSV_HEADER]
    out.extend(f"{i},{j}" for i, j in g.edges())
    return "\n".join(out) + "\n"


def weakly_connected_components(g: DirectedGraph) -> list[frozenset[int]]:
    """Components of the graph with edge direction ignored.

    Ordered largest first; ties broken by smallest member id.
    """
    unvisited = set(g.nodes)
    comps: list[frozenset[int]] = []
    while unvisited:
        start = unvisited.pop()
        comp = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in g.out_neighbors(v) + g.in_neighbors(v):
                if w in unvisited:
                    unvisited.remove(w)
                    comp.add(w)
                    queue.append(w)
        comps.append(frozenset(comp))
    comps.sort(key=lambda c: (-len(c), min(c)))
    return comps


def induced_subgraph(g: DirectedGraph, keep: Iterable[int]) -> DirectedGraph:
    """Restrict the graph to ``keep``, retaining edges with both ends inside."""
    keep_set = frozenset(keep)
    unknown = keep_set - g.nodes
    if unknown:
        raise ValueError(f"unknown node id(s): {sorted(unknown)[:5]}")
    arcs = [(i, j) for i, j in g.arc_set() if i in keep_set and j in keep_set]
    return DirectedGraph(arcs, nodes=keep_set, directed=g.directed)


def largest_core(g: DirectedGraph) -> DirectedGraph:
    """Induced subgraph on the largest weakly connected component.

    A weakly connected graph is its own core and comes back as the same
    object, so callers can test ``core is g`` to skip repeating work.
    """
    if g.node_count == 0:
        raise ValueError("empty graph has no core")
    comps = weakly_connected_components(g)
    if len(comps) == 1:
        return g
    kept = len(comps[0])
    log.info(
        "core: kept %d of %d nodes (%d outside the largest weak component)",
        kept,
        g.node_count,
        g.node_count - kept,
    )
    return induced_subgraph(g, comps[0])
