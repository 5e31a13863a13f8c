"""Directed graph container, edge-list ingestion, weak components and the core.

Nodes are non-negative integers.  An edge (i, j) records that account i
follows account j.  The container is immutable once built.  Undirected
graphs reuse the same storage with a symmetric arc set and report each
unordered pair as a single edge.

The graph is indexed once, and every algorithm reads that index: ``ids``
holds the node ids sorted ascending, ``pos`` maps each id to its position
in ``ids``, and ``out[p]`` and ``inc[p]`` are sorted tuples of the
positions node p follows and is followed by.  Positions follow id order,
so equal graphs have equal indexes; ``nodes``, ``edges`` and membership
read them.  The constructor validates outside input; a graph derived from
rows already in index form (the core, the random baselines) is adopted
unchecked by the one builder ``_from_index``.
"""

from __future__ import annotations

import io
import logging
from collections import defaultdict
from typing import Iterable, Iterator, KeysView, NamedTuple, TextIO

log = logging.getLogger(__name__)


class EdgeListParseError(ValueError):
    """Raised when an edge-list CSV row cannot be parsed.

    Carries the 1-based line number of the offending row.
    """

    def __init__(self, message: str, line_no: int) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DirectedGraph:
    """Immutable graph stored as one position index (see the module docstring)."""

    __slots__ = ("ids", "pos", "out", "inc", "directed", "edge_count")

    def __init__(
        self,
        edges: Iterable[tuple[int, int]] = (),
        nodes: Iterable[int] = (),
        directed: bool = True,
    ) -> None:
        node_set: set[int] = set()
        for n in nodes:
            _check_node(n)
            node_set.add(n)
        # The targets of each source id, repeats included until the sort below.
        succ: defaultdict[int, list[int]] = defaultdict(list)
        for i, j in edges:
            # A plain non-negative int is valid; anything else (a bool, a
            # float, an int subclass) gets the full check, so True is still
            # rejected after a valid arc from 1 has made 1 a key.
            if not (type(i) is int and i >= 0):
                _check_node(i)
            if not (type(j) is int and j >= 0):
                _check_node(j)
            if i == j:
                raise ValueError(f"self-loop on node {i}")
            succ[i].append(j)
            if not directed:
                succ[j].append(i)
        node_set.update(succ, *succ.values())
        pos = {v: k for k, v in enumerate(sorted(node_set))}
        out: list[tuple[int, ...]] = [()] * len(pos)
        for i, targets in succ.items():
            out[pos[i]] = tuple(map(pos.__getitem__, sorted(set(targets))))
        self._set_index(pos, tuple(out), directed)

    def _set_index(
        self, pos: dict[int, int], out: tuple[tuple[int, ...], ...], directed: bool
    ) -> None:
        """Adopt a valid index: ``pos`` maps ids, ascending, to 0..n-1; each out[p] is sorted.

        An undirected graph's arcs must be symmetric; its ``inc`` is then
        ``out`` itself, since followers and followees coincide.
        """
        self.ids = ids = tuple(pos)
        self.pos = pos
        self.out = out
        if directed:
            # Sources are visited in position order, so each inc[q] comes out sorted.
            inc: list[list[int]] = [[] for _ in ids]
            for p, targets in enumerate(out):
                for q in targets:
                    inc[q].append(p)
            self.inc = tuple(map(tuple, inc))
        else:
            self.inc = out
        self.directed = directed
        arcs = sum(map(len, out))
        self.edge_count = arcs if directed else arcs // 2

    @property
    def nodes(self) -> KeysView[int]:
        """The node ids, as a set-like view in ascending order."""
        return self.pos.keys()

    @property
    def node_count(self) -> int:
        return len(self.ids)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges in sorted order; one row per unordered pair when undirected."""
        ids = self.ids
        for p, targets in enumerate(self.out):
            for q in targets:
                if self.directed or p < q:
                    yield (ids[p], ids[q])

    def __contains__(self, n: int) -> bool:
        return n in self.pos

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return (self.directed, self.ids, self.out) == (other.directed, other.ids, other.out)

    def __hash__(self) -> int:
        return hash((self.directed, self.ids, self.out))

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"<DirectedGraph {kind} nodes={self.node_count} edges={self.edge_count}>"


def _from_index(
    pos: dict[int, int], out: tuple[tuple[int, ...], ...], directed: bool
) -> DirectedGraph:
    """The graph adopting an index valid by construction, as ``_set_index`` requires."""
    g = DirectedGraph.__new__(DirectedGraph)
    g._set_index(pos, out, directed)
    return g


def _check_node(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"node ids must be non-negative integers, got {n!r}")


class IngestResult(NamedTuple):
    """Parsed graph plus counters for rows that were silently repaired."""

    graph: DirectedGraph
    self_loops_dropped: int
    duplicates_dropped: int


def ingest_edge_csv(source: str | TextIO | Iterable[str]) -> IngestResult:
    """Parse a two-column edge CSV into a directed graph.

    The first non-blank line must be a header; one that reads as two
    integer ids (after any UTF-8 byte-order mark) is taken for a missing
    header and rejected, so no edge is lost.  Each following row is
    ``i,j`` meaning account i follows account j, each id written in ASCII
    decimal digits.  Self-loops and repeated rows are dropped and counted.
    Malformed rows raise :class:`EdgeListParseError` with the offending
    line number.  A ``str`` is split at LF, CRLF and CR alike, as a text
    file is.
    """
    lines = iter(io.StringIO(source, newline=None) if isinstance(source, str) else source)
    line_no = 0
    for line_no, raw in enumerate(lines, start=1):
        row = raw.strip()
        if row:
            # A UTF-8 byte-order mark would otherwise make a first edge
            # read as a header.
            row = row.removeprefix("\ufeff")
            if _is_edge_row(row):
                raise EdgeListParseError(
                    f"missing header row; first row {_quote(row)} is an edge", line_no
                )
            break
    else:
        raise EdgeListParseError("missing header row", max(line_no, 1))
    edges: list[tuple[int, int]] = []
    loops = 0
    try:
        for line_no, raw in enumerate(lines, start=line_no + 1):
            row = raw.strip()
            a, _, b = row.partition(",")
            # The common row, plain digits on both sides; _fields judges the rest.
            if not (a.isdigit() and b.isdigit() and row.isascii()):
                if not row:
                    continue
                a, b = _fields(row)
            i = int(a)
            j = int(b)
            if i == j:
                loops += 1
                continue
            edges.append((i, j))
    except ValueError as exc:  # from _fields, or int() past the int-string limit
        raise EdgeListParseError(str(exc), line_no) from None
    # The constructor drops repeated arcs; the graph is directed, so each
    # dropped row is one arc fewer.
    graph = DirectedGraph(edges)
    dupes = len(edges) - graph.edge_count
    if loops:
        log.warning("dropped %d self-loop row(s)", loops)
    if dupes:
        log.warning("dropped %d duplicate row(s)", dupes)
    return IngestResult(graph, loops, dupes)


def _fields(row: str) -> tuple[str, str]:
    """The two id fields of a stripped, non-blank row; a ValueError says why it is malformed."""
    parts = row.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 2 comma-separated fields, got {len(parts)}")
    a = parts[0].strip()
    b = parts[1].strip()
    # int() alone would also read "+3", "1_0" and non-ASCII digits.
    if not (row.isascii() and a.isdigit() and b.isdigit()):
        if row.isascii() and all(t.removeprefix("-").isdigit() for t in (a, b)):
            raise ValueError(f"negative node id in {_quote(row)}")
        raise ValueError(f"node ids must be decimal digits, got {_quote(row)}")
    return a, b


def _quote(row: str) -> str:
    """A row as an error message quotes it: its first 40 characters, with ... where it is cut."""
    return repr(row) if len(row) <= 40 else f"{row[:40]!r}..."


def _is_edge_row(row: str) -> bool:
    parts = row.split(",")
    if len(parts) != 2:
        return False
    try:
        for field in map(str.strip, parts):
            # Digits alone are an id, however many: int() refuses past the int-string limit.
            if not (field.isascii() and field.isdigit()):
                int(field)
    except ValueError:
        return False
    return True


def _components(g: DirectedGraph) -> list[list[int]]:
    """Weak components as sorted position lists, largest first, ties by smallest member.

    A directed node's neighbours are its ``out`` and ``inc`` rows.  An
    undirected row already lists every neighbour (``inc`` is ``out``), so
    it is walked once: ``row + ()`` is the row itself.
    """
    seen = [False] * g.node_count
    comps: list[list[int]] = []
    out = g.out
    inc = g.inc if g.directed else ((),) * g.node_count
    for s in range(g.node_count):
        if not seen[s]:
            seen[s] = True
            comp = [s]
            for v in comp:  # comp grows while it is walked: a FIFO queue
                for w in out[v] + inc[v]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
            comps.append(sorted(comp))
    comps.sort(key=lambda c: (-len(c), c[0]))
    return comps


def _restrict(g: DirectedGraph, kept: list[int]) -> DirectedGraph:
    """The subgraph induced on the sorted positions ``kept``, re-indexed in place of a rebuild."""
    remap = [-1] * g.node_count
    for k, p in enumerate(kept):
        remap[p] = k
    out = tuple(tuple([r for q in g.out[p] if (r := remap[q]) >= 0]) for p in kept)
    return _from_index({g.ids[p]: k for k, p in enumerate(kept)}, out, g.directed)


def largest_core(g: DirectedGraph) -> DirectedGraph:
    """Induced subgraph on the largest weakly connected component.

    A weakly connected graph is its own core and comes back as the same
    object, so callers can test ``core is g`` to skip repeating work.
    """
    if g.node_count == 0:
        raise ValueError("empty graph has no core")
    comps = _components(g)
    if len(comps) == 1:
        return g
    kept = len(comps[0])
    log.info(
        "core: kept %d of %d nodes (%d outside the largest weak component)",
        kept,
        g.node_count,
        g.node_count - kept,
    )
    return _restrict(g, comps[0])
