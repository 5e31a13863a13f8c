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
read them.  The constructor validates outside input and numbers each
distinct id at first sight; ingest numbers each distinct id text the same
way as it parses, without building an edge list.  Both hand their
numbered rows to ``_index``, the one place that sorts the ids and
deduplicates and sorts each row.  A graph derived from rows already in
index form (the ingested graph, the core, the random baselines) is adopted
unchecked by the one builder ``_from_index``.
"""

from __future__ import annotations

import io
import logging
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
        # Each distinct id is numbered at first sight: ids[k] is id number k,
        # and rows[k] holds the numbers it points to, repeats included.
        number: dict[int, int] = {}
        ids: list[int] = []
        rows: list[list[int]] = []
        for n in nodes:
            _check_node(n)
            if number.setdefault(n, len(ids)) == len(ids):
                ids.append(n)
                rows.append([])
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
            x = number.setdefault(i, len(ids))
            if x == len(ids):
                ids.append(i)
                rows.append([])
            y = number.setdefault(j, len(ids))
            if y == len(ids):
                ids.append(j)
                rows.append([])
            rows[x].append(y)
            if not directed:
                rows[y].append(x)
        pos, out = _index(ids, rows)
        self._set_index(pos, out, directed)

    def _set_index(
        self,
        pos: dict[int, int],
        out: tuple[tuple[int, ...], ...],
        directed: bool,
        inc: tuple[tuple[int, ...], ...] | None = None,
    ) -> None:
        """Adopt a valid index: ``pos`` maps ids, ascending, to 0..n-1; each out[p] is sorted.

        An undirected graph's arcs must be symmetric; its ``inc`` is then
        ``out`` itself, since followers and followees coincide.  A directed
        graph's ``inc`` is built from ``out`` unless the caller has it.
        """
        self.ids = ids = tuple(pos)
        self.pos = pos
        self.out = out
        if not directed:
            inc = out
        elif inc is None:
            # Sources are visited in position order, so each inc[q] comes out sorted.
            rev: list[list[int]] = [[] for _ in ids]
            for p, targets in enumerate(out):
                for q in targets:
                    rev[q].append(p)
            inc = tuple(map(tuple, rev))
        self.inc = inc
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
    pos: dict[int, int],
    out: tuple[tuple[int, ...], ...],
    directed: bool,
    inc: tuple[tuple[int, ...], ...] | None = None,
) -> DirectedGraph:
    """The graph adopting an index valid by construction, as ``_set_index`` requires."""
    g = DirectedGraph.__new__(DirectedGraph)
    g._set_index(pos, out, directed, inc)
    return g


def _index(
    ids: list[int], rows: list[list[int]]
) -> tuple[dict[int, int], tuple[tuple[int, ...], ...]]:
    """``pos`` and ``out`` for the distinct ``ids``; rows[k] lists the numbers
    (indexes into ``ids``) that ids[k] points to, repeats allowed.

    One sort of the ids gives every node its position; each row is then
    deduplicated, mapped to positions and sorted.
    """
    order = sorted(range(len(ids)), key=ids.__getitem__)
    rank = [0] * len(ids)
    pos: dict[int, int] = {}
    for p, k in enumerate(order):
        rank[k] = pos[ids[k]] = p  # one int object per position, shared by every row
    new = rank.__getitem__
    out = tuple([tuple(sorted(map(new, set(rows[k])))) for k in order])
    return pos, out


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
    file is.  Ids written with leading zeros (``7`` and ``007``) are one
    node, and an id that appears only in self-loops is no node.

    The rows number the ids as they are parsed and are indexed by
    ``_index`` directly; no edge list is built and the validating
    constructor does not run.
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
    # Each distinct id text is numbered at first sight (``7`` and ``007``
    # share the number of id 7), so int() runs once per text, not per row;
    # ids[k] is id number k and rows[k] the numbers it follows, repeats
    # included.  An id seen only in self-loops gets no number.
    num: dict[str, int] = {}
    by_value: dict[int, int] = {}
    ids: list[int] = []
    rows: list[list[int]] = []

    def numbered(text: str, v: int) -> int:
        k = by_value.setdefault(v, len(ids))
        if k == len(ids):
            ids.append(v)
            rows.append([])
        num[text] = k
        return k

    known = num.get  # bound once: the row loop below is ingest's hot path
    loops = 0
    try:
        for line_no, raw in enumerate(lines, start=line_no + 1):
            row = raw.strip()
            a, _, b = row.partition(",")
            x = known(a)
            y = known(b)
            if x is None or y is None:
                # A field never numbered: judge the row.  A numbered text is
                # plain digits, so a row of two of them is valid as it stands.
                if not (a.isdigit() and b.isdigit() and row.isascii()):
                    if not row:
                        continue
                    a, b = _fields(row)
                    x = known(a)
                    y = known(b)
                i = int(a) if x is None else ids[x]
                j = int(b) if y is None else ids[y]
                if i == j:
                    loops += 1
                    continue
                if x is None:
                    x = numbered(a, i)
                if y is None:
                    y = numbered(b, j)
            elif x == y:
                loops += 1
                continue
            rows[x].append(y)
    except ValueError as exc:  # from _fields, or int() past the int-string limit
        raise EdgeListParseError(str(exc), line_no) from None
    graph = _from_index(*_index(ids, rows), directed=True)
    # Each repeated row is one arc fewer in the directed graph.
    dupes = sum(map(len, rows)) - graph.edge_count
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
    """The subgraph on the sorted positions ``kept``, a union of weak components.

    No arc leaves a weak component, so every ``out`` and ``inc`` row of a
    kept node lies wholly in ``kept``: the rows are renumbered in place of
    a rebuild, and stay sorted because ``kept`` is.
    """
    remap = [-1] * g.node_count
    pos: dict[int, int] = {}
    for k, p in enumerate(kept):
        remap[p] = pos[g.ids[p]] = k
    new = remap.__getitem__
    out = tuple([tuple(map(new, g.out[p])) for p in kept])
    inc = tuple([tuple(map(new, g.inc[p])) for p in kept]) if g.directed else None
    return _from_index(pos, out, g.directed, inc)


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
