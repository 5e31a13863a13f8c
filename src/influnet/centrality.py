"""Node importance measures on the follow graph.

Betweenness runs over directed shortest paths and is normalized by
(n - 1)(n - 2), the count of ordered pairs a node could sit between.
Eigenvector centrality scores flow along influence: an account's score is
the sum of its followers' scores, iterated under an L2 norm until it
settles to the fixed tolerance ``_TOL``, and retried on A + I where it
oscillates.  Degree columns come straight off the adjacency.

Each measure returns a plain ``{node: score}`` dict (``degree_table`` the
in- and out-degree pair); :func:`full_table` only runs them all and holds
the four columns, each equal to its function's result, in one
:class:`CentralityTable`.

Betweenness is a sum over sources of each source's dependencies (Brandes
2001), and on large graphs the sources are shared among forked processes,
one per usable CPU.  The workers send back one dependency row per source,
and the rows are added to the running total in source order, so every
score is the same float sum, bit for bit, however many processes ran.
Each source's BFS records its shortest-path DAG, so the backward pass
walks only the arcs that lie on shortest paths; a source with more
shortest paths to some node than a float can count takes the same pass
in ratio form.  The eigenvector solver's :class:`ConvergenceError` is
defined here too.
"""

from __future__ import annotations

import logging
import math
import os
import signal
import threading
import traceback
from array import array
from collections.abc import Iterable
from itertools import repeat
from operator import add
from typing import BinaryIO, NamedTuple, NoReturn

from .graph import DirectedGraph

log = logging.getLogger(__name__)

MEASURES = ("in_degree", "betweenness", "eigenvector")

# Betweenness deals its sources to forked processes in blocks of _BLOCK,
# with at least _FORK_WORK units of n * arcs per process.  On a 2-vCPU
# x86-64 host (Python 3.11), in fresh `influnet centrality` processes on
# bench/gen.py graphs, two processes beat one at n * arcs = 7.4e6 (874
# nodes: 0.48-0.50 s against 0.72-0.81 s, medians of 8 pairs) but gave
# nothing at 0.8e6, 1.9e6, 4.0e6 or 5.4e6.
_BLOCK = 8
_FORK_WORK = 2_000_000

# A source whose largest shortest-path count reaches _SIGMA_CAP takes the
# ratio form of the backward pass (_ratio_dependencies): a float holds
# counts below 2**1024 only.
_SIGMA_CAP = 1 << 1000

# Power iteration stops once every score moves by less than _TOL and the
# residual is below 10 * _TOL.  Reports print 6 decimals.  On the seed-0
# 874-node bench/gen.py graph, 1e-3 and 1e-6 change the centrality report,
# 1e-15 gives the same bytes as 1e-10, and at 1e-17 neither plain
# iteration (stalled at residual 1.78e-15) nor the A + I retry settles.
_TOL = 1e-10


class ConvergenceError(RuntimeError):
    """Raised when an iterative solver exhausts its iteration budget.

    The last iterate and its residual are attached so callers can inspect
    how far the computation got.
    """

    def __init__(self, message: str, iterate: dict, residual: float) -> None:
        super().__init__(message)
        self.iterate = iterate
        self.residual = residual


class CentralityTable(NamedTuple):
    """The four per-node score columns of one graph, keyed by node id."""

    in_degree: dict[int, int]
    out_degree: dict[int, int]
    betweenness: dict[int, float]
    eigenvector: dict[int, float]


def degree_table(g: DirectedGraph) -> tuple[dict[int, int], dict[int, int]]:
    """In-degree (follower count) and out-degree (following count) per node."""
    return (
        {n: len(f) for n, f in zip(g.ids, g.inc)},
        {n: len(f) for n, f in zip(g.ids, g.out)},
    )


def betweenness_centrality(g: DirectedGraph) -> dict[int, float]:
    """Fraction of directed shortest paths passing through each node.

    Brandes' algorithm with dependencies accumulated in successor form:
    each source's BFS keeps distances, exact integer path counts, visit
    order and every node's successors on the shortest-path DAG, and the
    backward pass sums over those successors only, then adds every node's
    dependency to the running total.  Each node's total is a plain
    left-to-right float sum of its dependencies over sources in node
    order, so the result does not depend on the interpreter's ``sum``
    implementation, nor on how many processes share the sources (see
    :func:`_betweenness_acc`).  Any number of shortest paths is fine: a
    source whose path counts reach ``_SIGMA_CAP`` works with ratios of
    them instead (see :func:`_ratio_dependencies`).
    """
    ids = g.ids
    n = len(ids)
    if n < 3:
        log.warning("betweenness is identically 0 on graphs with fewer than 3 nodes")
        return {v: 0.0 for v in ids}
    acc = _betweenness_acc(g.out, _processes(n * g.edge_count))
    scale = 1.0 / ((n - 1) * (n - 2))
    return {ids[k]: acc[k] * scale for k in range(n)}


def _processes(work: int) -> int:
    """Processes to share ``work`` = n * arcs units of Brandes work.

    One per usable CPU, but no more than one per ``_FORK_WORK`` units, and
    only one where ``os.fork`` is missing or another thread is alive (a
    forked child gets a copy of every lock, held or not, but only the
    calling thread).
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, work // _FORK_WORK))


def _betweenness_acc(adj: tuple[tuple[int, ...], ...], processes: int) -> list[float]:
    """Per position, the sum of its dependencies over all sources, in source order.

    The sources 0..n-1 are cut into blocks of ``_BLOCK``, and block k goes
    to process k mod P.  This process adds its own blocks straight into
    ``acc`` (with P = 1 that is every block, and nothing is forked); each
    forked worker runs each of its sources into a fresh row of zeros and
    writes the rows to a pipe as float64.  The rows are read back in
    source order and added to ``acc`` one at a time.  A fresh row
    holds ``0.0 + delta == delta`` and every entry of ``acc`` is at least
    +0.0, so ``acc[w] + 0.0 == acc[w]`` where a source adds nothing: each
    ``acc[w]`` is the same left-to-right sum, bit for bit, whatever P is.

    A worker that fails or exits early makes this raise ``RuntimeError``.
    On any exit every worker is killed and reaped: once its rows are all
    read, a worker has nothing left to do.
    """
    n = len(adj)
    blocks = [range(lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK)]
    procs = max(1, min(processes, len(blocks)))
    log.debug("betweenness: %d sources over %d processes", n, procs)
    acc = [0.0] * n
    workers: list[tuple[int, BinaryIO]] = []
    try:
        for k in range(1, procs):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                os.close(r)
                _worker(adj, blocks[k::procs], w)
            os.close(w)
            workers.append((pid, open(r, "rb")))
        for k, block in enumerate(blocks):
            if k % procs == 0:
                _brandes(adj, block, repeat(acc))
                continue
            pid, pipe = workers[k % procs - 1]
            for _ in block:
                row = array("d")
                try:
                    row.fromfile(pipe, n)
                except EOFError:
                    raise RuntimeError(f"betweenness worker {pid} exited early") from None
                acc = [*map(add, acc, row)]
    finally:
        for pid, pipe in workers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return acc


def _worker(adj: tuple[tuple[int, ...], ...], blocks: list[range], fd: int) -> NoReturn:
    """Forked worker: write each block's rows to ``fd`` as float64, then exit.

    It ends in ``os._exit`` whatever happens, so it never flushes the
    parent's stdio buffers or returns into the caller's stack.  The pipe
    is left for the exit to close, so the parent sees its end only after
    a failure's traceback is on stderr.
    """
    code = 1
    try:
        n = len(adj)
        out = open(fd, "wb")
        for block in blocks:
            rows = [[0.0] * n for _ in block]
            _brandes(adj, block, rows)
            for row in rows:
                out.write(array("d", row))
            out.flush()
        code = 0
    except BrokenPipeError:  # the parent stopped reading: it has failed or gone
        pass
    except Exception:
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)


def _brandes(adj: tuple[tuple[int, ...], ...], sources: Iterable[int],
             rows: Iterable[list[float]]) -> None:
    """Add each source's dependencies into its row, pairing them as ``zip`` does."""
    n = len(adj)
    # coeff[x] = (1 + delta[x]) / sigma[x]; an entry is read only for a DAG
    # successor of the reader, and such a node was written earlier in the
    # same backward pass, so the list is never reset between sources.
    coeff = [0.0] * n
    for s, acc in zip(sources, rows):
        # A node not reached has distance n, above every reached distance,
        # so an arc back into the BFS fails the one test dw >= d.
        dist = [n] * n
        sigma = [0] * n
        dist[s] = 0
        sigma[s] = 1
        order = [s]
        # succs[i] lists the successors of order[i] on the shortest-path DAG
        # (the w with dist[w] == dist[v] + 1) in adj order: the arcs the
        # backward pass needs, in the order a filter over adj would give.
        # A list is made per reached node only.
        succs = []
        for v in order:  # order grows while it is walked: a FIFO queue
            d = dist[v] + 1
            sv = sigma[v]
            succ = []
            succs.append(succ)
            for w in adj[v]:
                dw = dist[w]
                if dw >= d:
                    if dw == d:
                        sigma[w] += sv
                    else:
                        dist[w] = d
                        sigma[w] = sv
                        order.append(w)
                    succ.append(w)
        # float(sigma) overflows from 2**1024 on: such a source takes ratios.
        if max(sigma) >= _SIGMA_CAP:
            _ratio_dependencies(order, succs, sigma, acc)
            continue
        for w, succ in zip(order[:0:-1], succs[:0:-1]):  # reverse BFS order, source excluded
            sw = sigma[w]
            if not succ:  # delta is 0.0, and acc[w] + 0.0 == acc[w]
                coeff[w] = 1.0 / sw
                continue
            t = 0.0
            for x in succ:  # left to right: sum() is compensated from Python 3.12
                t += coeff[x]
            delta = sw * t
            coeff[w] = (1.0 + delta) / sw
            acc[w] += delta


def _ratio_dependencies(order: list[int], succs: list[list[int]], sigma: list[int],
                        acc: list[float]) -> None:
    """The backward pass for a source whose path counts a float cannot hold.

    delta[w] is the sum over w's DAG successors x of
    (sigma[w] / sigma[x]) * (1 + delta[x]).  sigma[x] >= sigma[w], and int
    / int true division is correctly rounded at any size, so no term
    overflows and every delta stays below n.
    """
    delta = [0.0] * len(sigma)
    for w, succ in zip(order[:0:-1], succs[:0:-1]):
        sw = sigma[w]
        t = 0.0
        for x in succ:
            t += sw / sigma[x] * (1.0 + delta[x])
        delta[w] = t
        acc[w] += t


def eigenvector_centrality(g: DirectedGraph, max_iter: int = 1000) -> dict[int, float]:
    """Dominant-eigenvector scores by power iteration.

    Each step replaces a node's score with the sum of its followers'
    scores, then renormalizes to unit L2 norm.  Iteration stops once the
    largest componentwise change drops below the fixed tolerance 1e-10,
    far below the 6 decimals a report prints, and the vector is an
    eigenvector to within a small residual.

    If plain iteration does not settle within ``max_iter`` steps, a warning
    is logged and A + I, which has the same eigenvectors, is iterated once
    in its place: on a strongly connected graph whose cycle lengths share
    a factor (a bipartite core, say) its dominant eigenvalue is strictly
    dominant, so it settles where plain iteration oscillates forever.  If
    it does not settle either, its :class:`ConvergenceError` carrying the
    last iterate propagates.

    On a graph without a directed cycle A is nilpotent, so some step maps
    the iterate to zero.  The last nonzero iterate is then returned: an
    exact eigenvector for eigenvalue 0 (A x = 0).  From the uniform start
    it scores each account by the number of longest follow chains (of the
    graph's maximum length) that end at it, so on the chain 1->2->3->4 all
    weight lands on 4, the account at the top of the chain.  Plain
    iteration reaches zero within n steps, so on such a graph the cap is
    raised to n + 1 when ``max_iter`` is smaller: a chain of any length
    settles, and no retry is needed.
    """
    if g.node_count == 0:
        raise ValueError("empty graph")
    cap = max(max_iter, g.node_count + 1) if _acyclic(g) else max_iter
    try:
        return _power_iteration(g.ids, g.inc, cap)
    except ConvergenceError as exc:
        log.warning("%s (residual %.3g); retrying with shifted iteration A + I",
                    exc, exc.residual)
    # A + I: every node counts itself as one more follower.
    followers = tuple(f + (k,) for k, f in enumerate(g.inc))
    return _power_iteration(g.ids, followers, max_iter)


def _power_iteration(ids: tuple[int, ...], followers: tuple[tuple[int, ...], ...],
                     max_iter: int) -> dict[int, float]:
    """Iterate x <- M x / |M x| from the uniform start, M[v][u] = 1 for u in followers[v]."""
    n = len(ids)
    x = [1.0 / math.sqrt(n)] * n
    residual = math.inf
    for _ in range(max_iter):
        y = [math.fsum(x[u] for u in followers[v]) for v in range(n)]
        norm = math.sqrt(math.fsum(c * c for c in y))
        if norm == 0.0:
            # x is annihilated by the step: an exact eigenvector for 0.
            return dict(zip(ids, x))
        lam = math.fsum(x[k] * y[k] for k in range(n))
        residual = max(abs(y[k] - lam * x[k]) for k in range(n))
        y = [c / norm for c in y]
        change = max(abs(y[k] - x[k]) for k in range(n))
        if change < _TOL and residual < 10.0 * _TOL:
            return dict(zip(ids, x))
        x = y
    raise ConvergenceError(
        f"eigenvector iteration did not settle within {max_iter} steps",
        iterate=dict(zip(ids, x)),
        residual=residual,
    )


def _acyclic(g: DirectedGraph) -> bool:
    """Whether ``g`` has no directed cycle: one Kahn pass, O(n + m)."""
    indegree = [len(f) for f in g.inc]
    ready = [v for v, d in enumerate(indegree) if d == 0]
    for v in ready:  # ready grows while it is walked
        for w in g.out[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    return len(ready) == g.node_count


def full_table(g: DirectedGraph, max_iter: int = 1000) -> CentralityTable:
    """All four measures for one graph."""
    eig = eigenvector_centrality(g, max_iter=max_iter)
    in_degree, out_degree = degree_table(g)
    return CentralityTable(in_degree, out_degree, betweenness_centrality(g), eig)


def top_k(table: CentralityTable, measure: str, k: int) -> list[int]:
    """Node ids with the k highest scores; ties fall to the smaller id."""
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; choose from {MEASURES}")
    if k < 1:
        raise ValueError("k must be >= 1")
    col = getattr(table, measure)
    ranked = sorted(col, key=lambda v: (-col[v], v))
    return ranked[:k]
