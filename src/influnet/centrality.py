"""Node importance measures on the follow graph.

Betweenness runs over directed shortest paths and is normalized by
(n - 1)(n - 2), the count of ordered pairs a node could sit between.
Eigenvector centrality scores flow along influence: an account's score is
the sum of its followers' scores, iterated to a fixed point under an L2
norm.  Degree columns come straight off the adjacency.

Each measure returns a plain ``{node: score}`` dict (``degree_table`` the
in- and out-degree pair); :func:`full_table` runs them all and holds the
four columns in one :class:`CentralityTable`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .errors import ConvergenceError
from .graph import DirectedGraph

log = logging.getLogger(__name__)

MEASURES = ("in_degree", "betweenness", "eigenvector")


@dataclass(frozen=True)
class CentralityTable:
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
    each source's BFS keeps distances, path counts and visit order only,
    and the backward pass adds every node's dependency straight into the
    running total.  Sources are folded in node order, and the inner sums
    are plain left-to-right float additions, so the result does not depend
    on the interpreter's ``sum`` implementation.
    """
    ids = g.ids
    n = len(ids)
    if n < 3:
        log.warning("betweenness is identically 0 on graphs with fewer than 3 nodes")
        return {v: 0.0 for v in ids}
    adj = g.out
    acc = [0.0] * n
    # coeff[x] = (1 + delta[x]) / sigma[x]; an entry is read only for a node
    # one level deeper than the reader in the current source's BFS, and such
    # a node was written earlier in the same backward pass, so the list is
    # never reset between sources.
    coeff = [0.0] * n
    for s in range(n):
        dist = [-1] * n
        sigma = [0] * n
        dist[s] = 0
        sigma[s] = 1
        order = [s]
        for v in order:  # order grows while it is walked: a FIFO queue
            d = dist[v] + 1
            sv = sigma[v]
            for w in adj[v]:
                dw = dist[w]
                if dw < 0:
                    dist[w] = d
                    sigma[w] = sv
                    order.append(w)
                elif dw == d:
                    sigma[w] += sv
        for w in order[:0:-1]:  # reverse BFS order, source excluded
            d = dist[w] + 1
            t = 0.0
            for x in adj[w]:
                if dist[x] == d:
                    t += coeff[x]
            sw = sigma[w]
            delta = sw * t
            coeff[w] = (1.0 + delta) / sw
            acc[w] += delta
    scale = 1.0 / ((n - 1) * (n - 2))
    return {ids[k]: acc[k] * scale for k in range(n)}


def eigenvector_centrality(
    g: DirectedGraph,
    tol: float = 1e-10,
    max_iter: int = 1000,
    shifted: bool = False,
) -> dict[int, float]:
    """Dominant-eigenvector scores by power iteration.

    Each step replaces a node's score with the sum of its followers'
    scores, then renormalizes to unit L2 norm.  Iteration stops once the
    largest componentwise change drops below ``tol`` and the vector is an
    eigenvector to within a small residual; exceeding ``max_iter`` raises
    :class:`ConvergenceError` carrying the last iterate.

    With ``shifted`` the step also adds the node's own score, iterating
    A + I instead of A.  The eigenvectors are the same, but on a strongly
    connected graph whose cycle lengths share a factor (a bipartite core,
    say) the dominant eigenvalue of A + I is strictly dominant, so the
    iteration settles where plain iteration oscillates forever.

    On a graph without a directed cycle A is nilpotent, so some step maps
    the iterate to zero.  The last nonzero iterate is then returned: an
    exact eigenvector for eigenvalue 0 (A x = 0).  From the uniform start
    it scores each account by the number of longest follow chains (of the
    graph's maximum length) that end at it, so on the chain 1->2->3->4 all
    weight lands on 4, the account at the top of the chain.
    """
    if g.node_count == 0:
        raise ValueError("empty graph")
    ids = g.ids
    n = len(ids)
    followers = tuple(f + (k,) for k, f in enumerate(g.inc)) if shifted else g.inc
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
        if change < tol and residual < 10.0 * tol:
            return dict(zip(ids, x))
        x = y
    raise ConvergenceError(
        f"eigenvector iteration did not settle within {max_iter} steps",
        iterate=dict(zip(ids, x)),
        residual=residual,
    )


def full_table(
    g: DirectedGraph,
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> CentralityTable:
    """All four measures for one graph.

    If plain eigenvector iteration does not settle, it is retried once with
    shifted iteration (A + I), which has the same eigenvectors.
    """
    try:
        eig = eigenvector_centrality(g, tol=tol, max_iter=max_iter)
    except ConvergenceError as exc:
        log.warning(
            "%s (residual %.3g); retrying with shifted iteration A + I",
            exc,
            exc.residual,
        )
        eig = eigenvector_centrality(g, tol=tol, max_iter=max_iter, shifted=True)
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


CENTRALITY_COLUMNS = (
    ("node", False),
    ("in_degree", False),
    ("out_degree", False),
    ("betweenness", True),
    ("eigenvector", True),
)


def centrality_rows(table: CentralityTable) -> list[tuple]:
    """One row per node, sorted by in-degree then node id."""
    ind = table.in_degree
    return [
        (v, ind[v], table.out_degree[v], table.betweenness[v], table.eigenvector[v])
        for v in sorted(ind, key=lambda v: (-ind[v], v))
    ]
