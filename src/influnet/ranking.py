"""Candidate shortlisting, spreading-score ranking, and the final pick.

Candidates are the union of the top-k lists by follower count,
betweenness, and eigenvector score.  Each candidate seeds one cascade at
the same ``theta`` and ``max_days``; candidates are then ordered by
spreading score with centrality columns as tie-breakers.  A correlation
matrix over the ranking columns shows which structural measures track
simulated reach.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .centrality import MEASURES, CentralityTable, top_k
from .diffusion import linear_threshold_run, spreading_score
from .graph import DirectedGraph


class RankRecord(NamedTuple):
    """One candidate's centrality profile and cascade; the score is derived on each read."""

    node: int
    in_degree: int
    out_degree: int
    eigenvector: float
    betweenness: float
    days_required: int
    proportion_reached: float

    @property
    def score(self) -> float:
        return spreading_score(self.proportion_reached, self.days_required)


class Recommendation(NamedTuple):
    node: int
    score: float
    rationale: dict


def select_candidates(table: CentralityTable, k: int = 10) -> set[int]:
    """Union of the top-k node lists across the three headline measures."""
    chosen: set[int] = set()
    for measure in MEASURES:
        chosen.update(top_k(table, measure, k))
    return chosen


def _rank_key(r: RankRecord) -> tuple:
    return (-r.score, -r.eigenvector, -r.betweenness, -r.in_degree, r.node)


def rank_candidates(
    g: DirectedGraph,
    candidates: Sequence[int] | set[int],
    table: CentralityTable,
    theta: float,
    max_days: int = 15,
) -> list[RankRecord]:
    """Seed one cascade per candidate and order the results.

    Primary order is spreading score, descending; ties fall back to
    eigenvector, betweenness, then follower count, and finally the node id
    ascending so equal profiles rank reproducibly.
    """
    pool = sorted(set(candidates))
    if not pool:
        raise ValueError("no candidates to rank")
    missing = [v for v in pool if v not in g]
    if missing:
        raise ValueError(f"candidate(s) not in graph: {missing[:5]}")
    traces = [linear_threshold_run(g, v, theta, max_days) for v in pool]
    records = [
        RankRecord(
            node=v,
            in_degree=table.in_degree[v],
            out_degree=table.out_degree[v],
            eigenvector=table.eigenvector[v],
            betweenness=table.betweenness[v],
            days_required=tr.saturation_day,
            proportion_reached=tr.proportion_reached,
        )
        for v, tr in zip(pool, traces)
    ]
    records.sort(key=_rank_key)
    return records


def recommend(records: Sequence[RankRecord]) -> Recommendation:
    """Pick the winner and say which structural measures it also leads."""
    if not records:
        raise ValueError("no records to recommend from")
    best = min(records, key=_rank_key)
    rationale = {
        "max_in_degree": best.in_degree == max(r.in_degree for r in records),
        "max_betweenness": best.betweenness == max(r.betweenness for r in records),
        "max_eigenvector": best.eigenvector == max(r.eigenvector for r in records),
        "candidates_considered": len(records),
        "days_required": best.days_required,
        "proportion_reached": best.proportion_reached,
    }
    return Recommendation(node=best.node, score=best.score, rationale=rationale)


class CorrelationMatrix(NamedTuple):
    """Pearson coefficients over rank columns; None marks 0/0 cases."""

    labels: tuple[str, ...]
    values: tuple[tuple[float | None, ...], ...]


def _pearson(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    dx = [x - mx for x in xs]
    dy = [y - my for y in ys]
    vx = math.fsum(d * d for d in dx)
    vy = math.fsum(d * d for d in dy)
    if vx == 0.0 or vy == 0.0:
        return None
    r = math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(vx * vy)
    return max(-1.0, min(1.0, r))


def correlation_matrix(records: Sequence[RankRecord]) -> CorrelationMatrix:
    """Pairwise Pearson correlation of every ranking column.

    A column with no variance has no defined correlation with anything,
    itself included; those entries are None rather than a fabricated 0 or 1.
    """
    if not records:
        raise ValueError("correlation needs at least 1 record")
    labels = (*RankRecord._fields, "score")
    series = {name: [float(getattr(r, name)) for r in records] for name in labels}
    constant = {name for name, xs in series.items() if min(xs) == max(xs)}
    rows: list[tuple[float | None, ...]] = []
    for a in labels:
        row: list[float | None] = []
        for b in labels:
            if a in constant or b in constant:
                row.append(None)
            elif a == b:
                row.append(1.0)
            else:
                row.append(_pearson(series[a], series[b]))
        rows.append(tuple(row))
    return CorrelationMatrix(labels=labels, values=tuple(rows))
