"""Every report's text: one table renderer, the column specs, one function per report.

A table is a column spec, a tuple of column names, plus rows given as
tuples in column order.  CSV writes a header line and one line per row;
JSON writes a list of one object per row, keys sorted.  One rule writes
every number, decided by the value's own type: in CSV a float is written
at 6 decimal places, ``None`` (an undefined cell) as ``undefined`` and
anything else as ``str(v)``; in JSON every float, at any depth, is
rounded to 6 places and ``None`` is ``null``.  ``sweep``, ``baseline``
and ``correlation`` have a JSON shape of their own.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Sequence

from .centrality import CentralityTable
from .diffusion import DiffusionTrace, spreading_score
from .metrics import NetworkSummary, SmallWorldVerdict
from .ranking import CorrelationMatrix, RankRecord, Recommendation

UNDEFINED = "undefined"

# A summary or verdict row is its label, then the record's fields in order.
SUMMARY_COLUMNS = (
    "network", "nodes", "edges", "avg_path_length", "avg_clustering", "diameter", "components",
)
VERDICT_COLUMNS = ("baseline", "sigma", "clustering_ratio", "path_length_ratio", "is_small_world")
CENTRALITY_COLUMNS = ("node", "in_degree", "out_degree", "betweenness", "eigenvector")
DAY_COLUMNS = ("seed", "theta", "day", "active_count", "proportion")
TRACE_COLUMNS = (
    "seed", "theta", "active_counts", "population", "saturation_day", "proportion_reached", "score",
)
# A rank row is the record's fields in order, then its derived score.
RANK_COLUMNS = (*RankRecord._fields, "score")


def _rounded(v: Any) -> Any:
    """``v`` with every float in it, at any depth, rounded to 6 places."""
    if isinstance(v, float):
        return round(v, 6)
    if isinstance(v, dict):
        return {k: _rounded(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_rounded(x) for x in v]
    return v


def _json(payload: Any) -> str:
    return json.dumps(_rounded(payload), indent=2, sort_keys=True) + "\n"


def _records(columns: Sequence[str], rows: Iterable[tuple]) -> list[dict[str, Any]]:
    """Rows as objects keyed by column name."""
    return [dict(zip(columns, row)) for row in rows]


def render(columns: Sequence[str], rows: Iterable[tuple], fmt: str) -> str:
    """The table as ``csv`` or ``json`` text."""
    if fmt == "json":
        return _json(_records(columns, rows))
    if fmt != "csv":
        raise ValueError(f"unknown table format {fmt!r}; choose csv or json")
    out = [",".join(columns)]
    for row in rows:
        out.append(",".join(
            UNDEFINED if v is None else f"{v:.6f}" if isinstance(v, float) else str(v)
            for v in row
        ))
    return "\n".join(out) + "\n"


def summary(rows: Iterable[tuple[str, NetworkSummary]], fmt: str) -> str:
    """One row per ``(label, summary)`` pair."""
    return render(SUMMARY_COLUMNS, [(label, *s) for label, s in rows], fmt)


def baseline(
    rows: Iterable[tuple[str, NetworkSummary]],
    verdicts: Iterable[tuple[str, SmallWorldVerdict | None]],
    fmt: str,
) -> str:
    """The summaries; JSON adds one verdict per baseline, all ``null`` where undefined."""
    if fmt != "json":
        return summary(rows, fmt)
    blank = (None,) * (len(VERDICT_COLUMNS) - 1)
    return _json({
        "summaries": _records(SUMMARY_COLUMNS, [(label, *s) for label, s in rows]),
        "verdicts": _records(VERDICT_COLUMNS, [
            (label, *(blank if v is None else v)) for label, v in verdicts
        ]),
    })


def centrality(table: CentralityTable, fmt: str) -> str:
    """One row per node, sorted by in-degree then node id."""
    ind = table.in_degree
    return render(CENTRALITY_COLUMNS, [
        (v, ind[v], table.out_degree[v], table.betweenness[v], table.eigenvector[v])
        for v in sorted(ind, key=lambda v: (-ind[v], v))
    ], fmt)


def sweep(traces: Iterable[DiffusionTrace], fmt: str) -> str:
    """CSV: one row per simulated day.  JSON: one object per trace, with its whole history."""
    if fmt == "json":
        return render(TRACE_COLUMNS, [
            (tr.seed, tr.theta, list(tr.active_counts), tr.population,
             tr.saturation_day, tr.proportion_reached,
             spreading_score(tr.proportion_reached, tr.saturation_day))
            for tr in traces
        ], fmt)
    return render(DAY_COLUMNS, [
        (tr.seed, tr.theta, day, count, count / tr.population)
        for tr in traces
        for day, count in enumerate(tr.active_counts)
    ], fmt)


def rank(records: Iterable[RankRecord], fmt: str) -> str:
    return render(RANK_COLUMNS, [(*r, r.score) for r in records], fmt)


def correlation(matrix: CorrelationMatrix, fmt: str) -> str:
    """CSV: a square table, labels down the side and across the top.  JSON: labels and values."""
    if fmt == "json":
        return _json(matrix._asdict())
    rows = [(label, *row) for label, row in zip(matrix.labels, matrix.values)]
    return render(("", *matrix.labels), rows, fmt)


def recommendation(rec: Recommendation) -> str:
    return _json(rec._asdict())
