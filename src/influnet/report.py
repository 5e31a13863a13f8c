"""Every report's text: one table renderer, the column specs, one function per report.

A table is a column spec, a sequence of ``(name, real)`` pairs, plus rows
given as tuples in column order.  CSV writes a header line and one line
per row, reals at 6 decimal places; JSON writes a list of one object per
row, keys sorted, reals rounded to 6 places.  ``None`` marks an undefined
cell: ``undefined`` in CSV, ``null`` in JSON.  ``sweep``, ``baseline``
and ``correlation`` have a JSON shape of their own.
"""

from __future__ import annotations

import json
from dataclasses import astuple, fields
from typing import Any, Iterable, Sequence, get_type_hints

from .centrality import CentralityTable
from .diffusion import DiffusionTrace, spreading_capacity
from .metrics import NetworkSummary, SmallWorldVerdict
from .ranking import CorrelationMatrix, RankRecord, Recommendation

Columns = Sequence[tuple[str, bool]]

UNDEFINED = "undefined"

# A summary or verdict row is its label, then the dataclass's fields in order.
SUMMARY_COLUMNS = (
    ("network", False),
    ("nodes", False),
    ("edges", False),
    ("avg_path_length", True),
    ("avg_clustering", True),
    ("diameter", False),
    ("components", False),
)

VERDICT_COLUMNS = (
    ("baseline", False),
    ("sigma", True),
    ("clustering_ratio", True),
    ("path_length_ratio", True),
    ("is_small_world", False),
)

CENTRALITY_COLUMNS = (
    ("node", False),
    ("in_degree", False),
    ("out_degree", False),
    ("betweenness", True),
    ("eigenvector", True),
)

DAY_COLUMNS = (
    ("seed", False),
    ("theta", True),
    ("day", False),
    ("active_count", False),
    ("proportion", True),
)

TRACE_COLUMNS = (
    ("seed", False),
    ("theta", True),
    ("active_counts", False),
    ("population", False),
    ("saturation_day", False),
    ("proportion_reached", True),
    ("score", True),
)

_RANK_TYPES = get_type_hints(RankRecord)
RANK_COLUMNS = tuple((f.name, _RANK_TYPES[f.name] is float) for f in fields(RankRecord))


def _json(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _records(columns: Columns, rows: Iterable[tuple]) -> list[dict[str, Any]]:
    """Rows as JSON-ready objects keyed by column name."""
    return [
        {
            name: round(v, 6) if real and v is not None else v
            for (name, real), v in zip(columns, row)
        }
        for row in rows
    ]


def render(columns: Columns, rows: Iterable[tuple], fmt: str) -> str:
    """The table as ``csv`` or ``json`` text."""
    if fmt == "json":
        return _json(_records(columns, rows))
    if fmt != "csv":
        raise ValueError(f"unknown table format {fmt!r}; choose csv or json")
    out = [",".join(name for name, _ in columns)]
    for row in rows:
        out.append(",".join(
            UNDEFINED if v is None else f"{v:.6f}" if real else str(v)
            for (_, real), v in zip(columns, row)
        ))
    return "\n".join(out) + "\n"


def summary(rows: Iterable[tuple[str, NetworkSummary]], fmt: str) -> str:
    """One row per ``(label, summary)`` pair."""
    return render(SUMMARY_COLUMNS, [(label, *astuple(s)) for label, s in rows], fmt)


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
        "summaries": _records(SUMMARY_COLUMNS, [(label, *astuple(s)) for label, s in rows]),
        "verdicts": _records(VERDICT_COLUMNS, [
            (label, *(blank if v is None else astuple(v))) for label, v in verdicts
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
             tr.saturation_day, tr.proportion_reached, spreading_capacity(tr))
            for tr in traces
        ], fmt)
    return render(DAY_COLUMNS, [
        (tr.seed, tr.theta, day, count, count / tr.population)
        for tr in traces
        for day, count in enumerate(tr.active_counts)
    ], fmt)


def rank(records: Iterable[RankRecord], fmt: str) -> str:
    return render(RANK_COLUMNS, [astuple(r) for r in records], fmt)


def correlation(matrix: CorrelationMatrix, fmt: str) -> str:
    """CSV: a square table, labels down the side and across the top.  JSON: labels and values."""
    if fmt == "json":
        return _json({
            "labels": list(matrix.labels),
            "values": [[None if v is None else round(v, 6) for v in row] for row in matrix.values],
        })
    columns = (("", False), *((label, True) for label in matrix.labels))
    rows = [(label, *row) for label, row in zip(matrix.labels, matrix.values)]
    return render(columns, rows, fmt)


def recommendation(rec: Recommendation) -> str:
    return _json({
        "node": rec.node,
        "score": round(rec.score, 6),
        "rationale": {
            **rec.rationale,
            "proportion_reached": round(rec.rationale["proportion_reached"], 6),
        },
    })
