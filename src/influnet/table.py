"""One renderer for every tabular report.

A table is a column spec, a sequence of ``(name, real)`` pairs, plus rows
given as tuples in column order.  CSV writes a header line and one line
per row, reals at 6 decimal places; JSON writes a list of one object per
row, keys sorted, reals rounded to 6 places.  ``None`` marks an undefined
cell: ``undefined`` in CSV, ``null`` in JSON.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Sequence

Columns = Sequence[tuple[str, bool]]

UNDEFINED = "undefined"


def dump_json(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def records(columns: Columns, rows: Iterable[tuple]) -> list[dict[str, Any]]:
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
        return dump_json(records(columns, rows))
    if fmt != "csv":
        raise ValueError(f"unknown table format {fmt!r}; choose csv or json")
    out = [",".join(name for name, _ in columns)]
    for row in rows:
        out.append(",".join(
            UNDEFINED if v is None else f"{v:.6f}" if real else str(v)
            for (_, real), v in zip(columns, row)
        ))
    return "\n".join(out) + "\n"
