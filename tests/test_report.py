"""Report rendering rules shared by every report."""

from __future__ import annotations

import json
import re

import pytest

from influnet import (
    DirectedGraph,
    NetworkSummary,
    RankRecord,
    correlation_matrix,
    full_table,
    linear_threshold_run,
    rank_candidates,
    recommend,
    threshold_sweep,
)
from influnet import report

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

G = DirectedGraph([(1, 2), (3, 2), (2, 4), (4, 1)])
TABLE = full_table(G)
RANKED = rank_candidates(G, [1, 2, 3, 4], TABLE, 0.5)
SUMMARY = [("full", NetworkSummary(3, 2, 4 / 3, 0.0, 2, 1))]
PROPERTY = settings(max_examples=200, derandomize=True, deadline=None, database=None)

REPORTS = {
    "summary": lambda fmt: report.summary(SUMMARY, fmt),
    "baseline": lambda fmt: report.baseline(SUMMARY, [("gnp_p0.1", None)], fmt),
    "centrality": lambda fmt: report.centrality(TABLE, fmt),
    "sweep": lambda fmt: report.sweep([linear_threshold_run(G, 2, 0.1)], fmt),
    "rank": lambda fmt: report.rank(RANKED, fmt),
    "correlation": lambda fmt: report.correlation(correlation_matrix(RANKED), fmt),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_unknown_format_is_rejected(name):
    with pytest.raises(ValueError, match="unknown table format 'xml'"):
        REPORTS[name]("xml")


# recommendation is JSON only: it takes no format, so it is not in REPORTS,
# whose every entry must reject an unknown one.  Its rationale nests a float
# that 6 places do not hold exactly.
REC = recommend([RankRecord(1, 1, 1, 1 / 3, 1 / 3, 2, 2 / 3)])
TEXTS = [(name, fmt) for name in sorted(REPORTS) for fmt in ("csv", "json")]
TEXTS.append(("recommendation", "json"))

# Cells without a comma or a line break, so a CSV line splits back into them.
CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text("ab_.- 0123456789"),
)


@st.composite
def tables(draw):
    width = draw(st.integers(1, 5))
    columns = tuple(f"c{k}" for k in range(width))
    rows = draw(st.lists(st.tuples(*[CELLS] * width), max_size=5))
    return columns, rows


def _expected_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.6f}"
    return "undefined" if v is None else str(v)


@PROPERTY
@given(tables())
def test_render_writes_each_cell_by_its_own_type(table):
    columns, rows = table
    lines = report.render(columns, rows, "csv").split("\n")
    assert lines == [",".join(columns), *(",".join(map(_expected_cell, r)) for r in rows), ""]
    objects = json.loads(report.render(columns, rows, "json"))
    assert objects == [
        {c: round(v, 6) if isinstance(v, float) else v for c, v in zip(columns, row)}
        for row in rows
    ]


def _floats(payload):
    """Every float in a parsed JSON payload, at any depth."""
    if isinstance(payload, float):
        yield payload
    elif isinstance(payload, dict):
        for v in payload.values():
            yield from _floats(v)
    elif isinstance(payload, list):
        for v in payload:
            yield from _floats(v)


def _is_float_cell(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return not cell.lstrip("-").isdigit()


@pytest.mark.parametrize("name, fmt", TEXTS)
def test_every_float_is_written_at_6_places(name, fmt):
    if name == "recommendation":
        text = report.recommendation(REC)
    else:
        text = REPORTS[name](fmt)
    if fmt == "json":
        floats = list(_floats(json.loads(text)))
        assert floats and all(round(f, 6) == f for f in floats)
        return
    cells = [c for line in text.splitlines()[1:] for c in line.split(",")]
    floats = [c for c in cells if _is_float_cell(c)]
    assert floats and all(re.fullmatch(r"-?\d+\.\d{6}", c) for c in floats), floats


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_int_theta_is_written_as_an_int_in_both_formats(fmt):
    text = report.sweep(threshold_sweep(G, 2, [0, 1]), fmt)
    if fmt == "json":
        thetas = [json.dumps(tr["theta"]) for tr in json.loads(text)]
    else:
        thetas = [line.split(",")[1] for line in text.splitlines()[1:]]
    assert set(thetas) == {"0", "1"}
