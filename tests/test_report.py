"""Report rendering rules shared by every report."""

from __future__ import annotations

import pytest

from influnet import (
    DiffusionConfig,
    DirectedGraph,
    NetworkSummary,
    correlation_matrix,
    full_table,
    linear_threshold_run,
    rank_candidates,
)
from influnet import report

G = DirectedGraph([(1, 2), (3, 2), (2, 4), (4, 1)])
TABLE = full_table(G)
RANKED = rank_candidates(G, [1, 2, 3, 4], DiffusionConfig(theta=0.5), TABLE)
SUMMARY = [("full", NetworkSummary(3, 2, 4 / 3, 0.0, 2, 1))]

REPORTS = {
    "summary": lambda fmt: report.summary(SUMMARY, fmt),
    "baseline": lambda fmt: report.baseline(SUMMARY, [("gnp_p0.1", None)], fmt),
    "centrality": lambda fmt: report.centrality(TABLE, fmt),
    "sweep": lambda fmt: report.sweep([linear_threshold_run(G, 2, DiffusionConfig())], fmt),
    "rank": lambda fmt: report.rank(RANKED, fmt),
    "correlation": lambda fmt: report.correlation(correlation_matrix(RANKED), fmt),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_unknown_format_is_rejected(name):
    with pytest.raises(ValueError, match="unknown table format 'xml'"):
        REPORTS[name]("xml")
