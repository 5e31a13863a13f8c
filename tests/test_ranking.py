"""Candidate selection, ranking, correlation, and the recommendation."""

from __future__ import annotations

import json
import random

import pytest

from influnet import (
    CentralityTable,
    DirectedGraph,
    RankRecord,
    correlation_matrix,
    full_table,
    rank_candidates,
    recommend,
    select_candidates,
    spreading_score,
)
from influnet import report
from helpers import cell

RANK_LABELS = report.RANK_COLUMNS


def make_record(rng: random.Random, node: int) -> RankRecord:
    return RankRecord(
        node=node,
        in_degree=rng.randint(0, 50),
        out_degree=rng.randint(0, 50),
        eigenvector=rng.random(),
        betweenness=rng.random() / 2,
        days_required=rng.randint(0, 12),
        proportion_reached=rng.uniform(0.01, 1.0),
    )


def test_select_candidates_unions_the_three_measures():
    t = CentralityTable(
        in_degree={1: 9, 2: 0, 3: 0},
        out_degree={1: 0, 2: 0, 3: 0},
        betweenness={1: 0.0, 2: 0.9, 3: 0.0},
        eigenvector={1: 0.0, 2: 0.0, 3: 0.9},
    )
    assert select_candidates(t, k=1) == {1, 2, 3}


def test_select_candidates_collapses_agreement():
    t = CentralityTable(
        in_degree={1: 9, 2: 5, 3: 1},
        out_degree={1: 0, 2: 0, 3: 0},
        betweenness={1: 0.9, 2: 0.5, 3: 0.1},
        eigenvector={1: 0.9, 2: 0.5, 3: 0.1},
    )
    assert select_candidates(t, k=2) == {1, 2}


def test_rank_prefers_larger_audience():
    # Nodes 1..4 follow A(=10); only 1 and 2 also follow B(=11).
    edges = [(1, 10), (2, 10), (3, 10), (4, 10), (1, 11), (2, 11)]
    g = DirectedGraph(edges)
    t = full_table(g)
    records = rank_candidates(g, [10, 11], t, 0.4)
    assert [r.node for r in records] == [10, 11]
    assert records[0].proportion_reached > records[1].proportion_reached
    assert records[0].in_degree == 4


def test_rank_breaks_total_ties_by_node_id():
    g = DirectedGraph([(1, 2), (2, 1)])
    t = full_table(g)
    records = rank_candidates(g, [1, 2], t, 0.5)
    assert [r.node for r in records] == [1, 2]
    assert records[0].score == records[1].score


def test_rank_records_satisfy_score_identity():
    # 2-cycle and 3-cycle share node 1, keeping the spectrum aperiodic.
    g = DirectedGraph([(1, 2), (2, 1), (3, 2), (2, 4), (4, 1)])
    t = full_table(g)
    for r in rank_candidates(g, sorted(g.nodes), t, 0.3):
        assert r.score == spreading_score(r.proportion_reached, r.days_required)


def test_rank_candidate_order_does_not_change_records():
    g = DirectedGraph([(1, 2), (2, 1), (3, 2), (2, 4), (4, 1), (5, 4), (5, 2)])
    t = full_table(g)
    ranked = rank_candidates(g, sorted(g.nodes), t, 0.25)
    assert rank_candidates(g, [5, 3, 1, 4, 2, 3], t, 0.25) == ranked
    assert rank_candidates(g, set(g.nodes), t, 0.25) == ranked


def test_rank_validation():
    g = DirectedGraph([(1, 2)])
    t = full_table(g)
    with pytest.raises(ValueError, match="no candidates"):
        rank_candidates(g, [], t, 0.1)
    with pytest.raises(ValueError, match="not in graph"):
        rank_candidates(g, [99], t, 0.1)


def test_record_derives_its_score():
    fields = dict(
        node=1,
        in_degree=1,
        out_degree=1,
        eigenvector=0.5,
        betweenness=0.1,
        days_required=2,
        proportion_reached=0.8,
    )
    rec = RankRecord(**fields)
    assert (*rec, rec.score) == (1, 1, 1, 0.5, 0.1, 2, 0.8, 40.0)
    with pytest.raises(TypeError, match="score"):
        RankRecord(**fields, score=99.0)


def test_rank_csv_column_order():
    assert report.rank([], "csv").splitlines()[0] == (
        "node,in_degree,out_degree,eigenvector,betweenness,"
        "days_required,proportion_reached,score"
    )


def test_correlation_matrix_shape_and_diagonal():
    rng = random.Random(97)
    records = [make_record(rng, i) for i in range(25)]
    m = correlation_matrix(records)
    assert m.labels == RANK_LABELS
    n = len(m.labels)
    for i in range(n):
        assert m.values[i][i] == 1.0
        for j in range(n):
            assert m.values[i][j] == m.values[j][i]
            assert -1.0 <= m.values[i][j] <= 1.0


def test_correlation_linear_columns():
    records = [
        RankRecord(
            node=i,
            in_degree=2 * i + 3,
            out_degree=50 - i,
            eigenvector=0.01 * i,
            betweenness=0.3,
            days_required=1,
            proportion_reached=(i + 1) / 100,
        )
        for i in range(20)
    ]
    m = correlation_matrix(records)
    assert cell(m, "node", "in_degree") == pytest.approx(1.0, abs=1e-12)
    assert cell(m, "node", "out_degree") == pytest.approx(-1.0, abs=1e-12)
    # days fixed at 1 makes score a positive multiple of proportion.
    assert cell(m, "proportion_reached", "score") == pytest.approx(1.0, abs=1e-12)


def test_correlation_constant_column_is_undefined():
    records = [
        RankRecord(
            node=i,
            in_degree=5,
            out_degree=i,
            eigenvector=0.1 * i,
            betweenness=0.2,
            days_required=i + 1,
            proportion_reached=0.5,
        )
        for i in range(10)
    ]
    m = correlation_matrix(records)
    assert cell(m, "in_degree", "in_degree") is None
    assert cell(m, "in_degree", "node") is None
    assert cell(m, "node", "betweenness") is None
    assert cell(m, "node", "out_degree") == pytest.approx(1.0, abs=1e-12)


def test_correlation_of_one_record_is_all_undefined():
    # With one record every column is constant, so no cell is defined.
    m = correlation_matrix([make_record(random.Random(101), 1)])
    assert m.labels == RANK_LABELS
    assert m.values == ((None,) * len(RANK_LABELS),) * len(RANK_LABELS)
    with pytest.raises(ValueError, match="at least 1 record"):
        correlation_matrix([])


def test_correlation_csv_labels_and_undefined_cells():
    records = [
        RankRecord(
            node=i,
            in_degree=5,
            out_degree=i,
            eigenvector=0.1,
            betweenness=0.2,
            days_required=1,
            proportion_reached=(i + 1) / 10,
        )
        for i in range(5)
    ]
    lines = report.correlation(correlation_matrix(records), "csv").splitlines()
    assert lines[0] == "," + ",".join(RANK_LABELS)
    assert lines[1].startswith("node,")
    assert "undefined" in lines[2]  # in_degree row is constant


def test_recommend_is_order_insensitive():
    rng = random.Random(103)
    records = [make_record(rng, i) for i in range(15)]
    shuffled = records[:]
    rng.shuffle(shuffled)
    assert recommend(records) == recommend(shuffled)


def test_recommend_reports_which_measures_it_leads():
    edges = [(1, 10), (2, 10), (3, 10), (4, 10), (1, 11), (2, 11)]
    g = DirectedGraph(edges)
    t = full_table(g)
    records = rank_candidates(g, [10, 11], t, 0.4)
    rec = recommend(records)
    assert rec.node == 10
    assert rec.rationale["max_in_degree"] is True
    assert rec.rationale["max_eigenvector"] is True
    assert rec.rationale["candidates_considered"] == 2


def test_recommend_rejects_empty():
    with pytest.raises(ValueError):
        recommend([])


def test_recommendation_json_shape():
    rng = random.Random(107)
    rec = recommend([make_record(rng, i) for i in range(5)])
    payload = json.loads(report.recommendation(rec))
    assert set(payload) == {"node", "score", "rationale"}
    assert payload["node"] == rec.node
