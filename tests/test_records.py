"""The result records: immutable named tuples whose checks hold however they are built."""

from __future__ import annotations

import pickle

import pytest

from influnet import (
    CentralityTable,
    CorrelationMatrix,
    DiffusionTrace,
    DirectedGraph,
    IngestResult,
    NetworkSummary,
    RandomGraphSpec,
    RankRecord,
    Recommendation,
    SmallWorldVerdict,
    spreading_score,
)

RECORDS = [
    IngestResult(DirectedGraph([(1, 2)]), 0, 0),
    NetworkSummary(2, 1, 1.0, 0.0, 1, 1),
    SmallWorldVerdict(2.0, 3.0, 1.5, True),
    DiffusionTrace(1, 0.1, (1, 2), 2),
    CentralityTable({1: 0}, {1: 0}, {1: 0.0}, {1: 1.0}),
    RankRecord(1, 1, 1, 0.5, 0.1, 2, 0.8),
    Recommendation(1, 40.0, {}),
    CorrelationMatrix(("node",), ((None,),)),
    RandomGraphSpec("gnp", 10, 0.1, 0),
]


@pytest.mark.parametrize("rec", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_named_tuples(rec):
    assert tuple(rec) == tuple(getattr(rec, name) for name in rec._fields)
    assert rec._asdict() == dict(zip(rec._fields, rec))
    assert type(rec)._make(rec) == rec


@pytest.mark.parametrize("rec", RECORDS, ids=lambda r: type(r).__name__)
def test_no_field_can_be_assigned(rec):
    for name in (*rec._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)


def test_rank_score_cannot_be_assigned():
    with pytest.raises(AttributeError):
        RankRecord(1, 1, 1, 0.5, 0.1, 2, 0.8).score = 99.0


def test_trace_checks_hold_through_make_and_replace():
    tr = DiffusionTrace(1, 0.1, (1, 2), 2)
    grown = tr._replace(population=3)
    assert type(grown) is DiffusionTrace
    assert grown == DiffusionTrace(1, 0.1, (1, 2), 3)
    assert DiffusionTrace._make(tr) == tr
    with pytest.raises(ValueError, match="exceeds population"):
        tr._replace(population=1)
    with pytest.raises(ValueError, match="decrease"):
        tr._replace(active_counts=(1, 3, 2), population=5)
    with pytest.raises(ValueError, match="seed on day 0"):
        DiffusionTrace._make((1, 0.1, (2, 3), 5))
    with pytest.raises(ValueError, match="population must be"):
        DiffusionTrace._make((1, 0.1, (1,), 0))


def test_spec_checks_hold_through_make_and_replace():
    spec = RandomGraphSpec("gnp", 10, 0.1, 0)
    ws = spec._replace(model="watts_strogatz", k=4)
    assert type(ws) is RandomGraphSpec
    assert ws == RandomGraphSpec("watts_strogatz", 10, 0.1, 0, 4)
    assert RandomGraphSpec._make(("gnp", 10, 0.1, 0)) == spec
    with pytest.raises(ValueError, match="needs k"):
        spec._replace(model="watts_strogatz")
    with pytest.raises(ValueError, match="unknown model"):
        RandomGraphSpec._make(("scale_free", 10, 0.1, 0))


@pytest.mark.parametrize(
    "rec", [DiffusionTrace(1, 0.1, (1, 2), 2), RandomGraphSpec("watts_strogatz", 10, 0.1, 0, 4)],
    ids=lambda r: type(r).__name__,
)
def test_checked_records_survive_pickling(rec):
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is type(rec)
    assert back == rec


def test_rank_score_follows_its_inputs_through_replace():
    rec = RankRecord(1, 1, 1, 0.5, 0.1, 2, 0.8)
    assert rec.score == 40.0
    for changed in (
        rec._replace(proportion_reached=0.1),
        rec._replace(days_required=5),
        rec._replace(proportion_reached=0.3, days_required=0),
        RankRecord._make(rec),
    ):
        assert changed.score == spreading_score(changed.proportion_reached, changed.days_required)
    assert rec._replace(proportion_reached=0.1).score == 5.0
    with pytest.raises(ValueError, match="score"):
        rec._replace(score=99.0)
