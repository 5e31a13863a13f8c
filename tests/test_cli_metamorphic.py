"""Metamorphic CLI relations: input changes that must leave the reports alone.

Ingest drops self-loop rows and repeated arcs, and the graph indexes its
nodes by ascending id, so a CSV whose rows are shuffled, partly repeated
and padded with self-loops (on ids of the graph or on ids found nowhere
else) must give every report the same stdout bytes and the same exit
code as the original.  Only stderr's dropped-row counts may differ.

Two more relations hold on the 12-node fixture and on a generated
300-node follow graph with fringe components:

- Relabelling every id v as 2v + 1 keeps the id order, so the ``stats``
  bytes are equal, and ``centrality``, ``rank`` and ``sweep`` are equal
  once their first (id) column is mapped back.  ``correlate`` is left
  out: its ``node`` column is correlated too, and the new ids move
  Pearson's r by a few ULPs.
- A disjoint 3-cycle on ids above the largest one lies outside the core,
  so every core-only report (``centrality``, ``rank``, ``correlate``,
  ``sweep``) keeps its bytes, and so does the ``stats`` core row.
"""
from __future__ import annotations

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from influnet.cli import main
from helpers import FIXTURE

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

COMMANDS = (["sweep"], ["rank"], ["rank", "--format", "json"])


@st.composite
def csv_pairs(draw) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Distinct arcs on 2 to 8 ids, and the same arcs shuffled, repeated and self-looped."""
    ids = draw(st.sets(st.integers(0, 30), min_size=2, max_size=8))
    node = st.sampled_from(sorted(ids))
    rows = draw(st.lists(st.tuples(node, node).filter(lambda a: a[0] != a[1]),
                         min_size=1, max_size=16, unique=True))
    repeats = draw(st.lists(st.sampled_from(rows), max_size=6))
    # 100 and above lie outside the ids drawn for arcs, so those loops name new ids.
    loop_ids = draw(st.lists(st.one_of(node, st.integers(100, 200)), max_size=4))
    variant = draw(st.permutations(rows + repeats + [(v, v) for v in loop_ids]))
    return rows, variant


def _run(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue().encode("utf-8")


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(csv_pairs())
def test_sweep_and_rank_ignore_row_order_repeats_and_self_loops(tmp_path_factory, pair):
    rows, variant = pair
    work = tmp_path_factory.mktemp("csv")
    paths = []
    for name, body in (("original.csv", rows), ("variant.csv", variant)):
        path = work / name
        path.write_text("i,j\n" + "".join(f"{a},{b}\n" for a, b in body), encoding="utf-8")
        paths.append(str(path))
    for command in COMMANDS:
        original, changed = (_run([*command, "--input", p]) for p in paths)
        assert changed == original, command


GEN = Path(__file__).resolve().parent.parent / "bench" / "gen.py"


def _generated_rows() -> list[tuple[int, int]]:
    """The rows of a seeded 300-node ``bench/gen.py`` graph with fringe, repeats and self-loops."""
    spec = importlib.util.spec_from_file_location("bench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    # dataclasses looks its module up in sys.modules while the class is built.
    sys.modules[spec.name] = gen
    try:
        spec.loader.exec_module(gen)
        shape = gen.GraphSpec(n=300, fringe_fraction=0.1, duplicate_fraction=0.05,
                              self_loop_fraction=0.02, shuffle=True)
        text = gen.generate(shape, seed=0).csv
    finally:
        del sys.modules[spec.name]
    return _rows(text)


def _rows(text: str) -> list[tuple[int, int]]:
    return [(int(a), int(b)) for a, b in (line.split(",") for line in text.splitlines()[1:])]


@pytest.fixture(scope="module", params=["follows12", "generated300"])
def rows(request) -> list[tuple[int, int]]:
    if request.param == "follows12":
        return _rows(FIXTURE.read_text(encoding="utf-8"))
    return _generated_rows()


def _reports(path: Path, rows, commands) -> list[bytes]:
    """The stdout of each command on ``rows`` written to ``path``; each must exit 0."""
    path.write_text("i,j\n" + "".join(f"{a},{b}\n" for a, b in rows), encoding="utf-8")
    outs = []
    for command in commands:
        rc, out = _run([*command, "--input", str(path)])
        assert rc == 0, command
        outs.append(out)
    return outs


def _first_column(text: bytes, relabel) -> bytes:
    """Each row after the header with its first field, an id, passed through ``relabel``."""
    header, *lines = text.decode("utf-8").splitlines(keepends=True)
    fields = (line.partition(",") for line in lines)
    return "".join([header, *(f"{relabel(int(v))},{rest}" for v, _, rest in fields)]).encode()


RELABEL_EQUAL = (["stats"], ["stats", "--format", "json"])
RELABEL_MAPPED = (["centrality"], ["rank"], ["sweep"])


def test_order_preserving_relabel_maps_the_id_column(tmp_path, rows):
    relabelled = [(2 * a + 1, 2 * b + 1) for a, b in rows]
    commands = RELABEL_EQUAL + RELABEL_MAPPED
    original = _reports(tmp_path / "original.csv", rows, commands)
    changed = _reports(tmp_path / "relabelled.csv", relabelled, commands)
    equal = len(RELABEL_EQUAL)
    assert changed[:equal] == original[:equal]
    for command, before, after in zip(RELABEL_MAPPED, original[equal:], changed[equal:]):
        assert _first_column(after, lambda v: (v - 1) // 2) == before, command
        assert after != before, command


CORE_ONLY = tuple(
    [command, "--format", fmt]
    for command in ("centrality", "rank", "correlate", "sweep")
    for fmt in ("csv", "json")
)


def test_disjoint_triangle_above_every_id_changes_no_core_report(tmp_path, rows):
    top = max(max(row) for row in rows)
    cycle = [(top + 1, top + 2), (top + 2, top + 3), (top + 3, top + 1)]
    commands = (*CORE_ONLY, ["stats"])
    original = _reports(tmp_path / "original.csv", rows, commands)
    changed = _reports(tmp_path / "with_cycle.csv", rows + cycle, commands)
    for command, before, after in zip(CORE_ONLY, original, changed):
        assert after == before, command
    before, after = original[-1].splitlines(), changed[-1].splitlines()
    assert after[1] != before[1]  # the full row counts the cycle
    assert after[2] == before[2] and after[2].startswith(b"core,")
