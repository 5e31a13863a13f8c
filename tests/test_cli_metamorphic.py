"""Metamorphic CLI relations: row order, repeated rows and self-loops change no report.

Ingest drops self-loop rows and repeated arcs, and the graph indexes its
nodes by ascending id, so a CSV whose rows are shuffled, partly repeated
and padded with self-loops (on ids of the graph or on ids found nowhere
else) must give every report the same stdout bytes and the same exit
code as the original.  Only stderr's dropped-row counts may differ.
"""

from __future__ import annotations

import contextlib
import io

import pytest

from influnet.cli import main

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
