"""Workload definitions and the output checks run on every operation.

Each workload is one generated input and the CLI commands a user would run
on it.  ``{input}`` and ``{out}`` in a command are filled in per run; every
command writes its report to ``{out}`` rather than stdout.

Checks come in three kinds.  Structural checks hold at every seed and
compare the report against the shape the generator worked out on its own.
At the default seed, the bytes are also compared against digests pinned
from the commit that defined the benchmark.  Within one run, every
repetition of a command must give the bytes of its first repetition.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from gen import FollowGraph, GraphSpec

DEFAULT_SEED = 0
WS_K = 10  # the CLI's default --ws-k
GNP_PS = (0.05, 0.10)  # the CLI's default --p list, used by both models


def digest(out: Path) -> str:
    """sha256 of a report file, or of a report directory's sorted (name, bytes)."""
    h = hashlib.sha256()
    if out.is_dir():
        for f in sorted(out.iterdir()):
            h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    else:
        h.update(out.read_bytes())
    return h.hexdigest()


def _core_arcs(g: FollowGraph) -> list[tuple[int, int]]:
    # Main-component ids are 0..core_nodes-1; fringe ids come after.
    return [(i, j) for i, j in g.arcs if i < g.core_nodes and j < g.core_nodes]


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()]


def _expect(problems: list[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def check_pipeline(out: Path, g: FollowGraph) -> list[str]:
    p: list[str] = []
    names = {f.name for f in out.iterdir()}
    want = {"summary.csv", "centrality.csv", "rank.csv", "correlation.csv",
            "recommendation.json"}
    if names != want:
        return [f"report files {sorted(names)}"]
    core = _core_arcs(g)
    summary = _csv_rows((out / "summary.csv").read_text())
    _expect(p, [r[:3] for r in summary[1:]] == [
        ["full", str(g.core_nodes + g.excluded_nodes), str(len(g.arcs))],
        ["core", str(g.core_nodes), str(len(core))],
    ], "summary.csv node/edge counts")
    indeg = Counter(j for _, j in core)
    outdeg = Counter(i for i, _ in core)
    order = sorted(range(g.core_nodes), key=lambda v: (-indeg[v], v))
    cent = _csv_rows((out / "centrality.csv").read_text())[1:]
    _expect(p, [r[:3] for r in cent] == [
        [str(v), str(indeg[v]), str(outdeg[v])] for v in order
    ], "centrality.csv degree columns")
    rank = _csv_rows((out / "rank.csv").read_text())[1:]
    rec = json.loads((out / "recommendation.json").read_text())
    _expect(p, bool(rank) and rec["node"] == int(rank[0][0])
            and rec["rationale"]["candidates_considered"] == len(rank),
            "recommendation.json disagrees with rank.csv")
    _expect(p, len(_csv_rows((out / "correlation.csv").read_text())) == 9,
            "correlation.csv shape")
    return p


def check_baseline(out: Path, g: FollowGraph, model: str) -> list[str]:
    p: list[str] = []
    rows = _csv_rows(out.read_text())
    n = g.core_nodes + g.excluded_nodes
    _expect(p, rows[1][:3] == ["actual", str(n), str(len(g.arcs))], "actual row counts")
    _expect(p, [r[0] for r in rows[2:]] == [f"{model}_p{q:g}" for q in GNP_PS],
            "baseline row labels")
    pairs = n * (n - 1) // 2
    for row, q in zip(rows[2:], GNP_PS):
        edges = int(row[2])
        if model == "gnp":
            ok = abs(edges - q * pairs) <= 5 * math.sqrt(pairs * q * (1 - q))
        else:
            ok = edges == n * WS_K // 2
        _expect(p, row[1] == str(n) and ok, f"{row[0]} nodes/edges {row[1]}/{edges}")
    return p


def check_export(out: Path, g: FollowGraph) -> list[str]:
    want = "i,j\n" + "".join(f"{i},{j}\n" for i, j in _core_arcs(g))
    return [] if out.read_text() == want else ["export is not the sorted core edge list"]


def check_sweep(out: Path, g: FollowGraph) -> list[str]:
    p: list[str] = []
    indeg = Counter(j for _, j in _core_arcs(g))
    seed = max(range(g.core_nodes), key=lambda v: indeg[v])
    rows = _csv_rows(out.read_text())[1:]
    traces: dict[str, list[int]] = {}
    for s, theta, day, count, prop in rows:
        _expect(p, s == str(seed), f"sweep seed {s}, want {seed}")
        _expect(p, prop == f"{int(count) / g.core_nodes:.6f}", f"proportion {prop}")
        trace = traces.setdefault(theta, [])
        _expect(p, int(day) == len(trace), f"day {day} out of order")
        trace.append(int(count))
    _expect(p, list(traces) == ["0.010000", "0.050000", "0.100000", "0.200000"],
            f"sweep thetas {list(traces)}")
    for trace in traces.values():
        _expect(p, trace[0] == 1 and trace == sorted(trace), "active counts")
    return p


Check = Callable[[Path, FollowGraph], list[str]]


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    out: str  # name of the file or directory the command writes
    check: Check
    pin: str  # what ``pinned`` must return at DEFAULT_SEED
    pinned: Callable[[Path], str] = digest


@dataclass(frozen=True)
class Workload:
    """One generated input and the commands run on it; BENCHMARK.json says why."""

    name: str
    spec: GraphSpec
    commands: tuple[Command, ...]


def actual_row_digest(out: Path) -> str:
    """sha256 of a baseline report's "actual" row, the only row that is pinned."""
    return hashlib.sha256(out.read_text().splitlines()[1].encode()).hexdigest()


PAPER = GraphSpec(n=874)
# The "actual" row of both baseline reports; the random rows are not pinned,
# because a faster generator may legitimately name a different graph per seed.
ACTUAL_874 = "09265584bf777a762d4c15d0e051a41da6ef924ad31214d49ad1a3d4822b03be"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pipeline-874",
            PAPER,
            (Command(("pipeline", "--input", "{input}", "--out", "{out}"),
                     "report", check_pipeline,
                     "c58b78fc32f4570b052e5658fd6397bb401bce9c3d54b3e1e5160de3d55b7876"),),
        ),
        Workload(
            "baselines-874",
            PAPER,
            (
                Command(("baseline", "--input", "{input}", "--out", "{out}"),
                        "gnp.csv", lambda o, g: check_baseline(o, g, "gnp"),
                        ACTUAL_874, actual_row_digest),
                Command(("baseline", "--input", "{input}", "--model", "watts_strogatz",
                         "--out", "{out}"),
                        "ws.csv", lambda o, g: check_baseline(o, g, "watts_strogatz"),
                        ACTUAL_874, actual_row_digest),
            ),
        ),
        Workload(
            "ingest-20k",
            GraphSpec(n=20000, fringe_fraction=0.1, duplicate_fraction=0.01,
                      self_loop_fraction=0.002, shuffle=True),
            (
                Command(("export", "--input", "{input}", "--core", "--format", "csv",
                         "--out", "{out}"),
                        "core.csv", check_export,
                        "9ec8198bfbb34641de17ff3698ea8bf6caf21f4e35043441704741b695bfc6b8"),
                Command(("sweep", "--input", "{input}", "--out", "{out}"),
                        "sweep.csv", check_sweep,
                        "ba8172de47a4d54a1695b99df43f396eb8718432bb0e1de6f1174b67917ec0fc"),
            ),
        ),
    )
}

# Which end-to-end metric each per-layer metric should move, on which workload.
LAYER_MAP = {
    "graph.ingest_s": [["setup_s", "all"], ["wall_s", "ingest-20k"]],
    "graph.core_s": [["setup_s", "all"], ["wall_s", "ingest-20k"]],
    "graph.bytes_per_arc": [["peak_rss_mb", "ingest-20k"]],
    "metrics.distance_s": [["wall_s", "baselines-874"], ["wall_s", "pipeline-874"],
                           ["no change", "ingest-20k"]],
    "metrics.clustering_s": [["wall_s", "baselines-874"], ["wall_s", "pipeline-874"],
                             ["no change", "ingest-20k"]],
    "centrality.betweenness_s": [["wall_s", "pipeline-874"], ["cpu_s", "pipeline-874"],
                                 ["no change", "baselines-874"], ["no change", "ingest-20k"]],
    "diffusion.cascade_s": [["wall_s", "ingest-20k"]],
    "baselines.generate_s": [["wall_s", "baselines-874"]],
}
