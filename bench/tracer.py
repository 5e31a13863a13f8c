"""In-process stage tracing for the benchmark's per-layer metrics.

``Tracer.install`` replaces each stage function's object wherever an
``influnet.*`` module binds it, so calls through ``from .x import f`` copies
are caught too.  Each call records a span (metric name, start, end, parent)
in memory, and some stages add work counts taken from their arguments and
result.  A span's self time is its duration minus its child spans'
durations, so the self times of all spans, the root ``cli.other_s`` span
included, sum exactly to the traced wall time.

Only public names that the project keeps are wrapped.  A stage whose name
no longer exists, or whose counters no longer read, is reported as missing
by name; its metrics are left out rather than reported as 0.

Run as a script, this file is the traced worker: it imports the package,
runs the workload's commands once untraced to warm up, then untraced and
traced in turn, ending untraced, until its time is up; measures the
ingested graph's bytes per arc; and writes one JSON object with the
metrics.  The spans are those of the median traced repetition.
``trace.overhead_s`` is the median, over traced repetitions, of the traced
wall time minus the mean of the two untraced repetitions around it, so
neither first-run warm-up nor slow drift of the machine's speed counts as
overhead.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import json
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable

Counter = Callable[[dict, dict, object], None]


def _count_ingest(c: dict, a: dict, r) -> None:
    loops, dupes = r.self_loops_dropped, r.duplicates_dropped
    c["graph.rows"] = r.graph.edge_count + loops + dupes
    c["graph.rows_dropped"] = loops + dupes
    c["graph.arcs"] = r.graph.edge_count


def _count_core(c: dict, a: dict, r) -> None:
    c["graph.core_nodes"] = r.node_count
    c["graph.excluded_nodes"] = a["g"].node_count - r.node_count


def _count_sweep(c: dict, a: dict, r) -> None:
    g = a["g"]
    arcs = g.edge_count if g.directed else 2 * g.edge_count
    c["metrics.sweeps"] += 1
    c["metrics.arc_visits"] += g.node_count * arcs


def _count_brandes(c: dict, a: dict, r) -> None:
    n = a["g"].node_count
    c["centrality.brandes_sources"] += n if n >= 3 else 0


def _count_cascade(c: dict, a: dict, r) -> None:
    c["diffusion.cascades"] += 1
    c["diffusion.cascade_days"] += len(r.active_counts) - 1


def _count_candidates(c: dict, a: dict, r) -> None:
    c["ranking.candidates"] += len(set(a["candidates"]))


def _count_baseline(c: dict, a: dict, r) -> None:
    spec = a["spec"]
    if spec.model == "gnp":
        c["baselines.pairs_tossed"] += spec.n * (spec.n - 1) // 2
    c["baselines.edges"] += r.edge_count


@dataclass(frozen=True)
class Stage:
    metric: str  # self-time metric; spans are recorded under this name
    module: str
    name: str
    counts: tuple[str, ...] = ()
    counter: Counter | None = None


STAGES = (
    Stage("graph.ingest_s", "influnet.graph", "ingest_edge_csv",
          ("graph.rows", "graph.rows_dropped", "graph.arcs"), _count_ingest),
    Stage("graph.core_s", "influnet.graph", "largest_core",
          ("graph.core_nodes", "graph.excluded_nodes"), _count_core),
    # summarize's self time is the all-pairs distance sweep plus the
    # component count; clustering is its child span.
    Stage("metrics.distance_s", "influnet.metrics", "summarize",
          ("metrics.sweeps", "metrics.arc_visits"), _count_sweep),
    Stage("metrics.clustering_s", "influnet.metrics", "average_clustering"),
    Stage("centrality.degree_s", "influnet.centrality", "degree_table"),
    Stage("centrality.betweenness_s", "influnet.centrality", "betweenness_centrality",
          ("centrality.brandes_sources",), _count_brandes),
    Stage("centrality.eigenvector_s", "influnet.centrality", "eigenvector_centrality"),
    Stage("diffusion.cascade_s", "influnet.diffusion", "linear_threshold_run",
          ("diffusion.cascades", "diffusion.cascade_days"), _count_cascade),
    Stage("ranking.rank_s", "influnet.ranking", "rank_candidates",
          ("ranking.candidates",), _count_candidates),
    Stage("ranking.correlate_s", "influnet.ranking", "correlation_matrix"),
    Stage("baselines.generate_s", "influnet.baselines", "generate",
          ("baselines.pairs_tossed", "baselines.edges"), _count_baseline),
    Stage("export.render_s", "influnet.export", "export_graph"),
)
ROOT = "cli.other_s"


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    # Input-shape counts hold the last call's value; work counts sum over calls.
    counts: dict[str, int] = field(default_factory=dict)
    missing: set[str] = field(default_factory=set)
    _stack: list[int] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, stage: Stage, original: Callable) -> Callable:
        sig = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self.open(stage.metric)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(idx)
            if stage.counter is not None and not self.missing.intersection(stage.counts):
                try:
                    stage.counter(self.counts, sig.bind(*args, **kwargs).arguments, result)
                except (KeyError, AttributeError, TypeError):
                    self.missing.update(stage.counts)
            return result

        return traced

    def install(self) -> None:
        """Patch every binding of every stage function in loaded influnet modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "influnet" or n.startswith("influnet.")]
        for stage in STAGES:
            self.counts.update(dict.fromkeys(stage.counts, 0))
            original = getattr(sys.modules.get(stage.module), stage.name, None)
            if not callable(original):
                self.missing.update((stage.metric, *stage.counts))
                continue
            wrapper = self._wrap(stage, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name; ``ROOT`` spans are the traced commands."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out = dict.fromkeys([st.metric for st in STAGES] + [ROOT], 0.0)
        for s, c in zip(self.spans, child):
            out[s.name] += (s.end - s.start) - c
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer value this tracer can vouch for; missing stages are left out."""
        out = {**self.self_times(), **self.counts}
        for name in self.missing:
            out.pop(name, None)
        out["trace.wall_s"] = sum(s.end - s.start for s in self.spans if s.name == ROOT)
        return out


def _bytes_per_arc(path: str) -> float | None:
    """Bytes the ingested graph keeps alive, per arc, as tracemalloc sees them."""
    ingest = getattr(sys.modules["influnet"], "ingest_edge_csv", None)
    if ingest is None:
        return None
    gc.collect()  # so garbage from earlier commands is not freed inside the window
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with open(path, encoding="utf-8") as fh:
            result = ingest(fh)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return kept / result.graph.edge_count


def _worker(job: dict) -> dict:
    t0 = time.perf_counter()
    importlib.import_module("influnet.cli")
    import_s = time.perf_counter() - t0
    main = sys.modules["influnet.cli"].main

    def run_commands(rep: int, tracer: Tracer | None) -> tuple[float, list[int]]:
        codes = []
        start = time.perf_counter()
        for argv in job["commands"]:
            argv = [a.replace("{rep}", str(rep)) for a in argv]
            idx = tracer.open(ROOT) if tracer else None
            try:
                codes.append(main(argv))
            finally:
                if tracer:
                    tracer.close(idx)
        return time.perf_counter() - start, codes

    deadline = time.perf_counter() + job["seconds"]
    reps: list[list[int]] = []  # exit codes per repetition, traced or not

    def rep(tracer: Tracer | None) -> float:
        wall, codes = run_commands(len(reps), tracer)
        reps.append(codes)
        return wall

    rep(None)  # warm-up, kept out of every figure
    untraced = [rep(None)]
    runs: list[tuple[float, Tracer]] = []  # traced repetitions, each between two untraced
    while not runs or time.perf_counter() + runs[-1][0] + untraced[-1] <= deadline:
        tracer = Tracer()
        tracer.install()
        try:
            runs.append((rep(tracer), tracer))
        finally:
            tracer.uninstall()
        untraced.append(rep(None))

    # the median traced repetition supplies every span, so its spans still sum to its wall
    tracer = sorted(runs, key=lambda r: r[0])[(len(runs) - 1) // 2][1]
    metrics = tracer.metrics()
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_s"] = statistics.median(
        t - (untraced[i] + untraced[i + 1]) / 2 for i, (t, _) in enumerate(runs))
    bpa = _bytes_per_arc(job["input"])
    if bpa is not None:
        metrics["graph.bytes_per_arc"] = bpa
    missing = sorted(tracer.missing)
    if bpa is None:
        missing.append("graph.bytes_per_arc")
    return {"metrics": metrics, "missing": missing, "exit_codes": reps}


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    result = _worker(job)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
