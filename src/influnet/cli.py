"""Command-line front end.

Every subcommand reads the same two-column follow CSV and writes one
report to stdout or a file; ``pipeline`` chains the whole analysis and
writes a report directory.  Every report's text comes from one function
of :mod:`influnet.report`, which holds the columns and the CSV and JSON
rules, so ``--format`` picks CSV or JSON for all of them alike.

Each subcommand has one handler, ``_cmd_<name>(args)``, which reads its
flags, computes, and writes its report.  ``pipeline`` writes the texts
that ``stats``, ``centrality``, ``rank`` and ``correlate`` print for the
same flags, from the same ``report`` functions, plus
``recommendation.json``.

Exit codes: 0 success, 1 usage error (including a flag value out of
range, caught before any work runs), 2 unreadable or invalid data, 3
iteration failed to converge, 141 stdout closed before the report was
written (a broken pipe, as in ``| head``).  A betweenness worker that
dies (to the OOM killer, say) raises an uncaught ``RuntimeError``: a
traceback and status 1.  Reruns with the same inputs and seed are
byte-identical.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from pathlib import Path
from typing import Any, Callable

from . import baselines, centrality, diffusion, export, metrics, ranking, report
from .graph import DirectedGraph, ingest_edge_csv, largest_core

log = logging.getLogger("influnet.cli")  # not __name__, "__main__" under python -m


def _read_graph(args: argparse.Namespace) -> DirectedGraph:
    with open(args.input, "r", encoding="utf-8") as fh:
        return ingest_edge_csv(fh).graph


def _region(args: argparse.Namespace) -> DirectedGraph:
    """The input's largest core, or the whole graph under ``--full-network``."""
    g = _read_graph(args)
    return g if args.full_network else largest_core(g)


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        sys.stdout.flush()  # a closed pipe fails here, inside main, not at exit
    else:
        Path(out).write_text(text, encoding="utf-8")


def _rank(
    g: DirectedGraph, args: argparse.Namespace
) -> tuple[centrality.CentralityTable, list[ranking.RankRecord]]:
    """The centrality table, and the ranked cascades of its top-k candidates."""
    table = centrality.full_table(g, tol=args.tol, max_iter=args.max_iter)
    candidates = ranking.select_candidates(table, args.k)
    config = diffusion.DiffusionConfig(theta=args.theta, max_days=args.days)
    return table, ranking.rank_candidates(g, candidates, config, table)


def _stats_report(g: DirectedGraph, core: DirectedGraph, fmt: str) -> str:
    """The "full" row and the "core" row.

    When the graph is its own core the full summary is reused, so the
    all-pairs sweep runs once.
    """
    full = metrics.summarize(g)
    core_summary = full if core is g else metrics.summarize(core)
    return report.summary([("full", full), ("core", core_summary)], fmt)


def _cmd_stats(args: argparse.Namespace) -> None:
    g = _read_graph(args)
    _emit(_stats_report(g, largest_core(g), args.format), args.out)


def _cmd_centrality(args: argparse.Namespace) -> None:
    table = centrality.full_table(_region(args), tol=args.tol, max_iter=args.max_iter)
    _emit(report.centrality(table, args.format), args.out)


def _cmd_sweep(args: argparse.Namespace) -> None:
    full = _read_graph(args)
    g = full if args.full_network else largest_core(full)
    seed = args.seed_node
    if seed is None:
        followers = [*map(len, g.inc)]
        # The first most-followed position: ids ascend, so the smallest id wins ties.
        seed = g.ids[followers.index(max(followers))]
    elif seed in full and seed not in g:
        raise ValueError(
            f"seed {seed} lies outside the largest weak component; --full-network keeps it"
        )
    traces = diffusion.threshold_sweep(g, seed, args.thetas, args.days)
    _emit(report.sweep(traces, args.format), args.out)


def _cmd_rank(args: argparse.Namespace) -> None:
    _emit(report.rank(_rank(_region(args), args)[1], args.format), args.out)


def _cmd_correlate(args: argparse.Namespace) -> None:
    matrix = ranking.correlation_matrix(_rank(_region(args), args)[1])
    _emit(report.correlation(matrix, args.format), args.out)


def _cmd_baseline(args: argparse.Namespace) -> None:
    g = _read_graph(args)
    actual = metrics.summarize(g)
    rows = [("actual", actual)]
    verdicts = []
    k = args.ws_k if args.model == "watts_strogatz" else None
    for idx, p in enumerate(args.p or [0.05, 0.10]):
        spec = baselines.RandomGraphSpec(
            model=args.model, n=g.node_count, p=p, rng_seed=args.seed + idx, k=k
        )
        label = f"{spec.model}_p{p:g}"
        base = metrics.summarize(baselines.generate(spec))
        rows.append((label, base))
        try:
            verdict = metrics.small_world_sigma(actual, base)
        except ValueError as exc:
            log.warning("sigma vs %s is undefined: %s", label, exc)
            verdicts.append((label, None))
            continue
        verdicts.append((label, verdict))
        kind = "small-world" if verdict.is_small_world else "not small-world"
        log.info("sigma vs %s: %.6f (%s)", label, verdict.sigma, kind)
    _emit(report.baseline(rows, verdicts, args.format), args.out)


def _cmd_export(args: argparse.Namespace) -> None:
    g = _read_graph(args)
    _emit(export.export_graph(largest_core(g) if args.core else g, args.format), args.out)


def _cmd_pipeline(args: argparse.Namespace) -> None:
    """Execute the full analysis and write the report directory.

    Everything is computed before anything is written, so a failure never
    leaves a half-finished report behind.
    """
    g = _read_graph(args)
    core = largest_core(g)
    fmt = args.format
    summary = _stats_report(g, core, fmt)
    table, ranked = _rank(g if args.full_network else core, args)
    matrix = ranking.correlation_matrix(ranked)
    rec = ranking.recommend(ranked)
    files = {
        f"summary.{fmt}": summary,
        f"centrality.{fmt}": report.centrality(table, fmt),
        f"rank.{fmt}": report.rank(ranked, fmt),
        f"correlation.{fmt}": report.correlation(matrix, fmt),
        "recommendation.json": report.recommendation(rec),
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
    log.info("recommended node %d (score %.6f); report in %s", rec.node, rec.score, out)


class _Parser(argparse.ArgumentParser):
    """argparse reserves status 2 for usage errors; this CLI uses 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser, region_flag: bool = True) -> None:
    p.add_argument("--input", required=True, help="edge CSV (header i,j)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument(
        "--out",
        default=None,
        help="output file, default stdout (pipeline: report directory, default report)",
    )
    if region_flag:
        p.add_argument(
            "--full-network",
            action="store_true",
            help="analyze the whole graph instead of the largest component",
        )


def _checked(cast: type, noun: str, ok: Callable[[Any], bool], requirement: str):
    """An argparse type: ``cast`` the text, then require ``ok`` of the value."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    return parse


_positive_int = _checked(int, "an integer", lambda v: v >= 1, ">= 1")
_even_degree = _checked(int, "an integer", lambda v: v >= 2 and v % 2 == 0, "even and >= 2")
_probability = _checked(float, "a number", lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
# NaN fails every comparison, so it is rejected too.
_positive_finite = _checked(float, "a number", lambda v: 0.0 < v < math.inf, "positive and finite")


def _node_id(text: str) -> int:
    """An argparse type: ASCII decimal digits, as in the CSV; int() also reads "+1" and "0_1"."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected decimal digits, got {text!r}")
    return int(text)


def _add_solver(p: argparse.ArgumentParser) -> None:
    """Flags of the subcommands that build the centrality table."""
    p.add_argument("--tol", type=_positive_finite, default=1e-10, help="eigenvector tolerance")
    p.add_argument(
        "--max-iter", type=_positive_int, default=1000, help="eigenvector iteration cap"
    )


def _add_ranking(p: argparse.ArgumentParser) -> None:
    """Flags of the subcommands that rank candidates by their cascades."""
    _add_solver(p)
    p.add_argument("--k", type=_positive_int, default=10, help="top-k per centrality measure")
    p.add_argument("--theta", type=_probability, default=0.1, help="adoption threshold")
    p.add_argument("--days", type=_positive_int, default=15, help="day cap per cascade")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="influnet",
        description="Find the account best placed to spread a message in a follow network.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("stats", help="structural summary of the network and its core")
    _add_common(p, region_flag=False)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("centrality", help="degree, betweenness, and eigenvector table")
    _add_common(p)
    _add_solver(p)
    p.set_defaults(func=_cmd_centrality)

    p = sub.add_parser("sweep", help="one seed's cascade across several thresholds")
    _add_common(p)
    p.add_argument("--seed-node", type=_node_id, help="cascade seed (default: most-followed node)")
    p.add_argument("--thetas", type=_probability, nargs="+", default=[*diffusion.DEFAULT_THETAS])
    p.add_argument("--days", type=_positive_int, default=15, help="day cap per cascade")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("rank", help="rank candidate seeds by spreading score")
    _add_common(p)
    _add_ranking(p)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("correlate", help="correlation matrix over the ranking columns")
    _add_common(p)
    _add_ranking(p)
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("baseline", help="compare against seeded random graphs")
    _add_common(p, region_flag=False)
    p.add_argument("--model", choices=("gnp", "watts_strogatz"), default="gnp")
    p.add_argument(
        "--p",
        type=_probability,
        action="append",
        help="edge (or rewire) probability; repeatable (default 0.05 and 0.10)",
    )
    p.add_argument(
        "--ws-k", type=_even_degree, default=10, help="lattice degree for watts_strogatz"
    )
    p.add_argument("--seed", type=int, default=0, help="base RNG seed; baseline i adds i")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("export", help="write the graph for external viewers")
    p.add_argument("--input", required=True, help="edge CSV (header i,j)")
    p.add_argument("--format", choices=export.FORMATS, default="dot")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--core", action="store_true", help="export only the largest component")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("pipeline", help="full analysis into a report directory")
    _add_common(p)
    _add_ranking(p)
    p.set_defaults(func=_cmd_pipeline, out="report")

    return parser


def main(argv: list[str] | None = None) -> int:
    # The handler lives on the package logger only for this call, so the
    # caller's handlers are left alone and repeated calls print each line once.
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    pkg = logging.getLogger("influnet")
    level = pkg.level
    pkg.addHandler(handler)
    pkg.setLevel(logging.INFO)
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
        return 0
    except SystemExit as exc:  # argparse: --help, or a usage error
        return int(exc.code or 0)
    except BrokenPipeError:
        # The reader is gone: say nothing.  As the signal module's docs advise,
        # stdout goes to devnull so the flush at interpreter exit cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, as a shell reports a process the signal killed
    except centrality.ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:  # an EdgeListParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        pkg.removeHandler(handler)
        pkg.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
