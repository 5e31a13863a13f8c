"""Command-line front end.

Every subcommand reads the same two-column follow CSV and writes one
report to stdout or a file; ``pipeline`` chains the whole analysis and
writes a report directory.  Table reports are rendered by
:func:`influnet.table.render` from the column spec of the module that
computes them, so ``--format`` picks CSV or JSON for all of them alike.

Exit codes: 0 success, 1 usage error (including a flag value out of
range, caught before any work runs), 2 unreadable or invalid data, 3
iteration failed to converge.  Reruns with the same inputs and seed are
byte-identical.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Any, Callable

from . import baselines, centrality, diffusion, export, metrics, ranking
from .errors import ConvergenceError, EdgeListParseError
from .graph import DirectedGraph, ingest_edge_csv, largest_core
from .table import dump_json, records, render

log = logging.getLogger("influnet.cli")  # not __name__, "__main__" under python -m


@dataclass
class PipelineConfig:
    input_path: Path
    theta: float = 0.1
    max_days: int = 15
    top_k: int = 10
    use_core: bool = True
    output_format: str = "csv"
    out_dir: Path = Path("report")
    tol: float = 1e-10
    max_iter: int = 1000


def _read_graph(path: Path) -> DirectedGraph:
    with path.open("r", encoding="utf-8") as fh:
        return ingest_edge_csv(fh).graph


def _region(g: DirectedGraph, use_core: bool) -> DirectedGraph:
    return largest_core(g) if use_core else g


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _summary_rows(g: DirectedGraph, core: DirectedGraph) -> list[tuple]:
    """The "full" row, and a "core" row when the core has a pair of nodes.

    When the graph is its own core the full summary is reused, so the
    all-pairs sweep runs once.
    """
    full = metrics.summarize(g)
    rows = [("full", *astuple(full))]
    if core.node_count >= 2:
        rows.append(("core", *astuple(full if core is g else metrics.summarize(core))))
    return rows


def _correlation_report(matrix: ranking.CorrelationMatrix, fmt: str) -> str:
    if fmt == "json":
        return ranking.correlation_json(matrix)
    return render(*ranking.correlation_table(matrix), fmt)


def _cmd_stats(args: argparse.Namespace) -> int:
    g = _read_graph(Path(args.input))
    rows = _summary_rows(g, largest_core(g))
    _emit(render(metrics.SUMMARY_COLUMNS, rows, args.format), args.out)
    return 0


def _cmd_centrality(args: argparse.Namespace) -> int:
    g = _region(_read_graph(Path(args.input)), not args.full_network)
    table = centrality.full_table(g, tol=args.tol, max_iter=args.max_iter)
    rows = centrality.centrality_rows(table)
    _emit(render(centrality.CENTRALITY_COLUMNS, rows, args.format), args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    g = _region(_read_graph(Path(args.input)), not args.full_network)
    seed = args.seed_node
    if seed is None:
        seed = max(g.ids, key=g.in_degree)  # ids ascend: the smallest id wins ties
    traces = diffusion.threshold_sweep(g, seed, args.thetas, args.days)
    # JSON keeps one object per trace; CSV spells out one row per day.
    if args.format == "json":
        text = render(diffusion.TRACE_COLUMNS, diffusion.trace_rows(traces), "json")
    else:
        text = render(diffusion.DAY_COLUMNS, diffusion.day_rows(traces), "csv")
    _emit(text, args.out)
    return 0


def _rank(
    g: DirectedGraph, top_k: int, theta: float, max_days: int, tol: float, max_iter: int
) -> tuple[centrality.CentralityTable, list[ranking.RankRecord]]:
    """The centrality table, and the ranked cascades of its top-k candidates."""
    table = centrality.full_table(g, tol=tol, max_iter=max_iter)
    candidates = ranking.select_candidates(table, top_k)
    config = diffusion.DiffusionConfig(theta=theta, max_days=max_days)
    return table, ranking.rank_candidates(g, candidates, config, table)


def _ranked_records(args: argparse.Namespace) -> list[ranking.RankRecord]:
    g = _region(_read_graph(Path(args.input)), not args.full_network)
    return _rank(g, args.k, args.theta, args.days, args.tol, args.max_iter)[1]


def _cmd_rank(args: argparse.Namespace) -> int:
    rows = [astuple(r) for r in _ranked_records(args)]
    _emit(render(ranking.RANK_COLUMNS, rows, args.format), args.out)
    return 0


def _cmd_correlate(args: argparse.Namespace) -> int:
    matrix = ranking.correlation_matrix(_ranked_records(args))
    _emit(_correlation_report(matrix, args.format), args.out)
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    g = _read_graph(Path(args.input))
    actual = metrics.summarize(g)
    rows = [("actual", *astuple(actual))]
    verdicts = []
    ps = args.p if args.p else [0.05, 0.10]
    for idx, p in enumerate(ps):
        spec = baselines.RandomGraphSpec(
            model=args.model,
            n=g.node_count,
            p=p,
            rng_seed=args.seed + idx,
            k=args.ws_k if args.model == "watts_strogatz" else None,
        )
        label = f"{spec.model}_p{p:g}"
        base = metrics.summarize(baselines.generate(spec))
        rows.append((label, *astuple(base)))
        try:
            verdict = metrics.small_world_sigma(actual, base)
        except ValueError as exc:
            log.warning("sigma vs %s is undefined: %s", label, exc)
            verdicts.append((label, None, None, None, None))
            continue
        verdicts.append((label, *astuple(verdict)))
        log.info(
            "sigma vs %s: %.6f (%s)",
            label,
            verdict.sigma,
            "small-world" if verdict.is_small_world else "not small-world",
        )
    if args.format == "json":
        text = dump_json({
            "summaries": records(metrics.SUMMARY_COLUMNS, rows),
            "verdicts": records(metrics.VERDICT_COLUMNS, verdicts),
        })
    else:
        text = render(metrics.SUMMARY_COLUMNS, rows, "csv")
    _emit(text, args.out)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    g = _read_graph(Path(args.input))
    if args.core:
        g = largest_core(g)
    _emit(export.export_graph(g, args.format), args.out)
    return 0


def run_pipeline(config: PipelineConfig) -> ranking.Recommendation:
    """Execute the full analysis and write the report directory.

    Everything is computed before anything is written, so a failure never
    leaves a half-finished report behind.
    """
    g = _read_graph(config.input_path)
    core = largest_core(g)
    summary_rows = _summary_rows(g, core)
    region = core if config.use_core else g
    table, records = _rank(
        region, config.top_k, config.theta, config.max_days, config.tol, config.max_iter
    )
    matrix = ranking.correlation_matrix(records)
    rec = ranking.recommend(records)

    fmt = config.output_format
    files = {
        f"summary.{fmt}": render(metrics.SUMMARY_COLUMNS, summary_rows, fmt),
        f"centrality.{fmt}": render(
            centrality.CENTRALITY_COLUMNS, centrality.centrality_rows(table), fmt
        ),
        f"rank.{fmt}": render(ranking.RANK_COLUMNS, [astuple(r) for r in records], fmt),
        f"correlation.{fmt}": _correlation_report(matrix, fmt),
        "recommendation.json": ranking.recommendation_json(rec),
    }

    config.out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (config.out_dir / name).write_text(text, encoding="utf-8")
    log.info(
        "recommended node %d (score %.6f); report in %s", rec.node, rec.score, config.out_dir
    )
    return rec


def _cmd_pipeline(args: argparse.Namespace) -> int:
    config = PipelineConfig(
        input_path=Path(args.input),
        theta=args.theta,
        max_days=args.days,
        top_k=args.k,
        use_core=not args.full_network,
        output_format=args.format,
        out_dir=Path(args.out),
        tol=args.tol,
        max_iter=args.max_iter,
    )
    run_pipeline(config)
    return 0


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
        return args.func(args)
    except SystemExit as exc:  # argparse: --help, or a usage error
        return int(exc.code or 0)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (EdgeListParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        pkg.removeHandler(handler)
        pkg.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
