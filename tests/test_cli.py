"""Command-line behavior: outputs, exit codes, determinism."""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import logging
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import influnet
from influnet import metrics
from influnet.cli import build_parser, main
from helpers import FIXTURE, GOLDEN_DIR, over_int_limit

REPORT_FILES = (
    "summary.csv",
    "centrality.csv",
    "rank.csv",
    "correlation.csv",
    "recommendation.json",
)


# Report commands pinned byte-for-byte on the fixture, by golden file stem.
# Each golden under golden/cli is the stdout of `influnet <argv> --input
# follows12.csv --format <csv|json>`; the pipeline's CSV directory is the
# C8 golden set itself.
GOLDEN_COMMANDS = {
    "stats": ["stats"],
    "centrality": ["centrality"],
    "centrality_full": ["centrality", "--full-network"],
    "sweep": ["sweep"],
    "rank": ["rank"],
    "correlate": ["correlate"],
    "baseline": ["baseline"],
    "baseline_ws": ["baseline", "--model", "watts_strogatz", "--ws-k", "4", "--p", "0.1"],
    "pipeline": ["pipeline"],
}


def read_csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text), strict=True))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_report_bytes_match_golden(name, fmt, tmp_path, capsys):
    argv = [*GOLDEN_COMMANDS[name], "--input", str(FIXTURE), "--format", fmt]
    if name != "pipeline":
        assert main(argv) == 0
        golden = GOLDEN_DIR / "cli" / f"{name}.{fmt}"
        assert capsys.readouterr().out.encode("utf-8") == golden.read_bytes()
        return
    out = tmp_path / "report"
    assert main([*argv, "--out", str(out)]) == 0
    names = [f"{stem}.{fmt}" for stem in ("summary", "centrality", "rank", "correlation")]
    names.append("recommendation.json")
    assert sorted(f.name for f in out.iterdir()) == sorted(names)
    golden = GOLDEN_DIR if fmt == "csv" else GOLDEN_DIR / "pipeline_json"
    for f in names:
        assert (out / f).read_bytes() == (golden / f).read_bytes(), f


def test_missing_input_exits_2(capsys):
    rc = main(["stats", "--input", "/nope/absent.csv"])
    assert rc == 2
    assert "/nope/absent.csv" in capsys.readouterr().err


def test_unknown_flag_exits_1(capsys):
    assert main(["stats", "--input", str(FIXTURE), "--bogus"]) == 1


def test_missing_subcommand_exits_1(capsys):
    assert main([]) == 1


def test_bad_format_choice_exits_1(capsys):
    assert main(["stats", "--input", str(FIXTURE), "--format", "xml"]) == 1


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "pipeline" in capsys.readouterr().out


def _child_env() -> dict[str, str]:
    """This environment, with the tested package first on the path."""
    src = str(Path(influnet.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_python_m_influnet_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "influnet", "--help"],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=60,
    )
    assert proc.returncode == 0
    assert "pipeline" in proc.stdout
    assert proc.stderr == ""


def test_cli_import_leaves_dataclasses_unloaded():
    # Every command is a fresh process.  The result records are NamedTuples,
    # so start-up does not pay to import dataclasses.
    code = "import sys, influnet.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env(), timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")



def test_package_loads_each_submodule_on_first_use():
    # One fresh interpreter, so the modules an earlier test imported do not count.
    code = """
import sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("influnet."))

import influnet
print(loaded())
from influnet import ingest_edge_csv, largest_core
print(loaded())
import influnet.cli
print(loaded())
print(all(getattr(influnet, name) is not None for name in influnet.__all__))
try:
    influnet.no_such_name
except AttributeError as exc:
    print(exc)
print("__all__" in dir(influnet), set(influnet.__all__) <= set(dir(influnet)))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env(), timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    # The tracer wraps the stages that import influnet.cli loads: all nine modules.
    every = [f"influnet.{m}" for m in ("baselines", "centrality", "cli", "diffusion", "export",
                                       "graph", "metrics", "ranking", "report")]
    assert proc.stdout.splitlines() == [
        "[]",
        "['influnet.graph']",
        str(every),
        "True",
        "module 'influnet' has no attribute 'no_such_name'",
        "True True",
    ]

_HELP = {"-h": argparse.SUPPRESS, "--help": argparse.SUPPRESS}
_COMMON = {**_HELP, "--input": None, "--format": "csv", "--out": None}
_SOLVER = {"--max-iter": 1000}
_RANKING = {
    **_COMMON, "--full-network": False, **_SOLVER, "--k": 10, "--theta": 0.1, "--days": 15,
}
FLAG_SURFACE = {
    "stats": _COMMON,
    "centrality": {**_COMMON, "--full-network": False, **_SOLVER},
    "sweep": {
        **_COMMON, "--full-network": False, "--seed-node": None,
        "--thetas": [0.01, 0.05, 0.1, 0.2], "--days": 15,
    },
    "rank": _RANKING,
    "correlate": _RANKING,
    "baseline": {**_COMMON, "--model": "gnp", "--p": None, "--ws-k": 10, "--seed": 0},
    "export": {**_HELP, "--input": None, "--format": "dot", "--out": None, "--core": False},
    # A report directory, not stdout; no stage is randomized, so no --seed.
    "pipeline": {**_RANKING, "--out": "report"},
}


def test_flag_surface_is_pinned():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(FLAG_SURFACE)
    for command, p in sub.choices.items():
        flags = {opt: p.get_default(a.dest) for a in p._actions for opt in a.option_strings}
        assert flags == FLAG_SURFACE[command], command


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["rank", "--theta", "2"], "--theta"),
        (["rank", "--k", "0"], "--k"),
        (["rank", "--max-iter", "0"], "--max-iter"),
        (["rank", "--days", "0"], "--days"),
        (["rank", "--k", "two"], "--k"),
        (["correlate", "--theta", "nan"], "--theta"),
        (["centrality", "--max-iter", "0"], "--max-iter"),
        (["sweep", "--thetas", "0.1", "-0.5"], "--thetas"),
        (["sweep", "--days", "0"], "--days"),
        (["baseline", "--p", "1.5"], "--p"),
        (["pipeline", "--days", "0"], "--days"),
        (["pipeline", "--theta", "inf"], "--theta"),
        (["pipeline", "--max-iter", "-3"], "--max-iter"),
        (["centrality", "--max-iter", "1.5"], "--max-iter"),
        (["correlate", "--days", "-1"], "--days"),
        (["baseline", "--model", "watts_strogatz", "--ws-k", "3"], "--ws-k"),
        (["baseline", "--ws-k", "0"], "--ws-k"),
        (["baseline", "--ws-k", "-2"], "--ws-k"),
        (["baseline", "--ws-k", "four"], "--ws-k"),
        (["sweep", "--seed-node", "0_1"], "--seed-node"),
        (["sweep", "--seed-node", "+1"], "--seed-node"),
        (["sweep", "--seed-node", "-1"], "--seed-node"),
    ],
)
def test_bad_flag_value_exits_1_before_reading_input(argv, flag, capsys):
    # The input does not exist: reading it would exit 2, so exit 1 proves
    # the value was rejected before any work ran.
    rc = main(argv + ["--input", "/nope/absent.csv"])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"argument {flag}" in err
    assert "absent.csv" not in err


@pytest.mark.parametrize(
    "command",
    ["stats", "centrality", "sweep", "rank", "correlate", "baseline", "export", "pipeline"],
)
def test_threads_flag_only_where_work_is_parallel(command, tmp_path, capsys):
    # Betweenness on a large graph shares its sources among forked
    # processes, one per usable CPU, but that split has no knob: no
    # subcommand takes a thread or process count.
    argv = [command, "--input", str(FIXTURE), "--threads", "2"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_pipeline_seed_flag_is_gone(tmp_path, capsys):
    # No pipeline stage is randomized, so there is no seed to take.
    assert main(["pipeline", "--input", str(FIXTURE), "--seed", "3",
                 "--out", str(tmp_path / "r")]) == 1
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["centrality", "rank", "correlate", "pipeline"])
def test_tol_flag_is_gone(command, tmp_path, capsys):
    # The eigenvector solve stops at one fixed tolerance, so there is none to take.
    out = tmp_path / "out"
    assert main([command, "--input", str(FIXTURE), "--tol", "1e-6", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "--tol" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_flag_range_boundaries_are_accepted(capsys):
    rc = main([
        "rank", "--input", str(FIXTURE), "--theta", "0", "--k", "1", "--days", "1",
    ])
    assert rc == 0
    assert main(["sweep", "--input", str(FIXTURE), "--thetas", "0", "1"]) == 0


def test_headerless_csv_exits_2(tmp_path, capsys):
    bare = tmp_path / "bare.csv"
    bare.write_text("1,2\n2,3\n3,1\n", encoding="utf-8")
    assert main(["stats", "--input", str(bare)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err
    assert "header" in err


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("i,j\n1,2\nnope\n", encoding="utf-8")
    rc = main(["stats", "--input", str(bad)])
    assert rc == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("{id},2\n2,3\n", 1, "missing header row"),
        ("i,j\n1,2\n{id},2\n", 3, "Exceeds the limit"),
    ],
    ids=["headerless", "later-row"],
)
def test_id_past_the_int_limit_exits_2_with_its_line(text, line, message, tmp_path, capsys):
    path = tmp_path / "long.csv"
    path.write_text(text.format(id=over_int_limit()), encoding="utf-8")
    assert main(["stats", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [ln for ln in captured.err.splitlines() if "error:" in ln]
    assert len(errors) == 1
    assert errors[0].startswith(f"error: line {line}: {message}")


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("{long},2\n2,3\n", 1, "missing header row; first row '777"),
        ("i,j\n1,2\nx{long},2\n", 3, "node ids must be decimal digits, got 'x777"),
    ],
    ids=["headerless", "malformed"],
)
def test_long_row_is_quoted_cut_short(text, line, message, tmp_path, capsys):
    path = tmp_path / "long.csv"
    path.write_text(text.format(long="7" * 5000), encoding="utf-8")
    assert main(["stats", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [ln for ln in captured.err.splitlines() if "error:" in ln]
    assert len(errors) == 1
    assert errors[0].startswith(f"error: line {line}: {message}")
    assert len(errors[0]) < 200



def _rows_with_bad_byte(rows: int, line: int) -> bytes:
    """A header and ``rows`` edge rows, LF-ended, with byte 0xff opening line ``line``."""
    lines = [b"i,j", *(f"{k},{k + 1}".encode() for k in range(rows))]
    lines[line - 1] = b"\xff" + lines[line - 1]
    return b"".join(ln + b"\n" for ln in lines)


# Each input, and the line its byte 0xff is on.
NOT_UTF8 = {
    "short": (b"i,j\n1,2\n\xff,3\n", 3),  # inside the header search's reach
    "5000-rows": (_rows_with_bad_byte(5000, 3001), 3001),  # past the first 8-KB chunk
    "cr-crlf": (b"i,j\r\n1,2\r2,3\r\n\r\n3,\xff4\n", 5),
}


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("name", sorted(NOT_UTF8))
def test_byte_that_is_not_utf8_names_its_line(name, source, tmp_path, capsys):
    data, line = NOT_UTF8[name]
    if source == "file":
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        code = main(["stats", "--input", str(path)])
        captured = capsys.readouterr()
        out, err = captured.out, captured.err
    else:  # a pipe is read once; nothing can seek back to find the line
        proc = subprocess.run(
            [sys.executable, "-m", "influnet", "stats", "--input", "/dev/stdin"],
            input=data, capture_output=True, env=_child_env(), timeout=60,
        )
        code, out, err = proc.returncode, proc.stdout.decode(), proc.stderr.decode()
    assert (code, out) == (2, "")
    assert err == f"error: line {line}: byte 0xff is not UTF-8 (invalid start byte)\n"

def test_seed_node_past_the_int_limit_exits_1(capsys):
    long_id = over_int_limit()
    assert main(["sweep", "--input", str(FIXTURE), "--seed-node", long_id]) == 1
    err = capsys.readouterr().err
    errors = [ln for ln in err.splitlines() if "error:" in ln]
    assert len(errors) == 1
    assert "argument --seed-node: Exceeds the limit" in errors[0]
    assert long_id not in err  # argparse's own message would quote the whole id


@pytest.mark.parametrize(
    "rows",
    ["1,2\n2,3\n3,4\n", "1,0\n2,0\n2,9\n3,9\n4,9\n"],  # chain, fan-in
)
def test_centrality_on_acyclic_core_exits_0(tmp_path, rows, capsys):
    path = tmp_path / "dag.csv"
    path.write_text("i,j\n" + rows, encoding="utf-8")
    assert main(["centrality", "--input", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert read_csv(captured.out)[0][0] == "node"


def _write_unsettling(tmp_path):
    """Two mutual pairs, one following into the other.

    Plain iteration oscillates (eigenvalues +1 and -1), and the shifted
    retry only crawls, because A + I has a defective double eigenvalue 2;
    neither settles within any practical budget.
    """
    path = tmp_path / "pairs.csv"
    path.write_text("i,j\n1,2\n2,1\n3,4\n4,3\n3,1\n", encoding="utf-8")
    return path


def test_nonconvergence_exits_3(tmp_path, capsys):
    rc = main(["centrality", "--input", str(_write_unsettling(tmp_path)), "--max-iter", "40"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "retrying with shifted iteration" in err
    assert "did not settle" in err


@pytest.mark.parametrize(
    "rows",
    [
        "1,2\n2,1\n2,3\n3,2\n",  # mutual-follow path
        "0,1\n1,0\n0,2\n2,0\n0,3\n3,0\n",  # mutual star
    ],
)
def test_rank_on_bipartite_core_settles_by_shift(tmp_path, rows, capsys):
    path = tmp_path / "bipartite.csv"
    path.write_text("i,j\n" + rows, encoding="utf-8")
    assert main(["rank", "--input", str(path)]) == 0
    captured = capsys.readouterr()
    assert "WARNING" in captured.err and "shifted" in captured.err
    assert read_csv(captured.out)[0][0] == "node"


def test_stats_reports_full_and_core(capsys):
    assert main(["stats", "--input", str(FIXTURE)]) == 0
    rows = read_csv(capsys.readouterr().out)
    assert rows[0] == [
        "network", "nodes", "edges", "avg_path_length",
        "avg_clustering", "diameter", "components",
    ]
    byname = {r[0]: r for r in rows[1:]}
    assert byname["full"][1:3] == ["12", "17"]
    assert byname["full"][6] == "3"
    assert byname["core"][1:3] == ["8", "14"]
    assert byname["core"][6] == "1"


@pytest.mark.parametrize("command", ["stats", "pipeline"])
def test_connected_input_is_summarized_once(command, tmp_path, monkeypatch, capsys):
    path = tmp_path / "ring.csv"
    path.write_text("i,j\n1,2\n2,3\n3,4\n4,1\n1,3\n", encoding="utf-8")
    calls = []
    real = metrics.summarize
    monkeypatch.setattr(metrics, "summarize", lambda g: calls.append(g) or real(g))
    out = tmp_path / "out"
    assert main([command, "--input", str(path), "--out", str(out)]) == 0
    assert len(calls) == 1
    text = (out / "summary.csv" if command == "pipeline" else out).read_text()
    full, core = text.splitlines()[1:]
    assert full.replace("full", "core", 1) == core


def test_stats_json(capsys):
    assert main(["stats", "--input", str(FIXTURE), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["network"] for row in payload] == ["full", "core"]
    assert payload[1]["nodes"] == 8


def test_centrality_to_file(tmp_path):
    out = tmp_path / "cent.csv"
    rc = main(["centrality", "--input", str(FIXTURE), "--out", str(out)])
    assert rc == 0
    rows = read_csv(out.read_text(encoding="utf-8"))
    assert rows[0] == ["node", "in_degree", "out_degree", "betweenness", "eigenvector"]
    assert [r[0] for r in rows[1:]] == ["1", "2", "3", "0", "4", "5", "6", "7"]
    assert rows[1][1] == "5"


def test_centrality_full_network(capsys):
    rc = main(["centrality", "--input", str(FIXTURE), "--full-network"])
    assert rc == 0
    rows = read_csv(capsys.readouterr().out)
    assert len(rows) == 13


def test_sweep_defaults_to_top_followed_node(capsys):
    rc = main(["sweep", "--input", str(FIXTURE), "--thetas", "0.1", "0.5"])
    assert rc == 0
    rows = read_csv(capsys.readouterr().out)
    assert rows[0] == ["seed", "theta", "day", "active_count", "proportion"]
    assert {r[0] for r in rows[1:]} == {"1"}
    assert {r[1] for r in rows[1:]} == {"0.100000", "0.500000"}


def test_rank_matches_hand_worked_order(capsys):
    rc = main(["rank", "--input", str(FIXTURE)])
    assert rc == 0
    rows = read_csv(capsys.readouterr().out)
    assert [r[0] for r in rows[1:]] == ["1", "2", "3", "4", "0", "5", "6", "7"]
    assert rows[1][-1] == "50.000000"


def test_correlate_shape(capsys):
    rc = main(["correlate", "--input", str(FIXTURE)])
    assert rc == 0
    rows = read_csv(capsys.readouterr().out)
    assert len(rows) == 9
    assert rows[0][0] == ""
    for row in rows[1:]:
        for cell in row[1:]:
            assert cell == "undefined" or -1.0 <= float(cell) <= 1.0


def test_single_candidate_correlates_to_undefined_cells(tmp_path, capsys):
    # Node 0 leads all three measures, so --k 1 leaves one candidate.
    path = tmp_path / "star.csv"
    path.write_text("i,j\n1,0\n2,0\n3,0\n", encoding="utf-8")
    assert main(["correlate", "--input", str(path), "--k", "1"]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "report"
    assert main(["pipeline", "--input", str(path), "--k", "1", "--out", str(out)]) == 0
    assert (out / "correlation.csv").read_text(encoding="utf-8") == printed
    rows = read_csv(printed)
    assert len(rows) == 9
    assert all(cell == "undefined" for row in rows[1:] for cell in row[1:])


def test_baseline_gnp(capsys):
    rc = main([
        "baseline", "--input", str(FIXTURE), "--p", "0.3", "--seed", "4",
    ])
    assert rc == 0
    out, err = capsys.readouterr()
    rows = read_csv(out)
    assert [r[0] for r in rows] == ["network", "actual", "gnp_p0.3"]
    assert rows[2][1] == "12"
    assert "sigma vs gnp_p0.3" in err


def _follow_csv_200() -> str:
    """200 accounts, each following six others drawn with one seeded stream."""
    rng = random.Random(11)
    arcs = {(i, j) for i in range(200) for j in rng.sample(range(200), 6) if i != j}
    return "i,j\n" + "".join(f"{i},{j}\n" for i, j in sorted(arcs))


# sha256 of the whole stdout.  Unlike on the 12-node fixture, every random
# row here has triangles, so each row's clustering, path length, diameter
# and sigma are pinned as well as the actual row.
BASELINE_200_DIGESTS = {
    ("gnp", "csv"): "207a86c78fc9a789bab2a228ab06df4712ec28948e7e85da7b10f99b8c5d9a56",
    ("gnp", "json"): "4f47d4084acecf99068f4ae770e6c70154c46839507bf5331783b6a113520a5c",
    ("watts_strogatz", "csv"): "df43e6e1360b50b2cf2b5775b4c549ce1b14b70d3ddf12093269023b319dadc2",
    ("watts_strogatz", "json"): "acec032cd61124af49d337917df6f5a843c5739967c84dc7f3d92a74dd112375",
}


@pytest.mark.parametrize("model, fmt", sorted(BASELINE_200_DIGESTS))
def test_baseline_report_bytes_on_200_accounts(model, fmt, tmp_path, capsys):
    path = tmp_path / "follows.csv"
    path.write_text(_follow_csv_200(), encoding="utf-8")
    assert main(["baseline", "--input", str(path), "--model", model, "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "csv":
        assert all(float(r[4]) > 0 for r in read_csv(out)[1:])  # avg_clustering
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == BASELINE_200_DIGESTS[model, fmt]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_baseline_with_zero_clustering_random_graph_exits_0(fmt, capsys):
    # Both default G(12, p) baselines of the fixture have no triangle, so
    # sigma is undefined; the summaries are still reported.
    assert main(["baseline", "--input", str(FIXTURE), "--format", fmt]) == 0
    out, err = capsys.readouterr()
    assert err.count("WARNING sigma vs gnp_") == 2 and "undefined" in err
    if fmt == "json":
        verdicts = json.loads(out)["verdicts"]
        assert [v["sigma"] for v in verdicts] == [None, None]
    else:
        assert [r[0] for r in read_csv(out)[1:]] == ["actual", "gnp_p0.05", "gnp_p0.1"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_baseline_with_edgeless_random_graph_keeps_every_row(fmt, capsys):
    # G(12, 0) has no arc, hence no reachable pair: its path statistics and
    # sigma are undefined, and the actual row is still reported.
    assert main(["baseline", "--input", str(FIXTURE), "--p", "0", "--format", fmt]) == 0
    out, err = capsys.readouterr()
    assert "WARNING sigma vs gnp_p0 is undefined" in err
    if fmt == "json":
        payload = json.loads(out)
        actual, edgeless = payload["summaries"]
        assert (actual["network"], actual["avg_path_length"]) == ("actual", 1.948718)
        assert (edgeless["edges"], edgeless["avg_path_length"], edgeless["diameter"]) == (
            0, None, None)
        assert payload["verdicts"][0]["sigma"] is None
    else:
        assert read_csv(out)[1:] == [
            ["actual", "12", "17", "1.948718", "0.294444", "5", "3"],
            ["gnp_p0", "12", "0", "undefined", "0.000000", "undefined", "12"],
        ]


def test_caller_log_handlers_survive_main(caplog, capsys):
    root = logging.getLogger()
    before = list(root.handlers)
    with caplog.at_level(logging.INFO):
        assert main(["stats", "--input", str(FIXTURE)]) == 0
        assert main(["stats", "--input", str(FIXTURE)]) == 0
    assert root.handlers == before
    assert caplog.handler in root.handlers
    core_lines = [r.getMessage() for r in caplog.records if r.name == "influnet.graph"]
    assert core_lines == [
        "core: kept 8 of 12 nodes (4 outside the largest weak component)"
    ] * 2
    # Each call prints its line once: no handler is left behind to repeat it.
    assert capsys.readouterr().err.count("INFO core: kept") == 2


def test_core_restriction_is_reported_on_stderr(capsys):
    assert main(["stats", "--input", str(FIXTURE)]) == 0
    assert capsys.readouterr().err == (
        "INFO core: kept 8 of 12 nodes (4 outside the largest weak component)\n"
    )


def test_baseline_json_verdicts(capsys):
    rc = main([
        "baseline", "--input", str(FIXTURE), "--model", "watts_strogatz",
        "--ws-k", "4", "--p", "0.1", "--format", "json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["summaries"]) == 2
    verdict = payload["verdicts"][0]
    assert verdict["baseline"] == "watts_strogatz_p0.1"
    assert isinstance(verdict["is_small_world"], bool)


def test_export_dot_stdout(capsys):
    assert main(["export", "--input", str(FIXTURE)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph G {")
    assert "8 -> 9;" in out


# Each golden is the stdout of `influnet export --input follows12.csv
# --format <fmt>`, named export_core.<fmt> when --core is added.
@pytest.mark.parametrize("core", [False, True])
@pytest.mark.parametrize("fmt", ["dot", "graphml", "csv"])
def test_export_bytes_match_golden(fmt, core, capsys):
    argv = ["export", "--input", str(FIXTURE), "--format", fmt]
    assert main(argv + ["--core"] * core) == 0
    golden = GOLDEN_DIR / "cli" / f"export{'_core' * core}.{fmt}"
    assert capsys.readouterr().out.encode("utf-8") == golden.read_bytes()


def test_export_core_only(capsys):
    assert main(["export", "--input", str(FIXTURE), "--core", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "8,9" not in out
    assert "0,1" in out


def test_pipeline_writes_report(tmp_path):
    out = tmp_path / "report"
    rc = main(["pipeline", "--input", str(FIXTURE), "--out", str(out)])
    assert rc == 0
    for name in REPORT_FILES:
        assert (out / name).is_file()
    rec = json.loads((out / "recommendation.json").read_text(encoding="utf-8"))
    assert rec["node"] == 1
    assert rec["score"] == 50.0


def test_pipeline_json_format(tmp_path):
    out = tmp_path / "report"
    rc = main([
        "pipeline", "--input", str(FIXTURE), "--format", "json", "--out", str(out),
    ])
    assert rc == 0
    assert (out / "rank.json").is_file()
    assert not (out / "rank.csv").exists()
    ranked = json.loads((out / "rank.json").read_text(encoding="utf-8"))
    assert ranked[0]["node"] == 1


def test_pipeline_full_network(tmp_path):
    out = tmp_path / "report"
    rc = main([
        "pipeline", "--input", str(FIXTURE), "--full-network", "--out", str(out),
    ])
    assert rc == 0
    rec = json.loads((out / "recommendation.json").read_text(encoding="utf-8"))
    assert rec["node"] == 1
    summary = (out / "summary.csv").read_text(encoding="utf-8")
    rank = (out / "rank.csv").read_text(encoding="utf-8")
    # Population is now all 12 nodes, so full reach is 8/12.
    assert "0.666667" in rank
    assert summary.splitlines()[1].startswith("full,12,17")


def test_pipeline_failure_leaves_no_partial_report(tmp_path, capsys):
    out = tmp_path / "report"
    rc = main([
        "pipeline", "--input", str(_write_unsettling(tmp_path)), "--max-iter", "30",
        "--out", str(out),
    ])
    assert rc == 3
    assert not out.exists()


def test_pipeline_failed_write_exits_2_and_keeps_earlier_files(tmp_path, capsys):
    # Only analysis failures write nothing; the writes themselves are not all-or-none.
    out = tmp_path / "report"
    (out / "rank.csv").mkdir(parents=True)
    assert main(["pipeline", "--input", str(FIXTURE), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error: ")] == [
        f"error: [Errno 21] Is a directory: '{out / 'rank.csv'}'"
    ]
    assert "Traceback" not in err
    assert (out / "summary.csv").read_bytes() == (GOLDEN_DIR / "summary.csv").read_bytes()
    assert (out / "centrality.csv").is_file()


@pytest.mark.parametrize("region", [[], ["--full-network"]])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_pipeline_files_are_the_subcommand_reports(fmt, region, tmp_path, capsys):
    def stdout(command: str, *flags: str) -> str:
        assert main([command, "--input", str(FIXTURE), "--format", fmt, *flags]) == 0
        return capsys.readouterr().out

    out = tmp_path / "report"
    assert main(["pipeline", "--input", str(FIXTURE), "--format", fmt, *region,
                 "--out", str(out)]) == 0
    # stats takes no region flag: its full and core rows cover both.
    assert (out / f"summary.{fmt}").read_text(encoding="utf-8") == stdout("stats")
    for stem, command in [("centrality", "centrality"), ("rank", "rank"),
                          ("correlation", "correlate")]:
        text = (out / f"{stem}.{fmt}").read_text(encoding="utf-8")
        assert text == stdout(command, *region), stem
    rank = (out / f"rank.{fmt}").read_text(encoding="utf-8")
    first = json.loads(rank)[0]["node"] if fmt == "json" else int(read_csv(rank)[1][0])
    rec = json.loads((out / "recommendation.json").read_text(encoding="utf-8"))
    assert rec["node"] == first


@pytest.mark.parametrize("region", [[], ["--full-network"]])
def test_sweep_absent_seed_exits_2(region, capsys):
    assert main(["sweep", "--input", str(FIXTURE), "--seed-node", "99", *region]) == 2
    assert capsys.readouterr().err.endswith("error: seed 99 is not a node of the graph\n")


def test_sweep_seed_outside_the_core_names_full_network(capsys):
    # Node 9 is in the input, in a weak component apart from the core.
    argv = ["sweep", "--input", str(FIXTURE), "--seed-node", "9"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "seed 9 lies outside the largest weak component" in err
    assert "--full-network keeps it" in err
    assert main([*argv, "--full-network"]) == 0
    assert {r[0] for r in read_csv(capsys.readouterr().out)[1:]} == {"9"}


@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("argv", [["stats"], ["export", "--format", "graphml"]])
def test_closed_stdout_exits_141_quietly(argv, buffered):
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes a byte
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "influnet", *argv, "--input", str(FIXTURE)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    for marker in ("error:", "Traceback", "Exception ignored"):
        assert marker not in proc.stderr
