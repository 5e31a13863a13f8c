"""influnet benchmark: seeded follow graphs through the ``influnet`` CLI.

    python3 bench/run.py --workload pipeline-874 --seed 0 --seconds 30 --trace 0

The run generates the workload's input from ``--seed``, then drives the
CLI from the checkout's ``src/`` in a closed loop with one client: each
command starts only after the previous one exits, and the workload's
commands run in sequence until ``--seconds`` is spent.  Every output is
checked (see ``workloads.py``); a nonzero exit or a failed check counts
as a failed operation.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` and ``cpu_s``
(user+sys from ``os.wait4``) of the workload's commands and
``peak_rss_mb``, the largest ``ru_maxrss`` among them, each the median
over repetitions; and ``setup_s``, the median wall time of fresh
interpreters that import influnet, ingest the input and take its core.
``--trace 1`` instead runs the commands in one process under the stage
tracer (``tracer.py``) and reports the per-layer metrics.

The end-to-end times are in nominal seconds.  On a shared machine the
speed of the same Python code drifts, with the same factor for wall and
CPU time: on the 2-core host that set the baseline, the reference below
took from 0.10 to 0.28 s across the baseline's runs, and up to 1.7x as long
at one point of a 30-s run as at another.  Raw seconds from two runs
minutes apart are therefore hard to compare.  A fixed reference kernel (``reference``; pure
Python, no influnet code) is therefore timed just before and after every
timed process, and the process's times are rescaled by ``NOMINAL_REF_S``
over the mean of the two reference times: a nominal second is the time in
which the reference would run ``1 / NOMINAL_REF_S`` times.  The raw
seconds and the scale are printed and kept in ``--results``.  Per-layer
times are raw seconds of the median traced repetition (see ``tracer.py``);
compare them as shares of ``trace.wall_s``.

Every metric is printed by name and unit; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--results FILE`` also appends the full record, with the input's shape
and sha256 and the environment, as one JSON line for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from gen import FollowGraph, GraphSpec, generate  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Command, Workload, digest  # noqa: E402

CLI = "import sys; from influnet.cli import main; sys.exit(main())"
PROBE = """\
import sys
import influnet
with open(sys.argv[1], encoding="utf-8") as fh:
    g = influnet.ingest_edge_csv(fh).graph
core = influnet.largest_core(g)
print(influnet.__file__, g.node_count, core.node_count)
"""
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s whatever the program does
COMPUTED = {"metrics.arc_visits", "baselines.pairs_tossed"}  # n*m per sweep, n(n-1)/2 per G(n,p)


NOMINAL_REF_S = 0.125  # median reference time on the 2-core x86-64 host, Python 3.11, that set it
# The reference works on a paper-scale graph so that its working set, like
# the workloads', outgrows the small caches that neighbours contend for.
_REF_GRAPH = generate(GraphSpec(n=874), seed=1)
_REF_ADJ: list[list[int]] = [[] for _ in range(874)]
for _i, _j in _REF_GRAPH.arcs:
    _REF_ADJ[_i].append(_j)


def reference() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed mix of BFS sweeps and edge-row parsing."""
    wall, cpu = time.perf_counter(), time.process_time()
    n = len(_REF_ADJ)
    for s in range(0, n, 2):
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in _REF_ADJ[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
    for _ in range(4):
        rows = {tuple(map(int, line.split(","))) for line in _REF_GRAPH.csv.splitlines()[1:]}
    if len(rows) != len(_REF_GRAPH.arcs):
        raise RuntimeError("reference kernel miscounted")
    return time.perf_counter() - wall, time.process_time() - cpu


class Clock:
    """Rescales each timed process by the reference times taken just before and after it."""

    def __init__(self) -> None:
        self.refs = [reference()]

    def scales(self) -> tuple[float, float]:
        """Call after each timed process: (wall, cpu) factors to nominal seconds."""
        self.refs.append(reference())
        (w0, c0), (w1, c1) = self.refs[-2:]
        return 2 * NOMINAL_REF_S / (w0 + w1), 2 * NOMINAL_REF_S / (c0 + c1)


@dataclass
class Proc:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


class Runner:
    """Starts interpreters on the checkout's sources and never outlives them."""

    def __init__(self, root: Path, tmp: Path, deadline: float) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.tmp = tmp
        self.deadline = deadline

    def run(self, *argv: str) -> Proc:
        out, err = self.tmp / "stdout.txt", self.tmp / "stderr.txt"
        with out.open("w") as fo, err.open("w") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=fo, stderr=fe,
                                    env=self.env, cwd=self.tmp)
            killer = threading.Timer(max(self.deadline - start, 0.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                    proc.returncode, out.read_text(), err.read_text())


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}: " + "; ".join(problems[:5]), file=sys.stderr)


class OutputCheck:
    """Checks one command's output; remembers first bytes for the repeat check."""

    def __init__(self, graph: FollowGraph, seed: int) -> None:
        self.graph = graph
        self.seed = seed
        self.first: dict[int, str] = {}

    def __call__(self, k: int, cmd: Command, out: Path, code: int, stderr: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-300:]}"]
        if not out.exists():
            return ["no output written"]
        try:
            problems = cmd.check(out, self.graph)
            if self.seed == DEFAULT_SEED and cmd.pinned(out) != cmd.pin:
                problems.append("bytes differ from the pinned digest")
        except (ValueError, IndexError, KeyError, TypeError, OSError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        d = digest(out)
        if self.first.setdefault(k, d) != d:
            problems.append("bytes differ from the first repetition")
        if out.is_dir():
            shutil.rmtree(out)
        else:
            out.unlink()
        return problems


def _fill(cmd: Command, inp: Path, out: Path) -> list[str]:
    return [a.replace("{input}", str(inp)).replace("{out}", str(out)) for a in cmd.argv]


def end_to_end(w: Workload, g: FollowGraph, inp: Path, runner: Runner,
               check: OutputCheck, tally: Tally, seconds: float) -> dict[str, float]:
    want = f"{runner.env['PYTHONPATH']}{os.sep}influnet{os.sep}__init__.py " \
           f"{g.core_nodes + g.excluded_nodes} {g.core_nodes}"

    def probe() -> float:
        p = runner.run("-c", PROBE, str(inp))
        ok = p.code == 0 and p.stdout.strip() == want
        tally.record("setup probe", [] if ok else [f"probe said {p.stdout.strip()!r}"])
        return p.wall

    probe()  # untimed: warms bytecode and page caches
    clock = Clock()
    samples: dict[str, list[float]] = {k: [] for k in ("wall_s", "cpu_s", "peak_rss_mb", "scale")}
    raw: dict[str, list[float]] = {"wall_s": [], "cpu_s": [], "setup_s": []}
    samples["setup_s"] = []
    for _ in range(SETUP_PROBES):
        raw["setup_s"].append(probe())
        samples["setup_s"].append(raw["setup_s"][-1] * clock.scales()[0])
    start = time.perf_counter()
    lap = 0.0
    while not lap or time.perf_counter() - start + lap <= seconds:
        lap = time.perf_counter()
        wall = cpu = raw_wall = raw_cpu = rss = 0.0
        for k, cmd in enumerate(w.commands):
            out = runner.tmp / cmd.out
            p = runner.run("-c", CLI, *_fill(cmd, inp, out))
            wall_scale, cpu_scale = clock.scales()
            tally.record(cmd.argv[0], check(k, cmd, out, p.code, p.stderr))
            samples["scale"].append(wall_scale)
            wall, cpu = wall + p.wall * wall_scale, cpu + p.cpu * cpu_scale
            raw_wall, raw_cpu, rss = raw_wall + p.wall, raw_cpu + p.cpu, max(rss, p.rss_mb)
        lap = time.perf_counter() - lap
        raw["wall_s"].append(raw_wall)
        raw["cpu_s"].append(raw_cpu)
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(cpu)
        samples["peak_rss_mb"].append(rss)
    result: dict = {k: statistics.median(v) for k, v in samples.items()}
    result.update({f"raw_{k}": statistics.median(v) for k, v in raw.items()})
    result["repetitions"] = len(raw["wall_s"])
    result["samples"] = dict(samples, **{f"raw_{k}": v for k, v in raw.items()},
                             reference_s=[r[0] for r in clock.refs])
    return result


def traced(w: Workload, g: FollowGraph, inp: Path, runner: Runner,
           check: OutputCheck, tally: Tally, seconds: float) -> tuple[dict, list[str]]:
    job = {
        "commands": [_fill(c, inp, runner.tmp / f"{{rep}}-{c.out}") for c in w.commands],
        "input": str(inp),
        "seconds": seconds,
        "result": str(runner.tmp / "trace.json"),
    }
    (runner.tmp / "job.json").write_text(json.dumps(job))
    runner.run("-c", "import influnet.cli")  # warms bytecode, so cli.import_s is a warm import
    p = runner.run(str(BENCH / "tracer.py"), str(runner.tmp / "job.json"))
    if p.code != 0:
        tally.record("traced worker", [f"exit code {p.code}: {p.stderr.strip()[-300:]}"])
        return {}, []
    result = json.loads((runner.tmp / "trace.json").read_text())
    for rep, codes in enumerate(result["exit_codes"]):
        for k, (cmd, code) in enumerate(zip(w.commands, codes)):
            out = runner.tmp / f"{rep}-{cmd.out}"
            tally.record(cmd.argv[0], check(k, cmd, out, code, p.stderr))
    return result["metrics"], result["missing"]


def _commit(root: Path) -> str | None:
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", type=Path, help="append the full record as a JSON line")
    ap.add_argument("--root", type=Path, default=BENCH.parent,
                    help="checkout whose src/ is measured (default: this one)")
    args = ap.parse_args()
    deadline = time.perf_counter() + RUN_LIMIT_S
    root = args.root.resolve()
    if not (root / "src" / "influnet" / "cli.py").is_file():
        print(f"error: no influnet sources under {root / 'src'}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["end_to_end" if not args.trace else "per_layer"]}

    w = WORKLOADS[args.workload]
    g = generate(w.spec, args.seed)
    work = BENCH.parent / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp_name:
        tmp = Path(tmp_name)
        inp = tmp / "follows.csv"
        inp.write_text(g.csv, encoding="utf-8")
        runner = Runner(root, tmp, deadline)
        check = OutputCheck(g, args.seed)
        tally = Tally()
        if args.trace:
            measured, missing = traced(w, g, inp, runner, check, tally, args.seconds)
        else:
            measured, missing = end_to_end(w, g, inp, runner, check, tally, args.seconds), []

    metrics = {k: {"value": measured[k], "unit": u} for k, u in units.items() if k in measured}
    missing += [k for k in units if k not in measured and k not in missing]
    shape = g.shape()
    print(f"workload {w.name} seed {args.seed} trace {args.trace}; input "
          + " ".join(f"{k}={v}" for k, v in shape.items()))
    for k, m in metrics.items():
        v = m["value"]
        note = "  (computed from sizes)" if k in COMPUTED else ""
        print(f"  {k:28s} {v:>16d}" if isinstance(v, int) else f"  {k:28s} {v:>16.6f}",
              m["unit"] + note)
    for k in missing:
        print(f"  {k:28s} {'missing':>16s}")
    if "repetitions" in measured:
        print(f"  medians over {measured['repetitions']} repetitions, setup over "
              f"{SETUP_PROBES} probes; raw wall {measured['raw_wall_s']:.6f} s, "
              f"cpu {measured['raw_cpu_s']:.6f} s, setup {measured['raw_setup_s']:.6f} s; "
              f"nominal/raw scale {measured['scale']:.4f}")
    print(f"  error_rate {tally.failed}/{tally.attempted} operations")
    record = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    if args.results:
        env = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "commit": _commit(root)}
        full = dict(record, workload=w.name, seed=args.seed, trace=args.trace,
                    seconds=args.seconds, input=shape, missing=missing, env=env,
                    raw={k: v for k, v in measured.items() if k not in metrics})
        with args.results.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(full) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
