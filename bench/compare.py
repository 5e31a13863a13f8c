"""Compare a parent commit and a change on the benchmark.

    python3 bench/compare.py run --parent DIR --change DIR --workload W --out DIR
    python3 bench/compare.py report PARENT.jsonl CHANGE.jsonl
    python3 bench/compare.py baseline RESULTS.jsonl... > bench/baseline.json

``run`` measures both checkouts' ``src/`` with this checkout's benchmark
code and settings, each run as long as ``run_seconds`` in
``BENCHMARK.json``, pair by pair: pair i uses seed ``--seed + i``, and the
side that runs first alternates.  It appends to ``parent.jsonl`` and
``change.jsonl`` in ``--out`` and then prints the report.

``report`` prints, per workload and end-to-end metric, each side's median
and quartiles, the pairs the change won, and a verdict:

- improved: the change wins at least 9 in 10 of at least 10 pairs (ties
  count for neither), its median beats the parent's by more than the
  parent's quartile spread, and it fails no more operations;
- worse: the change's median is worse by more than the bound, whatever
  the spread;
- unresolved: neither of the above, and the parent's own spread is wider
  than the metric's bound, unless every change run beats every parent run;
- unchanged: otherwise.

``baseline`` folds result files into the record of first numbers kept in
``bench/baseline.json``: environment, seeds, input shapes, end-to-end
medians, quartiles and spreads (quartile distance over median), the same
for the raw seconds before rescaling, each traced run's per-layer values,
and the map from each layer metric to the end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from gen import generate  # noqa: E402
from workloads import DEFAULT_SEED, LAYER_MAP, WORKLOADS  # noqa: E402

MIN_PAIRS = 10


def _spec() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _load(path: Path, trace: int = 0) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [r for r in map(json.loads, fh) if r["trace"] == trace]


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def _summary(xs: list[float]) -> dict[str, float]:
    q1, med, q3 = _quartiles(xs)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def verdict(parent: list[float], change: list[float], lower_is_better: bool,
            bound: float, more_failures: bool) -> tuple[str, int]:
    """Apply the rule in the module docstring to paired samples; also return the wins."""
    sign = 1.0 if lower_is_better else -1.0
    p_q1, p_med, p_q3 = _quartiles(parent)
    gain = sign * (p_med - statistics.median(change))  # > 0 when the change is better
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    spread = p_q3 - p_q1
    if (len(parent) >= MIN_PAIRS and wins >= 0.9 * len(parent) and gain > spread
            and not more_failures):
        return "improved", wins
    if lower_is_better:
        every_run_better = max(change) < min(parent)
    else:
        every_run_better = min(change) > max(parent)
    if -gain > bound * abs(p_med):
        return "worse", wins
    if spread > bound * abs(p_med) and not every_run_better:
        return "unresolved", wins
    return "unchanged", wins


def report(parent_path: Path, change_path: Path) -> None:
    parent = {(r["workload"], r["seed"]): r for r in _load(parent_path)}
    change = {(r["workload"], r["seed"]): r for r in _load(change_path)}
    pairs = sorted(set(parent) & set(change))
    for w in sorted({k[0] for k in pairs}):
        keys = [k for k in pairs if k[0] == w]
        fails = [sum(side[k]["failed"] for k in keys) for side in (parent, change)]
        tries = [sum(side[k]["attempted"] for k in keys) for side in (parent, change)]
        print(f"{w}: {len(keys)} pairs; failed operations parent {fails[0]}/{tries[0]}, "
              f"change {fails[1]}/{tries[1]}"
              + ("  -> worse" if fails[1] > fails[0] else "")
              + (f"  (under {MIN_PAIRS} pairs: no gain can be claimed)"
                 if len(keys) < MIN_PAIRS else ""))
        for m in _spec()["end_to_end"]:
            name = m["name"]
            p = [parent[k]["metrics"][name]["value"] for k in keys]
            c = [change[k]["metrics"][name]["value"] for k in keys]
            pq, cq = _quartiles(p), _quartiles(c)
            v, wins = verdict(p, c, m["better"] == "lower", m["bound"], fails[1] > fails[0])
            print(f"  {name:12s} parent {pq[1]:.4f} [{pq[0]:.4f}, {pq[2]:.4f}]  "
                  f"change {cq[1]:.4f} [{cq[0]:.4f}, {cq[2]:.4f}] {m['unit']}  "
                  f"won {wins}/{len(keys)}  bound {m['bound']:.0%}  {v}")


def run_pairs(args: argparse.Namespace) -> None:
    args.out.mkdir(parents=True, exist_ok=True)
    sides = [("parent", args.parent), ("change", args.change)]
    for i in range(args.pairs):
        for side, root in (sides if i % 2 == 0 else sides[::-1]):
            cmd = [sys.executable, str(BENCH / "run.py"), "--root", str(root),
                   "--workload", args.workload, "--seed", str(args.seed + i),
                   "--trace", "0",
                   "--results", str(args.out / f"{side}.jsonl")]
            print(f"pair {i} {side}: seed {args.seed + i}", flush=True)
            subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    report(args.out / "parent.jsonl", args.out / "change.jsonl")


def baseline(paths: list[Path]) -> dict:
    e2e = [r for p in paths for r in _load(p, 0)]
    traced = [r for p in paths for r in _load(p, 1)]
    out: dict = {
        "env": e2e[0]["env"] if e2e else None,
        "default_seed": DEFAULT_SEED,
        "seeds": sorted({r["seed"] for r in e2e + traced}),
        "run_seconds": sorted({r["seconds"] for r in e2e + traced}),
        "layer_map": LAYER_MAP,
        "workloads": {},
    }
    for name, w in WORKLOADS.items():
        runs = [r for r in e2e if r["workload"] == name]
        tr = [r for r in traced if r["workload"] == name]
        entry: dict = {"input_at_default_seed": generate(w.spec, DEFAULT_SEED).shape(),
                       "runs": len(runs), "failed": sum(r["failed"] for r in runs + tr),
                       "attempted": sum(r["attempted"] for r in runs + tr),
                       "end_to_end": {}, "per_layer": {}, "traced_runs": len(tr)}
        for m in _spec()["end_to_end"]:
            xs = [r["metrics"][m["name"]]["value"] for r in runs]
            if xs:
                entry["end_to_end"][m["name"]] = dict(_summary(xs), unit=m["unit"])
        # the same runs' times before rescaling, to show what the rescaling buys
        for t in ("wall_s", "cpu_s", "setup_s"):
            xs = [r["raw"][f"raw_{t}"] for r in runs if f"raw_{t}" in r["raw"]]
            if xs:
                entry.setdefault("raw_end_to_end", {})[t] = dict(_summary(xs), unit="s")
        for r in tr:
            entry["per_layer"][f"seed {r['seed']}"] = {
                k: m["value"] for k, m in r["metrics"].items()}
        out["workloads"][name] = entry
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="measure parent and change in alternating pairs")
    r.add_argument("--parent", type=Path, required=True)
    r.add_argument("--change", type=Path, required=True)
    r.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    r.add_argument("--pairs", type=int, default=MIN_PAIRS)
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--out", type=Path, required=True)
    rp = sub.add_parser("report", help="verdicts from two result files")
    rp.add_argument("parent", type=Path)
    rp.add_argument("change", type=Path)
    b = sub.add_parser("baseline", help="fold result files into first numbers")
    b.add_argument("results", type=Path, nargs="+")
    args = ap.parse_args()
    if args.cmd == "run":
        run_pairs(args)
    elif args.cmd == "report":
        report(args.parent, args.change)
    else:
        print(json.dumps(baseline(args.results), indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
