"""Acceptance gate: the nine shipping criteria.

Each test prints one verdict line (replayed after the run by conftest) and
asserts the criterion at its stated tolerance.
"""

from __future__ import annotations

import json
import math
import random
import statistics

from influnet import (
    DiffusionTrace,
    NetworkSummary,
    RankRecord,
    betweenness_centrality,
    correlation_matrix,
    eigenvector_centrality,
    gnp_random,
    linear_threshold_run,
    small_world_sigma,
    spreading_score,
    summarize,
    watts_strogatz,
)
from influnet.cli import main
from influnet.graph import DirectedGraph
from influnet.metrics import local_clustering

from conftest import record_verdict
from helpers import (
    FIXTURE,
    GOLDEN_DIR,
    followers,
    fw_path_stats,
    oracle_betweenness,
    oracle_cascade,
    oracle_clustering,
    random_digraph,
    random_strongly_connected,
)

REPORT_FILES = (
    "summary.csv",
    "centrality.csv",
    "rank.csv",
    "correlation.csv",
    "recommendation.json",
)


def test_c1_score_arithmetic():
    """Reference scores reproduced from their own (proportion, days) inputs.

    The reference proportions are 6-decimal displays of exact adoption
    counts over a 610-node region (363/610 and 389/610), and the recorded
    scores derive from the exact counts: feeding the rounded display to
    the formula puts 100 * 0.637705 / 11 at 5.7973182, which is 1.18e-6
    from the recorded 5.797317, so the check reconstructs the fractions.
    """
    counts1 = (1, 10, 40, 80, 130, 190, 250, 310, 363, 363)
    tr1 = DiffusionTrace(seed=20, theta=0.1, active_counts=counts1, population=610)
    assert tr1.saturation_day == 8
    err1 = abs(spreading_score(tr1.proportion_reached, tr1.saturation_day) - 7.438525)
    err1_rounded = abs(spreading_score(0.595082, 8) - 7.438525)

    counts2 = (1, 30, 60, 95, 130, 165, 200, 240, 280, 320, 355, 389, 389)
    tr2 = DiffusionTrace(seed=314, theta=0.1, active_counts=counts2, population=610)
    assert tr2.saturation_day == 11
    err2 = abs(spreading_score(tr2.proportion_reached, tr2.saturation_day) - 5.797317)

    ok = err1 <= 1e-6 and err1_rounded <= 1e-6 and err2 <= 1e-6
    assert record_verdict(
        "C1",
        ok,
        f"score arithmetic: 7.438525 off by {max(err1, err1_rounded):.2e}, "
        f"5.797317 off by {err2:.2e} (tolerance 1e-6)",
    )


def test_c2_betweenness_matches_enumeration():
    rng = random.Random(202)
    worst = 0.0
    for _ in range(100):
        n = rng.randint(3, 12)
        g = random_digraph(rng, n, rng.uniform(0.15, 0.5))
        mine = betweenness_centrality(g)
        ref = oracle_betweenness(g)
        for v in g.nodes:
            worst = max(worst, abs(mine[v] - float(ref[v])))
    ok = worst < 1e-9
    assert record_verdict(
        "C2", ok, f"betweenness vs path enumeration on 100 digraphs: max err {worst:.2e}"
    )


def test_c3_eigenvector_residual():
    rng = random.Random(303)
    worst_res = 0.0
    worst_norm = 0.0
    min_comp = math.inf
    for _ in range(50):
        n = rng.randint(3, 30)
        g = random_strongly_connected(rng, n, rng.randint(0, 2 * n))
        # A near-bare cycle has a tiny spectral gap; give it headroom.
        x = eigenvector_centrality(g, max_iter=100_000)
        norm = math.sqrt(math.fsum(c * c for c in x.values()))
        worst_norm = max(worst_norm, abs(norm - 1.0))
        min_comp = min(min_comp, min(x.values()))
        y = {v: math.fsum(x[u] for u in followers(g, v)) for v in g.nodes}
        lam = math.fsum(x[v] * y[v] for v in g.nodes)
        worst_res = max(
            worst_res, max(abs(y[v] - lam * x[v]) for v in g.nodes)
        )
    uniform_dev = 0.0
    for n in (4, 9, 17):
        cyc = DirectedGraph([(i, (i + 1) % n) for i in range(n)])
        x = eigenvector_centrality(cyc)
        uniform_dev = max(
            uniform_dev, max(abs(c - 1 / math.sqrt(n)) for c in x.values())
        )
    for n in (3, 8):
        comp = DirectedGraph(
            [(i, j) for i in range(n) for j in range(n) if i != j]
        )
        x = eigenvector_centrality(comp)
        uniform_dev = max(
            uniform_dev, max(abs(c - 1 / math.sqrt(n)) for c in x.values())
        )
    ok = (
        worst_res < 1e-8
        and worst_norm <= 1e-12
        and min_comp >= 0.0
        and uniform_dev < 1e-10
    )
    assert record_verdict(
        "C3",
        ok,
        f"eigenvector on 50 strongly-connected digraphs: residual {worst_res:.2e}, "
        f"norm dev {worst_norm:.2e}, min comp {min_comp:.1e}, uniform dev {uniform_dev:.2e}",
    )


def _pad(days: list[set[int]], upto: int) -> list[set[int]]:
    return days + [days[-1]] * (upto - len(days))


def test_c4_diffusion_oracle_and_monotonicity():
    rng = random.Random(404)
    grid = [0.0, 0.05, 0.1, 0.2, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 1.0]
    mismatches = 0
    monotone = True
    for _ in range(200):
        n = rng.randint(5, 50)
        g = random_digraph(rng, n, rng.uniform(0.03, 0.25))
        seed = rng.choice(sorted(g.nodes))
        theta = rng.choice(grid)
        days = rng.choice([5, 15, 60])
        tr = linear_threshold_run(g, seed, theta, days)
        ref = oracle_cascade(g, seed, theta, days)
        if tr.active_counts != tuple(len(s) for s in ref):
            mismatches += 1
        theta2 = min(1.0, theta + rng.uniform(0.05, 0.4))
        ref2 = oracle_cascade(g, seed, theta2, days)
        width = max(len(ref), len(ref2))
        for lo, hi in zip(_pad(ref, width), _pad(ref2, width)):
            if not hi <= lo:
                monotone = False
    ok = mismatches == 0 and monotone
    assert record_verdict(
        "C4",
        ok,
        f"cascades vs naive oracle on 200 triples: {mismatches} mismatches, "
        f"theta-monotonicity {'held' if monotone else 'violated'}",
    )


def test_c5_small_world_arithmetic():
    actual = NetworkSummary(874, 1853, 4.69, 0.13, 15, 95)
    baseline = NetworkSummary(874, 19059, 2.48, 0.02, 10, 1)
    v = small_world_sigma(actual, baseline)
    ok = abs(v.sigma - 3.437) <= 0.001 and v.is_small_world
    assert record_verdict(
        "C5", ok, f"sigma on reference summaries: {v.sigma:.6f} (3.437 +- 0.001), small-world"
    )


def test_c6_baseline_statistics():
    counts = [gnp_random(874, 0.05, s).edge_count for s in range(30)]
    mean = statistics.fmean(counts)
    pairs = 874 * 873 // 2
    expected = pairs * 0.05
    se = math.sqrt(pairs * 0.05 * 0.95 / len(counts))
    mean_ok = abs(mean - expected) <= 3 * se

    apl = summarize(gnp_random(874, 0.05, 0)).average_path_length
    apl_ok = 1.5 <= apl <= 3.5

    ws = summarize(watts_strogatz(500, 10, 0.05, 0))
    degree_matched = summarize(gnp_random(500, 10 / 499, 1))
    sigma = small_world_sigma(ws, degree_matched).sigma
    sigma_ok = sigma > 3

    ok = mean_ok and apl_ok and sigma_ok
    assert record_verdict(
        "C6",
        ok,
        f"G(874,.05): mean edges {mean:.1f} vs {expected:.2f} (3se={3 * se:.1f}), "
        f"APL {apl:.3f} in [1.5,3.5]; ring-rewire sigma {sigma:.2f} > 3",
    )


def test_c7_metric_oracles():
    rng = random.Random(707)
    path_exact = True
    clust_exact = True
    for _ in range(100):
        n = rng.randint(2, 10)
        g = random_digraph(rng, n, rng.uniform(0.1, 0.6))
        ref_apl, ref_diam = fw_path_stats(g)
        s = summarize(g)
        if s.average_path_length != ref_apl or s.diameter != ref_diam:
            path_exact = False
        mine = local_clustering(g)
        ref = oracle_clustering(g)
        if any(mine[v] != ref[v] for v in g.nodes):
            clust_exact = False
    ok = path_exact and clust_exact
    assert record_verdict(
        "C7",
        ok,
        "path stats equal Floyd-Warshall and clustering equals triangle "
        f"counting on 100 digraphs: {'exact' if ok else 'mismatch'}",
    )


def _run_pipeline(out_dir, source=FIXTURE) -> dict[str, bytes]:
    rc = main(["pipeline", "--input", str(source), "--out", str(out_dir)])
    assert rc == 0
    return {
        name: (out_dir / name).read_bytes() for name in REPORT_FILES
    }


def test_c8_pipeline_determinism_and_golden(tmp_path):
    header, *rows = FIXTURE.read_text(encoding="utf-8").splitlines()
    reversed_rows = tmp_path / "reversed.csv"
    reversed_rows.write_text("\n".join([header, *rows[::-1]]) + "\n", encoding="utf-8")
    first = _run_pipeline(tmp_path / "a")
    second = _run_pipeline(tmp_path / "b")
    reordered = _run_pipeline(tmp_path / "c", reversed_rows)
    stable = first == second == reordered

    golden = {
        name: (GOLDEN_DIR / name).read_bytes() for name in REPORT_FILES
    }
    matches_golden = first == golden

    rec = json.loads(first["recommendation.json"].decode("utf-8"))
    right_answer = rec["node"] == 1 and rec["score"] == 50.0

    ok = stable and matches_golden and right_answer
    assert record_verdict(
        "C8",
        ok,
        "pipeline on the 12-node fixture: byte-stable across runs and row "
        f"orders, golden match {'yes' if matches_golden else 'NO'}, "
        f"recommends node {rec['node']}",
    )


def test_c9_correlation_properties():
    rng = random.Random(909)

    def build(count: int) -> list[RankRecord]:
        return [
            RankRecord(
                node=i,
                in_degree=rng.randint(0, 60),
                out_degree=rng.randint(0, 60),
                eigenvector=rng.random(),
                betweenness=rng.random() / 3,
                days_required=rng.randint(0, 14),
                proportion_reached=rng.uniform(0.01, 1.0),
            )
            for i in range(count)
        ]

    structural = True
    for count in (5, 12, 40):
        m = correlation_matrix(build(count))
        k = len(m.labels)
        for i in range(k):
            if m.values[i][i] != 1.0:
                structural = False
            for j in range(k):
                v = m.values[i][j]
                if v != m.values[j][i] or v is None or not -1.0 <= v <= 1.0:
                    structural = False

    records = build(30)
    scaled = [
        RankRecord(
            node=r.node,
            in_degree=r.in_degree,
            out_degree=r.out_degree,
            eigenvector=1.7 * r.eigenvector + 0.3,
            betweenness=0.25 * r.betweenness + 2.0,
            days_required=r.days_required,
            proportion_reached=r.proportion_reached,
        )
        for r in records
    ]
    base = correlation_matrix(records)
    after = correlation_matrix(scaled)
    drift = max(
        abs(a - b)
        for row_a, row_b in zip(base.values, after.values)
        for a, b in zip(row_a, row_b)
    )
    ok = structural and drift <= 1e-12
    assert record_verdict(
        "C9",
        ok,
        f"correlation matrices symmetric, unit diagonal, bounded; affine "
        f"rescaling drift {drift:.2e} <= 1e-12",
    )
