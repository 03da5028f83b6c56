"""Output checks of one pipeline run, read back from the files it wrote.

Every run, on any seed, must satisfy the invariants: each distance matrix is
symmetric with a zero diagonal and values in [0, 1]; an MST has n-1 edges, a
PMFG 3(n-2), and the MST lies inside the PMFG; centralities are finite and
positive. On the default seed the run must also reproduce the committed
reference: tickers, edge lists and insertion order exactly, numbers within
the tolerances below.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

# distance CSVs and centrality tables are written with 10 significant digits
DISTANCE_ATOL = 1e-9
ROW_SUM_ATOL = 1e-7
CENTRALITY_RTOL = 1e-8
# edge weights and comparison statistics are written as exact float reprs
WEIGHT_ATOL = 1e-12
COMPARISON_ATOL = 1e-9
# fixed upper-triangle entries of each matrix kept in a reference
SAMPLED_ENTRIES = 64


def combo_names(cfg) -> list[str]:
    """Artifact name stem of each configured combination, as the pipeline names them."""
    return [
        c["method"] if c["alpha"] is None else f"{c['method']}_a{c['alpha']}"
        for c in cfg.combinations()
    ]


def _read_matrix(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    tickers = rows[0][1:]
    values = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    return tickers, values


def _read_edges(path: Path) -> list[tuple[str, str, float]]:
    doc = json.loads(path.read_text())
    return [(e["source"], e["target"], e["weight"]) for e in doc["edges"]]


def _read_scores(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([float(row[1]) for row in rows[1:]])


def read_combination(out_dir: Path, name: str, kinds) -> dict:
    """The matrix, graphs and centralities one combination wrote."""
    tickers, values = _read_matrix(out_dir / f"{name}_distances.csv")
    return {
        "tickers": tickers,
        "values": values,
        "edges": {k: _read_edges(out_dir / f"{name}_{k}.json") for k in kinds},
        "scores": {k: _read_scores(out_dir / f"{name}_{k}_centrality.csv") for k in kinds},
    }


def invariant_problems(name: str, out: dict) -> list[str]:
    problems = []
    d, n = out["values"], len(out["tickers"])
    if d.shape != (n, n):
        problems.append(f"{name}: matrix shape {d.shape} for {n} tickers")
        return problems
    if not np.array_equal(d, d.T):
        problems.append(f"{name}: distance matrix not symmetric")
    if np.any(np.diag(d) != 0.0):
        problems.append(f"{name}: nonzero diagonal")
    if not (np.all(np.isfinite(d)) and d.min() >= 0.0 and d.max() <= 1.0):
        problems.append(f"{name}: distances outside [0, 1]")
    expected = {"mst": n - 1, "pmfg": 3 * (n - 2)}
    for kind, edges in out["edges"].items():
        if len(edges) != expected[kind]:
            problems.append(f"{name}: {kind} has {len(edges)} edges, expected {expected[kind]}")
        scores = out["scores"][kind]
        if scores.size != n or not (np.all(np.isfinite(scores)) and np.all(scores > 0)):
            problems.append(f"{name}: {kind} centralities not {n} finite positive values")
    if "mst" in out["edges"] and "pmfg" in out["edges"]:
        pmfg = {frozenset(e[:2]) for e in out["edges"]["pmfg"]}
        if not all(frozenset(e[:2]) in pmfg for e in out["edges"]["mst"]):
            problems.append(f"{name}: MST not contained in PMFG")
    return problems


def _sample_positions(n: int) -> list[tuple[int, int]]:
    iu, ju = np.triu_indices(n, k=1)
    rng = np.random.default_rng(0)
    picked = rng.choice(iu.size, size=min(SAMPLED_ENTRIES, iu.size), replace=False)
    return [(int(iu[p]), int(ju[p])) for p in sorted(picked)]


def summarize(out: dict, comparisons: list[dict]) -> dict:
    """The JSON-able digest of one combination that a reference stores."""
    d = out["values"]
    return {
        "tickers": out["tickers"],
        "row_sums": d.sum(axis=1).tolist(),
        "entries": [[i, j, float(d[i, j])] for i, j in _sample_positions(len(d))],
        "edges": {k: [list(e) for e in edges] for k, edges in out["edges"].items()},
        "scores": {k: s.tolist() for k, s in out["scores"].items()},
        "comparisons": comparisons,
    }


def reference_problems(name: str, out: dict, comparisons: list[dict], ref: dict) -> list[str]:
    problems = []
    if out["tickers"] != ref["tickers"]:
        return [f"{name}: tickers differ from the reference"]
    d = out["values"]
    if not np.allclose(d.sum(axis=1), ref["row_sums"], rtol=0, atol=ROW_SUM_ATOL):
        problems.append(f"{name}: distance row sums differ from the reference")
    if any(abs(d[i, j] - v) > DISTANCE_ATOL for i, j, v in ref["entries"]):
        problems.append(f"{name}: sampled distances differ from the reference")
    if sorted(out["edges"]) != sorted(ref["edges"]):
        problems.append(f"{name}: graph kinds differ from the reference")
        return problems
    for kind, edges in out["edges"].items():
        ref_edges = ref["edges"][kind]
        if [e[:2] for e in edges] != [tuple(e[:2]) for e in ref_edges]:
            problems.append(f"{name}: {kind} edge list or insertion order differs")
        elif any(abs(e[2] - r[2]) > WEIGHT_ATOL for e, r in zip(edges, ref_edges)):
            problems.append(f"{name}: {kind} edge weights differ from the reference")
        if not np.allclose(out["scores"][kind], ref["scores"][kind], rtol=CENTRALITY_RTOL, atol=0):
            problems.append(f"{name}: {kind} centralities differ from the reference")
    if len(comparisons) != len(ref["comparisons"]) or any(
        c["kind"] != r["kind"]
        or abs(c["pearson"] - r["pearson"]) > COMPARISON_ATOL
        or abs(c["spearman"] - r["spearman"]) > COMPARISON_ATOL
        for c, r in zip(comparisons, ref["comparisons"])
    ):
        problems.append(f"{name}: centrality comparison differs from the reference")
    return problems


def check_run(out_dir: Path, manifest: dict, cfg, reference: dict | None):
    """Check one run; returns (combinations attempted, failed, problems).

    A combination fails when the pipeline reports it failed or any of its
    outputs breaks an invariant or, given a reference, differs from it.
    """
    names = combo_names(cfg)
    problems: list[str] = []
    failed = 0
    for name in names:
        entry = manifest["combinations"].get(name, {"status": "missing"})
        if entry["status"] != "ok":
            failed += 1
            problems.append(f"{name}: pipeline status {entry['status']}: {entry.get('error', '')}")
            continue
        out = read_combination(out_dir, name, cfg.graph_kinds)
        comparisons = [c for c in manifest["comparisons"] if c["variant"] == name]
        found = invariant_problems(name, out)
        if reference is not None:
            found += reference_problems(name, out, comparisons, reference[name])
        if found:
            failed += 1
            problems += found
    return len(names), failed, problems
