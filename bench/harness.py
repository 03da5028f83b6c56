"""Measure one workload: set up its inputs, run the pipeline in a closed loop, check.

``run_workload`` is the whole benchmark for one workload and seed. Untraced,
it reports the end-to-end metrics; traced, it alternates untraced and traced
pipeline runs and reports the per-layer metrics of the traced ones.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import networkx
import numpy
import scipy

import common
from check import check_run, combo_names
from mirnet import run_pipeline
from tracing import LAYER_UNITS, SELF_TIME_METRICS, Tracer, layer_metrics
from workloads import DEFAULT_SEED, Workload

E2E_UNITS = {
    "wall_s": "s",
    "pairs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def setup_inputs(workload: Workload, seed: int, table_dir: Path, repeats: int) -> list[dict]:
    """Generate the input tables ``repeats`` times, each in a fresh process.

    Returns each repeat's timings. The tables of the last repeat are the ones
    measured; every repeat writes the same bytes.
    """
    specs = json.dumps(workload.synth_specs(seed))
    script = common.BENCH_DIR / "setup_inputs.py"
    timings = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, str(script), specs, str(table_dir)],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise RuntimeError(f"input set-up failed:\n{done.stderr}")
        timings.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return timings


def _bytes_written(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


def load_reference(workload: Workload, seed: int) -> list[dict] | None:
    """The committed per-table reference, if one exists for this shape and seed."""
    path = common.REFERENCE_DIR / f"{workload.name}.json"
    if seed != DEFAULT_SEED or not path.is_file():
        return None
    ref = json.loads(path.read_text())
    if ref["shape"] != workload.shape():
        return None
    return ref["tables"]


def _git_sha() -> str:
    head = common.ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = common.ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = common.ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unavailable"


def provenance(seed: int) -> dict:
    src_lines = sum(
        len(p.read_text().splitlines()) for p in (common.SRC / "mirnet").rglob("*.py")
    )
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "git_sha": _git_sha(),
        "src_lines": src_lines,
        "seed": seed,
        "blas_threads": {var: os.environ.get(var) for var in common.THREAD_VARS},
    }


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    work_root: Path = common.WORK_DIR,
    setup_repeats: int = SETUP_REPEATS,
) -> dict:
    """Measure one workload for about ``seconds``; returns metrics and details.

    Samples run until the next one would end past ``seconds``; an untraced
    run takes at least one sample, a traced run at least one of each kind.
    """
    work = work_root / workload.name
    shutil.rmtree(work, ignore_errors=True)
    table_dir, out_dir = work / "tables", work / "out"

    setups = setup_inputs(workload, seed, table_dir, setup_repeats)
    reference = load_reference(workload, seed)
    configs = [
        workload.pipeline_config(table_dir / f"table{k}.csv", out_dir)
        for k in range(workload.tables)
    ]
    pairs = len(combo_names(configs[0])) * workload.n_instruments * (workload.n_instruments - 1) // 2

    walls: list[float] = []
    traced_walls: list[float] = []
    layer_samples: list[dict] = []
    spans: list[dict] = []
    attempted = failed = 0
    problems: list[str] = []
    min_samples = 2 if trace else 1
    start = time.perf_counter()
    i = 0
    while True:
        # a traced run repeats the table its untraced partner just ran
        k = (i // 2 if trace else i) % workload.tables
        cfg = configs[k]
        traced = trace and i % 2 == 1
        shutil.rmtree(out_dir, ignore_errors=True)
        if traced:
            tracer = Tracer()
            with tracer.install():
                t0 = time.perf_counter()
                manifest = tracer.run(run_pipeline, cfg)
                traced_walls.append(time.perf_counter() - t0)
            layer_samples.append(layer_metrics(tracer.spans, _bytes_written(out_dir)))
            spans.append({"sample": i, "table": k, "spans": tracer.to_json()})
        else:
            t0 = time.perf_counter()
            manifest = run_pipeline(cfg)
            walls.append(time.perf_counter() - t0)
        n_combos, n_failed, found = check_run(
            out_dir, manifest, cfg, reference[k] if reference else None
        )
        attempted += n_combos
        failed += n_failed
        problems += [f"sample {i} table {k}: {p}" for p in found]
        i += 1
        elapsed = time.perf_counter() - start
        if i >= min_samples and elapsed + elapsed / i > seconds:
            break

    q1, wall, q3 = _quartiles(walls)
    result = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "shape": workload.shape(),
        "samples": len(walls),
        "traced_samples": len(traced_walls),
        "wall_s_quartiles": [q1, wall, q3],
        "walls": walls,
        "setups": setups,
        "reference_checked": reference is not None,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "provenance": provenance(seed),
    }
    if trace:
        metrics = {
            name: statistics.median(s[name] for s in layer_samples)
            for name in layer_samples[0]
        }
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - wall
        result["metrics"] = {n: {"value": metrics[n], "unit": u} for n, u in LAYER_UNITS.items()}
        result["spans"] = spans
    else:
        metrics = {
            "wall_s": wall,
            "pairs_per_s": statistics.median(pairs / w for w in walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(s["total_s"] for s in setups),
        }
        result["metrics"] = {n: {"value": metrics[n], "unit": u} for n, u in E2E_UNITS.items()}
    return result


def summary_lines(result: dict) -> list[str]:
    """Human-readable report printed before the final JSON line."""
    fail_ratio = result["failed"] / result["attempted"]
    lines = [
        f"workload {result['workload']} seed {result['seed']}: "
        f"{result['samples']} untraced and {result['traced_samples']} traced samples, "
        f"reference {'checked' if result['reference_checked'] else 'not checked'}",
        f"  fail_ratio = {fail_ratio:.4g} ({result['failed']} of {result['attempted']} "
        "combinations failed)",
    ]
    q1, med, q3 = result["wall_s_quartiles"]
    lines.append(f"  untraced wall_s median {med:.4f} s, quartiles {q1:.4f} .. {q3:.4f} s")
    for name, m in result["metrics"].items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    if result["trace"]:
        wall = result["metrics"]["pipeline.traced_wall_s"]["value"]
        for name in SELF_TIME_METRICS:
            lines.append(f"  self-time share {name} = {result['metrics'][name]['value'] / wall:.1%}")
    lines += [f"  problem: {p}" for p in result["problems"][:20]]
    lines.append("  provenance " + json.dumps(result["provenance"]))
    return lines


def write_results(result: dict) -> Path:
    """Write the run's details, and its spans if traced, under ``_results/``."""
    common.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}"
    details = {k: v for k, v in result.items() if k != "spans"}
    path = common.RESULTS_DIR / f"{stem}.json"
    path.write_text(json.dumps(details, indent=1) + "\n")
    if "spans" in result:
        (common.RESULTS_DIR / f"{stem}-spans.json").write_text(json.dumps(result["spans"]))
    return path
