"""The benchmark's own tests: a small run of every workload, untraced and traced.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.add_src_path()

import harness  # noqa: E402
from check import check_run, invariant_problems, read_combination, summarize  # noqa: E402
from mirnet import AnalysisConfig  # noqa: E402
from tracing import LAYER_UNITS, SELF_TIME_METRICS, Span, self_times  # noqa: E402
from workloads import WORKLOADS, smoke  # noqa: E402

NAMES = sorted(WORKLOADS)


def test_benchmark_json_names_match_the_harness():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS


@pytest.mark.parametrize("name", NAMES)
def test_untraced_smoke(name, tmp_path):
    result = harness.run_workload(smoke(name), seed=3, seconds=0.1, trace=False,
                                  work_root=tmp_path, setup_repeats=1)
    assert result["attempted"] >= 1 and result["failed"] == 0, result["problems"]
    assert result["metrics"].keys() == harness.E2E_UNITS.keys()
    for m in result["metrics"].values():
        assert m["unit"] and m["value"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_smoke(name, tmp_path):
    result = harness.run_workload(smoke(name), seed=3, seconds=0.1, trace=True,
                                  work_root=tmp_path, setup_repeats=1)
    assert result["failed"] == 0, result["problems"]
    assert result["metrics"].keys() == LAYER_UNITS.keys()
    assert all(m["unit"] for m in result["metrics"].values())
    assert result["spans"]
    for sample in result["spans"]:
        spans = [Span(**s) for s in sample["spans"]]
        for s in spans:
            assert s.end >= s.start
            if s.parent is not None:
                parent = spans[s.parent]
                assert parent.start <= s.start and s.end <= parent.end, (s, parent)
        own = self_times(spans)
        assert min(own) >= 0.0
        # self times partition the root span
        assert sum(own) == pytest.approx(spans[0].duration, rel=1e-9, abs=1e-12)
    values = {n: m["value"] for n, m in result["metrics"].items()}
    if result["traced_samples"] == 1:
        layer_sum = sum(values[n] for n in SELF_TIME_METRICS)
        assert layer_sum == pytest.approx(values["pipeline.traced_wall_s"], rel=1e-9)


def test_self_times_subtract_nested_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("lz.joint_entropy_rate", 1.0, 5.0, parent=0),
        Span("lz.entropy_rate", 1.5, 4.5, parent=1),
        Span("lz.match_lengths", 2.0, 4.0, parent=2),
        Span("graph.build_pmfg", 6.0, 9.0, parent=0),
    ]
    assert self_times(spans) == [3.0, 1.0, 1.0, 2.0, 3.0]


def test_check_catches_a_broken_output(tmp_path):
    workload = smoke("pmfg_wide")
    harness.run_workload(workload, seed=3, seconds=0.1, trace=False,
                         work_root=tmp_path, setup_repeats=1)
    out_dir = tmp_path / workload.name / "out"
    manifest = json.loads((out_dir / "manifest.json").read_text())
    cfg = AnalysisConfig(**manifest["config"])
    assert check_run(out_dir, manifest, cfg, None)[1] == 0

    pmfg = out_dir / "correlation_pmfg.json"
    doc = json.loads(pmfg.read_text())
    doc["edges"] = doc["edges"][:-1]
    pmfg.write_text(json.dumps(doc))
    attempted, failed, problems = check_run(out_dir, manifest, cfg, None)
    assert failed == 1 and "pmfg has" in problems[0]
    out = read_combination(out_dir, "correlation", cfg.graph_kinds)
    out["values"][0, 1] = 1.5
    assert any("symmetric" in p for p in invariant_problems("correlation", out))


def test_reference_detects_a_changed_edge_order(tmp_path):
    workload = smoke("corr_wide")
    harness.run_workload(workload, seed=3, seconds=0.1, trace=False,
                         work_root=tmp_path, setup_repeats=1)
    out_dir = tmp_path / workload.name / "out"
    manifest = json.loads((out_dir / "manifest.json").read_text())
    cfg = AnalysisConfig(**manifest["config"])

    ref = {"correlation": summarize(read_combination(out_dir, "correlation", ["mst"]), [])}
    assert check_run(out_dir, manifest, cfg, ref)[1] == 0
    edges = ref["correlation"]["edges"]["mst"]
    edges[0], edges[1] = edges[1], edges[0]
    attempted, failed, problems = check_run(out_dir, manifest, cfg, ref)
    assert failed == 1 and "insertion order" in problems[0]
