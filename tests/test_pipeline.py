import json
import warnings
from dataclasses import asdict
from pathlib import Path

import networkx as nx
import pytest

from mirnet.pipeline import AnalysisConfig, run_pipeline
from mirnet.synth import SynthSpec, generate_price_table


@pytest.fixture(scope="module")
def price_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "prices.csv"
    spec = SynthSpec(mode="factor", n_instruments=8, n_rows=700, seed=3)
    path.write_text(generate_price_table(spec))
    return path


def small_config(price_file, out_dir, **overrides) -> AnalysisConfig:
    values = dict(
        input_path=str(price_file),
        output_dir=str(out_dir),
        alphabet_sizes=[4],
        methods=["correlation", "mir"],
        graph_kinds=["mst", "pmfg"],
    )
    values.update(overrides)
    return AnalysisConfig(**values)


class TestConfig:
    def test_json_roundtrip(self):
        cfg = AnalysisConfig(input_path="in.csv", output_dir="out", seed=17)
        assert AnalysisConfig.from_json(cfg.to_json()) == cfg

    def test_defaults_mirror_study_design(self):
        cfg = AnalysisConfig(input_path="in.csv", output_dir="out")
        assert cfg.alphabet_sizes == [4, 10]
        assert cfg.methods == ["correlation", "mir"]
        assert cfg.graph_kinds == ["mst", "pmfg"]

    def test_combinations_unique_artifacts(self):
        cfg = AnalysisConfig(input_path="in.csv", output_dir="out")
        combos = cfg.combinations()
        names = [(c["method"], c["alpha"]) for c in combos]
        assert len(names) == len(set(names)) == 3


class TestRunPipeline:
    def test_full_run(self, price_file, tmp_path):
        cfg = small_config(price_file, tmp_path / "out")
        manifest = run_pipeline(cfg)
        assert manifest["status"] == "ok"
        assert set(manifest["combinations"]) == {"correlation", "mir_a4"}
        for entry in manifest["combinations"].values():
            assert entry["status"] == "ok"
            assert entry["graphs"]["mst"]["edges"] == 7
            assert entry["graphs"]["pmfg"]["edges"] == 18
            for path in entry["artifacts"].values():
                assert Path(path).exists()
        assert len(manifest["comparisons"]) == 2  # mst and pmfg vs baseline
        for row in manifest["comparisons"]:
            assert -1.0 <= row["pearson"] <= 1.0
            assert -1.0 <= row["spearman"] <= 1.0

    def test_graph_artifacts_valid(self, price_file, tmp_path):
        out = tmp_path / "out"
        run_pipeline(small_config(price_file, out))
        g = nx.read_graphml(out / "mir_a4_mst.graphml")
        assert g.number_of_nodes() == 8
        assert g.number_of_edges() == 7
        doc = json.loads((out / "mir_a4_pmfg.json").read_text())
        assert len(doc["edges"]) == 18
        table = (out / "centrality_table.csv").read_text().strip().splitlines()
        assert len(table) == 9  # header + 8 vertices
        assert table[0].split(",")[0] == "vertex"

    def test_determinism(self, price_file, tmp_path):
        m1 = run_pipeline(small_config(price_file, tmp_path / "a"))
        m2 = run_pipeline(small_config(price_file, tmp_path / "b"))
        m1["config"]["output_dir"] = m2["config"]["output_dir"] = ""
        for entry in (*m1["combinations"].values(), *m2["combinations"].values()):
            entry.pop("artifacts")
        assert json.dumps(m1, sort_keys=True) == json.dumps(m2, sort_keys=True)
        for name in ("mir_a4_distances.csv", "correlation_mst.dot", "centrality_table.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_single_method_notes_missing_comparison(self, price_file, tmp_path):
        cfg = small_config(price_file, tmp_path / "out", methods=["correlation"])
        manifest = run_pipeline(cfg)
        assert manifest["comparisons"] == []
        assert "comparison" in manifest["comparison_note"]

    def test_partial_failure_keeps_other_combinations(self, tmp_path):
        # one constant instrument breaks Pearson but not MIR distances
        rows = ["date,A,B,C"]
        base = 100.0
        for i in range(650):
            base *= 1.0 + 0.001 * ((i * 7919) % 13 - 6)
            wobble = 100.0 * (1.0 + 0.01 * ((i * 104729) % 17 - 8) / 8)
            rows.append(f"2020-{1 + i // 28:02d}-{1 + i % 28:02d},{base:.6f},{wobble:.6f},50.0")
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(rows) + "\n")
        cfg = small_config(bad, tmp_path / "out")
        manifest = run_pipeline(cfg)
        assert manifest["combinations"]["correlation"]["status"] == "error"
        assert "C" in manifest["combinations"]["correlation"]["error"]
        assert manifest["combinations"]["mir_a4"]["status"] == "ok"
        assert manifest["status"] == "partial"
        # failed combination left no artifacts behind
        assert not list((tmp_path / "out").glob("correlation_*"))

    def test_short_table_fails_only_mir(self, tmp_path):
        # 6 rows give 5 returns: enough for correlation, too few for 10 bins
        path = tmp_path / "short.csv"
        spec = SynthSpec(mode="factor", n_instruments=4, n_rows=6, seed=4)
        path.write_text(generate_price_table(spec))
        cfg = small_config(path, tmp_path / "corr", methods=["correlation"],
                           alphabet_sizes=[4, 10])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            manifest = run_pipeline(cfg)
        assert manifest["status"] == "ok"
        assert manifest["combinations"]["correlation"]["graphs"]["pmfg"]["edges"] == 6

        cfg = small_config(path, tmp_path / "both", alphabet_sizes=[10])
        manifest = run_pipeline(cfg)
        assert manifest["status"] == "partial"
        assert manifest["combinations"]["correlation"]["status"] == "ok"
        error = manifest["combinations"]["mir_a10"]["error"]
        assert error.startswith("InsufficientDataError") and "10 bins" in error

    def test_manifest_written(self, price_file, tmp_path):
        out = tmp_path / "out"
        manifest = run_pipeline(small_config(price_file, out))
        on_disk = json.loads((out / "manifest.json").read_text())
        assert on_disk["status"] == manifest["status"]
        assert on_disk["config"] == asdict(small_config(price_file, out))
