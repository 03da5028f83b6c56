import json
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

import mirnet
from mirnet import centrality, graph, pipeline
from mirnet.distance import DistanceMatrix, build_matrix
from mirnet.errors import ValidationError
from mirnet.ingest import discretize, load_price_table, log_returns
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


def run_python(code: str, cwd: Path) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that imports this checkout's mirnet."""
    src = str(Path(mirnet.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True
    )


class TestRuntimeDependencies:
    def test_import_leaves_out_networkx(self, tmp_path):
        result = run_python("import sys, mirnet; print('networkx' in sys.modules)", tmp_path)
        assert result.stdout.strip() == "False", result.stderr

    def test_import_leaves_out_the_process_pool(self, price_file, tmp_path):
        # multiprocessing is imported only when a run forks lanes, and
        # concurrent.futures' process pool not even then
        code = f"""if True:
            import os, sys
            from mirnet.pipeline import AnalysisConfig, run_pipeline
            names = ("multiprocessing", "concurrent.futures.process")
            print([m for m in names if m in sys.modules])
            os.sched_getaffinity = lambda pid: {{0, 1}}
            run_pipeline(AnalysisConfig({str(price_file)!r}, "out", alphabet_sizes=[4]))
            print([m for m in names if m in sys.modules])
        """
        result = run_python(code, tmp_path)
        assert result.stdout.split("\n")[:2] == ["[]", "['multiprocessing']"], result.stderr

    def test_pipeline_and_export_run_without_networkx(self, price_file, tmp_path):
        # a None entry in sys.modules makes every import of networkx fail
        code = f"""if True:
            import sys
            sys.modules["networkx"] = None
            from mirnet import cli
            from mirnet.pipeline import AnalysisConfig, run_pipeline
            cfg = AnalysisConfig({str(price_file)!r}, "out", alphabet_sizes=[4],
                                 graph_kinds=["mst", "pmfg"])
            assert run_pipeline(cfg)["status"] == "ok"
            sys.exit(cli.main(["export", "--matrix", "out/mir_a4_distances.csv",
                               "--kind", "pmfg", "--format", "graphml",
                               "--out", "exported.graphml"]))
        """
        result = run_python(code, tmp_path)
        assert result.returncode == 0, result.stderr
        for name in ("correlation_mst", "correlation_pmfg", "mir_a4_pmfg"):
            assert nx.read_graphml(tmp_path / "out" / f"{name}.graphml").number_of_nodes() == 8
        assert nx.read_graphml(tmp_path / "exported.graphml").number_of_edges() == 3 * (8 - 2)


class TestConfig:
    def test_json_roundtrip(self):
        cfg = AnalysisConfig(input_path="in.csv", output_dir="out")
        assert AnalysisConfig.from_json(cfg.to_json()) == cfg

    def test_defaults_mirror_study_design(self):
        cfg = AnalysisConfig(input_path="in.csv", output_dir="out")
        assert cfg.alphabet_sizes == [4, 10]
        assert cfg.methods == ["correlation", "mir"]
        assert cfg.graph_kinds == ["mst", "pmfg"]
        assert cfg.min_length == mirnet.lz.DEFAULT_MIN_LENGTH

    @pytest.mark.parametrize(
        "field, value, culprit, allowed",
        [
            ("graph_kinds", ["mst", "tree"], "'tree'", "'mst', 'pmfg'"),
            ("graph_kinds", ["pmfg", "mst", "pmfg"], "'pmfg'", "'mst', 'pmfg'"),
            ("methods", ["correlation", "mri"], "'mri'", "'correlation', 'mir', 'mir_prime'"),
            ("methods", ["mir", "mir"], "'mir'", "'correlation', 'mir', 'mir_prime'"),
            ("corr_variant", "bogus", "'bogus'", "'one_minus_r2', 'sqrt'"),
            ("alphabet_sizes", [4, 4], "repeated value 4", "at least 2"),
            ("alphabet_sizes", [10, 4, 10], "repeated value 10", "at least 2"),
            ("alphabet_sizes", [1], "unusable value 1", "at least 2"),
            ("alphabet_sizes", [4, 0], "unusable value 0", "at least 2"),
        ],
    )
    def test_bad_choice_rejected(self, field, value, culprit, allowed):
        with pytest.raises(ValidationError) as exc:
            AnalysisConfig(input_path="in.csv", output_dir="out", **{field: value})
        message = str(exc.value)
        assert field in message and culprit in message and allowed in message

    @pytest.mark.parametrize(
        "field, value",
        [
            ("alphabet_sizes", ["4"]),
            ("alphabet_sizes", [4.5]),
            ("alphabet_sizes", [True]),
            ("alphabet_sizes", 4),
            ("methods", "mir"),
            ("graph_kinds", "mst"),
            ("corr_variant", ["sqrt"]),
            ("min_length", "x"),
            ("min_length", 500.0),
            ("min_length", False),
            ("weighted_walk", "no"),
            ("allow_short", 1),
            ("input_path", None),
            ("delimiter", 9),
        ],
    )
    def test_wrong_type_names_the_field(self, field, value):
        values = {"input_path": "in.csv", "output_dir": "out", field: value}
        with pytest.raises(ValidationError, match=rf"^{field}: expected "):
            AnalysisConfig(**values)

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"methods": []}, "methods: empty"),
            ({"alphabet_sizes": []}, "alphabet_sizes: empty, but a MIR method needs one"),
            ({"methods": ["mir_prime", "correlation"], "alphabet_sizes": []},
             "alphabet_sizes: empty, but a MIR method needs one"),
        ],
        ids=["methods", "alphabet_sizes-mir", "alphabet_sizes-mir_prime"],
    )
    def test_empty_lists_that_would_run_nothing_rejected(self, values, message):
        with pytest.raises(ValidationError) as exc:
            AnalysisConfig(input_path="in.csv", output_dir="out", **values)
        assert str(exc.value).startswith(message)

    def test_correlation_needs_no_alphabet(self):
        cfg = AnalysisConfig(input_path="in.csv", output_dir="out",
                             methods=["correlation"], alphabet_sizes=[])
        assert cfg.combinations() == [{"method": "correlation", "alpha": None}]

    def test_tuple_fields_read_as_lists(self):
        cfg = AnalysisConfig(
            input_path="in.csv", output_dir="out", alphabet_sizes=(4, 10),
            methods=("correlation", "mir"), graph_kinds=("mst", "pmfg"),
        )
        assert cfg == AnalysisConfig(input_path="in.csv", output_dir="out")

    @pytest.mark.parametrize(
        "text, culprit",
        [
            ('{"input_path": "in.csv", "output_dir": "out", "colour": "blue"}',
             "'colour'"),
            ('["in.csv", "out"]', "JSON object"),
            ('{"input_path": "x.csv"}', r"missing required config fields: \['output_dir'\]"),
            ('{"output_dir": "out", "methods": ["mir"]}',
             r"missing required config fields: \['input_path'\]"),
            ("{}", r"missing required config fields: \['input_path', 'output_dir'\]"),
        ],
    )
    def test_from_json_refuses_what_is_not_a_config(self, text, culprit):
        with pytest.raises(ValidationError, match=culprit):
            AnalysisConfig.from_json(text)

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

    def test_manifest_records_numpy_and_blas_threads(self, price_file, tmp_path, monkeypatch):
        for var in centrality.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        out = tmp_path / "out"
        run_pipeline(small_config(price_file, out, methods=["correlation"]))
        provenance = json.loads((out / "manifest.json").read_text())["provenance"]
        assert provenance == {
            "numpy": np.__version__,
            "blas_threads": {"OPENBLAS_NUM_THREADS": None, "GOTO_NUM_THREADS": None,
                             "OMP_NUM_THREADS": "1"},
        }

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

    def test_mir_and_mir_prime_at_one_alphabet(self, price_file, tmp_path):
        out = tmp_path / "out"
        cfg = small_config(price_file, out, methods=["correlation", "mir", "mir_prime"])
        manifest = run_pipeline(cfg)
        assert manifest["status"] == "ok"
        assert list(manifest["combinations"]) == ["correlation", "mir_a4", "mir_prime_a4"]
        symbols = [discretize(log_returns(s), 4) for s in load_price_table(price_file)]
        values = {}
        for method in ("mir", "mir_prime"):
            for path in manifest["combinations"][f"{method}_a4"]["artifacts"].values():
                assert Path(path).is_file()
            text = (out / f"{method}_a4_distances.csv").read_text()
            values[method] = DistanceMatrix.from_delimited(text).values
            assert np.array_equal(values[method], build_matrix(symbols, method).values)
        assert (values["mir_prime"] <= values["mir"]).all()
        rows = [(row["kind"], row["variant"]) for row in manifest["comparisons"]]
        assert sorted(rows) == [(kind, variant) for kind in ("mst", "pmfg")
                                for variant in ("mir_a4", "mir_prime_a4")]

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
            day = f"{2020 + i // 336}-{1 + i // 28 % 12:02d}-{1 + i % 28:02d}"
            rows.append(f"{day},{base:.6f},{wobble:.6f},50.0")
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

    def test_undefined_statistics_are_null_in_strict_json(self, tmp_path):
        # the PMFG of 4 series is K4, where every node is equally central, so
        # neither correlation of the pmfg centralities is defined
        path = tmp_path / "prices.csv"
        spec = SynthSpec(mode="factor", n_instruments=4, n_rows=801, seed=3)
        path.write_text(generate_price_table(spec))
        out = tmp_path / "out"
        cfg = AnalysisConfig(input_path=str(path), output_dir=str(out), alphabet_sizes=[4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            manifest = run_pipeline(cfg)
        assert manifest["status"] == "ok"

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        docs = {p.name: json.loads(p.read_text(), parse_constant=refuse)
                for p in out.glob("*.json")}
        assert "comparison_report.json" in docs
        for rows in (docs["comparison_report.json"], docs["manifest.json"]["comparisons"]):
            assert sorted(row["kind"] for row in rows) == ["mst", "pmfg"]
            for row in rows:
                stats = [row["pearson"], row["spearman"]]
                if row["kind"] == "pmfg":
                    assert stats == [None, None]
                else:
                    assert all(-1.0 <= r <= 1.0 for r in stats)

    @pytest.mark.parametrize("corr_variant", ["one_minus_r2", "sqrt"])
    def test_weighted_walk_on_either_correlation_distance(self, tmp_path, corr_variant):
        # sqrt distances reach 2: as 1 - d, the similarity of a long edge
        # would floor at 1e-12 and leave a first-passage system ill-conditioned
        path = tmp_path / "prices.csv"
        spec = SynthSpec(mode="factor", n_instruments=15, n_rows=751, seed=1)
        path.write_text(generate_price_table(spec))
        manifest = run_pipeline(AnalysisConfig(
            str(path), str(tmp_path / "out"), methods=["correlation"],
            corr_variant=corr_variant, weighted_walk=True,
        ))
        assert manifest["status"] == "ok", manifest["combinations"]

    def test_builders_are_found_by_name_when_called(self, price_file, tmp_path, monkeypatch):
        # a wrapper set on graph.build_pmfg, as a tracer sets one, is the
        # builder that a run calls
        built = []
        build_pmfg = graph.build_pmfg

        def counted(matrix):
            built.append(matrix.method)
            return build_pmfg(matrix)

        monkeypatch.setattr(graph, "build_pmfg", counted)
        on_cpus(monkeypatch, 1)
        run_pipeline(small_config(price_file, tmp_path / "out"))
        assert built == ["correlation", "mir"]

    def test_manifest_written(self, price_file, tmp_path):
        out = tmp_path / "out"
        manifest = run_pipeline(small_config(price_file, out))
        on_disk = json.loads((out / "manifest.json").read_text())
        assert on_disk["status"] == manifest["status"]
        assert on_disk["config"] == asdict(small_config(price_file, out))


def snapshot(directory: Path) -> dict:
    """Name -> bytes of each file in ``directory``; None for a subdirectory."""
    return {p.name: p.read_bytes() if p.is_file() else None for p in directory.iterdir()}


class TestPublish:
    def test_rerun_removes_stale_artifacts(self, price_file, tmp_path):
        out = tmp_path / "out"
        run_pipeline(small_config(price_file, out))
        assert list(out.glob("mir_a4_*")) and (out / "comparison_report.json").exists()

        manifest = run_pipeline(small_config(price_file, out, min_length=10_000))
        assert manifest["combinations"]["mir_a4"]["status"] == "error"
        assert not list(out.glob("mir_a4_*"))
        assert not (out / "comparison_report.json").exists()
        assert not (out / "centrality_table.csv").exists()
        written = manifest["combinations"]["correlation"]["artifacts"]
        assert sorted(snapshot(out)) == sorted([*written, "manifest.json"])

    def test_rerun_deletes_only_listed_basenames_inside_output_dir(self, price_file, tmp_path):
        out = tmp_path / "out"
        (out / "sub").mkdir(parents=True)
        outside = tmp_path / "outside.csv"
        outside.write_text("not an artifact")
        listed = {"a": str(outside), "b": "..", "c": str(out / "sub"), "d": ""}
        previous = {"combinations": {"old": {"status": "ok", "artifacts": listed}},
                    "comparisons": []}
        (out / "manifest.json").write_text(json.dumps(previous))
        run_pipeline(small_config(price_file, out, methods=["correlation"]))
        assert outside.read_text() == "not an artifact"
        assert (out / "sub").is_dir()

        # nothing is deleted when the previous manifest is missing or unreadable
        for text in (None, "{", "[]", '{"combinations": []}'):
            (out / "manifest.json").unlink()
            if text is not None:
                (out / "manifest.json").write_text(text)
            (out / "old_mst.json").write_text("{}")
            run_pipeline(small_config(price_file, out, methods=["correlation"]))
            assert (out / "old_mst.json").exists()

    @pytest.mark.parametrize("cpus", [2, 1], ids=["pooled", "serial"])
    def test_a_run_makes_one_work_directory_and_removes_it(
        self, price_file, tmp_path, monkeypatch, cpus
    ):
        # the lanes' queue and mailbox and the staging of every published
        # file are one directory, which TemporaryDirectory makes through mkdtemp
        out = tmp_path / "out"
        made = []
        mkdtemp = tempfile.mkdtemp

        def recorded(*args, **kwargs):
            made.append(Path(mkdtemp(*args, **kwargs)))
            return str(made[-1])

        monkeypatch.setattr(tempfile, "mkdtemp", recorded)
        on_cpus(monkeypatch, cpus)
        for _ in range(2):  # a first run, then a re-run over its files
            made.clear()
            assert run_pipeline(small_config(price_file, out))["status"] == "ok"
            assert [p.parent for p in made] == [out]
            assert not made[0].exists()
            assert not [p.name for p in out.iterdir() if p.name.startswith(".")]

    # this run writes 23 files: 10 per combination, the two comparison files
    # and the manifest, in that order
    @pytest.mark.parametrize(
        "failing_write, name",
        [
            (1, "correlation_distances.csv"),
            (15, "mir_a4_mst.json"),
            (21, "centrality_table.csv"),
            (22, "comparison_report.json"),
            (23, "manifest.json"),
        ],
    )
    def test_failed_publish_keeps_previous_run(
        self, price_file, tmp_path, monkeypatch, failing_write, name
    ):
        out = tmp_path / "out"
        run_pipeline(small_config(price_file, out))
        before = snapshot(out)
        other = tmp_path / "other.csv"
        spec = SynthSpec(mode="factor", n_instruments=8, n_rows=700, seed=4)
        other.write_text(generate_price_table(spec))

        write_text = Path.write_text
        written = []

        def failing_write_text(self, *args, **kwargs):
            written.append(self.name)
            if len(written) == failing_write:
                raise OSError(f"no space left writing {self.name}")
            return write_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", failing_write_text)
        with pytest.raises(OSError, match="no space left"):
            run_pipeline(small_config(other, out))
        assert written[-1] == name
        assert snapshot(out) == before


def on_cpus(monkeypatch, cpus: int) -> None:
    """Make ``cpus`` CPUs usable for the runs that follow: one keeps a run
    serial, more let it fork lanes, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


@contextmanager
def deadline(seconds: float):
    """Fail the test if the block outlasts ``seconds`` (with no ``OSError``,
    which ``multiprocessing`` would take for a child not yet reaped)."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def table(directory: Path, n_instruments: int, n_rows: int) -> Path:
    path = directory / f"prices_{n_instruments}x{n_rows}.csv"
    spec = SynthSpec(mode="factor", n_instruments=n_instruments, n_rows=n_rows, seed=4)
    path.write_text(generate_price_table(spec))
    return path


def caught_warnings(cfg: AnalysisConfig, action: str) -> tuple[dict, list[tuple]]:
    """The manifest of a run under the filter ``action``, and the warnings
    that reached the caller: (category, text, file, line)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        manifest = run_pipeline(cfg)
    return manifest, [
        (w.category, str(w.message), w.filename, w.lineno) for w in caught
    ]


class TestCombinationPool:
    """With more than one usable CPU and combination, the combinations run in
    forked lanes; with one CPU the same run stays in the calling process."""

    @pytest.mark.parametrize("shape, status, split", [
        ((8, 700), "ok", False),
        # 5 returns fill 4 bins but not 10: mir_a10 fails inside its worker
        ((4, 6), "partial", False),
        # one BLAS thread and 2 targets a thread: each worker splits its
        # 8-node solves over its 4 CPUs, where the serial run keeps one thread
        ((8, 700), "ok", True),
    ], ids=["shape0-ok", "shape1-partial", "split-solves"])
    def test_pool_and_serial_runs_write_the_same_bytes(
        self, tmp_path, monkeypatch, shape, status, split
    ):
        out = tmp_path / "out"
        cfg = small_config(table(tmp_path, *shape), out, alphabet_sizes=[4, 10],
                           allow_short=True)
        if split:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
            monkeypatch.setattr(centrality, "MIN_TARGETS_PER_THREAD", 2)
        # the pid and thread count of every solve executor, in any process
        executors = tmp_path / "executors.txt"
        executors.touch()

        class Recording(ThreadPoolExecutor):
            def __init__(self, threads):
                with executors.open("a") as f:
                    f.write(f"{os.getpid()} {threads}\n")
                super().__init__(threads)

        monkeypatch.setattr(centrality, "ThreadPoolExecutor", Recording)
        runs = []
        for cpus in (4, 1):
            on_cpus(monkeypatch, cpus)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                manifest = run_pipeline(cfg)
            assert manifest["status"] == status
            runs.append(snapshot(out))
        assert runs[0] == runs[1]
        assert len(runs[0]) > 20
        recorded = [tuple(map(int, line.split()))
                    for line in executors.read_text().splitlines()]
        # 4 blocks a solve: block 0 in the worker's own thread, 3 in an executor
        assert {threads for _, threads in recorded} == ({3} if split else set())
        assert os.getpid() not in {pid for pid, _ in recorded}

    def test_worker_warnings_reach_the_caller(self, tmp_path, monkeypatch):
        # 119 returns: 12 bins exceed their square root, and both MIR
        # combinations estimate below the minimum length
        cfg = small_config(table(tmp_path, 5, 120), tmp_path / "out",
                           alphabet_sizes=[4, 12], allow_short=True)
        on_cpus(monkeypatch, 1)
        _, serial = caught_warnings(cfg, "default")
        on_cpus(monkeypatch, 3)
        _, pooled = caught_warnings(cfg, "default")
        # the short-series warning comes from one line, so the second MIR
        # combination's is suppressed in both runs
        assert len(serial) == 6
        assert pooled == serial

    def test_error_filter_fails_the_combination_in_its_worker(self, tmp_path, monkeypatch):
        cfg = small_config(table(tmp_path, 5, 120), tmp_path / "out",
                           alphabet_sizes=[4, 12], allow_short=True)
        on_cpus(monkeypatch, 3)
        pooled, caught = caught_warnings(cfg, "error")
        on_cpus(monkeypatch, 1)
        serial, _ = caught_warnings(cfg, "error")
        assert caught == []
        assert pooled == serial and pooled["status"] == "partial"
        for name in ("mir_a4", "mir_a12"):
            entry = pooled["combinations"][name]
            assert entry["error"].startswith("UserWarning")
            assert "warnings.warn(" in entry["traceback"]

    @pytest.mark.parametrize("cpus, methods, fork, pooled", [
        (3, ["correlation", "mir"], True, True),
        (1, ["correlation", "mir"], True, False),
        (3, ["mir"], True, False),
        (3, ["correlation", "mir"], False, False),
    ])
    def test_workers_only_with_cpus_combinations_and_fork(
        self, price_file, tmp_path, monkeypatch, cpus, methods, fork, pooled
    ):
        combination = pipeline._combination

        def with_pid(cfg, combo, returns):
            texts, centralities, entry = combination(cfg, combo, returns)
            return texts, centralities, entry | {"pid": os.getpid()}

        monkeypatch.setattr(pipeline, "_combination", with_pid)
        if not fork:
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        on_cpus(monkeypatch, cpus)
        manifest = run_pipeline(small_config(price_file, tmp_path / "out", methods=methods))
        assert manifest["status"] == "ok"
        pids = [entry["pid"] for entry in manifest["combinations"].values()]
        assert {pid == os.getpid() for pid in pids} == {not pooled}
        assert multiprocessing.active_children() == []

    def test_daemonic_process_runs_serially(self, price_file, tmp_path, monkeypatch):
        # a daemonic process, such as a multiprocessing.Pool worker, may not
        # start processes of its own
        on_cpus(monkeypatch, 3)
        out = tmp_path / "out"
        process = multiprocessing.get_context("fork").Process(
            target=run_pipeline, args=(small_config(price_file, out),), daemon=True
        )
        process.start()
        process.join(timeout=120)
        assert process.exitcode == 0
        assert json.loads((out / "manifest.json").read_text())["status"] == "ok"

    def test_killed_worker_publishes_nothing_and_leaves_no_worker(
        self, price_file, tmp_path, monkeypatch
    ):
        out = tmp_path / "out"
        combination = pipeline._combination

        def dies_on_mir(cfg, combo, returns):
            if combo["method"] == "mir":
                os._exit(1)
            return combination(cfg, combo, returns)

        monkeypatch.setattr(pipeline, "_combination", dies_on_mir)
        on_cpus(monkeypatch, 3)
        # the correlation lane finishes its combination before the error is raised
        with pytest.raises(RuntimeError, match=r"exited with code 1 before sending mir_a4$"):
            run_pipeline(small_config(price_file, out))
        assert multiprocessing.active_children() == []
        assert list(out.iterdir()) == []

    def test_more_combinations_than_lanes(self, price_file, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = small_config(price_file, out, methods=["correlation", "mir", "mir_prime"],
                           alphabet_sizes=[4, 10])
        ran = tmp_path / "ran.txt"
        combination = pipeline._combination

        def logged(cfg, combo, returns):
            with ran.open("a") as f:
                f.write(f"{os.getpid()} {pipeline._combo_name(combo)}\n")
            return combination(cfg, combo, returns)

        monkeypatch.setattr(pipeline, "_combination", logged)
        runs = []
        for cpus in (2, 1):
            ran.write_text("")
            on_cpus(monkeypatch, cpus)
            assert run_pipeline(cfg)["status"] == "ok"
            runs.append(snapshot(out))
            if cpus == 2:
                pids, names = zip(*(line.split() for line in ran.read_text().splitlines()))
                assert not [p.name for p in out.iterdir() if p.name.startswith(".")]
        assert runs[0] == runs[1]
        assert sorted(names) == sorted(pipeline._combo_name(c) for c in cfg.combinations())
        assert len(names) == 5 and len(set(pids)) <= 2
        assert str(os.getpid()) not in pids
        assert multiprocessing.active_children() == []

    def test_more_lanes_than_cores_run_each_combination_once(
        self, price_file, tmp_path, monkeypatch
    ):
        # 8 lanes race for 11 combinations' claims on however few cores the
        # machine has: a claim lost or granted twice shows as a missing or
        # repeated name
        ran = tmp_path / "ran.txt"

        def logged(cfg, combo, returns):
            with ran.open("a") as f:
                f.write(f"{pipeline._combo_name(combo)}\n")
            return {}, {}, {"status": "ok", "artifacts": {}, "graphs": {}}

        monkeypatch.setattr(pipeline, "_combination", logged)
        on_cpus(monkeypatch, 8)
        cfg = small_config(price_file, tmp_path / "out",
                           methods=["correlation", "mir", "mir_prime"],
                           alphabet_sizes=[2, 3, 4, 5, 6])
        expected = sorted(pipeline._combo_name(c) for c in cfg.combinations())
        assert len(expected) == 11
        for _ in range(5):
            ran.write_text("")
            with deadline(60):
                assert run_pipeline(cfg)["status"] == "ok"
            assert sorted(ran.read_text().splitlines()) == expected
        assert multiprocessing.active_children() == []

    def test_lane_dying_after_one_result_names_only_the_rest(
        self, price_file, tmp_path, monkeypatch
    ):
        # two lanes share mir_a4, mir_a10, then correlation: the lane that
        # takes correlation dies, and the MIR results are awaited, so only
        # correlation is named
        out = tmp_path / "out"
        combination = pipeline._combination

        def dies_on_correlation(cfg, combo, returns):
            if combo["method"] == "correlation":
                os._exit(1)
            return combination(cfg, combo, returns)

        monkeypatch.setattr(pipeline, "_combination", dies_on_correlation)
        on_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match=r"exited with code 1 before sending correlation$"):
            run_pipeline(small_config(price_file, out, alphabet_sizes=[4, 10]))
        assert multiprocessing.active_children() == []
        assert list(out.iterdir()) == []

    def test_lane_dying_with_its_claim_stalls_no_other_lane(
        self, price_file, tmp_path, monkeypatch
    ):
        # the lane that claims mir_a4, first in the queue, dies holding the
        # claim (a lane runs the combination only once it holds the claim):
        # the other lane runs mir_a10 and correlation, and only mir_a4 is named
        out = tmp_path / "out"
        combination = pipeline._combination

        def dies_on_mir_a4(cfg, combo, returns):
            if pipeline._combo_name(combo) == "mir_a4":
                os._exit(9)
            return combination(cfg, combo, returns)

        monkeypatch.setattr(pipeline, "_combination", dies_on_mir_a4)
        on_cpus(monkeypatch, 2)
        with deadline(60), pytest.raises(
            RuntimeError, match=r"exited with code 9 before sending mir_a4$"
        ):
            run_pipeline(small_config(price_file, out, alphabet_sizes=[4, 10]))
        assert multiprocessing.active_children() == []
        assert list(out.iterdir()) == []

    def test_results_over_a_megabyte_come_back_whole(self, price_file, tmp_path, monkeypatch):
        # each result is written to the spool and read back in one piece, at
        # more than a megabyte as at a few kilobytes
        out = tmp_path / "out"
        cfg = small_config(price_file, out, alphabet_sizes=[4, 10])
        combination = pipeline._combination

        def padded(cfg, combo, returns):
            texts, centralities, entry = combination(cfg, combo, returns)
            name = pipeline._combo_name(combo)
            return texts | {f"{name}_padding.txt": name * (2**20 // len(name) + 1)}, \
                centralities, entry

        monkeypatch.setattr(pipeline, "_combination", padded)
        runs = []
        for cpus in (2, 1):
            on_cpus(monkeypatch, cpus)
            with deadline(60):
                assert run_pipeline(cfg)["status"] == "ok"
            runs.append(snapshot(out))
        assert runs[0] == runs[1]
        assert len(runs[0]["mir_a10_padding.txt"]) > 2**20
        assert multiprocessing.active_children() == []
