"""End-to-end tests for the command-line interface.

All tests call ``cli.main`` in-process with an argv list, which exercises the
same code path as the console script while keeping stdout/stderr capturable.
"""

import json
import multiprocessing
import os
import warnings

import numpy as np
import pytest

from mirnet import cli, lz, pipeline
from mirnet.ingest import discretize, load_price_table, log_returns
from mirnet.synth import SynthSpec, generate_price_table


@pytest.fixture(scope="module")
def price_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "prices.csv"
    spec = SynthSpec(mode="factor", n_instruments=5, n_rows=700, seed=11)
    path.write_text(generate_price_table(spec))
    return path


# ---------------------------------------------------------------------------
# mirnet run


def test_run_ok_exit_code_and_manifest(price_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(
        [
            "run",
            "--input", str(price_file),
            "--output-dir", str(out),
            "--methods", "correlation,mir",
            "--alphabet-sizes", "4",
        ]
    )
    assert code == cli.EXIT_OK
    printed = json.loads(capsys.readouterr().out)
    assert printed["status"] == "ok"
    assert set(printed["combinations"]) == {"correlation", "mir_a4"}
    assert (out / "manifest.json").exists()


def test_run_partial_exit_code(tmp_path, capsys):
    # A constant price column breaks the correlation method but not MIR.
    lines = ["date,A,B,C"]
    for i in range(620):
        a = 100.0 * (1 + 0.001 * ((i * 7919) % 13 - 6))
        b = 50.0 * (1 + 0.002 * ((i * 104729) % 17 - 8))
        day = f"{2020 + i // 336}-{i // 28 % 12 + 1:02d}-{i % 28 + 1:02d}"
        lines.append(f"{day},{a},{b},25.0")
    path = tmp_path / "degenerate.csv"
    path.write_text("\n".join(lines) + "\n")

    code = cli.main(
        [
            "run",
            "--input", str(path),
            "--output-dir", str(tmp_path / "out"),
            "--alphabet-sizes", "4",
        ]
    )
    assert code == cli.EXIT_PARTIAL
    printed = json.loads(capsys.readouterr().out)
    assert printed["status"] == "partial"


def test_run_where_every_combination_fails_exits_four(tmp_path, capsys):
    # correlation is undefined for the constant column C, and it is the only method
    lines = ["date,A,B,C"]
    for i in range(40):
        date = f"2020-{i // 28 + 1:02d}-{i % 28 + 1:02d}"
        lines.append(f"{date},{100 + i % 7},{50 + i % 5},25.0")
    path = tmp_path / "constant.csv"
    path.write_text("\n".join(lines) + "\n")
    code = cli.main(
        ["run", "--input", str(path), "--output-dir", str(tmp_path / "out"),
         "--methods", "correlation"]
    )
    assert code == cli.EXIT_FAILED == 4
    assert json.loads(capsys.readouterr().out)["status"] == "failed"


def test_run_with_a_killed_worker_exits_three_and_publishes_nothing(
    price_file, tmp_path, monkeypatch, capsys
):
    # two usable CPUs fork a lane per combination; the MIR one dies
    combination = pipeline._combination

    def dies_on_mir(cfg, combo, returns):
        if combo["method"] == "mir":
            os._exit(1)
        return combination(cfg, combo, returns)

    monkeypatch.setattr(pipeline, "_combination", dies_on_mir)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    out = tmp_path / "out"
    code = cli.main(["run", "--input", str(price_file), "--output-dir", str(out),
                     "--alphabet-sizes", "4"])
    assert code == cli.EXIT_INTERNAL == 3
    assert "internal error: RuntimeError: a combination lane exited with code 1" \
        in capsys.readouterr().err
    assert list(out.iterdir()) == []
    assert multiprocessing.active_children() == []


def test_run_missing_input_exits_one(tmp_path, capsys):
    code = cli.main(
        ["run", "--input", str(tmp_path / "nope.csv"), "--output-dir", str(tmp_path)]
    )
    assert code == cli.EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_run_with_an_unwritable_ticker_exits_one_naming_the_column(
    price_file, tmp_path, capsys
):
    # a form feed ends no line for open(), but every output would break there
    lines = price_file.read_text().splitlines(keepends=True)
    header = lines[0].split(",")
    header[2] = "SYN\f01"
    path = tmp_path / "prices.csv"
    path.write_text(",".join(header) + "".join(lines[1:]))
    out = tmp_path / "out"
    code = cli.main(["run", "--input", str(path), "--output-dir", str(out)])
    assert code == cli.EXIT_INPUT == 1
    assert f"{path}: column 3: ticker 'SYN\\x0c01'" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_run_requires_input_and_output(capsys):
    code = cli.main(["run", "--input", "x.csv"])
    assert code == cli.EXIT_INPUT
    assert "required" in capsys.readouterr().err


def test_run_help_restates_no_config_default(capsys):
    # the defaults are declared once, in AnalysisConfig, which the help names
    with pytest.raises(SystemExit):
        cli.main(["run", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "(default" not in text and "AnalysisConfig default" in text


def test_run_config_file_with_flag_override(price_file, tmp_path, capsys):
    cfg = {
        "input_path": str(price_file),
        "output_dir": str(tmp_path / "cfg_out"),
        "methods": ["correlation"],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    # Flag overrides the config's output_dir.
    out = tmp_path / "flag_out"
    code = cli.main(["run", "--config", str(cfg_path), "--output-dir", str(out)])
    assert code == cli.EXIT_OK
    assert (out / "manifest.json").exists()
    assert not (tmp_path / "cfg_out").exists()
    printed = json.loads(capsys.readouterr().out)
    assert list(printed["combinations"]) == ["correlation"]


def test_run_rejects_unknown_config_field(price_file, tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"input_path": str(price_file),
                                    "output_dir": str(tmp_path / "o"),
                                    "colour": "blue"}))
    code = cli.main(["run", "--config", str(cfg_path)])
    assert code == cli.EXIT_INPUT
    assert "colour" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("zero_for_degenerate", True, "unknown config fields: ['zero_for_degenerate']"),
        ("methods", [], "methods: empty"),
    ],
    ids=["removed-field", "empty-methods"],
)
def test_run_refuses_removed_field_and_empty_methods(
    field, value, message, price_file, tmp_path, capsys
):
    out = tmp_path / "o"
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"input_path": str(price_file),
                                    "output_dir": str(out), field: value}))
    code = cli.main(["run", "--config", str(cfg_path)])
    assert code == cli.EXIT_INPUT
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value",
    [
        ("alphabet_sizes", ["4"]),
        ("alphabet_sizes", [4.5]),
        ("min_length", "x"),
        ("weighted_walk", "no"),
        ("graph_kinds", "mst"),
    ],
)
def test_run_rejects_config_field_of_wrong_type(field, value, price_file, tmp_path, capsys):
    out = tmp_path / "o"
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"input_path": str(price_file),
                                    "output_dir": str(out), field: value}))
    code = cli.main(["run", "--config", str(cfg_path)])
    assert code == cli.EXIT_INPUT
    assert f"error: {field}: expected " in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_unknown_graph_kind(price_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["run", "--input", str(price_file), "--output-dir", str(out),
                     "--graph-kinds", "mst,tree"])
    assert code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "'tree'" in err and "'mst', 'pmfg'" in err
    assert not out.exists()


def test_run_rejects_malformed_table(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("date,A,B\n2020-01-01,1.0\n")
    code = cli.main(
        ["run", "--input", str(path), "--output-dir", str(tmp_path / "out")]
    )
    assert code == cli.EXIT_INPUT
    assert "bad.csv:2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# mirnet entropy


def test_entropy_reports_each_alphabet(price_file, capsys):
    code = cli.main(
        [
            "entropy",
            "--input", str(price_file),
            "--alphabet-sizes", "4,10",
            "SYN00",
        ]
    )
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "ticker: SYN00" in out
    assert "alpha=4:" in out and "alpha=10:" in out
    rate_lines = [line for line in out.splitlines() if line.startswith("alpha=")]
    assert len(rate_lines) == 2
    assert all("(estimator: slope)" in line for line in rate_lines)
    assert "warning" not in out


@pytest.mark.parametrize("estimator", lz.ESTIMATORS)
def test_entropy_estimator_choice(estimator, price_file, capsys):
    code = cli.main(
        [
            "entropy",
            "--input", str(price_file),
            "--alphabet-sizes", "4",
            "--estimator", estimator,
            "SYN01",
        ]
    )
    assert code == cli.EXIT_OK
    rate_lines = [
        line for line in capsys.readouterr().out.splitlines() if line.startswith("alpha=")
    ]
    returns = log_returns(next(s for s in load_price_table(price_file) if s.ticker == "SYN01"))
    rate = lz.entropy_rate(discretize(returns, 4), estimator=estimator).value
    assert rate_lines == [
        f"alpha=4: entropy rate {rate:.4f} bits/symbol (estimator: {estimator})"
    ]


def test_entropy_requires_input(capsys):
    code = cli.main(["entropy", "SYN01"])
    assert code == cli.EXIT_INPUT
    assert capsys.readouterr().err == "error: --input is required\n"


def test_entropy_rejects_unknown_estimator(price_file, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["entropy", "--input", str(price_file), "--estimator", "lempel", "SYN01"])
    assert exc.value.code == cli.EXIT_INPUT
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag",
    [["--output-dir", "out"], ["--config", "cfg.json"], ["--seed", "1"],
     ["--methods", "mir"], ["--graph-kinds", "mst"], ["--allow-short"]],
)
def test_entropy_refuses_flags_it_does_not_read(flag, price_file, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["entropy", "--input", str(price_file), *flag, "SYN01"])
    assert exc.value.code == cli.EXIT_INPUT
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag", [["--alphabet-sizes", "4,x"], ["--min-length", "x"], ["--corr-metric", "r"]]
)
def test_run_usage_errors_are_input_errors(flag, price_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--input", str(price_file), "--output-dir", str(tmp_path), *flag])
    assert exc.value.code == cli.EXIT_INPUT
    assert f"argument {flag[0]}: invalid" in capsys.readouterr().err


def test_run_refuses_seed(price_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--input", str(price_file), "--output-dir", str(tmp_path),
                  "--seed", "1"])
    assert exc.value.code == cli.EXIT_INPUT
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_entropy_unknown_ticker_lists_available(price_file, capsys):
    code = cli.main(
        ["entropy", "--input", str(price_file), "ZZZ"]
    )
    assert code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "ZZZ" in err and "SYN00" in err


def test_entropy_short_series_warns(tmp_path, capsys):
    spec = SynthSpec(mode="iid", n_instruments=3, n_rows=80, seed=2)
    path = tmp_path / "short.csv"
    path.write_text(generate_price_table(spec))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["entropy", "--input", str(path), "--alphabet-sizes", "4", "SYN01"])
    assert code == cli.EXIT_OK
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).splitlines()
    assert [line for line in lines if "warning" in line.lower()] == [
        "warning: only 79 data points (below 500); the entropy-rate estimate "
        "will carry substantial finite-sample bias"
    ]
    assert caught == []


def test_entropy_constant_series_notes_degeneracy(tmp_path, capsys):
    lines = ["date,A,B"]
    for i in range(600):
        b = 10.0 * (1 + 0.001 * ((i * 31) % 7 - 3))
        day = f"{2020 + i // 336}-{i // 28 % 12 + 1:02d}-{i % 28 + 1:02d}"
        lines.append(f"{day},5.0,{b}")
    path = tmp_path / "const.csv"
    path.write_text("\n".join(lines) + "\n")
    code = cli.main(
        ["entropy", "--input", str(path), "A"]
    )
    assert code == cli.EXIT_OK
    assert "constant" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# mirnet synth


def test_synth_writes_loadable_table(tmp_path, capsys):
    out = tmp_path / "synth.csv"
    code = cli.main(
        ["synth", "--mode", "iid", "--out", str(out),
         "--instruments", "4", "--rows", "300", "--seed", "7"]
    )
    assert code == cli.EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "date,SYN00,SYN01,SYN02,SYN03"
    assert len(lines) == 301
    assert "300 rows x 4 instruments" in capsys.readouterr().out


def test_synth_is_deterministic_per_seed(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    for path, seed in ((a, 5), (b, 5), (c, 6)):
        cli.main(["synth", "--mode", "factor", "--out", str(path),
                  "--rows", "200", "--seed", str(seed)])
    assert a.read_text() == b.read_text()
    assert a.read_text() != c.read_text()


def test_synth_nonlinear_pairs_are_decorrelated(tmp_path):
    out = tmp_path / "nl.csv"
    code = cli.main(
        ["synth", "--mode", "nonlinear", "--out", str(out),
         "--instruments", "2", "--rows", "5000", "--seed", "3",
         "--noise-scale", "0.05"]
    )
    assert code == cli.EXIT_OK
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    prices = np.array([[float(r[1]), float(r[2])] for r in rows])
    rets = np.diff(np.log(prices), axis=0)
    rho = np.corrcoef(rets[:, 0], rets[:, 1])[0, 1]
    assert abs(rho) < 0.1


def test_synth_rejects_bad_mode(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["synth", "--mode", "weird", "--out", "x.csv"])
    assert excinfo.value.code == cli.EXIT_INPUT


# ---------------------------------------------------------------------------
# mirnet export


@pytest.fixture(scope="module")
def matrix_file(tmp_path_factory):
    rng = np.random.default_rng(0)
    tickers = ["A", "B", "C", "D", "E"]
    vals = rng.uniform(0.1, 1.0, size=(5, 5))
    vals = (vals + vals.T) / 2
    np.fill_diagonal(vals, 0.0)
    path = tmp_path_factory.mktemp("mat") / "dist.csv"
    lines = ["," + ",".join(tickers)]
    for t, row in zip(tickers, vals):
        lines.append(t + "," + ",".join(f"{v:.6f}" for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def test_export_mst_json_to_stdout(matrix_file, capsys):
    code = cli.main(["export", "--matrix", str(matrix_file), "--kind", "mst"])
    assert code == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "mst"
    assert len(doc["edges"]) == 4
    assert set(doc["nodes"]) == {"A", "B", "C", "D", "E"}


def test_export_rebuilds_the_runs_graph_exactly(price_file, tmp_path, capsys):
    # the distance CSV is lossless, so the exported MST is the run's, weights too
    out = tmp_path / "out"
    code = cli.main(["run", "--input", str(price_file), "--output-dir", str(out),
                     "--methods", "mir", "--alphabet-sizes", "4", "--graph-kinds", "mst"])
    assert code == cli.EXIT_OK
    capsys.readouterr()
    code = cli.main(["export", "--matrix", str(out / "mir_a4_distances.csv"),
                     "--format", "json"])
    assert code == cli.EXIT_OK
    exported = json.loads(capsys.readouterr().out)["edges"]
    assert exported == json.loads((out / "mir_a4_mst.json").read_text())["edges"]


def test_export_pmfg_graphml_to_file(matrix_file, tmp_path, capsys):
    out = tmp_path / "g.graphml"
    code = cli.main(
        ["export", "--matrix", str(matrix_file), "--kind", "pmfg",
         "--format", "graphml", "--out", str(out)]
    )
    assert code == cli.EXIT_OK
    import networkx as nx

    g = nx.read_graphml(str(out))
    assert g.number_of_edges() == 3 * (5 - 2)
    assert "9 edges" in capsys.readouterr().out


def test_export_dot_contains_edges(matrix_file, capsys):
    code = cli.main(
        ["export", "--matrix", str(matrix_file), "--format", "dot"]
    )
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("graph") and "--" in out


@pytest.mark.parametrize(
    "cell, message",
    [("nan", "(B, C): distance nan is not finite"),
     ("0.7", "(B, C): distance 0.7 differs from its mirror entry")],
)
def test_export_bad_matrix_exits_one(tmp_path, capsys, cell, message):
    path = tmp_path / "bad.csv"
    path.write_text(f",A,B,C\nA,0,0.2,0.3\nB,0.2,0,{cell}\nC,0.3,0.4,0\n")
    code = cli.main(["export", "--matrix", str(path), "--kind", "pmfg"])
    assert code == cli.EXIT_INPUT
    assert message in capsys.readouterr().err


def test_export_missing_matrix_exits_one(tmp_path, capsys):
    code = cli.main(["export", "--matrix", str(tmp_path / "nope.csv")])
    assert code == cli.EXIT_INPUT
    assert "error:" in capsys.readouterr().err
