"""End-to-end orchestration: ingest, distances, graphs, centralities, report."""

from __future__ import annotations

import json
import shutil
import tempfile
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import centrality as centrality_mod
from . import distance as distance_mod
from . import graph as graph_mod
from .ingest import discretize, load_price_table, log_returns

GRAPH_FORMATS = ("graphml", "dot", "json")


@dataclass
class AnalysisConfig:
    """Everything one pipeline run depends on; round-trips through JSON."""

    input_path: str
    output_dir: str
    delimiter: str = ","
    date_column: str = "date"
    alphabet_sizes: list[int] = field(default_factory=lambda: [4, 10])
    methods: list[str] = field(default_factory=lambda: ["correlation", "mir"])
    graph_kinds: list[str] = field(default_factory=lambda: ["mst", "pmfg"])
    corr_variant: str = "one_minus_r2"
    weighted_walk: bool = False
    min_length: int = 500
    allow_short: bool = False
    zero_for_degenerate: bool = False
    seed: int = 0

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "AnalysisConfig":
        return cls(**json.loads(text))

    def combinations(self) -> list[dict]:
        """One entry per (method, alpha); correlation has no alpha."""
        combos = []
        for method in self.methods:
            if method == "correlation":
                combos.append({"method": "correlation", "alpha": None})
            else:
                for alpha in self.alphabet_sizes:
                    combos.append({"method": method, "alpha": alpha})
        return combos


def _combo_name(combo: dict) -> str:
    if combo["alpha"] is None:
        return combo["method"]
    return f"{combo['method']}_a{combo['alpha']}"


def _build_distance_matrix(cfg: AnalysisConfig, combo, returns, symbols_by_alpha):
    """The combination's matrix; symbols are discretized on first use per alpha,
    so a series too short for an alphabet fails only the MIR combinations."""
    if combo["method"] == "correlation":
        return distance_mod.build_matrix(
            returns, "correlation", corr_variant=cfg.corr_variant
        )
    alpha = combo["alpha"]
    if alpha not in symbols_by_alpha:
        symbols_by_alpha[alpha] = [discretize(r, alpha) for r in returns]
    return distance_mod.build_matrix(
        symbols_by_alpha[alpha],
        combo["method"],
        allow_short=cfg.allow_short,
        min_length=cfg.min_length,
        zero_for_degenerate=cfg.zero_for_degenerate,
    )


def run_pipeline(cfg: AnalysisConfig) -> dict:
    """Run every configured combination and write a manifest of outputs.

    Each combination's artifacts are staged in a temporary directory and
    moved into place only on success, so a failing combination leaves no
    partial files; other combinations still run.
    """
    out_root = Path(cfg.output_dir)
    out_root.mkdir(parents=True, exist_ok=True)

    series = load_price_table(
        cfg.input_path, delimiter=cfg.delimiter, date_column=cfg.date_column
    )
    returns = [log_returns(s) for s in series]
    symbols_by_alpha: dict[int, list] = {}

    manifest: dict = {
        "config": asdict(cfg),
        "n_instruments": len(series),
        "combinations": {},
        "comparisons": [],
    }
    centralities: dict[tuple[str, str], centrality_mod.CentralityVector] = {}

    for combo in cfg.combinations():
        name = _combo_name(combo)
        entry: dict = {"status": "ok", "artifacts": {}}
        staging = Path(tempfile.mkdtemp(prefix=f".{name}-", dir=out_root))
        try:
            matrix = _build_distance_matrix(cfg, combo, returns, symbols_by_alpha)
            files: dict[str, str] = {}

            files[f"{name}_distances.csv"] = matrix.to_delimited()
            files[f"{name}_distances_report.json"] = (
                json.dumps(matrix.report(), indent=2) + "\n"
            )
            for kind in cfg.graph_kinds:
                builder = graph_mod.build_mst if kind == "mst" else graph_mod.build_pmfg
                fg = builder(matrix)
                for fmt in GRAPH_FORMATS:
                    ext = "graphml" if fmt == "graphml" else fmt
                    files[f"{name}_{kind}.{ext}"] = graph_mod.EXPORTERS[fmt](fg)
                cv = centrality_mod.markov_centrality(fg, weighted=cfg.weighted_walk)
                centralities[(name, kind)] = cv
                files[f"{name}_{kind}_centrality.csv"] = cv.to_delimited()
                entry.setdefault("graphs", {})[kind] = {
                    "nodes": fg.n,
                    "edges": len(fg.edges),
                }

            for fname, text in files.items():
                (staging / fname).write_text(text)
            for fname in files:
                (staging / fname).replace(out_root / fname)
                entry["artifacts"][fname] = str(out_root / fname)
        except Exception as exc:
            entry = {
                "status": "error",
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            }
        finally:
            shutil.rmtree(staging, ignore_errors=True)
        manifest["combinations"][name] = entry

    _write_comparisons(cfg, manifest, centralities, out_root)
    manifest["status"] = _overall_status(manifest)
    (out_root / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


def _write_comparisons(cfg, manifest, centralities, out_root: Path) -> None:
    """Correlate each MIR variant's centralities against the correlation
    network of the same kind, mirroring the published comparison design."""
    baseline_names = [c for c in manifest["combinations"] if c == "correlation"]
    mir_names = [
        _combo_name(c) for c in cfg.combinations() if c["method"] != "correlation"
    ]
    if not baseline_names or not mir_names:
        manifest["comparison_note"] = (
            "no comparison report: need both a correlation baseline and at "
            "least one MIR variant"
        )
        return
    rows = []
    for kind in cfg.graph_kinds:
        base = centralities.get(("correlation", kind))
        if base is None:
            continue
        for name in mir_names:
            other = centralities.get((name, kind))
            if other is None:
                continue
            rows.append({"kind": kind, "variant": name}
                        | centrality_mod.compare_centralities(base, other))
    if not rows:
        manifest["comparison_note"] = "no comparison report: no complete pairs"
        return
    manifest["comparisons"] = rows

    # combined centrality table: vertex label + one column per network variant
    table_path = out_root / "centrality_table.csv"
    names = sorted({key for key in centralities}, key=lambda k: (k[1], k[0]))
    tickers = next(iter(centralities.values())).tickers
    header = ["vertex"] + [f"{kind}_{name}" for name, kind in names]
    lines = [",".join(header)]
    for i, t in enumerate(tickers):
        row = [t] + [f"{centralities[key].normalized()[i]:.6f}" for key in names]
        lines.append(",".join(row))
    table_path.write_text("\n".join(lines) + "\n")
    report_path = out_root / "comparison_report.json"
    report_path.write_text(json.dumps(rows, indent=2) + "\n")


def _overall_status(manifest: dict) -> str:
    statuses = [e["status"] for e in manifest["combinations"].values()]
    if all(s == "ok" for s in statuses):
        return "ok"
    if any(s == "ok" for s in statuses):
        return "partial"
    return "failed"
