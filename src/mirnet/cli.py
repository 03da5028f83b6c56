"""Command-line entry point: run, entropy, synth, and export subcommands.

Exit codes: 0 success, 1 input or config error, 2 partial pipeline failure,
3 internal error, 4 every pipeline combination failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import lz
from .distance import MIR_ESTIMATOR, DistanceMatrix
from .errors import MirnetError
from .graph import EXPORTERS, build_mst, build_pmfg
from .ingest import discretize, load_price_table, log_returns
from .pipeline import AnalysisConfig, run_pipeline
from .synth import SynthSpec, generate_price_table

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PARTIAL = 2
EXIT_INTERNAL = 3
EXIT_FAILED = 4


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--input", help="delimited price table")
    p.add_argument("--output-dir", help="directory for result artifacts")
    p.add_argument("--delimiter", help="field delimiter (default ,)")
    p.add_argument("--date-column", help="name of the date column (default date)")
    p.add_argument(
        "--alphabet-sizes",
        help="comma-separated alphabet sizes for MIR methods (default 4,10)",
    )
    p.add_argument(
        "--methods", help="comma-separated distance methods (default correlation,mir)"
    )
    p.add_argument("--graph-kinds", help="comma-separated graph kinds (default mst,pmfg)")
    p.add_argument(
        "--corr-metric",
        choices=["one_minus_r2", "sqrt"],
        help="correlation distance form (default 1 - rho^2)",
    )
    p.add_argument("--weighted-walk", action="store_true", default=None,
                   help="use similarity-weighted random walk for centrality")
    p.add_argument("--min-length", type=int, help="minimum usable sequence length")
    p.add_argument("--allow-short", action="store_true", default=None,
                   help="estimate below the minimum length, with a warning")
    p.add_argument("--zero-degenerate", action="store_true", default=None,
                   help="map degenerate constant pairs to distance 0 instead of failing")
    p.add_argument("--seed", type=int, help="seed for simulation oracles")


def _config_from_args(args) -> AnalysisConfig:
    values: dict = {}
    if args.config:
        values = json.loads(Path(args.config).read_text())
    overrides = {
        "input_path": args.input,
        "output_dir": args.output_dir,
        "delimiter": args.delimiter,
        "date_column": args.date_column,
        "corr_variant": args.corr_metric,
        "weighted_walk": args.weighted_walk,
        "min_length": args.min_length,
        "allow_short": args.allow_short,
        "zero_for_degenerate": args.zero_degenerate,
        "seed": args.seed,
    }
    if args.alphabet_sizes:
        overrides["alphabet_sizes"] = [int(a) for a in args.alphabet_sizes.split(",")]
    if args.methods:
        overrides["methods"] = args.methods.split(",")
    if args.graph_kinds:
        overrides["graph_kinds"] = args.graph_kinds.split(",")
    values.update({k: v for k, v in overrides.items() if v is not None})
    known = {f.name for f in fields(AnalysisConfig)}
    unknown = set(values) - known
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    if "input_path" not in values or "output_dir" not in values:
        raise ValueError("both --input and --output-dir (or config equivalents) are required")
    return AnalysisConfig(**values)


def _cmd_run(args) -> int:
    cfg = _config_from_args(args)
    manifest = run_pipeline(cfg)
    print(json.dumps({k: v for k, v in manifest.items() if k != "config"}, indent=2))
    if manifest["status"] == "ok":
        return EXIT_OK
    if manifest["status"] == "partial":
        return EXIT_PARTIAL
    return EXIT_FAILED


def _cmd_entropy(args) -> int:
    cfg = _config_from_args(args)
    series = load_price_table(
        cfg.input_path, delimiter=cfg.delimiter, date_column=cfg.date_column
    )
    by_ticker = {s.ticker: s for s in series}
    if args.ticker not in by_ticker:
        print(
            f"unknown ticker {args.ticker!r}; available: {sorted(by_ticker)}",
            file=sys.stderr,
        )
        return EXIT_INPUT
    returns = log_returns(by_ticker[args.ticker])
    n = len(returns)
    print(f"ticker: {args.ticker}")
    print(f"returns: {n}")
    if n < cfg.min_length:
        print(
            f"warning: only {n} data points (below {cfg.min_length}); the "
            "entropy-rate estimate will carry substantial finite-sample bias"
        )
    if np.ptp(returns.returns) == 0:
        print("note: series is constant; entropy collapses to the degenerate floor")
    estimator = args.estimator
    for alpha in cfg.alphabet_sizes:
        sym = discretize(returns, alpha)
        est = lz.entropy_rate(
            sym, min_length=cfg.min_length, allow_short=True, estimator=estimator
        )
        flag = " (exceeds log2(alpha) cap)" if est.overshoot_flagged else ""
        print(
            f"alpha={alpha}: entropy rate {est.value:.4f} bits/symbol "
            f"(estimator: {estimator}){flag}"
        )
    return EXIT_OK


def _cmd_synth(args) -> int:
    spec = SynthSpec(
        mode=args.mode,
        n_instruments=args.instruments,
        n_rows=args.rows,
        seed=args.seed,
        noise_scale=args.noise_scale,
        factor_loading=args.factor_loading,
    )
    table = generate_price_table(spec)
    Path(args.out).write_text(table)
    print(f"wrote {args.rows} rows x {args.instruments} instruments to {args.out}")
    return EXIT_OK


def _cmd_export(args) -> int:
    matrix = DistanceMatrix.from_delimited(Path(args.matrix).read_text(), args.delimiter)
    builder = build_mst if args.kind == "mst" else build_pmfg
    fg = builder(matrix)
    text = EXPORTERS[args.format](fg)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.kind} ({len(fg.edges)} edges) to {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirnet",
        description="Hierarchical dependency networks from correlation and "
        "mutual-information-rate distances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full pipeline")
    _add_config_flags(p_run)

    p_ent = sub.add_parser("entropy", help="entropy-rate diagnostics for one ticker")
    _add_config_flags(p_ent)
    p_ent.add_argument("ticker", help="instrument to diagnose")
    p_ent.add_argument(
        "--estimator",
        choices=lz.ESTIMATORS,
        default=lz.DEFAULT_ESTIMATOR,
        help=f"entropy-rate estimator (default {lz.DEFAULT_ESTIMATOR}; MIR "
        f"distances use {MIR_ESTIMATOR})",
    )

    p_synth = sub.add_parser("synth", help="generate a synthetic price table")
    p_synth.add_argument("--mode", choices=["iid", "factor", "nonlinear"], required=True)
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--instruments", type=int, default=15)
    p_synth.add_argument("--rows", type=int, default=1000)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--noise-scale", type=float, default=0.1)
    p_synth.add_argument("--factor-loading", type=float, default=0.7)

    p_exp = sub.add_parser("export", help="filter a saved distance matrix into a graph")
    p_exp.add_argument("--matrix", required=True, help="delimited distance matrix file")
    p_exp.add_argument("--kind", choices=["mst", "pmfg"], default="mst")
    p_exp.add_argument("--format", choices=list(EXPORTERS), default="json")
    p_exp.add_argument("--delimiter", default=",")
    p_exp.add_argument("--out", help="output file (stdout if omitted)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "entropy": _cmd_entropy,
        "synth": _cmd_synth,
        "export": _cmd_export,
    }
    try:
        return handlers[args.command](args)
    except (MirnetError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
