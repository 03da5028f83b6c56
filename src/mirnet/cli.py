"""Command-line entry point: run, entropy, synth, and export subcommands.

Exit codes: 0 success, 1 input or config error, 2 partial pipeline failure,
3 internal error, 4 every pipeline combination failed.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import graph, lz
from .distance import CORR_VARIANTS, MIR_ESTIMATOR, DistanceMatrix
from .errors import MirnetError
from .ingest import discretize, load_price_table, log_returns
from .pipeline import AnalysisConfig, run_pipeline
from .synth import MODES, SynthSpec, generate_price_table

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PARTIAL = 2
EXIT_INTERNAL = 3
EXIT_FAILED = 4


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list[int]:
    return [int(a) for a in text.split(",")]


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    """Flags that both run and entropy read; each dest is a config field."""
    p.add_argument("--input", dest="input_path", metavar="INPUT",
                   help="delimited price table")
    p.add_argument("--delimiter", help="field delimiter")
    p.add_argument("--date-column", help="name of the date column")
    p.add_argument("--alphabet-sizes", type=_int_list,
                   help="comma-separated alphabet sizes for MIR methods")
    p.add_argument("--min-length", type=int, help="minimum usable sequence length")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """The rest of the run flags; each dest is a config field."""
    p.add_argument("--config", help="JSON config file; flags override its fields, "
                   "and a field set by neither keeps its AnalysisConfig default")
    p.add_argument("--output-dir", help="directory for result artifacts")
    p.add_argument("--methods", type=lambda text: text.split(","),
                   help="comma-separated distance methods")
    p.add_argument("--graph-kinds", type=lambda text: text.split(","),
                   help="comma-separated graph kinds")
    p.add_argument("--corr-metric", dest="corr_variant", choices=CORR_VARIANTS,
                   help="correlation distance form")
    p.add_argument("--weighted-walk", action="store_true", default=None,
                   help="use similarity-weighted random walk for centrality")
    p.add_argument("--allow-short", action="store_true", default=None,
                   help="estimate below the minimum length, with a warning")


def _given(args, cls) -> dict:
    """The flags given, keyed by the dataclass fields of ``cls`` they set."""
    values = {f.name: getattr(args, f.name, None) for f in fields(cls)}
    return {name: value for name, value in values.items() if value is not None}


def _config_from_args(args) -> AnalysisConfig:
    """The config file's fields with the flags given laid over them."""
    values = json.loads(Path(args.config).read_text()) if args.config else {}
    if isinstance(values, dict):  # from_json refuses any other document
        values.update(_given(args, AnalysisConfig))
    return AnalysisConfig.from_json(json.dumps(values))


def _cmd_run(args) -> int:
    manifest = run_pipeline(_config_from_args(args))
    print(json.dumps({k: v for k, v in manifest.items() if k != "config"}, indent=2))
    return {"ok": EXIT_OK, "partial": EXIT_PARTIAL}.get(manifest["status"], EXIT_FAILED)


def _cmd_entropy(args) -> int:
    if not args.input_path:
        raise ValueError("--input is required")
    series = load_price_table(
        args.input_path, delimiter=args.delimiter, date_column=args.date_column
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
    if n < args.min_length:
        print(
            f"warning: only {n} data points (below {args.min_length}); the "
            "entropy-rate estimate will carry substantial finite-sample bias"
        )
    if np.ptp(returns.returns) == 0:
        print("note: series is constant; entropy collapses to the degenerate floor")
    estimator = args.estimator
    for alpha in args.alphabet_sizes:
        sym = discretize(returns, alpha)
        with warnings.catch_warnings():
            # a short series was reported above; lz would warn a second time
            warnings.simplefilter("ignore", UserWarning)
            est = lz.entropy_rate(
                sym, min_length=args.min_length, allow_short=True, estimator=estimator
            )
        flag = " (exceeds log2(alpha) cap)" if est.overshoot_flagged else ""
        print(
            f"alpha={alpha}: entropy rate {est.value:.4f} bits/symbol "
            f"(estimator: {estimator}){flag}"
        )
    return EXIT_OK


def _cmd_synth(args) -> int:
    spec = SynthSpec(**_given(args, SynthSpec))
    Path(args.out).write_text(generate_price_table(spec))
    print(f"wrote {spec.n_rows} rows x {spec.n_instruments} instruments to {args.out}")
    return EXIT_OK


def _cmd_export(args) -> int:
    matrix = DistanceMatrix.from_delimited(Path(args.matrix).read_text(), args.delimiter)
    fg = graph.BUILDERS[args.kind](matrix)
    text = graph.EXPORTERS[args.format](fg)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.kind} ({len(fg.edges)} edges) to {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mirnet",
        description="Hierarchical dependency networks from correlation and "
        "mutual-information-rate distances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full pipeline")
    p_run.set_defaults(handler=_cmd_run)
    _add_input_flags(p_run)
    _add_config_flags(p_run)

    p_ent = sub.add_parser("entropy", help="entropy-rate diagnostics for one ticker")
    _add_input_flags(p_ent)
    # the shared flags default to the fields of a default run config
    p_ent.set_defaults(handler=_cmd_entropy, **asdict(AnalysisConfig("", "")))
    p_ent.add_argument("ticker", help="instrument to diagnose")
    p_ent.add_argument(
        "--estimator",
        choices=lz.ESTIMATORS,
        default=lz.DEFAULT_ESTIMATOR,
        help=f"entropy-rate estimator (default {lz.DEFAULT_ESTIMATOR}; MIR "
        f"distances use {MIR_ESTIMATOR})",
    )

    p_synth = sub.add_parser("synth", help="generate a synthetic price table")
    p_synth.set_defaults(handler=_cmd_synth)
    p_synth.add_argument("--mode", choices=MODES, required=True)
    p_synth.add_argument("--out", required=True)
    # unset flags keep the SynthSpec defaults
    p_synth.add_argument("--instruments", dest="n_instruments", type=int)
    p_synth.add_argument("--rows", dest="n_rows", type=int)
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--noise-scale", type=float)
    p_synth.add_argument("--factor-loading", type=float)

    p_exp = sub.add_parser("export", help="filter a saved distance matrix into a graph")
    p_exp.set_defaults(handler=_cmd_export)
    p_exp.add_argument("--matrix", required=True, help="delimited distance matrix file")
    p_exp.add_argument("--kind", choices=graph.GRAPH_KINDS, default="mst")
    p_exp.add_argument("--format", choices=list(graph.EXPORTERS), default="json")
    p_exp.add_argument("--delimiter", default=",")
    p_exp.add_argument("--out", help="output file (stdout if omitted)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (MirnetError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
