"""End-to-end orchestration: ingest, distances, graphs, centralities, report."""

from __future__ import annotations

import json
import os
import sys
import tempfile
import traceback
import warnings
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import centrality as centrality_mod
from . import distance as distance_mod
from . import graph as graph_mod
from .errors import ValidationError, check_field_types
from .ingest import check_delimiter, discretize, load_price_table, log_returns
from .lz import DEFAULT_MIN_LENGTH

# written when a run compares centralities: the combined table, then the report
COMPARISON_FILES = ("centrality_table.csv", "comparison_report.json")


@dataclass
class AnalysisConfig:
    """Everything one pipeline run depends on; round-trips through JSON.

    Construction raises ``ValidationError``, naming the field, for a value of
    the wrong type (``errors.check_field_types``: an int is not a bool, a
    bare string is not a list; a tuple is read as a list), a delimiter the
    price loader refuses (``ingest.check_delimiter``), an unknown or
    repeated method or graph kind, an unknown correlation variant, a
    repeated alphabet size or one below 2, no method at all, or no alphabet
    size while a MIR method is configured.
    """

    input_path: str
    output_dir: str
    delimiter: str = ","
    date_column: str = "date"
    alphabet_sizes: list[int] = field(default_factory=lambda: [4, 10])
    methods: list[str] = field(default_factory=lambda: ["correlation", "mir"])
    graph_kinds: list[str] = field(default_factory=lambda: list(graph_mod.GRAPH_KINDS))
    corr_variant: str = "one_minus_r2"
    weighted_walk: bool = False
    min_length: int = DEFAULT_MIN_LENGTH
    allow_short: bool = False

    def __post_init__(self):
        check_field_types(self)
        for f in fields(self):
            if f.type.startswith("list"):
                setattr(self, f.name, list(getattr(self, f.name)))
        check_delimiter(self.delimiter)
        for name, values, allowed in (
            ("methods", self.methods, distance_mod.METHODS),
            ("graph_kinds", self.graph_kinds, graph_mod.GRAPH_KINDS),
            ("corr_variant", [self.corr_variant], distance_mod.CORR_VARIANTS),
        ):
            for i, value in enumerate(values):
                if value not in allowed or value in values[:i]:
                    problem = "repeated" if value in allowed else "unknown"
                    raise ValidationError(
                        f"{name}: {problem} value {value!r}; allowed values: {allowed}"
                    )
        for i, alpha in enumerate(self.alphabet_sizes):
            if alpha < 2 or alpha in self.alphabet_sizes[:i]:
                problem = "repeated" if alpha >= 2 else "unusable"
                raise ValidationError(
                    f"alphabet_sizes: {problem} value {alpha!r}; "
                    "sizes must be distinct and at least 2"
                )
        if not self.methods:
            raise ValidationError(f"methods: empty; allowed values: {distance_mod.METHODS}")
        if not self.alphabet_sizes and set(self.methods) - {"correlation"}:
            raise ValidationError("alphabet_sizes: empty, but a MIR method needs one")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "AnalysisConfig":
        """The config a JSON object describes; an unknown or missing required
        field, or a document that is not an object, raises ``ValidationError``."""
        values = json.loads(text)
        if not isinstance(values, dict):
            raise ValidationError(f"config: expected a JSON object, got {values!r}")
        unknown = sorted(set(values) - {f.name for f in fields(cls)})
        if unknown:
            raise ValidationError(f"unknown config fields: {unknown}")
        missing = [f.name for f in fields(cls) if f.name not in values
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise ValidationError(f"missing required config fields: {missing}")
        return cls(**values)

    def combinations(self) -> list[dict]:
        """One entry per (method, alpha); correlation has no alpha."""
        return [
            {"method": method, "alpha": alpha}
            for method in self.methods
            for alpha in ([None] if method == "correlation" else self.alphabet_sizes)
        ]


def _combo_name(combo: dict) -> str:
    method, alpha = combo["method"], combo["alpha"]
    return method if alpha is None else f"{method}_a{alpha}"


def _combination(cfg: AnalysisConfig, combo: dict, returns) -> tuple[dict, dict, dict]:
    """One combination's files, centralities and manifest entry.

    A MIR combination discretizes for its own alphabet, so a series too short
    for that alphabet fails only the combinations that use it. Any exception
    becomes the error entry, with no files and no centralities."""
    method, alpha = combo["method"], combo["alpha"]
    name = _combo_name(combo)
    try:
        series = returns if alpha is None else [discretize(r, alpha) for r in returns]
        matrix = distance_mod.build_matrix(
            series, method, corr_variant=cfg.corr_variant,
            allow_short=cfg.allow_short, min_length=cfg.min_length,
        )
        texts = {
            f"{name}_distances.csv": matrix.to_delimited(),
            f"{name}_distances_report.json": _json(matrix.report()),
        }
        graphs, centralities = {}, {}
        for kind in cfg.graph_kinds:
            fg = graph_mod.BUILDERS[kind](matrix)
            for fmt, export in graph_mod.EXPORTERS.items():
                texts[f"{name}_{kind}.{fmt}"] = export(fg)
            cv = centrality_mod.markov_centrality(fg, weighted=cfg.weighted_walk)
            centralities[(name, kind)] = cv
            texts[f"{name}_{kind}_centrality.csv"] = cv.to_delimited()
            graphs[kind] = {"nodes": fg.n, "edges": len(fg.edges)}
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        return {}, {}, {"status": "error", "error": error, "traceback": traceback.format_exc()}
    artifacts = {fname: str(Path(cfg.output_dir) / fname) for fname in texts}
    return texts, centralities, {"status": "ok", "artifacts": artifacts, "graphs": graphs}


def _combination_results(cfg: AnalysisConfig, combos: list[dict], returns, work: Path) -> list:
    """``_combination`` of each of ``combos``, in that order.

    With more than one combination, more than one usable CPU and the ``fork``
    start method, they run in min(combinations, CPUs) forked lanes that walk
    one queue in the run's work directory ``work``, MIR first as the longest
    (``_lane``); otherwise, and in a daemonic process (which may not start
    processes), one after another here. This process joins every lane, kills
    any still alive and issues their warnings again; no lane removes ``work``,
    as a lane exits through ``os._exit``. A combination without a result (its
    lane died) raises ``RuntimeError`` naming it. A lane threads its
    first-passage solves as the calling process would (``centrality.free_cpus``)."""
    lanes = min(len(combos), centrality_mod.usable_cpus())
    if lanes > 1:
        import multiprocessing

        if ("fork" not in multiprocessing.get_all_start_methods()
                or multiprocessing.current_process().daemon):
            lanes = 1
    if lanes < 2:
        return [_combination(cfg, combo, returns) for combo in combos]
    import pickle

    fork = multiprocessing.get_context("fork")
    queue = sorted(range(len(combos)), key=lambda i: combos[i]["method"] == "correlation")
    children = []
    try:
        for _ in range(lanes):
            child = fork.Process(target=_lane, args=(work, queue, cfg, combos, returns))
            child.start()
            children.append(child)
        for child in children:
            child.join()
    finally:
        for child in children:
            child.kill()  # a no-op on a lane that has exited
            child.join()
    results = [work / str(i) for i in range(len(combos))]
    missing = [_combo_name(c) for c, result in zip(combos, results) if not result.exists()]
    if missing:
        exitcode = next((child.exitcode for child in children if child.exitcode), 0)
        raise RuntimeError(f"a combination lane exited with code {exitcode} before "
                           f"sending {', '.join(missing)}")
    recorded = [pickle.loads(result.read_bytes()) for result in results]
    for _, caught in recorded:
        _reissue(caught)
    return [result for result, _ in recorded]


def _lane(work: Path, queue: list[int], cfg: AnalysisConfig, combos: list[dict], returns) -> None:
    """A forked lane: claim each unclaimed combination of ``queue`` by creating
    ``<index>.taken`` in ``work`` exclusively, and leave there as ``<index>``,
    renamed from ``<index>.part``, its pickled ``_combination`` and the
    warnings that passed the filters the lane inherited (a warning they turn
    into an error fails the combination here, as in the calling process)."""
    import pickle

    for index in queue:
        try:
            (work / f"{index}.taken").touch(exist_ok=False)
        except FileExistsError:
            continue
        with warnings.catch_warnings(record=True) as caught:
            result = _combination(cfg, combos[index], returns)
        warned = [(w.message, w.category, w.filename, w.lineno) for w in caught]
        part = work / f"{index}.part"
        part.write_bytes(pickle.dumps((result, warned)))
        part.replace(work / str(index))


def _reissue(caught: list[tuple]) -> None:
    """Issue a lane's warnings again here, on behalf of the module whose
    line raised them, so that this process's filters and once-per-line
    registries treat them as they would a serial run's."""
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for message, category, filename, lineno in caught:
        module = modules.get(filename)
        warnings.warn_explicit(
            message, category, filename, lineno,
            module=getattr(module, "__name__", None),
            registry=vars(module).setdefault("__warningregistry__", {}) if module else None,
        )


def run_pipeline(cfg: AnalysisConfig) -> dict:
    """Load, run each combination (``_combination_results``), compare
    (``_comparison``) and publish (``_publish``). A failing combination
    contributes no files. Once the table has loaded, the run works in one
    directory of its own in the output directory, which it removes: the
    lanes' queue and mailbox, and the staging area of every published file."""
    out_root = Path(cfg.output_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    # only the returns are kept: the prices are freed before any combination
    returns = [log_returns(s) for s in load_price_table(
        cfg.input_path, delimiter=cfg.delimiter, date_column=cfg.date_column
    )]

    manifest: dict = {
        "config": asdict(cfg),
        # what decides the artifacts' last bits besides the inputs
        "provenance": {
            "numpy": np.__version__,
            "blas_threads": {
                var: os.environ.get(var) for var in centrality_mod.BLAS_THREAD_VARS
            },
        },
        "n_instruments": len(returns),
        "combinations": {},
        "comparisons": [],
    }
    files: dict[str, str] = {}
    centralities: dict[tuple[str, str], centrality_mod.CentralityVector] = {}
    combos = cfg.combinations()
    with tempfile.TemporaryDirectory(prefix=".run-", dir=out_root) as work:
        work = Path(work)
        for combo, (texts, combo_centralities, entry) in zip(
            combos, _combination_results(cfg, combos, returns, work)
        ):
            files.update(texts)
            centralities.update(combo_centralities)
            manifest["combinations"][_combo_name(combo)] = entry

        comparison_files, comparison_fields = _comparison(cfg, centralities)
        files.update(comparison_files)
        manifest.update(comparison_fields)
        statuses = {e["status"] for e in manifest["combinations"].values()}
        manifest["status"] = (
            "ok" if statuses <= {"ok"} else "partial" if "ok" in statuses else "failed"
        )
        files["manifest.json"] = _json(manifest)
        _publish(out_root, work, files)
    return manifest


def _comparison(cfg, centralities) -> tuple[dict[str, str], dict]:
    """Correlate each MIR variant's centralities against the correlation
    network of the same kind, mirroring the published comparison design: the
    files, and the manifest's ``comparisons`` or else its ``comparison_note``."""
    mir_names = [
        _combo_name(c) for c in cfg.combinations() if c["method"] != "correlation"
    ]
    if "correlation" not in cfg.methods or not mir_names:
        return {}, {"comparison_note": "no comparison report: need both a "
                    "correlation baseline and at least one MIR variant"}
    # the statistics of a constant vector (every node of a K4 PMFG is equally
    # central) are NaN, which JSON cannot hold: they are written as null
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = [
            {"kind": kind, "variant": name}
            | centrality_mod.compare_centralities(
                centralities[("correlation", kind)], centralities[(name, kind)]
            )
            for kind in cfg.graph_kinds
            for name in mir_names
            if ("correlation", kind) in centralities and (name, kind) in centralities
        ]
    rows = [{k: None if isinstance(v, float) and np.isnan(v) else v for k, v in row.items()}
            for row in rows]
    if not rows:
        return {}, {"comparison_note": "no comparison report: no complete pairs"}

    # combined centrality table: vertex label + one column per network variant
    names = sorted(centralities, key=lambda k: (k[1], k[0]))
    tickers = next(iter(centralities.values())).tickers
    header = ["vertex"] + [f"{kind}_{name}" for name, kind in names]
    lines = [",".join(header)]
    columns = [centralities[key].normalized() for key in names]
    for i, t in enumerate(tickers):
        row = [t] + [f"{column[i]:.6f}" for column in columns]
        lines.append(",".join(row))
    table = "\n".join(lines) + "\n"
    files = dict(zip(COMPARISON_FILES, (table, _json(rows))))
    return files, {"comparisons": rows}


def _json(doc) -> str:
    """``doc`` as the text of a JSON artifact; a NaN or infinity raises."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _publish(out_root: Path, work: Path, files: dict[str, str]) -> None:
    """Write ``files`` into the run's work directory ``work``, then rename
    each into ``out_root`` in the order given, so a failed write leaves the
    previous run's files as they were. Then delete, by basename only, the files
    that the previous manifest lists (none if it is missing or unreadable) and
    this run did not write. Only ``files`` leave ``work``: the lanes' spool
    names there (``<index>``, ``<index>.taken``, ``<index>.part``) carry no
    method stem and no extension, so no artifact name is one of them."""
    try:
        previous = json.loads((out_root / "manifest.json").read_text())
        listed = {
            Path(path).name
            for entry in previous["combinations"].values()
            for path in entry.get("artifacts", {}).values()
        }
        if previous["comparisons"]:
            listed.update(COMPARISON_FILES)
    except (OSError, ValueError, LookupError, TypeError, AttributeError):
        listed = set()
    for fname, text in files.items():
        (work / fname).write_text(text)
    for fname in files:
        (work / fname).replace(out_root / fname)
    for fname in listed - set(files):
        if (out_root / fname).is_file():
            (out_root / fname).unlink()
