"""Spans around the calls into each mirnet layer, recorded from outside.

``Tracer.install`` replaces each traced function at the module attribute its
caller resolves (``pipeline.load_price_table``, ``lz.match_lengths``,
``nx.check_planarity``, the ``graph.EXPORTERS`` values, ...) with a wrapper
that records a span: name, start, end, parent and a few attributes. Spans stay in
memory until the run ends. ``layer_metrics`` turns one traced pipeline run
into the per-layer metrics; self time is a span's duration minus that of its
direct children, because ``lz.entropy_rate`` nests inside
``lz.joint_entropy_rate`` and ``lz.match_lengths`` inside both.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import networkx as nx
import numpy as np

from mirnet import centrality, distance, graph, lz, pipeline

ROOT_SPAN = "pipeline.run_pipeline"
MIR_METHODS = ("mir", "mir_prime")

# per-layer metric -> unit; the order is the order of the report
LAYER_UNITS = {
    "lz.match_lengths_s": "s",
    "lz.match_lengths_calls": "count",
    "lz.symbols": "count",
    "lz.symbols_per_s": "1/s",
    "lz.entropy_rate_self_s": "s",
    "distance.mir_matrix_s": "s",
    "distance.mir_self_s": "s",
    "distance.corr_matrix_s": "s",
    "distance.pairs": "count",
    "distance.clamped_pairs": "count",
    "graph.pmfg_s": "s",
    "graph.pmfg_self_s": "s",
    "graph.planarity_s": "s",
    "graph.planarity_tests": "count",
    "graph.pmfg_accept_ratio": "ratio",
    "graph.mst_s": "s",
    "graph.export_s": "s",
    "centrality.markov_s": "s",
    "centrality.compare_s": "s",
    "ingest.load_s": "s",
    "ingest.returns_s": "s",
    "ingest.discretize_s": "s",
    "ingest.rows": "count",
    "pipeline.self_s": "s",
    "pipeline.bytes_written": "bytes",
    "pipeline.traced_wall_s": "s",
    "trace.overhead_s": "s",
}

# self times that partition the traced wall time of one pipeline run
SELF_TIME_METRICS = (
    "ingest.load_s",
    "ingest.returns_s",
    "ingest.discretize_s",
    "distance.corr_matrix_s",
    "distance.mir_self_s",
    "lz.entropy_rate_self_s",
    "lz.match_lengths_s",
    "graph.mst_s",
    "graph.pmfg_self_s",
    "graph.planarity_s",
    "graph.export_s",
    "centrality.markov_s",
    "centrality.compare_s",
    "pipeline.self_s",
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows(args, result) -> dict:
    return {"rows": len(result[0].dates) if result else 0}


def _matrix(args, result) -> dict:
    return {
        "method": result.method,
        "pairs": result.total_pairs,
        "clamped_pairs": result.clamped_pairs,
    }


def _symbols(args, result) -> dict:
    return {"symbols": int(np.size(args[0]))}


def _accepted(args, result) -> dict:
    return {"accepted": len(result.edges)}


def _targets() -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, attrs) for every traced call site."""
    targets = [
        (pipeline, "load_price_table", "ingest.load_price_table", _rows),
        (pipeline, "log_returns", "ingest.log_returns", None),
        (pipeline, "discretize", "ingest.discretize", None),
        (distance, "build_matrix", "distance.build_matrix", _matrix),
        (lz, "entropy_rate", "lz.entropy_rate", None),
        (lz, "joint_entropy_rate", "lz.joint_entropy_rate", None),
        (lz, "match_lengths", "lz.match_lengths", _symbols),
        (graph, "build_mst", "graph.build_mst", None),
        (graph, "build_pmfg", "graph.build_pmfg", _accepted),
        (nx, "check_planarity", "graph.check_planarity", None),
        (centrality, "markov_centrality", "centrality.markov_centrality", None),
        (centrality, "compare_centralities", "centrality.compare_centralities", None),
    ]
    targets += [(graph.EXPORTERS, fmt, "graph.export", None) for fmt in graph.EXPORTERS]
    return targets


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """In-memory span recorder for one single-threaded pipeline run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def _begin(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), parent=parent)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def _wrap(self, name, fn, attrs):
        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(span)
            if attrs is not None:
                span.attrs.update(attrs(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def install(self):
        """Trace every target inside the block; restore the originals after."""
        saved = []
        try:
            for owner, key, name, attrs in _targets():
                original = _get(owner, key)
                saved.append((owner, key, original))
                _set(owner, key, self._wrap(name, original, attrs))
            yield self
        finally:
            for owner, key, original in reversed(saved):
                _set(owner, key, original)

    def run(self, fn, *args, **kwargs):
        """Call ``fn`` (``run_pipeline``) under the root span."""
        span = self._begin(ROOT_SPAN)
        try:
            return fn(*args, **kwargs)
        finally:
            self._finish(span)

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Children run one after another inside their parent, so they never overlap.
    """
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def layer_metrics(spans: list[Span], bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced ``run_pipeline`` call."""
    own = self_times(spans)

    def total(name, pred=None):
        return sum((s.duration for s in spans if s.name == name and (pred is None or pred(s))), 0.0)

    def self_of(name, pred=None):
        return sum((t for s, t in zip(spans, own) if s.name == name and (pred is None or pred(s))), 0.0)

    def count(name, key=None):
        return sum(1 if key is None else s.attrs.get(key, 0) for s in spans if s.name == name)

    def is_mir(s):
        return s.attrs.get("method") in MIR_METHODS

    def is_corr(s):
        return s.attrs.get("method") == "correlation"

    (root_index,) = [i for i, s in enumerate(spans) if s.name == ROOT_SPAN]
    match_s = total("lz.match_lengths")
    symbols = count("lz.match_lengths", "symbols")
    tests = count("graph.check_planarity")
    return {
        "lz.match_lengths_s": match_s,
        "lz.match_lengths_calls": count("lz.match_lengths"),
        "lz.symbols": symbols,
        "lz.symbols_per_s": symbols / match_s if match_s > 0 else 0.0,
        "lz.entropy_rate_self_s": self_of("lz.entropy_rate") + self_of("lz.joint_entropy_rate"),
        "distance.mir_matrix_s": total("distance.build_matrix", is_mir),
        "distance.mir_self_s": self_of("distance.build_matrix", is_mir),
        "distance.corr_matrix_s": total("distance.build_matrix", is_corr),
        "distance.pairs": count("distance.build_matrix", "pairs"),
        "distance.clamped_pairs": count("distance.build_matrix", "clamped_pairs"),
        "graph.pmfg_s": total("graph.build_pmfg"),
        "graph.pmfg_self_s": self_of("graph.build_pmfg"),
        "graph.planarity_s": total("graph.check_planarity"),
        "graph.planarity_tests": tests,
        "graph.pmfg_accept_ratio": count("graph.build_pmfg", "accepted") / tests if tests else 0.0,
        "graph.mst_s": total("graph.build_mst"),
        "graph.export_s": total("graph.export"),
        "centrality.markov_s": total("centrality.markov_centrality"),
        "centrality.compare_s": total("centrality.compare_centralities"),
        "ingest.load_s": total("ingest.load_price_table"),
        "ingest.returns_s": total("ingest.log_returns"),
        "ingest.discretize_s": total("ingest.discretize"),
        "ingest.rows": count("ingest.load_price_table", "rows"),
        "pipeline.self_s": own[root_index],
        "pipeline.bytes_written": bytes_written,
        "pipeline.traced_wall_s": spans[root_index].duration,
    }

