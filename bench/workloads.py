"""The benchmark's workloads: synthetic inputs plus the pipeline settings.

Each workload is a closed loop with one client: the next ``run_pipeline``
starts only after the previous one returns. A workload owns ``tables`` input
tables generated from the run's seed and cycles through them, so a run
averages over several inputs when one input alone would make the timing
depend on the seed (the PMFG's planarity-test count does).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# the seed whose outputs are committed under reference/
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str
    n_instruments: int
    n_rows: int
    methods: tuple[str, ...]
    alphabet_sizes: tuple[int, ...]
    graph_kinds: tuple[str, ...]
    tables: int = 1

    def synth_specs(self, seed: int) -> list[dict]:
        """``SynthSpec`` keyword arguments of each input table for ``seed``."""
        return [
            {
                "mode": self.mode,
                "n_instruments": self.n_instruments,
                "n_rows": self.n_rows,
                "seed": 1000 * seed + k,
            }
            for k in range(self.tables)
        ]

    def shape(self) -> dict:
        """The fields that decide the outputs; a reference is valid only for these."""
        return {
            "mode": self.mode,
            "n_instruments": self.n_instruments,
            "n_rows": self.n_rows,
            "methods": list(self.methods),
            "alphabet_sizes": list(self.alphabet_sizes),
            "graph_kinds": list(self.graph_kinds),
            "tables": self.tables,
        }

    def pipeline_config(self, input_path, output_dir):
        """The ``AnalysisConfig`` for one input table.

        mirnet is imported here rather than at module level so that importing
        this module does not load numpy before the BLAS thread count is fixed.
        """
        from mirnet import AnalysisConfig

        return AnalysisConfig(
            input_path=str(input_path),
            output_dir=str(output_dir),
            methods=list(self.methods),
            alphabet_sizes=list(self.alphabet_sizes),
            graph_kinds=list(self.graph_kinds),
        )

    def resized(self, n_instruments: int, n_rows: int, tables: int = 1) -> "Workload":
        return replace(self, n_instruments=n_instruments, n_rows=n_rows, tables=tables)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mir_panel",
            why="many short series, MIR at two alphabets, MST only: the match-length "
            "kernel on 2.5k-symbol sequences takes most of the run",
            mode="factor",
            n_instruments=24,
            n_rows=2501,
            methods=("correlation", "mir"),
            alphabet_sizes=(4, 10),
            graph_kinds=("mst",),
        ),
        Workload(
            name="pmfg_wide",
            why="correlation only, MST and PMFG, 30 tables of 40 series: greedy planarity "
            "testing takes most of the run and the match-length kernel is skipped",
            mode="factor",
            n_instruments=40,
            n_rows=751,
            methods=("correlation",),
            alphabet_sizes=(4, 10),
            graph_kinds=("mst", "pmfg"),
            tables=30,
        ),
        Workload(
            name="corr_wide",
            why="250 series, correlation only, MST only: Markov centrality and the "
            "N^2 correlation matrix are the large layers",
            mode="factor",
            n_instruments=250,
            n_rows=2501,
            methods=("correlation",),
            alphabet_sizes=(4, 10),
            graph_kinds=("mst",),
        ),
    )
}

# shapes small enough for the benchmark's own tests
SMOKE_SHAPES = {
    "mir_panel": (5, 601, 1),
    "pmfg_wide": (12, 101, 2),
    "corr_wide": (20, 201, 1),
}


def smoke(name: str) -> Workload:
    return WORKLOADS[name].resized(*SMOKE_SHAPES[name])
