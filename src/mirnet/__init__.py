"""Hierarchical dependency networks from correlation and MIR distances."""

from .centrality import (
    CentralityVector,
    compare_centralities,
    markov_centrality,
    mean_first_passage,
    transition_matrix,
)
from .distance import (
    DistanceMatrix,
    build_matrix,
    corr_distance,
    mir_distance,
    mir_prime_distance,
    pearson,
)
from .errors import (
    AlignmentError,
    DegeneratePairError,
    FormatError,
    InsufficientDataError,
    MirnetError,
    UndefinedCorrelationError,
    ValidationError,
)
from .graph import (
    FilteredGraph,
    build_mst,
    build_pmfg,
    is_planar_with,
    ordered_edges,
    to_dot,
    to_graphml,
    to_json,
)
from .ingest import (
    PriceSeries,
    ReturnSeries,
    SymbolSequence,
    discretize,
    load_price_table,
    log_returns,
)
from .lz import (
    LzEstimate,
    entropy_rate,
    joint_entropy_rate,
    match_lengths,
    mutual_lz,
)
from .pipeline import AnalysisConfig, run_pipeline
from .synth import SynthSpec, generate_price_table, generate_returns

__version__ = "0.1.0"
