"""Influence analysis for directed follow networks.

Load a follow edge list, profile its structure against random baselines,
score nodes by centrality, simulate threshold adoption cascades, and rank
candidate seeds by how far and how fast they spread.
"""

from .baselines import RandomGraphSpec, generate, gnp_random, watts_strogatz
from .centrality import (
    CentralityTable,
    ConvergenceError,
    betweenness_centrality,
    degree_table,
    eigenvector_centrality,
    full_table,
    top_k,
)
from .cli import main
from .diffusion import (
    DiffusionConfig,
    DiffusionTrace,
    linear_threshold_run,
    spreading_capacity,
    spreading_score,
    threshold_sweep,
)
from .export import export_graph, to_edge_csv
from .graph import DirectedGraph, EdgeListParseError, IngestResult, ingest_edge_csv, largest_core
from .metrics import (
    NetworkSummary,
    SmallWorldVerdict,
    average_clustering,
    local_clustering,
    small_world_sigma,
    summarize,
)
from .ranking import (
    CorrelationMatrix,
    RankRecord,
    Recommendation,
    correlation_matrix,
    rank_candidates,
    recommend,
    select_candidates,
)

__version__ = "0.1.0"

__all__ = [
    "CentralityTable",
    "ConvergenceError",
    "CorrelationMatrix",
    "DiffusionConfig",
    "DiffusionTrace",
    "DirectedGraph",
    "EdgeListParseError",
    "IngestResult",
    "NetworkSummary",
    "RandomGraphSpec",
    "RankRecord",
    "Recommendation",
    "SmallWorldVerdict",
    "average_clustering",
    "betweenness_centrality",
    "correlation_matrix",
    "degree_table",
    "eigenvector_centrality",
    "export_graph",
    "full_table",
    "generate",
    "gnp_random",
    "ingest_edge_csv",
    "largest_core",
    "linear_threshold_run",
    "local_clustering",
    "main",
    "rank_candidates",
    "recommend",
    "select_candidates",
    "small_world_sigma",
    "spreading_capacity",
    "spreading_score",
    "summarize",
    "threshold_sweep",
    "to_edge_csv",
    "top_k",
    "watts_strogatz",
]
