"""Influence analysis for directed follow networks.

Load a follow edge list, profile its structure against random baselines,
score nodes by centrality, simulate threshold adoption cascades, and rank
candidate seeds by how far and how fast they spread.
"""

import importlib

# The submodule that defines each public name.  A name is imported from it
# on first use (PEP 562), so ``import influnet`` loads no submodule.
_SOURCES = {
    name: module
    for module, names in {
        "baselines": ("RandomGraphSpec", "generate", "gnp_random", "watts_strogatz"),
        "centrality": (
            "CentralityTable", "ConvergenceError", "betweenness_centrality", "degree_table",
            "eigenvector_centrality", "full_table", "top_k",
        ),
        "cli": ("main",),
        "diffusion": (
            "DiffusionTrace", "linear_threshold_run", "spreading_score", "threshold_sweep",
        ),
        "export": ("export_graph", "to_edge_csv"),
        "graph": (
            "DirectedGraph", "EdgeListParseError", "IngestResult", "ingest_edge_csv",
            "largest_core",
        ),
        "metrics": (
            "NetworkSummary", "SmallWorldVerdict", "average_clustering", "local_clustering",
            "small_world_sigma", "summarize",
        ),
        "ranking": (
            "CorrelationMatrix", "RankRecord", "Recommendation", "correlation_matrix",
            "rank_candidates", "recommend", "select_candidates",
        ),
    }.items()
    for name in names
}

__version__ = "0.1.0"

__all__ = sorted(_SOURCES)


def __getattr__(name: str) -> object:
    try:
        module = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
