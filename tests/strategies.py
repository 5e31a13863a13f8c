"""Hypothesis strategies for graphs, shared by the property tests.

Import this only after ``pytest.importorskip("hypothesis")``.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from influnet import DirectedGraph
from influnet.centrality import _BLOCK

from helpers import random_digraph


@st.composite
def sparse_digraphs(draw) -> DirectedGraph:
    """Gapped ids, isolated nodes and unreachable pairs, from below one block to several."""
    n = draw(st.integers(3, 5 * _BLOCK + 3))
    ids = sorted(draw(st.sets(st.integers(0, 10**6), min_size=n, max_size=n)))
    node = st.sampled_from(ids)
    arcs = draw(st.sets(st.tuples(node, node).filter(lambda a: a[0] != a[1]),
                        max_size=3 * n))
    return DirectedGraph(arcs, nodes=ids)


@st.composite
def dense_digraphs(draw) -> DirectedGraph:
    """3 to 30 nodes, each ordered pair an arc with probability 0.6: many tied paths."""
    n = draw(st.integers(3, 30))
    return random_digraph(random.Random(draw(st.integers(0, 2**32))), n, 0.6)
