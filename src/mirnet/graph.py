"""MST and PMFG filtering of distance matrices, plus graph exports."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from .distance import DistanceMatrix


@dataclass
class FilteredGraph:
    """Result of ordered edge insertion under a topological constraint."""

    kind: str  # "mst" or "pmfg"
    nodes: tuple[str, ...]
    edges: list[tuple[str, str, float]]  # insertion order
    source_method: str
    params: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.nodes)

    def to_networkx(self) -> nx.Graph:
        g = nx.Graph(kind=self.kind, source_method=self.source_method)
        g.add_nodes_from(self.nodes)
        for rank, (u, v, w) in enumerate(self.edges):
            g.add_edge(u, v, weight=w, insertion_rank=rank)
        return g

    def degrees(self) -> dict[str, int]:
        deg = {t: 0 for t in self.nodes}
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


def ordered_edges(matrix: DistanceMatrix) -> list[tuple[str, str, float]]:
    """All pairwise edges sorted by ascending distance.

    Equal distances fall back to lexicographic (min ticker, max ticker)
    order so the construction is deterministic.
    """
    names = sorted(set(matrix.tickers))
    rank = {t: k for k, t in enumerate(names)}
    ranks = np.array([rank[t] for t in matrix.tickers], dtype=np.int64)
    i, j = np.triu_indices(matrix.n, 1)
    dist = np.asarray(matrix.values, dtype=float)[i, j]
    lo = np.minimum(ranks[i], ranks[j])
    hi = np.maximum(ranks[i], ranks[j])
    order = np.lexsort((hi, lo, dist))
    return [
        (names[u], names[v], w)
        for u, v, w in zip(lo[order].tolist(), hi[order].tolist(), dist[order].tolist())
    ]


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}
        self.size = {x: 1 for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def build_mst(matrix: DistanceMatrix, genus: int = 0) -> FilteredGraph:
    """Kruskal insertion over the ordered edge list; n-1 edges, acyclic."""
    if genus != 0:
        raise NotImplementedError("only genus-0 construction is implemented")
    if matrix.n < 2:
        raise ValueError("MST needs at least 2 nodes")
    uf = _UnionFind(matrix.tickers)
    accepted = []
    for u, v, w in ordered_edges(matrix):
        if uf.union(u, v):
            accepted.append((u, v, w))
            if len(accepted) == matrix.n - 1:
                break
    return FilteredGraph(
        kind="mst",
        nodes=matrix.tickers,
        edges=accepted,
        source_method=matrix.method,
        params=dict(matrix.params),
    )


def is_planar_with(edges, candidate) -> bool:
    """Whether the accumulated edge set stays planar after one more edge."""
    g = nx.Graph()
    g.add_edges_from((u, v) for u, v, *_ in edges)
    u, v, *_ = candidate
    g.add_edge(u, v)
    ok, _ = nx.check_planarity(g)
    return ok

def build_pmfg(matrix: DistanceMatrix, genus: int = 0) -> FilteredGraph:
    """Greedy planar filtering: accept each edge iff the graph stays planar.

    Stops once 3(n-2) edges are accepted, which is the maximal planar edge
    count; the result always contains the MST of the same matrix.
    """
    if genus != 0:
        raise NotImplementedError("only genus-0 construction is implemented")
    if matrix.n < 3:
        raise ValueError("PMFG needs at least 3 nodes")
    target = 3 * (matrix.n - 2)
    accepted: list[tuple[str, str, float]] = []
    g = nx.Graph()
    g.add_nodes_from(matrix.tickers)
    for u, v, w in ordered_edges(matrix):
        g.add_edge(u, v)
        if not nx.check_planarity(g)[0]:
            g.remove_edge(u, v)
            continue
        accepted.append((u, v, w))
        if len(accepted) == target:
            break
    return FilteredGraph(
        kind="pmfg",
        nodes=matrix.tickers,
        edges=accepted,
        source_method=matrix.method,
        params=dict(matrix.params),
    )


def to_graphml(graph: FilteredGraph) -> str:
    import io

    buf = io.BytesIO()
    nx.write_graphml(graph.to_networkx(), buf)
    return buf.getvalue().decode()


def to_dot(graph: FilteredGraph) -> str:
    lines = [f"graph {graph.kind} {{"]
    for node in graph.nodes:
        lines.append(f'  "{node}";')
    for rank, (u, v, w) in enumerate(graph.edges):
        lines.append(f'  "{u}" -- "{v}" [weight={w:.10g}, rank={rank}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(graph: FilteredGraph) -> str:
    doc = {
        "kind": graph.kind,
        "source_method": graph.source_method,
        "params": graph.params,
        "nodes": list(graph.nodes),
        "edges": [
            {"source": u, "target": v, "weight": w, "insertion_rank": rank}
            for rank, (u, v, w) in enumerate(graph.edges)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


EXPORTERS = {"graphml": to_graphml, "dot": to_dot, "json": to_json}
