"""MST and PMFG filtering of distance matrices, plus graph exports."""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

import numpy as np

from .distance import DistanceMatrix
from .errors import ValidationError

# each kind names its builder, build_<kind>
GRAPH_KINDS = ("mst", "pmfg")


@dataclass
class FilteredGraph:
    """Result of ordered edge insertion under a topological constraint."""

    kind: str  # one of GRAPH_KINDS
    nodes: tuple[str, ...]
    edges: list[tuple[str, str, float]]  # insertion order
    source_method: str
    params: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.nodes)

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
    names, lo, hi, dist = _edge_order(matrix)
    return [(names[u], names[v], w) for u, v, w in zip(lo, hi, dist)]


def _edge_order(matrix: DistanceMatrix):
    """``(names, lo, hi, dist)``: the sorted distinct tickers, then for every
    pair in ``ordered_edges`` order the positions in ``names`` of its smaller
    and larger ticker and its distance, as lists."""
    names = sorted(set(matrix.tickers))
    rank = {t: k for k, t in enumerate(names)}
    ranks = np.array([rank[t] for t in matrix.tickers], dtype=np.int64)
    i, j = np.triu_indices(matrix.n, 1)
    dist = np.asarray(matrix.values, dtype=float)[i, j]
    lo = np.minimum(ranks[i], ranks[j])
    hi = np.maximum(ranks[i], ranks[j])
    order = np.lexsort((hi, lo, dist))
    return names, lo[order].tolist(), hi[order].tolist(), dist[order].tolist()


def _filtered(matrix: DistanceMatrix, kind: str, target: int, keeps) -> FilteredGraph:
    """The graph of the first ``target`` edges in ``_edge_order`` that ``keeps``
    accepts, given their positions in its names; refuses a repeated ticker."""
    names, lo, hi, dist = _edge_order(matrix)
    if len(names) < matrix.n:
        repeated = next(t for k, t in enumerate(matrix.tickers) if t in matrix.tickers[:k])
        raise ValidationError(f"{repeated}: ticker appears more than once")
    accepted: list[tuple[str, str, float]] = []
    for u, v, w in zip(lo, hi, dist):
        if keeps(u, v):
            accepted.append((names[u], names[v], w))
            if len(accepted) == target:
                break
    return FilteredGraph(kind, matrix.tickers, accepted, matrix.method, dict(matrix.params))


def build_mst(matrix: DistanceMatrix) -> FilteredGraph:
    """Kruskal insertion over the ordered edge list; n-1 edges, acyclic."""
    if matrix.n < 2:
        raise ValueError("MST needs at least 2 nodes")
    root = list(range(matrix.n))  # union-find forest over names, with path halving

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    def joins_two_trees(u: int, v: int) -> bool:
        a, b = find(u), find(v)
        root[a] = b
        return a != b

    return _filtered(matrix, "mst", matrix.n - 1, joins_two_trees)


def _is_planar(n: int, adj: list[list[int]]) -> bool:
    """Left-Right planarity test (Brandes, 2009) that tests and never embeds.

    Vertices are ``0..n-1``; ``adj[v]`` lists the neighbours of ``v``, every
    edge in both lists, with no self-loops or repeats; ``adj`` is left as it
    is. The two passes are those of networkx's ``check_planarity``: a DFS
    orientation that gives each edge its lowpoints and nesting depth, then a
    testing DFS that visits children by nesting depth and merges return
    edges into a stack of conflict pairs. Both passes are iterative, and
    each resumes a vertex's list through one iterator. Oriented edges are
    numbered ``0..m-1`` in the order the first pass finds them, and their
    heads and other attributes are lists indexed by that number; a tail is
    not kept, since each DFS finishes an edge with its tail on top of the
    stack. A root's parent edge is -1. A conflict pair is the list ``[left
    low, left high, right low, right high]`` of edges, an empty interval
    having low and high ``None``. ``ref`` links the intervals merged into
    one. Only the answer is needed, so the sides, the lowpoint edges and the
    ``ref`` entries that an embedding alone reads are not kept, nor the
    lowpt2 of a back edge, which is the height of its tail.
    """
    m = sum(map(len, adj)) // 2
    if n > 2 and m > 3 * n - 6:
        return False
    height = [-1] * n
    parent_edge = [-1] * n
    heads = [0] * m
    lowpt = [0] * m
    lowpt2 = [0] * m  # read for tree edges only
    nesting = [0] * m
    k = 0  # the next edge number
    out: list[list[int]] = [[] for _ in range(n)]  # oriented edges by tail
    # what each DFS has yet to walk at each vertex: its neighbours in the
    # first pass, its oriented edges in the second
    nbrs: list = [None] * n
    roots = []
    for root in range(n):
        if height[root] >= 0:
            continue
        height[root] = 0
        roots.append(root)
        nbrs[root] = iter(adj[root])
        stack = [root]
        while stack:
            v = stack[-1]
            hv = height[v]
            e = parent_edge[v]
            for w in nbrs[v]:
                hw = height[w]
                if hw < 0:  # tree edge
                    out[v].append(k)
                    parent_edge[w] = k
                    heads[k] = w
                    lowpt[k] = lowpt2[k] = hv
                    k += 1
                    height[w] = hv + 1
                    nbrs[w] = iter(adj[w])
                    stack.append(w)
                    break
                if hw >= hv - 1:
                    # the tree edge from v's parent, or a back edge that a
                    # descendant of v has oriented already
                    continue
                # back edge to an ancestor: lowpt is the ancestor's height,
                # the edge is not chordal, and its lowpoint joins those of e
                out[v].append(k)
                heads[k] = w
                lowpt[k] = hw
                nesting[k] = 2 * hw
                k += 1
                low_e = lowpt[e]
                if hw < low_e:
                    lowpt2[e] = low_e
                    lowpt[e] = hw
                elif low_e < hw < lowpt2[e]:
                    lowpt2[e] = hw
            else:
                # v is finished: the tree edge into v gets its nesting depth,
                # and its lowpoints join those of the tree edge above it
                stack.pop()
                if e < 0:
                    continue
                v = stack[-1]
                low = lowpt[e]
                low2 = lowpt2[e]
                nesting[e] = 2 * low + (low2 < height[v])
                up = parent_edge[v]
                if up >= 0:
                    low_up = lowpt[up]
                    if low < low_up:
                        lowpt2[up] = low_up if low_up < low2 else low2
                        lowpt[up] = low
                    elif low > low_up:
                        if low < lowpt2[up]:
                            lowpt2[up] = low
                    elif low2 < lowpt2[up]:
                        lowpt2[up] = low2

    for edges in out:
        edges.sort(key=nesting.__getitem__)
    S: list[list] = []
    bottom: list = [None] * m  # top of S when each edge was entered
    ref: list = [None] * m
    for root in roots:
        stack = [root]
        nbrs[root] = iter(out[root])
        while stack:
            v = stack[-1]
            ei = next(nbrs[v], -1)
            if ei >= 0:
                bottom[ei] = S[-1] if S else None
                w = heads[ei]
                if parent_edge[w] == ei:
                    nbrs[w] = iter(out[w])
                    stack.append(w)
                    continue
                S.append([None, None, ei, ei])
            else:
                stack.pop()
                ei = parent_edge[v]
                if ei < 0:
                    continue
                # trim the back edges that end at v's parent u
                u = stack[-1]
                hu = height[u]
                while S:
                    P = S[-1]
                    if P[0] is None:
                        lowest = lowpt[P[2]]
                    elif P[2] is None:
                        lowest = lowpt[P[0]]
                    else:
                        lowest = lowpt[P[0]]
                        if lowpt[P[2]] < lowest:
                            lowest = lowpt[P[2]]
                    if lowest != hu:
                        break
                    S.pop()
                if S:
                    P = S[-1]
                    while P[1] is not None and heads[P[1]] == u:
                        P[1] = ref[P[1]]
                    if P[1] is None:
                        P[0] = None
                    while P[3] is not None and heads[P[3]] == u:
                        P[3] = ref[P[3]]
                    if P[3] is None:
                        P[2] = None
                v = u
            # ei has just been entered or finished at its tail v; if it is a
            # later child of v with return edges below v, add its constraints
            if lowpt[ei] >= height[v] or ei == out[v][0]:
                continue
            low_e = lowpt[parent_edge[v]]
            P = [None, None, None, None]
            while True:  # merge the return edges of ei into P's right
                Q = S.pop()
                if Q[0] is not None:
                    Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
                    if Q[0] is not None:
                        return False
                if lowpt[Q[2]] > low_e:
                    if P[2] is None:
                        P[3] = Q[3]
                    else:
                        ref[P[2]] = Q[3]
                    P[2] = Q[2]
                if (S[-1] if S else None) is bottom[ei]:
                    break
            low_i = lowpt[ei]
            while True:  # merge the conflicting pairs of earlier children
                Q = S[-1]
                if Q[3] is not None and lowpt[Q[3]] > low_i:
                    Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
                    if Q[3] is not None and lowpt[Q[3]] > low_i:
                        return False
                elif Q[1] is None or lowpt[Q[1]] <= low_i:
                    break
                S.pop()
                ref[P[2]] = Q[3]
                if Q[2] is not None:
                    P[2] = Q[2]
                if P[0] is None:
                    P[1] = Q[1]
                else:
                    ref[P[0]] = Q[1]
                P[0] = Q[0]
            if P[0] is not None or P[2] is not None:
                S.append(P)
    return True


def is_planar_with(edges, candidate) -> bool:
    """Whether the accumulated edge set stays planar after one more edge.

    Endpoints may be any hashable labels; self-loops and repeated edges do
    not change the answer.
    """
    index: dict = {}
    pairs = set()
    for u, v, *_ in (*edges, candidate):
        a, b = (index.setdefault(x, len(index)) for x in (u, v))
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    adj: list[list[int]] = [[] for _ in index]
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    return _is_planar(len(index), adj)


def build_pmfg(matrix: DistanceMatrix) -> FilteredGraph:
    """Greedy planar filtering: accept each edge iff the graph stays planar.

    Stops once 3(n-2) edges are accepted, which is the maximal planar edge
    count; the result always contains the MST of the same matrix. Each
    candidate joins the neighbour lists of the accepted graph for one
    planarity test and leaves them again if the test rejects it.
    """
    if matrix.n < 3:
        raise ValueError("PMFG needs at least 3 nodes")
    adj: list[list[int]] = [[] for _ in range(matrix.n)]  # over names

    def stays_planar(u: int, v: int) -> bool:
        adj[u].append(v)
        adj[v].append(u)
        if _is_planar(matrix.n, adj):
            return True
        adj[u].pop()
        adj[v].pop()
        return False

    return _filtered(matrix, "pmfg", 3 * (matrix.n - 2), stays_planar)


# (id, for, attr.name, attr.type) of each GraphML key, in document order
_GRAPHML_KEYS = (
    ("d3", "edge", "insertion_rank", "long"),
    ("d2", "edge", "weight", "double"),
    ("d1", "graph", "source_method", "string"),
    ("d0", "graph", "kind", "string"),
)


def to_graphml(graph: FilteredGraph) -> str:
    """The graph as GraphML: for a graph that ``build_mst`` or ``build_pmfg``
    returns, the bytes networkx's ``write_graphml`` gives for an undirected
    ``networkx.Graph`` of the same nodes, edges and attributes.

    That means networkx's key ids and order, nodes in order, and edges in
    networkx's adjacency order: each edge under its endpoint that comes first
    in ``nodes``, and those of one endpoint by insertion rank. Numbers are
    written with ``str``, and ElementTree escapes and indents by two spaces.
    """
    root = ET.Element("graphml", {
        "xmlns": "http://graphml.graphdrawing.org/xmlns",
        "xmlns:xsi": "http://www.w3.org/2001/XMLSchema-instance",
        "xsi:schemaLocation": "http://graphml.graphdrawing.org/xmlns "
        "http://graphml.graphdrawing.org/xmlns/1.0/graphml.xsd",
    })
    for key_id, scope, name, attr_type in _GRAPHML_KEYS:
        ET.SubElement(root, "key", {
            "id": key_id, "for": scope, "attr.name": name, "attr.type": attr_type
        })
    body = ET.SubElement(root, "graph", edgedefault="undirected")
    for node in graph.nodes:
        ET.SubElement(body, "node", id=node)
    pos = {node: k for k, node in enumerate(graph.nodes)}
    oriented = sorted(
        (pos[u], rank, u, v, w) if pos[u] < pos[v] else (pos[v], rank, v, u, w)
        for rank, (u, v, w) in enumerate(graph.edges)
    )
    for _, rank, source, target, w in oriented:
        edge = ET.SubElement(body, "edge", source=source, target=target)
        ET.SubElement(edge, "data", key="d2").text = str(w)
        ET.SubElement(edge, "data", key="d3").text = str(rank)
    ET.SubElement(body, "data", key="d0").text = graph.kind
    ET.SubElement(body, "data", key="d1").text = graph.source_method
    ET.indent(root)
    # encoding="unicode" would declare the locale's encoding instead
    return ET.tostring(root, encoding="utf-8", xml_declaration=True).decode() + "\n"


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
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


EXPORTERS = {"graphml": to_graphml, "dot": to_dot, "json": to_json}
