"""Independent slow oracles used to cross-check the production algorithms.

Everything here is deliberately naive (quadratic scans, exhaustive
enumeration, simulation) or is the library-based code that a faster
implementation replaced. None of it shares code with the package beyond its
data and error classes.
"""

from __future__ import annotations

import csv
import io
import itertools
import math

import networkx as nx
import numpy as np

from mirnet.errors import FormatError, InsufficientDataError, ValidationError
from mirnet.ingest import PriceSeries


def oracle_load_price_table(path, *, delimiter=",", date_column="date"):
    """The row loop ``load_price_table`` replaced: ``csv.reader`` and ``float``.

    Rows with a blank price are dropped silently; the calendar order is
    checked here, before any ``PriceSeries`` is built, with the message the
    first series used to raise.
    """
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh, delimiter=delimiter))
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise FormatError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    repeated = sorted({c for c in header if header.count(c) > 1})
    if repeated:
        raise FormatError(f"{path}: repeated column names {repeated}")
    if date_column not in header:
        raise FormatError(
            f"{path}: header has no '{date_column}' column (columns: {header})"
        )
    date_idx = header.index(date_column)
    tickers = [c for i, c in enumerate(header) if i != date_idx]
    if not tickers:
        raise FormatError(f"{path}: no ticker columns besides '{date_column}'")

    dates: list[str] = []
    columns: dict[str, list[float]] = {t: [] for t in tickers}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise FormatError(
                f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
            )
        cells = [c.strip() for c in row]
        if any(i != date_idx and not c for i, c in enumerate(cells)):
            continue
        date = cells[date_idx]
        values = {}
        for i, cell in enumerate(cells):
            if i == date_idx:
                continue
            try:
                value = float(cell)
            except ValueError as exc:
                raise FormatError(
                    f"{path}:{lineno}: unparseable price {cell!r} for {header[i]}"
                ) from exc
            if not math.isfinite(value) or value <= 0:
                raise ValidationError(
                    f"non-positive price {cell} for ticker {header[i]} on {date}"
                )
            values[header[i]] = value
        dates.append(date)
        for t in tickers:
            columns[t].append(values[t])

    if len(dates) < 2:
        raise InsufficientDataError(
            f"{path}: only {len(dates)} usable rows after alignment (need >= 2)"
        )
    if any(a >= b for a, b in zip(dates, dates[1:])):
        raise ValidationError(f"{tickers[0]}: dates not strictly increasing")
    calendar = tuple(dates)
    return [
        PriceSeries(ticker=t, dates=calendar, prices=np.asarray(columns[t]))
        for t in tickers
    ]


def brute_match_lengths(seq) -> list[int]:
    """Quadratic scan over all prior starting positions."""
    s = list(seq)
    n = len(s)
    lam = [1] * n
    for i in range(1, n):
        best = 0
        for j in range(i):
            length = 0
            while i + length < n and s[j + length] == s[i + length]:
                length += 1
            best = max(best, length)
        lam[i] = 1 + best
    return lam


def per_cell_delimited(matrix, delimiter=",") -> str:
    """The writer ``DistanceMatrix.to_delimited`` replaced: every cell's own
    ``repr``, row by row."""
    lines = [delimiter.join(["", *matrix.tickers])]
    for t, row in zip(matrix.tickers, matrix.values.tolist()):
        lines.append(delimiter.join([t, *map(repr, row)]))
    return "\n".join(lines) + "\n"


def sorted_pair_edges(tickers, values) -> list[tuple[str, str, float]]:
    """Every pair as (min ticker, max ticker, distance), sorted as tuples."""
    n = len(tickers)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            u, v = sorted((tickers[i], tickers[j]))
            edges.append((u, v, float(values[i][j])))
    edges.sort(key=lambda e: (e[2], e[0], e[1]))
    return edges


def kruskal_edges(tickers, values) -> list[tuple[str, str, float]]:
    """Kruskal over ``sorted_pair_edges``: a pair is kept iff its endpoints
    lie in different components, which are relabelled in full on each merge,
    until n-1 pairs are kept."""
    component = {t: t for t in tickers}
    accepted = []
    for u, v, w in sorted_pair_edges(tickers, values):
        if len(accepted) == len(tickers) - 1:
            break
        old, new = component[u], component[v]
        if old == new:
            continue
        for t in tickers:
            if component[t] == old:
                component[t] = new
        accepted.append((u, v, w))
    return accepted


def networkx_pmfg_edges(tickers, values) -> list[tuple[str, str, float]]:
    """The greedy PMFG loop on networkx's planarity test.

    Each pair, in ``sorted_pair_edges`` order, joins an ``nx.Graph`` and is
    kept iff ``nx.check_planarity`` still accepts the graph, until 3(n-2)
    edges are kept.
    """
    target = 3 * (len(tickers) - 2)
    accepted = []
    g = nx.Graph()
    g.add_nodes_from(tickers)
    for u, v, w in sorted_pair_edges(tickers, values):
        g.add_edge(u, v)
        if not nx.check_planarity(g)[0]:
            g.remove_edge(u, v)
            continue
        accepted.append((u, v, w))
        if len(accepted) == target:
            break
    return accepted


def to_networkx(graph) -> nx.Graph:
    """A ``FilteredGraph`` as an ``nx.Graph``: graph attributes ``kind`` and
    ``source_method``, the nodes in order, and the edges in insertion order,
    each with its ``weight`` and ``insertion_rank``."""
    g = nx.Graph(kind=graph.kind, source_method=graph.source_method)
    g.add_nodes_from(graph.nodes)
    for rank, (u, v, w) in enumerate(graph.edges):
        g.add_edge(u, v, weight=w, insertion_rank=rank)
    return g


def networkx_graphml(graph) -> bytes:
    """What networkx's ElementTree GraphML writer makes of ``to_networkx``.

    ``nx.write_graphml`` is this writer unless lxml is installed, when it
    switches to an lxml writer whose whitespace differs.
    """
    buf = io.BytesIO()
    nx.write_graphml_xml(to_networkx(graph), buf)
    return buf.getvalue()


def min_spanning_tree_weight(weights: np.ndarray) -> float:
    """Exhaustive minimum over all spanning trees (n <= 8)."""
    n = weights.shape[0]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    best = np.inf
    for combo in itertools.combinations(edges, n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        merged = 0
        for u, v in combo:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                merged += 1
        if merged == n - 1:
            total = sum(weights[u, v] for u, v in combo)
            best = min(best, total)
    return float(best)


def _connected_subsets(nodes, adj) -> list[frozenset]:
    """All subsets of nodes that induce a connected subgraph."""
    nodes = list(nodes)
    out = []
    for r in range(1, len(nodes) + 1):
        for combo in itertools.combinations(nodes, r):
            block = set(combo)
            stack = [combo[0]]
            seen = {combo[0]}
            while stack:
                u = stack.pop()
                for w in adj[u] & block - seen:
                    seen.add(w)
                    stack.append(w)
            if seen == block:
                out.append(frozenset(block))
    return out


def _blocks_adjacent(a, b, adj) -> bool:
    return any(adj[u] & b for u in a)


def _find_disjoint_blocks(candidates, k, requirement, chosen=()):
    """Depth-first search for k pairwise-disjoint connected blocks whose
    mutual adjacency satisfies the requirement predicate."""
    if len(chosen) == k:
        return requirement(chosen)
    used = set().union(*chosen) if chosen else set()
    for idx, block in enumerate(candidates):
        if block & used:
            continue
        if _find_disjoint_blocks(candidates[idx + 1 :], k, requirement, chosen + (block,)):
            return True
    return False


def is_planar_slow(nodes, edges) -> bool:
    """Planarity via the forbidden-minor characterization.

    Euler bound e <= 3v - 6 as a prefilter, then exhaustive search for a
    K5 or K3,3 minor over connected branch sets. Only usable for tiny
    graphs (<= 9 nodes).
    """
    nodes = list(nodes)
    edges = [tuple(e) for e in edges]
    v, e = len(nodes), len(edges)
    if v >= 3 and e > 3 * v - 6:
        return False
    if v < 5:
        return True
    adj = {u: set() for u in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    candidates = _connected_subsets(nodes, adj)

    def k5_requirement(blocks):
        return all(
            _blocks_adjacent(a, b, adj) for a, b in itertools.combinations(blocks, 2)
        )

    if _find_disjoint_blocks(candidates, 5, k5_requirement):
        return False

    def k33_requirement(blocks):
        for side in itertools.combinations(range(6), 3):
            left = [blocks[i] for i in side]
            right = [blocks[i] for i in range(6) if i not in side]
            if all(_blocks_adjacent(a, b, adj) for a in left for b in right):
                return True
        return False

    if v >= 6 and _find_disjoint_blocks(candidates, 6, k33_requirement):
        return False
    return True


def monte_carlo_passage_time(
    P: np.ndarray, start: int, target: int, walks: int, seed: int, max_steps: int = 100000
) -> float:
    """Mean number of steps from start to target over simulated walks."""
    rng = np.random.default_rng(seed)
    n = P.shape[0]
    cum = np.cumsum(P, axis=1)
    position = np.full(walks, start, dtype=np.int64)
    steps = np.zeros(walks, dtype=np.int64)
    active = position != target
    t = 0
    while active.any():
        t += 1
        if t > max_steps:
            raise RuntimeError("walker did not absorb; chain may be reducible")
        draws = rng.random(int(active.sum()))
        position[active] = np.argmax(draws[:, None] < cum[position[active]], axis=1)
        steps[active] += 1
        active = position != target
    return float(steps.mean())


def svd_checked_first_passage(P: np.ndarray) -> np.ndarray:
    """Mean first-passage matrix, one dense solve per target.

    Column v solves (I - P) m = 1 with the row for v pinned to m[v] = 0, each
    system checked first by its 2-norm condition number from a full SVD.
    """
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    M = np.zeros((n, n), dtype=float)
    identity = np.eye(n)
    for v in range(n):
        a = identity - P
        a[v, :] = 0.0
        a[v, v] = 1.0
        b = np.ones(n)
        b[v] = 0.0
        cond = np.linalg.cond(a)
        if not np.isfinite(cond) or cond > 1e12:
            raise np.linalg.LinAlgError(
                f"first-passage system for target {v} is ill-conditioned "
                f"(condition number {cond:.3g})"
            )
        M[:, v] = np.linalg.solve(a, b)
    return M
