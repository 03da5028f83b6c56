"""Markov centrality via mean first-passage times of a random walk."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, ValidationError
from .graph import FilteredGraph

# first-passage systems at or below this reciprocal infinity-norm condition
# number are treated as singular
MIN_RCOND = 1e-12

# the most doubles of pinned systems one stacked solve holds (4 MB, 8 systems
# at n = 250): batches of 32 at n = 250 raised a correlation run's peak memory
# by 30-45 MB, and one system a call doubled the solve time
BATCH_DOUBLES = 2**19

# where OpenBLAS, the BLAS of numpy's wheels, reads its thread count at load:
# the first positive integer among them, every usable CPU when none is set
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# fewer targets than this per thread cost more than they save: with one BLAS
# thread on 2 cores, two blocks took 1.2-1.9x the time of one at n = 40-48,
# 0.8-0.9x at n = 56-72 and 0.5x at n = 250
MIN_TARGETS_PER_THREAD = 32


@dataclass
class CentralityVector:
    """Markov centrality score per node; higher means more central."""

    tickers: tuple[str, ...]
    scores: np.ndarray
    graph_ref: str

    def normalized(self) -> np.ndarray:
        """Scores rescaled to sum to one (the layout of published tables)."""
        return self.scores / self.scores.sum()

    def to_delimited(self) -> str:
        lines = ["vertex,score,normalized"]
        norm = self.normalized()
        for t, s, ns in zip(self.tickers, self.scores, norm):
            lines.append(f"{t},{s:.10g},{ns:.10g}")
        return "\n".join(lines) + "\n"


def transition_matrix(graph: FilteredGraph, weighted: bool = False) -> np.ndarray:
    """Row-stochastic random-walk matrix of a connected filtered graph.

    Unweighted: uniform over neighbours. Weighted: proportional to the
    similarity 1 - distance / bound of each incident edge, where the bound
    is 2 for ``sqrt`` correlation distances and 1 for every other family. A
    disconnected graph, a lone node included, raises ``ValidationError``
    naming a node that the walk from the first node never reaches.
    """
    n = graph.n
    index = {t: i for i, t in enumerate(graph.nodes)}
    w = np.zeros((n, n), dtype=float)
    bound = 2.0 if graph.params.get("variant") == "sqrt" else 1.0
    for u, v, dist in graph.edges:
        i, j = index[u], index[v]
        weight = max(1.0 - dist / bound, 1e-12) if weighted else 1.0
        w[i, j] = w[j, i] = weight
    row_sums = w.sum(axis=1)
    # the first node itself counts as reached only if it has a neighbour
    stranded = ~_reaching(w > 0, 0) | (row_sums == 0)
    if stranded.any():
        raise ValidationError(
            f"graph is disconnected: the walk from {graph.nodes[0]} never "
            f"reaches {graph.nodes[stranded.argmax()]}"
        )
    return w / row_sums[:, None]


def usable_cpus() -> int:
    """CPUs this process may run on (1 where the platform cannot tell)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def free_cpus() -> int:
    """CPUs for the first-passage solves: the usable CPUs when BLAS runs one
    thread, else 1, in every process alike (a combination lane included).

    The BLAS thread count is the first positive integer among
    ``BLAS_THREAD_VARS``; with none set, BLAS takes every usable CPU. Only
    one BLAS thread was measured to gain from threads over the targets;
    unpinned, concurrent threaded getrf calls made the solves 2x slower.
    """
    for var in BLAS_THREAD_VARS:
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return usable_cpus() if threads == 1 else 1
    return 1


def mean_first_passage(P: np.ndarray) -> np.ndarray:
    """Matrix M with M[s, v] = expected steps of the walk from s to v.

    Column v solves A_v m = 1 - e_v, where A_v is I - P with row v pinned to
    e_v (so m[v] = 0): one LU factorization with partial pivoting per target
    (LAPACK gesv, through ``np.linalg.solve``), the pinned systems stacked in
    batches of at most ``BATCH_DOUBLES`` doubles.

    Two exact checks guard the solves, each raising ``LinAlgError`` that names
    the lowest failing target. Before any solve, every node must reach every
    target along the entries P > 0. After it, when every node reaches v,
    A_v^-1 >= 0 and A_v^-1 1 = M[:, v] + 1, so the infinity-norm condition
    number of A_v is exactly ||A_v|| (1 + max_s M[s, v]); at or above
    1 / ``MIN_RCOND`` the system counts as singular.

    The targets are split into contiguous blocks over ``free_cpus()``
    threads, with at least ``MIN_TARGETS_PER_THREAD`` targets each (LAPACK
    releases the GIL): block 0 in the calling thread, the others mapped over
    an executor. Each column gets the same calls, and so the same bits,
    whatever the block count and the batch size.
    """
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    _check_reachable(P > 0)
    M = np.empty((n, n), dtype=float)
    system = np.eye(n) - P
    per_batch = max(1, BATCH_DOUBLES // max(n * n, 1))

    def solve(targets) -> None:
        """Fill M's columns for ``targets``, ``per_batch`` systems at a time."""
        work = np.empty((min(per_batch, len(targets)), n, n))
        for start in range(0, len(targets), per_batch):
            batch = targets[start:start + per_batch]
            k = np.arange(len(batch))
            a = work[:len(batch)]
            a[...] = system
            a[k, batch, :] = 0.0
            a[k, batch, batch] = 1.0
            b = np.ones((len(batch), n, 1))
            b[k, batch] = 0.0
            M[:, batch] = np.linalg.solve(a, b)[:, :, 0].T

    threads = max(1, min(free_cpus(), n // MIN_TARGETS_PER_THREAD))
    blocks = np.array_split(np.arange(n), threads)
    if threads == 1:
        solve(blocks[0])
    else:
        # block 0 stays in this thread: each executor thread mallocs from an
        # arena of its own, and one more raised the peak RSS of a 250-node
        # correlation run from 93 to 100 MB (one BLAS thread, 2 cores)
        with ThreadPoolExecutor(threads - 1) as pool:
            rest = pool.map(solve, blocks[1:])
            solve(blocks[0])
            list(rest)

    # ||A_v|| is the largest absolute row sum of I - P outside row v, or 1
    row_norms = np.abs(system).sum(axis=1)
    outside = np.where(np.eye(n, dtype=bool), 0.0, row_norms[:, None])
    norms = outside.max(axis=0, initial=1.0)
    cond = norms * (1.0 + M.max(axis=0, initial=0.0))
    singular = ~(cond < 1.0 / MIN_RCOND)
    if singular.any():
        v = int(singular.argmax())
        raise np.linalg.LinAlgError(
            f"first-passage system for target {v} is ill-conditioned "
            f"(reciprocal condition number {1.0 / cond[v]:.3g})"
        )
    return M


def _check_reachable(step: np.ndarray) -> None:
    """Raise ``LinAlgError`` naming the lowest target v, and a node, such
    that the node has no path to v along ``step`` (step[s, t]: s -> t)."""
    for v in range(len(step)):
        reach = _reaching(step, v)
        if not reach.all():
            s = int(reach.argmin())
            raise np.linalg.LinAlgError(
                f"first-passage target {v} cannot be reached from node {s}"
            )
        if v == 0 and _reaching(step.T, 0).all():
            return  # every node reaches 0 and 0 reaches every node


def _reaching(step: np.ndarray, v: int) -> np.ndarray:
    """Mask of the nodes with a path to ``v`` along ``step``."""
    seen = np.zeros(len(step), dtype=bool)
    seen[v] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = step[:, frontier].any(axis=1) & ~seen
        seen |= frontier
    return seen


def markov_centrality(graph: FilteredGraph, weighted: bool = False) -> CentralityVector:
    """Inverse mean hitting time: score(v) = n / sum_s M[s, v]."""
    P = transition_matrix(graph, weighted=weighted)
    M = mean_first_passage(P)
    n = graph.n
    scores = n / M.sum(axis=0)
    ref = f"{graph.kind}:{graph.source_method}"
    alpha = graph.params.get("alphabet_size")
    if alpha is not None:
        ref += f":a{alpha}"
    return CentralityVector(tickers=graph.nodes, scores=scores, graph_ref=ref)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n; exactly equal values share the mean of their ranks."""
    _, group, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[group]


def compare_centralities(a: CentralityVector, b: CentralityVector) -> dict:
    """Pearson and Spearman correlation between two score vectors; Spearman
    ranks exact ties by their average rank, as ``scipy.stats.spearmanr`` does."""
    if a.tickers != b.tickers:
        raise AlignmentError(
            f"ticker sets differ: {a.tickers} vs {b.tickers}"
        )
    pearson_r = float(np.corrcoef(a.scores, b.scores)[0, 1])
    # ranks as columns and the [1, 0] entry, as spearmanr does: the same bits
    ranks = np.column_stack([_average_ranks(v.scores) for v in (a, b)])
    spearman_r = float(np.corrcoef(ranks, rowvar=False)[1, 0])
    return {
        "a": a.graph_ref,
        "b": b.graph_ref,
        "pearson": pearson_r,
        "spearman": spearman_r,
        "n": len(a.tickers),
    }
