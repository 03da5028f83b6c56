"""Markov centrality via mean first-passage times of a random walk."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import AlignmentError
from .graph import FilteredGraph

# first-passage systems at or below this reciprocal 1-norm condition number
# are treated as singular
MIN_RCOND = 1e-12

# where OpenBLAS, the BLAS of scipy's wheels, reads its thread count at load:
# the first positive integer among them, every usable CPU when none is set
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# fewer targets than this per thread cost more than they save: with one BLAS
# thread on 2 cores, two blocks took 1.2-1.9x the time of one at n = 40-48,
# 0.8-0.9x at n = 56-72 and 0.5x at n = 250
MIN_TARGETS_PER_THREAD = 32

# processes that share the usable CPUs for their solves (``share_cpus``)
_cpu_sharers = 1


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
    similarity 1 - distance of each incident edge.
    """
    n = graph.n
    index = {t: i for i, t in enumerate(graph.nodes)}
    w = np.zeros((n, n), dtype=float)
    for u, v, dist in graph.edges:
        i, j = index[u], index[v]
        weight = max(1.0 - dist, 1e-12) if weighted else 1.0
        w[i, j] = w[j, i] = weight
    row_sums = w.sum(axis=1)
    if np.any(row_sums == 0):
        isolated = [graph.nodes[i] for i in np.flatnonzero(row_sums == 0)]
        raise ValueError(f"graph is disconnected; isolated nodes: {isolated}")
    return w / row_sums[:, None]


def usable_cpus() -> int:
    """CPUs this process may run on (1 where the platform cannot tell)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def share_cpus(processes: int) -> None:
    """Give this process's solves 1/``processes`` of the usable CPUs, as each
    of ``processes`` pool workers should."""
    global _cpu_sharers
    _cpu_sharers = processes


def free_cpus() -> int:
    """CPUs for this process's first-passage solves: its share of the usable
    CPUs when BLAS runs one thread, else 1.

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
            return max(1, usable_cpus() // _cpu_sharers) if threads == 1 else 1
    return 1


def mean_first_passage(P: np.ndarray) -> np.ndarray:
    """Matrix M with M[s, v] = expected steps of the walk from s to v.

    Column v solves (I - P) m = 1 with the row for v pinned to m[v] = 0,
    through one LU factorization per target (LAPACK getrf/getrs, the routines
    behind ``scipy.linalg.solve``). The 1-norm condition estimate of that LU
    (gecon) guards each solve: a reciprocal condition number at or below
    ``MIN_RCOND``, as a walk that cannot reach the target gives, raises
    ``LinAlgError`` naming the lowest such target.

    The targets are split into contiguous blocks over ``free_cpus()`` threads,
    with at least ``MIN_TARGETS_PER_THREAD`` targets each (the LAPACK calls
    release the GIL); each column gets the same calls, and so the same bits,
    whatever the block count.
    """
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    M = np.zeros((n, n), dtype=float)
    system = np.asfortranarray(np.eye(n) - P)
    # pinning a target's row changes one entry per column, so gecon's 1-norm
    # of each pinned system follows from these column sums in O(n)
    col_norms = np.abs(system).sum(axis=0)

    def solve(targets) -> tuple[int, float] | None:
        """Fill M's columns for ``targets``; the first ill-conditioned target
        and its reciprocal condition number, or None."""
        # Fortran order, so getrf factorizes in place; b is overwritten by getrs
        a = np.empty((n, n), order="F")
        b = np.empty((n, 1))
        for v in targets:
            a[...] = system
            a[v, :] = 0.0
            a[v, v] = 1.0
            b[...] = 1.0
            b[v] = 0.0
            norms = col_norms - np.abs(system[v])
            norms[v] += 1.0
            lu, piv, info = lapack.dgetrf(a, overwrite_a=1)
            # info > 0 is an exactly zero pivot; gecon needs a nonsingular LU
            rcond = 0.0 if info else lapack.dgecon(lu, norms.max())[0]
            if not rcond > MIN_RCOND:
                return v, rcond
            M[:, v] = lapack.dgetrs(lu, piv, b, overwrite_b=1)[0][:, 0]
        return None

    threads = max(1, min(free_cpus(), n // MIN_TARGETS_PER_THREAD))
    blocks = np.array_split(np.arange(n), threads)
    if len(blocks) == 1:
        failures = [solve(blocks[0])]
    else:
        with ThreadPoolExecutor(len(blocks) - 1) as pool:
            futures = [pool.submit(solve, block) for block in blocks[1:]]
            failures = [solve(blocks[0])] + [f.result() for f in futures]
    for failure in failures:
        if failure is not None:
            v, rcond = failure
            raise np.linalg.LinAlgError(
                f"first-passage system for target {v} is ill-conditioned "
                f"(reciprocal condition number {rcond:.3g})"
            )
    return M


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
