import os
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import mirnet
from mirnet import centrality
from mirnet.centrality import (
    CentralityVector,
    compare_centralities,
    markov_centrality,
    mean_first_passage,
    transition_matrix,
)
from mirnet.distance import DistanceMatrix
from mirnet.errors import AlignmentError, ValidationError
from mirnet.graph import FilteredGraph, build_mst, build_pmfg

from oracles import monte_carlo_passage_time, svd_checked_first_passage


def graph_from_edges(nodes, edges, kind="mst"):
    return FilteredGraph(
        kind=kind,
        nodes=tuple(nodes),
        edges=[(u, v, w) for u, v, w in edges],
        source_method="test",
    )


def path_graph(n):
    nodes = [f"N{i}" for i in range(n)]
    return graph_from_edges(nodes, [(nodes[i], nodes[i + 1], 0.5) for i in range(n - 1)])


def cycle_graph(n):
    nodes = [f"N{i}" for i in range(n)]
    edges = [(nodes[i], nodes[(i + 1) % n], 0.5) for i in range(n)]
    return graph_from_edges(nodes, edges, kind="pmfg")


def star_graph(n):
    nodes = ["HUB"] + [f"L{i}" for i in range(n - 1)]
    return graph_from_edges(nodes, [("HUB", leaf, 0.5) for leaf in nodes[1:]])


def random_distances(n, seed):
    rng = np.random.default_rng(seed)
    values = rng.random((n, n))
    values = np.triu(values, 1)
    return DistanceMatrix(tuple(f"T{i:03d}" for i in range(n)), "test", values + values.T)


def stacked_triangulation(n, seed):
    """A maximal planar graph (3(n-2) edges, as a PMFG has): each new node goes
    into a random face of the triangulation and joins its three corners."""
    rng = np.random.default_rng(seed)
    pairs = [(0, 1), (0, 2), (1, 2)]
    faces = [(0, 1, 2), (0, 1, 2)]
    for k in range(3, n):
        a, b, c = faces.pop(int(rng.integers(len(faces))))
        pairs += [(a, k), (b, k), (c, k)]
        faces += [(a, b, k), (a, c, k), (b, c, k)]
    nodes = [f"N{i:03d}" for i in range(n)]
    weights = rng.random(len(pairs)).tolist()
    edges = [(nodes[i], nodes[j], w) for (i, j), w in zip(pairs, weights)]
    return graph_from_edges(nodes, edges, kind="pmfg")


class TestTransitionMatrix:
    def test_path_degree_rule(self):
        P = transition_matrix(path_graph(3))
        # nodes are N0 - N1 - N2
        assert P[1, 0] == P[1, 2] == 0.5
        assert P[0, 1] == 1.0 and P[2, 1] == 1.0

    def test_triangle(self):
        P = transition_matrix(cycle_graph(3))
        off = P[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.5)

    def test_rows_stochastic(self):
        for g in (path_graph(6), cycle_graph(7), star_graph(5)):
            P = transition_matrix(g)
            assert np.allclose(P.sum(axis=1), 1.0)

    def test_weighted_walk_prefers_similar_neighbours(self):
        g = graph_from_edges("ABC", [("A", "B", 0.1), ("A", "C", 0.9)])
        P = transition_matrix(g, weighted=True)
        # similarity 0.9 vs 0.1
        assert P[0, 1] == pytest.approx(0.9)
        assert P[0, 2] == pytest.approx(0.1)

    def test_weighted_walk_on_sqrt_distances_halves_them(self):
        # sqrt distances lie in [0, 2], so the similarity is 1 - d/2
        g = FilteredGraph("mst", ("A", "B", "C"), [("A", "B", 0.2), ("A", "C", 1.8)],
                          "correlation", {"variant": "sqrt"})
        P = transition_matrix(g, weighted=True)
        assert P[0, 1] == pytest.approx(0.9)
        assert P[0, 2] == pytest.approx(0.1)

    def test_disconnected_rejected(self):
        # a node outside the first node's component, a lone node, and a first
        # node without neighbours
        for nodes, edges, culprit in (
            ("ABC", [("A", "B", 0.5)], "C"),
            ("A", [], "A"),
            ("ABC", [("B", "C", 0.5)], "A"),
        ):
            g = FilteredGraph("mst", tuple(nodes), edges, "test")
            with pytest.raises(ValidationError, match=f"disconnected: .* reaches {culprit}$"):
                transition_matrix(g)


class TestMeanFirstPassage:
    def test_two_node_forced_step(self):
        M = mean_first_passage(transition_matrix(path_graph(2)))
        assert M[0, 1] == pytest.approx(1.0)
        assert M[1, 0] == pytest.approx(1.0)

    def test_three_node_path_hand_solved(self):
        # from an endpoint to the far endpoint: M = 4 (two-equation system)
        M = mean_first_passage(transition_matrix(path_graph(3)))
        assert M[0, 2] == pytest.approx(4.0)
        assert M[2, 0] == pytest.approx(4.0)
        assert M[0, 1] == pytest.approx(1.0)

    def test_zero_diagonal(self):
        M = mean_first_passage(transition_matrix(cycle_graph(5)))
        assert np.allclose(np.diag(M), 0.0)

    def test_symmetric_under_automorphism(self):
        M = mean_first_passage(transition_matrix(cycle_graph(6)))
        # rotation invariance: hitting time depends only on ring distance
        for k in range(1, 6):
            vals = [M[i, (i + k) % 6] for i in range(6)]
            assert np.allclose(vals, vals[0])

    def test_monte_carlo_oracle(self):
        graphs = [path_graph(5), cycle_graph(8), star_graph(12)]
        for seed, g in enumerate(graphs):
            P = transition_matrix(g)
            M = mean_first_passage(P)
            n = len(g.nodes)
            start, target = 0, n - 1
            simulated = monte_carlo_passage_time(P, start, target, walks=200_000, seed=seed)
            assert simulated == pytest.approx(M[start, target], rel=0.01)

    # the oracle's SVDs make n = 250 cost several seconds, so one graph has it,
    # and each oracle is checked against one block and, on the graphs of
    # 2 * MIN_TARGETS_PER_THREAD or more nodes, several
    @pytest.mark.parametrize(
        "make, weighted",
        [
            (lambda: build_mst(random_distances(12, 0)), False),
            (lambda: build_mst(random_distances(120, 1)), False),
            (lambda: build_mst(random_distances(250, 2)), True),
            (lambda: build_pmfg(random_distances(30, 3)), False),
            (lambda: build_pmfg(random_distances(30, 4)), True),
            (lambda: stacked_triangulation(120, 5), False),
            (lambda: stacked_triangulation(120, 6), True),
        ],
        ids=["mst12", "mst120", "mst250-weighted", "pmfg30", "pmfg30-weighted",
             "planar120", "planar120-weighted"],
    )
    def test_bit_identical_to_svd_checked_solves(self, make, weighted, monkeypatch):
        g = make()
        P = transition_matrix(g, weighted=weighted)
        expected = svd_checked_first_passage(P)
        for blocks in (1, 2, 3):
            monkeypatch.setattr(centrality, "free_cpus", lambda: blocks)
            assert np.array_equal(mean_first_passage(P), expected), blocks

    @pytest.mark.parametrize("systems", [1, 3])
    @pytest.mark.parametrize(
        "make",
        [lambda: build_mst(random_distances(70, 7)), lambda: stacked_triangulation(40, 8)],
        ids=["mst70", "planar40"],
    )
    def test_same_bits_for_any_batch_size(self, make, systems, monkeypatch):
        P = transition_matrix(make(), weighted=True)
        expected = mean_first_passage(P)
        monkeypatch.setattr(centrality, "BATCH_DOUBLES", systems * len(P) ** 2)
        for blocks in (1, 2):
            monkeypatch.setattr(centrality, "free_cpus", lambda: blocks)
            assert np.array_equal(mean_first_passage(P), expected), blocks

    @pytest.mark.parametrize("bridge, singular", [(1.0, True), (1.0 - 1e-6, False)])
    def test_condition_guard_on_a_weak_bridge(self, bridge, singular):
        # two triangles joined by one edge of weight max(1 - bridge, 1e-12):
        # every node reaches every other, but at distance 1 the hitting times
        # across the bridge pass 1 / MIN_RCOND
        edges = [("A", "B", 0.5), ("B", "C", 0.5), ("A", "C", 0.5),
                 ("D", "E", 0.5), ("E", "F", 0.5), ("D", "F", 0.5), ("C", "D", bridge)]
        P = transition_matrix(graph_from_edges("ABCDEF", edges, kind="pmfg"), weighted=True)
        if singular:
            with pytest.raises(np.linalg.LinAlgError, match="target 0 "):
                mean_first_passage(P)
        else:
            M = mean_first_passage(P)
            assert 1e6 < M.max() < 1.0 / centrality.MIN_RCOND
            np.testing.assert_allclose(M, svd_checked_first_passage(P), rtol=1e-6)

    def test_guard_is_the_infinity_norm_condition_number(self, monkeypatch):
        # the guard's bound placed just above and just below the largest
        # condition number that numpy computes from each inverse
        P = transition_matrix(stacked_triangulation(30, 9), weighted=True)
        conds = []
        for v in range(len(P)):
            a = np.eye(len(P)) - P
            a[v] = 0.0
            a[v, v] = 1.0
            conds.append(np.linalg.cond(a, np.inf))
        worst = int(np.argmax(conds))
        monkeypatch.setattr(centrality, "MIN_RCOND", 1.0 / (conds[worst] * (1 + 1e-9)))
        mean_first_passage(P)
        monkeypatch.setattr(centrality, "MIN_RCOND", 1.0 / (conds[worst] * (1 - 1e-9)))
        with pytest.raises(np.linalg.LinAlgError, match=f"target {worst} "):
            mean_first_passage(P)

    def test_lowest_unreachable_target_named(self):
        # 0 and 1 step to each other, 2 steps to 0: every node reaches 0 and
        # 1, and no node reaches 2
        P = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError, match="target 2 cannot be reached from node 0"):
            mean_first_passage(P)

    def test_two_disjoint_edges_rejected(self):
        # the walk on the edges A-B and C-D: every node has a step, but no
        # walk crosses between the two components
        P = np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError, match="target 0"):
            mean_first_passage(P)

    @pytest.mark.parametrize("blocks", [2, 4])
    def test_lowest_ill_conditioned_target_named_across_blocks(self, blocks, monkeypatch):
        # one path, long enough to be split, whose first 70 edges weigh 1 and
        # the rest 1e-4, joined at 70 by a bridge of weight 1e-12: every node
        # reaches every target, but the walk from the heavy half takes about
        # 1e14 steps to cross, so targets 70 and up pass 1 / MIN_RCOND
        # (condition numbers near 3e14) while those below stay near 2e10;
        # target 70 lies inside a later block, which may fail first
        n = 4 * centrality.MIN_TARGETS_PER_THREAD
        heavy = 70
        nodes = [f"N{i:03d}" for i in range(n)]
        edges = [(nodes[i - 1], nodes[i], 0.0 if i < heavy else 1.0 - 1e-4)
                 for i in range(1, n) if i != heavy]
        edges.append((nodes[heavy - 1], nodes[heavy], 1.0))
        P = transition_matrix(graph_from_edges(nodes, edges, kind="pmfg"), weighted=True)
        monkeypatch.setattr(centrality, "free_cpus", lambda: blocks)
        with pytest.raises(np.linalg.LinAlgError) as error:
            mean_first_passage(P)
        message = str(error.value)
        assert "cannot be reached" not in message
        assert message.startswith(f"first-passage system for target {heavy} is ill-conditioned")

    @pytest.mark.parametrize("n, cpus, threads", [
        (63, 4, 1),
        (64, 4, 2),
        (250, 64, 7),
        (250, 1, 1),
    ])
    def test_each_thread_gets_min_targets(self, n, cpus, threads, monkeypatch):
        started = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, workers):
                started.append(workers)
                super().__init__(workers)

        monkeypatch.setattr(centrality, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(centrality, "free_cpus", lambda: cpus)
        mean_first_passage(transition_matrix(path_graph(n)))
        # block 0 runs in the calling thread: one executor for the other
        # blocks, none for a single block
        assert started == ([threads - 1] if threads > 1 else [])


class TestFreeCpus:
    """The usable CPUs with one BLAS thread, read as OpenBLAS reads it, and one
    CPU otherwise."""

    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        for var in centrality.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)

    @pytest.mark.parametrize(
        "env, expected",
        [
            ({}, 1),
            ({"OPENBLAS_NUM_THREADS": "1"}, 4),
            ({"GOTO_NUM_THREADS": "1"}, 4),
            ({"OMP_NUM_THREADS": "1"}, 4),
            ({"OMP_NUM_THREADS": "2"}, 1),
            ({"OPENBLAS_NUM_THREADS": "8"}, 1),
            ({"OPENBLAS_NUM_THREADS": "0"}, 1),
            ({"OPENBLAS_NUM_THREADS": "two"}, 1),
            ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 4),
            ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 4),
            ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 4),
            ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
        ],
    )
    def test_rule(self, env, expected, monkeypatch):
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert centrality.free_cpus() == expected
        assert centrality.usable_cpus() == 4


class TestMarkovCentrality:
    def test_star_hub_dominates(self):
        cv = markov_centrality(star_graph(8))
        assert cv.tickers[0] == "HUB"
        assert cv.scores[0] > cv.scores[1:].max()

    def test_path_midpoint_most_central(self):
        cv = markov_centrality(path_graph(3))
        assert cv.scores[1] > cv.scores[0]
        assert cv.scores[0] == pytest.approx(cv.scores[2])

    def test_cycle_scores_equal(self):
        cv = markov_centrality(cycle_graph(7))
        assert np.allclose(cv.scores, cv.scores[0])

    def test_scores_positive_and_normalizable(self):
        cv = markov_centrality(path_graph(9))
        assert np.all(cv.scores > 0)
        assert cv.normalized().sum() == pytest.approx(1.0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        nodes = ["A", "B", "C", "D", "E"]
        edges = [("A", "B", 0.2), ("B", "C", 0.4), ("C", "D", 0.1),
                 ("D", "E", 0.3), ("B", "E", 0.25)]
        g = graph_from_edges(nodes, edges)
        perm = list(rng.permutation(nodes))
        g2 = FilteredGraph("mst", tuple(perm), g.edges, "test")
        cv1 = markov_centrality(g)
        cv2 = markov_centrality(g2)
        by_ticker_1 = dict(zip(cv1.tickers, cv1.scores))
        by_ticker_2 = dict(zip(cv2.tickers, cv2.scores))
        for t in nodes:
            assert by_ticker_1[t] == pytest.approx(by_ticker_2[t], abs=1e-12)


class TestMarkovChainIdentities:
    @pytest.mark.parametrize("make", [path_graph, cycle_graph, star_graph])
    def test_return_time_is_inverse_stationary(self, make):
        g = make(7)
        P = transition_matrix(g)
        M = mean_first_passage(P)
        deg = np.array([sum(1 for u, v, _ in g.edges if t in (u, v)) for t in g.nodes])
        pi = deg / deg.sum()  # deg(v) / 2|E|
        return_time = 1.0 + P @ M  # diagonal: expected return time to v
        assert np.allclose(np.diag(return_time), 1.0 / pi, atol=1e-8)


# a few shared values make exact ties, and constant vectors are drawn directly
SCORE_VALUES = st.one_of(
    st.sampled_from([0.5, 1.0, 2.0]), st.floats(-1e3, 1e3, allow_nan=False)
)


@st.composite
def score_pairs(draw):
    n = draw(st.integers(2, 30))
    vector = st.one_of(
        st.lists(SCORE_VALUES, min_size=n, max_size=n),
        SCORE_VALUES.map(lambda v: [v] * n),
    )
    return np.array(draw(vector)), np.array(draw(vector))


class TestCompareCentralities:
    @settings(max_examples=300, deadline=None)
    @given(score_pairs())
    def test_spearman_equals_scipy(self, pair):
        a, b = pair
        tickers = tuple(f"T{i}" for i in range(len(a)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ours = compare_centralities(
                CentralityVector(tickers, a, "a"), CentralityVector(tickers, b, "b")
            )["spearman"]
            expected = scipy.stats.spearmanr(a, b).statistic
        if np.isnan(expected):
            assert np.isnan(ours)
        else:
            assert abs(ours - expected) <= 1e-12

    def test_import_leaves_out_scipy(self):
        src = str(Path(mirnet.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys, mirnet; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "[]"

    def test_self_comparison(self):
        cv = markov_centrality(path_graph(6))
        report = compare_centralities(cv, cv)
        assert report["pearson"] == pytest.approx(1.0)
        assert report["spearman"] == pytest.approx(1.0)

    def test_reversed_linear_ranking(self):
        from mirnet.centrality import CentralityVector

        a = CentralityVector(("A", "B", "C", "D"), np.array([1.0, 2, 3, 4]), "a")
        b = CentralityVector(("A", "B", "C", "D"), np.array([4.0, 3, 2, 1]), "b")
        report = compare_centralities(a, b)
        assert report["pearson"] == pytest.approx(-1.0)
        assert report["spearman"] == pytest.approx(-1.0)

    def test_ticker_mismatch(self):
        from mirnet.centrality import CentralityVector

        a = CentralityVector(("A", "B"), np.array([1.0, 2]), "a")
        b = CentralityVector(("A", "C"), np.array([1.0, 2]), "b")
        with pytest.raises(AlignmentError):
            compare_centralities(a, b)
