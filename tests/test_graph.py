import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirnet.distance import DistanceMatrix
from mirnet.errors import ValidationError
from mirnet.graph import (
    _is_planar,
    build_mst,
    build_pmfg,
    is_planar_with,
    ordered_edges,
    to_dot,
    to_graphml,
    to_json,
)

from oracles import (
    is_planar_slow,
    kruskal_edges,
    min_spanning_tree_weight,
    networkx_graphml,
    networkx_pmfg_edges,
    sorted_pair_edges,
    to_networkx,
)


def examples(count):
    """``count``, or the loaded profile's ``max_examples`` where that is more:
    ``--hypothesis-profile=ci`` (tests/conftest.py) raises what a test asks for."""
    return max(count, settings.default.max_examples)


def matrix_from(tickers, values, method="correlation"):
    return DistanceMatrix(tickers=tuple(tickers), method=method, values=np.asarray(values, float))


@st.composite
def tied_matrices(draw, min_n=2, max_n=16, unique=False, levels=(0.1, 0.5, 0.9)):
    """Matrices whose distances come from three ``levels``, so ties are common;
    tickers do not sort in index order and, unless unique, may repeat."""
    n = draw(st.integers(min_n, max_n))
    pool = ["A", "AA", "B", "Z", "a", "b10", "b2", "\u00e9"] + [f"T{k}" for k in range(max_n)]
    tickers = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n, unique=unique))
    upper = draw(
        st.lists(st.sampled_from(levels), min_size=n * (n - 1) // 2,
                 max_size=n * (n - 1) // 2)
    )
    values = np.zeros((n, n))
    values[np.triu_indices(n, 1)] = upper
    return matrix_from(tickers, values + values.T)


@st.composite
def exported_graphs(draw):
    """MSTs and PMFGs on 3 to 14 nodes whose tickers hold XML-special,
    non-ASCII, padding and control characters, in an order that is neither
    sorted nor the order of the distances."""
    n = draw(st.integers(3, 14))
    pool = ["A&B", "<T>", 'q"q', "it's", "]]>", "\u00e9t\u00e9", "\u03a9\u4e2d",
            " pad ", "a\tb", "x\ny", "T\r"] + [f"T{k}" for k in range(n)]
    tickers = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n, unique=True))
    distance = st.floats(0, 1) | st.sampled_from([0.1, 0.5, 1e-300, 1 / 3])
    upper = draw(
        st.lists(distance, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
    )
    values = np.zeros((n, n))
    values[np.triu_indices(n, 1)] = upper
    method = draw(st.sampled_from(["correlation", "mir"]))
    build = draw(st.sampled_from([build_mst, build_pmfg]))
    return build(matrix_from(tickers, values + values.T, method=method))


@st.composite
def small_graphs(draw):
    """Edge lists on 2 to 9 nodes, each pair at most once, in drawn order."""
    n = draw(st.integers(2, 9))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True))
    return list(range(n)), edges


def triangulation(n, rnd):
    """A maximal planar graph on 0..n-1 (n >= 3): a triangle, then each new
    node stacked into a random face."""
    g = nx.Graph([(0, 1), (0, 2), (1, 2)])
    faces = [(0, 1, 2), (0, 1, 2)]
    for k in range(3, n):
        a, b, c = faces.pop(rnd.randrange(len(faces)))
        g.add_edges_from([(a, k), (b, k), (c, k)])
        faces += [(a, b, k), (a, c, k), (b, c, k)]
    return g


@st.composite
def neighbour_lists(draw):
    """``(g, adj)``: a graph of one to three parts, each a G(n, p),
    a tree, a maximal planar graph less a few edges, or isolated vertices,
    with its vertices numbered in random order; ``adj`` holds its neighbour
    lists, each shuffled, then a candidate edge, which ``g`` holds too,
    appended last to both of its endpoints' lists, as ``build_pmfg`` does."""
    rnd = draw(st.randoms(use_true_random=False))
    g = nx.Graph()
    for _ in range(draw(st.integers(1, 3))):
        n = rnd.randint(1, 30)
        shape = rnd.choice(["gnp", "tree", "triangulation", "isolated"])
        if shape == "gnp":
            part = nx.gnp_random_graph(n, rnd.choice([0.1, 0.2, 0.4]), seed=rnd.randrange(2**31))
        elif shape == "tree":
            part = nx.random_labeled_tree(n, seed=rnd.randrange(2**31))
        elif shape == "triangulation" and n >= 3:
            part = triangulation(n, rnd)
            part.remove_edges_from(rnd.sample(list(part.edges), rnd.randrange(4)))
        else:
            part = nx.empty_graph(n)
        g = nx.disjoint_union(g, part)
    number = list(range(len(g)))
    rnd.shuffle(number)
    g = nx.relabel_nodes(g, dict(enumerate(number)))
    pairs = [(a, b) for a, b in itertools.combinations(range(len(g)), 2) if not g.has_edge(a, b)]
    adj = [list(g[v]) for v in range(len(g))]
    for nbrs in adj:
        rnd.shuffle(nbrs)
    if pairs:
        a, b = rnd.choice(pairs)
        adj[a].append(b)
        adj[b].append(a)
        g.add_edge(a, b)
    return g, adj


@st.composite
def larger_graphs(draw):
    """Graphs of up to about 60 nodes with string labels: G(n, p), trees with a
    few chords, or maximal planar graphs with a few edges moved; sometimes with
    a second component, a repeated edge or a self-loop."""
    rnd = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(3, 45))
    shape = draw(st.sampled_from(["gnp", "tree", "triangulation"]))
    if shape == "gnp":
        g = nx.gnp_random_graph(n, rnd.choice([0.05, 0.1, 0.2, 0.4]), seed=rnd.randrange(2**31))
    elif shape == "tree":
        g = nx.random_labeled_tree(n, seed=rnd.randrange(2**31))
        g.add_edges_from((rnd.randrange(n), rnd.randrange(n)) for _ in range(rnd.randrange(6)))
    else:
        g = triangulation(n, rnd)
        edges = list(g.edges)
        g.remove_edges_from(rnd.sample(edges, rnd.randrange(3)))
        g.add_edges_from((rnd.randrange(n), rnd.randrange(n)) for _ in range(rnd.randrange(3)))
    if draw(st.booleans()):
        g = nx.disjoint_union(g, nx.gnp_random_graph(rnd.randint(2, 15), 0.4, seed=rnd.randrange(2**31)))
    edges = [(f"v{u}", f"v{v}") for u, v in g.edges]
    rnd.shuffle(edges)
    if edges and draw(st.booleans()):
        edges.append(edges[0][::-1])
    return g, edges


def random_matrix(rng, n, tickers=None):
    values = rng.random((n, n))
    values = (values + values.T) / 2
    np.fill_diagonal(values, 0.0)
    tickers = tickers or [f"T{i:02d}" for i in range(n)]
    return matrix_from(tickers, values)


class TestOrderedEdges:
    def test_three_node_sort(self):
        m = matrix_from("ABC", [[0, 0.1, 0.5], [0.1, 0, 0.3], [0.5, 0.3, 0]])
        assert [(u, v) for u, v, _ in ordered_edges(m)] == [("A", "B"), ("B", "C"), ("A", "C")]

    def test_tie_breaking_lexicographic(self):
        m = matrix_from("CBA", np.ones((3, 3)) - np.eye(3))
        assert [(u, v) for u, v, _ in ordered_edges(m)] == [("A", "B"), ("A", "C"), ("B", "C")]

    def test_edge_count_n15(self):
        m = random_matrix(np.random.default_rng(0), 15)
        assert len(ordered_edges(m)) == 105

    @settings(max_examples=200, deadline=None)
    @given(tied_matrices())
    def test_equals_tuple_sort_under_ties(self, m):
        assert ordered_edges(m) == sorted_pair_edges(m.tickers, m.values)


class TestBuildMst:
    def test_edge_count_n15(self):
        m = random_matrix(np.random.default_rng(1), 15)
        assert len(build_mst(m).edges) == 14

    def test_path_metric(self):
        m = matrix_from("ABC", [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        edges = {(u, v) for u, v, _ in build_mst(m).edges}
        assert edges == {("A", "B"), ("B", "C")}

    def test_below_two_nodes_rejected(self):
        with pytest.raises(ValueError, match="^MST needs at least 2 nodes$"):
            build_mst(matrix_from("A", [[0]]))

    def test_tree_invariants(self):
        rng = np.random.default_rng(2)
        for n in (5, 9, 20):
            g = to_networkx(build_mst(random_matrix(rng, n)))
            assert g.number_of_edges() == n - 1
            assert nx.is_connected(g)
            assert nx.is_forest(g)

    def test_weight_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(3)
        for n in (4, 5, 6, 7, 8):
            m = random_matrix(rng, n)
            total = sum(w for _, _, w in build_mst(m).edges)
            assert total == pytest.approx(min_spanning_tree_weight(m.values), abs=1e-12)

    def test_deterministic(self):
        m = random_matrix(np.random.default_rng(4), 12)
        assert build_mst(m).edges == build_mst(m).edges

    def test_repeated_ticker_rejected(self):
        m = matrix_from(["A", "B", "A"], np.ones((3, 3)) - np.eye(3))
        with pytest.raises(ValidationError, match="A: ticker appears more than once"):
            build_mst(m)

    @settings(max_examples=examples(200), deadline=None)
    @given(tied_matrices(unique=True, levels=(0.1, 0.2, 0.3)))
    @example(matrix_from("BA", [[0, 0.2], [0.2, 0]]))
    def test_equals_kruskal_oracle_under_ties(self, m):
        # same edges in the same insertion order
        assert build_mst(m).edges == kruskal_edges(m.tickers, m.values)


class TestIsPlanarWith:
    def test_k4_planar(self):
        edges = [("a", "b"), ("a", "c"), ("b", "c"), ("b", "d"), ("c", "d")]
        assert is_planar_with(edges, ("a", "d"))

    def test_k5_not_planar(self):
        nodes = "abcde"
        edges = list(itertools.combinations(nodes, 2))
        assert not is_planar_with(edges[:-1], edges[-1])

    def test_k33_not_planar(self):
        edges = [(a, b) for a in "abc" for b in "xyz"]
        assert not is_planar_with(edges[:-1], edges[-1])

    def test_agreement_with_minor_oracle(self):
        rng = np.random.default_rng(6)
        corpus = []
        for n in range(4, 10):
            for p in (0.3, 0.5, 0.8):
                for _ in range(3):
                    nodes = list(range(n))
                    edges = [e for e in itertools.combinations(nodes, 2) if rng.random() < p]
                    corpus.append((nodes, edges))
        corpus.append((list(range(5)), list(itertools.combinations(range(5), 2))))
        corpus.append(
            (list(range(6)), [(a, b) for a in range(3) for b in range(3, 6)])
        )
        for nodes, edges in corpus:
            if not edges:
                continue
            got = is_planar_with(edges[:-1], edges[-1])
            want = is_planar_slow(nodes, edges)
            assert got == want, (nodes, edges)

    @settings(max_examples=examples(100), deadline=None)
    @given(small_graphs())
    def test_equals_minor_oracle(self, graph):
        nodes, edges = graph
        assert is_planar_with(edges[:-1], edges[-1]) == is_planar_slow(nodes, edges)

    @settings(max_examples=examples(300), deadline=None)
    @given(larger_graphs())
    def test_equals_networkx(self, graph):
        g, edges = graph
        if edges:
            assert is_planar_with(edges[:-1], edges[-1]) == nx.check_planarity(g)[0]

    def test_repeats_and_self_loops_ignored(self):
        k33 = [(a, b) for a in "abc" for b in "xyz"]
        assert not is_planar_with(k33 + [("x", "a"), ("a", "a")], ("b", "y"))
        assert is_planar_with(k33[:-1] + [("z", "z"), ("x", "a")], ("a", "y"))

    def test_long_paths_need_no_recursion(self):
        # a 3000-node cycle with a K5 at its far end: DFS depth 3000
        cycle = [(k, (k + 1) % 3000) for k in range(3000)]
        k5 = list(itertools.combinations(range(2995, 3000), 2))
        assert is_planar_with(cycle, (0, 1500))
        assert not is_planar_with(cycle + k5[:-1], k5[-1])


class TestIsPlanar:
    """The test itself, on neighbour lists laid out as ``build_pmfg`` keeps them."""

    @settings(max_examples=examples(300), deadline=None)
    @given(neighbour_lists())
    def test_equals_networkx_and_leaves_lists_unchanged(self, graph):
        g, adj = graph
        before = [list(nbrs) for nbrs in adj]
        assert _is_planar(len(adj), adj) == nx.check_planarity(g)[0]
        assert adj == before

    def test_rejected_candidate_leaves_lists_unchanged(self):
        # K3,3 on 0-2 and 3-5 with 2-5 appended last: build_pmfg pops the
        # candidate from both lists and tests the next one on the same lists
        adj = [[3, 4, 5], [3, 4, 5], [3, 4], [0, 1, 2], [0, 1, 2], [0, 1]]
        adj[2].append(5)
        adj[5].append(2)
        before = [list(nbrs) for nbrs in adj]
        assert not _is_planar(6, adj)
        assert adj == before
        adj[2].pop()
        adj[5].pop()
        adj[0].append(1)
        adj[1].append(0)
        assert _is_planar(6, adj)
        assert adj == [[3, 4, 5, 1], [3, 4, 5, 0], [3, 4], [0, 1, 2], [0, 1, 2], [0, 1]]


class TestBuildPmfg:
    def test_edge_count_n15(self):
        m = random_matrix(np.random.default_rng(7), 15)
        assert len(build_pmfg(m).edges) == 39

    def test_below_three_nodes_rejected(self):
        with pytest.raises(ValueError, match="^PMFG needs at least 3 nodes$"):
            build_pmfg(matrix_from("AB", [[0, 0.5], [0.5, 0]]))

    def test_n4_is_complete(self):
        m = random_matrix(np.random.default_rng(8), 4)
        g = build_pmfg(m)
        assert len(g.edges) == 6

    def test_n3_is_triangle(self):
        m = random_matrix(np.random.default_rng(9), 3)
        assert len(build_pmfg(m).edges) == 3

    def test_contains_mst(self):
        rng = np.random.default_rng(10)
        for n in (6, 10, 15):
            m = random_matrix(rng, n)
            mst = {frozenset((u, v)) for u, v, _ in build_mst(m).edges}
            pmfg = {frozenset((u, v)) for u, v, _ in build_pmfg(m).edges}
            assert mst <= pmfg

    def test_planar_and_connected(self):
        rng = np.random.default_rng(11)
        for n in (5, 12):
            g = to_networkx(build_pmfg(random_matrix(rng, n)))
            assert nx.check_planarity(g)[0]
            assert nx.is_connected(g)

    def test_every_node_in_a_triangle(self):
        g = to_networkx(build_pmfg(random_matrix(np.random.default_rng(12), 10)))
        in_triangle = set()
        for clique in nx.enumerate_all_cliques(g):
            if len(clique) == 3:
                in_triangle.update(clique)
        assert in_triangle == set(g.nodes)

    def test_no_five_clique(self):
        g = to_networkx(build_pmfg(random_matrix(np.random.default_rng(13), 12)))
        assert all(len(c) <= 4 for c in nx.find_cliques(g))

    def test_deterministic(self):
        m = random_matrix(np.random.default_rng(14), 10)
        assert build_pmfg(m).edges == build_pmfg(m).edges

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 11, 17, 26, 40])
    def test_equals_networkx_loop(self, n):
        m = random_matrix(np.random.default_rng(100 + n), n)
        assert build_pmfg(m).edges == networkx_pmfg_edges(m.tickers, m.values)

    def test_equals_networkx_loop_on_ties_n40(self):
        rng = np.random.default_rng(140)
        values = np.triu(rng.choice([0.1, 0.5, 0.9], size=(40, 40)), 1)
        tickers = [f"T{k}" for k in rng.permutation(40)]
        m = matrix_from(tickers, values + values.T)
        assert build_pmfg(m).edges == networkx_pmfg_edges(m.tickers, m.values)

    @settings(max_examples=examples(60), deadline=None)
    @given(tied_matrices(min_n=3, max_n=14, unique=True))
    def test_equals_networkx_loop_under_ties(self, m):
        assert build_pmfg(m).edges == networkx_pmfg_edges(m.tickers, m.values)

    def test_repeated_ticker_rejected(self):
        m = matrix_from(["A", "B", "A"], np.ones((3, 3)) - np.eye(3))
        with pytest.raises(ValidationError, match="A: ticker appears more than once"):
            build_pmfg(m)


class TestExports:
    def make_graph(self):
        return build_mst(random_matrix(np.random.default_rng(16), 6))

    def test_graphml_parses_back(self):
        g = self.make_graph()
        parsed = nx.parse_graphml(to_graphml(g))
        assert list(parsed.nodes) == list(g.nodes)
        assert (parsed.graph["kind"], parsed.graph["source_method"]) == ("mst", "correlation")
        ranked = sorted(parsed.edges(data=True), key=lambda e: e[2]["insertion_rank"])
        assert [
            (frozenset((u, v)), d["weight"]) for u, v, d in ranked
        ] == [(frozenset((u, v)), w) for u, v, w in g.edges]

    @settings(max_examples=150, deadline=None)
    @given(exported_graphs())
    def test_graphml_bytes_equal_networkx(self, g):
        assert to_graphml(g).encode() == networkx_graphml(g)

    def test_dot_lists_all_edges(self):
        g = self.make_graph()
        text = to_dot(g)
        assert text.startswith("graph mst {")
        for u, v, _ in g.edges:
            assert f'"{u}" -- "{v}"' in text

    def test_json_document(self):
        import json

        g = self.make_graph()
        doc = json.loads(to_json(g))
        assert doc["kind"] == "mst"
        assert doc["nodes"] == list(g.nodes)
        assert [e["insertion_rank"] for e in doc["edges"]] == list(range(len(g.edges)))
        assert all({"source", "target", "weight"} <= e.keys() for e in doc["edges"])
