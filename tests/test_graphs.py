import itertools

import numpy as np
import pytest

from egm.errors import DimensionError
from egm.graphs import (
    Graph,
    build_index,
    format_graph,
    is_chordal,
    parse_graph,
    read_graph,
    write_graph,
)
from egm.linops import duplication_matrix

from _oracles import Q_D, Q_K, random_graph

rng = np.random.default_rng(55)


def _lower_triangle(p):
    """The 0-based vec positions of the diagonal-and-below entries."""
    return {j * p + i for j in range(p) for i in range(j, p)}


class TestGraphBasics:
    def test_normalizes_edges(self):
        G = Graph.from_edges(4, [(2, 1), (3, 4)])
        assert G.edges == frozenset({(1, 2), (3, 4)})
        assert G.q == 4

    def test_rejects_self_loop(self):
        with pytest.raises(DimensionError):
            Graph.from_edges(3, [(2, 2)])

    def test_rejects_out_of_range(self):
        with pytest.raises(DimensionError):
            Graph.from_edges(3, [(1, 4)])

    def test_cycle_counts(self):
        G = Graph.cycle(7)
        assert len(G.edges) == 7
        assert G.q == 21 - 7 == 14


class TestBuildIndex:
    def test_complete_p3(self):
        idx = build_index(Graph.complete(3))
        assert len(idx.D) == 0
        assert len(idx.K) == 6

    def test_cycle4_positions(self):
        idx = build_index(Graph.cycle(4))
        assert idx.D.tolist() == [2, 7]  # entries (3, 1) and (4, 2)
        assert idx.q == 2

    def test_cycle7_q(self):
        idx = build_index(Graph.cycle(7))
        assert len(idx.D) == idx.q == 14

    def test_partition_small_p(self):
        # exhaustive over all graphs for p <= 5, random for p in {6, 7}
        for p in (2, 3, 4, 5):
            pairs = [(i, j) for i in range(1, p + 1) for j in range(i + 1, p + 1)]
            for bits in range(2 ** len(pairs)):
                G = Graph.from_edges(p, [e for k, e in enumerate(pairs) if bits >> k & 1])
                idx = build_index(G)
                union = set(idx.D.tolist()) | set(idx.K.tolist())
                assert union == _lower_triangle(p)
                assert len(idx.D) == G.q
                assert len(idx.K) == G.m - G.q
        for p in (6, 7):
            for _ in range(25):
                G = random_graph(p, rng)
                idx = build_index(G)
                union = set(idx.D.tolist()) | set(idx.K.tolist())
                assert union == _lower_triangle(p)
                assert len(idx.D) == G.q

    def test_single_vertex_graph(self):
        idx = build_index(Graph.empty(1))
        assert idx.m == 1 and idx.q == 0
        assert idx.K.tolist() == [0]

    def test_dense_operators_built_on_demand(self):
        p = 60
        idx = build_index(Graph.cycle(p))
        big = [k for k, v in vars(idx).items() if isinstance(v, np.ndarray) and v.size > p * p]
        assert big == []

    def test_pt_orthogonal(self):
        # K(G) over D(G) permutes the coordinates of v(A).
        for G in (Graph.cycle(5), Graph.complete(4), random_graph(6, rng)):
            idx = build_index(G)
            Pt = np.vstack([Q_K(idx), Q_D(idx)]) @ duplication_matrix(idx.p)[0]
            assert np.allclose(Pt.T @ Pt, np.eye(idx.m), atol=1e-15)


def _chordal_oracle(p, edge_set):
    """A graph is chordal iff no vertex subset of size >= 4 induces a cycle."""
    adj = {v: set() for v in range(1, p + 1)}
    for a, b in edge_set:
        adj[a].add(b)
        adj[b].add(a)
    for size in range(4, p + 1):
        for C in itertools.combinations(range(1, p + 1), size):
            Cs = set(C)
            degs = [len(adj[v] & Cs) for v in C]
            if any(d != 2 for d in degs):
                continue
            # all induced degrees are 2; connected <=> a single cycle
            seen = {C[0]}
            stack = [C[0]]
            while stack:
                v = stack.pop()
                for w in adj[v] & Cs:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == size:
                return False
    return True


class TestChordality:
    def test_trivial_cases(self):
        assert is_chordal(Graph.complete(5))
        assert not is_chordal(Graph.cycle(4))
        assert is_chordal(Graph.cycle(3))
        assert is_chordal(Graph.empty(4))

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_against_oracle_exhaustive(self, p):
        pairs = [(i, j) for i in range(1, p + 1) for j in range(i + 1, p + 1)]
        for bits in range(2 ** len(pairs)):
            edges = [e for k, e in enumerate(pairs) if bits >> k & 1]
            G = Graph.from_edges(p, edges)
            assert is_chordal(G) == _chordal_oracle(p, G.edges), f"p={p} edges={edges}"

    def test_against_oracle_p6_exhaustive(self):
        p = 6
        pairs = [(i, j) for i in range(1, p + 1) for j in range(i + 1, p + 1)]
        for bits in range(2 ** len(pairs)):
            edges = frozenset(e for k, e in enumerate(pairs) if bits >> k & 1)
            G = Graph(p, edges)
            assert is_chordal(G) == _chordal_oracle(p, edges)


class TestGraphFiles:
    def test_parse(self):
        text = "# a comment\np 4\n1 2\n2 3  # trailing comment\n\n3 4\n"
        G = parse_graph(text)
        assert G.p == 4
        assert G.edges == frozenset({(1, 2), (2, 3), (3, 4)})

    def test_round_trip(self, tmp_path):
        G = Graph.cycle(5)
        path = tmp_path / "cycle.g"
        write_graph(G, path)
        assert read_graph(path) == G

    def test_missing_header(self):
        with pytest.raises(DimensionError):
            parse_graph("1 2\n")

    def test_bad_edge_line(self):
        with pytest.raises(DimensionError):
            parse_graph("p 3\n1 2 3\n")

    @pytest.mark.parametrize("text, line", [("p x", 1), ("p 3\n1 x", 2), ("p 3\n1 2.5", 2)])
    def test_non_integer_names_line(self, text, line):
        with pytest.raises(DimensionError, match=f"line {line}: expected integers"):
            parse_graph(text)

    def test_format_sorted(self):
        G = Graph.from_edges(3, [(2, 3), (1, 2)])
        assert format_graph(G) == "p 3\n1 2\n2 3\n"
