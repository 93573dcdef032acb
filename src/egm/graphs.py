"""Undirected graphs and the index machinery for constrained scatter.

Vertices are labeled 1..p at the boundary (``Graph``, graph files,
reported edges); everything a solver reads is 0-based.  A graph splits
the lower triangle (diagonal included) of a p x p matrix into

* ``K``: the diagonal and the edges, and
* ``D``: the absent edges,

held as vec positions plus boolean masks.  The completion reads only the
edge-and-diagonal mask, so no clique is ever enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError

__all__ = [
    "Graph",
    "GraphIndex",
    "build_index",
    "is_chordal",
    "read_graph",
    "parse_graph",
    "write_graph",
    "format_graph",
]


@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertices 1..p without self-loops.

    Edges are stored once each as (a, b) with a < b.
    """

    p: int
    edges: frozenset

    def __post_init__(self):
        if self.p < 1:
            raise DimensionError("graph needs at least one vertex")
        for e in self.edges:
            a, b = e
            if not (1 <= a < b <= self.p):
                raise DimensionError(f"invalid edge {e} for p={self.p}")

    @classmethod
    def from_edges(cls, p: int, edges) -> "Graph":
        norm = frozenset((min(i, j), max(i, j)) for i, j in edges)
        for i, j in norm:
            if i == j:
                raise DimensionError(f"self-loop at vertex {i}")
        return cls(p, norm)

    @classmethod
    def complete(cls, p: int) -> "Graph":
        return cls(p, frozenset((i, j) for i in range(1, p + 1) for j in range(i + 1, p + 1)))

    @classmethod
    def empty(cls, p: int) -> "Graph":
        return cls(p, frozenset())

    @classmethod
    def cycle(cls, p: int) -> "Graph":
        """The chordless p-cycle 1-2-...-p-1."""
        if p < 3:
            raise DimensionError("a cycle needs at least 3 vertices")
        edges = [(i, i + 1) for i in range(1, p)] + [(1, p)]
        return cls.from_edges(p, edges)

    @property
    def m(self) -> int:
        return self.p * (self.p + 1) // 2

    @property
    def q(self) -> int:
        """Number of absent edges."""
        return self.p * (self.p - 1) // 2 - len(self.edges)

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def without_edge(self, i: int, j: int) -> "Graph":
        e = (min(i, j), max(i, j))
        if e not in self.edges:
            raise DimensionError(f"edge {e} not present")
        return Graph(self.p, self.edges - {e})

    def with_edge(self, i: int, j: int) -> "Graph":
        return Graph.from_edges(self.p, set(self.edges) | {(i, j)})

    def sorted_edges(self) -> list:
        return sorted(self.edges)


@dataclass(frozen=True, eq=False)
class GraphIndex:
    """Graph plus its D(G)/K(G) split.

    ``D`` and ``K`` are the 0-based vec positions j * p + i (i >= j) of the
    absent edges and of the edges plus diagonal, in v(A) order; ``k_mask``
    and ``d_mask`` mark the same entries, both triangles, as p x p masks.
    Identity comparison only (the array fields make value equality
    ill-defined).
    """

    graph: Graph
    D: np.ndarray
    K: np.ndarray
    k_mask: np.ndarray = field(repr=False)
    d_mask: np.ndarray = field(repr=False)

    @property
    def p(self) -> int:
        return self.graph.p

    @property
    def q(self) -> int:
        return self.graph.q

    @property
    def m(self) -> int:
        return self.graph.m


def build_index(G: Graph) -> GraphIndex:
    """Split the lower triangle into D(G)/K(G)."""
    p = G.p
    k_mask = np.eye(p, dtype=bool)
    for a, b in G.edges:
        k_mask[a - 1, b - 1] = k_mask[b - 1, a - 1] = True
    j, i = np.triu_indices(p)  # the lower triangle in v(A) order
    v, on_k = j * p + i, k_mask[i, j]
    return GraphIndex(G, v[~on_k], v[on_k], k_mask, ~k_mask)


def is_chordal(G: Graph) -> bool:
    """Maximum-cardinality search with perfect-elimination verification.

    True iff every cycle of length > 3 has a chord.
    """
    p = G.p
    adj = [set() for _ in range(p)]
    for a, b in G.edges:
        adj[a - 1].add(b - 1)
        adj[b - 1].add(a - 1)

    visited = []
    in_order = [False] * p
    weight = [0] * p
    for _ in range(p):
        v = max((u for u in range(p) if not in_order[u]), key=lambda u: (weight[u], -u))
        in_order[v] = True
        visited.append(v)
        for w in adj[v]:
            if not in_order[w]:
                weight[w] += 1

    # Reverse MCS order is a perfect elimination ordering iff each vertex's
    # earlier-visited neighborhood is a clique.
    pos = {v: k for k, v in enumerate(visited)}
    for k, v in enumerate(visited):
        earlier = [w for w in adj[v] if pos[w] < k]
        for a_i in range(len(earlier)):
            for b_i in range(a_i + 1, len(earlier)):
                if earlier[b_i] not in adj[earlier[a_i]]:
                    return False
    return True


def parse_graph(text: str) -> Graph:
    """Parse the plain-text graph format.

    First non-comment line is ``p <integer>``; every following line is an
    edge ``i j`` (1-based).  ``#`` starts a comment; blank lines are
    skipped.
    """
    p = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if p is None:
            if len(parts) != 2 or parts[0] != "p":
                raise DimensionError(f"line {lineno}: expected 'p <integer>', got {raw!r}")
            p, = _integers(parts[1:], lineno, raw)
            continue
        if len(parts) != 2:
            raise DimensionError(f"line {lineno}: expected 'i j', got {raw!r}")
        edges.append(tuple(_integers(parts, lineno, raw)))
    if p is None:
        raise DimensionError("graph file has no 'p <integer>' line")
    return Graph.from_edges(p, edges)


def _integers(words, lineno: int, raw: str) -> list:
    try:
        return [int(w) for w in words]
    except ValueError:
        raise DimensionError(f"line {lineno}: expected integers, got {raw!r}") from None


def read_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def format_graph(G: Graph) -> str:
    lines = [f"p {G.p}"] + [f"{a} {b}" for a, b in G.sorted_edges()]
    return "\n".join(lines) + "\n"


def write_graph(G: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(G))
