"""Undirected simple graphs on vertices 0..n-1 with bitset adjacency.

Each vertex's neighbourhood is one Python int used as a bitset, so degree,
adjacency, and complement queries are word-parallel and the complement
graph never has to be materialised.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Graph",
    "EulerCircuit",
    "GraphError",
    "NotEulerianError",
    "parse_edge_list",
    "format_edge_list",
    "load_edge_list",
    "save_edge_list",
]


class GraphError(ValueError):
    """Invalid vertex, edge, or edge-list input."""


class NotEulerianError(GraphError):
    """Circuit requested from a graph that is not Eulerian.

    ``reason`` is "odd_vertices" when some vertex has odd degree and
    "disconnected" when the non-isolated vertices fall apart.
    """

    def __init__(self, reason: str):
        super().__init__(f"graph is not Eulerian: {reason}")
        self.reason = reason


def _bits(mask: int):
    # indices of set bits, ascending
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class EulerCircuit:
    """Closed walk using every edge of its host graph exactly once."""

    vertices: tuple[int, ...]

    def edge_count(self) -> int:
        return max(len(self.vertices) - 1, 0)


class Graph:
    """Mutable simple undirected graph; its edge count and odd-vertex
    bitset are kept current as edges are added."""

    __slots__ = ("n", "_adj", "_m", "_odd")

    def __init__(self, n: int):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        try:
            self._adj = [0] * n
        except OverflowError:
            raise GraphError(f"vertex count {n} is too large") from None
        self.n = n
        self._m = 0
        self._odd = 0  # bitset of odd-degree vertices

    @classmethod
    def from_edge_list(cls, n: int, edges) -> "Graph":
        """Build a graph from (u, v) pairs; duplicates are collapsed."""
        g = cls(n)
        for u, v in edges:
            g._check_pair(u, v)
            if not (g._adj[u] >> v) & 1:
                g._insert(u, v)
        return g

    @classmethod
    def from_bool_adjacency(cls, matrix) -> "Graph":
        """Build from a symmetric numpy bool matrix with a zero diagonal."""
        n = matrix.shape[0]
        g = cls(n)
        if n:
            packed = np.packbits(matrix, axis=1, bitorder="little")
            g._adj = [int.from_bytes(packed[u].tobytes(), "little") for u in range(n)]
            degrees = matrix.sum(axis=1)
            g._m = int(degrees.sum()) // 2
            odd = np.packbits(degrees & 1, bitorder="little")
            g._odd = int.from_bytes(odd.tobytes(), "little")
        return g

    # -- basic queries ---------------------------------------------------

    @property
    def m(self) -> int:
        return self._m

    @property
    def odd_mask(self) -> int:
        """Bitset of the odd-degree vertices."""
        return self._odd

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return (self._adj[u] >> v) & 1 == 1

    def max_degree(self) -> int:
        if self.n == 0:
            return 0
        return max(a.bit_count() for a in self._adj)

    def non_neighbors_mask(self, v: int) -> int:
        """Bitset of vertices that are neither v nor adjacent to v."""
        self._check_vertex(v)
        full = (1 << self.n) - 1
        return ~(self._adj[v] | (1 << v)) & full

    def edges(self):
        """Yield edges as (u, v) with u < v, lexicographically."""
        for u in range(self.n):
            for v in _bits(self._adj[u] >> (u + 1)):
                yield (u, u + 1 + v)

    def odd_vertices(self) -> set[int]:
        return set(_bits(self._odd))

    def t_value(self) -> int:
        """Half the number of odd-degree vertices."""
        return self._odd.bit_count() // 2

    def copy(self) -> "Graph":
        g = Graph.__new__(Graph)
        g.n = self.n
        g._adj = self._adj.copy()
        g._m = self._m
        g._odd = self._odd
        return g

    # -- mutation --------------------------------------------------------

    def add_edge(self, u: int, v: int) -> "Graph":
        self._check_pair(u, v)
        if (self._adj[u] >> v) & 1:
            raise GraphError(f"edge ({u}, {v}) already present")
        self._insert(u, v)
        return self

    # -- connectivity and circuits ----------------------------------------

    def is_connected(self) -> bool:
        """True iff a traversal from vertex 0 reaches every vertex."""
        n = self.n
        if n <= 1:
            return True
        return self._reachable_from(0) == (1 << n) - 1

    def eulerian_circuit(self) -> EulerCircuit:
        """Extract an Eulerian circuit, always following the lowest-numbered
        available neighbour, so the output is deterministic.

        Isolated vertices are ignored for the connectivity requirement.
        Raises NotEulerianError with reason "odd_vertices" or "disconnected".
        """
        if self._odd:
            raise NotEulerianError("odd_vertices")
        live = 0
        for v in range(self.n):
            if self._adj[v]:
                live |= 1 << v
        if not live:
            return EulerCircuit((0,) if self.n else ())
        start = (live & -live).bit_length() - 1
        if self._reachable_from(start) & live != live:
            raise NotEulerianError("disconnected")

        work = self._adj.copy()
        stack = [start]
        out: list[int] = []
        while stack:
            v = stack[-1]
            av = work[v]
            if av:
                low = av & -av
                w = low.bit_length() - 1
                work[v] ^= low
                work[w] ^= 1 << v
                stack.append(w)
            else:
                out.append(stack.pop())
        out.reverse()
        return EulerCircuit(tuple(out))

    # -- plumbing ----------------------------------------------------------

    def _reachable_from(self, start: int) -> int:
        adj = self._adj
        visited = frontier = 1 << start
        while frontier:
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                nxt |= adj[low.bit_length() - 1]
                m ^= low
            frontier = nxt & ~visited
            visited |= frontier
        return visited

    def _insert(self, u: int, v: int):
        self._adj[u] |= 1 << v
        self._adj[v] |= 1 << u
        self._m += 1
        self._odd ^= (1 << u) | (1 << v)

    def _check_vertex(self, v: int):
        if not isinstance(v, int) or isinstance(v, bool):
            raise GraphError(f"vertex must be an int, got {v!r}")
        if not 0 <= v < self.n:
            raise GraphError(f"vertex {v} out of range for n={self.n}")

    def _check_pair(self, u: int, v: int):
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise GraphError(f"self-loop ({u}, {v}) not allowed")

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    __hash__ = None

    def __repr__(self):
        return f"Graph(n={self.n}, m={self._m})"


# -- edge-list text format -------------------------------------------------
#
# line 1: vertex count n
# each further line: "u v" with 0-based endpoints
# blank lines and "#" comments are ignored on input; output is canonical
# (u < v, lexicographically sorted)


def _data_lines(text: str) -> list[str]:
    """Lines of a text input with "#" comments, blank lines and padding removed."""
    lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return [line for line in lines if line]


def parse_edge_list(text: str) -> Graph:
    rows = _data_lines(text)
    if not rows:
        raise GraphError("empty edge-list input")
    try:
        n = int(rows[0])
    except ValueError:
        raise GraphError(f"first line must be the vertex count, got {rows[0]!r}") from None
    edges = []
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"malformed edge line: {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise GraphError(f"malformed edge line: {line!r}") from None
    return Graph.from_edge_list(n, edges)


def format_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def load_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def save_edge_list(g: Graph, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_edge_list(g))
