"""Undirected simple graphs on vertices 0..n-1 with bitset adjacency.

Each vertex's neighbourhood is one Python int used as a bitset, so degree,
adjacency, and complement queries are word-parallel and the complement
graph never has to be materialised.
"""

import operator
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


def _as_int(value, error, rule: str, low=0, high=None) -> int:
    """The package's integer rule, with each caller's own bounds and error.

    Returns value as a Python int when it is a Python or numpy integer
    (anything operator.index accepts) other than a bool, with low <= value
    and, unless high is None, value < high. Raises
    error(f"{rule}, got {value!r}") otherwise.
    """
    if type(value) is not int and not isinstance(value, bool):
        try:
            value = operator.index(value)
        except TypeError:
            pass
    if type(value) is int and value >= low and (high is None or value < high):
        return value
    raise error(f"{rule}, got {value!r}")


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


class Graph:
    """Mutable simple undirected graph; its degree list and odd-vertex
    bitset are kept current as edges are added."""

    __slots__ = ("n", "_adj", "_deg", "_odd")

    def __init__(self, n: int):
        n = _as_int(n, GraphError, "vertex count must be a nonnegative int")
        try:
            self._adj = [0] * n
        except OverflowError:
            raise GraphError(f"vertex count {n} is too large") from None
        self.n = n
        self._deg = [0] * n
        self._odd = 0  # bitset of odd-degree vertices

    @classmethod
    def from_edge_list(cls, n: int, edges) -> "Graph":
        """Build a graph from (u, v) pairs; duplicates are collapsed."""
        g = cls(n)
        for u, v in edges:
            u, v = g._check_pair(u, v)
            if not (g._adj[u] >> v) & 1:
                g._insert(u, v)
        return g

    @classmethod
    def from_bool_adjacency(cls, matrix) -> "Graph":
        """Build from a symmetric numpy bool matrix with a zero diagonal,
        packing row u little-endian into u's bitset; GraphError otherwise."""
        if not (isinstance(matrix, np.ndarray) and matrix.dtype == np.bool_ and matrix.ndim == 2):
            raise GraphError("adjacency must be a 2-d numpy bool matrix")
        if not np.array_equal(matrix, matrix.T) or matrix.diagonal().any():
            raise GraphError("adjacency must be square and symmetric with a zero diagonal")
        return cls._from_symmetric(matrix)

    @classmethod
    def _from_pair_hits(cls, n: int, hits) -> "Graph":
        """Build from a numpy bool vector with one entry per pair u < v, in
        lexicographic (u, v) order, True where the pair is an edge. Unlike
        from_bool_adjacency it checks nothing: the sampler draws the pairs
        this way."""
        upper = np.zeros((n, n), dtype=bool)
        # a boolean mask is filled in row-major order, which is the (u, v) order
        upper[~np.tri(n, dtype=bool)] = hits
        return cls._from_symmetric(upper | upper.T)

    @classmethod
    def _from_symmetric(cls, matrix) -> "Graph":
        n = matrix.shape[0]
        g = cls(n)
        if n:
            packed = np.packbits(matrix, axis=1, bitorder="little")
            width = packed.shape[1]
            rows = packed.tobytes()
            g._adj = [int.from_bytes(rows[i : i + width], "little") for i in range(0, n * width, width)]
            g._deg = [a.bit_count() for a in g._adj]
            # by symmetry, bit v of the XOR of all rows is the parity of deg v
            g._odd = int.from_bytes(np.bitwise_xor.reduce(packed, axis=0).tobytes(), "little")
        return g

    def non_neighbor_matrix(self, vertices) -> np.ndarray:
        """Numpy bool matrix with n columns whose row i is
        non_neighbors_mask(vertices[i]), unpacked with from_bool_adjacency's
        little-endian layout. Each listed vertex is checked as
        non_neighbors_mask checks it; repeats are allowed."""
        n, adj = self.n, self._adj
        vertices = list(map(self._check_vertex, vertices))
        full = (1 << n) - 1
        width = (n + 7) // 8
        rows = b"".join((full & ~(adj[v] | 1 << v)).to_bytes(width, "little") for v in vertices)
        packed = np.frombuffer(rows, dtype=np.uint8).reshape(len(vertices), width)
        return np.unpackbits(packed, axis=1, count=n, bitorder="little").view(np.bool_)

    # -- basic queries ---------------------------------------------------

    @property
    def m(self) -> int:
        return sum(self._deg) // 2

    @property
    def odd_mask(self) -> int:
        """Bitset of the odd-degree vertices."""
        return self._odd

    def degrees(self) -> list[int]:
        """Degree of every vertex, in vertex order, as a new list."""
        return self._deg.copy()

    def max_degree(self) -> int:
        return max(self._deg, default=0)

    def non_neighbors_mask(self, v: int) -> int:
        """Bitset of vertices that are neither v nor adjacent to v."""
        v = self._check_vertex(v)
        full = (1 << self.n) - 1
        return ~(self._adj[v] | (1 << v)) & full

    def edges(self):
        """Yield edges as (u, v) with u < v, lexicographically."""
        for u in range(self.n):
            for v in _bits(self._adj[u] >> (u + 1)):
                yield (u, u + 1 + v)

    def t_value(self) -> int:
        """Half the number of odd-degree vertices."""
        return self._odd.bit_count() // 2

    def copy(self) -> "Graph":
        g = Graph.__new__(Graph)
        g.n = self.n
        g._adj = self._adj.copy()
        g._deg = self._deg.copy()
        g._odd = self._odd
        return g

    # -- mutation --------------------------------------------------------

    def add_edge(self, u: int, v: int) -> "Graph":
        u, v = self._check_pair(u, v)
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
        full = (1 << n) - 1
        return self._reachable_from(0, full) == full

    def components(self) -> list[int]:
        """Bitset of each connected component, in order of lowest vertex."""
        rest = (1 << self.n) - 1
        found = []
        while rest:
            # the search stays inside the start's component, all of it in rest
            component = self._reachable_from((rest & -rest).bit_length() - 1, rest)
            found.append(component)
            rest &= ~component
        return found

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
        if self._reachable_from(start, live) & live != live:
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

    def _reachable_from(self, start: int, goal: int) -> int:
        """Vertices reached by a breadth-first search from start, which
        stops after the first level that leaves every vertex of the goal
        bitset visited; a superset of goal exactly when start reaches it."""
        adj = self._adj
        visited = frontier = 1 << start
        while frontier and goal & ~visited:
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
        self._deg[u] += 1
        self._deg[v] += 1
        self._odd ^= (1 << u) | (1 << v)

    def _check_vertex(self, v) -> int:
        """v as a Python int; GraphError unless it is a vertex."""
        if type(v) is int and 0 <= v < self.n:
            return v
        return _as_int(v, GraphError, f"vertex must be an int in range({self.n})", high=self.n)

    def _check_pair(self, u, v) -> tuple[int, int]:
        u, v = self._check_vertex(u), self._check_vertex(v)
        if u == v:
            raise GraphError(f"self-loop ({u}, {v}) not allowed")
        return u, v

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    __hash__ = None

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


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
