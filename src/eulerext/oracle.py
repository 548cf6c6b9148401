"""Exact minimum Eulerian extension by exhaustive subset search.

Ground truth for small graphs: searches complement-edge subsets in
increasing cardinality, from a lower bound on the answer, and returns
the first one whose addition makes the graph connected with all degrees
even. Parity fixes each subset's last edge, so a size-k search walks
the (k-1)-subsets; a graph whose complement has a component with an
odd number of odd vertices is answered at once, since no
complement-edge set can make it even. Exponential, so its use is capped
at a small vertex count.
"""

from dataclasses import dataclass, field
from itertools import combinations

from .graph import Graph, GraphError, _as_int, _bits

__all__ = ["ORACLE_MAX_VERTICES", "OracleAnswer", "OracleSizeError", "min_extension_exact"]

ORACLE_MAX_VERTICES = 12


class OracleSizeError(GraphError):
    """Graph too large for exhaustive search."""


@dataclass(frozen=True)
class OracleAnswer:
    """min_edges=None means no extension exists within cap, the largest
    size searched; cap is the question, so answers compare without it."""

    min_edges: int | None
    witness: tuple[tuple[int, int], ...] | None
    cap: int | None = field(default=None, compare=False)

    @property
    def extendable(self) -> bool:
        return self.min_edges is not None


def min_extension_exact(g: Graph, cap: int | None = None) -> OracleAnswer:
    """Smallest complement-edge set whose addition makes g Eulerian.

    Searches subsets of size t, t+1, ..., cap (default cap is 3t, the
    engine's guarantee) and reports the lexicographically first optimum.
    Sizes below t cannot work: every odd vertex needs an incident added
    edge and one edge serves at most two of them. When g has two or more
    components the search starts at t + c0, c0 the number of components
    with no odd vertex: the added edges leave each component an even
    number of times, so at least twice, and a component holds at least
    max(its odd vertices, 2) of their ends.

    A size-k set is walked as a (k-1)-subset, its head, in lexicographic
    order, plus the one complement edge whose endpoints the head leaves
    odd; that edge must come after the head's last, so each k-set is met
    once and in the same order as a walk of all k-subsets. Nothing is
    walked when a component of the complement holds an odd number of odd
    vertices: each added edge flips two degrees inside one such component,
    so its odd count keeps its parity (the T-join condition).
    """
    if cap is not None:
        cap = _as_int(cap, ValueError, "cap must be None or an int >= 0")
    if g.n > ORACLE_MAX_VERTICES:
        raise OracleSizeError(
            f"exact search is exponential in the complement size; "
            f"refusing n={g.n} > {ORACLE_MAX_VERTICES}"
        )
    t = g.t_value()
    if cap is None:
        cap = 3 * t
    odd = g.odd_mask
    if _parity_blocked(g, odd):
        return OracleAnswer(None, None, cap)
    components = g.components()
    start = t + sum(1 for c in components if not c & odd) if len(components) > 1 else t
    if start == 0:  # t = 0 on a connected graph
        return OracleAnswer(0, (), cap)

    comp = [(u, v) for u in range(g.n) for v in _bits(g.non_neighbors_mask(u) & (-1 << (u + 1)))]
    masks = [(1 << u) | (1 << v) for u, v in comp]
    index = {mask: i for i, mask in enumerate(masks)}

    for k in range(start, min(cap, len(comp)) + 1):
        for head in combinations(range(len(comp)), k - 1):
            parity = odd
            for i in head:
                parity ^= masks[i]
            last = index.get(parity)
            if last is None or (head and last <= head[-1]):
                continue
            chosen = head + (last,)
            trial = g.copy()
            for i in chosen:
                trial.add_edge(*comp[i])
            if trial.is_connected():
                return OracleAnswer(k, tuple(comp[i] for i in chosen), cap)
    return OracleAnswer(None, None, cap)


def _parity_blocked(g: Graph, odd: int) -> bool:
    """True when a component of g's complement holds an odd number of odd
    vertices; only the components that hold an odd vertex are walked."""
    rest = odd
    while rest:
        seen = frontier = rest & -rest
        while frontier:
            reached = 0
            for v in _bits(frontier):
                reached |= g.non_neighbors_mask(v)
            frontier = reached & ~seen
            seen |= frontier
        if (seen & odd).bit_count() % 2:
            return True
        rest &= ~seen
    return False
