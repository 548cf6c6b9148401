"""Exact minimum Eulerian extension by exhaustive subset search.

Ground truth for small graphs: enumerates complement-edge subsets in
increasing cardinality, from a lower bound on the answer, and returns
the first one whose addition makes the graph connected with all degrees
even. Exponential, so its use is capped at a small vertex count.
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
    components = g.components()
    start = t + sum(1 for c in components if not c & odd) if len(components) > 1 else t

    comp = [(u, v) for u in range(g.n) for v in _bits(g.non_neighbors_mask(u) & (-1 << (u + 1)))]
    masks = [(1 << u) | (1 << v) for u, v in comp]

    for k in range(start, min(cap, len(comp)) + 1):
        for chosen in combinations(range(len(comp)), k):
            parity = 0
            for i in chosen:
                parity ^= masks[i]
            if parity != odd:
                continue
            trial = g.copy()
            for i in chosen:
                trial.add_edge(*comp[i])
            if trial.is_connected():
                return OracleAnswer(k, tuple(comp[i] for i in chosen), cap)
    return OracleAnswer(None, None, cap)
