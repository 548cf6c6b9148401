"""Exact minimum Eulerian extension by exhaustive subset search.

Ground truth for small graphs: enumerates complement-edge subsets in
increasing cardinality and returns the first one whose addition makes
the graph connected with all degrees even. Exponential, so its use is
capped at a small vertex count.
"""

from dataclasses import dataclass
from itertools import combinations

from .graph import Graph, GraphError

__all__ = ["ORACLE_MAX_VERTICES", "OracleAnswer", "OracleSizeError", "min_extension_exact"]

ORACLE_MAX_VERTICES = 12


class OracleSizeError(GraphError):
    """Graph too large for exhaustive search."""


@dataclass(frozen=True)
class OracleAnswer:
    """extendable=False means no extension exists within the edge cap."""

    extendable: bool
    min_edges: int | None
    witness: tuple[tuple[int, int], ...] | None


def min_extension_exact(g: Graph, cap: int | None = None) -> OracleAnswer:
    """Smallest complement-edge set whose addition makes g Eulerian.

    Searches subsets of size t, t+1, ..., cap (default cap is 3t, the
    engine's guarantee) and reports the lexicographically first optimum.
    Sizes below t cannot work: every odd vertex needs an incident added
    edge and one edge serves at most two of them.
    """
    if cap is not None and cap < 0:
        raise ValueError(f"cap must be None or >= 0, got {cap}")
    if g.n > ORACLE_MAX_VERTICES:
        raise OracleSizeError(
            f"exact search is exponential in the complement size; "
            f"refusing n={g.n} > {ORACLE_MAX_VERTICES}"
        )
    t = g.t_value()
    if cap is None:
        cap = 3 * t

    adj = g._adj
    comp = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not (adj[u] >> v) & 1]
    masks = [(1 << u) | (1 << v) for u, v in comp]
    odd = g.odd_mask

    for k in range(t, min(cap, len(comp)) + 1):
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
                return OracleAnswer(True, k, tuple(comp[i] for i in chosen))
    return OracleAnswer(False, None, None)
