"""Three-phase engine that makes a connected graph Eulerian.

Only complement edges may be added. Phase one pairs up odd-degree
vertices that are not adjacent, in ascending order; whatever survives a
full pass is necessarily a clique of odd vertices. Phase two resolves
clique pairs with two-edge detours through outside vertices. Phase three
handles the remainder with three-edge detours, first by random probing
and then by exhaustive scan, so a failure there is a certificate that no
detour exists for that pair. A successful run adds at most three edges
per odd vertex pair.
"""

import math
import operator
from dataclasses import dataclass, field

from .graph import Graph, GraphError, _bits

__all__ = [
    "PHASE_PAIRING",
    "PHASE_TWO_PATH",
    "PHASE_THREE_PATH",
    "FAIL_DISCONNECTED",
    "FAIL_NO_THREE_PATH",
    "AddedEdge",
    "ExtensionResult",
    "VerificationReport",
    "phase_pairing",
    "phase_clique_reduction",
    "phase_three_paths",
    "extend",
    "verify_extension",
]

PHASE_PAIRING = "pairing"
PHASE_TWO_PATH = "two_path"
PHASE_THREE_PATH = "three_path"

FAIL_DISCONNECTED = "disconnected_input"
FAIL_NO_THREE_PATH = "no_three_path"


@dataclass(frozen=True)
class AddedEdge:
    """One complement edge added by the engine, tagged with its phase."""

    u: int
    v: int
    phase: str

    def pair(self) -> tuple[int, int]:
        return (self.u, self.v)


@dataclass(frozen=True)
class ExtensionResult:
    success: bool
    t_input: int
    added_edges: tuple[AddedEdge, ...]
    failure_reason: str | None = None
    failing_pair: tuple[int, int] | None = None
    attempts_phase3: int = 0

    def phase_counts(self) -> dict[str, int]:
        counts = {PHASE_PAIRING: 0, PHASE_TWO_PATH: 0, PHASE_THREE_PATH: 0}
        for edge in self.added_edges:
            counts[edge.phase] += 1
        return counts

    def edge_pairs(self) -> list[tuple[int, int]]:
        return [e.pair() for e in self.added_edges]


@dataclass(frozen=True)
class ThreePathOutcome:
    edges: tuple[AddedEdge, ...]
    attempts: int
    failing_pair: tuple[int, int] | None = None


def phase_pairing(g: Graph) -> tuple[list[AddedEdge], list[int]]:
    """Pair non-adjacent odd vertices greedily; mutates g.

    One ascending pass over the odd vertices, matching each unmatched one
    to its smallest unmatched non-neighbor further along. Any vertex left
    over was adjacent to everything left over, so the returned residual is
    a clique of odd-degree vertices.
    """
    odd = free = g.odd_mask
    added: list[AddedEdge] = []
    for u in _bits(odd):
        if not (free >> u) & 1:
            continue
        candidates = g.non_neighbors_mask(u) & free & (-1 << (u + 1))
        if candidates:
            v = (candidates & -candidates).bit_length() - 1
            g.add_edge(u, v)
            added.append(AddedEdge(u, v, PHASE_PAIRING))
            free &= ~((1 << u) | (1 << v))
    return added, list(_bits(free))


def phase_clique_reduction(g: Graph, residual: list[int]) -> tuple[list[AddedEdge], list[int]]:
    """Fix clique pairs with two-edge detours through outside vertices.

    One pass over residual in its given order: each unmatched x takes the
    first later unmatched y that shares an absent-edge neighbour z outside
    the *input* residual set, with z the smallest such, and the edges
    (x, z) and (y, z) are added. A vertex's mask changes only when it is
    matched, so one read per vertex suffices. Mutates g; returns the added
    edges and the unmatched vertices in residual order. Raises GraphError
    for an invalid or repeated vertex in residual.
    """
    blocked = _vertex_set(g, residual)
    masks = [g.non_neighbors_mask(x) & ~blocked for x in residual]
    matched = 0
    added: list[AddedEdge] = []
    for i, (x, nx) in enumerate(zip(residual, masks)):
        if not nx or (matched >> x) & 1:
            continue
        for y, ny in zip(residual[i + 1:], masks[i + 1:]):
            candidates = nx & ny
            if candidates and not (matched >> y) & 1:
                z = (candidates & -candidates).bit_length() - 1
                for a, b in ((x, z), (y, z)):
                    lo, hi = (a, b) if a < b else (b, a)
                    g.add_edge(lo, hi)
                    added.append(AddedEdge(lo, hi, PHASE_TWO_PATH))
                matched |= (1 << x) | (1 << y)
                break
    return added, [x for x in residual if not (matched >> x) & 1]


def phase_three_paths(g: Graph, clique: list[int], rng, max_attempts_per_pair: int) -> ThreePathOutcome:
    """Resolve the leftover pairs with three-edge detours; mutates g.

    Pairs the pending vertices consecutively in ascending order. For each
    pair (u, v) it probes uniformly random (y, z) up to the attempt budget
    looking for a detour u-y-z-v (either orientation) made of three absent
    edges, then falls back to a full lexicographic scan. Only a pair with
    no detour at all stops the phase. Raises GraphError for an invalid or
    repeated vertex in clique, or for an odd number of them, before any
    probe or edge.
    """
    n = g.n
    _vertex_set(g, clique)
    if len(clique) % 2:
        raise GraphError(f"{len(clique)} vertices cannot be paired")
    pend = sorted(clique)
    added: list[AddedEdge] = []
    attempts = 0
    for u, v in zip(pend[::2], pend[1::2]):
        triple = None
        if rng is not None:
            for _ in range(max_attempts_per_pair):
                attempts += 1
                y = int(rng.integers(n))
                z = int(rng.integers(n))
                triple = _valid_three_path(g, u, v, y, z)
                if triple is not None:
                    break
        if triple is None:
            triple = _scan_three_path(g, u, v)
        if triple is None:
            return ThreePathOutcome(tuple(added), attempts, failing_pair=(u, v))
        for lo, hi in triple:
            g.add_edge(lo, hi)
            added.append(AddedEdge(lo, hi, PHASE_THREE_PATH))
    return ThreePathOutcome(tuple(added), attempts, failing_pair=None)


def _vertex_set(g: Graph, vertices) -> int:
    """Bitset of the given vertices, each checked by Graph's vertex rule."""
    mask = 0
    for v in vertices:
        g._check_vertex(v)
        if (mask >> v) & 1:
            raise GraphError(f"vertex {v} is listed twice")
        mask |= 1 << v
    return mask


def _valid_three_path(g: Graph, u: int, v: int, y: int, z: int):
    """Edges of a three-edge detour from u to v through y then z, or None."""
    if y == z or y == u or y == v or z == u or z == v:
        return None
    adj = g._adj
    if (adj[y] >> z) & 1:
        return None
    mid = (min(y, z), max(y, z))
    if not (adj[u] >> y) & 1 and not (adj[z] >> v) & 1:
        return ((min(u, y), max(u, y)), mid, (min(z, v), max(z, v)))
    if not (adj[u] >> z) & 1 and not (adj[y] >> v) & 1:
        return ((min(u, z), max(u, z)), mid, (min(y, v), max(y, v)))
    return None


def _scan_three_path(g: Graph, u: int, v: int):
    """First detour of the (y, z) lexicographic scan, or None.

    For each middle vertex y, the z that complete u-y-z-v are the common
    non-neighbours of y and v (when y is a non-neighbour of u), and the z
    that complete u-z-y-v are those of y and u (when y is a non-neighbour
    of v); the lowest z of either set is the scan's witness for that y.
    """
    nu, nv = g.non_neighbors_mask(u), g.non_neighbors_mask(v)
    ends = (1 << u) | (1 << v)
    for y in _bits((nu | nv) & ~ends):
        ny = g.non_neighbors_mask(y) & ~ends
        first = ny & nv if (nu >> y) & 1 else 0
        second = ny & nu if (nv >> y) & 1 else 0
        zs = first | second
        if zs:
            z = (zs & -zs).bit_length() - 1
            return _valid_three_path(g, u, v, y, z)
    return None


def extend(g: Graph, rng=None, max_random_attempts: int | None = None) -> ExtensionResult:
    """Add complement edges to make g Eulerian.

    The input graph is left untouched. With an rng, phase three probes
    random detours first (default budget 64 * ceil(ln n) per pair); with
    rng=None it goes straight to the deterministic exhaustive scan, so the
    whole run is reproducible without a seed. The failure reason is
    FAIL_DISCONNECTED exactly when g is not connected.
    """
    if max_random_attempts is not None and max_random_attempts < 0:
        raise ValueError(f"max_random_attempts must be None or >= 0, got {max_random_attempts}")
    if not g.is_connected():
        return ExtensionResult(False, g.t_value(), (), failure_reason=FAIL_DISCONNECTED)
    t = g.t_value()
    if t == 0:
        return ExtensionResult(True, 0, ())
    if max_random_attempts is None:
        # t > 0 needs two odd vertices, so n >= 2 and the log is positive
        max_random_attempts = 64 * math.ceil(math.log(g.n))
    work = g.copy()
    added, residual = phase_pairing(work)
    two_path, pending = phase_clique_reduction(work, residual)
    added.extend(two_path)
    attempts = 0
    if pending:
        outcome = phase_three_paths(work, pending, rng, max_random_attempts)
        added.extend(outcome.edges)
        attempts = outcome.attempts
        if outcome.failing_pair is not None:
            return ExtensionResult(
                False,
                t,
                tuple(added),
                failure_reason=FAIL_NO_THREE_PATH,
                failing_pair=outcome.failing_pair,
                attempts_phase3=attempts,
            )
    return ExtensionResult(True, t, tuple(added), attempts_phase3=attempts)


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    violations: tuple[str, ...] = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return self.ok


def verify_extension(g: Graph, result: ExtensionResult) -> VerificationReport:
    """Independently check a successful extension against its input graph.

    Verifies that the added edges are distinct complement edges, that the
    union is connected with all degrees even, and that the count stays
    within three edges per odd pair. By Euler's theorem a connected graph
    with all degrees even has an Euler circuit, so parity and connectivity
    are enough; no circuit is extracted.
    """
    if not result.success:
        raise ValueError("only successful extensions can be verified")
    violations: list[str] = []
    seen: set[tuple[int, int]] = set()
    for edge in result.added_edges:
        u, v = _vertex_index(edge.u), _vertex_index(edge.v)
        if u is None or v is None:
            violations.append(f"edge ({edge.u!r}, {edge.v!r}) has a non-integer endpoint")
            continue
        if not (0 <= u < g.n and 0 <= v < g.n):
            violations.append(f"edge ({u}, {v}) is out of range")
            continue
        if u == v:
            violations.append(f"edge ({u}, {v}) is a self-loop")
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            violations.append(f"edge {key} was added twice")
            continue
        seen.add(key)
        if g.has_edge(u, v):
            violations.append(f"edge {key} is already in the input graph")
    if violations:
        return VerificationReport(False, tuple(violations))

    union = g.copy()
    for u, v in seen:
        union.add_edge(u, v)
    odd = union.odd_mask.bit_count()
    if odd:
        violations.append(f"{odd} vertices still have odd degree")
    if not union.is_connected():
        violations.append("extended graph is not connected")
    if len(result.added_edges) > 3 * g.t_value():
        violations.append(
            f"{len(result.added_edges)} edges added, above three per odd pair "
            f"(t={g.t_value()})"
        )
    return VerificationReport(not violations, tuple(violations))


def _vertex_index(w) -> int | None:
    """w as a Python int when it is integer-like (numpy ints included), else None."""
    if isinstance(w, bool):
        return None
    try:
        return operator.index(w)
    except TypeError:
        return None
