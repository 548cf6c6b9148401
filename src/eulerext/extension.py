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
from dataclasses import dataclass

import numpy as np

from .graph import Graph, GraphError, _as_int, _bits

__all__ = [
    "PHASE_PAIRING",
    "PHASE_TWO_PATH",
    "PHASE_THREE_PATH",
    "FAIL_DISCONNECTED",
    "FAIL_NO_THREE_PATH",
    "AddedEdge",
    "ExtensionResult",
    "VerificationReport",
    "extend",
    "verify_extension",
]

PHASE_PAIRING = "pairing"
PHASE_TWO_PATH = "two_path"
PHASE_THREE_PATH = "three_path"

FAIL_DISCONNECTED = "disconnected_input"
FAIL_NO_THREE_PATH = "no_three_path"

# phase three draws at most this many probes per vector call (16 KB of int64)
PROBE_BLOCK = 1024


@dataclass(frozen=True)
class AddedEdge:
    """One complement edge added by the engine, tagged with its phase."""

    u: int
    v: int
    phase: str


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

    def count_fields(self) -> dict[str, int]:
        """edges_added and one <phase>_edges count per phase, as a trial
        record and `eulerext extend` report them."""
        phases = {f"{phase}_edges": k for phase, k in self.phase_counts().items()}
        return {"edges_added": len(self.added_edges), **phases}

    def edge_pairs(self) -> list[tuple[int, int]]:
        return [(e.u, e.v) for e in self.added_edges]


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
    edges and the unmatched vertices in residual order. extend hands it
    phase one's residual: distinct vertices, ascending.
    """
    blocked = sum(1 << x for x in residual)
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

    Pairs the pending vertices, which extend hands over distinct and of
    even count, consecutively in ascending order. For each pair (u, v) it
    probes uniformly random (y, z) up to the attempt budget looking for a
    detour u-y-z-v (either orientation) made of three absent edges, then
    falls back to a full lexicographic scan. Only a pair with no detour at
    all stops the phase. extend checks that rng is None (no probes) or a
    numpy Generator and that the budget is an int >= 0. The generator ends
    after 2 * attempts draws, where one scalar rng.integers(n) per probe
    coordinate, y then z, would leave it.
    """
    pend = sorted(clique)
    added: list[AddedEdge] = []
    attempts = 0
    for u, v in zip(pend[::2], pend[1::2]):
        ends = (1 << u) | (1 << v)
        nu, nv = g.non_neighbors_mask(u) & ~ends, g.non_neighbors_mask(v) & ~ends
        triple = None
        if rng is not None and max_attempts_per_pair:
            triple, used = _probe_three_path(g, u, v, nu, nv, rng, max_attempts_per_pair)
            attempts += used
        if triple is None:
            triple = _scan_three_path(g, u, v, nu, nv)
        if triple is None:
            return ThreePathOutcome(tuple(added), attempts, failing_pair=(u, v))
        for lo, hi in triple:
            g.add_edge(lo, hi)
            added.append(AddedEdge(lo, hi, PHASE_THREE_PATH))
    return ThreePathOutcome(tuple(added), attempts, failing_pair=None)


def _probe_three_path(g: Graph, u: int, v: int, nu: int, nv: int, rng, budget: int):
    """First detour among up to budget random probes (y, z), and the
    number of probes used, with nu and nv as in _scan_three_path.

    Each block of probes is one rng.integers call, screened by the 0/1
    rows of nu and nv; only the screened probes are tested in full. On a
    hit the generator is rewound to the block's start and advanced by the
    probes up to the hit, so it ends exactly where a loop of scalar draws
    that stops at the hit would leave it.
    """
    n = g.n
    in_u, in_v = g.non_neighbor_matrix([u, v])
    in_u[[u, v]] = in_v[[u, v]] = False
    used = 0
    while used < budget:
        k = min(PROBE_BLOCK, budget - used)
        state = rng.bit_generator.state
        y, z = rng.integers(n, size=(k, 2)).T
        for j in np.flatnonzero((in_u[y] & in_v[z]) | (in_u[z] & in_v[y])).tolist():
            triple = _valid_three_path(g, u, v, nu, nv, int(y[j]), int(z[j]))
            if triple is not None:
                rng.bit_generator.state = state
                rng.integers(n, size=2 * (j + 1))
                return triple, used + j + 1
        used += k
    return None, used


def _valid_three_path(g: Graph, u: int, v: int, nu: int, nv: int, y: int, z: int):
    """Edges of a three-edge detour from u to v through y then z, or None,
    with nu and nv as in _scan_three_path."""
    if (nu >> y) & 1 and (nv >> z) & 1:
        a, b = y, z
    elif (nu >> z) & 1 and (nv >> y) & 1:
        a, b = z, y
    else:
        return None
    if not (g.non_neighbors_mask(y) >> z) & 1:  # also rejects y == z
        return None
    return ((min(u, a), max(u, a)), (min(y, z), max(y, z)), (min(b, v), max(b, v)))


def _scan_three_path(g: Graph, u: int, v: int, nu: int, nv: int):
    """First detour of the (y, z) lexicographic scan, or None, given nu
    and nv, the non-neighbours of u and of v other than u and v.

    For each middle vertex y, the z that complete u-y-z-v are the common
    non-neighbours of y and v (when y is a non-neighbour of u), and the z
    that complete u-z-y-v are those of y and u (when y is a non-neighbour
    of v); the lowest z of either set is the scan's witness for that y.
    """
    for y in _bits(nu | nv):
        ny = g.non_neighbors_mask(y)
        first = ny & nv if (nu >> y) & 1 else 0
        second = ny & nu if (nv >> y) & 1 else 0
        zs = first | second
        if zs:
            z = (zs & -zs).bit_length() - 1
            return _valid_three_path(g, u, v, nu, nv, y, z)
    return None


def _probe_budget(max_random_attempts) -> int | None:
    """extend's per-pair probe budget: None (the default) or an int >= 0;
    ValueError otherwise."""
    if max_random_attempts is not None:
        return _as_int(max_random_attempts, ValueError, "max_random_attempts must be None or >= 0")


def extend(g: Graph, rng=None, max_random_attempts: int | None = None) -> ExtensionResult:
    """Add complement edges to make g Eulerian.

    The input graph is left untouched. With an rng, phase three probes
    random detours first (default budget 64 * ceil(ln n) per pair); with
    rng=None it goes straight to the deterministic exhaustive scan, so the
    whole run is reproducible without a seed. The failure reason is
    FAIL_DISCONNECTED exactly when g is not connected.

    rng is None or a numpy Generator. The run advances it by exactly
    2 * attempts_phase3 draws, to where one scalar rng.integers(n) per
    probe coordinate would leave it. Another rng type or a budget that is
    not None or an int >= 0 raises ValueError before any work.
    """
    if rng is not None and not isinstance(rng, np.random.Generator):
        raise ValueError(f"rng must be None or a numpy Generator, got {type(rng).__name__}")
    max_random_attempts = _probe_budget(max_random_attempts)
    if not g.is_connected():
        return ExtensionResult(False, g.t_value(), (), failure_reason=FAIL_DISCONNECTED)
    t = g.t_value()
    if t == 0:
        return ExtensionResult(True, 0, ())
    if max_random_attempts is None:
        # t > 0 needs two odd vertices, so n >= 2 and the log is positive
        max_random_attempts = 64 * math.ceil(math.log(g.n))
    work = g.copy()
    # the phases are called through module globals, which benchmarks/tracing.py rebinds to time them
    added, residual = phase_pairing(work)
    two_path, pending = phase_clique_reduction(work, residual)
    added.extend(two_path)
    attempts, failing = 0, None
    if pending:
        outcome = phase_three_paths(work, pending, rng, max_random_attempts)
        added.extend(outcome.edges)
        attempts, failing = outcome.attempts, outcome.failing_pair
    reason = None if failing is None else FAIL_NO_THREE_PATH
    return ExtensionResult(failing is None, t, tuple(added), reason, failing, attempts)


@dataclass(frozen=True)
class VerificationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_extension(g: Graph, result: ExtensionResult) -> VerificationReport:
    """Independently check a successful extension against its input graph.

    Adds the edges to a copy of g with Graph.add_edge, so an edge fails by
    the same rule as anywhere else; each GraphError is a violation naming
    the edge as given. Then checks that the union is connected with all
    degrees even and that at most three edges per odd pair were added. By
    Euler's theorem that is enough for an Euler circuit, so none is
    extracted.
    """
    if not result.success:
        raise ValueError("only successful extensions can be verified")
    violations: list[str] = []
    union = g.copy()
    for edge in result.added_edges:
        try:
            union.add_edge(edge.u, edge.v)
        except GraphError as exc:
            violations.append(f"edge ({edge.u!r}, {edge.v!r}): {exc}")
    if violations:
        return VerificationReport(tuple(violations))
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
    return VerificationReport(tuple(violations))


def _verify_or_raise(g: Graph, result: ExtensionResult):
    """Raise RuntimeError when a successful result fails verify_extension;
    a failed result passes. The engine's callers run this before they use
    or record a success, since an invalid one is an engine bug."""
    if result.success:
        report = verify_extension(g, result)
        if not report.ok:
            raise RuntimeError("engine produced an invalid extension: " + "; ".join(report.violations))


def _two_path_step_or_raise(result: ExtensionResult, e_all: bool):
    """Raise RuntimeError when a connected input in E_all did not succeed
    with no phase-three edge and exactly 2t - (pairing edges) edges.

    Every pair of phase one's residual clique is adjacent, so its common
    non-neighbours lie outside the clique, and E_all gives each pair at
    least one; phase two's first candidate partner therefore always works.
    Anything else is an engine bug.
    """
    if not e_all or result.failure_reason == FAIL_DISCONNECTED:
        return
    counts = result.phase_counts()
    expected = 2 * result.t_input - counts[PHASE_PAIRING]
    if not result.success or counts[PHASE_THREE_PATH] or len(result.added_edges) != expected:
        raise RuntimeError(
            f"engine left the two-path step on a connected input in E_all: success={result.success}, "
            f"{counts[PHASE_THREE_PATH]} three-path edges, {len(result.added_edges)} edges added "
            f"against {expected}"
        )
