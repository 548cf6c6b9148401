"""Shared test helpers: small independent reference implementations.

The graph references work on plain (n, edge set) pairs with dicts and
sets, deliberately avoiding the package's bitset machinery, so tests
compare two unrelated computations of the same quantity.
"""

import math
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np

from eulerext import (
    PHASE_PAIRING,
    PHASE_THREE_PATH,
    PHASE_TWO_PATH,
    AddedEdge,
    AlphaStats,
    Graph,
    HomogeneousModel,
    sample_graph,
    trial_seed,
)
from eulerext.extension import ThreePathOutcome


def adj_sets(n, edges):
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def connected_ref(n, edges):
    """BFS reachability from vertex 0 over all n vertices."""
    if n <= 1:
        return True
    adj = adj_sets(n, edges)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen) == n


def reachable_from_ref(g, start, goal):
    """The level-by-level search that Graph._reachable_from's early exit
    replaced: whole breadth-first levels from start until one leaves every
    vertex of the goal bitset visited (public Graph API only)."""
    full = (1 << g.n) - 1
    rows = [full & ~g.non_neighbors_mask(v) & ~(1 << v) for v in range(g.n)]
    visited = frontier = 1 << start
    while frontier and goal & ~visited:
        nxt = 0
        for v in range(g.n):
            if (frontier >> v) & 1:
                nxt |= rows[v]
        frontier = nxt & ~visited
        visited |= frontier
    return visited


def odd_vertices_ref(n, edges):
    adj = adj_sets(n, edges)
    return {v for v in range(n) if len(adj[v]) % 2 == 1}


def bitset(vertices):
    return sum(1 << v for v in vertices)


def with_edges(g, edges):
    """A copy of g with the given AddedEdge list added through add_edge."""
    union = g.copy()
    for edge in edges:
        union.add_edge(edge.u, edge.v)
    return union


def has_edge(g, u, v):
    """Whether u and v are adjacent in g, read from its edge list."""
    return (min(u, v), max(u, v)) in g.edges()


def common_non_neighbors_ref(n, edges, u, v):
    adj = adj_sets(n, edges)
    return {z for z in range(n) if z not in (u, v) and z not in adj[u] and z not in adj[v]}


def circuit_covers(n, edges, vertices):
    """Is the vertex sequence a closed walk using each edge exactly once?"""
    edges = {(min(a, b), max(a, b)) for a, b in edges}
    if not edges:
        return len(vertices) <= 1
    if len(vertices) < 2 or vertices[0] != vertices[-1]:
        return False
    used = set()
    for a, b in zip(vertices, vertices[1:]):
        key = (min(a, b), max(a, b))
        if key not in edges or key in used:
            return False
        used.add(key)
    return used == edges


def all_pairs(n):
    return list(combinations(range(n), 2))


def all_graph_edge_sets(n):
    """Every labeled simple graph on n vertices, as edge tuples."""
    pairs = all_pairs(n)
    for mask in range(1 << len(pairs)):
        yield tuple(pairs[i] for i in range(len(pairs)) if (mask >> i) & 1)


def random_edges(rnd, n, p=0.5):
    return [e for e in all_pairs(n) if rnd.random() < p]


def random_connected_edges(rnd, n, p=0.5):
    """Rejection-sample a connected graph; always terminates for n <= 8."""
    while True:
        edges = random_edges(rnd, n, p)
        if connected_ref(n, edges):
            return edges


def components_ref(n, edges):
    """The vertex sets of the connected components, by depth-first search."""
    adj = adj_sets(n, edges)
    seen, components = set(), []
    for start in range(n):
        if start not in seen:
            component, stack = {start}, [start]
            while stack:
                for w in adj[stack.pop()] - component:
                    component.add(w)
                    stack.append(w)
            seen |= component
            components.append(component)
    return components


def odd_complement_matching_ref(n, edges):
    """nu: the size of a maximum matching of the complement restricted to
    the odd vertices, by trying every partner of the lowest free vertex."""
    adj = adj_sets(n, edges)

    def best(free):
        if len(free) < 2:
            return 0
        u, rest = free[0], free[1:]
        size = best(rest)
        for v in rest:
            if v not in adj[u]:
                size = max(size, 1 + best([w for w in rest if w != v]))
        return size

    return best(sorted(odd_vertices_ref(n, edges)))


def is_valid_extension_ref(n, edges, added):
    """Reference check: added edges absent, union connected and all-even."""
    base = {(min(a, b), max(a, b)) for a, b in edges}
    extra = [(min(a, b), max(a, b)) for a, b in added]
    if len(set(extra)) != len(extra) or any(e in base for e in extra):
        return False
    union = base | set(extra)
    return connected_ref(n, union) and not odd_vertices_ref(n, union)


def min_extension_exact_ref(g, cap=None):
    """(min_edges, witness) of the subset search from size t up to the cap,
    with no component bound: the reference for min_extension_exact's
    start at t + c0 (public Graph API only)."""
    n, t = g.n, g.t_value()
    if cap is None:
        cap = 3 * t
    comp = [(u, v) for u in range(n) for v in range(u + 1, n) if (g.non_neighbors_mask(u) >> v) & 1]
    for k in range(t, min(cap, len(comp)) + 1):
        for chosen in combinations(comp, k):
            parity = 0
            for u, v in chosen:
                parity ^= (1 << u) | (1 << v)
            if parity != g.odd_mask:
                continue
            trial = g.copy()
            for u, v in chosen:
                trial.add_edge(u, v)
            if trial.is_connected():
                return k, chosen
    return None, None


# -- the pair-at-a-time loops the engine and e_all_check replaced with
# word-parallel kernels, kept as references (public Graph API only) --


def min_common_non_neighbors_ref(g):
    n = g.n
    if n < 2:
        raise ValueError("need at least two vertices")
    non = [g.non_neighbors_mask(u) for u in range(n)]
    best = n
    for u in range(n - 1):
        nu = non[u]
        for v in range(u + 1, n):
            c = (nu & non[v]).bit_count()
            if c < best:
                best = c
    return best


def phase_pairing_ref(g):
    odd = sorted(odd_vertices_ref(g.n, g.edges()))
    matched = set()
    added = []
    for i, u in enumerate(odd):
        if u in matched:
            continue
        for v in odd[i + 1:]:
            if v in matched or has_edge(g, u, v):
                continue
            g.add_edge(u, v)
            added.append(AddedEdge(u, v, PHASE_PAIRING))
            matched.add(u)
            matched.add(v)
            break
    residual = [u for u in odd if u not in matched]
    return added, residual


def find_reduction_ref(g, pending, blocked):
    for i, x in enumerate(pending):
        nx = g.non_neighbors_mask(x)
        for y in pending[i + 1:]:
            candidates = nx & g.non_neighbors_mask(y) & ~blocked
            if candidates:
                z = (candidates & -candidates).bit_length() - 1
                return x, y, z
    return None


def phase_clique_reduction_ref(g, residual):
    """The restart loop the one-pass phase two replaced: find the first
    pair again after every repair."""
    blocked = 0
    for v in residual:
        blocked |= 1 << v
    pending = list(residual)
    added = []
    while True:
        found = find_reduction_ref(g, pending, blocked)
        if found is None:
            break
        x, y, z = found
        for a, b in ((x, z), (y, z)):
            lo, hi = (a, b) if a < b else (b, a)
            g.add_edge(lo, hi)
            added.append(AddedEdge(lo, hi, PHASE_TWO_PATH))
        pending.remove(x)
        pending.remove(y)
    return added, pending


def valid_three_path_ref(g, u, v, y, z):
    if y == z or y == u or y == v or z == u or z == v:
        return None
    if has_edge(g, y, z):
        return None
    mid = (min(y, z), max(y, z))
    if not has_edge(g, u, y) and not has_edge(g, z, v):
        return ((min(u, y), max(u, y)), mid, (min(z, v), max(z, v)))
    if not has_edge(g, u, z) and not has_edge(g, y, v):
        return ((min(u, z), max(u, z)), mid, (min(y, v), max(y, v)))
    return None


def scan_three_path_ref(g, u, v):
    for y in range(g.n):
        for z in range(g.n):
            triple = valid_three_path_ref(g, u, v, y, z)
            if triple is not None:
                return triple
    return None


def phase_three_paths_ref(g, clique, rng, max_attempts_per_pair):
    """Phase three's probe-then-scan loop over the two references above,
    drawing each probe coordinate by one scalar rng.integers call."""
    pend = sorted(clique)
    added = []
    attempts = 0
    for u, v in zip(pend[::2], pend[1::2]):
        triple = None
        if rng is not None:
            for _ in range(max_attempts_per_pair):
                attempts += 1
                y = int(rng.integers(g.n))
                z = int(rng.integers(g.n))
                triple = valid_three_path_ref(g, u, v, y, z)
                if triple is not None:
                    break
        if triple is None:
            triple = scan_three_path_ref(g, u, v)
        if triple is None:
            return ThreePathOutcome(tuple(added), attempts, failing_pair=(u, v))
        for lo, hi in triple:
            g.add_edge(lo, hi)
            added.append(AddedEdge(lo, hi, PHASE_THREE_PATH))
    return ThreePathOutcome(tuple(added), attempts, failing_pair=None)


def rng_state(rng):
    """A generator's bit-generator state with its arrays as lists, so two
    states compare with ==; None for no generator."""
    def plain(value):
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value

    return None if rng is None else plain(rng.bit_generator.state)


def sample_graph_ref(model, rng):
    """The scatter sampler that sample_graph's triangle mask replaced."""
    n = model.n
    pvec = model.pair_probabilities()
    draws = rng.random(pvec.shape[0])
    included = draws < pvec
    iu, iv = np.triu_indices(n, k=1)
    adj = np.zeros((n, n), dtype=bool)
    su, sv = iu[included], iv[included]
    adj[su, sv] = True
    adj[sv, su] = True
    return Graph.from_bool_adjacency(adj)


def alpha_stats_ref(model):
    """The per-row alpha_stats that the row-run version replaced.

    One exact Fraction row sum per vertex, from a Counter of the row's
    off-diagonal slots, so it shares only probability_row with the
    library. It does not read or fill the model's cache, so it never hands
    back the library's answer. Its runs are single vertices, so compare
    per_vertex_avg and the alpha fields, not run_avgs.
    """
    n = model.n
    seen: dict[float, Fraction] = {}
    sums = []
    for u in range(n):
        row = model.probability_row(u).tolist()
        del row[u]
        s = Fraction(0)
        for value, count in Counter(row).items():
            frac = seen.get(value)
            if frac is None:
                frac = seen[value] = Fraction(value)
            s += frac * count
        sums.append(s)
    averages = [s / (n - 1) for s in sums]
    low = min(averages)
    up = max(averages)
    # sum over rows counts each pair twice
    overall = sum(sums) / (n * (n - 1))
    return AlphaStats(
        alpha_low=float(low),
        alpha_up=float(up),
        alpha_e=float(overall),
        run_avgs=tuple((range(u, u + 1), float(x)) for u, x in enumerate(averages)),
    )


def row_classes_ref(model):
    """The per-row row_classes that ExplicitModel's neighbour compare replaced.

    Reads each row once through probability_row, keeps only the previous
    sorted row and starts a new run wherever the sorted row differs, so
    its runs are maximal, ascending and nonempty.
    """
    starts, previous = [0], np.sort(model.probability_row(0))
    for u in range(1, model.n):
        current = np.sort(model.probability_row(u))
        if not np.array_equal(current, previous):
            starts.append(u)
        previous = current
    return [range(lo, hi) for lo, hi in zip(starts, starts[1:] + [model.n])]


def family_probability_ref(n, a, b, u, v):
    """Pointwise rule of the example family, one pair at a time.

    With k = floor(n / ln n): the last vertex's pairs are a (its cycle
    edges included), then cycle edges are 1, pairs inside {0..k-1} are 1,
    pairs inside {k..2n/ln n - 1} are 0, and everything else is b.
    """
    if u > v:
        u, v = v, u
    k = int(n / math.log(n))
    k2 = int(2 * n / math.log(n))
    if v == n - 1:
        return a
    if v - u == 1:
        return 1.0  # cycle edge; the (0, n-1) wrap is the case above
    if v < k:
        return 1.0
    if u >= k and v < k2:
        return 0.0
    return b


def odd_fraction_probe(n, p, trials, seed=0):
    """Mean fraction of odd-degree vertices over sampled same-probability graphs.

    For p strictly inside (0, 1) the fraction concentrates near 1/2; the
    p = 1 endpoint is allowed for parity sanity checks on complete graphs.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"edge probability must lie in (0, 1], got {p}")
    if trials < 1:
        raise ValueError("need at least one trial")
    model = HomogeneousModel(n, p)
    total = 0.0
    for i in range(trials):
        rng = np.random.default_rng(trial_seed(seed, i))
        g = sample_graph(model, rng)
        total += g.odd_mask.bit_count() / n
    return total / trials


_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion, always printed."""
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            m = _CRITERION.search(getattr(report, "nodeid", "") or "")
            if not m:
                continue
            idx = int(m.group(1))
            if status == "passed":
                outcomes.setdefault(idx, "PASS")
            else:
                outcomes[idx] = "FAIL"
    if not outcomes:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for idx in sorted(outcomes):
        terminalreporter.write_line(f"criterion {idx}: {outcomes[idx]}")
