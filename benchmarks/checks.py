"""Independent correctness checks, run outside the timed region.

Engine results are checked on a dense numpy adjacency matrix rebuilt from
the seeded draws; nothing here asks ``Graph`` about parity, connectivity
or circuits. Connectivity is a numpy frontier expansion: on these sizes
``scipy.sparse.csgraph`` costs 0.3 ms (n=9) to 3 ms (n=300) per call,
which made the checks cost more than the timed work. A check
returns its violations (empty when the output is right), the engine
outcome that feeds the quality figures, and the bytes that go into the
workload's digest.
"""

import csv
import io
import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from eulerext import extension, graph
from eulerext.experiment import EMITTED_FIELDS, trial_seed
from eulerext.oracle import ORACLE_MAX_VERTICES


@dataclass(frozen=True)
class Outcome:
    """One engine attempt, as counted by the quality figures."""

    success: bool
    added: int
    t: int
    oracle_min: int | None = None


@dataclass
class Checked:
    violations: list[str] = field(default_factory=list)
    outcome: Outcome | None = None
    digest: bytes = b""


def adjacency_from_draws(model, rng) -> np.ndarray:
    """Dense adjacency of the graph ``sample_graph(model, rng)`` would draw.

    Consumes the same uniforms (one per pair u < v, lexicographic), so the
    generator is left where the sampler would leave it.
    """
    n = model.n
    pvec = model.pair_probabilities()
    included = rng.random(pvec.shape[0]) < pvec
    iu, iv = _upper(n)
    adj = np.zeros((n, n), dtype=bool)
    adj[iu[included], iv[included]] = True
    return adj | adj.T


@lru_cache(maxsize=16)
def _upper(n: int):
    return np.triu_indices(n, k=1)


def complete_adjacency(n: int) -> np.ndarray:
    return ~np.eye(n, dtype=bool)


def is_connected(adj: np.ndarray) -> bool:
    """Does a breadth-first expansion from vertex 0 reach every vertex?"""
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def e_all_holds(adj: np.ndarray) -> bool:
    """Every pair has at least (ln n)^3 / 2 common non-neighbours."""
    n = adj.shape[0]
    non = ~adj
    np.fill_diagonal(non, False)
    b = non.astype(np.float32)
    common = b @ b  # exact: counts stay far below 2^24
    iu, iv = _upper(n)
    return bool(common[iu, iv].min() >= math.log(n) ** 3 / 2.0)


def has_three_path(adj: np.ndarray, u: int, v: int) -> bool:
    """Is there a detour u-y-z-v of three absent edges, y, z outside {u, v}?"""
    non = ~adj
    np.fill_diagonal(non, False)
    ys = non[u].copy()
    zs = non[v].copy()
    ys[[u, v]] = False
    zs[[u, v]] = False
    return bool(non[np.ix_(ys, zs)].any())


def check_extension(adj: np.ndarray, result) -> list[str]:
    """Violations of an engine result against its input adjacency.

    A success must add distinct complement edges, at most 3t of them,
    leaving every degree even and the union connected. A failure must be
    honest: ``disconnected_input`` on a disconnected input, or
    ``no_three_path`` naming a pair with no three-edge detour left.
    """
    n = adj.shape[0]
    t = int((adj.sum(axis=1) % 2).sum()) // 2
    violations = []
    if result.t_input != t:
        violations.append(f"t_input is {result.t_input}, the input has t={t}")
    union = adj.copy()
    seen = set()
    for e in result.added_edges:
        u, v = e.u, e.v
        if not (0 <= u < n and 0 <= v < n) or u == v:
            violations.append(f"edge ({u}, {v}) is not a pair of distinct vertices")
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            violations.append(f"edge {key} was added twice")
            continue
        seen.add(key)
        if adj[u, v]:
            violations.append(f"edge {key} is already in the input graph")
        union[u, v] = union[v, u] = True

    reason = result.failure_reason
    if result.success:
        if reason is not None:
            violations.append(f"success carries failure reason {reason!r}")
        if (union.sum(axis=1) % 2).any():
            violations.append("odd degrees remain after the extension")
        if not is_connected(union):
            violations.append("the extended graph is not connected")
        if len(result.added_edges) > 3 * t:
            violations.append(f"{len(result.added_edges)} edges added, above 3t={3 * t}")
    elif reason == extension.FAIL_DISCONNECTED:
        if is_connected(adj):
            violations.append("disconnected_input reported for a connected graph")
        if result.added_edges:
            violations.append("edges added to a disconnected input")
    elif reason == extension.FAIL_NO_THREE_PATH:
        if not is_connected(adj):
            violations.append("no_three_path reported for a disconnected graph")
        if result.failing_pair is None:
            violations.append("no_three_path without a failing pair")
        elif has_three_path(union, *result.failing_pair):
            violations.append(f"a detour exists for the failing pair {result.failing_pair}")
    else:
        violations.append(f"unknown failure reason {reason!r}")
    return violations


def check_trial(model, base_seed: int, record) -> Checked:
    """Replay one ``run_single_trial`` and check its record and extension.

    The trial is fully seeded, so sampling the same draws and running the
    engine with the same generator reproduces its extension, which the
    record itself does not carry.
    """
    rng = np.random.default_rng(trial_seed(base_seed, record.trial_index))
    adj = adjacency_from_draws(model, rng)
    result = extension.extend(graph.Graph.from_bool_adjacency(adj), rng=rng)
    degrees = adj.sum(axis=1)
    t = int((degrees % 2).sum()) // 2
    added = len(result.added_edges)
    counts = result.phase_counts()
    expected = {
        "seed": trial_seed(base_seed, record.trial_index),
        "n": model.n,
        "m_sampled": int(degrees.sum()) // 2,
        "delta_sampled": int(degrees.max()),
        "t_value": t,
        "connected": is_connected(adj),
        "e_all": e_all_holds(adj),
        "engine_success": result.success,
        "failure_reason": result.failure_reason,
        "edges_added": added,
        "pairing_edges": counts[extension.PHASE_PAIRING],
        "two_path_edges": counts[extension.PHASE_TWO_PATH],
        "three_path_edges": counts[extension.PHASE_THREE_PATH],
        "within_3t": result.success and added <= 3 * t,
    }
    violations = [
        f"record {key} is {getattr(record, key)!r}, expected {want!r}"
        for key, want in expected.items()
        if getattr(record, key) != want
    ]
    violations += check_extension(adj, result)

    oracle_min = record.oracle_min
    if model.n > ORACLE_MAX_VERTICES:
        if oracle_min is not None:
            violations.append("oracle result recorded above the oracle size cap")
    elif result.success:
        # sandwich: t <= oracle_min <= edges added <= 3t
        if oracle_min is None or not t <= oracle_min <= added <= 3 * t:
            violations.append(f"oracle sandwich fails: t={t}, oracle_min={oracle_min}, added={added}")
    elif oracle_min is not None and not t <= oracle_min <= 3 * t:
        violations.append(f"oracle_min={oracle_min} outside [t, 3t] with t={t}")
    return Checked(violations, Outcome(result.success, added, t, oracle_min))


def record_key(record) -> tuple:
    """A record's emitted fields: everything but its measured wall time."""
    return tuple(getattr(record, name) for name in EMITTED_FIELDS)


def check_records_file(path, records) -> Checked:
    """The CSV that ``write_records`` wrote holds exactly these records."""
    data = Path(path).read_bytes()
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    violations = []
    if not rows or rows[0] != list(EMITTED_FIELDS):
        violations.append(f"{path}: header is not EMITTED_FIELDS")
    body = rows[1:]
    if len(body) != len(records):
        violations.append(f"{path}: {len(body)} rows for {len(records)} records")
    index = EMITTED_FIELDS.index("trial_index")
    success = EMITTED_FIELDS.index("engine_success")
    for row, record in zip(body, records):
        if row[index] != str(record.trial_index) or row[success] != ("1" if record.engine_success else "0"):
            violations.append(f"{path}: row for trial {record.trial_index} does not match its record")
            break
    return Checked(violations, digest=data)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def check_bounds(kind: str, params: dict, output) -> Checked:
    """Exact alpha identities, plus the closed forms re-evaluated here.

    ``kind`` is "family" (param a), "homogeneous" (p) or "explicit"
    (the matrix); the explicit model's alpha statistics are compared with
    plain numpy row sums.
    """
    model, stats, condition, bparams, step = output
    n = model.n
    violations = []
    if kind == "family" and stats.alpha_up != params["a"]:
        violations.append(f"family alpha_up is {stats.alpha_up!r}, not a={params['a']!r}")
    if kind == "homogeneous":
        p = params["p"]
        if (stats.alpha_low, stats.alpha_up, stats.alpha_e) != (p, p, p):
            violations.append(f"homogeneous alpha stats are not ({p}, {p}, {p})")
    if kind == "explicit":
        mat = np.array(params["matrix"], dtype=float)
        np.fill_diagonal(mat, 0.0)
        averages = mat.sum(axis=1) / (n - 1)
        want = (averages.min(), averages.max(), mat.sum() / (n * (n - 1)))
        got = (stats.alpha_low, stats.alpha_up, stats.alpha_e)
        if not all(_close(g, w) for g, w in zip(got, want)):
            violations.append(f"explicit alpha stats {got} differ from numpy {want}")
    if len(stats.per_vertex_avg) != n:
        violations.append("per_vertex_avg does not have one entry per vertex")

    beta, gamma = bparams.beta, bparams.gamma
    lower = stats.alpha_low - n ** (-beta)
    upper = max(0.5, 1.0 - math.sqrt(stats.alpha_e / 2.0)) - n ** (-gamma) - stats.alpha_up
    if not (_close(condition.lower_slack, lower) and _close(condition.upper_slack, upper)):
        violations.append("condition slacks differ from the closed form")
    if condition.holds != (lower >= 0.0 and upper >= 0.0):
        violations.append("condition.holds disagrees with its slacks")
    factor = 1.0 + bparams.epsilon
    diff = 2.0 * (1.0 - stats.alpha_up * factor) ** 2 - (9.0 / n + stats.alpha_e * factor)
    if not _close(step.diff, diff):
        violations.append(f"step diff {step.diff!r} differs from the closed form {diff!r}")

    values = (
        kind, n, stats.alpha_low, stats.alpha_up, stats.alpha_e, condition.holds,
        condition.margin, bparams.zeta, bparams.epsilon, step.p_lower, step.q_upper,
        step.diff, step.product_log, step.analytic_floor,
    )
    return Checked(violations, digest=repr(values).encode() + b"\n")
