"""Reproducible Monte Carlo harness over the sampler and the engine.

Each trial derives its own 64-bit seed from (base_seed, trial_index)
with a splitmix-style mixer, so trials are order-independent and runs
with the same settings produce byte-identical output files. One trial
samples a graph, records its statistics and event memberships, runs the
extension engine, verifies any success independently, and (for tiny
graphs) cross-checks against the exact oracle.
"""

import csv
import json
import math
import statistics
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .bounds import DEFAULT_BETA, DEFAULT_GAMMA, default_params, e_all_check, e_good_check
from .extension import FAIL_DISCONNECTED, _probe_budget, _two_path_step_or_raise, _verify_or_raise, extend
from .graph import _as_int
from .models import EdgeProbabilityModel, alpha_stats, sample_graph
from .oracle import ORACLE_MAX_VERTICES, min_extension_exact

__all__ = [
    "trial_seed",
    "TrialRecord",
    "EMITTED_FIELDS",
    "Summary",
    "run_single_trial",
    "run_trials",
    "summarize",
    "write_records",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def trial_seed(base_seed: int, trial_index: int) -> int:
    """Per-trial 64-bit seed: splitmix output of base + (i+1) increments.

    seed_i = mix64((base_seed + (trial_index + 1) * 0x9E3779B97F4A7C15) mod 2^64)
    with the standard splitmix finalizer as mix64, so trial_seed(0, 0) is
    0xE220A8397B1DCDAF. Documented so runs can be replicated elsewhere.
    """
    base_seed = _as_int(base_seed, ValueError, "base seed must be an int", -math.inf)
    trial_index = _as_int(trial_index, ValueError, "trial index must be a nonnegative int")
    return _mix64((base_seed + (trial_index + 1) * _GOLDEN) & _MASK64)


def _draw_trial(model: EdgeProbabilityModel, base_seed: int, trial_index: int):
    """(seed, rng, g) of one trial; rng goes on to drive the engine's probes,
    and `eulerext sample` draws the same g as the trial it names."""
    seed = trial_seed(base_seed, trial_index)
    rng = np.random.default_rng(seed)
    return seed, rng, sample_graph(model, rng)


@dataclass
class TrialRecord:
    trial_index: int
    seed: int
    n: int
    m_sampled: int
    delta_sampled: int
    t_value: int
    connected: bool
    e_good_deg: bool
    e_good_edge: bool
    e_all: bool
    engine_success: bool
    failure_reason: str | None
    edges_added: int
    pairing_edges: int
    two_path_edges: int
    three_path_edges: int
    within_3t: bool
    oracle_min: int | None


EMITTED_FIELDS = tuple(f.name for f in fields(TrialRecord))


def run_single_trial(
    model: EdgeProbabilityModel,
    trial_index: int,
    base_seed: int,
    beta: float = DEFAULT_BETA,
    gamma: float = DEFAULT_GAMMA,
    max_random_attempts: int | None = None,
) -> TrialRecord:
    """Sample, check events, extend, verify; one fully seeded observation.

    The same generator drives sampling and the engine's random probing,
    so the whole trial is a function of trial_seed(base_seed, trial_index).
    A successful extension that fails independent verification, or a
    connected sample in E_all that the engine does not extend with exactly
    2t - (pairing edges) edges and no three-edge detour, is an engine bug
    and raises instead of being recorded.
    """
    # draw no random numbers, so a bad beta, gamma or budget fails before sampling
    params = default_params(model.n, beta, gamma)
    max_random_attempts = _probe_budget(max_random_attempts)
    seed, rng, g = _draw_trial(model, base_seed, trial_index)
    stats = alpha_stats(model)
    good = e_good_check(g, stats, params)
    all_ok = e_all_check(g)

    result = extend(g, rng=rng, max_random_attempts=max_random_attempts)
    _verify_or_raise(g, result)
    _two_path_step_or_raise(result, all_ok)

    oracle_min = None
    if g.n <= ORACLE_MAX_VERTICES:
        answer = min_extension_exact(g)
        oracle_min = answer.min_edges

    return TrialRecord(
        trial_index=trial_index,
        seed=seed,
        n=g.n,
        m_sampled=g.m,
        delta_sampled=g.max_degree(),
        t_value=result.t_input,
        connected=result.failure_reason != FAIL_DISCONNECTED,
        e_good_deg=good.deg_ok,
        e_good_edge=good.edge_ok,
        e_all=all_ok,
        engine_success=result.success,
        failure_reason=result.failure_reason,
        **result.count_fields(),
        # a success has passed the verifier, which rejects more than 3t added edges
        within_3t=result.success,
        oracle_min=oracle_min,
    )


def run_trials(
    model: EdgeProbabilityModel,
    trials: int,
    base_seed: int = 0,
    beta: float = DEFAULT_BETA,
    gamma: float = DEFAULT_GAMMA,
    max_random_attempts: int | None = None,
) -> tuple[list[TrialRecord], "Summary"]:
    """Run trials 0 .. trials-1 of run_single_trial; returns records and summary.

    Only the trial count and the model's type are checked here; the base
    seed, beta and gamma, and the probe budget are checked where they are
    used (trial_seed, default_params, extend's budget rule), within trial
    0 and before its sample is drawn.
    """
    if not isinstance(model, EdgeProbabilityModel):
        raise ValueError(f"model must be an EdgeProbabilityModel, got {type(model).__name__}")
    trials = _as_int(trials, ValueError, "trials must be a positive int", 1)
    records = [
        run_single_trial(model, i, base_seed, beta, gamma, max_random_attempts)
        for i in range(trials)
    ]
    return records, summarize(records)


@dataclass(frozen=True)
class Summary:
    trials: int
    success_fraction: float
    within_3t_fraction: float
    connected_fraction: float
    e_good_deg_fraction: float
    e_good_edge_fraction: float
    e_all_fraction: float
    t_mean: float
    t_std: float
    edges_added_mean: float
    edges_added_std: float
    delta_mean: float
    delta_std: float
    m_mean: float
    m_std: float


def summarize(records: list[TrialRecord]) -> Summary:
    """Fractions of the recorded events plus moments of the key statistics."""
    if not records:
        raise ValueError("cannot summarize an empty record list")
    k = len(records)

    def frac(attr):
        return sum(1 for r in records if getattr(r, attr)) / k

    def moments(attr):
        xs = [getattr(r, attr) for r in records]
        return statistics.fmean(xs), statistics.pstdev(xs)

    t_mean, t_std = moments("t_value")
    e_mean, e_std = moments("edges_added")
    d_mean, d_std = moments("delta_sampled")
    m_mean, m_std = moments("m_sampled")
    return Summary(
        trials=k,
        success_fraction=frac("engine_success"),
        within_3t_fraction=frac("within_3t"),
        connected_fraction=frac("connected"),
        e_good_deg_fraction=frac("e_good_deg"),
        e_good_edge_fraction=frac("e_good_edge"),
        e_all_fraction=frac("e_all"),
        t_mean=t_mean,
        t_std=t_std,
        edges_added_mean=e_mean,
        edges_added_std=e_std,
        delta_mean=d_mean,
        delta_std=d_std,
        m_mean=m_mean,
        m_std=m_std,
    )


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def write_records(records: list[TrialRecord], path, fmt: str):
    """Emit trial records as CSV (bools 0/1, blanks for missing) or JSONL.

    Both formats carry the same keys in the same order and are stable
    byte-for-byte across reruns of the same config.
    """
    path = Path(path)
    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(EMITTED_FIELDS)
            for r in records:
                writer.writerow(_csv_cell(getattr(r, name)) for name in EMITTED_FIELDS)
    elif fmt == "jsonl":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            for r in records:
                obj = {name: getattr(r, name) for name in EMITTED_FIELDS}
                fh.write(json.dumps(obj, separators=(",", ":")))
                fh.write("\n")
    else:
        raise ValueError(f"unknown record format {fmt!r}")

