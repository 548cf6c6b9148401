"""Reproducible Monte Carlo harness over the sampler and the engine.

Each trial derives its own 64-bit seed from (base_seed, trial_index)
with a splitmix-style mixer, so trials are order-independent and runs
with the same config produce byte-identical output files. One trial
samples a graph, records its statistics and event memberships, runs the
extension engine, verifies any success independently, and (for tiny
graphs) cross-checks against the exact oracle.
"""

import csv
import json
import statistics
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .bounds import DEFAULT_BETA, DEFAULT_GAMMA, default_params, e_all_check, e_good_check
from .extension import FAIL_DISCONNECTED, extend, verify_extension
from .models import EdgeProbabilityModel, alpha_stats, sample_graph
from .oracle import ORACLE_MAX_VERTICES, min_extension_exact

__all__ = [
    "ConfigError",
    "trial_seed",
    "ExperimentConfig",
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


class ConfigError(ValueError):
    """Invalid experiment configuration."""


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
    if trial_index < 0:
        raise ValueError(f"trial index must be nonnegative, got {trial_index}")
    return _mix64((base_seed + (trial_index + 1) * _GOLDEN) & _MASK64)


@dataclass
class ExperimentConfig:
    model: EdgeProbabilityModel
    trials: int
    base_seed: int = 0
    beta: float = DEFAULT_BETA
    gamma: float = DEFAULT_GAMMA
    max_random_attempts: int | None = None
    out_path: str | None = None
    out_format: str = "csv"

    def __post_init__(self):
        if not isinstance(self.model, EdgeProbabilityModel):
            raise ConfigError(f"model must be an EdgeProbabilityModel, got {type(self.model).__name__}")
        if not isinstance(self.trials, int) or isinstance(self.trials, bool) or self.trials < 1:
            raise ConfigError(f"trials must be a positive int, got {self.trials!r}")
        if not isinstance(self.base_seed, int) or isinstance(self.base_seed, bool) or self.base_seed < 0:
            raise ConfigError(f"base seed must be a nonnegative int, got {self.base_seed!r}")
        try:
            default_params(self.model.n, self.beta, self.gamma)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.max_random_attempts is not None and (
            not isinstance(self.max_random_attempts, int) or self.max_random_attempts < 0
        ):
            raise ConfigError(f"max_random_attempts must be None or >= 0, got {self.max_random_attempts!r}")
        if self.out_format not in ("csv", "jsonl"):
            raise ConfigError(f"output format must be 'csv' or 'jsonl', got {self.out_format!r}")


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
    wall_time: float  # measured, so kept out of the emitted files


# wall_time would break byte-identical reruns; every other field is emitted
EMITTED_FIELDS = tuple(f.name for f in fields(TrialRecord) if f.name != "wall_time")


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
    A successful extension that fails independent verification is an
    engine bug and raises instead of being recorded.
    """
    seed = trial_seed(base_seed, trial_index)
    rng = np.random.default_rng(seed)
    start = time.perf_counter()

    g = sample_graph(model, rng)
    stats = alpha_stats(model)
    params = default_params(model.n, beta, gamma)
    good = e_good_check(g, stats, params)
    all_ok = e_all_check(g)

    result = extend(g, rng=rng, max_random_attempts=max_random_attempts)
    if result.success:
        report = verify_extension(g, result)
        if not report.ok:
            raise RuntimeError(
                "engine produced an invalid extension: " + "; ".join(report.violations)
            )

    oracle_min = None
    if g.n <= ORACLE_MAX_VERTICES:
        answer = min_extension_exact(g)
        oracle_min = answer.min_edges

    counts = result.phase_counts()
    wall = time.perf_counter() - start
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
        edges_added=len(result.added_edges),
        pairing_edges=counts["pairing"],
        two_path_edges=counts["two_path"],
        three_path_edges=counts["three_path"],
        within_3t=result.success and len(result.added_edges) <= 3 * result.t_input,
        oracle_min=oracle_min,
        wall_time=wall,
    )


def run_trials(config: ExperimentConfig) -> tuple[list[TrialRecord], "Summary"]:
    """Run all configured trials; write the record file if a path is set."""
    records = [
        run_single_trial(
            config.model,
            i,
            config.base_seed,
            beta=config.beta,
            gamma=config.gamma,
            max_random_attempts=config.max_random_attempts,
        )
        for i in range(config.trials)
    ]
    if config.out_path is not None:
        write_records(records, config.out_path, config.out_format)
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

    def as_dict(self) -> dict:
        return asdict(self)


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
    if isinstance(value, float):
        return format(value, ".9g")
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

