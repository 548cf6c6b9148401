"""Measurement loop and metrics, shared by ``run.py`` and the tests.

A measurement runs a workload's fixed passes in rounds until the timed
work reaches the requested seconds (see ``run_rounds``). Each call counts
with the mean of its runs, scaled to a reference host speed (see
``timing_metrics``). Only the calls into the library (and
``write_records`` at the end of a pass) are timed; inputs are built and
outputs checked between them: fully on a call's first run, and against
the first run's fingerprint on the others. Quality figures and the digest
come from the first run of pass 0 alone, so they depend on the seed and
not on the run length.
"""

import hashlib
import statistics
import time
from array import array
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from benchmarks import tracing

# metric -> (unit, better); BENCHMARK.json lists the same
END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "op_ms_p50": ("ms", "lower"),
    "op_ms_tail": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

QUALITY = {
    "success_fraction": ("fraction", "higher"),
    "added_per_t": ("edges/pair", "lower"),
    "oracle_gap": ("edges", "lower"),
}

TRACE = {
    "trace.ops_per_s_traced": ("1/s", "higher"),
    "trace.ops_per_s_untraced": ("1/s", "higher"),
    "trace.overhead": ("fraction", "lower"),
}


def per_layer_units() -> dict[str, tuple[str, str]]:
    out = {}
    for layer in tracing.LAYERS:
        for stat, unit in tracing.LAYER_STATS.items():
            out[f"{layer}.{stat}"] = (unit, "higher" if stat == "calls" else "lower")
    out.update((name, ("count", "lower")) for name in tracing.COUNTS)
    out.update(QUALITY)
    out.update(TRACE)
    return out


# rounds a measurement runs at least
MIN_ROUNDS = 5

# the reference pieces' mean time, together, on the host the baseline in
# README.md was measured on (2-vCPU Intel Xeon VM, Python 3.11, numpy
# 2.4) when it runs fast; the timing metrics are scaled to a host on which
# they take this long
REFERENCE_SECONDS = 0.005
REFERENCE_PIECES = 8
# a reference piece runs after each this many seconds of timed calls
REFERENCE_EVERY = 0.05


class _Bits:
    def __init__(self, rows, n):
        self.rows = rows
        self.n = n

    def _check(self, v):
        if not isinstance(v, int) or not 0 <= v < self.n:
            raise ValueError(v)

    def has(self, u: int, v: int) -> bool:
        self._check(u)
        self._check(v)
        return (self.rows[u] >> v) & 1 == 1


def reference_piece(k: int) -> int:
    """Piece k of fixed work in the library's idiom but outside it: a scan
    for absent-edge paths through checked method calls on Python-integer
    bitsets, a Fraction sum and a small numpy array."""
    rng = np.random.default_rng(k)
    n = 24
    bits = _Bits([int(x) for x in rng.integers(0, 2**n, size=n)], n)
    acc = 0
    for y in range(n):
        for z in range(n):
            if y != z and not bits.has(y, z) and not bits.has(0, y) and not bits.has(z, 1):
                acc += 1
    total = Fraction(0)
    for v in rng.integers(1, 9, size=10).tolist():
        total += Fraction(v, 10)
    return acc + total.numerator + int(np.unique(rng.integers(0, 50, size=200)).size)


class HostProbe:
    """Samples the host's speed between timed calls.

    After every REFERENCE_EVERY seconds of timed calls it runs the next
    reference piece, so the pieces sample the measurement evenly in time.
    """

    def __init__(self):
        self.seconds = np.zeros(REFERENCE_PIECES)
        self.runs = np.zeros(REFERENCE_PIECES, dtype=np.int64)
        self.due = 0.0
        self.next = 0
        for k in range(REFERENCE_PIECES):
            reference_piece(k)  # first calls warm up

    def after_call(self, seconds: float):
        self.due += seconds
        if self.due >= REFERENCE_EVERY:
            self.due = 0.0
            self._run(self.next)
            self.next = (self.next + 1) % REFERENCE_PIECES

    def _run(self, k: int):
        start = time.perf_counter()
        reference_piece(k)
        self.seconds[k] += time.perf_counter() - start
        self.runs[k] += 1

    def mean_seconds(self) -> float:
        """The pieces' mean times, together; a short measurement runs the
        pieces it has not sampled once now."""
        for k in np.flatnonzero(self.runs == 0):
            self._run(int(k))
        return float((self.seconds / self.runs).sum())


@dataclass
class Tally:
    # per pass measured: the summed seconds of each op's runs that returned
    # after round 0, how many did, and the summed seconds of the pass
    # finish; arrays keep memory flat in the op count
    op_seconds: list = field(default_factory=list)
    op_runs: list = field(default_factory=list)
    finish_seconds: array = field(default_factory=lambda: array("d"))
    # pass -> its first run: each op's output fingerprint and check result
    firsts: dict = field(default_factory=dict)
    # per measurement: index of its first pass, rounds run (round 0
    # included), and the mean seconds of the reference pieces, together
    starts: list = field(default_factory=list)
    rounds: list = field(default_factory=list)
    reference: list = field(default_factory=list)
    probe: HostProbe | None = None  # of the rounds after round 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    outcomes: list = field(default_factory=list)  # engine outcomes of pass 0
    digest: object = field(default_factory=hashlib.sha256)  # over pass 0

    def fail(self, message: str):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def _timed(tracer, name, index, fn, *args):
    """Run fn, returning (output, seconds, error message or None)."""
    start = time.perf_counter()
    try:
        if tracer is None:
            out = fn(*args)
        else:
            with tracer.operation(name, index):
                out = fn(*args)
    except Exception as exc:  # a failing call is counted, and the run goes on
        return None, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    return out, time.perf_counter() - start, None


def run_pass(workload, p: int, tally: Tally, tracer=None, firsts=None):
    """Run pass p once; return its op times (NaN where a call failed), its
    finish time, the seconds of every timed call, and the fingerprints and
    check results of its first run.

    On a first run (``firsts`` None) every output gets the full check, and
    pass 0 feeds the digest and the engine outcomes. On a rerun an output
    passes if it has the fingerprint of the first run's and that passed.
    """
    job = workload.make_pass(p)
    first = firsts is None
    if first:
        firsts = (array("q", bytes(8 * len(job.ops))), bytearray(len(job.ops)))
    keys, passed = firsts
    record = first and p == 0
    times = np.full(len(job.ops), np.nan)
    busy = 0.0
    outputs = []
    ok = []
    for k, op in enumerate(job.ops):
        tally.attempted += 1
        out, dt, error = _timed(tracer, "bench.op", tally.attempted, op.call)
        busy += dt
        if tally.probe is not None:
            tally.probe.after_call(dt)
        if error is not None:
            tally.fail(f"pass {p} op {k}: {error}")
            ok.append(False)
            continue
        times[k] = dt
        outputs.append(out)
        if not first:
            same = hash(op.key(out)) == keys[k]
            if not same:
                tally.fail(f"pass {p} op {k}: output differs from the first run's")
            elif not passed[k]:
                tally.fail(f"pass {p} op {k}: the same output as the first run, which failed its check")
            ok.append(same and passed[k])
            continue
        keys[k] = hash(op.key(out))
        checked = op.check(out)
        if checked.violations:
            tally.fail(f"pass {p} op {k}: " + "; ".join(checked.violations[:3]))
        passed[k] = not checked.violations
        ok.append(passed[k])
        if record:
            tally.digest.update(checked.digest)
            if checked.outcome is not None:
                tally.outcomes.append(checked.outcome)
    if job.finish is None:
        return times, 0.0, busy, firsts
    result, dt, error = _timed(tracer, "bench.finish", tally.attempted, job.finish, outputs)
    if error is not None:
        violations = [error]
    else:
        checked = job.check_finish(outputs, result)
        violations = checked.violations
        if record:
            tally.digest.update(checked.digest)
    if violations:
        # a pass whose records are wrong fails every op that had passed
        for _ in range(sum(ok)):
            tally.fail(f"pass {p} finish: " + "; ".join(violations[:3]))
    return times, dt, busy + dt, firsts


def run_rounds(workload, seconds: float, tally: Tally, tracer=None):
    """Measure the workload's passes, ``range(workload.passes)``.

    Round 0 runs the passes and checks them, fully if they are fresh; it
    warms up and is not part of the means. Later rounds rerun the passes
    in the same order until the timed work of all rounds reaches
    ``seconds``, and at least MIN_ROUNDS times, while a HostProbe samples
    the host's speed.
    """
    start = len(tally.op_seconds)
    tally.starts.append(start)
    spent = 0.0
    for p in range(workload.passes):
        times, _, busy, tally.firsts[p] = run_pass(workload, p, tally, tracer, tally.firsts.get(p))
        spent += busy
        tally.op_seconds.append(np.zeros(len(times)))
        tally.op_runs.append(np.zeros(len(times), dtype=np.int64))
        tally.finish_seconds.append(0.0)
    tally.probe = HostProbe()
    rounds = 1
    while rounds < MIN_ROUNDS or spent < seconds:
        for i, q in enumerate(range(workload.passes), start):
            times, finish, busy, _ = run_pass(workload, q, tally, tracer, tally.firsts[q])
            spent += busy
            tally.op_seconds[i] += np.nan_to_num(times)
            tally.op_runs[i] += ~np.isnan(times)
            tally.finish_seconds[i] += finish
        rounds += 1
    tally.rounds.append(rounds)
    tally.reference.append(tally.probe.mean_seconds())
    tally.probe = None


def timing_metrics(tally: Tally, tail_pct: float, measurement: int = 0) -> tuple[dict, dict]:
    """ops_per_s, op_ms_p50 and op_ms_tail of one measurement (the passes
    one run_rounds call added), plus notes.

    Each call's time is the mean of its runs, scaled by REFERENCE_SECONDS
    over the reference pieces' mean time in the same measurement: the
    figures are those of a host on which the pieces take REFERENCE_SECONDS.
    A shared host's speed swings by half for seconds to minutes at a time,
    and it slows the library's calls and the pieces, run between them,
    alike. The notes keep the unscaled figures.
    """
    start = tally.starts[measurement]
    end = tally.starts[measurement + 1] if measurement + 1 < len(tally.starts) else len(tally.op_seconds)
    runs = np.concatenate(tally.op_runs[start:end])
    arr = np.concatenate(tally.op_seconds[start:end])[runs > 0] / runs[runs > 0]
    rounds = tally.rounds[measurement] - 1  # round 0 warms up
    reference = tally.reference[measurement]
    scale = REFERENCE_SECONDS / reference
    notes = {"tail_pct": tail_pct, "samples": len(arr), "beyond_tail": 0,
             "reference_s": reference, "scale": scale}
    if not len(arr):  # every call failed; the failures are counted
        return dict.fromkeys(("ops_per_s", "op_ms_p50", "op_ms_tail"), 0.0), notes
    busy = float(arr.sum()) + sum(tally.finish_seconds[start:end]) / rounds
    tail = float(np.percentile(arr, tail_pct))
    raw = {
        "ops_per_s": len(arr) / busy,
        "op_ms_p50": float(np.median(arr)) * 1e3,
        "op_ms_tail": tail * 1e3,
    }
    metrics = {
        "ops_per_s": raw["ops_per_s"] / scale,
        "op_ms_p50": raw["op_ms_p50"] * scale,
        "op_ms_tail": raw["op_ms_tail"] * scale,
    }
    notes["beyond_tail"] = int((arr > tail).sum())
    notes["unscaled"] = raw
    return metrics, notes


def quality_metrics(outcomes) -> dict:
    """Engine figures over pass 0; None where the workload has no such attempt."""
    if not outcomes:
        return dict.fromkeys(QUALITY)
    wins = [o for o in outcomes if o.success]
    pairs = sum(o.t for o in wins)
    gaps = [o.added - o.oracle_min for o in wins if o.oracle_min is not None]
    return {
        "success_fraction": len(wins) / len(outcomes),
        "added_per_t": sum(o.added for o in wins) / pairs if pairs else None,
        "oracle_gap": statistics.fmean(gaps) if gaps else None,
    }


def measure(workload, seconds: float, trace: bool, spans_path=None) -> dict:
    """Measure a workload whose set-up has run.

    Untraced, one measurement of ``seconds``. Traced, an untraced half then
    a traced half of the same passes, so the two ops_per_s give the
    tracing overhead.
    """
    tally = Tally()
    if not trace:
        run_rounds(workload, seconds, tally)
        metrics, notes = timing_metrics(tally, workload.tail_pct)
    else:
        run_rounds(workload, seconds / 2, tally)
        untraced, _ = timing_metrics(tally, workload.tail_pct)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run_rounds(workload, seconds / 2, tally, tracer)
        finally:
            tracer.remove()
        traced, notes = timing_metrics(tally, workload.tail_pct, 1)
        metrics = tracer.layer_metrics()
        metrics["trace.ops_per_s_traced"] = traced["ops_per_s"]
        metrics["trace.ops_per_s_untraced"] = untraced["ops_per_s"]
        metrics["trace.overhead"] = 1.0 - traced["ops_per_s"] / untraced["ops_per_s"]
        notes["untraced"] = untraced
        if spans_path is not None:
            tracer.write_spans(spans_path, f"workload {workload.name} seed {workload.seed}")
    notes["rounds"] = tally.rounds
    return {
        "metrics": metrics,
        "quality": quality_metrics(tally.outcomes),
        "notes": notes,
        "digest": tally.digest.hexdigest(),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
    }
