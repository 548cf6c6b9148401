"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload mc_family300 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` next to this directory, never from an installed copy, and the run
refuses to start without it. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones. Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Scratch files (record CSVs,
spans, a full result file) go to ``.bench_out/`` in the checkout.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

# numpy, eulerext and the benchmark modules that import them are imported
# inside functions: the thread cap has to come first, and the library's
# import is part of the timed set-up.

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("mc_family300", "extend_dense", "bounds_sweep", "mc_tiny")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5  # this process plus four fresh ones


def cap_threads() -> int:
    """Cap BLAS/OpenMP threads at the usable cores; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        value = int(current) if current.isdigit() and int(current) >= 1 else nproc
        os.environ[var] = str(min(value, nproc))
    return nproc


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def provenance(args, nproc: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": nproc,
        "cpu": cpu,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one set-up in a fresh process and print it
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def setup_probe(args) -> float:
    """Set-up time of one fresh process, measured inside it."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def report_lines(args, result, prov) -> list[str]:
    """Every metric with its unit; n/a where the workload has no such figure."""
    from benchmarks import harness

    metrics, notes, quality = result["metrics"], result["notes"], result["quality"]
    lines = [f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}",
             "provenance " + json.dumps(prov, sort_keys=True)]
    if args.trace:
        lines.append(
            f"tracing overhead {metrics['trace.overhead']:.3f}: ops_per_s untraced "
            f"{metrics['trace.ops_per_s_untraced']:.4g} 1/s, traced {metrics['trace.ops_per_s_traced']:.4g} 1/s"
        )
        for name, (unit, _) in harness.per_layer_units().items():
            if name in metrics:
                lines.append(f"  {name} {metrics[name]:.6g} {unit}")
    else:
        raw = notes.get("unscaled", {})
        lines.append(f"host: reference pieces {notes['reference_s'] * 1e3:.4g} ms against "
                     f"{harness.REFERENCE_SECONDS * 1e3:g} ms nominal; each call's mean over "
                     f"{notes['rounds'][-1]} runs, times scaled by {notes['scale']:.4f}")
        extra = {
            "op_ms_tail": f"(p{notes['tail_pct']:g}, {notes['beyond_tail']} of {notes['samples']} calls beyond)",
            "setup_s": f"(median of {SETUP_REPEATS} set-ups, not scaled)",
        }
        for name, (unit, _) in harness.END_TO_END.items():
            if name in raw:
                extra[name] = f"(unscaled {raw[name]:.6g}) {extra.get(name, '')}"
            lines.append(f"{name} {metrics[name]:.6g} {unit} {extra.get(name, '')}".rstrip())
    for name, (unit, _) in harness.QUALITY.items():
        value = quality[name]
        lines.append(f"{name} n/a (no such engine result on this workload)" if value is None
                     else f"{name} {value:.6g} {unit} (pass 0)")
    lines.append(f"failed_fraction {result['failed'] / result['attempted']:.6g} fraction "
                 f"({result['failed']} of {result['attempted']} operations)")
    lines.append(f"digest sha256 {result['digest']}")
    lines += [f"error {e}" for e in result["errors"]]
    return lines


def result_json(result, trace: int) -> str:
    """The last line: end-to-end metrics untraced, per-layer metrics traced."""
    from benchmarks import harness

    if trace:
        values = {**result["metrics"], **result["quality"]}
        units = harness.per_layer_units()
    else:
        values = result["metrics"]
        units = harness.END_TO_END
    metrics = {
        name: {"value": 0.0 if values[name] is None else values[name], "unit": unit}
        for name, (unit, _) in units.items()
    }
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "eulerext" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    nproc = cap_threads()
    sys.path[:0] = [str(SRC), str(ROOT)]
    OUT.mkdir(exist_ok=True)

    start = time.perf_counter()
    from benchmarks import workloads  # imports numpy and eulerext

    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    workload.setup()
    setup_s = time.perf_counter() - start
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    import eulerext

    if Path(eulerext.__file__).resolve().parent != (SRC / "eulerext").resolve():
        print(f"error: eulerext imported from {eulerext.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from benchmarks import harness

    spans_path = OUT / f"spans-{args.workload}.tsv" if args.trace else None
    result = harness.measure(workload, args.seconds, bool(args.trace), spans_path)
    if not args.trace:
        setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_REPEATS - 1)]
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["notes"]["setup_samples"] = setups
        # ru_maxrss is in KiB on Linux
        result["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    prov = provenance(args, nproc)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": prov, **result}, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    for line in report_lines(args, result, prov):
        print(line)
    print(result_json(result, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
