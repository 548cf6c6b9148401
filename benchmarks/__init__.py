"""Layer benchmark for eulerext: four workloads, timed from outside the library.

Run one workload with ``python3 benchmarks/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; see ``benchmarks/README.md``.
"""
