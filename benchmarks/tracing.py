"""Layer tracing from outside the library.

``Tracer.install`` rebinds each layer's function, wherever an ``eulerext``
module holds it, to a wrapper that records a span (name, start, end,
parent span, operation) and the layer's counts; methods are rebound on
the class. ``Tracer.remove`` puts every original back. Spans are kept in
memory and written out at the end. Wrappers record only while the
tracer is active, so the untimed checks, which call the same functions,
leave no spans.
"""

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from array import array
from contextlib import contextmanager

LAYERS = (
    "models.alpha_stats",
    "models.sample_graph",
    "models.check_condition",
    "graph.Graph.from_bool_adjacency",
    "graph.Graph.is_connected",
    "graph.Graph.eulerian_circuit",
    "bounds.e_good_check",
    "bounds.e_all_check",
    "bounds.step_success_bound",
    "extension.extend",
    "extension.phase_pairing",
    "extension.phase_clique_reduction",
    "extension.phase_three_paths",
    "extension.verify_extension",
    "oracle.min_extension_exact",
    "experiment.run_single_trial",
    "experiment.write_records",
)

# per-layer stat -> unit
LAYER_STATS = {"calls": "count", "busy_s": "s", "self_s": "s", "ms_p50": "ms", "share": "fraction"}

COUNTS = (
    "extension.edges.pairing",
    "extension.edges.two_path",
    "extension.edges.three_path",
    "extension.phase3.pairs",
    "extension.phase3.attempts",
    "extension.failures.no_three_path",
    "extension.failures.disconnected",
    "bounds.e_all_check.pair_ops",
    "extension.verify_extension.edges_checked",
    "experiment.write_records.bytes",
)


def _count_extend(counts, args, result):
    for phase, k in result.phase_counts().items():
        counts[f"extension.edges.{phase}"] += k
    if result.failure_reason == "no_three_path":
        counts["extension.failures.no_three_path"] += 1
    elif result.failure_reason == "disconnected_input":
        counts["extension.failures.disconnected"] += 1


def _count_phase_three(counts, args, result):
    counts["extension.phase3.pairs"] += len(args["clique"]) // 2
    counts["extension.phase3.attempts"] += result.attempts


def _count_e_all(counts, args, result):
    n = args["g"].n
    counts["bounds.e_all_check.pair_ops"] += n * (n - 1) // 2


def _count_verify(counts, args, result):
    # the verifier walks every edge of the union
    counts["extension.verify_extension.edges_checked"] += args["g"].m + len(args["result"].added_edges)


def _count_write(counts, args, result):
    counts["experiment.write_records.bytes"] += os.path.getsize(args["path"])


COUNTERS = {
    "extension.extend": _count_extend,
    "extension.phase_three_paths": _count_phase_three,
    "bounds.e_all_check": _count_e_all,
    "extension.verify_extension": _count_verify,
    "experiment.write_records": _count_write,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per span, in start order
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.counts = dict.fromkeys(COUNTS, 0)
        self.active = False
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int):
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, name: str, op_index: int):
        """Root span of one timed benchmark step; layers record only inside."""
        self._op = op_index
        self.active = True
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)
            self.active = False
            self._op = -1

    def _wrap(self, name: str, fn):
        tracer = self
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if counter is not None:
                counter(tracer.counts, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    # -- rebinding -----------------------------------------------------------

    def install(self):
        package = [m for key, m in sys.modules.items() if key == "eulerext" or key.startswith("eulerext.")]
        for layer in LAYERS:
            module_name, *owner, attr = layer.split(".")
            module = importlib.import_module(f"eulerext.{module_name}")
            if owner:
                cls = getattr(module, owner[0])
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._rebind(cls, attr, classmethod(self._wrap(layer, raw.__func__)))
                else:
                    self._rebind(cls, attr, self._wrap(layer, raw))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(layer, original)
            for holder in package:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._rebind(holder, key, wrapped)

    def _rebind(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per layer: calls, busy and self seconds, median ms, share of op time.

        Self time is a span's duration minus the durations of its direct
        children; one thread runs everything, so children never overlap.
        """
        count = len(self.start)
        durations = [self.end[k] - self.start[k] for k in range(count)]
        child_time = [0.0] * count
        for k in range(count):
            if self.parent[k] >= 0:
                child_time[self.parent[k]] += durations[k]
        by_name: dict[str, list[int]] = {}
        for k in range(count):
            by_name.setdefault(self.names[self.name_id[k]], []).append(k)
        op_time = sum(durations[k] for k in range(count) if self.parent[k] < 0)
        out = {}
        for layer in LAYERS:
            spans = by_name.get(layer, [])
            busy = sum(durations[k] for k in spans)
            out[f"{layer}.calls"] = len(spans)
            out[f"{layer}.busy_s"] = busy
            out[f"{layer}.self_s"] = sum(durations[k] - child_time[k] for k in spans)
            out[f"{layer}.ms_p50"] = statistics.median(durations[k] for k in spans) * 1e3 if spans else 0.0
            out[f"{layer}.share"] = busy / op_time if op_time > 0 else 0.0
        out.update(self.counts)
        return out

    def write_spans(self, path, header: str):
        """One tab-separated line per span: id, name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {header}\n# id\tname\tstart\tend\tparent\top\n")
            for k in range(len(self.start)):
                fh.write(
                    f"{k}\t{self.names[self.name_id[k]]}\t{self.start[k]:.9f}\t{self.end[k]:.9f}"
                    f"\t{self.parent[k]}\t{self.op[k]}\n"
                )
