"""The four benchmark workloads.

Each workload is a closed loop with one caller: the next call into the
library starts when the previous one returns. Work comes in passes. Pass
p is a fixed list of operations whose inputs come from
``trial_seed(seed, i)``, so the seed fixes every input. A run measures
passes ``0 .. passes - 1``, each many times (see ``harness.run_rounds``);
they are kept small so that a run holds many rounds. Inputs are built
outside the timed region and only the calls into the library are timed.
Every call goes through a module attribute (``experiment.run_single_trial``,
not a name imported once), so the tracer's rebinding reaches it.
"""

import copy
import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from benchmarks import checks
from eulerext import bounds, experiment, extension, graph, models
from eulerext.experiment import trial_seed


@dataclass
class Op:
    """One timed call, its untimed check returning ``checks.Checked``, and a
    hashable fingerprint of its output that reruns must reproduce."""

    call: Callable[[], Any]
    check: Callable[[Any], Any]
    key: Callable[[Any], Any]


@dataclass
class Pass:
    ops: list[Op]
    # timed, given the outputs of every op that returned
    finish: Callable[[list], Any] | None = None
    # untimed, given those outputs and what finish returned
    check_finish: Callable[[list, Any], Any] | None = None


class MonteCarlo:
    """The ``experiment`` path: ``run_single_trial`` calls, then ``write_records``.

    Each pass runs ``per_pass`` trials per model, trial indices
    ``p * per_pass ..``, and writes one CSV per model, as ``run_trials``
    does for one batch.
    """

    def __init__(self, name, seed, out_dir, model_factories, per_pass, passes, tail_pct):
        self.name = name
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.model_factories = model_factories
        self.per_pass = per_pass
        self.passes = passes
        self.tail_pct = tail_pct

    def setup(self):
        self.models = [factory() for factory in self.model_factories]
        for model in self.models:
            models.alpha_stats(model)
            model.pair_probabilities()

    def make_pass(self, p: int) -> Pass:
        ops = []
        for model in self.models:
            for j in range(self.per_pass):
                ops.append(
                    Op(
                        functools.partial(self._trial, model, p * self.per_pass + j),
                        functools.partial(checks.check_trial, model, self.seed),
                        checks.record_key,
                    )
                )
        return Pass(ops, self._write, self._check_files)

    def _trial(self, model, i):
        return experiment.run_single_trial(model, i, self.seed)

    def _batches(self, records):
        return [(model, [r for r in records if r.n == model.n]) for model in self.models]

    def _path(self, model) -> Path:
        return self.out_dir / f"{self.name}-n{model.n}.csv"

    def _write(self, records):
        for model, batch in self._batches(records):
            experiment.write_records(batch, self._path(model), "csv")

    def _check_files(self, records, _):
        merged = checks.Checked()
        for model, batch in self._batches(records):
            checked = checks.check_records_file(self._path(model), batch)
            merged.violations += checked.violations
            merged.digest += checked.digest
        return merged


class ExtendDense:
    """The ``extend`` path on dense graphs handed in.

    Each pass draws ``samples`` graphs per homogeneous config and adds the
    complete graphs; every graph gets ``extend(g, rng)`` and then
    ``extend(g)``, the deterministic scan. A pass's graphs are drawn once;
    each run of it gets a fresh copy of the generator as it stood after
    the draws.
    """

    name = "extend_dense"
    passes = 1
    # p95 of 54 calls falls on the complete graphs, above every sampled one
    tail_pct = 95.0

    def __init__(self, seed, out_dir, configs=((100, 0.97), (200, 0.95), (400, 0.95)),
                 samples=8, complete=(200, 250, 300)):
        self.seed = seed
        self.configs = configs
        self.samples = samples
        self.complete_sizes = complete
        self._inputs = {}

    def setup(self):
        self.models = [models.HomogeneousModel(n, p) for n, p in self.configs]
        for model in self.models:
            model.pair_probabilities()
        self.complete = [
            graph.Graph.from_bool_adjacency(~np.eye(n, dtype=bool)) for n in self.complete_sizes
        ]

    def make_pass(self, p: int) -> Pass:
        if p not in self._inputs:
            self._inputs[p] = self._draw(p)
        ops = []
        for g, rng, adjacency in self._inputs[p]:
            check = functools.partial(self._check, adjacency)
            ops.append(Op(functools.partial(self._extend, g, copy.deepcopy(rng)), check, repr))
            ops.append(Op(functools.partial(self._extend, g, None), check, repr))
        return Pass(ops)

    def _draw(self, p: int) -> list:
        inputs = []  # (graph, rng for the first call, zero-argument adjacency builder)
        i = p * (len(self.models) * self.samples + len(self.complete))
        for model in self.models:
            for _ in range(self.samples):
                seed_i = trial_seed(self.seed, i)
                rng = np.random.default_rng(seed_i)
                g = models.sample_graph(model, rng)
                inputs.append((g, rng, functools.partial(self._sampled_adjacency, model, seed_i)))
                i += 1
        for g in self.complete:
            inputs.append((g, np.random.default_rng(trial_seed(self.seed, i)),
                           functools.partial(checks.complete_adjacency, g.n)))
            i += 1
        return inputs

    @staticmethod
    def _sampled_adjacency(model, seed_i):
        return checks.adjacency_from_draws(model, np.random.default_rng(seed_i))

    @staticmethod
    def _extend(g, rng):
        return extension.extend(g, rng=rng)

    @staticmethod
    def _check(adjacency, result):
        adj = adjacency()
        outcome = checks.Outcome(result.success, len(result.added_edges), result.t_input)
        digest = f"{result.success} {result.failure_reason} {result.edge_pairs()}\n".encode()
        return checks.Checked(checks.check_extension(adj, result), outcome, digest)


class BoundsSweep:
    """The ``bounds`` path: alpha statistics and closed forms on fresh models.

    Each pass evaluates the family and the homogeneous model at every grid
    size (jittered by the seed), and one two-block explicit model whose
    three values the seed picks.
    """

    name = "bounds_sweep"
    passes = 1
    tail_pct = 80.0
    FAMILY = (0.4, 0.2)
    HOMOGENEOUS_P = 0.3

    def __init__(self, seed, out_dir, grid=(1000, 2000, 4000, 6000),
                 explicit_n=1000, jitter=10):
        self.seed = seed
        self.grid = grid
        self.explicit_n = explicit_n
        self.jitter = jitter

    def setup(self):
        pass  # nothing to build: every operation makes its own model

    def make_pass(self, p: int) -> Pass:
        a, b = self.FAMILY
        hp = self.HOMOGENEOUS_P
        i = p * (len(self.grid) + 1)
        jobs = []  # (kind, params for the check, model builder)
        for base in self.grid:
            n = base + trial_seed(self.seed, i) % self.jitter
            i += 1
            jobs.append(("family", {"a": a}, functools.partial(models.ExampleFamilyModel, n, a, b)))
            jobs.append(("homogeneous", {"p": hp}, functools.partial(models.HomogeneousModel, n, hp)))
        # a fixed size keeps peak memory the same for every seed
        rng = np.random.default_rng(trial_seed(self.seed, i))
        n = self.explicit_n
        k = int(rng.integers(n // 4, 3 * n // 4))
        inside_a, inside_b, across = rng.choice(np.arange(1, 10) / 10.0, size=3)
        matrix = np.full((n, n), across)
        matrix[:k, :k] = inside_a
        matrix[k:, k:] = inside_b
        jobs.append(("explicit", {"matrix": matrix}, functools.partial(models.ExplicitModel, n, matrix)))
        return Pass([
            Op(functools.partial(self._evaluate, build), functools.partial(checks.check_bounds, kind, params),
               self._key)
            for kind, params, build in jobs
        ])

    @staticmethod
    def _key(output):
        return repr(output[1:])  # the model itself compares by identity

    @staticmethod
    def _evaluate(build):
        model = build()
        n = model.n
        stats = models.alpha_stats(model)
        condition = models.check_condition(stats, n, bounds.DEFAULT_BETA, bounds.DEFAULT_GAMMA)
        params = bounds.default_params(n)
        step = bounds.step_success_bound(stats, n, params, n // 4)
        return model, stats, condition, params, step


def mc_family300(seed, out_dir):
    return MonteCarlo("mc_family300", seed, out_dir,
                      [functools.partial(models.ExampleFamilyModel, 300, 0.4, 0.2)],
                      per_pass=12, passes=2, tail_pct=90.0)


def mc_tiny(seed, out_dir):
    # n = 10 and 12 have single oracle calls of seconds (28 s seen at n=12):
    # the oracle enumerates every subset up to 3t when none works
    return MonteCarlo("mc_tiny", seed, out_dir,
                      [functools.partial(models.HomogeneousModel, n, 0.5) for n in (8, 9)],
                      per_pass=250, passes=4, tail_pct=99.0)


WORKLOADS = {
    "mc_family300": mc_family300,
    "extend_dense": ExtendDense,
    "bounds_sweep": BoundsSweep,
    "mc_tiny": mc_tiny,
}
