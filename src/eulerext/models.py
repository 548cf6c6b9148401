"""Edge-probability models for inhomogeneous random graphs.

A model assigns an inclusion probability to every vertex pair and each
pair is sampled independently. Uniform draws happen in ascending (u, v)
order, so a fixed seed always reproduces the same graph.

Alpha statistics (the min / max per-vertex average probability and the
overall pair average) are computed in exact rational arithmetic, one row
sum per run of vertices with the same row values, and only rounded on
the way out; this keeps guaranteed identities like alpha_up == a for the
example family bit-exact.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .graph import Graph, _as_int, _data_lines

__all__ = [
    "ModelError",
    "EdgeProbabilityModel",
    "HomogeneousModel",
    "ExplicitModel",
    "ExampleFamilyModel",
    "AlphaStats",
    "alpha_stats",
    "ConditionCheck",
    "check_condition",
    "sample_graph",
    "build_model",
    "parse_model_spec",
    "load_model_spec",
    "read_lower_triangular",
]


class ModelError(ValueError):
    """Invalid model parameters or model spec input."""


def _vertex_count(n) -> int:
    return _as_int(n, ModelError, "a model needs an int vertex count of at least 2", 2)


class EdgeProbabilityModel:
    """Base class: a symmetric pair-probability assignment on n vertices.

    Subclasses state their probabilities once, in probability_row, and list
    in row_classes which vertices share a row multiset.
    """

    def __init__(self, n: int):
        self.n = _vertex_count(n)
        self._pair_probs = None
        self._alpha = None

    def probability_row(self, u: int) -> np.ndarray:
        """Length-n vector of p(u, v) with 0.0 in the diagonal slot."""
        raise NotImplementedError

    def row_classes(self) -> list[range]:
        """Maximal runs of vertices whose rows hold the same multiset of values.

        The runs are nonempty, in ascending order, cover range(n) once, and
        neighbouring runs differ. Each subclass lists its runs directly.
        """
        raise NotImplementedError

    def pair_probabilities(self) -> np.ndarray:
        """Probabilities for all pairs u < v in lexicographic order (cached)."""
        if self._pair_probs is None:
            n = self.n
            out = np.empty(n * (n - 1) // 2)
            pos = 0
            for u in range(n - 1):
                row = self.probability_row(u)
                out[pos:pos + n - 1 - u] = row[u + 1:]
                pos += n - 1 - u
            self._pair_probs = out
        return self._pair_probs

    def _vertex(self, w) -> int:
        return _as_int(w, ModelError, f"vertex must be an int in range({self.n})", high=self.n)


class HomogeneousModel(EdgeProbabilityModel):
    """Every pair has the same probability p."""

    def __init__(self, n: int, p: float):
        super().__init__(n)
        p = float(p)
        if not 0.0 <= p <= 1.0 or math.isnan(p):
            raise ModelError(f"probability must lie in [0, 1], got {p}")
        self.p = p

    def probability_row(self, u):
        u = self._vertex(u)
        row = np.full(self.n, self.p)
        row[u] = 0.0
        return row

    def row_classes(self):
        return [range(self.n)]

    def __repr__(self):
        return f"HomogeneousModel(n={self.n}, p={self.p})"


# rows per strip of ExplicitModel's symmetry check
_STRIP = 64


class ExplicitModel(EdgeProbabilityModel):
    """Probabilities given as a full symmetric matrix. The diagonal is zeroed,
    then every entry must lie in [0, 1], NaN failing there, then symmetry.
    The row runs are found once, here."""

    def __init__(self, n: int, matrix):
        super().__init__(n)
        mat = np.array(matrix, dtype=float)
        if mat.shape != (n, n):
            raise ModelError(f"matrix shape {mat.shape} does not match n={n}")
        np.fill_diagonal(mat, 0.0)
        # NaN fails both comparisons
        if not (mat.min() >= 0.0 and mat.max() <= 1.0):
            raise ModelError("matrix entries must lie in [0, 1]")
        # row strips, so the transpose is read a few contiguous columns at a time
        for lo in range(0, self.n, _STRIP):
            if not np.array_equal(mat[lo:lo + _STRIP, lo:], mat[lo:, lo:lo + _STRIP].T):
                raise ModelError("probability matrix must be symmetric")
        self.matrix = mat
        self._runs = _row_runs(mat)

    def probability_row(self, u):
        u = self._vertex(u)
        return self.matrix[u].copy()

    def row_classes(self):
        return list(self._runs)

    def __repr__(self):
        return f"ExplicitModel(n={self.n})"


def _row_runs(mat) -> tuple[range, ...]:
    """Maximal runs of rows with the same multiset in a symmetric matrix with
    a zero diagonal.

    Rows w and w + 1 that agree outside columns w and w + 1 hold the same
    multiset, since there they hold 0 and p(w, w + 1) swapped. Only the
    other neighbours are sorted and compared.
    """
    differ = mat[1:] != mat[:-1]
    np.fill_diagonal(differ, False)
    np.fill_diagonal(differ[:, 1:], False)
    starts = [0] + [
        w + 1
        for w in np.flatnonzero(differ.any(axis=1)).tolist()
        if not np.array_equal(np.sort(mat[w]), np.sort(mat[w + 1]))
    ]
    return tuple(range(lo, hi) for lo, hi in zip(starts, starts[1:] + [len(mat)]))


class ExampleFamilyModel(EdgeProbabilityModel):
    """Structured two-parameter family with forced blocks and a cycle.

    With k = floor(n / ln n): pairs inside the first block {0..k-1} are
    forced on, pairs inside the second block {k..2k'-1} are forced off,
    consecutive pairs on the cycle (0, 1, ..., n-1, 0) are forced on, and
    every pair touching the last vertex carries probability a exactly (this
    rule also wins on the last vertex's two cycle edges, which is what
    makes the maximum per-vertex average equal a on the nose). Everything
    else defaults to b.
    """

    def __init__(self, n: int, a: float, b: float):
        super().__init__(n)
        if n < 16:
            raise ModelError("example family needs n >= 16 for nontrivial blocks")
        a, b = float(a), float(b)
        if not 0.0 < b < a < 1.0:
            raise ModelError(f"need 0 < b < a < 1, got a={a}, b={b}")
        self.a = a
        self.b = b
        self.first_block_end = int(n / math.log(n))        # k, exclusive
        self.second_block_end = int(2 * n / math.log(n))   # exclusive

    def probability_row(self, u):
        u = self._vertex(u)
        n, k, k2 = self.n, self.first_block_end, self.second_block_end
        row = np.full(n, self.b)
        if u < k:
            row[:k] = 1.0
        elif u < k2:
            row[k:k2] = 0.0
        # the cycle overrides the zero block
        row[(u + 1) % n] = 1.0
        row[(u - 1) % n] = 1.0
        # the last vertex's rule overrides everything, the cycle included
        if u == n - 1:
            row[:] = self.a
        else:
            row[n - 1] = self.a
        row[u] = 0.0
        return row

    def row_classes(self):
        # a cycle mate outside the block sets k - 1, k and k2 - 1 apart, and
        # the last vertex's rule sets n - 2 and n - 1 apart (it also covers
        # 0's outside mate, n - 1). Eight runs at every n >= 16.
        n, k, k2 = self.n, self.first_block_end, self.second_block_end
        cuts = [0, k - 1, k, k + 1, k2 - 1, k2, n - 2, n - 1, n]
        return [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]

    def __repr__(self):
        return f"ExampleFamilyModel(n={self.n}, a={self.a}, b={self.b})"


# -- alpha statistics --------------------------------------------------------


@dataclass(frozen=True)
class AlphaStats:
    """Per-vertex average probabilities and their min / max / overall mean.

    run_avgs holds one (run, average) pair per run of the model's
    row_classes(), the average shared by every vertex of the run.
    """

    alpha_low: float
    alpha_up: float
    alpha_e: float
    run_avgs: tuple[tuple[range, float], ...]

    @property
    def per_vertex_avg(self) -> tuple[float, ...]:
        """One average per vertex, expanded from run_avgs."""
        return tuple(avg for run, avg in self.run_avgs for _ in run)


def alpha_stats(model: EdgeProbabilityModel) -> AlphaStats:
    """Exact alpha statistics of a model.

    alpha_low / alpha_up are the min / max over vertices of the average
    probability towards the other n-1 vertices; alpha_e is the average over
    all pairs. Computed with Fractions so that e.g. a homogeneous model
    reports (p, p, p) exactly. Each run of model.row_classes() is tallied
    from its first row, less the diagonal slot, into one exact row sum:
    one row read and O(#distinct values) Fraction operations per run,
    giving one average per run. Results are cached on the model.
    """
    if model._alpha is not None:
        return model._alpha
    n = model.n
    row_sums = []
    total = Fraction(0)  # sum over rows, which counts each pair twice
    run_avgs = []
    for run in model.row_classes():
        values, counts = np.unique(model.probability_row(run.start), return_counts=True)
        counts[0] -= 1  # the diagonal slot holds the smallest value, 0.0
        s = sum(Fraction(value) * count for value, count in zip(values.tolist(), counts.tolist()))
        row_sums.append(s)
        total += s * len(run)
        run_avgs.append((run, float(s / (n - 1))))
    stats = AlphaStats(
        alpha_low=float(min(row_sums) / (n - 1)),
        alpha_up=float(max(row_sums) / (n - 1)),
        alpha_e=float(total / (n * (n - 1))),
        run_avgs=tuple(run_avgs),
    )
    model._alpha = stats
    return stats


@dataclass(frozen=True)
class ConditionCheck:
    """Outcome of the two-sided density window test."""

    holds: bool
    margin: float
    lower_slack: float
    upper_slack: float


def check_condition(stats: AlphaStats, n: int, beta: float, gamma: float) -> ConditionCheck:
    """Test the finite-size density window on alpha statistics.

    Lower side: alpha_low must be at least n^-beta. Upper side: alpha_up
    must not exceed max(1/2, 1 - sqrt(alpha_e / 2)) - n^-gamma. The margin
    is the smaller slack, negative when violated.
    """
    check_exponents(beta, gamma)
    n = _as_int(n, ValueError, "condition check needs an int n >= 2", 2)
    lower_slack = stats.alpha_low - n ** (-beta)
    cap = max(0.5, 1.0 - math.sqrt(stats.alpha_e / 2.0)) - n ** (-gamma)
    upper_slack = cap - stats.alpha_up
    margin = min(lower_slack, upper_slack)
    return ConditionCheck(
        holds=lower_slack >= 0.0 and upper_slack >= 0.0,
        margin=margin,
        lower_slack=lower_slack,
        upper_slack=upper_slack,
    )


def check_exponents(beta: float, gamma: float):
    """Reject exponents outside beta in (0, 1/2) and gamma in (0, 1/2 - beta)."""
    if not 0.0 < beta < 0.5:
        raise ValueError(f"beta must lie in (0, 1/2), got {beta}")
    if not 0.0 < gamma < 0.5 - beta:
        raise ValueError(f"gamma must lie in (0, 1/2 - beta), got gamma={gamma}, beta={beta}")


# -- sampling ----------------------------------------------------------------


def sample_graph(model: EdgeProbabilityModel, rng) -> Graph:
    """Draw one graph: each pair u < v appears independently with p(u, v).

    One uniform is consumed per pair in lexicographic order, so the result
    is a deterministic function of the rng state.
    """
    pvec = model.pair_probabilities()
    return Graph._from_pair_hits(model.n, rng.random(len(pvec)) < pvec)


# -- model spec files --------------------------------------------------------
#
# key: value lines, "#" comments and blank lines ignored, e.g.
#
#   type: example_family
#   n: 300
#   a: 0.4
#   b: 0.2
#
# Every type takes "n" plus the keys listed for it in MODEL_KINDS. The file
# named by "matrix_file" holds n-1 whitespace-separated lower-triangular
# rows (row i lists p(i,0) .. p(i,i-1)).

# model type -> (class, {key its constructor takes after n: what it sets})
MODEL_KINDS = {
    "homogeneous": (HomogeneousModel, {"p": "edge probability"}),
    "example_family": (
        ExampleFamilyModel,
        {"a": "last-vertex probability", "b": "background probability"},
    ),
    "matrix": (ExplicitModel, {"matrix_file": "lower-triangular rows"}),
}


def build_model(fields, base_dir=".") -> EdgeProbabilityModel:
    """Build a model from its spec keys: "type", "n" and the type's own keys.

    Values may be text or already parsed; a missing, None or empty value
    is an error and keys the type does not take are ignored. A "matrix_file"
    path resolves against base_dir.
    """
    kind = _spec_value(fields, "type")
    if kind not in MODEL_KINDS:
        raise ModelError(f"unknown model type {kind!r}")
    cls, keys = MODEL_KINDS[kind]
    n = _spec_number(fields, "n", int, "an integer")
    args = [
        read_lower_triangular(Path(base_dir) / _spec_value(fields, key), n)
        if key == "matrix_file"
        else _spec_number(fields, key, float, "a number")
        for key in keys
    ]
    return cls(n, *args)


def parse_model_spec(text: str, base_dir=".") -> EdgeProbabilityModel:
    fields: dict[str, str] = {}
    for line in _data_lines(text):
        key, sep, value = line.partition(":")
        if not sep:
            raise ModelError(f"malformed model spec line: {line!r}")
        key = key.strip()
        if key in fields:
            raise ModelError(f"model spec states {key!r} twice")
        fields[key] = value.strip()
    return build_model(fields, base_dir)


def load_model_spec(path) -> EdgeProbabilityModel:
    path = Path(path)
    return parse_model_spec(path.read_text(encoding="utf-8"), base_dir=path.parent)


def _spec_value(fields, key):
    value = fields.get(key)
    if value is None or value == "":
        raise ModelError(f"model spec is missing {key!r}")
    return value


def _spec_number(fields, key, convert, what):
    value = _spec_value(fields, key)
    if not isinstance(value, str):
        return value  # already parsed; the model's constructor checks it
    try:
        return convert(value)
    except ValueError:
        raise ModelError(f"model spec field {key!r} must be {what}, got {value!r}") from None


def read_lower_triangular(path, n: int) -> np.ndarray:
    """Read a symmetric matrix given as n-1 whitespace-separated rows.

    Row i (1-based) lists the i entries p(i,0) .. p(i,i-1); the diagonal
    is zero. n must be a model's vertex count, checked before the file is
    opened; OS-level read failures propagate as OSError.
    """
    n = _vertex_count(n)
    text = Path(path).read_text(encoding="utf-8")
    rows = [line.split() for line in _data_lines(text)]
    if len(rows) != n - 1:
        raise ModelError(f"expected {n - 1} lower-triangular rows, got {len(rows)}")
    mat = np.zeros((n, n))
    for i, parts in enumerate(rows, start=1):
        if len(parts) != i:
            raise ModelError(f"row {i} must have {i} entries, got {len(parts)}")
        for j, token in enumerate(parts):
            try:
                value = float(token)
            except ValueError:
                raise ModelError(f"bad matrix entry {token!r} in row {i}") from None
            mat[i, j] = value
    return mat + mat.T
