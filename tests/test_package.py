import ast
import inspect
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eulerext
from eulerext import (
    ExampleFamilyModel,
    Graph,
    GraphError,
    HomogeneousModel,
    ModelError,
    alpha_stats,
    check_condition,
    default_params,
    extend,
    min_extension_exact,
    phase_clique_reduction,
    phase_three_paths,
    run_trials,
    step_success_bound,
    trial_seed,
)


def test_every_exported_name_resolves_once():
    names = eulerext.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(eulerext, name), name


def test_only_graph_reads_its_layout():
    # the bitset and degree lists and the numpy packing are graph.py's
    # business; every other module goes through Graph's methods
    package = Path(eulerext.__file__).parent
    readers = sorted(
        path.name
        for path in package.glob("*.py")
        if re.search(r"\._(adj|deg)\b|packbits|unpackbits", path.read_text(encoding="utf-8"))
    )
    assert readers == ["graph.py"]


def test_only_graph_places_the_sampled_pairs():
    # the pair order of the sampler's hits is Graph._from_pair_hits's business
    package = Path(eulerext.__file__).parent
    owners = sorted(
        path.name
        for path in package.glob("*.py")
        if re.search(r"\bnp\.tri\b", path.read_text(encoding="utf-8"))
    )
    assert owners == ["graph.py"]


def test_one_function_calls_the_verifier():
    # the trial and `eulerext extend` both verify through the shared check
    package = Path(eulerext.__file__).parent
    callers = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callers += [
                    (path.name, function.name)
                    for call in ast.walk(function)
                    if isinstance(call, ast.Call)
                    and "verify_extension" in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
                ]
    assert callers == [("extension.py", "_verify_or_raise")]


def test_only_graph_states_the_edge_rule():
    # the verifier adds each edge through Graph.add_edge instead of
    # restating which edges may be added
    package = Path(eulerext.__file__).parent
    owners = sorted(
        path.name
        for path in package.glob("*.py")
        if re.search(r"self-loop|already (present|in the input)|added twice", path.read_text(encoding="utf-8"))
    )
    assert owners == ["graph.py"]
    tree = ast.parse(inspect.getsource(eulerext.extension.verify_extension))
    called = {
        getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
    }
    assert "add_edge" in called and "_as_int" not in called


def test_one_function_draws_a_trial():
    # a trial and `eulerext sample` seed and sample through the shared draw
    package = Path(eulerext.__file__).parent
    callers = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callers.update(
                    (path.name, function.name)
                    for call in ast.walk(function)
                    if isinstance(call, ast.Call)
                    and {getattr(call.func, "id", None), getattr(call.func, "attr", None)}
                    & {"sample_graph", "trial_seed"}
                )
    assert callers == {("experiment.py", "_draw_trial")}


# public names that no library or benchmark code reads, each with the
# reason it ships anyway
UNREAD_PUBLIC_NAMES = {
    "chernoff_tail": "the paper's tail bound, which acceptance criterion 5 checks",
}


def _public_members():
    # every exported name, and every public method or property of an exported class
    for name in eulerext.__all__:
        yield name, name
        obj = getattr(eulerext, name)
        if inspect.isclass(obj):
            for attr, value in vars(obj).items():
                if not attr.startswith("_") and (
                    inspect.isfunction(value) or isinstance(value, (property, classmethod, staticmethod))
                ):
                    yield f"{name}.{attr}", attr


def test_every_public_member_is_read_outside_the_tests():
    package = Path(eulerext.__file__).parent
    bench = Path(__file__).resolve().parents[1] / "benchmarks"
    bench_files = sorted(bench.glob("*.py"))
    assert bench_files
    read = set()
    for path in sorted(package.glob("*.py")) + bench_files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif path.parent == bench and isinstance(node, ast.Constant) and isinstance(node.value, str):
                # a dotted layer name such as "graph.Graph.eulerian_circuit"
                parts = node.value.split(".")
                if len(parts) > 1 and all(part.isidentifier() for part in parts):
                    read.update(parts)
    unread = {member for member, attr in _public_members() if attr not in read}
    assert unread == set(UNREAD_PUBLIC_NAMES)


def test_only_graph_states_the_integer_and_vertex_rules():
    # every other module calls the rule through _as_int or Graph's methods
    package = Path(eulerext.__file__).parent
    rule = r"operator\.index|\._check_vertex\b|\._check_pair\b|\._insert\b"
    owners = sorted(
        path.name for path in package.glob("*.py") if re.search(rule, path.read_text(encoding="utf-8"))
    )
    assert owners == ["graph.py"]


def path5():
    return Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


MODEL = HomogeneousModel(5, 0.3)
STATS = alpha_stats(MODEL)


# every entry point that takes an integer, called with x = 2 in one place,
# and the error class it raises for a value that is not one
INTEGER_SITES = {
    "Graph": (GraphError, lambda x: (Graph(x).n, Graph(x).non_neighbors_mask(0))),
    "from_edge_list.n": (GraphError, lambda x: Graph.from_edge_list(x, [(0, 1)]).non_neighbors_mask(0)),
    "from_edge_list.edge": (GraphError, lambda x: Graph.from_edge_list(5, [(x, 4)])),
    "add_edge": (GraphError, lambda x: path5().add_edge(x, 4)),
    "non_neighbors_mask": (GraphError, lambda x: path5().non_neighbors_mask(x)),
    "non_neighbor_matrix": (GraphError, lambda x: path5().non_neighbor_matrix([x, 0, x]).tolist()),
    "vertex_list": (GraphError, lambda x: path5().vertex_list([4, x])),
    "phase_clique_reduction": (GraphError, lambda x: phase_clique_reduction(Graph(5), [x, 0])),
    "phase_three_paths.clique": (GraphError, lambda x: phase_three_paths(Graph(5), [x, 0], None, 0)),
    "phase_three_paths.budget": (
        ValueError,
        lambda x: phase_three_paths(Graph(5), [0, 1], np.random.default_rng(0), x),
    ),
    "extend.budget": (ValueError, lambda x: extend(path5(), np.random.default_rng(0), x)),
    "min_extension_exact.cap": (ValueError, lambda x: min_extension_exact(path5(), cap=x)),
    "model.n": (ModelError, lambda x: vars(HomogeneousModel(x, 0.3))),
    "model.probability_row": (
        ModelError,
        lambda x: ExampleFamilyModel(20, 0.4, 0.2).probability_row(x).tolist(),
    ),
    "check_condition.n": (ValueError, lambda x: check_condition(STATS, x, 0.2, 0.1)),
    "default_params.n": (ValueError, lambda x: default_params(x)),
    "step_success_bound.n": (ValueError, lambda x: step_success_bound(STATS, x, default_params(5), 1)),
    "step_success_bound.t": (ValueError, lambda x: step_success_bound(STATS, 5, default_params(5), x)),
    "trial_seed.base": (ValueError, lambda x: trial_seed(x, 0)),
    "trial_seed.index": (ValueError, lambda x: trial_seed(0, x)),
    "run_trials.trials": (ValueError, lambda x: run_trials(MODEL, x)),
    "run_trials.base_seed": (ValueError, lambda x: run_trials(MODEL, 1, x)),
    "run_trials.max_random_attempts": (ValueError, lambda x: run_trials(MODEL, 1, max_random_attempts=x)),
}


@pytest.mark.parametrize("site", INTEGER_SITES)
def test_one_integer_rule_at_every_entry_point(site):
    error, call = INTEGER_SITES[site]
    want = call(2)
    for x in (np.int64(2), np.uint8(2)):
        got = call(x)
        # repr tells a numpy integer left in the result from a Python int
        assert got == want and repr(got) == repr(want)
    for bad in (True, np.True_, 2.0, np.float64(2), "2"):
        with pytest.raises(error) as excinfo:
            call(bad)
        assert excinfo.type is error


CHILD_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_test_does_not_stop_the_run(tmp_path):
    # hypothesis's failure report imports modules that emit deprecation
    # warnings; under warnings-as-errors they must not abort the session
    (tmp_path / "test_child.py").write_text(CHILD_TESTS)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config), "test_child.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
