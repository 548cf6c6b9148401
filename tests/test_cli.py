import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eulerext
from eulerext import AddedEdge, ExtensionResult, Graph, load_edge_list, save_edge_list, trial_seed
from eulerext.cli import EXIT_BAD_CONFIG, EXIT_IO, EXIT_OK, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out, parse_constant=_reject) if out.strip() else None)


def _reject(token):
    raise AssertionError(f"non-strict JSON token in output: {token}")


def write_graph(tmp_path, name, n, edges):
    path = tmp_path / name
    save_edge_list(Graph.from_edge_list(n, edges), path)
    return str(path)


# -- sample --


def test_sample_inline_homogeneous(tmp_path, capsys):
    out = str(tmp_path / "g.edges")
    code, obj = run_cli(
        capsys,
        "sample", "--model-type", "homogeneous", "--n", "30", "--p", "0.4",
        "--seed", "7", "--trial-index", "2", "--out", out,
    )
    assert code == EXIT_OK
    assert obj["n"] == 30
    assert obj["derived_seed"] == trial_seed(7, 2)
    assert obj["base_seed"] == 7 and obj["trial_index"] == 2
    g = load_edge_list(out)
    assert g.m == obj["m"]
    assert g.max_degree() == obj["max_degree"]
    assert g.t_value() == obj["t_value"]
    assert g.is_connected() == obj["connected"]


def test_sample_is_deterministic(tmp_path, capsys):
    args = ("sample", "--model-type", "homogeneous", "--n", "25", "--p", "0.3",
            "--seed", "11")
    code1, obj1 = run_cli(capsys, *args)
    code2, obj2 = run_cli(capsys, *args)
    assert (code1, obj1) == (code2, obj2) == (EXIT_OK, obj1)


def test_sample_from_spec_file(tmp_path, capsys):
    spec = tmp_path / "model.spec"
    spec.write_text("type: example_family\nn: 32\na: 0.5\nb: 0.1\n")
    code, obj = run_cli(capsys, "sample", "--model", str(spec))
    assert code == EXIT_OK
    assert obj["n"] == 32
    assert obj["out"] is None


def test_sample_family_inline(capsys):
    code, obj = run_cli(
        capsys,
        "sample", "--model-type", "example_family", "--n", "40",
        "--a", "0.6", "--b", "0.2",
    )
    assert code == EXIT_OK and obj["n"] == 40


# -- extend --


def test_extend_success(tmp_path, capsys):
    src = write_graph(tmp_path, "p3.edges", 3, [(0, 1), (1, 2)])
    out = str(tmp_path / "ext.edges")
    code, obj = run_cli(capsys, "extend", "--graph", src, "--out", out)
    assert code == EXIT_OK
    assert obj["success"] is True
    assert obj["t_input"] == 1
    assert obj["edges_added"] == 1
    assert obj["added"] == [[0, 2, "pairing"]]
    assert obj["failure_reason"] is None and obj["failing_pair"] is None
    assert obj["out"] == out
    extended = load_edge_list(out)
    assert extended.odd_mask == 0
    assert len(extended.eulerian_circuit().vertices) - 1 == 3


def test_extend_failure_writes_nothing(tmp_path, capsys):
    src = write_graph(tmp_path, "star.edges", 4, [(0, 1), (0, 2), (0, 3)])
    out = tmp_path / "never.edges"
    code, obj = run_cli(capsys, "extend", "--graph", src, "--out", str(out))
    assert code == EXIT_OK  # an honest engine failure is data, not an error
    assert obj["success"] is False
    assert obj["failure_reason"] == "no_three_path"
    assert obj["failing_pair"] == [0, 3]
    assert obj["out"] is None
    assert not out.exists()


def test_extend_disconnected_input(tmp_path, capsys):
    src = write_graph(tmp_path, "split.edges", 4, [(0, 1), (2, 3)])
    code, obj = run_cli(capsys, "extend", "--graph", src, "--out", str(tmp_path / "x"))
    assert code == EXIT_OK
    assert obj["failure_reason"] == "disconnected_input"


def test_extend_seeded(tmp_path, capsys):
    src = write_graph(tmp_path, "c5c.edges", 5,
                      [(0, 1), (1, 2), (0, 3), (2, 4), (3, 4), (0, 4), (1, 4)])
    out = str(tmp_path / "e.edges")
    code, obj = run_cli(capsys, "extend", "--graph", src, "--seed", "3", "--out", out)
    assert code == EXIT_OK and obj["success"] is True
    assert obj["three_path_edges"] == 3
    code2, obj2 = run_cli(capsys, "extend", "--graph", src, "--seed", "3", "--out", out)
    assert obj2 == obj


def test_extend_verifies_before_it_writes(tmp_path, capsys, monkeypatch):
    # a success that re-adds an input edge is an engine bug: nothing is written
    src = write_graph(tmp_path, "p3.edges", 3, [(0, 1), (1, 2)])
    out = tmp_path / "ext.edges"
    bad = ExtensionResult(True, 1, (AddedEdge(0, 1, "pairing"),))
    monkeypatch.setattr(eulerext.cli, "extend", lambda g, rng, max_random_attempts: bad)
    with pytest.raises(RuntimeError, match=r"invalid extension: edge \(0, 1\): .*already present"):
        main(["extend", "--graph", src, "--out", str(out)])
    assert capsys.readouterr().out == ""
    assert not out.exists()


@pytest.mark.parametrize("attempts", ["0", "5"])
def test_extend_max_attempts_needs_a_seed(tmp_path, capsys, attempts):
    # without --seed there are no random probes, so a budget for them is a
    # config error rather than a silent no-op
    src = write_graph(tmp_path, "c5c.edges", 5,
                      [(0, 1), (1, 2), (0, 3), (2, 4), (3, 4), (0, 4), (1, 4)])
    out = tmp_path / "e.edges"
    code = main(["extend", "--graph", src, "--max-attempts", attempts, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_BAD_CONFIG and captured.out == ""
    assert captured.err.startswith("error:") and "--seed" in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()


# -- oracle --


def test_oracle_path(tmp_path, capsys):
    src = write_graph(tmp_path, "p3.edges", 3, [(0, 1), (1, 2)])
    code, obj = run_cli(capsys, "oracle", "--graph", src)
    assert code == EXIT_OK
    assert obj == {
        "extendable": True,
        "min_edges": 1,
        "witness": [[0, 2]],
        "t_value": 1,
        "cap": 3,
    }


def test_oracle_cap_flag(tmp_path, capsys):
    src = write_graph(tmp_path, "p3.edges", 3, [(0, 1), (1, 2)])
    code, obj = run_cli(capsys, "oracle", "--graph", src, "--cap", "0")
    assert code == EXIT_OK
    assert obj["extendable"] is False
    assert obj["min_edges"] is None and obj["witness"] is None
    assert obj["cap"] == 0


def test_oracle_star_unextendable(tmp_path, capsys):
    src = write_graph(tmp_path, "star.edges", 4, [(0, 1), (0, 2), (0, 3)])
    code, obj = run_cli(capsys, "oracle", "--graph", src)
    assert code == EXIT_OK and obj["extendable"] is False


def test_oracle_size_guard_maps_to_config_error(tmp_path, capsys):
    src = write_graph(tmp_path, "big.edges", 13, [(i, i + 1) for i in range(12)])
    code, obj = run_cli(capsys, "oracle", "--graph", src)
    assert code == EXIT_BAD_CONFIG


# -- bounds --


def test_bounds_homogeneous_hand_values(capsys):
    code, obj = run_cli(
        capsys,
        "bounds", "--model-type", "homogeneous", "--n", "10000", "--p", "0.2",
        "--t", "1",
    )
    assert code == EXIT_OK
    assert obj["n"] == 10000
    assert obj["alpha"] == {"alpha_low": 0.2, "alpha_up": 0.2, "alpha_e": 0.2}
    assert obj["condition"]["holds"] is True
    assert obj["params"]["zeta"] == pytest.approx(0.3)
    assert obj["params"]["epsilon"] == pytest.approx(10000.0 ** -0.3)
    eps = 10000.0 ** -0.3
    assert obj["step_bound"]["p_lower"] == pytest.approx(2 * (1 - 0.2 * (1 + eps)) ** 2)
    assert obj["step_bound"]["q_upper"] == pytest.approx(9 / 10000 + 0.2 * (1 + eps))
    assert obj["step_bound"]["diff"] == pytest.approx(
        obj["step_bound"]["p_lower"] - obj["step_bound"]["q_upper"]
    )
    assert obj["step_bound"]["analytic_floor"] == pytest.approx(
        math.sqrt(2) * 10000 ** -0.2 - 1e-4 - 2 * 10000 ** -0.3
    )


def test_bounds_nonfinite_product_log_stays_strict_json(capsys):
    # dense model, diff < 0, one step: the log-product is -inf, and the
    # output must still parse as strict JSON (run_cli rejects Infinity)
    code, obj = run_cli(
        capsys,
        "bounds", "--model-type", "homogeneous", "--n", "50", "--p", "0.95",
        "--t", "2",
    )
    assert code == EXIT_OK
    assert obj["step_bound"]["diff"] < 0
    assert obj["step_bound"]["product_log"] == "-inf"


def test_bounds_spec_file_with_size_override(tmp_path, capsys):
    spec = tmp_path / "m.spec"
    spec.write_text("type: homogeneous\nn: 100\np: 0.2\n")
    code, obj = run_cli(capsys, "bounds", "--model", str(spec), "--n", "10000")
    assert code == EXIT_OK
    # alpha comes from the model, the size-dependent terms from --n
    assert obj["n"] == 10000
    assert obj["alpha"]["alpha_e"] == 0.2
    assert obj["params"]["epsilon"] == pytest.approx(10000.0 ** -0.3)


def test_bounds_family_at_paper_scale(capsys):
    code, obj = run_cli(
        capsys,
        "bounds", "--model-type", "example_family", "--n", "300000",
        "--a", "0.4", "--b", "0.2",
    )
    assert code == EXIT_OK
    assert obj["n"] == 300000
    assert obj["alpha"]["alpha_up"] == 0.4
    # below the window's opening size the upper cap is still under 0.4
    assert obj["condition"]["holds"] is False
    assert obj["condition"]["upper_slack"] < 0


def test_bounds_custom_exponents(capsys):
    code, obj = run_cli(
        capsys,
        "bounds", "--model-type", "example_family", "--n", "4096",
        "--a", "0.4", "--b", "0.2", "--beta", "0.3", "--gamma", "0.18",
    )
    assert code == EXIT_OK
    assert obj["alpha"]["alpha_up"] == 0.4
    assert obj["condition"]["holds"] is True
    assert obj["step_bound"]["product_log"] == 0.0  # default t = 0


# -- spec file and inline flags --


@pytest.mark.parametrize(
    "kind, keys",
    [
        ("homogeneous", {"n": "30", "p": "0.3"}),
        ("example_family", {"n": "40", "a": "0.6", "b": "0.2"}),
        ("matrix", {"n": "3", "matrix_file": "m.tri"}),
    ],
)
def test_spec_file_and_inline_flags_agree(tmp_path, capsys, monkeypatch, kind, keys):
    # inline flags are the spec keys; a relative matrix_file resolves
    # against the spec file's directory or, inline, the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.tri").write_text("0.5\n0.25 0.75\n")

    def spec(fields):
        path = tmp_path / "model.spec"
        path.write_text(f"type: {kind}\n" + "".join(f"{k}: {v}\n" for k, v in fields.items()))
        return ["--model", str(path)]

    def inline(fields):
        flags = ["--model-type", kind]
        for key, value in fields.items():
            flags += ["--" + key.replace("_", "-"), value]
        return flags

    outputs = []
    for name, model_args in (("spec", spec(keys)), ("inline", inline(keys))):
        assert main(["bounds", *model_args, "--t", "2"]) == EXIT_OK
        bounds_out = capsys.readouterr().out
        edges = tmp_path / f"{name}.edges"
        assert main(["sample", *model_args, "--seed", "5", "--out", str(edges)]) == EXIT_OK
        capsys.readouterr()
        outputs.append((bounds_out, edges.read_bytes()))
    assert outputs[0] == outputs[1]

    missing = dict(list(keys.items())[:-1])
    for model_args in (spec(missing), inline(missing)):
        assert main(["sample", *model_args]) == EXIT_BAD_CONFIG
    assert "is missing" in capsys.readouterr().err


FAMILY_SPEC = "type: example_family\nn: 30\na: 0.6\nb: 0.2\n"


@pytest.mark.parametrize(
    "command, flags",
    [
        pytest.param(command, flags, id=command + flags[0])
        for command in ("sample", "bounds", "experiment")
        for flags in (
            ["--model-type", "homogeneous"],
            ["--p", "0.9"],
            ["--a", "0.4"],
            ["--b", "0.2"],
            ["--matrix-file", "m.tri"],
        )
    ]
    + [
        pytest.param("sample", ["--n", "500"], id="sample--n"),
        pytest.param("experiment", ["--n", "40", "--p", "0.9"], id="experiment--n"),
    ],
)
def test_spec_file_with_inline_model_flags_is_config_error(tmp_path, capsys, command, flags):
    # bounds alone takes --n next to a spec file, to re-evaluate the model there
    spec = tmp_path / "fam.model"
    spec.write_text(FAMILY_SPEC)
    out = tmp_path / "out"
    argv = [command, "--model", str(spec), *flags]
    if command == "sample":
        argv += ["--out", str(out)]
    elif command == "experiment":
        argv += ["--trials", "2", "--out", str(out)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_BAD_CONFIG and captured.out == ""
    assert captured.err.startswith("error: --model FILE takes no inline model flags, got --")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample", "bounds", "experiment"])
def test_help_states_the_spec_file_rules(capsys, command):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args([command, "--help"])
    assert excinfo.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--model FILE model spec file (key: value lines); takes no inline model flags, except --n on bounds" in text
    assert "--n N vertex count for inline models; bounds with --model FILE re-evaluates that model at this n" in text


@pytest.mark.parametrize(
    "spec", ["type: homogeneous\nn: 30\np: 0.2\n", FAMILY_SPEC], ids=["homogeneous", "family"]
)
def test_sample_is_the_experiment_trial(tmp_path, capsys, spec):
    # `sample --seed s --trial-index i` draws trial i of `experiment --seed s`
    model = tmp_path / "m.model"
    model.write_text(spec)
    records = tmp_path / "r.jsonl"
    argv = ["experiment", "--model", str(model), "--seed", "6", "--trials", "4"]
    assert run_cli(capsys, *argv, "--out", str(records), "--format", "jsonl")[0] == EXIT_OK
    rows = [json.loads(line) for line in records.read_text().splitlines()]
    for i, row in enumerate(rows):
        _, obj = run_cli(capsys, "sample", "--model", str(model), "--seed", "6", "--trial-index", str(i))
        sampled = (obj["m"], obj["max_degree"], obj["t_value"], obj["connected"])
        assert sampled == (row["m_sampled"], row["delta_sampled"], row["t_value"], row["connected"])


# -- experiment --


def test_experiment_csv(tmp_path, capsys):
    out = tmp_path / "rec.csv"
    code, obj = run_cli(
        capsys,
        "experiment", "--model-type", "homogeneous", "--n", "10", "--p", "0.4",
        "--trials", "5", "--seed", "13", "--out", str(out),
    )
    assert code == EXIT_OK
    assert obj["out"] == str(out) and obj["format"] == "csv"
    assert obj["summary"]["trials"] == 5
    assert 0.0 <= obj["summary"]["success_fraction"] <= 1.0
    lines = out.read_text().splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("trial_index,seed,n,")


def test_experiment_byte_identical_reruns(tmp_path, capsys):
    argv = ["experiment", "--model-type", "homogeneous", "--n", "12", "--p", "0.5",
            "--trials", "4", "--seed", "2"]
    code, obj1 = run_cli(capsys, *argv, "--out", str(tmp_path / "a.csv"))
    assert code == EXIT_OK
    run_cli(capsys, *argv, "--out", str(tmp_path / "b.csv"))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_experiment_jsonl(tmp_path, capsys):
    out = tmp_path / "rec.jsonl"
    code, obj = run_cli(
        capsys,
        "experiment", "--model-type", "homogeneous", "--n", "10", "--p", "0.3",
        "--trials", "3", "--out", str(out), "--format", "jsonl",
    )
    assert code == EXIT_OK
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["trial_index"] for r in rows] == [0, 1, 2]


def test_experiment_takes_a_negative_base_seed(tmp_path, capsys):
    # one seed rule for the batch, `sample` and trial_seed: any int
    model = ["--model-type", "homogeneous", "--n", "10", "--p", "0.4"]
    argv = ["experiment", *model, "--trials", "3", "--seed", "-1"]
    for name in ("a.csv", "b.csv"):
        code, _ = run_cli(capsys, *argv, "--out", str(tmp_path / name))
        assert code == EXIT_OK
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    with open(tmp_path / "a.csv", newline="") as fh:
        seeds = [int(row["seed"]) for row in csv.DictReader(fh)]
    sampled = [
        run_cli(capsys, "sample", *model, "--seed", "-1", "--trial-index", str(i))[1]["derived_seed"]
        for i in range(3)
    ]
    assert seeds == sampled == [trial_seed(-1, i) for i in range(3)]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--trials", "0"], "trials must be a positive int, got 0"),
        (["--beta", "0.6"], "beta must lie in (0, 1/2), got 0.6"),
        (["--gamma", "0.5"], "gamma must lie in (0, 1/2 - beta), got gamma=0.5, beta=0.2"),
        (["--max-attempts", "-1"], "max_random_attempts must be None or >= 0, got -1"),
    ],
    ids=["trials", "beta", "gamma", "max_attempts"],
)
def test_bad_experiment_setting_is_config_error(tmp_path, capsys, monkeypatch, flags, message):
    # every setting is checked before trial 0 draws its n-vertex sample
    def no_sample(model, rng):
        raise AssertionError("sampled before the settings were checked")

    monkeypatch.setattr(eulerext.experiment, "sample_graph", no_sample)
    out = tmp_path / "r.csv"
    argv = ["experiment", "--model-type", "homogeneous", "--n", "3000", "--p", "0.3", "--trials", "2"]
    code = main([*argv, *flags, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_BAD_CONFIG and captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


# -- exit codes and error handling --


def test_missing_graph_file_is_io_error(tmp_path, capsys):
    code, _ = run_cli(capsys, "extend", "--graph", str(tmp_path / "no.edges"),
                      "--out", str(tmp_path / "x"))
    assert code == EXIT_IO


def test_missing_matrix_file_is_io_error(tmp_path, capsys):
    code, _ = run_cli(
        capsys,
        "sample", "--model-type", "matrix", "--n", "3",
        "--matrix-file", str(tmp_path / "no.tri"),
    )
    assert code == EXIT_IO


def test_bad_model_parameters_are_config_errors(capsys):
    code, _ = run_cli(capsys, "sample", "--model-type", "homogeneous",
                      "--n", "10", "--p", "1.5")
    assert code == EXIT_BAD_CONFIG
    code, _ = run_cli(capsys, "sample", "--model-type", "homogeneous", "--n", "10")
    assert code == EXIT_BAD_CONFIG  # --p missing
    code, _ = run_cli(capsys, "sample", "--model-type", "example_family",
                      "--n", "8", "--a", "0.5", "--b", "0.1")
    assert code == EXIT_BAD_CONFIG  # family needs n >= 16
    code, _ = run_cli(capsys, "sample")
    assert code == EXIT_BAD_CONFIG  # neither spec file nor inline type


def test_malformed_graph_file_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("3\n0 1 junk\n")
    code, _ = run_cli(capsys, "oracle", "--graph", str(bad))
    assert code == EXIT_BAD_CONFIG


def test_huge_vertex_count_is_config_error(tmp_path, capsys):
    # counts of 2^63 and above fail before anything is allocated
    for count in (2**63, 99999999999999999999):
        bad = tmp_path / "huge.edges"
        bad.write_text(f"{count}\n")
        code, obj = run_cli(capsys, "extend", "--graph", str(bad), "--out", str(tmp_path / "o.edges"))
        assert code == EXIT_BAD_CONFIG and obj is None


def test_unallocatable_vertex_count_is_config_error(tmp_path):
    # 2^62 fits an index, but CPython refuses a list that long before
    # allocating anything, so the MemoryError costs no memory here
    bad = tmp_path / "huge.edges"
    bad.write_text(f"{2**62}\n")
    proc = run_module("extend", "--graph", str(bad), "--out", str(tmp_path / "o.edges"))
    assert proc.returncode == EXIT_BAD_CONFIG and proc.stdout == ""
    assert proc.stderr.startswith("error: out of memory")
    assert "Traceback" not in proc.stderr


HUGE = str(10**400)  # beyond a float and an index


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--model-type", "homogeneous", "--n", HUGE, "--p", "0.3"],
        ["bounds", "--model-type", "example_family", "--n", HUGE, "--a", "0.4", "--b", "0.2"],
        ["bounds", "--model", "{spec}"],
        ["bounds", "--model-type", "homogeneous", "--n", "100", "--p", "0.3", "--t", HUGE],
        ["experiment", "--model-type", "homogeneous", "--n", HUGE, "--p", "0.3", "--trials", "1",
         "--out", "{out}"],
    ],
    ids=["homogeneous", "family", "spec", "steps", "experiment"],
)
def test_huge_number_is_config_error(tmp_path, capsys, argv):
    spec = tmp_path / "huge.model"
    spec.write_text(f"type: homogeneous\nn: {HUGE}\np: 0.3\n")
    argv = [a.format(spec=spec, out=tmp_path / "r.csv") for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_BAD_CONFIG and captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert not (tmp_path / "r.csv").exists()


def test_negative_probe_budget_is_config_error(tmp_path, capsys):
    path = write_graph(tmp_path, "p.edges", 3, [(0, 1), (1, 2)])
    code, obj = run_cli(
        capsys, "extend", "--graph", path, "--max-attempts", "-4", "--seed", "1",
        "--out", str(tmp_path / "o.edges"),
    )
    assert code == EXIT_BAD_CONFIG and obj is None
    assert not (tmp_path / "o.edges").exists()


def test_negative_oracle_cap_is_config_error(tmp_path, capsys):
    path = write_graph(tmp_path, "p.edges", 3, [(0, 1), (1, 2)])
    code, obj = run_cli(capsys, "oracle", "--graph", path, "--cap", "-1")
    assert code == EXIT_BAD_CONFIG and obj is None


def test_bad_spec_file_is_config_error(tmp_path, capsys):
    spec = tmp_path / "weird.spec"
    spec.write_text("type: quantum\nn: 5\n")
    code, _ = run_cli(capsys, "sample", "--model", str(spec))
    assert code == EXIT_BAD_CONFIG


def test_spec_file_with_a_repeated_key_is_config_error(tmp_path, capsys):
    spec = tmp_path / "twice.model"
    spec.write_text("type: homogeneous\nn: 10\np: 0.3\np: 0.9\n")
    out = tmp_path / "g.edges"
    code = main(["sample", "--model", str(spec), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_BAD_CONFIG and captured.out == ""
    assert captured.err == "error: model spec states 'p' twice\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["sample", "--model-type", "homogeneous", "--n", "10", "--p", "0.3", "--p", "0.9", "--seed", "1"], "--p"),
        (["sample", "--model-type", "homogeneous", "--n", "10", "--n", "12", "--p", "0.3"], "--n"),
        (["sample", "--model-type", "homogeneous", "--model-type", "homogeneous", "--n", "10", "--p", "0.3"],
         "--model-type"),
        (["bounds", "--model-type", "homogeneous", "--n", "10", "--p", "0.3", "--p", "0.3"], "--p"),
        (["bounds", "--model", "{spec}", "--n", "100", "--n", "200"], "--n"),
        (["experiment", "--model-type", "example_family", "--n", "20", "--a", "0.4", "--a", "0.5", "--b", "0.2",
          "--trials", "1"], "--a"),
    ],
    ids=["sample-p", "sample-n", "sample-type", "bounds-p", "bounds-spec-n", "experiment-a"],
)
def test_repeated_inline_model_flag_is_config_error(tmp_path, capsys, argv, flag):
    # a spec-key flag may be given once, as a spec file may state its key once
    spec = tmp_path / "family.model"
    spec.write_text("type: example_family\nn: 300\na: 0.4\nb: 0.2\n")
    out = tmp_path / "out.file"
    argv = [a.format(spec=spec) for a in argv]
    if argv[0] != "bounds":
        argv += ["--out", str(out)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_BAD_CONFIG and captured.out == ""
    assert captured.err == f"error: {flag} given twice\n"
    assert not out.exists()


def test_matrix_n_is_checked_before_the_file_is_opened(tmp_path, capsys):
    # a missing matrix file is an I/O error only for a size the model could have
    for n in ("-5", "1"):
        code = main(["sample", "--model-type", "matrix", "--n", n, "--matrix-file", str(tmp_path / "no.tri")])
        captured = capsys.readouterr()
        assert code == EXIT_BAD_CONFIG and captured.out == ""
        assert captured.err == f"error: a model needs an int vertex count of at least 2, got {n}\n"


def test_nan_matrix_entry_is_a_range_error(tmp_path, capsys):
    (tmp_path / "m.tri").write_text("0.5\nnan 0.25\n")
    spec = tmp_path / "model.spec"
    spec.write_text("type: matrix\nn: 3\nmatrix_file: m.tri\n")
    assert main(["bounds", "--model", str(spec)]) == EXIT_BAD_CONFIG
    assert capsys.readouterr().err == "error: matrix entries must lie in [0, 1]\n"


def test_unknown_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_error_messages_go_to_stderr(tmp_path, capsys):
    code = main(["extend", "--graph", str(tmp_path / "no.edges"),
                 "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code == EXIT_IO
    assert captured.out == ""
    assert "error:" in captured.err


def run_module(*argv):
    # The child imports the same eulerext as this process, installed or not.
    source = str(Path(eulerext.__file__).parent.parent)
    pythonpath = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "eulerext.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath},
    )


def test_console_script_entry_point():
    # the installed script must behave like main(); one end-to-end check.
    proc = run_module("sample", "--model-type", "homogeneous", "--n", "16", "--p", "0.5")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 16


def test_module_run_is_quiet(tmp_path):
    # the package must not import cli, or -m would run a second copy of it
    # and warn on stderr
    runs = [
        ["bounds", "--model-type", "homogeneous", "--n", "100", "--p", "0.2", "--t", "3"],
        ["experiment", "--model-type", "homogeneous", "--n", "10", "--p", "0.4", "--trials", "2",
         "--seed", "-1", "--out", str(tmp_path / "r.csv")],
    ]
    for argv in runs:
        proc = run_module(*argv)
        assert proc.returncode == 0
        assert proc.stderr == ""
