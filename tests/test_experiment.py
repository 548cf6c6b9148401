import csv
import json
import math

import numpy as np
import pytest

from eulerext import (
    EMITTED_FIELDS,
    ConfigError,
    ExperimentConfig,
    HomogeneousModel,
    Summary,
    TrialRecord,
    min_extension_exact,
    run_single_trial,
    run_trials,
    sample_graph,
    summarize,
    trial_seed,
    write_records,
)

from conftest import odd_fraction_probe


# -- seed derivation --


def test_trial_seed_reference_vector():
    # splitmix output stream for base seed 0, published so other
    # implementations can reproduce record files exactly
    assert trial_seed(0, 0) == 0xE220A8397B1DCDAF
    assert trial_seed(0, 1) == trial_seed(0, 1)
    assert trial_seed(0, 0) != trial_seed(0, 1)
    assert trial_seed(1, 0) != trial_seed(0, 0)


def test_trial_seed_wraps_modulo_2_64():
    # base + increment overflows 64 bits without error
    big = 2**64 - 1
    s = trial_seed(big, 5)
    assert 0 <= s < 2**64


def test_trial_seed_rejects_negative_index():
    with pytest.raises(ValueError):
        trial_seed(0, -1)


def test_trial_seed_spread():
    seeds = {trial_seed(0, i) for i in range(1000)}
    assert len(seeds) == 1000


# -- config validation --


def model10():
    return HomogeneousModel(10, 0.4)


def test_config_defaults():
    c = ExperimentConfig(model10(), trials=3)
    assert c.base_seed == 0 and c.beta == 0.2 and c.gamma == 0.1
    assert c.out_path is None and c.out_format == "csv"


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(trials=0),
        dict(trials=-2),
        dict(trials=True),
        dict(trials=2, base_seed=-1),
        dict(trials=2, beta=0.6),
        dict(trials=2, gamma=0.5),
        dict(trials=2, max_random_attempts=-3),
        dict(trials=2, out_format="xml"),
    ],
)
def test_config_rejects(kwargs):
    with pytest.raises(ConfigError):
        ExperimentConfig(model10(), **kwargs)


def test_config_rejects_non_model():
    with pytest.raises(ConfigError):
        ExperimentConfig("not a model", trials=2)


# -- single trials --


def test_single_trial_fields_consistent():
    r = run_single_trial(model10(), 0, base_seed=123)
    assert r.trial_index == 0
    assert r.seed == trial_seed(123, 0)
    assert r.n == 10
    assert 0 <= r.delta_sampled <= 9
    assert 0 <= r.m_sampled <= 45
    assert 0 <= r.t_value <= 5
    assert r.edges_added == r.pairing_edges + r.two_path_edges + r.three_path_edges
    if r.engine_success:
        assert r.failure_reason is None
        assert r.within_3t == (r.edges_added <= 3 * r.t_value)
    else:
        assert r.failure_reason in ("disconnected_input", "no_three_path")
        assert not r.within_3t
    assert r.wall_time >= 0.0


def test_single_trial_reproducible():
    a = run_single_trial(model10(), 7, base_seed=5)
    b = run_single_trial(model10(), 7, base_seed=5)
    for name in EMITTED_FIELDS:
        assert getattr(a, name) == getattr(b, name)


def test_single_trial_matches_manual_replay():
    # replaying the documented seed recipe by hand gives the same graph
    model = model10()
    r = run_single_trial(model, 3, base_seed=9)
    g = sample_graph(model, np.random.default_rng(trial_seed(9, 3)))
    assert g.m == r.m_sampled
    assert g.max_degree() == r.delta_sampled
    assert g.t_value() == r.t_value
    assert g.is_connected() == r.connected


def test_single_trial_connected_comes_from_the_engine():
    # at p=0.15 most samples are disconnected and some are not; at p=0.95
    # some connected samples fail in phase three. n is above the oracle's
    # cap, whose search is slow on disconnected samples
    seen = set()
    for model in (HomogeneousModel(16, 0.15), HomogeneousModel(13, 0.95)):
        for i in range(40):
            r = run_single_trial(model, i, base_seed=4)
            g = sample_graph(model, np.random.default_rng(trial_seed(4, i)))
            assert r.connected == g.is_connected()
            assert (r.failure_reason == "disconnected_input") == (not r.connected)
            seen.add((r.connected, r.failure_reason))
    assert seen == {(False, "disconnected_input"), (True, None), (True, "no_three_path")}


def test_single_trial_oracle_cross_check():
    # n = 10 <= the oracle limit, so every record carries the exact answer
    for i in range(8):
        r = run_single_trial(model10(), i, base_seed=77)
        if r.engine_success:
            assert r.oracle_min is not None
            assert r.oracle_min <= r.edges_added


def test_single_trial_skips_oracle_above_limit():
    model = HomogeneousModel(13, 0.5)
    r = run_single_trial(model, 0, base_seed=0)
    assert r.oracle_min is None


# -- batches, summaries --


def test_run_trials_summary_fractions():
    (records, summary) = run_trials(ExperimentConfig(model10(), trials=20, base_seed=1))
    assert summary.trials == 20 and len(records) == 20
    assert summary.success_fraction == sum(r.engine_success for r in records) / 20
    assert summary.within_3t_fraction <= summary.success_fraction
    assert 0.0 <= summary.e_all_fraction <= 1.0
    assert summary.m_mean == pytest.approx(sum(r.m_sampled for r in records) / 20)
    exp_std = math.sqrt(
        sum((r.m_sampled - summary.m_mean) ** 2 for r in records) / 20
    )
    assert summary.m_std == pytest.approx(exp_std)
    assert summary.as_dict()["trials"] == 20


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])


def test_records_independent_of_batch_position():
    # trial i is a function of (base_seed, i) alone, not of earlier trials
    records, _ = run_trials(ExperimentConfig(model10(), trials=5, base_seed=42))
    solo = run_single_trial(model10(), 3, base_seed=42)
    for name in EMITTED_FIELDS:
        assert getattr(records[3], name) == getattr(solo, name)


# -- record files --


def test_emitted_fields_exclude_wall_time():
    assert "wall_time" not in EMITTED_FIELDS
    assert EMITTED_FIELDS[0] == "trial_index"
    assert set(EMITTED_FIELDS) | {"wall_time"} == {
        f.name for f in TrialRecord.__dataclass_fields__.values()
    }


def test_csv_format_and_determinism(tmp_path):
    cfg1 = ExperimentConfig(
        model10(), trials=6, base_seed=3, out_path=str(tmp_path / "a.csv")
    )
    run_trials(cfg1)
    cfg2 = ExperimentConfig(
        model10(), trials=6, base_seed=3, out_path=str(tmp_path / "b.csv")
    )
    run_trials(cfg2)
    a = (tmp_path / "a.csv").read_bytes()
    assert a == (tmp_path / "b.csv").read_bytes()
    assert b"\r" not in a  # unix newlines regardless of platform

    with open(tmp_path / "a.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(EMITTED_FIELDS)
    assert len(rows) == 7
    by_name = dict(zip(rows[0], rows[1]))
    assert by_name["trial_index"] == "0"
    assert by_name["seed"] == str(trial_seed(3, 0))
    assert by_name["connected"] in ("0", "1")  # bools are 0/1, not True/False
    assert by_name["engine_success"] in ("0", "1")
    if by_name["failure_reason"] == "":
        assert by_name["engine_success"] == "1"


def test_jsonl_format(tmp_path):
    path = tmp_path / "r.jsonl"
    cfg = ExperimentConfig(
        model10(), trials=4, base_seed=8, out_path=str(path), out_format="jsonl"
    )
    records, _ = run_trials(cfg)
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    for line, rec in zip(lines, records):
        obj = json.loads(line)
        assert list(obj.keys()) == list(EMITTED_FIELDS)
        assert obj["trial_index"] == rec.trial_index
        assert obj["seed"] == rec.seed
        assert isinstance(obj["connected"], bool)
        if rec.failure_reason is None:
            assert obj["failure_reason"] is None
    # compact separators, no spaces after the colon
    assert ": " not in lines[0]


def test_csv_jsonl_carry_identical_values(tmp_path):
    records, _ = run_trials(ExperimentConfig(model10(), trials=3, base_seed=2))
    write_records(records, tmp_path / "x.csv", "csv")
    write_records(records, tmp_path / "x.jsonl", "jsonl")
    with open(tmp_path / "x.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    objs = [json.loads(line) for line in (tmp_path / "x.jsonl").read_text().splitlines()]
    for row, obj in zip(rows, objs):
        for name in EMITTED_FIELDS:
            c, j = row[name], obj[name]
            if j is None:
                assert c == ""
            elif isinstance(j, bool):
                assert c == ("1" if j else "0")
            else:
                assert c == str(j)


def test_write_records_unknown_format(tmp_path):
    records, _ = run_trials(ExperimentConfig(model10(), trials=1))
    with pytest.raises(ValueError):
        write_records(records, tmp_path / "x.bin", "parquet")


def test_float_cells_use_9_significant_digits(tmp_path):
    # no float fields are currently emitted, but the cell formatter is part
    # of the file contract; pin it directly
    from eulerext.experiment import _csv_cell

    assert _csv_cell(0.1 + 0.2) == "0.3"
    assert _csv_cell(1 / 3) == "0.333333333"
    assert _csv_cell(None) == ""
    assert _csv_cell(True) == "1"
    assert _csv_cell(False) == "0"
    assert _csv_cell(12) == "12"


# -- odd-degree probe --


def test_odd_fraction_probe_near_half():
    # any fixed p in (0,1) puts each degree at parity ~1/2 for even n-1
    est = odd_fraction_probe(30, 0.35, trials=40, seed=1)
    assert abs(est - 0.5) < 0.08


def test_odd_fraction_probe_complete_graph():
    # p = 1 gives K_n deterministically: all degrees n-1
    assert odd_fraction_probe(8, 1.0, trials=3) == 1.0  # degree 7 is odd
    assert odd_fraction_probe(9, 1.0, trials=3) == 0.0  # degree 8 is even


def test_odd_fraction_probe_validation():
    with pytest.raises(ValueError):
        odd_fraction_probe(10, 0.0, trials=2)
    with pytest.raises(ValueError):
        odd_fraction_probe(10, 1.5, trials=2)
    with pytest.raises(ValueError):
        odd_fraction_probe(10, 0.5, trials=0)


def test_summary_is_frozen():
    s = summarize(run_trials(ExperimentConfig(model10(), trials=2))[0])
    assert isinstance(s, Summary)
    with pytest.raises(Exception):
        s.trials = 99
