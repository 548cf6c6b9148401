"""End-to-end acceptance gate.

Each test evaluates every clause of one numbered criterion, prints one
diagnostic line with the measured quantities, and only then asserts, so
a red criterion still reports exactly what was observed. The terminal
summary hook in conftest.py turns the outcomes into one PASS/FAIL line
per criterion.
"""

import math
import random
import time

import numpy as np

from eulerext import (
    BoundParams,
    ExampleFamilyModel,
    ExplicitModel,
    Graph,
    HomogeneousModel,
    alpha_stats,
    check_condition,
    chernoff_tail,
    default_params,
    e_all_check,
    e_good_check,
    extend,
    min_extension_exact,
    run_trials,
    sample_graph,
    step_success_bound,
    trial_seed,
    verify_extension,
)
from eulerext.cli import main as cli_main

from conftest import odd_fraction_probe, random_connected_edges


def test_criterion_1_structured_family_run():
    failures = []
    n, a, b = 300, 0.4, 0.2
    model = ExampleFamilyModel(n, a, b)
    stats = alpha_stats(model)
    cond = check_condition(stats, n, beta=0.2, gamma=0.1)

    start = time.perf_counter()
    records, summary = run_trials(model, 200, base_seed=1001)
    elapsed = time.perf_counter() - start

    print(
        f"criterion 1: window holds={cond.holds} "
        f"(alpha_low={stats.alpha_low:.6f} vs n^-0.2={n ** -0.2:.6f}, "
        f"alpha_up={stats.alpha_up:.6f}, margin={cond.margin:+.6f}); "
        f"connected={summary.connected_fraction:.3f}, "
        f"success_within_3t={summary.within_3t_fraction:.3f} over 200 trials; "
        f"{elapsed:.1f}s"
    )

    if not cond.holds:
        failures.append(
            f"density window fails at n={n}: margin {cond.margin:+.6f} "
            f"(lower slack {cond.lower_slack:+.6f}, upper slack {cond.upper_slack:+.6f})"
        )
    if summary.connected_fraction != 1.0:
        failures.append(f"connected fraction {summary.connected_fraction} < 1")
    if summary.within_3t_fraction < 0.99:
        failures.append(f"success-within-3t fraction {summary.within_3t_fraction} < 0.99")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    assert not failures, "; ".join(failures)


def test_criterion_2_universal_verification():
    sizes = (50, 100, 200)
    configs = [HomogeneousModel(n, p) for n in sizes for p in (0.1, 0.3, 0.5)]
    configs += [ExampleFamilyModel(n, 0.4, 0.2) for n in sizes]
    per_config = 834  # 12 * 834 = 10008 trials, past the 10^4 mark

    start = time.perf_counter()
    total = successes = violations = 0
    for idx, model in enumerate(configs):
        base = 2000 + idx
        for i in range(per_config):
            rng = np.random.default_rng(trial_seed(base, i))
            g = sample_graph(model, rng)
            result = extend(g, rng=rng)
            total += 1
            if result.success:
                successes += 1
                if not verify_extension(g, result).ok:
                    violations += 1
    elapsed = time.perf_counter() - start

    print(
        f"criterion 2: {total} trials over {len(configs)} models, "
        f"{successes} successes, {violations} verification violations; {elapsed:.1f}s"
    )
    assert total >= 10**4
    assert violations == 0, f"{violations} successes failed independent verification"


def test_criterion_3_oracle_sandwich():
    failures = []
    rnd = random.Random(33)
    successes = 0
    for _ in range(500):
        n = rnd.randint(2, 6)
        g = Graph.from_edge_list(n, random_connected_edges(rnd, n))
        result = extend(g, rng=np.random.default_rng(rnd.randrange(2**32)))
        answer = min_extension_exact(g)
        if not result.success:
            continue
        successes += 1
        t = g.t_value()
        added = len(result.added_edges)
        if not answer.extendable:
            failures.append(f"engine succeeded but oracle found nothing: {sorted(g.edges())}")
        elif not t <= answer.min_edges <= added <= 3 * t:
            failures.append(
                f"sandwich broken (t={t}, oracle={answer.min_edges}, added={added}): "
                f"{sorted(g.edges())}"
            )

    fixed = {
        "P3": Graph.from_edge_list(3, [(0, 1), (1, 2)]),
        "C4": Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        "K4": Graph.from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        "K13": Graph.from_edge_list(4, [(0, 1), (0, 2), (0, 3)]),
        "P5": Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    }
    stuck = []
    for name, g in fixed.items():
        result = extend(g, rng=np.random.default_rng(7))
        answer = min_extension_exact(g)
        if name in ("K4", "K13"):
            if result.success:
                failures.append(f"{name}: engine claimed success on an unextendable graph")
            if answer.extendable:
                failures.append(f"{name}: oracle claimed extendability")
            stuck.append(name)
        elif result.success:
            t, added = g.t_value(), len(result.added_edges)
            if not (answer.extendable and t <= answer.min_edges <= added <= 3 * t):
                failures.append(f"{name}: sandwich broken")

    print(
        f"criterion 3: {successes}/500 random successes sandwiched, "
        f"unextendable fixed cases {stuck}, {len(failures)} violations"
    )
    assert successes > 300  # the sweep must be nontrivial
    assert not failures, "; ".join(failures)


def test_criterion_4_concentration_events():
    failures = []
    n, p, trials = 500, 0.3, 200
    model = HomogeneousModel(n, p)
    stats = alpha_stats(model)
    eps = float(n) ** -0.3
    params = BoundParams(beta=0.2, gamma=0.1, zeta=0.3, epsilon=eps)

    deg_hits = edge_hits = all_hits = 0
    for i in range(trials):
        g = sample_graph(model, np.random.default_rng(trial_seed(4000, i)))
        chk = e_good_check(g, stats, params)
        deg_hits += chk.deg_ok
        edge_hits += chk.edge_ok
        all_hits += e_all_check(g)
    deg_f, edge_f, all_f = deg_hits / trials, edge_hits / trials, all_hits / trials
    sparse_regime = stats.alpha_up <= 0.5 - math.log(n) ** 3 / n

    # context for the degree line: the cap alpha_up (1+eps) (n-1) sits about
    # 2.3 sd above the mean degree, so the maximum over 500 vertices clears
    # it in almost every sample
    cap = stats.alpha_up * (1 + eps) * (n - 1)
    print(
        f"criterion 4: eps={eps:.5f}; degree freq {deg_f:.3f} "
        f"(cap {cap:.1f} vs mean {p * (n - 1):.1f}), edge freq {edge_f:.3f}, "
        f"common-non-neighbor freq {all_f:.3f} (sparse regime holds={sparse_regime})"
    )

    if deg_f < 0.99:
        failures.append(f"degree event frequency {deg_f:.3f} < 0.99")
    if edge_f < 0.99:
        failures.append(f"edge event frequency {edge_f:.3f} < 0.99")
    if all_f < 0.99:
        failures.append(f"common-non-neighbor event frequency {all_f:.3f} < 0.99")
    assert not failures, "; ".join(failures)


def test_criterion_5_analytic_formulas():
    failures = []

    tail = chernoff_tail(100, 0.5)
    want = math.exp(-6.25)
    tail_rel = abs(tail / want - 1.0)
    if tail_rel > 1e-12:
        failures.append(f"tail value off by {tail_rel:.2e} relative")

    mat = [[0.0, 0.2, 0.4], [0.2, 0.0, 0.6], [0.4, 0.6, 0.0]]
    s3 = alpha_stats(ExplicitModel(3, mat))
    for got, want_v in zip(s3.per_vertex_avg, (0.3, 0.4, 0.5)):
        if abs(got - want_v) > 1e-12:
            failures.append(f"per-vertex average {got!r} != {want_v}")
    if abs(s3.alpha_low - 0.3) > 1e-12 or abs(s3.alpha_up - 0.5) > 1e-12:
        failures.append(f"3-vertex extremes ({s3.alpha_low}, {s3.alpha_up})")
    if abs(s3.alpha_e - 0.4) > 1e-12:
        failures.append(f"3-vertex pair mean {s3.alpha_e!r} != 0.4")

    fam = alpha_stats(ExampleFamilyModel(4096, 0.4, 0.2))
    if fam.alpha_up != 0.4:
        failures.append(f"family alpha_up {fam.alpha_up!r} is not exactly 0.4")
    low_rel = abs(fam.alpha_low / 0.2 - 1.0)
    low_tol = 2.0 / math.log(4096)
    if low_rel > low_tol:
        failures.append(f"family alpha_low off by {low_rel:.4f} > {low_tol:.4f}")

    diffs = []
    for n in (10**4, 10**5):
        stats = alpha_stats(HomogeneousModel(n, 0.2))
        cond = check_condition(stats, n, beta=0.2, gamma=0.1)
        if not cond.holds:
            failures.append(f"setup broken: window fails for 0.2-homogeneous at n={n}")
        sb = step_success_bound(stats, n, default_params(n), t=1)
        diffs.append((n, sb.diff, sb.analytic_floor))
        if not sb.diff > 0:
            failures.append(f"step diff {sb.diff:.6f} <= 0 at n={n}")
        if not sb.diff >= sb.analytic_floor:
            failures.append(f"step diff {sb.diff:.6f} below floor {sb.analytic_floor:.6f} at n={n}")

    print(
        f"criterion 5: tail rel err {tail_rel:.1e}; "
        f"3-vertex stats ({s3.alpha_low:.1f}, {s3.alpha_up:.1f}, {s3.alpha_e:.1f}); "
        f"family alpha_up={fam.alpha_up}, alpha_low rel dev {low_rel:.4f} (tol {low_tol:.4f}); "
        + "; ".join(f"n={n}: diff {d:.4f} >= floor {f:.4f}" for n, d, f in diffs)
    )
    assert not failures, "; ".join(failures)


def test_criterion_6_odd_fraction_probe():
    est = odd_fraction_probe(1000, 0.5, trials=50, seed=0)
    print(f"criterion 6: mean odd-degree fraction {est:.4f} over 50 trials at n=1000")
    assert 0.45 <= est <= 0.55, f"odd fraction {est:.4f} outside [0.45, 0.55]"


def test_criterion_7_reproducibility(tmp_path, capsys):
    def run(out, fmt):
        argv = [
            "experiment", "--model-type", "homogeneous", "--n", "40", "--p", "0.3",
            "--trials", "25", "--seed", "5", "--out", str(out), "--format", fmt,
        ]
        assert cli_main(argv) == 0
        return capsys.readouterr().out

    out_a = run(tmp_path / "a.csv", "csv")
    out_b = run(tmp_path / "b.csv", "csv")
    csv_same = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    run(tmp_path / "a.jsonl", "jsonl")
    run(tmp_path / "b.jsonl", "jsonl")
    jsonl_same = (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    summaries_same = out_a.replace("a.csv", "") == out_b.replace("b.csv", "")

    print(
        f"criterion 7: csv byte-identical={csv_same}, jsonl byte-identical={jsonl_same}, "
        f"summaries identical={summaries_same}"
    )
    assert csv_same and jsonl_same and summaries_same
