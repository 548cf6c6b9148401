import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerext import (
    DEFAULT_BETA,
    DEFAULT_GAMMA,
    BoundParams,
    Graph,
    HomogeneousModel,
    alpha_stats,
    chernoff_tail,
    default_params,
    e_all_check,
    e_good_check,
    min_common_non_neighbors,
    sample_graph,
    step_success_bound,
)

from conftest import common_non_neighbors_ref, random_edges


# -- tail bound --


def test_chernoff_values():
    assert chernoff_tail(100.0, 0.5) == pytest.approx(math.exp(-6.25))
    assert chernoff_tail(4.0, 0.5) == pytest.approx(math.exp(-0.25))
    # doubling mu squares nothing but halves the log linearly
    assert math.log(chernoff_tail(200.0, 0.1)) == pytest.approx(
        2 * math.log(chernoff_tail(100.0, 0.1))
    )


def test_chernoff_domain():
    for eps in (0.0, -0.1, 0.5000001, 1.0):
        with pytest.raises(ValueError):
            chernoff_tail(10.0, eps)
    with pytest.raises(ValueError):
        chernoff_tail(0.0, 0.25)
    with pytest.raises(ValueError):
        chernoff_tail(-5.0, 0.25)
    chernoff_tail(1e-9, 0.5)  # tiny but positive mean is fine


@given(
    st.floats(1e-6, 1e9),
    st.floats(1e-6, 0.5),
    st.floats(1e-6, 0.5),
)
@settings(max_examples=100, deadline=None)
def test_chernoff_monotone(mu, e1, e2):
    lo, hi = sorted((e1, e2))
    # huge mu legitimately underflows the tail to 0.0
    assert 0.0 <= chernoff_tail(mu, hi) <= chernoff_tail(mu, lo) <= 1.0


def test_chernoff_against_simulation():
    # empirical check at mu = 120, eps = 0.5: the simulated two-sided
    # deviation frequency must stay below exp(-7.5) in spirit; sampling
    # noise makes exact comparison moot, so check the far cruder fact
    # that violations are rare while the bound is not vacuous
    rng = np.random.default_rng(2)
    n_pairs, p = 400, 0.3
    mu = n_pairs * p
    eps = 0.5
    sums = rng.binomial(n_pairs, p, size=4000)
    freq = np.mean(np.abs(sums - mu) >= eps * mu)
    assert freq <= chernoff_tail(mu, eps) + 0.01
    assert chernoff_tail(mu, eps) < 1.0


# -- parameter window --


def test_default_constants():
    assert DEFAULT_BETA == 0.2
    assert DEFAULT_GAMMA == 0.1


def test_default_params_midpoint():
    p = default_params(1000)
    lo = 0.1 + 0.1
    hi = 0.4
    assert p.zeta == pytest.approx((lo + hi) / 2)  # 0.3
    assert p.epsilon == pytest.approx(1000.0 ** -0.3)
    assert p.beta == 0.2 and p.gamma == 0.1


def test_default_params_validation():
    with pytest.raises(ValueError):
        default_params(1)
    default_params(2)


def test_bound_params_windows():
    BoundParams(0.2, 0.1, 0.3, 0.05)
    with pytest.raises(ValueError):
        BoundParams(0.0, 0.1, 0.3, 0.05)
    with pytest.raises(ValueError):
        BoundParams(0.5, 0.1, 0.3, 0.05)
    with pytest.raises(ValueError):
        BoundParams(0.2, 0.0, 0.3, 0.05)
    with pytest.raises(ValueError):
        BoundParams(0.2, 0.3, 0.3, 0.05)  # gamma hits 1/2 - beta
    with pytest.raises(ValueError):
        BoundParams(0.2, 0.1, 0.2, 0.05)  # zeta at the lower edge
    with pytest.raises(ValueError):
        BoundParams(0.2, 0.1, 0.4, 0.05)  # zeta at the upper edge
    with pytest.raises(ValueError):
        BoundParams(0.2, 0.1, 0.3, 0.0)
    # epsilon above 1/2 is allowed here; the tail bound rejects it later
    BoundParams(0.2, 0.1, 0.3, 0.7)


@given(st.floats(0.01, 0.49), st.data())
@settings(max_examples=60, deadline=None)
def test_default_params_always_in_window(beta, data):
    gamma = data.draw(st.floats(0.001, (0.5 - beta) * 0.98))
    n = data.draw(st.integers(2, 10**6))
    p = default_params(n, beta, gamma)
    assert gamma + beta / 2 < p.zeta < (1 - beta) / 2
    assert p.epsilon == n ** (-p.zeta)


# -- typical-graph events --


def test_e_good_exact_threshold():
    # 10 vertices, homogeneous 0.5, epsilon forced to 0: the caps are
    # 4.5 per vertex and 22.5 edges; C10 (degree 2, 10 edges) passes,
    # K10 (degree 9, 45 edges) fails both
    stats = alpha_stats(HomogeneousModel(10, 0.5))
    params = BoundParams(0.2, 0.1, 0.3, 1e-12)
    c10 = Graph.from_edge_list(10, [(i, (i + 1) % 10) for i in range(10)])
    chk = e_good_check(c10, stats, params)
    assert chk.deg_ok and chk.edge_ok and chk.holds
    k10 = Graph.from_edge_list(10, [(u, v) for u in range(10) for v in range(u + 1, 10)])
    chk = e_good_check(k10, stats, params)
    assert not chk.deg_ok and not chk.edge_ok and not chk.holds


def test_e_good_mixed_outcome():
    # a star inside an otherwise empty graph: one huge degree, few edges
    stats = alpha_stats(HomogeneousModel(12, 0.3))
    params = BoundParams(0.2, 0.1, 0.3, 1e-12)
    star = Graph.from_edge_list(12, [(0, v) for v in range(1, 12)])
    chk = e_good_check(star, stats, params)
    assert not chk.deg_ok
    assert chk.edge_ok  # 11 edges vs cap 0.3 * 66 = 19.8
    assert not chk.holds


def test_e_good_boundary_is_inclusive():
    # alpha_up (1+eps) (n-1) with eps chosen so the cap is exactly the max
    # degree: membership is <=, not <
    stats = alpha_stats(HomogeneousModel(5, 0.5))
    g = Graph.from_edge_list(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    # max degree 2; cap = 0.5 * (1 + 0) * 4 = 2 exactly
    params = BoundParams(0.2, 0.1, 0.3, 1e-300)
    assert e_good_check(g, stats, params).deg_ok


def test_min_common_non_neighbors_small():
    g = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    # pair (1,2): non-neighbors of 1 = {3}, of 2 = {0}; intersection empty
    assert min_common_non_neighbors(g) == 0
    assert min_common_non_neighbors(Graph(4)) == 2
    assert min_common_non_neighbors(Graph(2)) == 0
    with pytest.raises(ValueError):
        min_common_non_neighbors(Graph(1))


@given(st.integers(2, 9), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_min_common_non_neighbors_matches_reference(n, seed):
    rnd = random.Random(seed)
    edges = random_edges(rnd, n, 0.5)
    g = Graph.from_edge_list(n, edges)
    ref = min(
        len(common_non_neighbors_ref(n, edges, u, v))
        for u in range(n)
        for v in range(u + 1, n)
    )
    assert min_common_non_neighbors(g) == ref
    assert e_all_check(g) == (ref >= math.log(n) ** 3 / 2.0)


def test_e_all_threshold_arithmetic():
    # (ln 20)^3 / 2 = 13.43...; the empty graph on 20 vertices gives every
    # pair 18 common non-neighbors, K20 gives 0
    assert e_all_check(Graph(20))
    k20 = Graph.from_edge_list(20, [(u, v) for u in range(20) for v in range(u + 1, 20)])
    assert not e_all_check(k20)
    # nominal-size override: the empty graph on 20 vertices fails the floor
    # evaluated as if n were 10^6 ((ln 1e6)^3/2 = 1319.6 > 18)
    assert not e_all_check(Graph(20), n=10**6)
    with pytest.raises(ValueError):
        e_all_check(Graph(1))


def test_e_all_on_sampled_midrange():
    # homogeneous n=300, p=0.2: each pair expects 298 * 0.64 = 190.7 common
    # non-neighbors (sd 8.3) while the floor is (ln 300)^3 / 2 = 92.8, so
    # even the minimum over all 44850 pairs clears it with room to spare
    model = HomogeneousModel(300, 0.2)
    rng = np.random.default_rng(31)
    passes = sum(e_all_check(sample_graph(model, rng)) for _ in range(10))
    assert passes == 10
    # at p=0.7 the pair mean drops to 298 * 0.09 = 26.8, far below the floor
    dense = HomogeneousModel(300, 0.7)
    assert not e_all_check(sample_graph(dense, rng))


# -- step bounds --


def test_step_bound_hand_computed():
    # alpha = 0.2 homogeneous, n = 100, eps = 0.1, t = 3:
    # p_lower = 2 (1 - 0.22)^2 = 1.2168; q_upper = 0.09 + 0.22 = 0.31
    stats = alpha_stats(HomogeneousModel(100, 0.2))
    params = BoundParams(0.2, 0.1, 0.3, 0.1)
    sb = step_success_bound(stats, 100, params, 3)
    assert sb.p_lower == pytest.approx(1.2168)
    assert sb.q_upper == pytest.approx(0.31)
    assert sb.diff == pytest.approx(0.9068)
    assert sb.product_log == pytest.approx(3 * math.log(0.9068))
    floor = math.sqrt(2) * 100 ** -0.2 - 0.01 - 2 * 100 ** -0.3
    assert sb.analytic_floor == pytest.approx(floor)


def test_step_bound_zero_steps():
    stats = alpha_stats(HomogeneousModel(50, 0.3))
    sb = step_success_bound(stats, 50, default_params(50), 0)
    assert sb.product_log == 0.0


def test_step_bound_negative_diff():
    # dense model: detour failure dominates, the product bound is zero
    stats = alpha_stats(HomogeneousModel(50, 0.95))
    sb = step_success_bound(stats, 50, default_params(50), 2)
    assert sb.diff < 0
    assert sb.product_log == -math.inf


def test_step_bound_validation():
    stats = alpha_stats(HomogeneousModel(50, 0.3))
    with pytest.raises(ValueError):
        step_success_bound(stats, 1, default_params(50), 1)
    with pytest.raises(ValueError):
        step_success_bound(stats, 50, default_params(50), -1)


def test_step_bound_floor_cleared_in_window():
    # when the density window holds, the measured diff must beat the
    # analytic floor; homogeneous 0.2 at n = 10^4 with default exponents
    # keeps the floor itself positive (the floor needs n^(zeta - gamma -
    # beta/2) > sqrt(2), so narrow exponent windows push that n out of
    # reach and leave the floor negative but still valid)
    from eulerext import ExampleFamilyModel, check_condition

    n = 10**4
    stats = alpha_stats(HomogeneousModel(n, 0.2))
    assert check_condition(stats, n, DEFAULT_BETA, DEFAULT_GAMMA).holds
    sb = step_success_bound(stats, n, default_params(n), 1)
    assert sb.analytic_floor == pytest.approx(0.09784628, abs=1e-7)
    assert sb.diff > sb.analytic_floor > 0

    # the structured family with matched exponents: floor negative at this
    # size, the ordering still holds and diff is solidly positive
    stats = alpha_stats(ExampleFamilyModel(4096, 0.4, 0.2))
    assert check_condition(stats, 4096, 0.3, 0.18).holds
    sb = step_success_bound(stats, 4096, default_params(4096, 0.3, 0.18), 1)
    assert sb.analytic_floor < 0 < sb.diff
    assert sb.diff >= sb.analytic_floor


@given(st.integers(2, 10**5), st.floats(0.01, 0.99), st.integers(0, 50))
@settings(max_examples=80, deadline=None)
def test_step_bound_consistency(n, p, t):
    stats = alpha_stats(HomogeneousModel(max(n, 2), p))
    params = default_params(max(n, 2))
    sb = step_success_bound(stats, max(n, 2), params, t)
    assert sb.diff == pytest.approx(sb.p_lower - sb.q_upper)
    if t == 0:
        assert sb.product_log == 0.0
    elif sb.diff <= 0:
        assert sb.product_log == -math.inf
    else:
        assert sb.product_log == pytest.approx(t * math.log(sb.diff))
