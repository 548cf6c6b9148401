import ast
import inspect
import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerext import (
    DEFAULT_BETA,
    DEFAULT_GAMMA,
    BoundParams,
    ExampleFamilyModel,
    Graph,
    HomogeneousModel,
    alpha_stats,
    chernoff_tail,
    default_params,
    e_all_check,
    e_good_check,
    sample_graph,
    step_success_bound,
)

from conftest import common_non_neighbors_ref, min_common_non_neighbors_ref, random_edges


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
    assert chk.deg_ok and chk.edge_ok
    k10 = Graph.from_edge_list(10, [(u, v) for u in range(10) for v in range(u + 1, 10)])
    chk = e_good_check(k10, stats, params)
    assert not chk.deg_ok and not chk.edge_ok


def test_e_good_mixed_outcome():
    # a star inside an otherwise empty graph: one huge degree, few edges
    stats = alpha_stats(HomogeneousModel(12, 0.3))
    params = BoundParams(0.2, 0.1, 0.3, 1e-12)
    star = Graph.from_edge_list(12, [(0, v) for v in range(1, 12)])
    chk = e_good_check(star, stats, params)
    assert not chk.deg_ok
    assert chk.edge_ok  # 11 edges vs cap 0.3 * 66 = 19.8


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
    assert min_common_non_neighbors_ref(g) == 0 and not check_e_all(g)
    assert min_common_non_neighbors_ref(Graph(4)) == 2 and check_e_all(Graph(4))
    assert min_common_non_neighbors_ref(Graph(2)) == 0 and not check_e_all(Graph(2))
    with pytest.raises(ValueError):
        min_common_non_neighbors_ref(Graph(1))


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
    assert min_common_non_neighbors_ref(g) == ref
    assert check_e_all(g) == (ref >= math.log(n) ** 3 / 2.0)


@given(st.integers(2, 12), st.floats(0.0, 0.95), st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_min_common_non_neighbors_matches_pair_loop(n, p, seed):
    g = Graph.from_edge_list(n, random_edges(random.Random(seed), n, p))
    check_e_all(g)


@pytest.mark.parametrize("n", [2, 7, 8, 9, 63, 64, 65, 257])
def test_min_common_non_neighbors_packing_boundaries(n, monkeypatch):
    # sizes on either side of a byte and a 64-bit word, so the last,
    # partly filled byte of each packed row reaches the float32 product
    row_counts = count_unpacked_rows(monkeypatch)

    def star(leaves):
        return Graph.from_edge_list(n, [(u, n - 1) for u in range(leaves)])

    complete = Graph.from_edge_list(n, combinations(range(n), 2))
    full = star(n - 1)
    # a vertex adjacent to all others refutes both from the degrees alone
    assert not e_all_check(complete) and not e_all_check(full)
    assert row_counts == []
    assert min_common_non_neighbors_ref(complete) == min_common_non_neighbors_ref(full) == 0
    # the zero comes only from pairs holding the last vertex: any other
    # pair shares the remaining n - 3 vertices
    others = [
        (full.non_neighbors_mask(u) & full.non_neighbors_mask(w)).bit_count()
        for u, w in combinations(range(n - 1), 2)
    ]
    assert all(c == n - 3 for c in others)
    if n > 2:
        # a star on s leaves round the last vertex has min(n - 2 - s, n - 3)
        # as its minimum, so s = n - 2 - k leaves exactly k = ceil(floor)
        # and one more leaf k - 1; the risky rows are the star's s + 1
        # vertices, and all n once one more leaf lowers the slack to k - 1;
        # the hub keeps at least k >= floor non-neighbours, so the degrees
        # refute neither and both reach the product
        k = math.ceil(floor_of(n))
        at_floor, below = star(n - 2 - k), star(n - 1 - k)
        assert e_all_check(at_floor) and not e_all_check(below)
        assert row_counts == [n - 1 - k, n]
        assert min_common_non_neighbors_ref(at_floor) == k
        assert min_common_non_neighbors_ref(below) == k - 1


def test_min_common_non_neighbors_family_300():
    g = sample_graph(ExampleFamilyModel(300, 0.4, 0.2), np.random.default_rng(7))
    assert check_e_all(g) == (min_common_non_neighbors_ref(g) >= floor_of(300))
    # neither refuted nor certified by the degrees: the product counts the risky rows
    assert g.n - 1 - g.max_degree() >= floor_of(300) and risky_count(g) >= 2


def test_e_all_threshold_arithmetic():
    # (ln 20)^3 / 2 = 13.43...; the empty graph on 20 vertices gives every
    # pair 18 common non-neighbors, K20 gives 0
    assert e_all_check(Graph(20))
    k20 = Graph.from_edge_list(20, [(u, v) for u in range(20) for v in range(u + 1, 20)])
    assert not e_all_check(k20)
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


def floor_of(n):
    return math.log(n) ** 3 / 2.0


def risky_count(g):
    # vertices whose degree plus the maximum degree leaves fewer than the
    # floor of guaranteed common non-neighbours
    n = g.n
    degrees = [n - 1 - g.non_neighbors_mask(v).bit_count() for v in range(n)]
    return sum(n - 2 - d - max(degrees) < floor_of(n) for d in degrees)


def count_unpacked_rows(patch):
    # the row count of each later Graph.non_neighbor_matrix call
    unpack = Graph.non_neighbor_matrix
    row_counts = []

    def counted(self, vertices):
        rows = unpack(self, vertices)
        row_counts.append(len(rows))
        return rows

    patch.setattr(Graph, "non_neighbor_matrix", counted)
    return row_counts


def check_e_all(g):
    # the check against the exact minimum; it unpacks no rows when the
    # degrees refute or certify, and the risky rows once otherwise
    expected = min_common_non_neighbors_ref(g) >= floor_of(g.n)
    with pytest.MonkeyPatch.context() as patch:
        row_counts = count_unpacked_rows(patch)
        assert e_all_check(g) == expected
    refuted = g.n - 1 - g.max_degree() < floor_of(g.n)
    risky = risky_count(g)
    assert row_counts == ([] if refuted or risky < 2 else [risky])
    return expected


def hubs(n, leaf_sets):
    # hub i is vertex i, joined to each vertex of leaf_sets[i]
    return Graph.from_edge_list(n, [(i, v) for i, leaves in enumerate(leaf_sets) for v in leaves])


# n = 40: the floor is 25.09, so a pair needs 26 common non-neighbours, and
# a vertex certifies when its degree plus the maximum degree is at most 12
SKEWED_40 = {
    "empty": (Graph(40), 0, True),
    "one_hub": (hubs(40, [range(1, 9)]), 1, True),
    "two_hubs_shared_leaves": (hubs(40, [range(2, 10), range(2, 10)]), 2, True),
    "two_hubs_own_leaves": (hubs(40, [range(2, 10), range(10, 18)]), 2, False),
    # every pair of K_{2,12} plus isolated vertices that meets the hubs has
    # exactly 26 = ceil(floor) common non-neighbours
    "at_the_floor": (hubs(40, [range(2, 14), range(2, 14)]), 14, True),
    # the two hubs have 13 neighbours between them, so 25 common non-neighbours
    "one_below_the_floor": (hubs(40, [range(2, 14), range(3, 15)]), 15, False),
    "full_star": (hubs(40, [range(1, 40)]), 40, False),
    "clique_plus_pendants": (
        Graph.from_edge_list(40, [*combinations(range(10), 2), *((v, v % 10) for v in range(10, 40))]),
        40,
        False,
    ),
    "complement_of_matching": (
        Graph.from_edge_list(40, [(u, v) for u, v in combinations(range(40), 2) if v != u + 1 or u % 2]),
        40,
        False,
    ),
}


@pytest.mark.parametrize("name", SKEWED_40)
def test_e_all_certified_on_skewed_graphs(name):
    g, risky, holds = SKEWED_40[name]
    assert risky_count(g) == risky
    assert check_e_all(g) == holds


def test_e_all_at_the_floor_is_exact():
    g = SKEWED_40["at_the_floor"][0]
    assert min_common_non_neighbors_ref(g) == math.ceil(floor_of(40)) == 26
    assert check_e_all(g)


@st.composite
def skewed_graphs(draw):
    n = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(["hubs", "clique_plus_pendants", "complement_of_matching", "random"]))
    rnd = random.Random(draw(st.integers(0, 10**6)))
    if kind == "hubs":
        # few leaves keep most vertices certified and some pairs near the floor
        leaf_sets = [rnd.sample(range(n), rnd.randint(0, n // 3)) for _ in range(rnd.randint(1, min(n, 4)))]
        edges = {(min(i, v), max(i, v)) for i, leaves in enumerate(leaf_sets) for v in leaves if v != i}
    elif kind == "clique_plus_pendants":
        k = rnd.randint(1, n)
        edges = set(combinations(range(k), 2))
        edges.update((rnd.randrange(k), v) for v in range(k, n) if rnd.random() < 0.8)
    elif kind == "complement_of_matching":
        order = rnd.sample(range(n), n)
        matching = {frozenset(order[i : i + 2]) for i in range(0, n - 1, 2) if rnd.random() < 0.9}
        edges = {e for e in combinations(range(n), 2) if frozenset(e) not in matching}
    else:
        edges = random_edges(rnd, n, rnd.choice([0.05, 0.2, 0.5]) * rnd.random())
    return Graph.from_edge_list(n, edges)


@given(skewed_graphs())
@settings(max_examples=150, deadline=None)
def test_e_all_certified_matches_exact_minimum(g):
    check_e_all(g)


def test_e_all_certified_without_any_matrix(monkeypatch):
    # the degree certificate alone decides these: no risky vertex at all
    def refuse(self, vertices):
        raise AssertionError("the certificate should have decided")

    monkeypatch.setattr(Graph, "non_neighbor_matrix", refuse)
    monkeypatch.setattr(Graph, "non_neighbors_mask", refuse)
    assert e_all_check(Graph(10**4))
    # homogeneous n=2000, p=0.3: degrees are about 600 +- 20, so each
    # vertex keeps some 700 guaranteed common non-neighbours, against a
    # floor of 219
    assert e_all_check(sample_graph(HomogeneousModel(2000, 0.3), np.random.default_rng(5)))


@pytest.mark.parametrize(
    "g",
    [
        Graph.from_edge_list(3, combinations(range(3), 2)),
        Graph.from_edge_list(300, combinations(range(300), 2)),
        sample_graph(HomogeneousModel(300, 0.95), np.random.default_rng(3)),
    ],
    ids=["K3", "K300", "homogeneous-300-0.95"],
)
def test_e_all_refuted_by_the_degrees_on_dense_graphs(g):
    # a vertex of maximum degree leaves fewer than the floor for any of its
    # pairs, so the answer is no before any row is unpacked (check_e_all)
    assert g.n - 1 - g.max_degree() < floor_of(g.n)
    assert not check_e_all(g)


def two_block_graph(rnd, n, k):
    # a dense block on vertices 0..k-1, a sparse rest and random cross edges
    dense, cross, sparse = rnd.uniform(0.5, 1.0), rnd.uniform(0.0, 0.5), rnd.uniform(0.0, 0.2)
    return Graph.from_edge_list(
        n,
        [
            (u, v)
            for u, v in combinations(range(n), 2)
            if rnd.random() < (dense if v < k else cross if u < k else sparse)
        ],
    )


def test_e_all_matches_exact_minimum_on_mixed_graphs():
    # every route of the check is taken, the product with both answers
    routes = set()
    for seed in range(40):
        rnd = random.Random(seed)
        n = rnd.randint(20, 120)
        g = two_block_graph(rnd, n, rnd.randint(1, n // 2))
        holds = check_e_all(g)
        if g.n - 1 - g.max_degree() < floor_of(n):
            routes.add(("refuted", holds))
        else:
            routes.add(("certified" if risky_count(g) < 2 else "counted", holds))
    assert routes == {("refuted", False), ("certified", True), ("counted", True), ("counted", False)}


def test_e_all_counts_rows_with_the_product_only():
    # one exact-count path: the float32 product over the risky rows, never a
    # pair loop over single non-neighbour masks
    tree = ast.parse(inspect.getsource(e_all_check))
    called = {
        getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
    }
    assert "non_neighbor_matrix" in called and "non_neighbors_mask" not in called


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
    for t in (-1, 2.5):
        with pytest.raises(ValueError):
            step_success_bound(stats, 50, default_params(50), t)


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
