import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulerext import (
    AlphaStats,
    ExampleFamilyModel,
    ExplicitModel,
    Graph,
    HomogeneousModel,
    ModelError,
    alpha_stats,
    check_condition,
    load_model_spec,
    parse_model_spec,
    read_lower_triangular,
    sample_graph,
)

from conftest import alpha_stats_ref, family_probability_ref, has_edge, row_classes_ref, sample_graph_ref


def symmetric_matrix(n, seed):
    r = np.random.default_rng(seed)
    raw = r.random((n, n))
    mat = (raw + raw.T) / 2.0
    np.fill_diagonal(mat, 0.0)
    return mat


# -- constructor validation --


def test_homogeneous_validation():
    HomogeneousModel(2, 0.0)
    HomogeneousModel(2, 1.0)
    with pytest.raises(ModelError):
        HomogeneousModel(2, -0.01)
    with pytest.raises(ModelError):
        HomogeneousModel(2, 1.01)
    with pytest.raises(ModelError):
        HomogeneousModel(2, float("nan"))
    with pytest.raises(ModelError):
        HomogeneousModel(1, 0.5)


def test_explicit_validation():
    with pytest.raises(ModelError):
        ExplicitModel(3, np.zeros((3, 4)))
    bad = np.zeros((3, 3))
    bad[0, 1] = 0.3  # not mirrored
    with pytest.raises(ModelError):
        ExplicitModel(3, bad)
    over = np.full((3, 3), 1.5)
    np.fill_diagonal(over, 0.0)
    with pytest.raises(ModelError):
        ExplicitModel(3, over)


def test_explicit_nan_entry_fails_the_range_check():
    # NaN != NaN, so a symmetry test without equal_nan named the wrong fault
    mat = np.full((3, 3), 0.5)
    mat[0, 1] = mat[1, 0] = np.nan
    with pytest.raises(ModelError, match=r"matrix entries must lie in \[0, 1\]"):
        ExplicitModel(3, mat)
    mat[1, 0] = 0.5  # the range check runs first, so a NaN facing a number fails it too
    with pytest.raises(ModelError, match=r"matrix entries must lie in \[0, 1\]"):
        ExplicitModel(3, mat)


def test_explicit_nan_diagonal_is_zeroed():
    mat = np.full((3, 3), 0.5)
    np.fill_diagonal(mat, np.nan)
    m = ExplicitModel(3, mat)
    assert [m.probability_row(u)[u] for u in range(3)] == [0.0, 0.0, 0.0]
    assert m.probability_row(0)[1] == 0.5


def test_explicit_diagonal_ignored():
    mat = np.full((3, 3), 0.5)
    np.fill_diagonal(mat, 7.0)  # junk diagonal is zeroed, not range-checked
    m = ExplicitModel(3, mat)
    assert m.probability_row(0)[0] == 0.0
    assert m.probability_row(0)[1] == 0.5


def test_explicit_symmetry_is_checked_in_every_strip():
    # the check reads 64-row strips: the first, the last (partial) one, and
    # pairs across a strip boundary
    n = 130
    for i, j in [(5, 20), (128, 129), (63, 64), (0, 129)]:
        for a, b in [(i, j), (j, i)]:
            mat = symmetric_matrix(n, 5)
            mat[a, b] = 1.0 - mat[a, b]
            with pytest.raises(ModelError, match="probability matrix must be symmetric"):
                ExplicitModel(n, mat)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_explicit_non_finite_entries_fail_the_range_check(bad):
    n = 130
    for i, j in [(5, 20), (63, 64), (0, 129)]:
        for mirror in (bad, 0.5):  # the range check comes before symmetry
            mat = symmetric_matrix(n, 6)
            mat[i, j], mat[j, i] = bad, mirror
            with pytest.raises(ModelError, match=r"matrix entries must lie in \[0, 1\]"):
                ExplicitModel(n, mat)


def test_explicit_negative_zero_is_accepted():
    mat = np.full((130, 130), 0.0)
    mat[:70, :70] = 0.4
    mat[3, 90] = mat[90, 3] = mat[128, 129] = mat[129, 128] = -0.0
    mat[100, 110] = mat[75, 60] = -0.0  # their mirrors stay 0.0, which compares equal
    m = ExplicitModel(130, mat)
    assert m.row_classes() == [range(70), range(70, 130)] == row_classes_ref(m)


def test_explicit_model_builds_without_a_second_float_matrix():
    # the n x n float copy is the only big buffer; one bool temporary fits
    # in the 2 MB to spare, a second float matrix (8 MB) does not
    n = 1000
    mat = np.full((n, n), 0.3)
    mat[:400, :400] = 0.6
    tracemalloc.start()
    try:
        m = ExplicitModel(n, mat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.row_classes() == [range(400), range(400, n)]
    assert peak < 8 * n * n + 2 * 10**6


def test_family_validation():
    ExampleFamilyModel(16, 0.4, 0.2)
    with pytest.raises(ModelError):
        ExampleFamilyModel(15, 0.4, 0.2)
    for a, b in [(0.2, 0.4), (0.4, 0.4), (0.4, 0.0), (1.0, 0.2)]:
        with pytest.raises(ModelError):
            ExampleFamilyModel(16, a, b)


def test_probability_argument_checks():
    m = HomogeneousModel(5, 0.5)
    assert m.probability_row(2)[2] == 0.0  # the diagonal slot carries no probability
    with pytest.raises(ModelError):
        m.probability_row(5)
    with pytest.raises(ModelError):
        m.probability_row(-1)


# -- example family structure --


def test_family_block_boundaries_n20():
    # ln 20 = 2.9957... so the forced-on block is {0..5} and the forced-off
    # block ends at 13 (exclusive)
    m = ExampleFamilyModel(20, 0.9, 0.1)
    assert m.first_block_end == 6
    assert m.second_block_end == 13


def test_family_rules_n20():
    m = ExampleFamilyModel(20, 0.9, 0.1)
    assert m.probability_row(0)[3] == 1.0  # inside the forced-on block
    assert m.probability_row(6)[8] == 0.0  # inside the forced-off block
    assert m.probability_row(7)[12] == 0.0
    assert m.probability_row(6)[7] == 1.0  # cycle edge beats the zero block
    assert m.probability_row(4)[5] == 1.0
    assert m.probability_row(5)[7] == 0.1  # spans the two blocks: default
    assert m.probability_row(6)[14] == 0.1  # beyond the zero block: default
    assert m.probability_row(13)[15] == 0.1
    # every pair at the last vertex is a, its two cycle edges included
    assert m.probability_row(18)[19] == 0.9
    assert m.probability_row(0)[19] == 0.9
    assert m.probability_row(6)[19] == 0.9
    assert m.probability_row(3)[19] == 0.9


def test_family_symmetry():
    m = ExampleFamilyModel(24, 0.7, 0.3)
    rows = np.array([m.probability_row(u) for u in range(24)])
    assert np.array_equal(rows, rows.T)


@pytest.mark.parametrize("n", [16, 20, 24, 47])
def test_family_row_matches_pointwise(n):
    m = ExampleFamilyModel(n, 0.8, 0.25)
    for u in range(n):
        row = m.probability_row(u)
        assert row[u] == 0.0
        for v in range(n):
            if v != u:
                assert row[v] == family_probability_ref(n, 0.8, 0.25, u, v)


def test_pair_probabilities_order_and_cache():
    m = ExplicitModel(4, symmetric_matrix(4, 2))
    vec = m.pair_probabilities()
    expected = [m.probability_row(u)[v] for u in range(4) for v in range(u + 1, 4)]
    assert list(vec) == pytest.approx(expected)
    assert m.pair_probabilities() is vec


# -- alpha statistics --


def test_alpha_homogeneous_exact():
    s = alpha_stats(HomogeneousModel(37, 0.2))
    assert s.alpha_low == 0.2 and s.alpha_up == 0.2 and s.alpha_e == 0.2
    assert s.per_vertex_avg == (0.2,) * 37
    assert s.run_avgs == ((range(37), 0.2),)


def test_alpha_small_matrix_exact():
    mat = np.zeros((3, 3))
    mat[0, 1] = mat[1, 0] = 0.5
    mat[0, 2] = mat[2, 0] = 0.25
    mat[1, 2] = mat[2, 1] = 0.75
    s = alpha_stats(ExplicitModel(3, mat))
    # row averages 0.375, 0.625, 0.5; overall pair mean 0.5 (all dyadic)
    assert s.alpha_low == 0.375
    assert s.alpha_up == 0.625
    assert s.alpha_e == 0.5
    assert s.per_vertex_avg == (0.375, 0.625, 0.5)


def test_alpha_family_max_is_exactly_a():
    for n in (64, 300, 4096):
        m = ExampleFamilyModel(n, 0.4, 0.2)
        s = alpha_stats(m)
        assert s.alpha_up == 0.4  # the last vertex averages a with no roundoff
        assert s.per_vertex_avg[n - 1] == 0.4
        assert [run for run, _ in s.run_avgs] == m.row_classes()
        assert s.alpha_low < s.alpha_e < s.alpha_up


def test_alpha_family_low_vertex_derivation():
    # n=300: the minimum sits at the two ends of the forced-off block. The
    # first end u=k sees two cycle ones, a at the last vertex, zeros across
    # its block except the one cycle mate inside it, and b elsewhere.
    # Interior block vertices have both cycle mates inside the block, hence
    # one zero fewer and an average exactly b/(n-1) higher.
    n, a, b = 300, 0.4, 0.2
    m = ExampleFamilyModel(n, a, b)
    s = alpha_stats(m)
    k, k2 = m.first_block_end, m.second_block_end
    zero_count = (k2 - k - 1) - 1  # non-self block members minus cycle mate k+1
    expect = (
        Fraction(2) + Fraction(a) + Fraction(b) * (n - 1 - 2 - 1 - zero_count)
    ) / (n - 1)
    assert s.per_vertex_avg[k] == float(expect)
    assert s.per_vertex_avg[k2 - 1] == float(expect)
    assert s.alpha_low == float(expect)
    interior = expect + Fraction(b) / (n - 1)
    assert s.per_vertex_avg[k + 2] == float(interior)


def test_alpha_cached():
    m = HomogeneousModel(10, 0.1)
    assert alpha_stats(m) is alpha_stats(m)


@given(st.integers(2, 8), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_alpha_ordering_property(n, seed):
    s = alpha_stats(ExplicitModel(n, symmetric_matrix(n, seed)))
    assert s.alpha_low <= s.alpha_e <= s.alpha_up
    assert min(s.per_vertex_avg) == s.alpha_low
    assert max(s.per_vertex_avg) == s.alpha_up
    assert s.alpha_e == pytest.approx(sum(s.per_vertex_avg) / n)


# -- row classes --


def block_matrix(labels, seed):
    # one distinct value per pair of labels, so rows with different labels
    # differ whenever three or more labels are present
    labels = np.asarray(labels)
    blocks = labels.max() + 1
    upper = np.triu(np.random.default_rng(seed).permutation(blocks * blocks).reshape(blocks, blocks) + 1)
    table = (upper + np.triu(upper, 1).T) / (blocks * blocks + 1)
    return table[labels][:, labels]


def label_stretches(labels):
    starts = [u for u in range(len(labels)) if u == 0 or labels[u] != labels[u - 1]]
    return [range(lo, hi) for lo, hi in zip(starts, starts[1:] + [len(labels)])]


def test_row_classes_partition_the_rows():
    models = [ExampleFamilyModel(n, 0.4, 0.2) for n in range(16, 201)]
    models += [HomogeneousModel(n, p) for n in (2, 3, 17) for p in (0.0, 0.3, 1.0)]
    models.append(ExplicitModel(5, symmetric_matrix(5, 3)))
    contiguous = [0] * 4 + [1] * 7 + [2] * 3 + [3] * 5
    interleaved = np.random.default_rng(7).integers(0, 4, size=60).tolist()
    for seed, labels in enumerate([contiguous, interleaved, [2, 0, 1]]):
        m = ExplicitModel(len(labels), block_matrix(labels, seed))
        assert m.row_classes() == label_stretches(labels), labels
        models.append(m)
    for m in models:
        runs = m.row_classes()
        # nonempty ranges in ascending order that cover range(n) once
        assert all(type(run) is range and run.step == 1 and run for run in runs), m
        assert [u for run in runs for u in run] == list(range(m.n)), m
        for run in runs:
            first = off_diagonal_values(m, run.start)
            for u in run:
                assert off_diagonal_values(m, u) == first, (m, u)
        # maximal: neighbouring runs hold different multisets
        for left, right in zip(runs, runs[1:]):
            assert off_diagonal_values(m, left.start) != off_diagonal_values(m, right.start), (m, right)
        if isinstance(m, ExampleFamilyModel):
            assert len(runs) == 8, m


def circulant_matrix(n, values):
    # p(u, v) depends on the cyclic distance of u and v only, so every row
    # holds the same multiset although neighbours are no swaps of each other
    offsets = np.arange(n)
    by_distance = np.asarray(values)[np.minimum(offsets, n - offsets)]
    return by_distance[(offsets[None, :] - offsets[:, None]) % n]


@given(
    st.integers(2, 70),
    st.sampled_from(["contiguous", "interleaved", "circulant"]),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
@example(2, "contiguous", 1, 0, False)
@example(7, "circulant", 1, 3, False)
@example(7, "circulant", 2, 3, True)
@settings(max_examples=200, deadline=None)
def test_explicit_row_classes_match_the_per_row_reference(n, layout, blocks, seed, signed_zeros):
    r = np.random.default_rng(seed)
    pool = [0.0, 0.2, 0.5, 0.7, 1.0]
    if layout == "circulant":
        mat = circulant_matrix(n, r.choice(pool, size=n // 2 + 1))
        if blocks > 1 and n > 2:  # one changed pair sets its two rows apart
            u, v = r.choice(n, size=2, replace=False)
            mat[u, v] = mat[v, u] = 0.3
    else:
        label = r.integers(0, blocks, size=n)
        if layout == "contiguous":
            label = np.sort(label)
        table = np.triu(r.choice(pool, size=(blocks, blocks)))
        table = table + np.triu(table, 1).T
        mat = table[label][:, label]
    if signed_zeros:  # -0.0 beside 0.0, its mirror included
        mat = np.where((mat == 0.0) & (r.random((n, n)) < 0.5), -0.0, mat)
    m = ExplicitModel(n, mat)
    assert m.row_classes() == row_classes_ref(m)


def off_diagonal_values(m, u):
    return sorted(np.delete(m.probability_row(u), u).tolist())


def alpha_values(s):
    # the three alpha fields and all n per-vertex averages
    return s.alpha_low, s.alpha_up, s.alpha_e, s.per_vertex_avg


def test_alpha_stats_matches_reference_family():
    for n in range(16, 201):
        for a, b in [(0.4, 0.2), (0.8, 0.25), (0.3, 0.1)]:
            m = ExampleFamilyModel(n, a, b)
            assert alpha_values(alpha_stats(m)) == alpha_values(alpha_stats_ref(m)), m


@given(
    st.integers(16, 2000),
    st.tuples(st.floats(0.001, 0.999), st.floats(0.001, 0.999)).filter(lambda ab: ab[0] != ab[1]),
)
@settings(max_examples=20, deadline=None)
def test_alpha_stats_matches_reference_family_property(n, pair):
    b, a = sorted(pair)
    m = ExampleFamilyModel(n, a, b)
    assert alpha_values(alpha_stats(m)) == alpha_values(alpha_stats_ref(m))


@given(st.integers(2, 1500), st.floats(0.0, 1.0))
@example(2, 0.0)
@example(2, 0.1)
@example(2, 1.0)
@example(3, 0.0)
@example(3, 0.3)
@example(3, 1.0)
@settings(max_examples=20, deadline=None)
def test_alpha_stats_matches_reference_homogeneous(n, p):
    m = HomogeneousModel(n, p)
    assert alpha_values(alpha_stats(m)) == alpha_values(alpha_stats_ref(m))


@given(
    st.integers(2, 40),
    st.integers(1, 4),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_alpha_stats_matches_reference_explicit(n, blocks, pool, seed, by_block):
    # a small value pool repeats rows; block labels make every row of a
    # block the same multiset
    r = np.random.default_rng(seed)
    if by_block:
        label = r.integers(0, blocks, size=n)
        table = np.triu(r.choice(pool, size=(blocks, blocks)))
        table = table + np.triu(table, 1).T
        mat = table[label][:, label]
    else:
        upper = np.triu(r.choice(pool, size=(n, n)), 1)
        mat = upper + upper.T
    m = ExplicitModel(n, mat)
    assert alpha_values(alpha_stats(m)) == alpha_values(alpha_stats_ref(m))


def test_alpha_stats_row_calls_do_not_grow_with_n(monkeypatch):
    # alpha_stats reads one row per run: eight for the family, one for the
    # homogeneous model, two for a two-block explicit model
    calls = []
    for cls in (ExampleFamilyModel, HomogeneousModel, ExplicitModel):
        def counting(self, u, row=cls.probability_row):
            calls.append(u)
            return row(self, u)
        monkeypatch.setattr(cls, "probability_row", counting)
    s = alpha_stats(ExampleFamilyModel(10**5, 0.4, 0.2))
    assert s.alpha_up == 0.4
    assert len(calls) == 8
    calls.clear()
    s = alpha_stats(HomogeneousModel(10**5, 0.3))
    assert s.alpha_e == 0.3
    assert calls == [0]
    calls.clear()
    mat = np.full((1000, 1000), 0.3)
    mat[:400, :400] = 0.6
    s = alpha_stats(ExplicitModel(1000, mat))
    assert [run for run, _ in s.run_avgs] == [range(400), range(400, 1000)]
    assert calls == [0, 400]


# -- density window check --


def test_exponent_validation():
    s = alpha_stats(HomogeneousModel(4, 0.5))
    for beta, gamma in [(0.0, 0.1), (0.5, 0.1), (0.2, 0.0), (0.2, 0.3), (0.2, 0.35)]:
        with pytest.raises(ValueError):
            check_condition(s, 100, beta, gamma)
    with pytest.raises(ValueError):
        check_condition(s, 1, 0.2, 0.1)


def test_condition_green_case():
    s = alpha_stats(ExampleFamilyModel(4096, 0.4, 0.2))
    c = check_condition(s, 4096, beta=0.3, gamma=0.18)
    assert c.holds
    assert c.lower_slack > 0 and c.upper_slack > 0
    assert c.margin == min(c.lower_slack, c.upper_slack)


def test_condition_dense_model_fails_upper_side():
    s = alpha_stats(HomogeneousModel(1000, 0.9))
    c = check_condition(s, 1000, beta=0.2, gamma=0.1)
    assert not c.holds
    assert c.upper_slack < 0 < c.lower_slack
    assert c.margin == c.upper_slack


def test_condition_sparse_model_fails_lower_side():
    s = alpha_stats(HomogeneousModel(1000, 0.01))
    c = check_condition(s, 1000, beta=0.2, gamma=0.1)
    assert not c.holds
    assert c.lower_slack < 0


def test_condition_window_arithmetic():
    # hand-computed: alpha = 0.45 everywhere, n = 10^4, beta = 0.2, gamma = 0.1
    # lower: 0.45 - 10^-0.8; cap: max(0.5, 1 - sqrt(0.225)) - 10^-0.4
    s = alpha_stats(HomogeneousModel(10**4, 0.45))
    c = check_condition(s, 10**4, 0.2, 0.1)
    assert c.lower_slack == pytest.approx(0.45 - 10 ** -0.8, abs=1e-12)
    cap = max(0.5, 1 - math.sqrt(0.225)) - 10 ** -0.4
    assert c.upper_slack == pytest.approx(cap - 0.45, abs=1e-12)


def test_family_density_window_opens_at_327646():
    # the (0.4, 0.2) family under the default exponents (0.2, 0.1): the
    # upper side binds (alpha_up = 0.4 exactly) and its cap reaches 0.4
    # first at n = 327646, found by scanning every n from 16 upward
    def window(n):
        return check_condition(alpha_stats(ExampleFamilyModel(n, 0.4, 0.2)), n, 0.2, 0.1)

    below, at = window(327_645), window(327_646)
    assert not below.holds and below.upper_slack < 0 < below.lower_slack
    assert at.holds


# -- sampling --


def test_sample_extremes():
    rng = np.random.default_rng(0)
    g = sample_graph(HomogeneousModel(6, 1.0), rng)
    assert g.m == 15
    g = sample_graph(HomogeneousModel(6, 0.0), rng)
    assert g.m == 0


def test_sample_deterministic_in_seed():
    m = ExampleFamilyModel(40, 0.5, 0.2)
    g1 = sample_graph(m, np.random.default_rng(123))
    g2 = sample_graph(m, np.random.default_rng(123))
    g3 = sample_graph(m, np.random.default_rng(124))
    assert g1 == g2
    assert g1 != g3  # 40 vertices of randomness: collision would be a bug


def test_sample_respects_forced_structure():
    m = ExampleFamilyModel(20, 0.9, 0.1)
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = sample_graph(m, rng)
        for u in range(6):
            for v in range(u + 1, 6):
                assert has_edge(g, u, v)
        for i in range(18):
            assert has_edge(g, i, i + 1)
        assert not has_edge(g, 6, 8)
        assert not has_edge(g, 7, 12)


def test_sample_edge_count_sane():
    # Binomial(19900, 0.3): mean 5970, sd ~64.6; allow 5 sd either way
    g = sample_graph(HomogeneousModel(200, 0.3), np.random.default_rng(77))
    assert abs(g.m - 5970) < 325


def test_sample_two_vertices():
    g = sample_graph(HomogeneousModel(2, 1.0), np.random.default_rng(0))
    assert g.m == 1


SAMPLER_SIZES = (2, 3, 8, 9, 16, 63, 64, 65, 300)


@pytest.mark.parametrize(
    "model",
    [HomogeneousModel(n, p) for n in SAMPLER_SIZES for p in (0.1, 0.5, 0.9)]
    + [ExampleFamilyModel(n, 0.4, 0.2) for n in SAMPLER_SIZES if n >= 16],
    ids=repr,
)
def test_sample_matches_scatter_reference(model):
    # same graph from the same uniforms, and the generator left in the same state
    for seed in (0, 1, 2**40 + 7):
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        g, ref = sample_graph(model, rng), sample_graph_ref(model, rng_ref)
        assert g == ref and g.m == ref.m
        assert rng.random() == rng_ref.random()


@given(st.integers(2, 80), st.floats(0.0, 1.0), st.booleans(), st.integers(0, 2**64 - 1))
@settings(max_examples=60, deadline=None)
def test_sample_matches_scatter_reference_and_edge_list(n, p, family, seed):
    # the sampler's unchecked constructor against the checked one, and its
    # edge count and parity against a graph built one edge at a time
    model = ExampleFamilyModel(n, 0.25 + p / 2, 0.2) if family and n >= 16 else HomogeneousModel(n, p)
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    g, ref = sample_graph(model, rng), sample_graph_ref(model, rng_ref)
    built = Graph.from_edge_list(n, ref.edges())
    assert g == ref == built
    assert g.m == ref.m == built.m
    assert g.odd_mask == ref.odd_mask == built.odd_mask


# -- model spec files --


def test_parse_spec_homogeneous():
    m = parse_model_spec("type: homogeneous\nn: 12\np: 0.25\n")
    assert isinstance(m, HomogeneousModel) and m.n == 12 and m.p == 0.25


def test_parse_spec_family_with_comments():
    text = "# family\n\ntype: example_family\nn: 32\na: 0.5  # upper\nb: 0.1\n"
    m = parse_model_spec(text)
    assert isinstance(m, ExampleFamilyModel)
    assert (m.n, m.a, m.b) == (32, 0.5, 0.1)


def test_parse_spec_errors():
    with pytest.raises(ModelError):
        parse_model_spec("n: 5\np: 0.5\n")  # no type
    with pytest.raises(ModelError):
        parse_model_spec("type: homogeneous\np: 0.5\n")  # no n
    with pytest.raises(ModelError):
        parse_model_spec("type: homogeneous\nn: 5\n")  # no p
    with pytest.raises(ModelError):
        parse_model_spec("type: homogeneous\nn: five\np: 0.5\n")
    with pytest.raises(ModelError):
        parse_model_spec("type: homogeneous\nn: 5\np: lots\n")
    with pytest.raises(ModelError):
        parse_model_spec("type: mystery\nn: 5\n")
    with pytest.raises(ModelError):
        parse_model_spec("just words\n")
    with pytest.raises(ModelError):
        parse_model_spec("type: matrix\nn: 3\n")  # no matrix_file
    with pytest.raises(ModelError):
        parse_model_spec("type: matrix\nn: 3\nmatrix_file:\n")  # empty, not the spec's directory


@pytest.mark.parametrize(
    "text",
    [
        "type: homogeneous\nn: 10\np: 0.3\np: 0.9\n",
        "type: homogeneous\ntype: example_family\nn: 20\na: 0.4\nb: 0.2\np: 0.3\n",
        "type: homogeneous\nn: 10\np: 0.3\n n :10\n",
    ],
    ids=["value", "type", "same-value"],
)
def test_parse_spec_rejects_a_repeated_key(text):
    # the last value used to win silently, even for the model's type
    with pytest.raises(ModelError, match="twice"):
        parse_model_spec(text)


def test_matrix_spec_resolves_relative_to_spec_file(tmp_path):
    (tmp_path / "m.tri").write_text("0.5\n0.25 0.75\n")
    spec = tmp_path / "model.spec"
    spec.write_text("type: matrix\nn: 3\nmatrix_file: m.tri\n")
    m = load_model_spec(spec)
    assert isinstance(m, ExplicitModel)
    assert m.probability_row(0)[1] == 0.5
    assert m.probability_row(0)[2] == 0.25
    assert m.probability_row(1)[2] == 0.75


@pytest.mark.parametrize(
    "n, matrix_file",
    [("-5", "m.tri"), ("1", "absent.tri")],
    ids=["negative-n-with-a-file", "n-1-with-no-file"],
)
def test_matrix_spec_checks_n_before_it_opens_the_file(tmp_path, n, matrix_file):
    # the vertex-count rule of every model, not a row count of -6 or an I/O error
    (tmp_path / "m.tri").write_text("0.5\n0.25 0.75\n")
    spec = tmp_path / "model.spec"
    spec.write_text(f"type: matrix\nn: {n}\nmatrix_file: {matrix_file}\n")
    with pytest.raises(ModelError) as excinfo:
        load_model_spec(spec)
    assert str(excinfo.value) == f"a model needs an int vertex count of at least 2, got {n}"
    with pytest.raises(ModelError) as direct:
        read_lower_triangular(tmp_path / matrix_file, int(n))
    with pytest.raises(ModelError) as model:
        HomogeneousModel(int(n), 0.5)
    assert str(direct.value) == str(model.value) == str(excinfo.value)


def test_read_lower_triangular_golden(tmp_path):
    p = tmp_path / "t.tri"
    p.write_text("# comment\n0.5\n\n0.25 0.75\n")
    mat = read_lower_triangular(p, 3)
    assert mat.tolist() == [[0, 0.5, 0.25], [0.5, 0, 0.75], [0.25, 0.75, 0]]


def test_read_lower_triangular_errors(tmp_path):
    p = tmp_path / "t.tri"
    p.write_text("0.5\n")
    with pytest.raises(ModelError):
        read_lower_triangular(p, 3)  # one row short
    p.write_text("0.5\n0.25\n")
    with pytest.raises(ModelError):
        read_lower_triangular(p, 3)  # row 2 needs two entries
    p.write_text("0.5\nx 0.75\n")
    with pytest.raises(ModelError):
        read_lower_triangular(p, 3)
    with pytest.raises(OSError):
        read_lower_triangular(tmp_path / "absent.tri", 3)


def test_alpha_stats_is_frozen():
    s = AlphaStats(0.1, 0.2, 0.15, ((range(0, 1), 0.1), (range(1, 2), 0.2)))
    assert s.per_vertex_avg == (0.1, 0.2)
    with pytest.raises(Exception):
        s.alpha_low = 0.5
    with pytest.raises(AttributeError):
        s.per_vertex_avg = (0.3, 0.3)
