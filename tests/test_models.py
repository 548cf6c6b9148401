import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerext import (
    AlphaStats,
    ExampleFamilyModel,
    ExplicitModel,
    HomogeneousModel,
    ModelError,
    alpha_stats,
    check_condition,
    load_model_spec,
    parse_model_spec,
    read_lower_triangular,
    sample_graph,
)

from conftest import family_probability_ref, sample_graph_ref


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


def test_explicit_diagonal_ignored():
    mat = np.full((3, 3), 0.5)
    np.fill_diagonal(mat, 7.0)  # junk diagonal is zeroed, not range-checked
    m = ExplicitModel(3, mat)
    assert m.probability_row(0)[0] == 0.0
    assert m.probability(0, 1) == 0.5


def test_family_validation():
    ExampleFamilyModel(16, 0.4, 0.2)
    with pytest.raises(ModelError):
        ExampleFamilyModel(15, 0.4, 0.2)
    for a, b in [(0.2, 0.4), (0.4, 0.4), (0.4, 0.0), (1.0, 0.2)]:
        with pytest.raises(ModelError):
            ExampleFamilyModel(16, a, b)


def test_probability_argument_checks():
    m = HomogeneousModel(5, 0.5)
    with pytest.raises(ModelError):
        m.probability(2, 2)
    with pytest.raises(ModelError):
        m.probability(0, 5)
    with pytest.raises(ModelError):
        m.probability(-1, 2)


# -- example family structure --


def test_family_block_boundaries_n20():
    # ln 20 = 2.9957... so the forced-on block is {0..5} and the forced-off
    # block ends at 13 (exclusive)
    m = ExampleFamilyModel(20, 0.9, 0.1)
    assert m.first_block_end == 6
    assert m.second_block_end == 13


def test_family_rules_n20():
    m = ExampleFamilyModel(20, 0.9, 0.1)
    assert m.probability(0, 3) == 1.0  # inside the forced-on block
    assert m.probability(6, 8) == 0.0  # inside the forced-off block
    assert m.probability(7, 12) == 0.0
    assert m.probability(6, 7) == 1.0  # cycle edge beats the zero block
    assert m.probability(4, 5) == 1.0
    assert m.probability(5, 7) == 0.1  # spans the two blocks: default
    assert m.probability(6, 14) == 0.1  # beyond the zero block: default
    assert m.probability(13, 15) == 0.1
    # every pair at the last vertex is a, its two cycle edges included
    assert m.probability(18, 19) == 0.9
    assert m.probability(0, 19) == 0.9
    assert m.probability(6, 19) == 0.9
    assert m.probability(3, 19) == 0.9


def test_family_symmetry():
    m = ExampleFamilyModel(24, 0.7, 0.3)
    for u in range(24):
        for v in range(u + 1, 24):
            assert m.probability(u, v) == m.probability(v, u)


@pytest.mark.parametrize("n", [16, 20, 24, 47])
def test_family_row_matches_pointwise(n):
    m = ExampleFamilyModel(n, 0.8, 0.25)
    for u in range(n):
        row = m.probability_row(u)
        assert row[u] == 0.0
        for v in range(n):
            if v != u:
                assert row[v] == family_probability_ref(n, 0.8, 0.25, u, v)


def test_row_value_counts_agree_with_rows():
    models = [
        HomogeneousModel(9, 0.3),
        ExplicitModel(7, symmetric_matrix(7, 1)),
        ExampleFamilyModel(21, 0.6, 0.2),
    ]
    for m in models:
        for u in range(m.n):
            counts = m.row_value_counts(u)
            assert sum(c for _, c in counts) == m.n - 1
            expected = sorted(v for v in m.probability_row(u)[np.arange(m.n) != u])
            rebuilt = sorted(val for val, c in counts for _ in range(c))
            assert rebuilt == pytest.approx(expected)


def test_pair_probabilities_order_and_cache():
    m = ExplicitModel(4, symmetric_matrix(4, 2))
    vec = m.pair_probabilities()
    expected = [m.probability(u, v) for u in range(4) for v in range(u + 1, 4)]
    assert list(vec) == pytest.approx(expected)
    assert m.pair_probabilities() is vec


# -- alpha statistics --


def test_alpha_homogeneous_exact():
    s = alpha_stats(HomogeneousModel(37, 0.2))
    assert s.alpha_low == 0.2 and s.alpha_up == 0.2 and s.alpha_e == 0.2
    assert s.per_vertex_avg == (0.2,) * 37


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
                assert g.has_edge(u, v)
        for i in range(18):
            assert g.has_edge(i, i + 1)
        assert not g.has_edge(6, 8)
        assert not g.has_edge(7, 12)


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


def test_matrix_spec_resolves_relative_to_spec_file(tmp_path):
    (tmp_path / "m.tri").write_text("0.5\n0.25 0.75\n")
    spec = tmp_path / "model.spec"
    spec.write_text("type: matrix\nn: 3\nmatrix_file: m.tri\n")
    m = load_model_spec(spec)
    assert isinstance(m, ExplicitModel)
    assert m.probability(0, 1) == 0.5
    assert m.probability(0, 2) == 0.25
    assert m.probability(1, 2) == 0.75


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
    s = AlphaStats(0.1, 0.2, 0.15, (0.1, 0.2))
    with pytest.raises(Exception):
        s.alpha_low = 0.5
