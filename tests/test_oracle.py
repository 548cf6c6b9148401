import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eulerext import (
    ORACLE_MAX_VERTICES,
    Graph,
    OracleAnswer,
    OracleSizeError,
    extend,
    min_extension_exact,
)

from conftest import (
    all_graph_edge_sets,
    components_ref,
    has_edge,
    is_valid_extension_ref,
    min_extension_exact_ref,
    odd_complement_matching_ref,
    odd_vertices_ref,
    random_connected_edges,
    random_edges,
)


def graph(n, edges):
    return Graph.from_edge_list(n, edges)


def test_size_guard():
    assert ORACLE_MAX_VERTICES == 12
    with pytest.raises(OracleSizeError):
        min_extension_exact(Graph(13))
    min_extension_exact(graph(12, [(i, (i + 1) % 12) for i in range(12)]))


def test_cap_validation():
    for cap in (-1, 2.5):
        with pytest.raises(ValueError):
            min_extension_exact(graph(3, [(0, 1), (1, 2)]), cap=cap)


def test_eulerian_input_needs_nothing():
    ans = min_extension_exact(graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert ans == OracleAnswer(0, ())


def test_path_needs_one_edge():
    ans = min_extension_exact(graph(3, [(0, 1), (1, 2)]))
    assert ans.extendable and ans.min_edges == 1
    assert ans.witness == ((0, 2),)
    long_path = graph(12, [(i, i + 1) for i in range(11)])
    ans = min_extension_exact(long_path)
    assert ans.min_edges == 1 and ans.witness == ((0, 11),)


def test_star_has_no_extension():
    # vertex 0 is adjacent to everything, so no complement edge can fix
    # its parity
    ans = min_extension_exact(graph(4, [(0, 1), (0, 2), (0, 3)]))
    assert ans == OracleAnswer(None, None)


def test_triangle_with_pendant_has_no_extension():
    g = graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    ans = min_extension_exact(g)
    assert not ans.extendable
    assert ans.min_edges is None and ans.witness is None


def test_complete_graph_odd_degrees_stuck():
    # K4 has no complement at all and four odd vertices
    g = graph(4, list(combinations(range(4), 2)))
    assert not min_extension_exact(g).extendable


def test_disconnected_needs_bridging():
    # path plus an isolated vertex: cheapest fix routes the new edges
    # through vertex 3, and the search order makes that witness exact
    g = graph(4, [(0, 1), (1, 2)])
    ans = min_extension_exact(g)
    assert ans.min_edges == 2
    assert ans.witness == ((0, 3), (2, 3))


def test_two_triangles_parity_forces_four():
    g = graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    # t = 0 so the default cap is 0 edges, and zero edges leave it split
    assert not min_extension_exact(g).extendable
    # with room to spare: an odd number of crossing edges leaves odd total
    # degree on one side, so 1 and 3 are impossible, and two edges cannot
    # give all four endpoints even degree; four is the true minimum
    ans = min_extension_exact(g, cap=4)
    assert ans.min_edges == 4
    assert is_valid_extension_ref(6, list(g.edges()), list(ans.witness))


def test_cap_is_respected():
    g = graph(3, [(0, 1), (1, 2)])
    assert not min_extension_exact(g, cap=0).extendable
    assert min_extension_exact(g, cap=1).min_edges == 1
    # a cap beyond the complement size is harmless
    assert min_extension_exact(g, cap=99).min_edges == 1


def test_chorded_cycle_exceeds_engine_budget():
    # C5 plus the chord (0, 2): the odd pair is adjacent, every two-edge
    # detour is blocked, and every middle edge of a three-edge detour is
    # blocked too, so nothing within 3t = 3 works; four edges do
    g = graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])
    assert g.odd_mask == 0b101
    assert not min_extension_exact(g).extendable
    ans = min_extension_exact(g, cap=4)
    assert ans.min_edges == 4
    assert is_valid_extension_ref(5, list(g.edges()), list(ans.witness))
    r = extend(g)
    assert not r.success and r.failing_pair == (0, 2)


def test_witnesses_are_valid_and_minimal_small():
    # independent minimality audit: re-search below the reported minimum
    # with plain set arithmetic
    rnd = random.Random(4)
    for _ in range(120):
        n = rnd.randint(2, 6)
        g = graph(n, random_edges(rnd, n, 0.5))
        t = g.t_value()
        ans = min_extension_exact(g)
        comp = [(u, v) for u in range(n) for v in range(u + 1, n) if not has_edge(g, u, v)]
        if ans.extendable:
            assert t <= ans.min_edges <= 3 * t
            assert len(ans.witness) == ans.min_edges
            assert is_valid_extension_ref(n, list(g.edges()), list(ans.witness))
            smaller = [
                chosen
                for k in range(ans.min_edges)
                for chosen in combinations(comp, k)
                if is_valid_extension_ref(n, list(g.edges()), list(chosen))
            ]
            assert smaller == []
        else:
            for k in range(min(3 * t, len(comp)) + 1):
                for chosen in combinations(comp, k):
                    assert not is_valid_extension_ref(n, list(g.edges()), list(chosen))


def test_engine_success_implies_oracle_within_budget():
    rnd = random.Random(11)
    agree_success = 0
    for _ in range(150):
        n = rnd.randint(2, 9)
        g = graph(n, random_connected_edges(rnd, n))
        r = extend(g, rng=np.random.default_rng(rnd.randrange(2**32)))
        ans = min_extension_exact(g)
        if r.success:
            agree_success += 1
            assert ans.extendable
            assert ans.min_edges <= len(r.added_edges) <= 3 * g.t_value()
        else:
            # the engine is greedy, so its failure only rules the greedy
            # route out; but whenever the oracle also finds nothing within
            # 3t the failure was forced
            pass
    assert agree_success > 100  # the sweep must actually exercise successes


# -- the paper's lower bounds on ee(G), which no oracle answer may beat --

small_graphs = st.builds(
    lambda n, p, seed: (n, random_edges(random.Random(seed), n, p)),
    st.integers(2, 7),
    st.floats(0.0, 0.9),
    st.integers(0, 10**6),
)
connected_graphs = st.builds(
    lambda n, p, seed: (n, random_connected_edges(random.Random(seed), n, p)),
    st.integers(2, 7),
    st.floats(0.2, 1.0),
    st.integers(0, 10**6),
)


@given(small_graphs)
@settings(max_examples=100, deadline=None)
def test_oracle_needs_t_plus_even_components_on_a_disconnected_graph(graph_edges):
    # H has an even number of edges leaving each component C of G, so at
    # least two, and C holds at least max(odd(C), 2) ends of H: ee >= t + c0
    n, edges = graph_edges
    components = components_ref(n, edges)
    assume(len(components) >= 2)
    odd = odd_vertices_ref(n, edges)
    bound = len(odd) // 2 + sum(1 for c in components if not c & odd)
    # every size below the bound is searched in full and none works; the
    # reference searches them, since min_extension_exact starts at the bound
    assert min_extension_exact_ref(graph(n, edges), cap=bound - 1) == (None, None)


@given(connected_graphs)
@settings(max_examples=100, deadline=None)
def test_oracle_needs_2t_minus_nu_on_a_connected_graph(graph_edges):
    # H splits into t trails pairing the odd vertices, and its one-edge
    # trails form a complement matching on them: ee >= 2t - nu
    n, edges = graph_edges
    bound = len(odd_vertices_ref(n, edges)) - odd_complement_matching_ref(n, edges)
    assume(bound > 0)
    assert min_extension_exact(graph(n, edges), cap=bound - 1).min_edges is None


@given(connected_graphs, st.one_of(st.none(), st.integers(0, 2**32 - 1)))
@settings(max_examples=100, deadline=None)
def test_engine_never_beats_the_oracle(graph_edges, rng_seed):
    n, edges = graph_edges
    g = graph(n, edges)
    rng = None if rng_seed is None else np.random.default_rng(rng_seed)
    result = extend(g, rng=rng)
    answer = min_extension_exact(g)
    if result.success:
        # the oracle searches up to 3t, the engine's guarantee
        assert answer.extendable and answer.min_edges <= len(result.added_edges) <= answer.cap


def test_search_from_t_plus_c0_matches_the_search_from_t_exhaustive():
    # every graph on at most five vertices and every cap up to 3t + 2: the
    # sizes t .. t + c0 - 1 that the oracle skips hold no extension
    for n in range(6):
        for edges in all_graph_edge_sets(n):
            g = graph(n, edges)
            for cap in (None, *range(3 * g.t_value() + 3)):
                answer = min_extension_exact(g, cap)
                assert (answer.min_edges, answer.witness) == min_extension_exact_ref(g, cap)
                assert answer.cap == (3 * g.t_value() if cap is None else cap)


@st.composite
def disconnected_graphs(draw):
    # random edges inside two to four blocks of vertices and none between
    n = draw(st.integers(2, 7))
    block = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    assume(len(set(block)) >= 2)
    rnd = random.Random(draw(st.integers(0, 10**6)))
    p = draw(st.floats(0.0, 1.0))
    edges = [(u, v) for u, v in combinations(range(n), 2) if block[u] == block[v] and rnd.random() < p]
    return graph(n, edges)


@given(disconnected_graphs(), st.integers(0, 5))
@settings(max_examples=100, deadline=None)
def test_search_from_t_plus_c0_matches_the_search_from_t(g, cap):
    # caps stay small, since the search from t walks every size below it
    answer = min_extension_exact(g, cap)
    assert (answer.min_edges, answer.witness) == min_extension_exact_ref(g, cap)


def test_answer_carries_the_cap_it_searched():
    g = graph(4, [(0, 1), (1, 2)])  # t = 1 with an isolated vertex
    assert min_extension_exact(g).cap == 3
    assert min_extension_exact(g, cap=1) == OracleAnswer(None, None)
    assert min_extension_exact(g, cap=1).cap == 1
    # the cap is the question, so answers to different caps compare equal
    assert min_extension_exact(g, cap=2) == min_extension_exact(g) == OracleAnswer(2, ((0, 3), (2, 3)))


def test_oracle_answer_frozen():
    ans = OracleAnswer(0, ())
    for field in ("min_edges", "extendable"):
        with pytest.raises(AttributeError):
            setattr(ans, field, None)


def test_oracle_answer_extendable_reads_min_edges():
    # one stored fact: an answer cannot claim an extension without its size
    assert OracleAnswer(0, ()).extendable and OracleAnswer(3, ((0, 1),)).extendable
    assert not OracleAnswer(None, None).extendable
