import random
from itertools import combinations

import numpy as np
import pytest

from eulerext import (
    ORACLE_MAX_VERTICES,
    Graph,
    OracleAnswer,
    OracleSizeError,
    extend,
    min_extension_exact,
)

from conftest import has_edge, is_valid_extension_ref, random_connected_edges, random_edges


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
    assert ans == OracleAnswer(True, 0, ())


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
    assert ans == OracleAnswer(False, None, None)


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


def test_oracle_answer_frozen():
    ans = OracleAnswer(True, 0, ())
    with pytest.raises(Exception):
        ans.extendable = False
