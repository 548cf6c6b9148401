import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerext import (
    EulerCircuit,
    Graph,
    GraphError,
    NotEulerianError,
    format_edge_list,
    load_edge_list,
    parse_edge_list,
    save_edge_list,
)

from conftest import (
    all_graph_edge_sets,
    all_pairs,
    bitset,
    circuit_covers,
    common_non_neighbors_ref,
    connected_ref,
    odd_vertices_ref,
    random_connected_edges,
    random_edges,
)


def p3():
    return Graph.from_edge_list(3, [(0, 1), (1, 2)])


def triangle():
    return Graph.from_edge_list(3, [(0, 1), (1, 2), (0, 2)])


def star():
    return Graph.from_edge_list(4, [(0, 1), (0, 2), (0, 3)])


def k4():
    return Graph.from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


# -- construction --


def test_from_edge_list_path():
    g = p3()
    assert g.n == 3 and g.m == 2
    assert g.has_edge(0, 1) and g.has_edge(1, 2) and not g.has_edge(0, 2)


def test_from_edge_list_triangle():
    assert triangle().m == 3


def test_self_loop_rejected():
    with pytest.raises(GraphError):
        Graph.from_edge_list(4, [(0, 0)])


def test_out_of_range_rejected():
    with pytest.raises(GraphError):
        Graph.from_edge_list(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph.from_edge_list(3, [(-1, 2)])


def test_duplicates_collapse():
    g = Graph.from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_vertex_count_validation():
    with pytest.raises(GraphError):
        Graph(-1)
    assert Graph(0).n == 0


def test_from_bool_adjacency_matches_edge_list():
    rnd = random.Random(7)
    for n in (1, 2, 5, 9, 40, 70):
        edges = random_edges(rnd, n, 0.4)
        mat = np.zeros((n, n), dtype=bool)
        for u, v in edges:
            mat[u, v] = mat[v, u] = True
        g1 = Graph.from_bool_adjacency(mat)
        g2 = Graph.from_edge_list(n, edges)
        assert g1 == g2
        assert g1.m == len(edges)


# -- add_edge --


def test_add_edge_completes_triangle():
    g = p3().add_edge(0, 2)
    assert g == triangle()


def test_add_existing_edge_rejected():
    with pytest.raises(GraphError):
        triangle().add_edge(0, 1)
    with pytest.raises(GraphError):
        triangle().add_edge(1, 0)


def test_add_edge_on_empty_pair():
    g = Graph(2).add_edge(0, 1)
    assert g.has_edge(1, 0) and g.odd_vertices() == {0, 1} and g.m == 1


def test_add_edge_self_loop_rejected():
    with pytest.raises(GraphError):
        Graph(3).add_edge(1, 1)


@given(st.integers(2, 9), st.data())
@settings(max_examples=60, deadline=None)
def test_add_edge_flips_exactly_its_endpoints(n, data):
    rnd = random.Random(data.draw(st.integers(0, 10**6)))
    edges = random_edges(rnd, n, 0.5)
    g = Graph.from_edge_list(n, edges)
    absent = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
    if not absent:
        return
    u, v = rnd.choice(absent)
    before = g.odd_vertices()
    g.add_edge(u, v)
    after = g.odd_vertices()
    assert before.symmetric_difference(after) == {u, v}


@given(st.integers(2, 8), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_add_edge_preserves_connectivity(n, seed):
    rnd = random.Random(seed)
    g = Graph.from_edge_list(n, random_connected_edges(rnd, n))
    absent = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
    assert g.is_connected()
    for u, v in absent:
        assert g.copy().add_edge(u, v).is_connected()


@given(st.integers(1, 8), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_handshake_through_mutations(n, seed):
    rnd = random.Random(seed)
    g = Graph(n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rnd.shuffle(pairs)
    for u, v in pairs[: rnd.randint(0, len(pairs))]:
        g.add_edge(u, v)
        degrees = [n - 1 - g.non_neighbors_mask(x).bit_count() for x in range(n)]
        assert sum(degrees) == 2 * g.m
    assert g.m <= n * (n - 1) // 2


# -- degrees, odd set, t --


def test_odd_vertices_and_t():
    assert p3().odd_vertices() == {0, 2} and p3().t_value() == 1
    assert triangle().odd_vertices() == set() and triangle().t_value() == 0
    assert star().odd_vertices() == {0, 1, 2, 3} and star().t_value() == 2


def test_degree_stats():
    g = k4()
    assert all(g.non_neighbors_mask(v) == 0 for v in range(4))
    assert g.max_degree() == 3 and g.m == 6
    assert Graph(5).max_degree() == 0 and Graph(5).m == 0
    assert star().max_degree() == 3 and star().m == 3


def test_degree_out_of_range():
    with pytest.raises(GraphError):
        p3().non_neighbors_mask(3)


@given(st.integers(1, 9), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_odd_set_even_and_matches_reference(n, seed):
    rnd = random.Random(seed)
    edges = random_edges(rnd, n, 0.5)
    g = Graph.from_edge_list(n, edges)
    odd = g.odd_vertices()
    assert len(odd) % 2 == 0
    assert odd == odd_vertices_ref(n, edges)
    assert g.t_value() == len(odd) // 2


@given(st.integers(1, 12), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_odd_mask_tracks_every_construction_and_insertion(n, seed):
    rnd = random.Random(seed)
    edges = random_edges(rnd, n, rnd.random())
    adjacency = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adjacency[u, v] = adjacency[v, u] = True
    expected = bitset(odd_vertices_ref(n, edges))
    g = Graph.from_edge_list(n, edges)
    assert g.odd_mask == expected
    assert Graph.from_bool_adjacency(adjacency).odd_mask == expected
    g = g.copy()
    assert g.odd_mask == expected
    absent = [(u, v) for u, v in all_pairs(n) if not g.has_edge(u, v)]
    rnd.shuffle(absent)
    for u, v in absent[: rnd.randint(0, len(absent))]:
        g.add_edge(*rnd.choice([(u, v), (v, u)]))
        edges.append((u, v))
        odd = odd_vertices_ref(n, edges)
        assert g.odd_mask == bitset(odd) and g.t_value() == len(odd) // 2


# -- connectivity --


def test_is_connected_cases():
    assert p3().is_connected()
    assert not Graph.from_edge_list(4, [(0, 1), (2, 3)]).is_connected()
    assert Graph(1).is_connected()
    assert not Graph(2).is_connected()


@given(st.integers(1, 9), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_is_connected_matches_reference(n, seed):
    rnd = random.Random(seed)
    edges = random_edges(rnd, n, 0.35)
    assert Graph.from_edge_list(n, edges).is_connected() == connected_ref(n, edges)


# -- common non-neighbors --


def common_non_neighbors(g, u, v):
    both = g.non_neighbors_mask(u) & g.non_neighbors_mask(v)
    return {z for z in range(g.n) if (both >> z) & 1}


def test_common_non_neighbors_cases():
    assert common_non_neighbors(p3(), 0, 2) == set()
    assert common_non_neighbors(Graph(4), 0, 1) == {2, 3}
    p4 = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert common_non_neighbors(p4, 0, 1) == {3}


@given(st.integers(2, 9), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_common_non_neighbors_matches_reference(n, seed):
    rnd = random.Random(seed)
    edges = random_edges(rnd, n, 0.5)
    g = Graph.from_edge_list(n, edges)
    for _ in range(5):
        u = rnd.randrange(n)
        v = rnd.randrange(n)
        if u == v:
            continue
        assert common_non_neighbors(g, u, v) == common_non_neighbors_ref(n, edges, u, v)


# -- Eulerian circuits --


def test_triangle_circuit_exact():
    # lowest-numbered-neighbor rule makes the walk deterministic
    c = triangle().eulerian_circuit()
    assert c.vertices == (0, 1, 2, 0)
    assert c.edge_count() == 3


def test_c4_circuit_exact():
    g = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert g.eulerian_circuit().vertices == (0, 1, 2, 3, 0)


def test_bowtie_circuit_exact():
    # two triangles sharing vertex 2; hand-traced with the lowest-neighbor rule
    g = Graph.from_edge_list(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    c = g.eulerian_circuit()
    assert c.vertices == (0, 1, 2, 3, 4, 2, 0)
    assert circuit_covers(5, list(g.edges()), c.vertices)


def test_circuit_failures_distinguished():
    with pytest.raises(NotEulerianError) as exc:
        p3().eulerian_circuit()
    assert exc.value.reason == "odd_vertices"
    two_triangles = Graph.from_edge_list(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )
    with pytest.raises(NotEulerianError) as exc:
        two_triangles.eulerian_circuit()
    assert exc.value.reason == "disconnected"


def test_circuit_ignores_isolated_vertices():
    g = Graph.from_edge_list(5, [(0, 1), (1, 2), (0, 2)])
    assert g.eulerian_circuit().vertices == (0, 1, 2, 0)
    assert not g.is_connected()  # plain connectivity still counts vertex 3, 4


def test_circuit_of_edgeless_graphs():
    assert Graph(0).eulerian_circuit().vertices == ()
    assert Graph(3).eulerian_circuit().vertices == (0,)
    assert Graph(3).eulerian_circuit().edge_count() == 0


def test_circuit_determinism():
    rnd = random.Random(3)
    for _ in range(20):
        n = rnd.randint(2, 8)
        edges = random_connected_edges(rnd, n)
        g = Graph.from_edge_list(n, edges)
        if g.odd_vertices():
            continue
        assert g.eulerian_circuit().vertices == g.eulerian_circuit().vertices


def test_euler_theorem_exhaustive_small():
    # success must coincide with even degrees + connectivity on non-isolated
    # vertices, over every labeled graph with up to 6 vertices
    for n in range(7):
        for edges in all_graph_edge_sets(n):
            g = Graph.from_edge_list(n, edges)
            live = sorted({v for e in edges for v in e})
            expected = not odd_vertices_ref(n, edges) and (
                not live or connected_ref(len(live), _relabel(edges, live))
            )
            try:
                c = g.eulerian_circuit()
            except NotEulerianError:
                assert not expected
            else:
                assert expected
                assert circuit_covers(n, edges, c.vertices)


def _relabel(edges, live):
    index = {v: i for i, v in enumerate(live)}
    return [(index[u], index[v]) for u, v in edges]


# -- copies, equality --


def test_copy_is_independent():
    g = p3()
    h = g.copy()
    h.add_edge(0, 2)
    assert g.m == 2 and h.m == 3 and g != h


def test_equality_by_structure():
    assert p3() == Graph.from_edge_list(3, [(1, 2), (0, 1)])
    assert p3() != triangle()
    assert p3() != Graph.from_edge_list(4, [(0, 1), (1, 2)])


def test_neighbors_sorted():
    # edges() lists each vertex's higher neighbours in ascending order
    g = Graph.from_edge_list(4, [(2, 0), (0, 3), (1, 0), (3, 1)])
    assert list(g.edges()) == [(0, 1), (0, 2), (0, 3), (1, 3)]


# -- edge-list text format --


def test_edge_list_round_trip():
    g = Graph.from_edge_list(5, [(3, 1), (0, 4), (2, 3)])
    text = format_edge_list(g)
    assert text.splitlines()[0] == "5"
    assert parse_edge_list(text) == g
    # canonical ordering: u < v per line, lines sorted
    assert text == "5\n0 4\n1 3\n2 3\n"


def test_edge_list_comments_and_blanks():
    g = parse_edge_list("# a comment\n\n4\n0 1\n# another\n2 3\n\n")
    assert g == Graph.from_edge_list(4, [(0, 1), (2, 3)])


@pytest.mark.parametrize(
    "text",
    ["", "x", "3\n0 1 2", "3\n0", "3\na b", "3\n0 3", "3\n1 1", "-2"],
)
def test_edge_list_malformed(text):
    with pytest.raises(GraphError):
        parse_edge_list(text)


def test_edge_list_file_round_trip(tmp_path):
    g = Graph.from_edge_list(6, [(0, 5), (1, 2), (2, 4)])
    path = tmp_path / "g.edges"
    save_edge_list(g, path)
    assert load_edge_list(path) == g
    save_edge_list(g, tmp_path / "again.edges")
    assert (tmp_path / "g.edges").read_bytes() == (tmp_path / "again.edges").read_bytes()


def test_euler_circuit_value_type():
    c = EulerCircuit((0, 1, 2, 0))
    assert c.edge_count() == 3
    with pytest.raises(Exception):
        c.vertices = ()
