import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerext import (
    EulerCircuit,
    Graph,
    GraphError,
    HomogeneousModel,
    NotEulerianError,
    format_edge_list,
    load_edge_list,
    parse_edge_list,
    sample_graph,
    save_edge_list,
)

from conftest import (
    adj_sets,
    all_graph_edge_sets,
    all_pairs,
    bitset,
    circuit_covers,
    common_non_neighbors_ref,
    components_ref,
    connected_ref,
    has_edge,
    odd_vertices_ref,
    random_connected_edges,
    random_edges,
    reachable_from_ref,
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
    assert has_edge(g, 0, 1) and has_edge(g, 1, 2) and not has_edge(g, 0, 2)


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
    for bad in (-1, 2.5):
        with pytest.raises(GraphError):
            Graph(bad)
    assert Graph(0).n == 0
    # a numpy count is its value: the full-width mask needs a Python int
    assert Graph(np.int64(70)).non_neighbors_mask(0).bit_count() == 69


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


@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 9, 63, 64, 65, 257])
@pytest.mark.parametrize("fill", ["random", "all", "none"])
def test_pair_hits_place_the_lexicographic_pairs(n, fill):
    # one hit per pair u < v in (u, v) order, as the sampler draws them
    pairs = n * (n - 1) // 2
    hits = {
        "random": np.random.default_rng(n).random(pairs) < 0.4,
        "all": np.ones(pairs, dtype=bool),
        "none": np.zeros(pairs, dtype=bool),
    }[fill]
    adjacency = np.zeros((n, n), dtype=bool)
    for (u, v), hit in zip(combinations(range(n), 2), hits):
        adjacency[u, v] = adjacency[v, u] = hit
    g = Graph._from_pair_hits(n, hits)
    want = Graph.from_bool_adjacency(adjacency)
    assert g == want and g.n == n
    assert g.degrees() == want.degrees() and g.odd_mask == want.odd_mask


@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 9, 63, 64, 65, 257])
def test_non_neighbor_matrix_rows_are_the_masks(n):
    # byte and word boundaries on either side of each width
    edges = random_edges(random.Random(n), n, 0.4)
    g = Graph.from_edge_list(n, edges)
    non = g.non_neighbor_matrix(range(n))
    assert non.shape == (n, n) and non.dtype == np.bool_
    for v in range(n):
        assert bitset(np.flatnonzero(non[v]).tolist()) == g.non_neighbors_mask(v)
    # the complement off the diagonal is the adjacency matrix again
    adjacency = ~non
    np.fill_diagonal(adjacency, False)
    back = Graph.from_bool_adjacency(adjacency)
    assert back == g and back.m == g.m and back.odd_mask == g.odd_mask


@pytest.mark.parametrize("n", [7, 8, 9, 63, 64, 65])
def test_row_readers_at_packing_boundaries(n):
    edges = random_edges(random.Random(n), n, 0.4)
    g = Graph.from_edge_list(n, edges)
    adj = adj_sets(n, edges)
    assert g.degrees() == [len(adj[v]) for v in range(n)]
    masks = [g.non_neighbors_mask(v) for v in range(n)]
    assert [bitset(np.flatnonzero(row).tolist()) for row in g.non_neighbor_matrix(range(n))] == masks
    # any list of vertices, in its own order, repeats included
    picked = [n - 1, 0, n // 2, n - 1, 7 % n]
    rows = g.non_neighbor_matrix(picked)
    assert rows.shape == (len(picked), n) and rows.dtype == np.bool_
    assert [bitset(np.flatnonzero(row).tolist()) for row in rows] == [masks[v] for v in picked]
    assert np.array_equal(rows, g.non_neighbor_matrix(range(n))[picked])
    assert g.non_neighbor_matrix([]).shape == (0, n)


def test_row_readers_of_edgeless_and_complete_graphs():
    assert Graph(0).degrees() == [] and Graph(0).non_neighbor_matrix(range(0)).shape == (0, 0)
    assert Graph(3).degrees() == [0, 0, 0]
    assert [Graph(3).non_neighbors_mask(v) for v in range(3)] == [0b110, 0b101, 0b011]
    assert np.array_equal(Graph(3).non_neighbor_matrix(range(3)), ~np.eye(3, dtype=bool))
    assert k4().degrees() == [3, 3, 3, 3] and [k4().non_neighbors_mask(v) for v in range(4)] == [0] * 4
    assert not k4().non_neighbor_matrix(range(4)).any()


@pytest.mark.parametrize("vertices", [[3], [-1], [0, 1, 3], [-1, 2]])
def test_row_reader_rejects_out_of_range(vertices):
    (bad,) = [v for v in vertices if v not in range(3)]
    with pytest.raises(GraphError):
        p3().non_neighbors_mask(bad)
    with pytest.raises(GraphError):
        p3().non_neighbor_matrix(vertices)


def test_row_reader_rejects_a_bool_vertex():
    # True would otherwise index row 1
    with pytest.raises(GraphError):
        p3().non_neighbor_matrix([True])


def one_sided():
    matrix = np.zeros((2, 2), dtype=bool)
    matrix[0, 1] = True
    return matrix


@pytest.mark.parametrize(
    "matrix",
    [
        np.eye(3, dtype=bool),  # self-loops on the diagonal
        one_sided(),  # (0, 1) without (1, 0)
        np.zeros((3, 4), dtype=bool),  # not square
        np.array([[0, 2], [2, 0]]),  # ints, not bools
        np.array([[0, 1], [1, 0]]),  # a 0/1 int matrix is still not bool
        np.zeros(3, dtype=bool),  # one dimension
        np.zeros((2, 2, 2), dtype=bool),  # three dimensions
        [[False, True], [True, False]],  # not a numpy array
    ],
    ids=["diagonal", "asymmetric", "non_square", "int_twos", "int_01", "1d", "3d", "list"],
)
def test_from_bool_adjacency_rejects_malformed(matrix):
    with pytest.raises(GraphError):
        Graph.from_bool_adjacency(matrix)


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
    assert has_edge(g, 1, 0) and g.odd_mask == 0b11 and g.m == 1


def test_add_edge_self_loop_rejected():
    with pytest.raises(GraphError):
        Graph(3).add_edge(1, 1)


@given(st.integers(2, 9), st.data())
@settings(max_examples=60, deadline=None)
def test_add_edge_flips_exactly_its_endpoints(n, data):
    rnd = random.Random(data.draw(st.integers(0, 10**6)))
    edges = random_edges(rnd, n, 0.5)
    g = Graph.from_edge_list(n, edges)
    absent = [(u, v) for u in range(n) for v in range(u + 1, n) if not has_edge(g, u, v)]
    if not absent:
        return
    u, v = rnd.choice(absent)
    before = g.odd_mask
    g.add_edge(u, v)
    assert before ^ g.odd_mask == bitset([u, v])


@given(st.integers(2, 8), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_add_edge_preserves_connectivity(n, seed):
    rnd = random.Random(seed)
    g = Graph.from_edge_list(n, random_connected_edges(rnd, n))
    absent = [(u, v) for u in range(n) for v in range(u + 1, n) if not has_edge(g, u, v)]
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
    assert p3().odd_mask == bitset([0, 2]) and p3().t_value() == 1
    assert triangle().odd_mask == 0 and triangle().t_value() == 0
    assert star().odd_mask == bitset([0, 1, 2, 3]) and star().t_value() == 2


def test_degree_stats():
    g = k4()
    assert all(g.non_neighbors_mask(v) == 0 for v in range(4))
    assert g.max_degree() == 3 and g.m == 6
    assert Graph(5).max_degree() == 0 and Graph(5).m == 0
    assert star().max_degree() == 3 and star().m == 3


def test_degree_out_of_range():
    with pytest.raises(GraphError):
        p3().non_neighbors_mask(3)


def check_degrees(g, edges):
    # the stored degree facts against a count over the edge list
    deg = [0] * g.n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    assert g.degrees() == deg
    assert g.max_degree() == max(deg, default=0)
    assert g.m == len(edges)


@given(st.integers(2, 70), st.floats(0.0, 1.0), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_degrees_match_the_edge_list(n, p, seed):
    rnd = random.Random(seed)
    edges = random_edges(rnd, n, p)
    g = Graph.from_edge_list(n, edges)
    check_degrees(g, edges)
    matrix = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        matrix[u, v] = matrix[v, u] = True
    check_degrees(Graph.from_bool_adjacency(matrix), edges)
    sampled = sample_graph(HomogeneousModel(n, p), np.random.default_rng(seed))
    check_degrees(sampled, list(sampled.edges()))
    # listed high end first, so add_edge also takes u > v
    # one edge set, not has_edge per pair: n reaches 70 here
    present = set(g.edges())
    missing = [(v, u) for u, v in combinations(range(n), 2) if (u, v) not in present]
    added = rnd.sample(missing, min(len(missing), 5))
    h = g.copy()
    for u, v in added:
        h.add_edge(u, v)
    check_degrees(h, edges + added)
    check_degrees(g, edges)


def test_degree_list_is_not_shared():
    g = p3()
    g.degrees()[1] = 99
    h = g.copy()
    h.add_edge(0, 2)
    h.degrees().clear()
    assert g.degrees() == [1, 2, 1] and g.max_degree() == 2 and g.m == 2
    assert h.degrees() == [2, 2, 2] and h.max_degree() == 2 and h.m == 3


@given(st.integers(1, 9), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_odd_set_even_and_matches_reference(n, seed):
    rnd = random.Random(seed)
    edges = random_edges(rnd, n, 0.5)
    g = Graph.from_edge_list(n, edges)
    odd = odd_vertices_ref(n, edges)
    assert len(odd) % 2 == 0
    assert g.odd_mask == bitset(odd)
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
    absent = [(u, v) for u, v in all_pairs(n) if not has_edge(g, u, v)]
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


# sparse densities straddle the connectivity threshold ln(n)/n, dense ones
# connect in two levels, where the search stops early
@given(st.integers(1, 150), st.sampled_from([0.01, 0.03, 0.06, 0.35, 0.9]), st.integers(0, 10**6))
@settings(max_examples=120, deadline=None)
def test_is_connected_matches_reference(n, p, seed):
    rnd = random.Random(seed)
    edges = random_edges(rnd, n, p)
    assert Graph.from_edge_list(n, edges).is_connected() == connected_ref(n, edges)



def test_components_cases():
    assert Graph(0).components() == []
    assert Graph(3).components() == [0b001, 0b010, 0b100]
    assert p3().components() == [0b111]
    assert Graph.from_edge_list(5, [(0, 3), (1, 4), (4, 2)]).components() == [0b01001, 0b10110]


@given(st.integers(0, 60), st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.5]), st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_components_match_reference(n, p, seed):
    edges = random_edges(random.Random(seed), n, p)
    assert Graph.from_edge_list(n, edges).components() == [bitset(c) for c in components_ref(n, edges)]


# empty to complete graphs; a split at k keeps every edge inside [0, k) or
# [k, n), so any split strictly inside the range disconnects the graph
@given(
    st.integers(0, 70),
    st.sampled_from([0.0, 0.01, 0.03, 0.08, 0.2, 0.5, 0.9, 1.0]),
    st.integers(0, 70),
    st.integers(0, 10**6),
)
@settings(max_examples=200, deadline=None)
def test_search_matches_the_level_by_level_reference(n, p, split, seed):
    k = min(split, n)
    edges = [(u, v) for u, v in random_edges(random.Random(seed), n, p) if (u < k) == (v < k)]
    g = Graph.from_edge_list(n, edges)
    full = (1 << n) - 1
    assert g.is_connected() == (not n or reachable_from_ref(g, 0, full) == full)
    rest, found = full, []
    while rest:
        found.append(reachable_from_ref(g, (rest & -rest).bit_length() - 1, rest))
        rest &= ~found[-1]
    assert g.components() == found


class CountedRows(list):
    """An adjacency list that counts the rows read from it."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


@pytest.mark.parametrize("k", [2, 10, 40])
def test_search_stops_at_the_row_that_reaches_the_last_vertex(k):
    # row 0 reaches 1..k and row 1, the next one read, reaches the rest; a
    # search that finishes each level would read all k rows of 1..k
    n = k + 5
    g = Graph.from_edge_list(n, [(0, v) for v in range(1, k + 1)] + [(1, v) for v in range(2, n)])
    for check in (lambda: g.is_connected(), lambda: g.components() == [(1 << n) - 1]):
        g._adj = CountedRows(g._adj)
        assert check()
        assert g._adj.reads == 2


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
    assert len(c.vertices) - 1 == 3


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
    assert len(Graph(3).eulerian_circuit().vertices) - 1 == 0


def test_circuit_determinism():
    rnd = random.Random(3)
    for _ in range(20):
        n = rnd.randint(2, 8)
        edges = random_connected_edges(rnd, n)
        g = Graph.from_edge_list(n, edges)
        if g.odd_mask:
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
    assert len(c.vertices) - 1 == 3
    with pytest.raises(Exception):
        c.vertices = ()
