import random
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eulerext import (
    FAIL_DISCONNECTED,
    FAIL_NO_THREE_PATH,
    PHASE_PAIRING,
    PHASE_THREE_PATH,
    PHASE_TWO_PATH,
    AddedEdge,
    ExtensionResult,
    Graph,
    extend,
    extension,
    VerificationReport,
    verify_extension,
)

from eulerext.extension import PROBE_BLOCK, phase_clique_reduction, phase_pairing, phase_three_paths

from conftest import (
    all_graph_edge_sets,
    all_pairs,
    bitset,
    common_non_neighbors_ref,
    connected_ref,
    has_edge,
    is_valid_extension_ref,
    odd_vertices_ref,
    phase_clique_reduction_ref,
    phase_pairing_ref,
    phase_three_paths_ref,
    random_connected_edges,
    random_edges,
    rng_state,
    scan_three_path_ref,
    valid_three_path_ref,
    with_edges,
)


def graph(n, edges):
    return Graph.from_edge_list(n, edges)


def pairs(edges):
    return [(e.u, e.v) for e in edges]


# -- phase one: greedy pairing --


def test_pairing_path():
    g = graph(3, [(0, 1), (1, 2)])
    before = g.copy()
    added, residual = phase_pairing(g)
    assert pairs(added) == [(0, 2)]
    assert residual == []
    assert g == before  # phase one only reads its graph
    assert has_edge(with_edges(g, added), 0, 2)
    assert added[0].phase == PHASE_PAIRING


def test_pairing_star_leaves_adjacent_residual():
    # all four vertices are odd; 0 is adjacent to everyone, so the pass
    # matches (1, 2) and leaves {0, 3}, which indeed form a clique
    g = graph(4, [(0, 1), (0, 2), (0, 3)])
    added, residual = phase_pairing(g)
    assert pairs(added) == [(1, 2)]
    assert residual == [0, 3]
    assert has_edge(g, 0, 3)


def test_pairing_even_graph_is_noop():
    g = graph(3, [(0, 1), (1, 2), (0, 2)])
    added, residual = phase_pairing(g)
    assert added == [] and residual == []


def test_pairing_greedy_is_ascending():
    # odd set {0,1,2,3}, none of them adjacent: pairs lowest-first
    g = graph(6, [(0, 4), (1, 4), (2, 5), (3, 5)])
    added, residual = phase_pairing(g)
    assert pairs(added) == [(0, 1), (2, 3)]
    assert residual == []


@given(st.integers(2, 10), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_pairing_residual_is_odd_clique(n, seed):
    rnd = random.Random(seed)
    g = graph(n, random_connected_edges(rnd, n))
    before = g.copy()
    added, residual = phase_pairing(g)
    assert g == before
    union = with_edges(g, added)
    assert union.odd_mask == bitset(residual)
    for i, u in enumerate(residual):
        for v in residual[i + 1:]:
            assert has_edge(union, u, v)
    for e in added:
        assert e.phase == PHASE_PAIRING


# -- phase two: two-edge detours --


def test_clique_reduction_k4_plus_outsider():
    g = graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    before = g.copy()
    added, pending = phase_clique_reduction(g, [0, 1, 2, 3])
    assert pairs(added) == [(0, 4), (1, 4), (2, 4), (3, 4)]
    assert pending == []
    assert all(e.phase == PHASE_TWO_PATH for e in added)
    assert g == before  # phase two only reads its graph
    assert with_edges(g, added).odd_mask == 0


def test_clique_reduction_never_routes_through_input_set():
    # on an empty graph every pair of pending vertices could reach each other
    # through another pending vertex, but those are off limits; the first
    # outside vertex (4) carries every detour instead
    g = Graph(6)
    added, pending = phase_clique_reduction(g, [0, 1, 2, 3])
    assert pairs(added) == [(0, 4), (1, 4), (2, 4), (3, 4)]
    assert pending == []


def test_clique_reduction_no_detour():
    # K4: the one non-member vertex of each pair is adjacent to both
    g = graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    added, pending = phase_clique_reduction(g, [0, 1, 2, 3])
    assert added == [] and pending == [0, 1, 2, 3]


def test_clique_reduction_partial():
    # z=4 serves (0,1); afterwards 4 is adjacent to both 2 and 3 and no
    # other outside vertex exists, so (2,3) stays pending
    g = graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    added, pending = phase_clique_reduction(g, [0, 1, 2, 3])
    assert pairs(added) == [(0, 4), (1, 4)]
    assert pending == [2, 3]


def test_clique_reduction_reads_each_mask_once(monkeypatch):
    # K6 with two outside vertices: three repairs, all through vertex 6;
    # a search restarted after each repair would read the masks 12 times
    g = graph(8, list(combinations(range(6), 2)))
    residual = [0, 1, 2, 3, 4, 5]
    reads = []
    mask = Graph.non_neighbors_mask

    def counted(self, u):
        reads.append(u)
        return mask(self, u)

    monkeypatch.setattr(Graph, "non_neighbors_mask", counted)
    added, pending = phase_clique_reduction(g, residual)
    assert len(added) == 6 and pending == []
    assert sorted(reads) == residual


# -- phase three: three-edge detours --


def test_three_path_first_lexicographic_witness():
    g = Graph(5)
    out = phase_three_paths(g, [0, 1], None, 0)
    assert pairs(out.edges) == [(0, 2), (2, 3), (1, 3)]
    assert out.attempts == 0
    assert out.failing_pair is None
    assert all(e.phase == PHASE_THREE_PATH for e in out.edges)


def test_three_path_second_orientation():
    # (0,2) being present kills the u-y-z-v reading of y=2, z=3, so the
    # detour runs u-z-y-v instead
    g = graph(4, [(0, 2)])
    out = phase_three_paths(g, [0, 1], None, 0)
    assert pairs(out.edges) == [(0, 3), (2, 3), (1, 2)]


def test_three_path_exhausts_budget_then_scans():
    # no detour exists: the only candidate middle edge (2,3) is present
    g = graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    out = phase_three_paths(g, [0, 1], np.random.default_rng(0), 7)
    assert out.failing_pair == (0, 1)
    assert out.attempts == 7
    assert out.edges == ()


def test_three_path_random_probe_is_seed_deterministic():
    g1, g2 = Graph(30), Graph(30)
    out1 = phase_three_paths(g1, [0, 1, 2, 3], np.random.default_rng(42), 64)
    out2 = phase_three_paths(g2, [0, 1, 2, 3], np.random.default_rng(42), 64)
    assert pairs(out1.edges) == pairs(out2.edges)
    assert out1.attempts == out2.attempts
    assert out1.failing_pair is None


def test_three_path_rejects_degenerate_probes():
    # y == z, y or z among the endpoints, and a present middle edge must all
    # be rejected; with three vertices there is nothing left
    g = Graph(3)
    out = phase_three_paths(g, [0, 1], np.random.default_rng(1), 50)
    assert out.failing_pair == (0, 1)
    assert out.attempts == 50


# -- phase three's probe stream: blocks of draws, scalar-loop end state --


def one_detour_graph(n):
    # K_n less (0, 2), (2, 3) and (1, 3): the pair (0, 1) has the single
    # detour 0-2-3-1, which a probe hits with chance 2/n^2
    return graph(n, [e for e in all_pairs(n) if e not in {(0, 2), (2, 3), (1, 3)}])


def scalar_draws(rng, n, count):
    for _ in range(count):
        rng.integers(n)
    return rng


@pytest.mark.parametrize(
    "bit_generator, seed, hit",
    [(np.random.PCG64, 9, 1447), (np.random.MT19937, 2, 1540)],
    ids=["PCG64", "MT19937"],
)
def test_three_path_hit_in_second_block_keeps_scalar_stream(bit_generator, seed, hit):
    assert PROBE_BLOCK < hit <= 2 * PROBE_BLOCK
    g = one_detour_graph(55)
    rng, ref_rng = (np.random.Generator(bit_generator(seed)) for _ in range(2))
    work, ref = g.copy(), g.copy()
    out = phase_three_paths(work, [0, 1], rng, 2 * PROBE_BLOCK + 3)
    assert pairs(out.edges) == [(0, 2), (2, 3), (1, 3)] and out.attempts == hit
    assert out == phase_three_paths_ref(ref, [0, 1], ref_rng, 2 * PROBE_BLOCK + 3)
    assert work == ref
    scalar = scalar_draws(np.random.Generator(bit_generator(seed)), 55, 2 * hit)
    assert rng_state(rng) == rng_state(ref_rng) == rng_state(scalar)


def test_three_path_failing_probes_draw_the_whole_budget():
    # no probe can hit in K_n, so all budget probes are drawn and then the
    # scan fails too
    budget = 2 * PROBE_BLOCK + 3
    g = graph(9, all_pairs(9))
    rng = np.random.default_rng(3)
    out = phase_three_paths(g, [0, 1], rng, budget)
    assert out.attempts == budget and out.failing_pair == (0, 1) and out.edges == ()
    assert rng_state(rng) == rng_state(scalar_draws(np.random.default_rng(3), 9, 2 * budget))


class DuckRng:
    # integers like a Generator's, but no bit_generator
    def integers(self, n, size=None):
        return np.random.default_rng(0).integers(n, size=size)


NOT_GENERATORS = [np.random.RandomState(0), np.random.PCG64(0), random.Random(0), DuckRng(), 7]


@pytest.mark.parametrize("rng", NOT_GENERATORS, ids=lambda r: type(r).__name__)
def test_rng_must_be_none_or_a_generator(rng):
    # checked on entry, before any edge: disconnected, already Eulerian,
    # and K_4, whose pairs reach phase three
    for h in (graph(5, [(0, 1), (1, 2)]), graph(3, [(0, 1), (1, 2), (0, 2)]), graph(4, all_pairs(4))):
        with pytest.raises(ValueError, match="rng must be None or a numpy Generator"):
            extend(h, rng=rng)


# -- extend: full engine --


def test_extend_already_eulerian():
    g = graph(3, [(0, 1), (1, 2), (0, 2)])
    r = extend(g)
    assert r.success and r.t_input == 0 and r.added_edges == ()
    assert verify_extension(g, r).ok


def test_extend_single_vertex():
    r = extend(Graph(1))
    assert r.success and r.added_edges == ()


def test_extend_adds_nothing_to_connected_even_graphs():
    # every phase finds nothing to do, so extend's final return answers;
    # no probe is drawn, so a generator is left as it was
    checked = 0
    for n in range(7):
        for edges in all_graph_edge_sets(n):
            if odd_vertices_ref(n, edges) or not connected_ref(n, edges):
                continue
            g = graph(n, edges)
            before = g.copy()
            for rng in (None, np.random.default_rng(n)):
                state = rng_state(rng)
                assert extend(g, rng) == ExtensionResult(True, 0, ())
                assert g == before
                assert rng_state(rng) == state
            checked += 1
    assert checked == 764  # labelled connected even graphs, n = 0..6: 1, 1, 0, 1, 3, 38, 720


def test_extend_copies_the_input_only_for_phase_three(monkeypatch):
    # phases one and two read the input, so a run that ends with them
    # copies nothing; phase three gets one copy, whether it succeeds or not
    no_phase_three = [
        graph(3, [(0, 1), (1, 2)]),
        graph(3, [(0, 1), (1, 2), (0, 2)]),
        graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]),
    ]
    phase_three = [
        graph(5, [(0, 1), (1, 2), (0, 3), (2, 4), (3, 4), (0, 4), (1, 4)]),
        graph(4, [(0, 1), (0, 2), (0, 3)]),
        graph(2, [(0, 1)]),
    ]
    copies = []
    copy = Graph.copy

    def counted(self):
        copies.append(self)
        return copy(self)

    monkeypatch.setattr(Graph, "copy", counted)
    for graphs, expected in ((no_phase_three, 0), (phase_three, 1)):
        for g in graphs:
            for rng in (None, np.random.default_rng(3)):
                copies.clear()
                r = extend(g, rng)
                ran_phase_three = r.failing_pair is not None or r.phase_counts()[PHASE_THREE_PATH] > 0
                assert len(copies) == expected and ran_phase_three == bool(expected)


def test_extend_path_one_edge():
    g = graph(3, [(0, 1), (1, 2)])
    r = extend(g)
    assert r.success
    assert r.edge_pairs() == [(0, 2)]
    assert r.phase_counts() == {PHASE_PAIRING: 1, PHASE_TWO_PATH: 0, PHASE_THREE_PATH: 0}
    assert g.m == 2  # input untouched


def test_extend_two_path_golden():
    # K4 with vertex 4 hanging off 2 and 3: the odd pair {0, 1} is adjacent,
    # so phase one skips it, and 4 is the one common non-neighbor
    g = graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    assert g.odd_mask == bitset([0, 1])
    r = extend(g)
    assert r.success and r.t_input == 1
    assert r.edge_pairs() == [(0, 4), (1, 4)]
    assert [e.phase for e in r.added_edges] == [PHASE_TWO_PATH] * 2
    assert verify_extension(g, r).ok


def test_extend_three_path_golden():
    # odd pair {0, 1} is adjacent; every other vertex is adjacent to 0 or 1,
    # so no two-edge detour exists; 0-2-3-1 is the first three-edge one
    g = graph(5, [(0, 1), (1, 2), (0, 3), (2, 4), (3, 4), (0, 4), (1, 4)])
    assert g.odd_mask == bitset([0, 1])
    r = extend(g)
    assert r.success and r.t_input == 1
    assert r.edge_pairs() == [(0, 2), (2, 3), (1, 3)]
    assert [e.phase for e in r.added_edges] == [PHASE_THREE_PATH] * 3
    assert r.attempts_phase3 == 0  # no rng, straight to the scan
    assert verify_extension(g, r).ok


def test_extend_star_fails_honestly():
    g = graph(4, [(0, 1), (0, 2), (0, 3)])
    r = extend(g)
    assert not r.success
    assert r.failure_reason == FAIL_NO_THREE_PATH
    assert r.failing_pair == (0, 3)
    assert r.t_input == 2
    assert r.edge_pairs() == [(1, 2)]  # the phase-one edge it did place
    with pytest.raises(ValueError):
        verify_extension(g, r)


def test_extend_k2_fails():
    r = extend(graph(2, [(0, 1)]))
    assert not r.success and r.failure_reason == FAIL_NO_THREE_PATH
    assert r.failing_pair == (0, 1)


def test_extend_disconnected_gate():
    g = graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    r = extend(g)
    assert not r.success
    assert r.failure_reason == FAIL_DISCONNECTED
    assert r.added_edges == () and r.t_input == 0

    g = graph(4, [(0, 1), (1, 2)])  # isolated vertex 3
    r = extend(g)
    assert r.failure_reason == FAIL_DISCONNECTED
    assert r.t_input == 1


def test_extend_seeded_runs_reproduce():
    rnd = random.Random(9)
    for _ in range(10):
        n = rnd.randint(4, 16)
        g = graph(n, random_connected_edges(rnd, n))
        r1 = extend(g, rng=np.random.default_rng(5))
        r2 = extend(g, rng=np.random.default_rng(5))
        assert r1 == r2


def test_extend_budget_override():
    # zero random attempts still succeeds through the deterministic scan
    g = graph(5, [(0, 1), (1, 2), (0, 3), (2, 4), (3, 4), (0, 4), (1, 4)])
    r = extend(g, rng=np.random.default_rng(0), max_random_attempts=0)
    assert r.success and r.attempts_phase3 == 0


def test_extend_rejects_negative_budget():
    # checked before the early returns for disconnected and even inputs; a
    # float or a bool is no budget either and gets the same message
    k4 = graph(4, all_pairs(4))
    for g in (graph(5, [(0, 1), (1, 2)]), graph(3, [(0, 1), (1, 2), (0, 2)]), Graph(1), k4):
        for budget in (-4, 2.5, True):
            with pytest.raises(ValueError, match="must be None or >= 0"):
                extend(g, rng=np.random.default_rng(0), max_random_attempts=budget)


@given(st.integers(2, 11), st.integers(0, 10**6), st.booleans())
@settings(max_examples=120, deadline=None)
def test_extend_invariants_random(n, seed, use_rng):
    rnd = random.Random(seed)
    g = graph(n, random_connected_edges(rnd, n))
    before = g.copy()
    rng = np.random.default_rng(seed) if use_rng else None
    r = extend(g, rng=rng)
    assert g == before  # input never mutated
    assert r.t_input == g.t_value()
    assert r.failure_reason in (None, FAIL_NO_THREE_PATH)
    if r.success:
        assert len(r.added_edges) <= 3 * r.t_input
        counts = r.phase_counts()
        assert counts[PHASE_TWO_PATH] % 2 == 0
        assert counts[PHASE_THREE_PATH] % 3 == 0
        fixed = (
            counts[PHASE_PAIRING]
            + counts[PHASE_TWO_PATH] // 2
            + counts[PHASE_THREE_PATH] // 3
        )
        assert fixed == r.t_input
        assert verify_extension(g, r).ok
        assert is_valid_extension_ref(n, list(g.edges()), r.edge_pairs())
    else:
        assert r.failing_pair is not None


@given(st.integers(2, 7), st.floats(0.2, 1.0), st.integers(0, 10**6), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_two_edge_detours_finish_when_adjacent_odd_pairs_share_a_non_neighbour(n, p, seed, rng_seed):
    # the paper's deterministic step (E_all implies the condition): phase
    # one leaves a clique of odd vertices, none of which is a common
    # non-neighbour of two others, so phase two takes each next pair
    edges = random_connected_edges(random.Random(seed), n, p)
    odd = odd_vertices_ref(n, edges)
    assume(all(common_non_neighbors_ref(n, edges, u, v) for u, v in edges if u in odd and v in odd))
    g = graph(n, edges)
    for rng in (None, np.random.default_rng(rng_seed)):
        r = extend(g, rng=rng)
        counts = r.phase_counts()
        assert r.success and counts[PHASE_THREE_PATH] == 0
        assert len(r.added_edges) == 2 * g.t_value() - counts[PHASE_PAIRING]


# -- word-parallel kernels against the pair-at-a-time loops they replaced --

# densities up to 0.95 leave odd cliques behind, so phases two and three
# run and some exhaustive scans fail
dense_graphs = st.builds(
    lambda n, p, seed: graph(n, random_edges(random.Random(seed), n, p)),
    st.integers(2, 12),
    st.floats(0.0, 0.95),
    st.integers(0, 10**6),
)


@given(dense_graphs, st.booleans(), st.data())
@settings(max_examples=300, deadline=None)
def test_clique_reduction_matches_reference(g, from_phase_one, data):
    # residuals as phase one leaves them (odd cliques) or any vertex list;
    # the reference adds each edge it finds, so it gets the graph with phase
    # one's edges in place, while phase two reads the input as extend hands it
    if from_phase_one:
        earlier, residual = phase_pairing(g)
    else:
        earlier, residual = [], data.draw(st.lists(st.integers(0, g.n - 1), unique=True))
    work, ref = g.copy(), with_edges(g, earlier)
    added, pending = phase_clique_reduction(work, residual)
    assert (added, pending) == phase_clique_reduction_ref(ref, residual)
    assert work == g
    assert with_edges(g, earlier + added) == ref


def inner_masks(g, u, v):
    # the masks phase three hands its helpers: non-neighbours other than u and v
    ends = (1 << u) | (1 << v)
    return g.non_neighbors_mask(u) & ~ends, g.non_neighbors_mask(v) & ~ends


@given(dense_graphs)
@settings(max_examples=60, deadline=None)
def test_scan_three_path_matches_reference(g):
    for u, v in all_pairs(g.n):
        nu, nv = inner_masks(g, u, v)
        assert extension._scan_three_path(g, u, v, nu, nv) == scan_three_path_ref(g, u, v)
        assert extension._scan_three_path(g, v, u, nv, nu) == scan_three_path_ref(g, v, u)


@given(dense_graphs.filter(lambda g: g.n <= 8))
@settings(max_examples=60, deadline=None)
def test_valid_three_path_matches_reference(g):
    for u, v in product(range(g.n), repeat=2):
        nu, nv = inner_masks(g, u, v)
        for y, z in product(range(g.n), repeat=2):
            got = extension._valid_three_path(g, u, v, nu, nv, y, z)
            assert got == valid_three_path_ref(g, u, v, y, z)


# small budgets, and budgets on either side of one and two probe blocks
def probe_budgets(small):
    edges = [0, 1, PROBE_BLOCK - 1, PROBE_BLOCK, PROBE_BLOCK + 1, 2 * PROBE_BLOCK + 3]
    return st.one_of(st.integers(0, small), st.sampled_from(edges))


@given(dense_graphs, st.booleans(), probe_budgets(4), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_phases_match_references(g, use_rng, budget, seed):
    # the references add each edge as they find it; phases one and two
    # only read the graph, and phase three gets it with their edges added
    def run_refs():
        work = g.copy()
        added, residual = phase_pairing_ref(work)
        two_path, pending = phase_clique_reduction_ref(work, residual)
        rng = np.random.default_rng(seed) if use_rng else None
        outcome = phase_three_paths_ref(work, pending, rng, budget)
        return added, residual, two_path, pending, outcome, work, rng_state(rng)

    def run_phases():
        work = g.copy()
        added, residual = phase_pairing(work)
        two_path, pending = phase_clique_reduction(work, residual)
        assert work == g
        work = with_edges(g, added + two_path)
        rng = np.random.default_rng(seed) if use_rng else None
        outcome = phase_three_paths(work, pending, rng, budget)
        return added, residual, two_path, pending, outcome, work, rng_state(rng)

    assert run_phases() == run_refs()


@given(dense_graphs, st.one_of(st.none(), st.integers(0, 2**32 - 1)))
@settings(max_examples=200, deadline=None)
def test_extend_hands_the_phases_what_they_assume(g, seed):
    # phases two and three check none of their inputs: extend's vertex
    # lists are distinct Python ints in range(n), ascending, and phase
    # three's has even length, its rng and budget already checked
    seen = {}

    def spy(phase):
        def call(work, vertices, *rest):
            seen[phase.__name__] = (list(vertices), rest)
            return phase(work, vertices, *rest)

        return call

    with pytest.MonkeyPatch.context() as mp:
        for phase in (phase_clique_reduction, phase_three_paths):
            mp.setattr(extension, phase.__name__, spy(phase))
        result = extend(g, None if seed is None else np.random.default_rng(seed))
    for vertices, _ in seen.values():
        assert all(type(x) is int and 0 <= x < g.n for x in vertices)
        assert vertices == sorted(set(vertices))
    if result.t_input and result.failure_reason != FAIL_DISCONNECTED:
        assert "phase_clique_reduction" in seen
    if "phase_three_paths" in seen:
        pending, (rng, budget) = seen["phase_three_paths"]
        assert pending and len(pending) % 2 == 0
        assert set(pending) <= set(seen["phase_clique_reduction"][0])
        assert (rng is None) == (seed is None) and type(budget) is int and budget > 0


@given(dense_graphs, st.data(), probe_budgets(6), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_three_paths_on_any_pairs_match_references(g, data, budget, seed):
    # phase three on vertex pairs that need not form a clique
    chosen = data.draw(st.lists(st.integers(0, g.n - 1), unique=True))
    pend = chosen[: len(chosen) // 2 * 2]
    for rng_seed in (None, seed):
        def run(three_paths):
            work = g.copy()
            rng = None if rng_seed is None else np.random.default_rng(rng_seed)
            return three_paths(work, pend, rng, budget), work, rng_state(rng)

        assert run(phase_three_paths) == run(phase_three_paths_ref)


# -- verify_extension as an adversarial checker --


def ok_result(edges):
    return ExtensionResult(True, 1, tuple(AddedEdge(u, v, PHASE_PAIRING) for u, v in edges))


def test_verify_rejects_failed_result():
    g = graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        verify_extension(g, ExtensionResult(False, 1, (), failure_reason=FAIL_NO_THREE_PATH))


def test_verify_flags_bad_edges():
    g = graph(3, [(0, 1), (1, 2)])
    rep = verify_extension(g, ok_result([(0, 3)]))
    assert not rep.ok and any("range(" in v for v in rep.violations)
    rep = verify_extension(g, ok_result([(1, 1)]))
    assert any("self-loop" in v for v in rep.violations)
    rep = verify_extension(g, ok_result([(0, 2), (2, 0)]))
    assert any("already present" in v for v in rep.violations)
    rep = verify_extension(g, ok_result([(0, 1)]))
    assert any("already present" in v for v in rep.violations)
    # integer-like endpoints count as their value; bools, floats and text
    # are reported, never raised
    assert verify_extension(g, ok_result([(np.int64(0), np.int64(2))])).ok
    for bad in (True, np.True_, 2.0, "2"):
        rep = verify_extension(g, ok_result([(0, bad)]))
        assert not rep.ok and any("range(" in v for v in rep.violations)


# the added edges of each case, the bad one among them and a word of the
# reason add_edge gives; (0, 2) is the only complement edge of 0-1-2
BAD_EDGES = {
    "out_of_range": ([(0, 3)], (0, 3), "range(3)"),
    "negative": ([(-1, 2)], (-1, 2), "range(3)"),
    "self_loop": ([(1, 1)], (1, 1), "self-loop"),
    "reversed_repeat": ([(0, 2), (2, 0)], (2, 0), "already present"),
    "input_edge": ([(1, 0)], (1, 0), "already present"),
    "bool": ([(0, True)], (0, True), "range(3)"),
    "numpy_bool": ([(np.True_, 2)], (np.True_, 2), "range(3)"),
    "float": ([(0, 2.0)], (0, 2.0), "range(3)"),
    "str": ([("0", 2)], ("0", 2), "range(3)"),
}


@pytest.mark.parametrize("case", BAD_EDGES)
def test_verify_reports_one_violation_per_bad_edge(case):
    added, bad, reason = BAD_EDGES[case]
    g = graph(3, [(0, 1), (1, 2)])
    before = g.copy()
    rep = verify_extension(g, ok_result(added))
    (violation,) = rep.violations
    assert violation.startswith(f"edge ({bad[0]!r}, {bad[1]!r}): ") and reason in violation
    assert g == before and g.degrees() == before.degrees() and g.odd_mask == before.odd_mask
    # so g still takes its one valid extension, given as numpy integers
    assert verify_extension(g, ok_result([(np.int64(0), np.int64(2))])).ok


def test_verify_flags_parity_and_connectivity():
    g = graph(3, [(0, 1), (1, 2)])
    rep = verify_extension(g, ok_result([]))
    assert any("odd degree" in v for v in rep.violations)
    g = graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    rep = verify_extension(g, ok_result([(0, 3)]))
    assert not rep.ok  # parity broken at 0 and 3 and only one bridge added
    g2 = graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    rep = verify_extension(g2, ok_result([]))
    assert any("not connected" in v for v in rep.violations)


def test_verify_flags_budget_overrun():
    # a chord triangle keeps every degree even and the graph connected, so
    # the only complaint left is the edge budget: 3 added with t = 0
    g = graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    r = ExtensionResult(
        True, 0, tuple(AddedEdge(u, v, PHASE_TWO_PATH) for u, v in [(0, 2), (2, 4), (0, 4)])
    )
    rep = verify_extension(g, r)
    assert not rep.ok
    assert rep.violations == (
        "3 edges added, above three per odd pair (t=0)",
    )


@given(st.integers(1, 8), st.integers(0, 10**6), st.data())
@settings(max_examples=200, deadline=None)
def test_verify_matches_reference(n, seed, data):
    rnd = random.Random(seed)
    edges = random_edges(rnd, n, rnd.choice((0.3, 0.5, 0.8)))
    base = set(edges)
    g = graph(n, edges)
    added = []
    r = extend(g)
    if r.success and data.draw(st.booleans()):
        # start from a valid extension; a triangle of absent edges keeps
        # parity and connectivity, so only the 3t budget can break
        added = r.edge_pairs()
        taken = base | set(added)
        triangles = [c for c in combinations(range(n), 3) if taken.isdisjoint(combinations(c, 2))]
        if triangles and data.draw(st.booleans()):
            a, b, c = data.draw(st.sampled_from(triangles))
            added += [(a, b), (b, c), (a, c)]
    complement = [e for e in all_pairs(n) if e not in base]
    # arbitrary pairs cover self-loops, out-of-range endpoints and input edges
    pair = st.tuples(st.integers(-1, n), st.integers(-1, n))
    for pool in (complement, edges):
        if pool:
            pair = pair | st.sampled_from(pool) | st.sampled_from(pool).map(lambda e: e[::-1])
    added += data.draw(st.lists(pair, max_size=2 * n))
    rep = verify_extension(g, ok_result(added))

    in_range = all(0 <= u < n and 0 <= v < n and u != v for u, v in added)
    t = len(odd_vertices_ref(n, edges)) // 2
    expected = in_range and is_valid_extension_ref(n, edges, added) and len(added) <= 3 * t
    assert rep.ok == expected
    assert rep.ok == (rep.violations == ())


def test_verify_accepts_honest_extension():
    g = graph(3, [(0, 1), (1, 2)])
    rep = verify_extension(g, ok_result([(0, 2)]))
    assert rep.ok and rep.violations == ()


def test_report_is_ok_exactly_when_it_has_no_violation():
    assert VerificationReport(()).ok
    assert not VerificationReport(("extended graph is not connected",)).ok
    g = graph(4, [(0, 1), (1, 2), (2, 3)])
    for added in ([(0, 3)], [], [(0, 4)], [(1, 1)], [(0, 3), (3, 0)], [(0, 1)], [(0, 2), (1, 3)]):
        rep = verify_extension(g, ok_result(added))
        assert rep == VerificationReport(rep.violations)
    assert verify_extension(g, ok_result([(0, 3)])).ok


# -- result plumbing --


def test_result_helpers():
    e = AddedEdge(2, 5, PHASE_TWO_PATH)
    assert (e.u, e.v, e.phase) == (2, 5, PHASE_TWO_PATH)
    r = ExtensionResult(True, 2, (e, AddedEdge(0, 1, PHASE_PAIRING)))
    assert r.phase_counts() == {PHASE_PAIRING: 1, PHASE_TWO_PATH: 1, PHASE_THREE_PATH: 0}
    # the count fields of a trial record and of `eulerext extend`, in their order
    assert list(r.count_fields().items()) == [
        ("edges_added", 2), ("pairing_edges", 1), ("two_path_edges", 1), ("three_path_edges", 0)
    ]
    assert r.edge_pairs() == [(2, 5), (0, 1)]
    with pytest.raises(Exception):
        e.u = 3
