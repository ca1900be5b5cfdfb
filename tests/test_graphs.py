"""Incidence graph, complement, chordality, and cycle extraction."""

import random
from itertools import combinations

from hypothesis import given, settings, strategies as st

from acmlines import (
    all_varieties,
    build_graph,
    compact,
    complement,
    graph_to_dot,
    is_acm,
    is_chordal,
    is_induced_cycle,
)
from acmlines.graphs import Graph, canonical_cycle
from acmlines.sampling import random_variety
from conftest import (
    DIAGONAL_PAIR_PLUS_ONE,
    REPAIRED_TRIPLE_POINTS,
    TWO_TRIPLE_POINTS,
    chordless_cycles,
    is_chordal_by_sets,
    scattered,
)


def _vertex(g, name):
    return next(v for v in g.vertices if str(v) == name)


def test_build_graph_counts():
    G = build_graph(DIAGONAL_PAIR_PLUS_ONE)
    assert G.vertex_count == 6  # A1 A2 B1 B2 B3 C1
    assert G.edge_count == 3
    names = [str(v) for v in G.vertices]
    assert names == ["A1", "A2", "B1", "B2", "B3", "C1"]


def test_complement_edge_count():
    G = build_graph(DIAGONAL_PAIR_PLUS_ONE)
    Gc = complement(G)
    n = G.vertex_count
    assert G.edge_count + Gc.edge_count == n * (n - 1) // 2


def test_diagonal_pair_complement_not_chordal():
    Gc = complement(build_graph(DIAGONAL_PAIR_PLUS_ONE))
    ok, cycle = is_chordal(Gc)
    assert not ok
    assert cycle is not None and len(cycle) >= 4
    assert is_induced_cycle(Gc, cycle)


def test_repaired_example_complement_chordal():
    Gc = complement(build_graph(REPAIRED_TRIPLE_POINTS))
    ok, cycle = is_chordal(Gc)
    assert ok and cycle is None
    assert Gc.edge_count == 5


def test_triple_point_complement_has_six_cycle():
    Gc = complement(build_graph(TWO_TRIPLE_POINTS))
    cycles = chordless_cycles(Gc, max_len=6)
    assert any(len(c) == 6 for c in cycles)
    for c in cycles:
        assert is_induced_cycle(Gc, c)


def test_path_graph_is_chordal():
    G = Graph.from_edges((1, 2, 3, 4), {(1, 2), (2, 3), (3, 4)})
    ok, cycle = is_chordal(G)
    assert ok and cycle is None


def test_four_cycle_not_chordal():
    G = Graph.from_edges((1, 2, 3, 4), {(1, 2), (2, 3), (3, 4), (1, 4)})
    ok, cycle = is_chordal(G)
    assert not ok
    assert is_induced_cycle(G, cycle)
    ordinal = {v: i for i, v in enumerate(G.vertices)}
    assert canonical_cycle(cycle, ordinal) == (1, 2, 3, 4)


def test_chordal_after_adding_chord():
    G = Graph.from_edges((1, 2, 3, 4), {(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)})
    ok, _ = is_chordal(G)
    assert ok
    assert chordless_cycles(G) == []


def test_canonical_cycle_rotation_invariance():
    ordinal = {v: v for v in (1, 2, 3, 4, 5)}
    base = canonical_cycle((1, 2, 3, 4, 5), ordinal)
    assert canonical_cycle((3, 4, 5, 1, 2), ordinal) == base
    assert canonical_cycle((2, 1, 5, 4, 3), ordinal) == base


def test_graph_to_dot_output():
    G = build_graph(DIAGONAL_PAIR_PLUS_ONE)
    dot = graph_to_dot(G, name="incidence")
    assert dot.startswith("graph incidence {")
    assert '"A1" -- "B1"' in dot or '"B1" -- "A1"' in dot


def test_witness_matches_verdict():
    verdict = is_acm(DIAGONAL_PAIR_PLUS_ONE)
    assert not verdict.acm
    Gc = complement(build_graph(DIAGONAL_PAIR_PLUS_ONE))
    assert is_induced_cycle(Gc, verdict.cycle_witness)


def _labelled_graphs(n):
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = frozenset(e for b, e in enumerate(pairs) if bits >> b & 1)
        yield Graph.from_edges(range(n), edges)


def _random_graph(rng):
    n, p = rng.randint(7, 11), rng.random()
    edges = frozenset(e for e in combinations(range(n), 2) if rng.random() < p)
    return Graph.from_edges(range(n), edges)


def test_chordality_certificate_matches_exhaustive_search():
    # is_chordal asserts its certificate instead of searching; check it
    # against the full chordless-cycle enumeration
    rng = random.Random(11)
    graphs = [G for n in range(1, 6) for G in _labelled_graphs(n)]
    graphs += [complement(build_graph(X)) for X in all_varieties()]
    graphs += [_random_graph(rng) for _ in range(300)]
    for G in graphs:
        ok, cycle = is_chordal(G)
        cycles = chordless_cycles(G, max_len=G.vertex_count)
        assert ok == (not cycles), G
        assert ok or cycle in cycles, G


@st.composite
def graphs(draw, max_vertices=9):
    """A graph on up to max_vertices vertices, listed in a drawn order so
    that a vertex's position and its label differ."""
    vertices = draw(st.permutations(range(draw(st.integers(0, max_vertices)))))
    pairs = list(combinations(sorted(vertices), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph.from_edges(vertices, edges)


@given(graphs())
@settings(max_examples=300, deadline=None)
def test_mask_search_matches_the_set_search(G):
    assert is_chordal(G) == is_chordal_by_sets(G)


def test_mask_search_matches_the_set_search_on_every_small_variety(small_population):
    for X in small_population:
        Gc = complement(build_graph(X))
        assert is_chordal(Gc) == is_chordal_by_sets(Gc), X


def test_mask_search_matches_the_set_search_on_padded_draws():
    # unused hyperplanes are universal vertices of the complement; the
    # search skips the empty levels they leave, with the same order and
    # so the same witness as is_acm gives
    rng = random.Random(22)
    for _ in range(80):
        X = scattered(rng, compact(random_variety(rng, 3, 0.5)), rng.randint(1, 40))
        Gc = complement(build_graph(X))
        verdict = is_chordal_by_sets(Gc)
        assert is_chordal(Gc) == verdict, X
        acm = is_acm(X)
        assert (acm.acm, acm.cycle_witness) == verdict, X
