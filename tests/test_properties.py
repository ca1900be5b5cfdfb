"""Randomized invariants, in the spirit of the library's guarantees:
route agreement, heredity, slice necessity, oracle agreement, and
normalization round-trips."""

import itertools
import random
import warnings

from hypothesis import example, given, settings, strategies as st

from acmlines import (
    EMPTY_VARIETY,
    BoxTooSmallWarning,
    acm_decision,
    build_graph,
    compact,
    complement,
    degree_sets,
    delta_hilbert,
    detect_complete_intersection,
    ferrers_companion,
    generator_degree_scan,
    has_hyp_star,
    hilbert_function,
    hilbert_difference,
    hilbert_oracle,
    is_acm,
    is_ferrers_variety,
    is_literal_ferrers,
    make_variety,
    minimal_generators,
    multiplicity_tensor,
    permute_families,
    reisner_cm,
    relabel,
    remove_hyperplane,
    resembles_ferrers,
    stanley_reisner_complex,
    variety_from_json,
    variety_to_json,
)
from acmlines.linalg import extension_coeffs, sparse_rank
from acmlines.oracles import (
    _boxrange,
    _dense_dim,
    _dense_kernel,
    _dim3,
    _grown_rows,
    _kernel2,
    _kernel3,
    _multiplied_rows,
    _node_dim,
)
from acmlines.variety import line_masks, permute_masks
from acmlines.sampling import random_variety
from acmlines.criteria import _NUMERIC_CRITERIA
from acmlines.ferrers import _staircase
from acmlines.graphs import Graph
from conftest import (
    CI_EXAMPLE,
    FULL_BOX_432,
    SINGLE_LINE,
    _rank2,
    assert_ferrers_checks_match_the_row_sets,
    compact_by_renumbering,
    complement_by_pairs,
    complete_intersection_by_rectangles,
    conditions2,
    delta_hilbert_by_leq,
    dense_kernel_by_rows,
    first_pattern_by_backtracking,
    grown_rows_by_saturation,
    first_pattern_by_product,
    graph_by_edge_sets,
    hilbert_oracle_by_nodes,
    hilbert_oracle_naive,
    membership_matrices,
    minimal_degrees_by_product,
    mu_by_matrices,
    numeric_by_mu,
    reisner_cm_by_links,
    scan_unclipped,
    staircase_by_compaction,
)

FAMILY_ORDERS = list(itertools.permutations((1, 2, 3)))


@st.composite
def varieties(draw, dmax=3, allow_empty=False):
    d1 = draw(st.integers(1, dmax))
    d2 = draw(st.integers(1, dmax))
    d3 = draw(st.integers(1, dmax))
    cells3 = [(i, j) for i in range(1, d1 + 1) for j in range(1, d2 + 1)]
    cells2 = [(i, k) for i in range(1, d1 + 1) for k in range(1, d3 + 1)]
    cells1 = [(j, k) for j in range(1, d2 + 1) for k in range(1, d3 + 1)]
    u3 = draw(st.sets(st.sampled_from(cells3)))
    u2 = draw(st.sets(st.sampled_from(cells2)))
    u1 = draw(st.sets(st.sampled_from(cells1)))
    if not allow_empty and not (u3 or u2 or u1):
        u3 = {cells3[0]}
    return compact(make_variety((d1, d2, d3), u3, u2, u1))


@st.composite
def partition_triples(draw, dmax=3):
    """Row partitions (p3, p2, p1), not all empty, with at most dmax
    rows of at most dmax cells."""

    def partition():
        nrows = draw(st.integers(0, dmax))
        parts = sorted(
            (draw(st.integers(1, dmax)) for _ in range(nrows)), reverse=True
        )
        return tuple(parts)

    p3, p2, p1 = partition(), partition(), partition()
    if not (p3 or p2 or p1):
        p3 = (1,)
    return p3, p2, p1


@st.composite
def staircase_varieties(draw, dmax=3):
    p3, p2, p1 = draw(partition_triples(dmax))
    d1 = max(len(p3), len(p2))
    d2 = max(p3[0] if p3 else 0, len(p1))
    d3 = max(p2[0] if p2 else 0, p1[0] if p1 else 0)
    return staircase_by_compaction((d1, d2, d3), p3, p2, p1)


@given(varieties())
@settings(max_examples=150, deadline=None)
def test_three_routes_agree(X):
    v = is_acm(X)  # raises CriteriaDisagreement on any split
    assert v.acm == v.chordal == all(v.hyp.values()) == all(v.numeric.values())
    assert v.hyp == v.numeric


@st.composite
def raw_varieties(draw, dmax=6):
    """Varieties as drawn, not compacted: a family may have no
    hyperplanes, hyperplanes may carry no line, and no line at all is
    allowed."""
    d = tuple(draw(st.integers(0, dmax)) for _ in range(3))
    lines = []
    for p, q in ((d[0], d[1]), (d[0], d[2]), (d[1], d[2])):
        cells = [(i, j) for i in range(1, p + 1) for j in range(1, q + 1)]
        lines.append(draw(st.sets(st.sampled_from(cells))) if cells else set())
    return make_variety(d, *lines)


@given(raw_varieties())
@example(make_variety((0, 0, 0)))
@example(make_variety((2, 2, 2)))  # hyperplanes but no lines
@example(make_variety((3, 0, 3), u2={(1, 1), (2, 2)}))  # no B, A3 and C3 unused
@settings(max_examples=200, deadline=None)
def test_acm_decision_matches_is_acm(X):
    assert acm_decision(X) == is_acm(X).acm


@given(raw_varieties())
@example(make_variety((0, 0, 0)))
@example(make_variety((3, 0, 2), u2={(1, 1), (3, 2)}))  # no B, A2 unused
@settings(max_examples=150, deadline=None)
def test_graph_masks_match_the_edge_sets(X):
    vertices, edges = graph_by_edge_sets(X)
    G = build_graph(X)
    assert G == Graph.from_edges(vertices, edges)
    assert G.vertices == vertices and G.edges == tuple(sorted(
        edges, key=lambda e: (vertices.index(e[0]), vertices.index(e[1]))
    ))
    co_edges = complement_by_pairs(vertices, edges)
    Gc = complement(G)
    assert Gc == Graph.from_edges(vertices, co_edges)
    assert frozenset(Gc.edges) == co_edges and len(Gc.edges) == len(co_edges)


@given(raw_varieties(dmax=4))
@example(make_variety((0, 0, 0)))
@example(make_variety((3, 0, 2), u2={(1, 1), (3, 2)}))
@settings(max_examples=100, deadline=None)
def test_tensor_matches_the_membership_matrices(X):
    M = multiplicity_tensor(X)
    for sigma in FAMILY_ORDERS:
        Y = permute_families(X, sigma)
        P = M.permuted(sigma)
        matrices = membership_matrices(Y)
        assert P.d == Y.d
        assert {h: P.slice_matrix(h) for h in (1, 2, 3)} == matrices
        for cell in itertools.product(*(range(1, n + 1) for n in Y.d)):
            assert P.mu(*cell) == mu_by_matrices(matrices, *cell)


@given(varieties())
@settings(max_examples=60, deadline=None)
def test_pattern_witnesses_match_product_search(X):
    for n in (4, 5, 6):
        witness = first_pattern_by_product(X, n)
        assert has_hyp_star(X, n) == (witness is None, witness)


@given(varieties(dmax=6))
@settings(max_examples=100, deadline=None)
def test_pattern_search_matches_backtracking(X):
    for n in (4, 5, 6):
        witness = first_pattern_by_backtracking(X, n)
        assert has_hyp_star(X, n) == (witness is None, witness)


@given(varieties(dmax=4))
@settings(max_examples=60, deadline=None)
def test_numeric_criteria_match_mu_loops_under_family_orders(X):
    for sigma in FAMILY_ORDERS:
        M = multiplicity_tensor(permute_families(X, sigma))
        for n, criterion in _NUMERIC_CRITERIA.items():
            assert criterion(M) == numeric_by_mu(M, n), (sigma, n)


@given(varieties())
@settings(max_examples=60, deadline=None)
def test_large_n_vacuous(X):
    assert has_hyp_star(X, 7) == (True, None)
    assert has_hyp_star(X, 10) == (True, None)


@given(varieties())
@settings(max_examples=60, deadline=None)
def test_acm_is_hereditary(X):
    if not is_acm(X).acm:
        return
    for family in "ABC":
        f = "ABC".index(family) + 1
        for index in sorted(X.used_indices(f)):
            Y = remove_hyperplane(X, family, index)
            assert is_acm(Y).acm


@given(varieties())
@settings(max_examples=80, deadline=None)
def test_acm_implies_slices_resemble(X):
    if is_acm(X).acm:
        for h in (3, 2, 1):
            ok, _ = resembles_ferrers(X, h)
            assert ok


@given(varieties(dmax=2))
@settings(max_examples=40, deadline=None)
def test_verdict_agrees_under_relabeling(X):
    d1, d2, d3 = X.d
    perm_a = tuple(range(d1, 0, -1))
    perm_b = tuple(range(d2, 0, -1))
    perm_c = tuple(range(d3, 0, -1))
    Y = relabel(X, perm_a, perm_b, perm_c)
    assert is_acm(Y).acm == is_acm(X).acm
    assert is_ferrers_variety(Y).ok == is_ferrers_variety(X).ok


@given(varieties())
@settings(max_examples=30, deadline=None)
def test_oracle_equals_naive_rank(X):
    assert hilbert_oracle(X, (2, 2, 2)) == hilbert_oracle_naive(X, (2, 2, 2))


@given(raw_varieties(dmax=4).filter(lambda X: X.line_count and sum(X.d) <= 10))
@example(make_variety((3, 0, 3), u2={(1, 1), (2, 2)}))  # A3 and C3 unused
@settings(max_examples=40, deadline=None)
def test_face_ring_oracle_equals_the_link_by_link_test_on_draws(X):
    # uncompacted draws: unused hyperplanes are isolated vertices
    cx = stanley_reisner_complex(X)
    assert reisner_cm(cx) is reisner_cm_by_links(cx) is is_acm(X).acm


@given(staircase_varieties())
@settings(max_examples=40, deadline=None)
def test_staircase_varieties_are_acm_and_ferrers(X):
    assert is_ferrers_variety(X).ok
    assert is_acm(X).acm


@given(staircase_varieties())
@settings(max_examples=30, deadline=None)
def test_staircase_hilbert_formula_matches_oracle(X):
    box = (3, 3, 3)
    assert hilbert_function(X, box) == hilbert_oracle(X, box)


@given(staircase_varieties())
@settings(max_examples=30, deadline=None)
def test_generator_degrees_form_antichain(X):
    ds = degree_sets(X)
    for a in ds.minimal:
        for b in ds.minimal:
            if a != b:
                assert not all(x <= y for x, y in zip(a, b))
    assert ds.minimal == minimal_degrees_by_product(X)


@given(
    partition_triples(dmax=4),
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
)
@settings(max_examples=60, deadline=None)
def test_staircase_equals_the_compacted_build(parts, extra):
    X = _staircase(*parts)
    d = tuple(n + e for n, e in zip(X.d, extra))
    assert X == staircase_by_compaction(d, *parts) and X.is_compact()
    assert degree_sets(X).minimal == minimal_degrees_by_product(X)


@given(staircase_varieties())
@example(SINGLE_LINE)
@example(CI_EXAMPLE)
@settings(max_examples=25, deadline=None)
def test_ci_iff_two_minimal_generators(X):
    ci = detect_complete_intersection(X)
    gens = minimal_generators(X)
    assert (ci is not None) == (len(gens.degrees) == 2)
    # on compact staircases the two-generator rule is the rectangle rule
    reference = complete_intersection_by_rectangles(X)
    assert (None if ci is None else (ci.degrees, ci.products)) == reference


@given(staircase_varieties(dmax=2))
@settings(max_examples=20, deadline=None)
def test_scan_agrees_with_staircase_degrees(X):
    ds = degree_sets(X)
    box = tuple(max(m[axis] for m in ds.minimal) + 1 for axis in range(3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoxTooSmallWarning)
        scan = generator_degree_scan(X, box)
    assert {deg: n for deg, n in scan.items() if n} == {
        deg: 1 for deg in ds.minimal
    }


@given(varieties())
@settings(max_examples=60, deadline=None)
def test_delta_of_staircase_companion_is_binary_and_antitone(X):
    if not is_acm(X).acm:
        return
    comp = ferrers_companion(X)
    box = (3, 3, 3)
    delta = delta_hilbert(comp, box)
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert delta[i][j][k] in (0, 1)
                if delta[i][j][k] == 0:
                    if i < 3:
                        assert delta[i + 1][j][k] == 0
                    if j < 3:
                        assert delta[i][j + 1][k] == 0
                    if k < 3:
                        assert delta[i][j][k + 1] == 0


@given(varieties())
@settings(max_examples=50, deadline=None)
def test_json_round_trip_preserves_variety(X):
    assert variety_from_json(variety_to_json(X)) == X


@given(varieties(dmax=2))
@settings(max_examples=40, deadline=None)
def test_ferrers_check_matches_permutation_search(X):
    got = is_ferrers_variety(X).ok
    d1, d2, d3 = X.d
    expected = False
    for pa in itertools.permutations(range(1, d1 + 1)):
        for pb in itertools.permutations(range(1, d2 + 1)):
            for pc in itertools.permutations(range(1, d3 + 1)):
                Y = relabel(X, pa, pb, pc)
                if all(is_literal_ferrers(Y, h) for h in (3, 2, 1)):
                    expected = True
                    break
            if expected:
                break
        if expected:
            break
    assert got == expected


@given(raw_varieties(dmax=5))
@example(make_variety((0, 0, 0)))
@example(make_variety((2, 0, 3), u2={(1, 1), (1, 2), (2, 1)}))  # no B
@example(make_variety((0, 3, 2), u1={(1, 1), (1, 2), (3, 2)}))  # no A
@example(make_variety((3, 2, 0), u3={(2, 1), (3, 2)}))  # no C, A1 unused
@settings(max_examples=150, deadline=None)
def test_ferrers_checks_match_the_row_sets_on_raw_draws(X):
    assert_ferrers_checks_match_the_row_sets(X)


@given(staircase_varieties(dmax=4), st.randoms())
@settings(max_examples=80, deadline=None)
def test_ferrers_checks_match_the_row_sets_on_relabeled_staircases(X, rng):
    Y = relabel(X, *(rng.sample(range(1, n + 1), n) for n in X.d))
    assert_ferrers_checks_match_the_row_sets(Y)
    assert is_ferrers_variety(Y).ok


@given(raw_varieties(dmax=4))
@example(make_variety((0, 0, 0)))
@example(make_variety((3, 0, 2), u2={(1, 1), (3, 2)}))
@settings(max_examples=100, deadline=None)
def test_permute_masks_equals_the_masks_of_the_permuted_variety(X):
    masks = line_masks(X)
    for sigma in FAMILY_ORDERS:
        assert permute_masks(masks, sigma) == line_masks(permute_families(X, sigma))


def _then(sigma, tau):
    """The order that permuting by sigma and then by tau amounts to."""
    return tuple(sigma[t - 1] for t in tau)


def _inverse(sigma):
    return tuple(sigma.index(f) + 1 for f in (1, 2, 3))


@given(varieties())
@settings(max_examples=40, deadline=None)
def test_family_permutations_are_symmetries(X):
    box = (2, 1, 3)
    verdict = is_acm(X)
    H = hilbert_oracle(X, box)
    M = multiplicity_tensor(X)
    for sigma in FAMILY_ORDERS:
        Y = permute_families(X, sigma)
        assert permute_families(Y, _inverse(sigma)) == X
        for tau in FAMILY_ORDERS:
            assert permute_families(Y, tau) == permute_families(X, _then(sigma, tau))
        v = is_acm(Y)
        assert (v.acm, v.chordal, v.hyp, v.numeric) == (
            verdict.acm, verdict.chordal, verdict.hyp, verdict.numeric
        )
        # new axis n is old axis sigma[n-1]
        HY = hilbert_oracle(Y, tuple(box[f - 1] for f in sigma))
        for t in itertools.product(*(range(b + 1) for b in box)):
            i, j, k = (t[f - 1] for f in sigma)
            assert HY[i][j][k] == H[t[0]][t[1]][t[2]]
        assert multiplicity_tensor(Y) == M.permuted(sigma)


def test_generator_scan_permutes_with_families():
    # non-ACM inputs, off staircases: the kernels of every front order
    rng = random.Random(31)
    box = (2, 2, 2)
    checked = 0
    while checked < 12:
        X = random_variety(rng, 3, 0.5)
        if is_acm(X).acm:
            continue
        checked += 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoxTooSmallWarning)
            scan = generator_degree_scan(X, box)
            for sigma in FAMILY_ORDERS:
                # new axis n is old axis sigma[n-1]
                expected = {tuple(t[f - 1] for f in sigma): c for t, c in scan.items()}
                Y = permute_families(X, sigma)
                assert generator_degree_scan(Y, box) == expected


@given(
    varieties(dmax=4),
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
)
@settings(max_examples=40, deadline=None)
def test_clipped_scan_equals_the_full_box_scan(X, pad, box):
    # pad declares unused hyperplanes; the box may be smaller than d on
    # some axes and larger on others
    X = make_variety(tuple(map(sum, zip(X.d, pad))), X.U3, X.U2, X.U1)
    for sigma in FAMILY_ORDERS:
        Y = permute_families(X, sigma)
        box_y = tuple(box[f - 1] for f in sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoxTooSmallWarning)
            scan = generator_degree_scan(Y, box_y)
        assert list(scan.items()) == list(scan_unclipped(Y, box_y).items()), (Y, box_y)


@given(
    varieties(dmax=4),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
)
@settings(max_examples=60, deadline=None)
def test_kernels_sit_on_one_node_of_each_saturated_axis(X, box):
    # The scan's copy rule rests on this: at degree s, along an axis a
    # with d_a <= s_a + 1, every kernel vector has a single a-coordinate.
    for sigma in FAMILY_ORDERS:
        Y = permute_families(X, sigma)
        memo = {}
        for s in _boxrange(box):
            saturated = [a for a in range(3) if Y.d[a] <= s[a] + 1]
            for g in _kernel3(s, Y, memo):
                for a in saturated:
                    assert len({cell[a] for cell in g}) == 1, (Y, s, a)


@st.composite
def kernel_problems(draw):
    """Value-grid sizes (one to three factors) and vanishing conditions
    on them: per factor a node, at a value node or up to three past
    them, or None for a free factor."""
    sizes = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    node = [st.none() | st.integers(1, size + 3) for size in sizes]
    conditions = draw(st.lists(st.tuples(*node), max_size=6))
    return sizes, conditions


@given(kernel_problems())
@example(((2, 3), [(None, None)]))  # one condition zeroes the whole grid
@example(((2, 2), [(1, None), (2, None)]))  # rows at value nodes cover it
@example(((3,), [(1,), (3,), (5,)]))  # no free factor, one node past
@example(((2, 2, 2), [(4, None, 1), (1, 2, None), (None, 5, 6)]))
@example(((1, 3), [(1, 2), (2, 4), (None, 1), (3, None)]))
@settings(max_examples=150, deadline=None)
def test_dense_kernel_equals_the_row_reference(problem):
    # dropping the value-node conditions first keeps the very basis of
    # the whole-grid elimination: same dicts, same order
    sizes, conditions = problem
    assert _dense_kernel(sizes, conditions) == dense_kernel_by_rows(sizes, conditions)


@given(kernel_problems())
@example(((2, 3), [(None, None)]))
@example(((3,), [(1,), (3,), (5,)]))
@example(((2, 2, 2), [(4, None, 1), (1, 2, None), (None, 5, 6)]))
@example(((1, 3), [(1, 2), (2, 4), (None, 1), (3, None)]))
@settings(max_examples=150, deadline=None)
def test_dense_dim_counts_the_basis_of_dense_kernel(problem):
    # hilbert_oracle counts an unsaturated degree by a rank, with no
    # kernel vector built
    sizes, conditions = problem
    assert _dense_dim(sizes, conditions) == len(_dense_kernel(sizes, conditions))


@st.composite
def grown_problems(draw):
    """A degree t in two or three factors and kernel vectors one step
    below it along each axis a with t_a > 0 (value nodes 1..t_a on a),
    each on one node of a or spread over the grid."""
    t = tuple(draw(st.lists(st.integers(0, 3), min_size=2, max_size=3)))
    kernels = {}
    for axis, n in enumerate(t):
        if not n:
            continue
        below = t[:axis] + (n - 1,) + t[axis + 1:]
        cell = st.tuples(*(st.integers(1, m + 1) for m in below))
        value = st.integers(1, 9) | st.integers(-9, -1)
        vectors = []
        for _ in range(draw(st.integers(0, 3))):
            g = draw(st.dictionaries(cell, value, min_size=1, max_size=5))
            if draw(st.integers(0, 3)):  # mostly on one node
                x = draw(st.integers(1, n))
                g = {c[:axis] + (x,) + c[axis + 1:]: v for c, v in g.items()}
            vectors.append(g)
        kernels[below] = vectors
    return t, kernels


@given(grown_problems())
@example(((2, 1), {
    (1, 1): [{(2, 1): 3, (2, 2): -1}],  # on node 2 of axis 1
    (2, 0): [{(1, 1): 1}, {(3, 1): 2}],
}))
@settings(max_examples=200, deadline=None)
def test_copy_rule_on_one_node_vectors_of_an_unsaturated_axis(problem):
    # With d past t on every axis the old rule multiplied every vector;
    # the rows of the copy rule span the same space, vector by vector.
    t, kernels = problem
    rows = _grown_rows(t, kernels)
    reference = grown_rows_by_saturation(t, kernels, tuple(n + 2 for n in t))
    rank = sparse_rank(reference)
    assert sparse_rank(rows) == rank == sparse_rank(rows + reference)
    for axis, n in enumerate(t):
        for g in kernels.get(t[:axis] + (n - 1,) + t[axis + 1:], []) if n else []:
            if len({c[axis] for c in g}) == 1:
                copy = {c[:axis] + (n + 1,) + c[axis + 1:]: v for c, v in g.items()}
                multiples = list(_multiplied_rows(g, axis, extension_coeffs(n)))
                assert sparse_rank([g, copy]) == sparse_rank([g, copy] + multiples) == 2


@st.composite
def kernel2_problems(draw):
    """_kernel2 arguments as _front_view makes them: the first side
    has d_p indices (its rows and points), the second d_q."""
    j, k = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    d_p, d_q = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    mask = st.integers(0, (1 << d_q) - 1)
    row = draw(st.integers(0, (1 << d_p) - 1))
    points = tuple(draw(st.lists(mask, min_size=d_p, max_size=d_p)))
    return (j, k), row, draw(mask), points


@given(kernel2_problems())
@example(((1, 1), 0b001, 0b00, (0b01, 0b10, 0b100)))  # P not saturated
@example(((2, 0), 0b0, 0b10, (0b1, 0b0)))  # a fibre with a node past k+1
@example(((0, 2), 0b1, 0b111, (0b0, 0b1)))  # every cell zeroed
@settings(max_examples=150, deadline=None)
def test_kernel2_equals_the_row_reference(problem):
    # both branches (the fibres of a saturated first side, and the
    # dense block) give the whole-grid basis of the same conditions
    (j, k), row, col, points = problem
    assert _kernel2((j, k), row, col, points, {}) == dense_kernel_by_rows(
        (j + 1, k + 1), conditions2(row, col, points)
    )


@given(kernel2_problems())
@example(((1, 1), 0b001, 0b00, (0b01, 0b10, 0b100)))  # P not saturated
@example(((2, 0), 0b0, 0b10, (0b1, 0b0)))  # a fibre with a node past k+1
@example(((0, 2), 0b1, 0b111, (0b0, 0b1)))  # every cell zeroed
@settings(max_examples=150, deadline=None)
def test_node_dim_counts_the_basis_of_kernel2(problem):
    # on a saturated first side the count builds no vector: it is the
    # fibre formula that _rank2 writes as a rank
    (j, k), row, col, points = problem
    dim = _node_dim((j, k), row, col, points, {})
    assert dim == len(_kernel2((j, k), row, col, points, {}))
    assert dim == (j + 1) * (k + 1) - _rank2((j, k), row, col, points, {})


@given(staircase_varieties())
@settings(max_examples=30, deadline=None)
def test_hilbert_difference_inverts_prefix_sum(X):
    box = (3, 2, 3)
    assert hilbert_difference(hilbert_function(X, box)) == delta_hilbert(X, box)


BOXES = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))


@given(raw_varieties(dmax=5), BOXES)
@example(make_variety((0, 0, 0)), (2, 0, 1))
@example(make_variety((3, 0, 2), u2={(1, 1), (3, 2)}), (0, 4, 5))
@example(make_variety((4, 4, 4), u3={(1, 1), (4, 4)}, u1={(2, 3)}), (5, 5, 5))
@example(make_variety((2, 1, 3), u3={(1, 1), (2, 1)}, u2={(2, 3)}), (7, 6, 8))
@example(make_variety((2, 2, 0), u3={(1, 2), (2, 1)}), (6, 5, 4))
@example(make_variety((0, 0, 0)), (4, 3, 5))
@settings(max_examples=80, deadline=None)
def test_oracle_equals_the_node_by_node_sum(X, box):
    # uncompacted draws, boxes smaller and larger than d on each axis,
    # so the oracle's affine fill past d meets the rank at every cell
    assert hilbert_oracle(X, box) == hilbert_oracle_by_nodes(X, box)


@given(raw_varieties(dmax=5), BOXES)
@example(make_variety((0, 0, 0)), (1, 0, 2))
@example(make_variety((3, 0, 2), u2={(1, 1), (3, 2)}), (4, 1, 3))
@settings(max_examples=60, deadline=None)
def test_dim3_counts_the_basis_of_kernel3(X, box):
    # uncompacted draws, every saturation pattern of the box
    memo = {}
    for t in _boxrange(box):
        assert _dim3(t, X, memo) == len(_kernel3(t, X, {})), (X, t)


def _redeclared(X, extra, rng):
    """Compact X re-declared with extra[f] unused hyperplanes in family
    f, its used indices an increasing subset of the new range."""
    a, b, c = (
        dict(zip(range(1, n + 1), sorted(rng.sample(range(1, n + e + 1), n))))
        for n, e in zip(X.d, extra)
    )
    return make_variety(
        tuple(map(sum, zip(X.d, extra))),
        {(a[i], b[j]) for i, j in X.U3},
        {(a[i], c[k]) for i, k in X.U2},
        {(b[j], c[k]) for j, k in X.U1},
    )


@given(
    varieties(dmax=4),
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.randoms(),
    BOXES,
)
@example(SINGLE_LINE, (2, 0, 1), random.Random(0), (3, 1, 2))
@settings(max_examples=60, deadline=None)
def test_oracle_ignores_unused_hyperplanes(X, extra, rng, box):
    assert hilbert_oracle(_redeclared(X, extra, rng), box) == hilbert_oracle(X, box)


@given(staircase_varieties(), BOXES, st.booleans())
@example(EMPTY_VARIETY, (2, 0, 3), False)
@example(FULL_BOX_432, (1, 2, 1), False)  # no minimal degree inside the box
@example(FULL_BOX_432, (5, 0, 4), True)
@settings(max_examples=80, deadline=None)
def test_delta_hilbert_equals_the_cell_by_cell_test(X, box, reverse):
    if reverse:  # a Ferrers variety that is no literal staircase
        X = relabel(X, *(tuple(range(n, 0, -1)) for n in X.d))
    # degree_sets reads X as labeled, and the literal staircase agrees
    assert degree_sets(X) == degree_sets(is_ferrers_variety(X).relabeled(X))
    assert delta_hilbert(X, box) == delta_hilbert_by_leq(X, box)


@given(raw_varieties(), st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)), st.randoms())
@example(make_variety((0, 0, 0)), (0, 0, 0), random.Random(0))
@example(make_variety((2, 0, 1), u2={(1, 1), (2, 1)}), (1, 0, 2), random.Random(1))
@settings(max_examples=100, deadline=None)
def test_compact_renumbers_only_what_needs_it(X, extra, rng):
    Y = compact_by_renumbering(X)
    assert compact(X) == Y
    assert X.is_compact() == (X == Y)
    assert compact(Y) is Y and Y.is_compact()
    # Y re-declared with unused hyperplanes: compaction gives Y back
    padded = _redeclared(Y, extra, rng)
    assert compact(padded) == compact_by_renumbering(padded) == Y
    assert padded.is_compact() == (extra == (0, 0, 0))
