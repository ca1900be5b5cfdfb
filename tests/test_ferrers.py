"""Staircase detection, generator degrees, Hilbert functions, complete
intersections, and the companion construction."""

import itertools
import random

import pytest

from acmlines import (
    EMPTY_VARIETY,
    NotAcm,
    NotFerrers,
    degree_sets,
    delta_hilbert,
    detect_complete_intersection,
    ferrers_companion,
    grid_resolution,
    hilbert_function,
    hilbert_oracle,
    is_ferrers_variety,
    is_literal_ferrers,
    make_variety,
    minimal_generators,
    points_generator_degrees,
    relabel,
    resembles_ferrers,
    row_partition,
)
from acmlines.ferrers import _staircase
from conftest import (
    CI_EXAMPLE,
    CORNER,
    DIAGONAL_PAIR_PLUS_ONE,
    FIFTEEN_LINES,
    FULL_BOX_432,
    REPAIRED_TRIPLE_POINTS,
    SINGLE_LINE,
    SKEW_CORNER,
    TWO_TRIPLE_POINTS,
    assert_ferrers_checks_match_the_row_sets,
    complete_intersection_by_rectangles,
    corner_degrees_by_descents,
    delta_hilbert_by_leq,
    grid_hilbert_by_formula,
    minimal_degrees_by_product,
    scattered,
    staircase_by_compaction,
)


def test_fifteen_lines_resemblance():
    ok, parts = resembles_ferrers(FIFTEEN_LINES, 3)
    assert ok and parts == (5, 4, 3, 1)
    ok, _ = resembles_ferrers(FIFTEEN_LINES, 2)
    assert ok  # empty slice
    ok, _ = resembles_ferrers(FIFTEEN_LINES, 1)
    assert not ok


def test_literal_staircase_detection():
    stair = make_variety((2, 2, 0), u3={(1, 1), (1, 2), (2, 1)})
    assert is_literal_ferrers(stair, 3)
    assert not is_literal_ferrers(DIAGONAL_PAIR_PLUS_ONE, 3)
    assert row_partition(stair, 3) == (2, 1)


def test_full_box_is_ferrers_variety():
    check = is_ferrers_variety(FULL_BOX_432)
    assert check.ok


def test_repaired_example_is_not_ferrers_variety():
    # ACM, yet no relabeling makes all three diagrams staircases at once.
    assert not is_ferrers_variety(REPAIRED_TRIPLE_POINTS).ok
    with pytest.raises(NotFerrers):
        degree_sets(REPAIRED_TRIPLE_POINTS)


def test_not_ferrers_message_gives_d_and_the_line_count():
    # the message does not grow with the lines
    expected = "not a Ferrers variety: d=(2, 2, 2), 10 lines"
    with pytest.raises(NotFerrers) as degrees:
        degree_sets(REPAIRED_TRIPLE_POINTS)
    with pytest.raises(NotFerrers) as generators:
        minimal_generators(REPAIRED_TRIPLE_POINTS)
    assert str(degrees.value) == str(generators.value) == expected


def test_relabeled_staircase_recognized():
    stair = make_variety(
        (2, 2, 1),
        u3={(1, 1), (1, 2), (2, 1)},
        u2={(1, 1), (2, 1)},
        u1={(1, 1), (2, 1)},
    )
    shuffled = relabel(stair, (2, 1), (2, 1), (1,))
    check = is_ferrers_variety(shuffled)
    assert check.ok
    fixed = check.relabeled(shuffled)
    for h in (3, 2, 1):
        assert is_literal_ferrers(fixed, h)


def test_corner_degrees_frozen_values():
    # Frozen from the generator-degree scan of one-direction varieties.
    assert points_generator_degrees((5, 4, 3, 1)) == {
        (0, 5), (1, 4), (2, 3), (3, 1), (4, 0),
    }
    assert points_generator_degrees((3, 3, 3)) == {(0, 3), (3, 0)}
    assert points_generator_degrees((2, 1)) == {(0, 2), (1, 1), (2, 0)}
    assert points_generator_degrees((1,)) == {(0, 1), (1, 0)}
    assert points_generator_degrees(()) == {(0, 0)}
    for parts in ((1, 2), (True,), (2, True), (1.5,), ("a",), (0,), (2, -1)):
        with pytest.raises(ValueError):
            points_generator_degrees(parts)


def test_degree_sets_full_box():
    ds = degree_sets(FULL_BOX_432)
    assert set(ds.minimal) == {(4, 3, 0), (4, 0, 2), (0, 3, 2)}


def test_corner_degrees_equal_the_descents_on_every_partition_up_to_five():
    partitions = [
        tuple(sorted(parts, reverse=True))
        for rows in range(6)
        for parts in itertools.combinations_with_replacement(range(1, 6), rows)
    ]
    assert len(partitions) == 252
    for p in partitions:
        assert points_generator_degrees(p) == corner_degrees_by_descents(p), p


def test_degree_rule_equals_the_corner_product_on_every_small_ferrers_variety(
    small_population,
):
    # also each staircase against the compacted build it replaced, and the
    # companion against the staircase of the same partitions
    ferrers = 0
    for X in small_population:
        parts = tuple(row_partition(X, h) for h in (3, 2, 1))
        assert _staircase(*parts) == staircase_by_compaction(X.d, *parts), X
        if not is_ferrers_variety(X).ok:
            continue
        ferrers += 1
        assert degree_sets(X).minimal == minimal_degrees_by_product(X), X
        assert delta_hilbert(X, (3, 2, 3)) == delta_hilbert_by_leq(X, (3, 2, 3)), X
        assert ferrers_companion(X) == _staircase(*parts), X
    assert ferrers == 1179


def test_minimal_generators_full_box():
    gens = minimal_generators(FULL_BOX_432)
    table = dict(zip(gens.degrees, gens.products))
    assert table[(4, 3, 0)] == "A1*A2*A3*A4*B1*B2*B3"
    assert table[(4, 0, 2)] == "A1*A2*A3*A4*C1*C2"
    assert table[(0, 3, 2)] == "B1*B2*B3*C1*C2"
    assert gens.relabeling is None


def test_minimal_generators_antichain():
    gens = minimal_generators(FULL_BOX_432)
    for a in gens.degrees:
        for b in gens.degrees:
            if a != b:
                assert not all(x <= y for x, y in zip(a, b))


def test_minimal_generators_single_line():
    gens = minimal_generators(SINGLE_LINE)
    assert set(gens.degrees) == {(1, 0, 0), (0, 1, 0)}
    assert set(gens.products) == {"A1", "B1"}


def test_delta_hilbert_single_line():
    delta = delta_hilbert(SINGLE_LINE, (2, 2, 2))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                expected = 1 if (i == 0 and j == 0) else 0
                assert delta[i][j][k] == expected


def test_hilbert_function_single_line():
    H = hilbert_function(SINGLE_LINE, (3, 3, 3))
    assert H[1][1][1] == 2
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert H[i][j][k] == k + 1


def test_hilbert_function_empty():
    H = hilbert_function(EMPTY_VARIETY, (2, 2, 2))
    assert all(
        H[i][j][k] == 0 for i in range(3) for j in range(3) for k in range(3)
    )


def test_delta_values_and_antitonicity():
    box = (5, 4, 3)
    delta = delta_hilbert(FULL_BOX_432, box)
    for i in range(box[0] + 1):
        for j in range(box[1] + 1):
            for k in range(box[2] + 1):
                v = delta[i][j][k]
                assert v in (0, 1)
                if v == 0 and i < box[0]:
                    assert delta[i + 1][j][k] == 0
                if v == 0 and j < box[1]:
                    assert delta[i][j + 1][k] == 0
                if v == 0 and k < box[2]:
                    assert delta[i][j][k + 1] == 0


def test_ci_detection_two_directions():
    ci = detect_complete_intersection(CI_EXAMPLE)
    assert ci is not None
    assert ci.degrees == ((0, 3, 0), (4, 0, 2))
    assert ci.products == ("B1*B2*B3", "A1*A2*A3*A4*C1*C2")


def test_ci_detection_rejects_three_directions():
    assert detect_complete_intersection(FULL_BOX_432) is None


def test_ci_detection_single_line():
    ci = detect_complete_intersection(SINGLE_LINE)
    assert ci is not None
    assert ci.degrees == ((1, 0, 0), (0, 1, 0))


def test_ci_iff_two_generators():
    for X in (CI_EXAMPLE, FULL_BOX_432, SINGLE_LINE):
        ci = detect_complete_intersection(X)
        if is_ferrers_variety(X).ok:
            n = len(minimal_generators(X).degrees)
            assert (ci is not None) == (n == 2)


def _as_pair(ci):
    return None if ci is None else (ci.degrees, ci.products)


def test_ci_detection_equals_the_rectangle_rule_on_every_small_variety(
    small_population,
):
    found = [detect_complete_intersection(X) for X in small_population]
    assert [_as_pair(ci) for ci in found] == [
        complete_intersection_by_rectangles(X) for X in small_population
    ]
    assert sum(ci is not None for ci in found) == 108


def test_ci_products_use_the_labels_of_the_input(small_population):
    # The rectangle rule named the compacted labels; the two generators
    # of a relabeled or padded complete intersection keep X's own.
    rng = random.Random(16)
    cis = [X for X in small_population if complete_intersection_by_rectangles(X)]
    for X in cis + [CI_EXAMPLE]:
        for _ in range(3):
            Y = scattered(rng, X, 2)
            ci = detect_complete_intersection(Y)
            degrees, _ = complete_intersection_by_rectangles(Y)
            assert ci.degrees == degrees, Y
            gens = minimal_generators(Y)
            assert sorted(ci.products) == sorted(gens.products), Y
    line = make_variety((3, 3, 1), u3={(2, 3)})
    assert detect_complete_intersection(line).products == ("A2", "B3")
    assert complete_intersection_by_rectangles(line)[1] == ("A1", "B1")


def test_grid_resolution_hilbert_equals_the_formula_on_every_small_grid():
    for a, b, c in itertools.product(range(1, 5), repeat=3):
        res = grid_resolution(a, b, c)
        for i, j, k in itertools.product(range(7), repeat=3):
            assert res.hilbert(i, j, k) == grid_hilbert_by_formula((a, b, c), i, j, k)


def test_grid_resolution_twists():
    res = grid_resolution(2, 3, 2)
    assert res.generator_twists == ((-2, -3, 0), (-2, 0, -2), (0, -3, -2))
    assert res.syzygy_twists == ((-2, -3, -2), (-2, -3, -2))
    small = grid_resolution(1, 1, 1)
    assert small.syzygy_twists == ((-1, -1, -1), (-1, -1, -1))
    assert small.generator_twists == ((-1, -1, 0), (-1, 0, -1), (0, -1, -1))
    for sizes in [(0, 1, 1), (True, 1, 1), (1.5, 1, 1), (2, 1, "3")]:
        with pytest.raises(ValueError):
            grid_resolution(*sizes)


def test_grid_resolution_matrix_structure():
    res = grid_resolution(2, 3, 2)
    assert res.matrix_entries == (
        ("A1*A2", "A1*A2"),
        ("B1*B2*B3", "0"),
        ("0", "C1*C2"),
    )
    assert res.matrix_degrees == (
        ((2, 0, 0), (2, 0, 0)),
        ((0, 3, 0), None),
        (None, (0, 0, 2)),
    )


def test_grid_resolution_hilbert_matches_oracle():
    res = grid_resolution(4, 3, 2)
    H = hilbert_oracle(FULL_BOX_432, (5, 5, 5))
    for i in range(6):
        for j in range(6):
            for k in range(6):
                assert H[i][j][k] == res.hilbert(i, j, k)


def test_companion_of_skew_corner():
    assert ferrers_companion(SKEW_CORNER) == CORNER


def test_companion_requires_acm():
    with pytest.raises(NotAcm):
        ferrers_companion(TWO_TRIPLE_POINTS)


def test_companion_is_ferrers_and_preserves_slice_shapes():
    comp = ferrers_companion(REPAIRED_TRIPLE_POINTS)
    assert is_ferrers_variety(comp).ok
    for h in (3, 2, 1):
        src = sorted(
            (len(row) for row in _rows(REPAIRED_TRIPLE_POINTS.u(h))),
            reverse=True,
        )
        dst = sorted((len(row) for row in _rows(comp.u(h))), reverse=True)
        assert src == dst


def _rows(cells):
    rows = {}
    for p, q in cells:
        rows.setdefault(p, set()).add(q)
    return rows.values()


def test_companion_hilbert_agreement_repaired():
    comp = ferrers_companion(REPAIRED_TRIPLE_POINTS)
    assert hilbert_oracle(REPAIRED_TRIPLE_POINTS, (4, 4, 4)) == hilbert_function(
        comp, (4, 4, 4)
    )


def test_ferrers_checks_match_the_row_sets_on_every_small_variety(small_population):
    for X in small_population:
        assert_ferrers_checks_match_the_row_sets(X)
