"""Multiplicity tensor, the three hyperplane-count conditions, and the
combined verdict."""

import pytest

from acmlines import (
    BadN,
    EMPTY_VARIETY,
    criterion_hyp4_numeric,
    criterion_hyp5_numeric,
    criterion_hyp6_numeric,
    has_hyp_star,
    is_acm,
    make_variety,
    multiplicity_tensor,
)
from conftest import (
    DIAGONAL_PAIR_PLUS_ONE,
    FIVE_HYPERPLANE_EXAMPLE,
    FOUR_HYPERPLANE_EXAMPLE,
    REPAIRED_TRIPLE_POINTS,
    TWO_TRIPLE_POINTS,
    WORKED_EXAMPLES,
    first_pattern_by_product,
)


def test_tensor_two_triple_points():
    M = multiplicity_tensor(TWO_TRIPLE_POINTS)
    assert M.mu(1, 1, 1) == 3 and M.mu(2, 2, 2) == 3
    others = [
        (1, 1, 2), (1, 2, 1), (2, 1, 1),
        (1, 2, 2), (2, 1, 2), (2, 2, 1),
    ]
    assert all(M.mu(*t) == 2 for t in others)
    assert M.slice_matrix(3) == ((1, 1), (0, 1))
    assert M.slice_matrix(2) == ((1, 0), (1, 1))
    assert M.slice_matrix(1) == ((1, 1), (0, 1))


def test_tensor_repaired_example():
    M = multiplicity_tensor(REPAIRED_TRIPLE_POINTS)
    threes = [(1, 1, 1), (2, 2, 2), (2, 1, 1), (2, 1, 2)]
    twos = [(1, 2, 1), (2, 2, 1), (1, 1, 2), (1, 2, 2)]
    assert all(M.mu(*t) == 3 for t in threes)
    assert all(M.mu(*t) == 2 for t in twos)


def test_tensor_bound():
    M = multiplicity_tensor(FOUR_HYPERPLANE_EXAMPLE)
    d1, d2, d3 = FOUR_HYPERPLANE_EXAMPLE.d
    for i in range(1, d1 + 1):
        for j in range(1, d2 + 1):
            for k in range(1, d3 + 1):
                assert 0 <= M.mu(i, j, k) <= 3


def test_four_hyperplane_example_passes():
    ok, witness = has_hyp_star(FOUR_HYPERPLANE_EXAMPLE, 4)
    assert ok and witness is None
    M = multiplicity_tensor(FOUR_HYPERPLANE_EXAMPLE)
    ok, witness = criterion_hyp4_numeric(M)
    assert ok and witness is None


def test_five_hyperplane_example_passes():
    ok, witness = has_hyp_star(FIVE_HYPERPLANE_EXAMPLE, 5)
    assert ok and witness is None
    M = multiplicity_tensor(FIVE_HYPERPLANE_EXAMPLE)
    ok, witness = criterion_hyp5_numeric(M)
    assert ok and witness is None


def test_six_hyperplane_failure():
    ok, witness = has_hyp_star(TWO_TRIPLE_POINTS, 6)
    assert not ok
    assert witness is not None and len(witness) == 6
    M = multiplicity_tensor(TWO_TRIPLE_POINTS)
    ok, numeric_witness = criterion_hyp6_numeric(M)
    assert not ok and numeric_witness is not None


def test_four_cycle_failure():
    ok, witness = has_hyp_star(DIAGONAL_PAIR_PLUS_ONE, 4)
    assert not ok and len(witness) == 4
    M = multiplicity_tensor(DIAGONAL_PAIR_PLUS_ONE)
    ok, _ = criterion_hyp4_numeric(M)
    assert not ok


def test_large_n_is_vacuous():
    for X in (TWO_TRIPLE_POINTS, DIAGONAL_PAIR_PLUS_ONE):
        for n in (7, 8, 9, 12):
            assert has_hyp_star(X, n) == (True, None)


@pytest.mark.parametrize("X", WORKED_EXAMPLES)
def test_pattern_witnesses_match_product_search(X):
    for n in (4, 5, 6):
        witness = first_pattern_by_product(X, n)
        assert has_hyp_star(X, n) == (witness is None, witness)


def test_bad_n_below_four():
    with pytest.raises(BadN):
        has_hyp_star(TWO_TRIPLE_POINTS, 3)
    with pytest.raises(BadN):
        has_hyp_star(TWO_TRIPLE_POINTS, 0)


def test_verdict_shape():
    v = is_acm(TWO_TRIPLE_POINTS)
    payload = v.to_dict()
    assert payload["acm"] is False
    assert set(payload["routes"]) == {"chordal", "hyp", "numeric"}
    assert set(payload["routes"]["hyp"]) == {"4", "5", "6"}
    assert payload["witness"] is not None
    assert payload["routes"]["hyp"]["6"] is False


def test_verdict_routes_consistent():
    for X in (
        TWO_TRIPLE_POINTS,
        REPAIRED_TRIPLE_POINTS,
        DIAGONAL_PAIR_PLUS_ONE,
        FOUR_HYPERPLANE_EXAMPLE,
        FIVE_HYPERPLANE_EXAMPLE,
    ):
        v = is_acm(X)
        assert v.acm == v.chordal
        assert v.acm == all(v.hyp.values())
        assert v.acm == all(v.numeric.values())
        assert v.hyp == v.numeric


def test_empty_variety_is_acm():
    v = is_acm(EMPTY_VARIETY)
    assert v.acm and v.cycle_witness is None


def test_single_direction_rectangle_is_acm():
    X = make_variety((2, 3, 1), u3={(i, j) for i in (1, 2) for j in (1, 2, 3)})
    assert is_acm(X).acm
