"""Multiplicity tensor, the three hyperplane-count conditions, and the
combined verdict."""

import random
import time

import pytest

from acmlines import (
    BadN,
    EMPTY_VARIETY,
    OutOfBounds,
    acm_decision,
    compact,
    criterion_hyp4_numeric,
    criterion_hyp5_numeric,
    criterion_hyp6_numeric,
    has_hyp_star,
    is_acm,
    make_variety,
    multiplicity_tensor,
)
from acmlines.criteria import _NUMERIC_CRITERIA
from acmlines.sampling import random_ferrers_variety, random_variety
from conftest import (
    DIAGONAL_PAIR_PLUS_ONE,
    FIVE_HYPERPLANE_EXAMPLE,
    FOUR_HYPERPLANE_EXAMPLE,
    REPAIRED_TRIPLE_POINTS,
    TWO_TRIPLE_POINTS,
    WORKED_EXAMPLES,
    ferrers_with_d,
    first_pattern_by_backtracking,
    first_pattern_by_product,
    numeric_by_mu,
    scattered,
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


def test_tensor_refuses_points_outside_d():
    # a negative index used to alias the last row, and an index past d
    # used to read a shifted bit, a negative shift or a missing row
    M = multiplicity_tensor(
        make_variety((2, 2, 2), u3={(2, 2)}, u2={(2, 1)}, u1={(2, 1)})
    )
    assert M.mu(2, 2, 1) == 3
    for point in ((0, 2, 1), (2, 2, 5), (2, 2, 0), (3, 1, 1)):
        with pytest.raises(OutOfBounds):
            M.mu(*point)


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


@pytest.mark.parametrize(
    "seed, d", [(1, (5, 5, 5)), (2, (6, 5, 7)), (3, (7, 7, 6)), (4, (8, 8, 8))]
)
def test_pattern_witnesses_match_product_search_on_staircases(seed, d):
    # An ACM Ferrers variety with hyperplane counts exactly d: no pattern
    # exists, so both searches run over the whole box at every length.
    X = ferrers_with_d(random.Random(seed), d)
    assert X.is_compact()
    for n in (4, 5, 6):
        witness = first_pattern_by_product(X, n)
        assert has_hyp_star(X, n) == (witness is None, witness)


def test_pattern_witnesses_match_product_search_on_padded_varieties():
    # Route 2 tries only used labels; every pattern position needs a
    # line, so its first witness is the one the search over all labels finds.
    rng = random.Random(15)
    for _ in range(40):
        X = scattered(rng, compact(random_variety(rng, 3, 0.5)), 1, shuffle=False)
        for n in (4, 5, 6):
            witness = first_pattern_by_product(X, n)
            assert has_hyp_star(X, n) == (witness is None, witness), X


def _assert_same_patterns_as_backtracking(X):
    for n in (4, 5, 6):
        witness = first_pattern_by_backtracking(X, n)
        assert has_hyp_star(X, n) == (witness is None, witness), (X, n)


def test_pattern_search_matches_backtracking_on_every_small_variety(small_population):
    for X in small_population:
        _assert_same_patterns_as_backtracking(X)


@pytest.mark.parametrize("d", [(6, 6, 6), (8, 8, 8), (10, 12, 12)])
def test_pattern_search_matches_backtracking_on_staircases(d):
    # ACM input: no pattern, so forward checking prunes a search that
    # must run to exhaustion at every length
    rng = random.Random(sum(d))
    for _ in range(10):
        X = ferrers_with_d(rng, d)
        _assert_same_patterns_as_backtracking(X)
        assert all(has_hyp_star(X, n) == (True, None) for n in (4, 5, 6))


@pytest.mark.parametrize("dmax", [8, 12])
def test_pattern_search_matches_backtracking_on_random_varieties(dmax):
    rng = random.Random(dmax)
    for _ in range(60):
        _assert_same_patterns_as_backtracking(random_variety(rng, dmax, rng.choice((0.2, 0.5))))
        _assert_same_patterns_as_backtracking(random_ferrers_variety(rng, dmax))


def test_pattern_search_matches_backtracking_on_padded_varieties():
    # unused labels are in no domain, wherever they sit among the used ones
    rng = random.Random(23)
    for _ in range(60):
        X = compact(random_variety(rng, 5, 0.5))
        _assert_same_patterns_as_backtracking(scattered(rng, X, 4))


def test_forward_checking_at_least_halves_the_search_time_on_staircases():
    # A ratio of two searches timed interleaved in one process holds on a
    # slow host, where a wall-clock budget would not; it was about 0.2.
    staircases = [ferrers_with_d(random.Random(s), (10, 12, 12)) for s in range(10)]

    def seconds(search):
        started = time.perf_counter()
        for X in staircases:
            for n in (4, 5, 6):
                search(X, n)
        return time.perf_counter() - started

    forward, backtracking = [], []
    for _ in range(3):
        forward.append(seconds(has_hyp_star))
        backtracking.append(seconds(first_pattern_by_backtracking))
    assert min(forward) <= 0.5 * min(backtracking), (forward, backtracking)


def test_pattern_search_time_is_set_by_the_used_labels():
    X = make_variety((400, 1, 1), u3={(1, 1)})
    started = time.monotonic()
    assert is_acm(X).acm
    assert time.monotonic() - started < 0.3


def test_numeric_criteria_time_is_set_by_the_rows_with_lines():
    X = make_variety((1000, 1, 1), u3={(1, 1)})
    started = time.monotonic()
    assert is_acm(X).acm
    assert time.monotonic() - started < 0.3


def test_route_one_time_is_set_by_the_used_labels():
    # An unused hyperplane is a universal vertex of the complement. The
    # search moves the rising vertices up and stops once all have moved,
    # so it does not walk the empty levels the padding leaves below.
    # Both took 0.7-1.9 s each when it walked every level.
    one_line = make_variety((4000, 1, 1), u3={(1, 1)})
    six_lines = make_variety(
        (2, 4000, 4000),
        u3={(1, 1), (2, 2)}, u2={(1, 1), (2, 3)}, u1={(1, 2), (3, 3)},
    )
    started = time.monotonic()
    assert acm_decision(one_line) and is_acm(one_line).acm
    assert not acm_decision(six_lines)
    verdict = is_acm(six_lines)
    assert time.monotonic() - started < 0.6
    assert not verdict.acm
    assert [str(v) for v in verdict.cycle_witness] == ["A1", "A2", "C1", "B2"]


def test_numeric_criteria_match_mu_loops_on_every_small_variety(small_population):
    for X in small_population:
        M = multiplicity_tensor(X)
        for n, criterion in _NUMERIC_CRITERIA.items():
            assert criterion(M) == numeric_by_mu(M, n), (X, n)


def test_numeric_criteria_match_mu_loops_on_dense_random_varieties():
    # dense dmax-4 inputs: some 6-patterns there have two candidate
    # second triple points, which no 2x2x2 variety offers; a quarter of
    # them also re-declared with unused hyperplanes, rows with no line
    rng = random.Random(4)
    draws = [random_variety(rng, 4, 0.6) for _ in range(400)]
    draws += [scattered(rng, X, 2) for X in draws[:100]]
    for X in draws:
        M = multiplicity_tensor(X)
        for n, criterion in _NUMERIC_CRITERIA.items():
            assert criterion(M) == numeric_by_mu(M, n), (M, n)


def test_bad_n_below_four():
    with pytest.raises(BadN):
        has_hyp_star(TWO_TRIPLE_POINTS, 3)
    with pytest.raises(BadN):
        has_hyp_star(TWO_TRIPLE_POINTS, 0)


@pytest.mark.parametrize("n", [4.5, 5.0, "5", None, True, False])
def test_bad_n_that_is_no_integer_is_refused(n):
    # 4.5 used to pass as (True, None), 5.0 to run as 5, and "5" and
    # None to raise TypeError
    with pytest.raises(BadN):
        has_hyp_star(TWO_TRIPLE_POINTS, n)


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


def test_acm_decision_matches_is_acm_on_every_small_variety(route_verdicts):
    verdicts, disagreements = route_verdicts
    assert not disagreements
    assert len(verdicts) == 4095
    for X, verdict in verdicts:
        assert acm_decision(X) == verdict.acm, X
