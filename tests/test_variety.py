"""Construction, validation, normalization, and serialization."""

import json

import pytest

from acmlines import (
    BadParameter,
    DuplicateLine,
    EMPTY_VARIETY,
    EmptyPointSet,
    HyperplaneId,
    OutOfBounds,
    SizeLimit,
    UnknownHyperplane,
    UnusedHyperplane,
    UnusedHyperplaneWarning,
    all_varieties,
    compact,
    direction_slice,
    grid_from_points,
    is_literal_ferrers,
    make_variety,
    multiplicity_tensor,
    permute_families,
    points_from_json,
    relabel,
    remove_hyperplane,
    render,
    resembles_ferrers,
    row_partition,
    validate,
    validation_errors,
    variety_from_json,
    variety_to_dict,
    variety_to_json,
)
from acmlines.errors import BadPermutation
from acmlines.variety import line_masks, permute_masks
from conftest import DIAGONAL_PAIR_PLUS_ONE, FULL_BOX_432, SINGLE_LINE


def test_make_variety_bounds():
    with pytest.raises(OutOfBounds):
        make_variety((1, 1, 1), u3={(2, 1)})
    with pytest.raises(OutOfBounds):
        make_variety((1, 1, 1), u1={(1, 2)})
    with pytest.raises(OutOfBounds):
        make_variety((1, 1, 1), u2={(0, 1)})


def test_line_count_and_lines():
    X = DIAGONAL_PAIR_PLUS_ONE
    assert X.line_count == 3
    lines = X.lines()
    assert (3, 1, 1) in lines  # direction, row index, column index
    assert len(lines) == 3


def test_used_indices():
    X = DIAGONAL_PAIR_PLUS_ONE
    assert X.used_indices(1) == {1, 2}
    assert X.used_indices(2) == {1, 2, 3}
    assert X.used_indices(3) == {1}


def test_raw_form_compacts_to_small_labels():
    raw = {
        "d": [2, 3, 3],
        "U3": [[1, 1], [2, 2]],
        "U2": [],
        "U1": [[3, 3]],
    }
    with pytest.warns(UnusedHyperplaneWarning):
        X = validate(raw)
    assert X == DIAGONAL_PAIR_PLUS_ONE


def test_validate_strict_rejects_unused():
    raw = {"d": [2, 1, 1], "U3": [[1, 1]], "U2": [], "U1": []}
    with pytest.raises(UnusedHyperplane):
        validate(raw, strict=True)


def test_validate_duplicate_line():
    raw = {"d": [1, 1, 1], "U3": [[1, 1], [1, 1]], "U2": [], "U1": []}
    with pytest.raises(DuplicateLine):
        validate(raw)


def test_validate_picks_the_class_from_the_kind_not_the_text():
    # the word "duplicate" in a malformed value is not a duplicate line
    for raw, message in (
        ({"d": [1, 1, 1], "U3": "duplicate"},
         "U3 must be a list of index pairs, got 'duplicate'"),
        ([["duplicate", 1]], "a variety must be a JSON object, got list"),
        ({"d": [1, 1, 1], "U3": [["duplicate", 1]]},
         "U3: entry ['duplicate', 1] is not an index pair"),
    ):
        assert validation_errors(raw)[0] == message
        with pytest.raises(OutOfBounds) as info:
            validate(raw)
        assert type(info.value) is OutOfBounds
        assert str(info.value) == message
    raw = {"d": [1, 1, 1], "U3": [[1, 1], [1, 1], [2, 1]], "U2": [[1, 1]]}
    with pytest.raises(DuplicateLine) as info:
        validate(raw)
    assert str(info.value) == "; ".join(validation_errors(raw))


def test_validation_errors_message_list():
    raw = {"d": [1, 1, 1], "U3": [[5, 1]], "U2": [], "U1": []}
    messages = validation_errors(raw)
    assert messages and any("U3" in m for m in messages)


def test_unused_hyperplanes_are_named_up_to_eight_then_counted():
    raw = {"d": [5, 5, 5], "U3": [[1, 1]], "U2": [], "U1": []}
    names = [f"{f}{i}" for f in "AB" for i in range(2, 6)]
    expected = [f"unused hyperplane {name}" for name in names]
    expected.append("unused hyperplanes: 5 more")  # C1..C5
    assert validation_errors(raw) == expected
    with pytest.raises(UnusedHyperplane) as strict:
        validate(raw, strict=True)
    assert str(strict.value) == "; ".join(expected)
    with pytest.warns(UnusedHyperplaneWarning):
        assert validate(raw).d == (1, 1, 0)


def test_compact_is_idempotent():
    raw = make_variety((3, 3, 3), u3={(1, 3), (3, 3)})
    once = compact(raw)
    assert once.d == (2, 1, 0)
    assert once.U3 == frozenset({(1, 1), (2, 1)})
    assert compact(once) == once
    assert once.is_compact()


def test_compact_returns_compact_input_as_it_is():
    for X in (EMPTY_VARIETY, FULL_BOX_432, DIAGONAL_PAIR_PLUS_ONE):
        assert compact(X) is X
    once = compact(SINGLE_LINE)
    assert once != SINGLE_LINE and compact(once) is once
    # families with no hyperplanes: compact when the others are
    no_b = make_variety((2, 0, 1), u2={(1, 1), (2, 1)})
    assert no_b.is_compact() and compact(no_b) is no_b
    padded = make_variety((3, 0, 2), u2={(1, 2), (3, 2)})
    assert not padded.is_compact()
    assert compact(padded) == no_b
    hyperplanes_only = make_variety((2, 2, 2))
    assert not hyperplanes_only.is_compact()
    assert compact(hyperplanes_only) == EMPTY_VARIETY


@pytest.mark.parametrize(
    "by_direction",
    [
        render,
        row_partition,
        resembles_ferrers,
        is_literal_ferrers,
        direction_slice,
        lambda X, h: multiplicity_tensor(X).slice_matrix(h),
    ],
    ids=[
        "render", "row_partition", "resembles_ferrers", "is_literal_ferrers",
        "direction_slice", "slice_matrix",
    ],
)
def test_functions_of_a_direction_refuse_other_values(by_direction):
    # a bool or float equal to 1..3 is not a direction either
    for direction in (0, 4, True, 2.0, "3"):
        with pytest.raises(BadParameter, match="direction must be 1, 2 or 3"):
            by_direction(DIAGONAL_PAIR_PLUS_ONE, direction)
    by_direction(DIAGONAL_PAIR_PLUS_ONE, 3)


def test_direction_slice_preserves_labels():
    X = DIAGONAL_PAIR_PLUS_ONE
    sl = direction_slice(X, 3)
    assert sl.U3 == X.U3
    assert sl.U2 == frozenset() and sl.U1 == frozenset()
    assert sl.d == X.d
    union = (
        direction_slice(X, 3).lines()
        | direction_slice(X, 2).lines()
        | direction_slice(X, 1).lines()
    )
    assert union == X.lines()


def test_remove_hyperplane():
    X = FULL_BOX_432
    Y = remove_hyperplane(X, "A", 4)
    assert Y.d[0] == 3
    assert all(i <= 3 for i, _ in Y.U3)
    with pytest.raises(UnknownHyperplane):
        remove_hyperplane(X, "C", 9)
    # booleans and floats are not indices or family numbers
    for family, index in [("A", True), ("A", 1.0), (True, 1), (1.0, 1), ("A", "1")]:
        with pytest.raises(UnknownHyperplane):
            remove_hyperplane(X, family, index)
    with pytest.raises(UnknownHyperplane):
        X.used_indices(True)
    assert remove_hyperplane(X, 1, 1) == remove_hyperplane(X, "A", 1)


def test_relabel_permutes_indices():
    X = make_variety((2, 1, 1), u3={(1, 1)})
    Y = relabel(X, (2, 1), (1,), (1,))
    assert Y.U3 == frozenset({(2, 1)})
    with pytest.raises(BadPermutation):
        relabel(X, (1, 1), (1,), (1,))
    # bool and float entries compare equal to 1 but are not indices
    Z = make_variety((1, 2, 1), u3={(1, 1), (1, 2)})
    for perm in ((True,), (1.0,)):
        with pytest.raises(BadPermutation):
            relabel(Z, perm, (2, 1), (1,))


def test_render_shape():
    text = render(SINGLE_LINE, 3)
    assert text == "●"
    grid = render(DIAGONAL_PAIR_PLUS_ONE, 3)
    rows = grid.splitlines()
    assert len(rows) == 2
    assert rows[0].split() == ["●", "·", "·"]
    assert rows[1].split() == ["·", "●", "·"]


def test_json_round_trip():
    X = FULL_BOX_432
    again = variety_from_json(variety_to_json(X))
    assert again == X
    payload = json.loads(variety_to_json(X))
    assert set(payload) == {"d", "U3", "U2", "U1"}


def test_variety_to_dict_sorted():
    d = variety_to_dict(DIAGONAL_PAIR_PLUS_ONE)
    assert d["U3"] == [[1, 1], [2, 2]]
    assert d["U1"] == [[3, 1]]


def test_malformed_payload_raises_package_error():
    with pytest.raises(OutOfBounds):
        variety_from_json("{\"d\": [1, 1]}")
    with pytest.raises(ValueError):
        variety_from_json("not json at all")


def test_validation_rejects_non_objects_nulls_and_booleans():
    assert validation_errors([1, 2, 3]) == [
        "a variety must be a JSON object, got list"
    ]
    assert validation_errors({"d": [1, 1, 1], "U3": None})[0].startswith(
        "U3 must be a list of index pairs"
    )
    assert validation_errors({"d": [1, 1, 1], "U3": [[True, True]]})[0] == (
        "U3: entry [True, True] is not an index pair"
    )
    assert validation_errors({"d": [True, 1, 1]})[0].startswith("d must be")
    for text in ("[1, 2, 3]", '{"d": [1, 1, 1], "U3": null}',
                 '{"d": [1, 1, 1], "U3": [[true, true]]}'):
        with pytest.raises(OutOfBounds):
            variety_from_json(text)
    with pytest.raises(OutOfBounds):
        points_from_json("[[true, 1, 1]]")


def test_permute_families_moves_directions():
    X = make_variety((1, 2, 3), u3={(1, 2)}, u2={(1, 3)}, u1={(2, 1)})
    assert permute_families(X, (1, 2, 3)) is X
    # new A = old C, new B = old A, new C = old B
    Y = permute_families(X, (3, 1, 2))
    assert Y.d == (3, 1, 2)
    assert Y.U3 == {(3, 1)}  # old U2 line (A1, C3), flipped
    assert Y.U2 == {(1, 2)}  # old U1 line (B2, C1), flipped
    assert Y.U1 == {(1, 2)}  # old U3 line (A1, B2)
    with pytest.raises(BadPermutation):
        permute_families(X, (1, 1, 2))
    # True and 1.0 compare equal to 1 but are not families, also once
    # the map of the order they equal is cached
    M = multiplicity_tensor(X)
    for order in ((3, 2, True), (True, 2, 3), (2, 1, 3.0), (1.0, 2, 3)):
        M.permuted(tuple(map(int, order)))
        for permute in (
            lambda: permute_families(X, order),
            lambda: permute_masks(line_masks(X), order),
            lambda: M.permuted(order),
        ):
            with pytest.raises(BadPermutation):
                permute()


def test_grid_from_points_golden():
    X = grid_from_points([(1, 1, 2), (1, 2, 2), (1, 2, 1), (2, 1, 2)])
    assert (1, 1) in X.U3 and (1, 2) in X.U3 and (2, 1) in X.U3
    assert X.line_count == len(X.U3) + len(X.U2) + len(X.U1)
    with pytest.raises(EmptyPointSet):
        grid_from_points([])


def test_points_from_json_accepts_both_shapes():
    want = {(1, 1, 1), (2, 2, 1)}
    assert points_from_json('{"points": [[1, 1, 1], [2, 2, 1]]}') == want
    assert points_from_json("[[1, 1, 1], [2, 2, 1]]") == want
    with pytest.raises(EmptyPointSet):
        points_from_json('"nope"')
    with pytest.raises(OutOfBounds):
        points_from_json("[[1, 1]]")


def test_grid_from_points_full_box_counts():
    pts = [
        (i, j, k)
        for i in range(1, 3)
        for j in range(1, 4)
        for k in range(1, 3)
    ]
    X = grid_from_points(pts)
    assert (len(X.U3), len(X.U2), len(X.U1)) == (6, 4, 6)


def test_empty_variety_properties():
    assert EMPTY_VARIETY.is_empty
    assert EMPTY_VARIETY.line_count == 0
    assert compact(EMPTY_VARIETY) == EMPTY_VARIETY


def test_hyperplane_id_str():
    assert str(HyperplaneId("A", 1)) == "A1"
    assert str(HyperplaneId("C", 12)) == "C12"


def test_all_varieties_of_a_box():
    population = list(all_varieties((1, 1, 2)))  # 5 candidate lines
    assert len(population) == 2**5 - 1
    assert all(X.is_compact() and X.d[2] <= 2 for X in population)
    assert next(all_varieties()) == make_variety((1, 1, 0), u3={(1, 1)})
    assert list(all_varieties((0, 3, 0))) == []  # no candidate line


def test_all_varieties_refuses_large_boxes_before_yielding():
    with pytest.raises(SizeLimit):
        all_varieties((2, 3, 3))  # 21 candidate lines
    with pytest.raises(BadParameter):
        all_varieties((2, -1, 2))


def test_line_masks_are_shared_and_read_only():
    X = make_variety((2, 3, 2), u3={(1, 3), (2, 1)}, u2={(2, 2)}, u1={(3, 1), (1, 2)})
    masks = line_masks(X)
    assert dict(masks) == {
        3: ((0b100, 0b001), (0b10, 0, 0b01)),
        2: ((0b00, 0b10), (0b00, 0b10)),
        1: ((0b10, 0, 0b01), (0b100, 0b001)),
    }
    # one build, shared by the callers that ask in turn about X
    assert all(line_masks(X)[h] is masks[h] for h in (3, 2, 1))
    with pytest.raises(TypeError):
        masks[3] = ((), ())
