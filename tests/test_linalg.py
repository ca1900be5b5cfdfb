"""The exact elimination kernel: ranks and kernel bases of small integer
matrices, checked against properties that do not depend on how the
elimination runs."""

import copy
from math import gcd

from hypothesis import example, given, settings, strategies as st

from acmlines.linalg import _echelon, bareiss_rank, nullspace, sparse_rank
from conftest import echelon_by_elimination

entries = st.one_of(st.integers(-3, 3), st.integers(-(10**30), 10**30))


@st.composite
def matrices(draw):
    """(rows, ncols): up to 6x6, with zero rows, repeated rows and
    entries up to 10^30 mixed in."""
    ncols = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "repeat")))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append(draw(st.lists(entries, min_size=ncols, max_size=ncols)))
    return rows, ncols


def free_columns(rows, ncols):
    """Columns that do not raise the rank of the columns left of them."""
    return [
        c
        for c in range(ncols)
        if bareiss_rank([r[: c + 1] for r in rows]) == bareiss_rank([r[:c] for r in rows])
    ]


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_kernel_basis_and_rank(matrix):
    rows, ncols = matrix
    rank = bareiss_rank(rows)
    basis = nullspace(rows, ncols)
    for vec in basis:
        assert all(sum(a * v for a, v in zip(row, vec)) == 0 for row in rows)
    assert rank + len(basis) == ncols
    transpose = [list(col) for col in zip(*rows)] if rows else []
    assert bareiss_rank(transpose) == rank
    free = free_columns(rows, ncols)
    assert len(free) == len(basis)
    for f, vec in zip(free, basis):
        assert gcd(*vec) == 1
        assert vec[f] > 0
        assert all(vec[g] == 0 for g in free if g != f)


@given(matrices(), st.data())
@settings(max_examples=200, deadline=None)
def test_sparse_rank_ignores_column_labels(matrix, data):
    rows, ncols = matrix
    perm = data.draw(st.permutations(range(ncols)))
    sparse = [{perm[c]: v for c, v in enumerate(row)} for row in rows]
    assert sparse_rank(sparse) == bareiss_rank(rows)


@given(matrices(), st.data())
@settings(max_examples=200, deadline=None)
def test_sparse_rank_limit_caps_the_rank(matrix, data):
    rows, ncols = matrix
    perm = data.draw(st.permutations(range(ncols)))
    sparse = [{perm[c]: v for c, v in enumerate(row)} for row in rows]
    before = copy.deepcopy(sparse)
    rank = sparse_rank(sparse)
    assert sparse_rank(sparse, None) == rank == bareiss_rank(rows)
    for limit in range(1, len(rows) + 2):
        assert sparse_rank(sparse, limit) == min(rank, limit)
    assert sparse == before


def test_sparse_rank_reads_no_row_past_the_limit():
    rows = [{0: 1}, {0: 2}, {1: 1}, {2: 1}]
    read = []

    def tracked():
        for row in rows:
            read.append(row)
            yield row

    assert sparse_rank(tracked(), 2) == 2
    assert read == rows[:3]


def test_back_substitution_through_non_unit_pivots():
    # pivots 2 and 3: the free column must be scaled by 6
    assert nullspace([[2, 0, 1], [0, 3, 1]], 3) == [[-3, -2, 6]]
    assert nullspace([[4, 6]], 2) == [[-3, 2]]


@st.composite
def sparse_rows(draw):
    """Sparse rows over up to 6 columns: unit rows, rows with zero
    entries (a one-entry row may hold a zero), empty rows, and repeats
    of earlier rows, both as equal copies and as the same dict object."""
    column = st.integers(0, 5)
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(("unit", "unit", "sparse", "repeat", "shared")))
        if kind in ("repeat", "shared") and rows:
            row = draw(st.sampled_from(rows))
            rows.append(row if kind == "shared" else dict(row))
        elif kind == "unit":
            rows.append({draw(column): draw(entries)})
        else:
            rows.append(draw(st.dictionaries(column, entries, max_size=6)))
    return rows


@given(sparse_rows(), st.integers(0, 8))
@example([{0: 0}, {0: 2}, {0: -3}, {1: -4, 0: 0}], 0)
@example([{2: 5}, {1: 3, 2: 1}, {2: -7}, {1: 1}], 3)
@settings(max_examples=300, deadline=None)
def test_echelon_equals_the_elimination_reference(rows, limit):
    # the unit-row path stores the very row the elimination stores
    limit = limit or None
    assert _echelon(rows) == echelon_by_elimination(rows)
    assert _echelon(rows, limit) == echelon_by_elimination(rows, limit)


@given(sparse_rows(), st.integers(0, 8))
@settings(max_examples=200, deadline=None)
def test_echelon_leaves_its_input_rows_unmodified(rows, limit):
    # rows may share dict objects (the generator scan passes memoised
    # kernel vectors on as rows); none is written to
    before = copy.deepcopy(rows)
    pivots = _echelon(rows, limit or None)
    assert rows == before
    assert all(p is not row for p in pivots.values() for row in rows)
