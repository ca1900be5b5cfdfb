"""The exact elimination kernel: ranks and kernel bases of small integer
matrices, checked against properties that do not depend on how the
elimination runs."""

import copy
from math import gcd

from hypothesis import given, settings, strategies as st

from acmlines.linalg import bareiss_rank, nullspace, sparse_rank

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
