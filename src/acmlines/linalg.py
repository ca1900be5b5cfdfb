"""Exact linear algebra over the integers.

One elimination serves every rank and kernel: a fraction-free echelon
form of sparse integer rows ({column: int} dicts), in the line of
Bareiss (1968) but with gcd content normalisation instead of exact
minor division. The pivot of a row is its smallest column; a row is
reduced against the stored pivot row of that column as a*row - b*pivot
(a and b the two leading entries over their gcd), and a row is stored,
with its content divided out, once its leading column is new. No
floating point and no fractions.
"""

from __future__ import annotations

from math import comb, gcd


def _echelon(rows, limit=None) -> dict:
    """Echelon form of sparse integer rows: {pivot column: primitive row},
    each stored row having its pivot as its smallest column. The input
    rows are not modified.

    A unit row, one entry whose column is not yet a pivot, is stored as
    +-1 there with no elimination: that is the primitive row the general
    path would store.

    With a positive limit, returns as soon as it holds that many pivots
    (the rows after that are not read), so the pivot count is
    min(rank, limit).
    """
    pivots: dict = {}
    for raw in rows:
        if len(raw) == 1:
            (c, v), = raw.items()
            if c not in pivots:
                if v:
                    pivots[c] = {c: 1 if v > 0 else -1}
                    if len(pivots) == limit:
                        return pivots
                continue
        row = {c: v for c, v in raw.items() if v}
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                g = gcd(*row.values())
                pivots[c] = {k: v // g for k, v in row.items()}
                if len(pivots) == limit:
                    return pivots
                break
            g = gcd(row[c], pivot[c])
            a, b = pivot[c] // g, row[c] // g
            if a != 1:
                row = {k: a * v for k, v in row.items()}
            for k, v in pivot.items():
                nv = row.get(k, 0) - b * v
                if nv:
                    row[k] = nv
                else:
                    del row[k]
    return pivots


def sparse_rank(rows, limit=None) -> int:
    """Rank of a collection of sparse vectors given as {column: value} dicts.

    Columns may be any mutually comparable hashable keys. With a positive
    limit, returns min(rank, limit) and stops eliminating once it is
    reached.
    """
    return len(_echelon(rows, limit))


def bareiss_rank(rows) -> int:
    """Rank of an integer matrix given as a list of rows."""
    return len(_echelon(dict(enumerate(r)) for r in rows))


def extension_coeffs(n: int) -> list[int]:
    """Integer c_x with p(n+1) = sum_x c_x p(x) for deg p < n, nodes 1..n.

    These are signed binomials coming from the vanishing n-th finite
    difference of a polynomial of degree below n.
    """
    return [(-1) ** (n - x) * comb(n, x - 1) for x in range(1, n + 1)]


def nullspace(rows, ncols: int) -> list[list[int]]:
    """Basis of the right kernel of an integer matrix, as integer vectors.

    One vector per free (non-pivot) column, in column order: the
    primitive kernel vector that is positive at its free column and zero
    at every other free column, found by back-substitution from the
    echelon form. Each step scales the vector by no more than its new
    entry needs, which keeps it primitive.
    """
    pivots = _echelon(dict(enumerate(r)) for r in rows)
    descending = sorted(pivots, reverse=True)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = {free: 1}
        for p in descending:
            row = pivots[p]
            s = sum(v * vec[k] for k, v in row.items() if k in vec)
            if s:
                scale = abs(row[p]) // gcd(row[p], s)
                if scale != 1:
                    vec = {k: scale * v for k, v in vec.items()}
                vec[p] = -s * scale // row[p]
        basis.append([vec.get(c, 0) for c in range(ncols)])
    return basis
