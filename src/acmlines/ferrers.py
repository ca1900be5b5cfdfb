"""Ferrers varieties: detection, generators, and Hilbert functions.

A direction's index set "resembles" a Ferrers diagram when its rows can
be relabeled into a left-justified staircase; equivalently, the row
sets form a chain under inclusion. A Ferrers variety is one where a
single relabeling (one permutation per hyperplane family) makes all
three index sets literal staircases at once. For those, generator
degrees and the Hilbert function have closed combinatorial forms.

Detection reads the diagrams as the bit rows of variety.line_masks:
inclusion of rows is a & b == b, and a row's size is its bit count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import prod
from operator import add, sub

from .criteria import acm_decision
from .criteria import is_acm  # noqa: F401  perfbench/selftest.py traces this binding
from .errors import NotAcm, NotFerrers
from .variety import (
    DIRECTION_FAMILIES,
    FAMILY_NAMES,
    VarietyOfLines,
    _is_int,
    check_table_box,
    line_masks,
    make_variety,
    relabel,
)


# ---------------------------------------------------------------------------
# resemblance and detection
# ---------------------------------------------------------------------------

def _is_chain(rows) -> bool:
    """Do the bit rows form a chain under inclusion? Sorted by size,
    each row must hold the next: two distinct rows of one size fail."""
    ordered = sorted(set(rows), key=int.bit_count, reverse=True)
    return all(a & b == b for a, b in zip(ordered, ordered[1:]))


def _partition(rows) -> tuple[int, ...]:
    """Nonzero bit-row sizes, sorted decreasing."""
    return tuple(sorted((r.bit_count() for r in rows if r), reverse=True))


def row_partition(X: VarietyOfLines, direction: int) -> tuple[int, ...]:
    """Nonzero row sizes of one direction's diagram, sorted decreasing."""
    return _partition(line_masks(X)[direction][0])


def resembles_ferrers(X: VarietyOfLines, direction: int):
    """(bool, partition): can one direction's rows be nested by relabeling.

    True iff the row sets form a chain under inclusion, which happens
    iff row and column permutations turn the diagram into a staircase.
    The partition of nonzero row sizes is returned either way.
    """
    rows = line_masks(X)[direction][0]
    return _is_chain(rows), _partition(rows)


def is_literal_ferrers(X: VarietyOfLines, direction: int) -> bool:
    """Is the diagram a left-justified staircase as labeled: each bit row
    a prefix (r & (r + 1) == 0) that lies inside the row above it."""
    rows = line_masks(X)[direction][0]
    return all(r & (r + 1) == 0 for r in rows) and all(
        above & r == r for above, r in zip(rows, rows[1:])
    )


@dataclass(frozen=True)
class FerrersCheck:
    ok: bool
    perms: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]] | None

    def relabeled(self, X: VarietyOfLines) -> VarietyOfLines:
        if not self.ok:
            raise NotFerrers("no consistent relabeling exists")
        return relabel(X, *self.perms)


def is_ferrers_variety(X: VarietyOfLines) -> FerrersCheck:
    """Test for one relabeling making all three diagrams staircases.

    Each family indexes rows of two diagrams; a consistent order exists
    iff its pairs of row sets form a chain in the product order. The
    returned permutations map old labels to new ones (largest profile
    first) and simultaneously left-justify all three diagrams.
    """
    masks = line_masks(X)
    perms = []
    for f in (1, 2, 3):
        # f's two diagrams, in direction order: a direction's rows where
        # f is the first family of its pair, its columns where the second
        first, second = (
            masks[h][families.index(f)]
            for h, families in DIRECTION_FAMILIES.items() if f in families
        )
        indexed = sorted(
            zip(first, second, range(1, X.d[f - 1] + 1)),
            key=lambda t: (-t[0].bit_count(), -t[1].bit_count(), t[2]),
        )
        for (a1, a2, _), (b1, b2, _) in zip(indexed, indexed[1:]):
            if a1 & b1 != b1 or a2 & b2 != b2:
                return FerrersCheck(ok=False, perms=None)
        perm = [0] * X.d[f - 1]
        for new, (_, _, old) in enumerate(indexed, start=1):
            perm[old - 1] = new
        perms.append(tuple(perm))
    return FerrersCheck(ok=True, perms=tuple(perms))


def _ferrers_check(X: VarietyOfLines) -> FerrersCheck:
    """is_ferrers_variety(X), raising NotFerrers when X is not Ferrers."""
    check = is_ferrers_variety(X)
    if not check.ok:
        raise NotFerrers(f"not a Ferrers variety: d={X.d}, {X.line_count} lines")
    return check


# ---------------------------------------------------------------------------
# generator degrees
# ---------------------------------------------------------------------------

def _partitions(X: VarietyOfLines):
    """X's row partitions p3 (A x B), p2 (A x C) and p1 (B x C)."""
    masks = line_masks(X)
    return tuple(_partition(masks[h][0]) for h in (3, 2, 1))


def _padded(p, n) -> tuple[int, ...]:
    """The partition p read as n rows: rows past its end are 0."""
    return tuple(p) + (0,) * (n - len(p))


def _staircase_d(p3, p2, p1) -> tuple[int, int, int]:
    """The least box holding the staircase with row partitions p3, p2, p1:
    (max(|p3|, |p2|), max(p3_1, |p1|), max(p2_1, p1_1))."""
    p3_1, p2_1, p1_1 = (_padded(p, 1)[0] for p in (p3, p2, p1))
    return max(len(p3), len(p2)), max(p3_1, len(p1)), max(p2_1, p1_1)


def _minimal_degrees(p3, p2, p1) -> list[tuple[int, int, int]]:
    """Minimal generator degrees of the staircase with row partitions
    p3, p2, p1, in increasing order.

    Index rows from 0 and read a row past a partition's end as 0. The
    product of the first a A-, b B- and c C-forms vanishes on the lines
    of direction 3 iff every row past a has at most b cells, that is
    b >= p3[a]; likewise c >= p2[a] and c >= p1[b]. Call this up-set U.
    A point of an up-set is minimal iff none of its three predecessors
    lies in it. Given (a, b) with b >= p3[a], the least c in U is
    c = max(p2[a], p1[b]), and (a, b, c) is minimal unless its
    a-predecessor lies in U (a > 0, p3[a-1] <= b and p2[a-1] <= c) or
    its b-predecessor does (b > p3[a] and p1[b-1] <= c). For
    a > max(|p3|, |p2|), rows a - 1 and a of p3 and p2 are 0, so the
    a-predecessor lies in U; for b > max(p3_1, |p1|), b > p3[a] and
    p1[b-1] = 0, so the b-predecessor does. So the walk stops at those
    bounds. U is the intersection of the three directions' up-sets, each
    generated by its corners, so these are also the minimal elements of
    the componentwise maxima of one corner per direction.
    """
    da, db, _ = _staircase_d(p3, p2, p1)
    p3, p2, p1 = _padded(p3, da + 1), _padded(p2, da + 1), _padded(p1, db + 1)
    out = []
    for a in range(da + 1):
        for b in range(p3[a], db + 1):
            c = max(p2[a], p1[b])
            if a and p3[a - 1] <= b and p2[a - 1] <= c:
                continue
            if b > p3[a] and p1[b - 1] <= c:
                continue
            out.append((a, b, c))
    return out


def points_generator_degrees(partition) -> set[tuple[int, int]]:
    """Degrees of the minimal generators of a staircase of points in a
    product of two projective lines.

    The staircase with rows ``partition`` (weakly decreasing) has one
    generator per outer corner: (0, p_1), (r, 0), and (i, p_{i+1}) at
    every strict descent. These are _minimal_degrees with one direction.
    The empty partition yields the unit ideal's single generator in
    degree (0, 0).
    """
    p = tuple(partition)
    if any(a < b for a, b in zip(p, p[1:])) or any(a <= 0 for a in p):
        raise ValueError(f"not a partition: {partition!r}")
    return {(a, b) for a, b, _ in _minimal_degrees(p, (), ())}


@dataclass(frozen=True)
class DegreeSets:
    minimal: frozenset  # minimal generator degrees


def degree_sets(X: VarietyOfLines) -> DegreeSets:
    """The minimal generator degrees of a Ferrers variety.

    Row partitions do not depend on labels, so they are read off X as
    it is labeled.
    """
    _ferrers_check(X)
    return DegreeSets(minimal=frozenset(_minimal_degrees(*_partitions(X))))


@dataclass(frozen=True)
class GeneratorSet:
    degrees: tuple[tuple[int, int, int], ...]
    products: tuple[str, ...]
    relabeling: tuple | None  # permutations applied, if X was not literal


def _product_string(degree, inverse_prefixes) -> str:
    names = []
    for f, count in enumerate(degree, start=1):
        fam = FAMILY_NAMES[f - 1]
        names.extend(f"{fam}{i}" for i in sorted(inverse_prefixes[f][:count]))
    return "*".join(names) if names else "1"


def minimal_generators(X: VarietyOfLines) -> GeneratorSet:
    """Degrees and explicit products of the minimal generators.

    A generator of degree (a, b, c) is the product of the a largest-
    profile A-hyperplanes, b B-hyperplanes and c C-hyperplanes; original
    labels are reported even when the variety had to be relabeled.
    """
    check = _ferrers_check(X)
    degrees = tuple(_minimal_degrees(*_partitions(X)))
    # inverse_prefixes[f] = original labels ordered by new label
    inverse_prefixes = {
        f: sorted(range(1, n + 1), key=lambda old: perm[old - 1])
        for f, n, perm in zip((1, 2, 3), X.d, check.perms)
    }
    products = tuple(_product_string(deg, inverse_prefixes) for deg in degrees)
    literal = all(perm == tuple(range(1, n + 1)) for n, perm in zip(X.d, check.perms))
    return GeneratorSet(
        degrees=degrees,
        products=products,
        relabeling=None if literal else check.perms,
    )


# ---------------------------------------------------------------------------
# Hilbert function of a Ferrers variety
# ---------------------------------------------------------------------------

def delta_hilbert(X: VarietyOfLines, box) -> list:
    """0/1 array over the box: 1 exactly off the up-set U of
    _minimal_degrees, that is where j < p3[i], k < p2[i] or k < p1[j].
    Put differently, (A_{i+1}, B_{j+1}, C_{k+1}) lies on a line of the
    literal staircase. Row (i, j) is all 1 when j < p3[i], and otherwise
    1 below max(p2[i], p1[j])."""
    # a bad or oversized box is reported before a non-Ferrers X
    bi, bj, bk = check_table_box(box)
    _ferrers_check(X)
    p3, p2, p1 = _partitions(X)
    p3, p2, p1 = _padded(p3, bi + 1), _padded(p2, bi + 1), _padded(p1, bj + 1)
    size = bk + 1
    table = []
    for i in range(bi + 1):
        plane = []
        for j in range(bj + 1):
            ones = size if j < p3[i] else min(size, max(p2[i], p1[j]))
            plane.append([1] * ones + [0] * (size - ones))
        table.append(plane)
    return table


def hilbert_function(X: VarietyOfLines, box) -> list:
    """Hilbert function as the triple prefix sum of the 0/1 array,
    summed along k, then j, then i."""
    H = delta_hilbert(X, box)
    for plane in H:
        for row in plane:
            row[:] = accumulate(row)
        for row_below, row in zip(plane, plane[1:]):
            row[:] = map(add, row, row_below)
    for plane_below, plane in zip(H, H[1:]):
        for row_below, row in zip(plane_below, plane):
            row[:] = map(add, row, row_below)
    return H


def hilbert_difference(H) -> list:
    """First difference of a Hilbert table: the inverse of the triple
    prefix sum in hilbert_function, differenced along i, then j, then k."""
    D = [[list(row) for row in plane] for plane in H]
    for i in range(len(D) - 1, 0, -1):
        D[i] = [list(map(sub, row, below)) for row, below in zip(D[i], D[i - 1])]
    for plane in D:
        for j in range(len(plane) - 1, 0, -1):
            plane[j] = list(map(sub, plane[j], plane[j - 1]))
        for row in plane:
            row[1:] = map(sub, row[1:], row[:-1])
    return D


# ---------------------------------------------------------------------------
# complete intersections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompleteIntersection:
    degrees: tuple[tuple[int, int, int], tuple[int, int, int]]
    products: tuple[str, str]


def detect_complete_intersection(X: VarietyOfLines):
    """The two generators of X's ideal, or None unless there are two.

    X is a complete intersection exactly when minimal_generators(X) has
    two generators (a variety that is not Ferrers has none to read).
    They come in X's own labels, the one with fewer families first, then
    the one whose first family is lower.
    """
    try:
        gens = minimal_generators(X)
    except NotFerrers:
        return None
    if len(gens.degrees) != 2:
        return None
    pairs = sorted(
        zip(gens.degrees, gens.products),
        key=lambda pair: (sum(map(bool, pair[0])), [not n for n in pair[0]]),
    )
    return CompleteIntersection(*zip(*pairs))


# ---------------------------------------------------------------------------
# grid resolution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridResolution:
    """Minimal free resolution data of a full (a, b, c) grid of lines."""

    box: tuple[int, int, int]
    generator_twists: tuple
    syzygy_twists: tuple
    matrix_degrees: tuple  # 3 x 2 entries: degree triple or None (zero)
    matrix_entries: tuple  # 3 x 2 symbolic strings

    def hilbert(self, i: int, j: int, k: int) -> int:
        """H(i, j, k) read off the resolution: r(t) minus r(t + g) over
        the generator twists g plus r(t + s) over the syzygy twists s,
        with r(u) the dimension of the ring's degree u."""

        def r(twist):
            u = (i + twist[0], j + twist[1], k + twist[2])
            return prod(x + 1 for x in u) if min(u) >= 0 else 0

        return (
            r((0, 0, 0))
            - sum(map(r, self.generator_twists))
            + sum(map(r, self.syzygy_twists))
        )


def _all_family_product(f: int, count: int) -> str:
    fam = FAMILY_NAMES[f - 1]
    return "*".join(f"{fam}{i}" for i in range(1, count + 1))


def grid_resolution(a: int, b: int, c: int) -> GridResolution:
    """Length-one free resolution of the full a x b x c grid ideal.

    The ideal is generated by the three full-family products; one syzygy
    column pairs the A-product against the B-product, the other against
    the C-product. The 2x2 minors of the 3x2 matrix recover the three
    generators up to sign.
    """
    if not all(_is_int(n) and n >= 1 for n in (a, b, c)):
        raise ValueError("grid sizes must be positive integers")
    pa = _all_family_product(1, a)
    pb = _all_family_product(2, b)
    pc = _all_family_product(3, c)
    return GridResolution(
        box=(a, b, c),
        generator_twists=(
            (-a, -b, 0),
            (-a, 0, -c),
            (0, -b, -c),
        ),
        syzygy_twists=((-a, -b, -c), (-a, -b, -c)),
        matrix_degrees=(
            ((a, 0, 0), (a, 0, 0)),
            ((0, b, 0), None),
            (None, (0, 0, c)),
        ),
        matrix_entries=(
            (pa, pa),
            (pb, "0"),
            ("0", pc),
        ),
    )


# ---------------------------------------------------------------------------
# companion construction
# ---------------------------------------------------------------------------

def _staircase(p3, p2, p1) -> VarietyOfLines:
    """The literal staircase with row partitions p3, p2, p1 in the least
    box that holds it, so it is compact."""

    def cells(p):
        return {(r, c) for r, size in enumerate(p, start=1) for c in range(1, size + 1)}

    return make_variety(_staircase_d(p3, p2, p1), cells(p3), cells(p2), cells(p1))


def ferrers_companion(X: VarietyOfLines) -> VarietyOfLines:
    """The Ferrers variety with the same three slice partitions as X.

    Each direction's diagram is replaced by the left-justified
    staircase of its row partition, in the least box that holds them.
    Requires X to be arithmetically Cohen-Macaulay.
    """
    if not acm_decision(X):
        raise NotAcm("companion construction needs an ACM variety")
    return _staircase(*_partitions(X))
