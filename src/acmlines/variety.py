"""Core data type: a union of coordinate lines in (P^1)^3.

A variety is stored by three index sets, one per line direction:

* direction 3 lines run along the third factor and are cut out by a pair
  (A_i, B_j), stored in ``U3`` as ``(i, j)``;
* direction 2 lines are pairs (A_i, C_k), stored in ``U2`` as ``(i, k)``;
* direction 1 lines are pairs (B_j, C_k), stored in ``U1`` as ``(j, k)``.

Indices are 1-based. ``d = (d1, d2, d3)`` counts the hyperplanes in the
three coordinate families A, B, C. The normal form used throughout the
package ("compact") has every index in 1..d_f used by at least one line.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, filterfalse, islice
from math import prod
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .errors import (
    BadParameter,
    DuplicateLine,
    EmptyPointSet,
    OutOfBounds,
    SizeLimit,
    UnknownHyperplane,
    BadPermutation,
    UnusedHyperplane,
    UnusedHyperplaneWarning,
)

FAMILY_NAMES = ("A", "B", "C")

# Families (1=A, 2=B, 3=C) indexing the pair stored for each line direction.
DIRECTION_FAMILIES = {3: (1, 2), 2: (1, 3), 1: (2, 3)}


class HyperplaneId(NamedTuple):
    """One coordinate hyperplane, e.g. A3 = ('A', 3)."""

    family: str
    index: int

    def __str__(self) -> str:
        return f"{self.family}{self.index}"


def _is_int(x) -> bool:
    """A JSON integer; booleans are not indices."""
    return isinstance(x, int) and not isinstance(x, bool)


def _family_number(family) -> int:
    """Accept 1/2/3 or 'A'/'B'/'C' and return 1/2/3."""
    if _is_int(family) and family in (1, 2, 3):
        return family
    if family in FAMILY_NAMES:
        return FAMILY_NAMES.index(family) + 1
    raise UnknownHyperplane(f"unknown family {family!r}")


@dataclass(frozen=True)
class VarietyOfLines:
    """Immutable union of coordinate lines, normalized or not."""

    d: tuple[int, int, int]
    U3: frozenset[tuple[int, int]]
    U2: frozenset[tuple[int, int]]
    U1: frozenset[tuple[int, int]]

    def __post_init__(self):
        if min(self.d) < 0:
            raise OutOfBounds(f"negative hyperplane count in d={self.d}")
        for direction, (fam_p, fam_q) in DIRECTION_FAMILIES.items():
            bound_pair = (self.d[fam_p - 1], self.d[fam_q - 1])
            for p, q in self.u(direction):
                if not (1 <= p <= bound_pair[0] and 1 <= q <= bound_pair[1]):
                    raise OutOfBounds(
                        f"line ({p},{q}) of direction {direction} outside "
                        f"bounds {bound_pair}"
                    )

    def u(self, direction: int) -> frozenset[tuple[int, int]]:
        """The index set for one line direction."""
        return {3: self.U3, 2: self.U2, 1: self.U1}[direction]

    @property
    def line_count(self) -> int:
        return len(self.U3) + len(self.U2) + len(self.U1)

    @property
    def is_empty(self) -> bool:
        return self.line_count == 0

    def lines(self) -> frozenset[tuple[int, int, int]]:
        """All lines as (direction, p, q) triples."""
        return frozenset(
            (h, p, q) for h in (1, 2, 3) for (p, q) in self.u(h)
        )

    def used_indices(self, family) -> set[int]:
        """Indices of one family that appear in at least one line."""
        return _used_sets(self)[_family_number(family) - 1]

    def is_compact(self) -> bool:
        return _all_used(_used_sets(self), self.d)


def _used_sets(X: VarietyOfLines) -> tuple[set[int], set[int], set[int]]:
    """The used indices of families A, B, C, in one pass over the lines."""
    return (
        {p for p, _ in chain(X.U3, X.U2)},
        {q for _, q in X.U3} | {p for p, _ in X.U1},
        {q for _, q in chain(X.U2, X.U1)},
    )


def _all_used(used, d) -> bool:
    """Does each family f use d_f indices? __post_init__ keeps every
    index in 1..d_f, so the counts decide it."""
    return all(len(indices) == n for indices, n in zip(used, d))


def line_masks(X: VarietyOfLines) -> Mapping[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each direction's 0/1 slice matrix as bitmasks, (rows, cols):
    rows[p - 1] has bit q - 1 set when (p, q) is a line of the
    direction, and cols[q - 1] has bit p - 1 set. The last variety's
    build is kept (_slice_masks), so the callers that ask in turn about
    one variety, such as is_acm's routes, share one build; the mapping
    is read-only."""
    return MappingProxyType(_slice_masks(X))


@lru_cache(maxsize=1)
def _slice_masks(X: VarietyOfLines) -> dict:
    """line_masks' data. One entry only: a cache per variety would keep
    a build alive for every variety a caller holds."""
    masks = {}
    for direction, (fam_p, fam_q) in DIRECTION_FAMILIES.items():
        rows, cols = [0] * X.d[fam_p - 1], [0] * X.d[fam_q - 1]
        for p, q in X.u(direction):
            rows[p - 1] |= 1 << (q - 1)
            cols[q - 1] |= 1 << (p - 1)
        masks[direction] = tuple(rows), tuple(cols)
    return masks


def make_variety(d, u3=(), u2=(), u1=()) -> VarietyOfLines:
    """Convenience constructor from plain iterables of pairs."""
    return VarietyOfLines(
        d=tuple(d),
        U3=frozenset(tuple(p) for p in u3),
        U2=frozenset(tuple(p) for p in u2),
        U1=frozenset(tuple(p) for p in u1),
    )


EMPTY_VARIETY = make_variety((0, 0, 0))


# ---------------------------------------------------------------------------
# validation and normalization
# ---------------------------------------------------------------------------

# Unused hyperplanes named in a report; the rest are counted.
MAX_UNUSED_NAMES = 8


def validation_errors(raw: Mapping) -> list[str]:
    """All structural problems of a raw input dict, as messages.

    Unused hyperplane indices are reported too, each message starting
    "unused hyperplane": the first MAX_UNUSED_NAMES by name, then one
    count of the rest, so the report takes O(lines) whatever d declares.
    Callers decide whether they are fatal (strict) or fixable by
    compaction.
    """
    hard, _, unused = _problems(raw)
    return hard + unused


def _problems(raw):
    """validation_errors' messages split by kind: (the malformed input,
    whether any of it is a duplicate line, the unused hyperplanes)."""
    if not isinstance(raw, Mapping):
        return [f"a variety must be a JSON object, got {type(raw).__name__}"], False, []
    problems = []
    d = raw.get("d")
    if (
        not isinstance(d, (list, tuple))
        or len(d) != 3
        or not all(_is_int(x) and x >= 0 for x in d)
    ):
        return [f"d must be three non-negative integers, got {d!r}"], False, []
    duplicate = False
    used = {1: set(), 2: set(), 3: set()}
    for direction, (fam_p, fam_q) in DIRECTION_FAMILIES.items():
        key = f"U{direction}"
        bounds = (d[fam_p - 1], d[fam_q - 1])
        seen = set()
        entries = raw.get(key, ())
        if not isinstance(entries, (list, tuple)):
            problems.append(f"{key} must be a list of index pairs, got {entries!r}")
            continue
        for entry in entries:
            if not (
                isinstance(entry, (list, tuple))
                and len(entry) == 2
                and all(_is_int(x) for x in entry)
            ):
                problems.append(f"{key}: entry {entry!r} is not an index pair")
                continue
            p, q = entry
            if not (1 <= p <= bounds[0] and 1 <= q <= bounds[1]):
                problems.append(f"{key}: line ({p},{q}) outside bounds {bounds}")
                continue
            if (p, q) in seen:
                problems.append(f"{key}: duplicate line ({p},{q})")
                duplicate = True
                continue
            seen.add((p, q))
            used[fam_p].add(p)
            used[fam_q].add(q)
    names = [  # each family's search passes at most its used indices
        f"unused hyperplane {FAMILY_NAMES[f - 1]}{i}"
        for f in (1, 2, 3)
        for i in islice(
            filterfalse(used[f].__contains__, range(1, d[f - 1] + 1)),
            MAX_UNUSED_NAMES,
        )
    ][:MAX_UNUSED_NAMES]
    unused = sum(d[f - 1] - len(used[f]) for f in (1, 2, 3))
    if unused > len(names):
        names.append(f"unused hyperplanes: {unused - len(names)} more")
    return problems, duplicate, names


def check_box(box) -> tuple[int, int, int]:
    """A degree box (inclusive bounds) as three non-negative integers."""
    box = tuple(box)
    if len(box) != 3 or not all(_is_int(b) and b >= 0 for b in box):
        raise BadParameter(f"box must be three non-negative integers, got {box!r}")
    return box


# Most cells of a Hilbert table (hilbert_oracle, delta_hilbert,
# hilbert_function): a box of (b1 + 1)(b2 + 1)(b3 + 1) cells, such as
# (46, 46, 46), is refused before any work. Every box the tests, the
# benchmark and the CLI defaults use has at most 343 cells.
MAX_BOX_CELLS = 100_000


def check_table_box(box) -> tuple[int, int, int]:
    """check_box, and SizeLimit for a box of more than MAX_BOX_CELLS cells."""
    box = check_box(box)
    cells = prod(b + 1 for b in box)
    if cells > MAX_BOX_CELLS:
        raise SizeLimit(
            f"box {box} has {cells} cells, more than {MAX_BOX_CELLS}"
        )
    return box


def box_table(box, value) -> list:
    """The table T[i][j][k] = value((i, j, k)) over a degree box
    (inclusive bounds, checked by check_table_box), filled in that order."""
    bi, bj, bk = check_table_box(box)
    return [
        [[value((i, j, k)) for k in range(bk + 1)] for j in range(bj + 1)]
        for i in range(bi + 1)
    ]


def validate(raw: Mapping, strict: bool = False) -> VarietyOfLines:
    """Check a raw input dict and return a normalized variety.

    Raises OutOfBounds / DuplicateLine on malformed lines. Unused
    hyperplane indices raise UnusedHyperplane when ``strict``; otherwise
    they produce an UnusedHyperplaneWarning and the result is compacted.
    """
    hard, duplicate, unused = _problems(raw)
    if hard:
        raise (DuplicateLine if duplicate else OutOfBounds)("; ".join(hard))
    variety = make_variety(
        tuple(raw["d"]),
        raw.get("U3", ()),
        raw.get("U2", ()),
        raw.get("U1", ()),
    )
    if unused:
        if strict:
            raise UnusedHyperplane("; ".join(unused))
        warnings.warn("; ".join(unused) + " (compacting)", UnusedHyperplaneWarning)
        variety = compact(variety)
    return variety


def _renumber(X: VarietyOfLines, d, maps) -> VarietyOfLines:
    """X's lines in the box d, each family f's indices mapped by maps[f]."""

    def remap(direction):
        fam_p, fam_q = DIRECTION_FAMILIES[direction]
        return frozenset(
            (maps[fam_p][p], maps[fam_q][q]) for (p, q) in X.u(direction)
        )

    return VarietyOfLines(d=d, U3=remap(3), U2=remap(2), U1=remap(1))


def compact(X: VarietyOfLines) -> VarietyOfLines:
    """Renumber each family's used indices to 1..n, preserving order.

    Returns X itself when it is compact already."""
    used = _used_sets(X)
    if _all_used(used, X.d):
        return X
    maps = {
        f: {old: new for new, old in enumerate(sorted(indices), start=1)}
        for f, indices in zip((1, 2, 3), used)
    }
    return _renumber(X, tuple(map(len, used)), maps)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def direction_slice(X: VarietyOfLines, direction: int) -> VarietyOfLines:
    """The sub-variety of lines in one direction, labels preserved.

    The result keeps X's hyperplane numbering (so the three slices
    partition X's line set); it is generally not compact.
    """
    parts = {3: frozenset(), 2: frozenset(), 1: frozenset()}
    parts[direction] = X.u(direction)
    return VarietyOfLines(d=X.d, U3=parts[3], U2=parts[2], U1=parts[1])


def grid_from_points(points: Iterable[tuple[int, int, int]]) -> VarietyOfLines:
    """Union of the three coordinate lines through each point.

    Points are (i, j, k) triples of 1-based hyperplane indices. The
    result is compacted, so point sets with index gaps get renumbered.
    """
    point_set = {tuple(p) for p in points}
    if not point_set:
        raise EmptyPointSet("grid construction needs at least one point")
    for p in point_set:
        if len(p) != 3 or not all(_is_int(x) and x >= 1 for x in p):
            raise OutOfBounds(f"bad point {p!r}: need three positive integers")
    d = tuple(max(p[f] for p in point_set) for f in range(3))
    return compact(
        make_variety(
            d,
            u3={(i, j) for (i, j, k) in point_set},
            u2={(i, k) for (i, j, k) in point_set},
            u1={(j, k) for (i, j, k) in point_set},
        )
    )


def remove_hyperplane(X: VarietyOfLines, family, index: int) -> VarietyOfLines:
    """Delete all lines lying in one coordinate hyperplane, then compact."""
    f = _family_number(family)
    if not (_is_int(index) and 1 <= index <= X.d[f - 1]):
        raise UnknownHyperplane(
            f"{FAMILY_NAMES[f - 1]}{index!r} does not exist (d={X.d})"
        )

    def keep(direction):
        fam_p, fam_q = DIRECTION_FAMILIES[direction]
        return frozenset(
            (p, q)
            for (p, q) in X.u(direction)
            if not (fam_p == f and p == index) and not (fam_q == f and q == index)
        )

    return compact(
        VarietyOfLines(d=X.d, U3=keep(3), U2=keep(2), U1=keep(1))
    )


def relabel(X: VarietyOfLines, perm_a, perm_b, perm_c) -> VarietyOfLines:
    """Apply one permutation per family; perm[old-1] = new index."""
    perms = {}
    for f, perm in ((1, perm_a), (2, perm_b), (3, perm_c)):
        perm = tuple(perm)
        if sorted(perm) != list(range(1, X.d[f - 1] + 1)):
            raise BadPermutation(
                f"family {FAMILY_NAMES[f - 1]}: {perm!r} is not a "
                f"permutation of 1..{X.d[f - 1]}"
            )
        perms[f] = dict(enumerate(perm, start=1))
    return _renumber(X, X.d, perms)


@lru_cache(maxsize=None)
def family_permutation(order: tuple[int, int, int]) -> tuple:
    """The map behind permute_families(X, order), as (pick, moves).

    pick takes a per-family triple (d, a degree, a cell) to the new
    family order; moves gives, for each new direction 3, 2, 1, the old
    direction its lines come from and whether their pairs flip.
    """
    if sorted(order) != [1, 2, 3]:
        raise BadPermutation(f"{order!r} is not an order of the families 1, 2, 3")
    new_family = {old: new for new, old in enumerate(order, start=1)}
    moves = {}
    for direction, (fam_p, fam_q) in DIRECTION_FAMILIES.items():
        p_new, q_new = new_family[fam_p], new_family[fam_q]
        moves[6 - p_new - q_new] = direction, p_new > q_new
    return itemgetter(*(f - 1 for f in order)), (moves[3], moves[2], moves[1])


def permute_masks(masks: dict, order) -> dict:
    """line_masks(permute_families(X, order)) from masks = line_masks(X):
    each direction's (rows, cols) moves to its new direction, swapped
    where its pair flips."""
    moves = family_permutation(tuple(order))[1]
    return {
        new: masks[old][::-1] if flip else masks[old]
        for new, (old, flip) in zip((3, 2, 1), moves)
    }


def permute_families(X: VarietyOfLines, order) -> VarietyOfLines:
    """Rename the families: new family n is old family order[n-1].

    Line directions follow their families, each pair re-oriented so that
    its lower family comes first. The factors of P1xP1xP1 are
    interchangeable: this keeps the ACM property and permutes the axes
    of the Hilbert function the same way."""
    order = tuple(order)
    pick, moves = family_permutation(order)
    if order == (1, 2, 3):
        return X
    U3, U2, U1 = (
        frozenset((q, p) for p, q in X.u(old)) if flip else X.u(old)
        for old, flip in moves
    )
    return VarietyOfLines(d=pick(X.d), U3=U3, U2=U2, U1=U1)


# ---------------------------------------------------------------------------
# rendering and JSON
# ---------------------------------------------------------------------------

def render(X: VarietyOfLines, direction: int) -> str:
    """Dot diagram of one direction's index set, first family as rows."""
    fam_p, fam_q = DIRECTION_FAMILIES[direction]
    rows, cols = X.d[fam_p - 1], X.d[fam_q - 1]
    cells = X.u(direction)
    return "\n".join(
        " ".join("●" if (r, c) in cells else "·" for c in range(1, cols + 1))
        for r in range(1, rows + 1)
    )


def variety_to_dict(X: VarietyOfLines) -> dict:
    out = {"d": list(X.d)}
    for h in (3, 2, 1):
        out[f"U{h}"] = [list(p) for p in sorted(X.u(h))]
    return out


def variety_to_json(X: VarietyOfLines) -> str:
    return json.dumps(variety_to_dict(X))


def variety_from_json(text: str, strict: bool = False) -> VarietyOfLines:
    return validate(json.loads(text), strict=strict)


def points_from_json(text: str) -> set[tuple[int, int, int]]:
    raw = json.loads(text)
    pts = raw if isinstance(raw, list) else (
        raw.get("points") if isinstance(raw, dict) else None
    )
    if not isinstance(pts, list):
        raise EmptyPointSet('points JSON needs a "points" list')
    out = set()
    for p in pts:
        if not (
            isinstance(p, list)
            and len(p) == 3
            and all(_is_int(x) and x >= 1 for x in p)
        ):
            raise OutOfBounds(f"bad point {p!r}: need three positive integers")
        out.add(tuple(p))
    if not out:
        raise EmptyPointSet("points JSON contains no points")
    return out
