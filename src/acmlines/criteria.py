"""Arithmetic Cohen-Macaulayness by three independent routes.

Route 1 tests chordality of the complement of the incidence graph.
Route 2 enumerates the cyclic hyperplane patterns of lengths 4, 5, 6
that are obstructions (an n-pattern exists iff the complement graph has
an induced n-cycle). Route 3 evaluates purely numeric conditions on the
multiplicity tensor of the variety. All three must agree; a
disagreement raises, because it can only mean a bug.

is_acm runs all three routes. acm_decision runs route 1 alone, on
bitmasks, for callers that need only the yes/no answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from operator import or_

from .errors import BadN, CriteriaDisagreement, OutOfBounds
from .graphs import (
    _bits,
    _complement_masks,
    _incidence_masks,
    _mcs_failure,
    build_graph,
    complement,
    is_chordal,
    is_induced_cycle,
)
from .variety import (
    FAMILY_NAMES,
    HyperplaneId,
    VarietyOfLines,
    _is_int,
    check_direction,
    family_permutation,
    line_masks,
    permute_masks,
    variety_to_json,
)


# ---------------------------------------------------------------------------
# multiplicity tensor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiplicityTensor:
    """mu(i,j,k) = number of lines of X through the point (A_i,B_j,C_k).

    Stored through the three 0/1 slice matrices as line_masks gives
    them: slices[direction] is (rows, cols), rows[p - 1] with bit q - 1
    set when entry (p, q) is 1 and cols[q - 1] with bit p - 1. mu is
    their overlay.
    """

    d: tuple[int, int, int]
    slices: dict[int, tuple[tuple[int, ...], tuple[int, ...]]]

    def mu(self, i: int, j: int, k: int) -> int:
        if not all(_is_int(n) and 1 <= n <= m for n, m in zip((i, j, k), self.d)):
            raise OutOfBounds(f"point {(i, j, k)} outside d={self.d}")
        r3, r2, r1 = _rows(self)
        i, j, k = i - 1, j - 1, k - 1
        return (r3[i] >> j & 1) + (r2[i] >> k & 1) + (r1[j] >> k & 1)

    def slice_matrix(self, direction: int) -> tuple[tuple[int, ...], ...]:
        rows, cols = self.slices[check_direction(direction)]
        return tuple(tuple(row >> q & 1 for q in range(len(cols))) for row in rows)

    def permuted(self, order) -> MultiplicityTensor:
        """The tensor of permute_families(X, order), its slices moved by
        permute_masks."""
        order = tuple(order)
        pick = family_permutation(order)[0]
        if order == (1, 2, 3):
            return self
        return MultiplicityTensor(pick(self.d), permute_masks(self.slices, order))


def multiplicity_tensor(X: VarietyOfLines) -> MultiplicityTensor:
    return MultiplicityTensor(X.d, line_masks(X))


# ---------------------------------------------------------------------------
# bitmasks
# ---------------------------------------------------------------------------

def _first(mask: int) -> int:
    """The 1-based index of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length()


# ---------------------------------------------------------------------------
# route 2: cyclic hyperplane patterns
# ---------------------------------------------------------------------------

# Family sequences (1=A, 2=B, 3=C) of the cyclic patterns that can carry
# an obstruction, one representative per dihedral class. Members of the
# same family must sit in consecutive positions; an induced cycle cannot
# hold three vertices of one family.
_PATTERN_FAMILY_SEQS = {
    4: (
        (1, 1, 2, 2),
        (1, 1, 3, 3),
        (2, 2, 3, 3),
        (1, 1, 2, 3),
        (2, 2, 1, 3),
        (3, 3, 1, 2),
    ),
    5: (
        (1, 1, 2, 2, 3),
        (1, 1, 3, 3, 2),
        (2, 2, 3, 3, 1),
    ),
    6: ((1, 1, 2, 2, 3, 3),),
}


@cache
def _pattern_plan(fam_seq):
    """The search order of a family sequence and what each step narrows.

    Returns (steps, narrows): steps lists the positions in (family,
    position) order, and narrows[i] holds an entry (j, direction,
    must_be_present) for each later step j of another family. A
    cross-family pair needs an absent line when consecutive (a complement
    edge of the cycle) and a present one otherwise (a non-edge).
    Direction 6 - f - g holds the lines of families f < g, and steps
    sorted by family put f first. Two positions of one family need no
    entry to take distinct labels: they sit side by side, so the position
    next to one and not the other (n >= 4) needs a line absent at one
    label and present at the other.
    """
    n = len(fam_seq)
    steps = tuple(sorted(range(n), key=lambda pos: (fam_seq[pos], pos)))
    narrows = []
    for i, s in enumerate(steps):
        f = fam_seq[s]
        narrows.append(tuple(
            (j, 6 - f - fam_seq[t], abs(s - t) not in (1, n - 1))
            for j, t in enumerate(steps[i + 1:], i + 1)
            if fam_seq[t] != f
        ))
    return steps, tuple(narrows)


def _find_pattern(used, rows, fam_seq):
    """First index assignment matching the pattern, or None.

    rows[h] is the line rows of direction h (line_masks(X)[h][0]).
    Positions are assigned one per step in (family, position) order, and
    each holds a bitmask domain of the labels still possible, starting
    from used[f - 1], the mask of family f's labels some line uses (every
    position needs a present line). Labels are held as bit positions
    (index - 1). Assigning label x to a position narrows the domain of
    every later position of another family at once (forward checking):
    it ANDs the line row of x or its complement. If some domain becomes
    empty, x is skipped without descending; the domains are copied and
    narrowed only for an x that survives. Each position tries its
    domain in ascending order, which is the candidate set a search
    checking each pair only at the later position would try; a skipped x
    leads to no complete assignment, so the first assignment found is the
    same.
    """
    steps, narrows = _pattern_plan(fam_seq)
    last = len(steps) - 1
    labels = [0] * len(steps)  # by position

    def assign(i, domains):
        candidates = domains[i]
        if i == last:
            labels[steps[i]] = _first(candidates) - 1
            return True
        plan = narrows[i]
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            x = low.bit_length() - 1
            for j, direction, must_be_present in plan:
                row = rows[direction][x]
                if not domains[j] & (row if must_be_present else ~row):
                    break
            else:
                # x survives: only now copy the domains and narrow them
                narrowed = domains.copy()
                for j, direction, must_be_present in plan:
                    row = rows[direction][x]
                    narrowed[j] &= row if must_be_present else ~row
                labels[steps[i]] = x
                if assign(i + 1, narrowed):
                    return True
        return False

    if not assign(0, [used[fam_seq[pos] - 1] for pos in steps]):
        return None
    return tuple(
        HyperplaneId(FAMILY_NAMES[f - 1], x + 1) for f, x in zip(fam_seq, labels)
    )


def has_hyp_star(X: VarietyOfLines, n: int):
    """Whether no length-n cyclic obstruction pattern exists.

    Returns (True, None) when the property holds, else (False, witness)
    with the witness being the offending hyperplane cycle. Lengths above
    6 hold vacuously: a cycle pattern of length >= 7 would need three
    vertices in one family, which is impossible.
    """
    if not (_is_int(n) and n >= 4):
        raise BadN(f"cycle length must be an integer of at least 4, got {n!r}")
    masks = line_masks(X)
    (r3, c3), (r2, c2), (r1, c1) = masks[3], masks[2], masks[1]
    used = [reduce(or_, rows, 0) for rows in (c3 + c2, r3 + c1, r2 + r1)]
    line_rows = {1: r1, 2: r2, 3: r3}
    for fam_seq in _PATTERN_FAMILY_SEQS.get(n, ()):
        witness = _find_pattern(used, line_rows, fam_seq)
        if witness is not None:
            return False, witness
    return True, None


# ---------------------------------------------------------------------------
# route 3: numeric conditions on the multiplicity tensor
# ---------------------------------------------------------------------------
#
# m3, m2, m1 are the bit rows of slice matrices 3, 2, 1 (M.slices).
# Each mu(i, j, k) == v test over k is a level mask: the set of k with
# mu(i, j, k) = v. With x = m2[i] and y = m1[j], the rows over k, and
# e = m3[i][j], mu = e + x_k + y_k, so level v needs v - e of the two
# rows: none is ~(x | y), one is x ^ y, both is x & y. Each criterion
# fixes its m3 entries first (its slice block), and then its inner loop
# over k is the AND of the level masks it needs.

def _rows(M: MultiplicityTensor):
    """The bit rows of slice matrices 3, 2, 1 of M."""
    return M.slices[3][0], M.slices[2][0], M.slices[1][0]


def _pattern_witness(order, condition, *indices) -> dict:
    """Witness, in the original family names, of a pattern found on
    M.permuted(order) with indices[n] in permuted family n+1."""
    by_family = dict(zip(order, indices))
    return {
        "condition": condition.format(*(FAMILY_NAMES[f - 1] for f in order)),
        **{name.lower(): by_family[f] for f, name in enumerate(FAMILY_NAMES, 1)},
    }


def criterion_hyp4_numeric(M: MultiplicityTensor):
    """Numeric 4-pattern test on the multiplicity tensor.

    Covers the same-family patterns through the 2x2 diagonal-submatrix
    scan of each slice matrix, and the mixed-family patterns through one
    tensor condition with a doubled first family, run with each family
    first (A, then C, then B).

    Diagonal pattern: rows r1, r2 with m[r1][c1] = 1, m[r2][c1] = 0,
    m[r1][c2] = 0, m[r2][c2] = 1, so c1 is the first index of
    rows[r1] & ~rows[r2] and c2 of rows[r2] & ~rows[r1].

    Tensor condition: b1 in m3[a1] & ~m3[a2], then mu(a1,b1,c) = 1 is
    ~(m2[a1] | m1[b1]) and mu(a2,b1,c) = 1 is m2[a2] ^ m1[b1]; their
    AND, the c-set, is m2[a2] & ~m2[a1] & ~m1[b1].
    """
    for direction in (3, 2, 1):
        rows = [(r, row) for r, row in enumerate(M.slices[direction][0], 1) if row]
        for r1, row1 in rows:
            for r2, row2 in rows:
                if row1 & ~row2 and row2 & ~row1:  # so r1 != r2
                    return False, {
                        "condition": f"slice-{direction} diagonal 2x2 pattern",
                        "rows": (r1, r2),
                        "cols": (_first(row1 & ~row2), _first(row2 & ~row1)),
                    }
    for order in ((1, 2, 3), (3, 1, 2), (2, 3, 1)):
        r3, r2, r1 = _rows(M.permuted(order))
        # a1 needs m3[a1] and a2 needs m2[a2] nonzero: skip rows with no line
        lines = [(a, ab, ac) for a, (ab, ac) in enumerate(zip(r3, r2), 1) if ab | ac]
        for a1, ab1, ac1 in lines:
            for a2, ab2, ac2 in lines:
                cs = ac2 & ~ac1  # empty when a1 == a2
                if not cs:
                    continue
                for b1 in _bits(ab1 & ~ab2):
                    c = cs & ~r1[b1]
                    if c:
                        return False, _pattern_witness(
                            order, "doubled-{} tensor pattern",
                            (a1, a2), (b1 + 1,), (_first(c),),
                        )
    return True, None


def criterion_hyp5_numeric(M: MultiplicityTensor):
    """Numeric 5-pattern test: a 2x2 multiplicity block ((2,1),(2,2))
    against a slice block ((1,1),(0,1)), in each of the three roles
    (doubled A-B, then A-C, then B-C).

    The slice block puts b1 in m3[a1] & ~m3[a2] and b2 in
    m3[a1] & m3[a2]. Then mu(a1,b1,c) = 2 is m2[a1] ^ m1[b1],
    mu(a1,b2,c) = 1 is ~(m2[a1] | m1[b2]), mu(a2,b1,c) = 2 is
    m2[a2] & m1[b1] and mu(a2,b2,c) = 2 is m2[a2] ^ m1[b2]; their AND,
    the c-set, is ~m2[a1] & m2[a2] & m1[b1] & ~m1[b2].
    """
    for order in ((1, 2, 3), (1, 3, 2), (2, 3, 1)):
        r3, r2, r1 = _rows(M.permuted(order))
        # a1 needs m3[a1] and a2 needs m2[a2] nonzero: skip rows with no line
        lines = [(a, ab, ac) for a, (ab, ac) in enumerate(zip(r3, r2), 1) if ab | ac]
        for a1, ab1, ac1 in lines:
            for a2, ab2, ac2 in lines:
                cs = ac2 & ~ac1  # empty when a1 == a2
                if not cs:
                    continue
                for b1 in _bits(ab1 & ~ab2):
                    cs1 = cs & r1[b1]
                    if not cs1:
                        continue
                    for b2 in _bits(ab1 & ab2):
                        c = cs1 & ~r1[b2]
                        if c:
                            return False, _pattern_witness(
                                order, "doubled-{}-{} tensor pattern",
                                (a1, a2), (b1 + 1, b2 + 1), (_first(c),),
                            )
    return True, None


def criterion_hyp6_numeric(M: MultiplicityTensor):
    """Numeric 6-pattern test: two multiplicity-3 cells with disjoint
    coordinates whose mixed 2x2x2 block is constant 2 elsewhere.

    Level 3 over k is m2[i] & m1[j] where m3[i][j] = 1 and empty
    elsewhere. Both cells lie in level 3, so only pairs (a, b) with a
    nonempty level 3 are walked. For the first cell (a1,b1,c1) and a
    second pair a2, b2, bit c1 must lie in level 2 at (a1,b2), (a2,b1)
    and (a2,b2), and c2 in level 3 at (a2,b2) and in level 2 at (a1,b1),
    (a1,b2) and (a2,b1).

    So the second pair is found through level 2 at the fixed k = c1, as
    a mask over b for each a: bit b is set when c1 lies in level 2 at
    (a, b). With x the bit c1 of m2[a] and y the column c1 of m1 (a mask
    over b), that mask is m3[a] ^ y when x = 1 and m3[a] & y when x = 0.
    Then a2 ranges over the rows with a triple whose mask holds b1, and
    b2 over the bits (but b1) of the masks of a1 and a2 that are triples
    of row a2, both ascending, which is the order of the triples list.
    """
    r3, r2, r1 = _rows(M)
    triples = [  # (a, b, level 3 at (a, b)), nonempty ones only
        (a, b, ac & bc)
        for a, (ab, ac) in enumerate(zip(r3, r2))
        for b, bc in enumerate(r1)
        if ab >> b & 1 and ac & bc
    ]
    if not triples:
        return True, None
    level2 = [
        [ac ^ bc if ab >> b & 1 else ac & bc for b, bc in enumerate(r1)]
        for ab, ac in zip(r3, r2)
    ]
    level3 = {(a, b): ks for a, b, ks in triples}
    triple_rows: dict[int, int] = {}  # a -> the b with a nonempty level 3
    for a, b, _ in triples:
        triple_rows[a] = triple_rows.get(a, 0) | 1 << b
    cols1 = M.slices[1][1]
    at_k: dict[int, dict] = {}  # k -> a -> level 2 at (a, b, k) over b
    for a1, b1, ks1 in triples:
        for c1 in _bits(ks1):
            at_c1 = at_k.get(c1)
            if at_c1 is None:
                y = cols1[c1]
                at_c1 = at_k[c1] = {
                    a: r3[a] ^ y if r2[a] >> c1 & 1 else r3[a] & y
                    for a in triple_rows
                }
            row1 = at_c1[a1] & ~(1 << b1)
            if not row1:
                continue
            for a2, row2 in at_c1.items():
                bs = row1 & row2 & triple_rows[a2]
                if not bs or a2 == a1 or not row2 >> b1 & 1:
                    continue
                for b2 in _bits(bs):
                    c = (
                        level3[a2, b2] & level2[a1][b1]
                        & level2[a1][b2] & level2[a2][b1]
                    )
                    if c:
                        return False, {
                            "condition": "double-triple tensor pattern",
                            "a": (a1 + 1, a2 + 1),
                            "b": (b1 + 1, b2 + 1),
                            "c": (c1 + 1, _first(c)),
                        }
    return True, None


_NUMERIC_CRITERIA = {
    4: criterion_hyp4_numeric,
    5: criterion_hyp5_numeric,
    6: criterion_hyp6_numeric,
}


# ---------------------------------------------------------------------------
# combined verdict
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AcmVerdict:
    acm: bool
    chordal: bool
    hyp: dict
    numeric: dict
    cycle_witness: tuple | None
    numeric_witness: dict | None

    def to_dict(self) -> dict:
        witness = None
        if self.cycle_witness is not None:
            witness = {
                "type": "chordless_cycle",
                "vertices": [str(v) for v in self.cycle_witness],
            }
        return {
            "acm": self.acm,
            "routes": {
                "chordal": self.chordal,
                "hyp": {str(n): self.hyp[n] for n in (4, 5, 6)},
                "numeric": {str(n): self.numeric[n] for n in (4, 5, 6)},
            },
            "witness": witness,
        }


def acm_decision(X: VarietyOfLines) -> bool:
    """Whether X is ACM, by route 1 alone and without a certificate.

    Runs is_chordal's search on the complement of build_graph's masks,
    with no Graph built. For callers that need only the yes/no answer;
    is_acm runs all three routes and carries the witnesses.
    """
    return _mcs_failure(_complement_masks(_incidence_masks(X))) is None


def is_acm(X: VarietyOfLines) -> AcmVerdict:
    """Run all three routes and demand unanimity.

    Raises CriteriaDisagreement if any two routes (or the per-length
    pattern/numeric pair) differ; that would be an implementation bug,
    not a property of the input; the message carries the variety's JSON
    and each route's first witness.
    """
    Gc = complement(build_graph(X))
    chordal_ok, cycle = is_chordal(Gc)
    M = multiplicity_tensor(X)
    hyp, numeric = {}, {}
    hyp_witness = numeric_witness = None
    for n in (4, 5, 6):
        hyp[n], pattern = has_hyp_star(X, n)
        assert pattern is None or is_induced_cycle(Gc, pattern), pattern
        numeric[n], condition = _NUMERIC_CRITERIA[n](M)
        hyp_witness = hyp_witness or pattern
        numeric_witness = numeric_witness or condition
    routes = (chordal_ok, all(hyp.values()), all(numeric.values()))
    if len(set(routes)) != 1 or any(hyp[n] != numeric[n] for n in (4, 5, 6)):
        raise CriteriaDisagreement(
            f"routes disagree on {variety_to_json(X)}: "
            f"chordal={chordal_ok} cycle={_names(cycle)} "
            f"hyp={hyp} pattern={_names(hyp_witness)} "
            f"numeric={numeric} condition={numeric_witness}"
        )
    return AcmVerdict(
        acm=chordal_ok,
        chordal=chordal_ok,
        hyp=hyp,
        numeric=numeric,
        cycle_witness=cycle,
        numeric_witness=numeric_witness,
    )


def _names(cycle):
    """A hyperplane cycle as its names, e.g. 'A1 B2 C1 B1', or None."""
    return None if cycle is None else " ".join(map(str, cycle))
