"""Arithmetic Cohen-Macaulayness by three independent routes.

Route 1 tests chordality of the complement of the incidence graph.
Route 2 enumerates the cyclic hyperplane patterns of lengths 4, 5, 6
that are obstructions (an n-pattern exists iff the complement graph has
an induced n-cycle). Route 3 evaluates purely numeric conditions on the
multiplicity tensor of the variety. All three must agree; a
disagreement raises, because it can only mean a bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .errors import BadN, CriteriaDisagreement
from .graphs import build_graph, complement, is_chordal, is_induced_cycle
from .variety import (
    DIRECTION_FAMILIES,
    FAMILY_NAMES,
    HyperplaneId,
    VarietyOfLines,
    family_permutation,
    variety_to_json,
)


# ---------------------------------------------------------------------------
# multiplicity tensor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiplicityTensor:
    """mu(i,j,k) = number of lines of X through the point (A_i,B_j,C_k).

    Stored through the three 0/1 slice matrices; mu is their overlay.
    """

    d: tuple[int, int, int]
    m3: tuple[tuple[int, ...], ...]  # d1 x d2
    m2: tuple[tuple[int, ...], ...]  # d1 x d3
    m1: tuple[tuple[int, ...], ...]  # d2 x d3

    def mu(self, i: int, j: int, k: int) -> int:
        return (
            self.m3[i - 1][j - 1] + self.m2[i - 1][k - 1] + self.m1[j - 1][k - 1]
        )

    def slice_matrix(self, direction: int) -> tuple[tuple[int, ...], ...]:
        return (self.m1, self.m2, self.m3)[direction - 1]

    def permuted(self, order) -> MultiplicityTensor:
        """The tensor of permute_families(X, order): each slice matrix
        moves to its new direction, transposed where its pair flips."""
        order = tuple(order)
        pick, moves = family_permutation(order)
        if order == (1, 2, 3):
            return self
        slices = []
        for old, flip in moves:
            m = self.slice_matrix(old)
            if flip:  # an empty matrix has no rows to zip
                ncols = self.d[DIRECTION_FAMILIES[old][1] - 1]
                m = tuple(zip(*m)) if m else ((),) * ncols
            slices.append(m)
        return MultiplicityTensor(pick(self.d), *slices)


def multiplicity_tensor(X: VarietyOfLines) -> MultiplicityTensor:
    def matrix(direction):
        fam_p, fam_q = DIRECTION_FAMILIES[direction]
        cells = X.u(direction)
        cols = range(1, X.d[fam_q - 1] + 1)
        return tuple(
            tuple(1 if (r, c) in cells else 0 for c in cols)
            for r in range(1, X.d[fam_p - 1] + 1)
        )

    return MultiplicityTensor(d=X.d, m3=matrix(3), m2=matrix(2), m1=matrix(1))


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


def _find_pattern(X: VarietyOfLines, fam_seq):
    """First index assignment matching the pattern, or None.

    Positions are assigned one per step in (family, position) order,
    each skipping its same-family predecessor's index. A cross-family
    pair of positions s, t (s in the lower family) is checked once t is
    assigned: consecutive positions need an absent line (a complement
    edge of the cycle), the others a present line (a non-edge).
    """
    n = len(fam_seq)
    steps = sorted(range(n), key=lambda pos: (fam_seq[pos], pos))
    checks: list[list] = [[] for _ in range(n)]
    twins = [n] * n  # labels[n] stays 0: no index is taken before
    for s, t in combinations(steps, 2):
        f, g = fam_seq[s], fam_seq[t]
        if f == g:
            twins[t] = s
        else:  # direction 6 - f - g holds the lines of families f < g
            consecutive = abs(s - t) in (1, n - 1)
            checks[t].append((s, X.u(6 - f - g), not consecutive))
    labels = [0] * (n + 1)

    def assign(step):
        if step == n:
            return tuple(
                HyperplaneId(FAMILY_NAMES[f - 1], i) for f, i in zip(fam_seq, labels)
            )
        pos = steps[step]
        for idx in range(1, X.d[fam_seq[pos] - 1] + 1):
            if idx == labels[twins[pos]]:
                continue
            labels[pos] = idx
            for s, lines, must_be_present in checks[pos]:
                if ((labels[s], idx) in lines) != must_be_present:
                    break
            else:
                result = assign(step + 1)
                if result is not None:
                    return result
        return None

    return assign(0)


def has_hyp_star(X: VarietyOfLines, n: int):
    """Whether no length-n cyclic obstruction pattern exists.

    Returns (True, None) when the property holds, else (False, witness)
    with the witness being the offending hyperplane cycle. Lengths above
    6 hold vacuously: a cycle pattern of length >= 7 would need three
    vertices in one family, which is impossible.
    """
    if n < 4:
        raise BadN(f"cycle length must be at least 4, got {n}")
    for fam_seq in _PATTERN_FAMILY_SEQS.get(n, ()):
        witness = _find_pattern(X, fam_seq)
        if witness is not None:
            return False, witness
    return True, None


# ---------------------------------------------------------------------------
# route 3: numeric conditions on the multiplicity tensor
# ---------------------------------------------------------------------------

def _ordered_pairs(size):
    return [(p, q) for p in range(1, size + 1) for q in range(1, size + 1) if p != q]


def _has_diagonal_pattern(matrix):
    """A 2x2 submatrix equal to the identity pattern (1,0 / 0,1)."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    for r1, r2 in _ordered_pairs(nrows):
        for c1 in range(1, ncols + 1):
            if matrix[r1 - 1][c1 - 1] != 1 or matrix[r2 - 1][c1 - 1] != 0:
                continue
            for c2 in range(1, ncols + 1):
                if c2 == c1:
                    continue
                if matrix[r1 - 1][c2 - 1] == 0 and matrix[r2 - 1][c2 - 1] == 1:
                    return (r1, r2, c1, c2)
    return None


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

    Covers the mixed-family patterns through one tensor condition with
    a doubled first family, run with each family first (A, then C, then
    B), and the same-family patterns through the 2x2 diagonal-submatrix
    scan of each slice matrix.
    """
    for direction in (3, 2, 1):
        hit = _has_diagonal_pattern(M.slice_matrix(direction))
        if hit:
            return False, {
                "condition": f"slice-{direction} diagonal 2x2 pattern",
                "rows": hit[:2],
                "cols": hit[2:],
            }
    for order in ((1, 2, 3), (3, 1, 2), (2, 3, 1)):
        P = M.permuted(order)
        d1, d2, d3 = P.d
        for a1, a2 in _ordered_pairs(d1):
            for b1 in range(1, d2 + 1):
                if P.m3[a1 - 1][b1 - 1] != 1 or P.m3[a2 - 1][b1 - 1] != 0:
                    continue
                for c1 in range(1, d3 + 1):
                    if P.mu(a1, b1, c1) == 1 and P.mu(a2, b1, c1) == 1:
                        return False, _pattern_witness(
                            order, "doubled-{} tensor pattern",
                            (a1, a2), (b1,), (c1,),
                        )
    return True, None


def criterion_hyp5_numeric(M: MultiplicityTensor):
    """Numeric 5-pattern test: a 2x2 multiplicity block ((2,1),(2,2))
    against a slice block ((1,1),(0,1)), in each of the three roles
    (doubled A-B, then A-C, then B-C)."""

    def block_ok(m, r1, r2, s1, s2):
        return (
            m[r1 - 1][s1 - 1] == 1
            and m[r1 - 1][s2 - 1] == 1
            and m[r2 - 1][s1 - 1] == 0
            and m[r2 - 1][s2 - 1] == 1
        )

    for order in ((1, 2, 3), (1, 3, 2), (2, 3, 1)):
        P = M.permuted(order)
        d1, d2, d3 = P.d
        for a1, a2 in _ordered_pairs(d1):
            for b1, b2 in _ordered_pairs(d2):
                if not block_ok(P.m3, a1, a2, b1, b2):
                    continue
                for c1 in range(1, d3 + 1):
                    if (
                        P.mu(a1, b1, c1) == 2
                        and P.mu(a1, b2, c1) == 1
                        and P.mu(a2, b1, c1) == 2
                        and P.mu(a2, b2, c1) == 2
                    ):
                        return False, _pattern_witness(
                            order, "doubled-{}-{} tensor pattern",
                            (a1, a2), (b1, b2), (c1,),
                        )
    return True, None


def criterion_hyp6_numeric(M: MultiplicityTensor):
    """Numeric 6-pattern test: two multiplicity-3 cells with disjoint
    coordinates whose mixed 2x2x2 block is constant 2 elsewhere."""
    d1, d2, d3 = M.d
    triples = [
        (i, j, k)
        for i in range(1, d1 + 1)
        for j in range(1, d2 + 1)
        for k in range(1, d3 + 1)
        if M.mu(i, j, k) == 3
    ]
    for (a1, b1, c1), (a2, b2, c2) in product(triples, repeat=2):
        if a1 == a2 or b1 == b2 or c1 == c2:
            continue
        others = [
            (a1, b2, c1),
            (a2, b1, c1),
            (a2, b2, c1),
            (a1, b1, c2),
            (a1, b2, c2),
            (a2, b1, c2),
        ]
        if all(M.mu(*t) == 2 for t in others):
            return False, {
                "condition": "double-triple tensor pattern",
                "a": (a1, a2),
                "b": (b1, b2),
                "c": (c1, c2),
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
