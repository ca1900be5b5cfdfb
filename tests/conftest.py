"""Shared fixtures: the worked examples used across the suite, two
session-scoped populations reused by several acceptance criteria,
brute-force references for the witnesses of routes 2 and 3, route 2's
search as it backtracked before forward checking, staircases with
exactly the hyperplane counts d, the
chordality search and chordless-cycle enumeration on vertex sets, the
edge-set graphs and 0/1 slice matrices the package once built, the
generator scan over the whole box, its grown rows as they were
built before the copy rule applied to every one-node vector, the
elimination before its unit-row path, the Hilbert tables and compaction
as they were computed cell by cell and family by family, the Ferrers
checks on row sets of permuted varieties, the Hilbert
oracle as literal evaluation-matrix ranks and as node-by-node ranks
over the whole box, the oracles' kernels as the elimination of every
condition's full rows over the whole value grid, Reisner's face-ring test
link by link, the complete-intersection rectangle rule and grid
Hilbert formula that generator data replaced, and a Ferrers variety's
generator degrees as the minimal elements of a product of corners."""

import functools
import itertools
import math
import operator
import random

import pytest

from acmlines import (
    CriteriaDisagreement,
    HyperplaneId,
    SizeLimit,
    all_varieties,
    build_graph,
    compact,
    complement,
    is_acm,
    is_ferrers_variety,
    is_induced_cycle,
    is_literal_ferrers,
    make_variety,
    reisner_cm,
    resembles_ferrers,
    row_partition,
    stanley_reisner_complex,
)
from acmlines.criteria import _PATTERN_FAMILY_SEQS, _pattern_witness
from acmlines.graphs import _bits, canonical_cycle
from acmlines.ferrers import FerrersCheck
from acmlines.linalg import bareiss_rank, extension_coeffs, nullspace, sparse_rank
from acmlines.oracles import (
    _boxrange,
    _eval_row,
    _fibres,
    _front_view,
    _grown_rows,
    _kernel3,
    _line_conditions,
    _multiplied_rows,
)
from acmlines.sampling import random_variety
from acmlines.variety import (
    DIRECTION_FAMILIES,
    FAMILY_NAMES,
    _renumber,
    box_table,
    check_box,
    line_masks,
    permute_families,
)

# Fifteen lines; the A x B slice is a relabeled staircase of shape
# (5, 4, 3, 1) but the B x C slice is a diagonal pair, so the variety
# cannot be arithmetically Cohen-Macaulay.
FIFTEEN_LINES = make_variety(
    (4, 5, 2),
    u3={
        (1, 2), (1, 4), (1, 5),
        (2, 2), (2, 3), (2, 4), (2, 5),
        (3, 1), (3, 2), (3, 3), (3, 4), (3, 5),
        (4, 4),
    },
    u1={(1, 1), (2, 2)},
)

# Three lines whose A x B slice is a diagonal pair: the smallest
# non-ACM shape.  Kept in compacted labels; the raw form with the
# C-index 3 appears in the normalization tests.
DIAGONAL_PAIR_PLUS_ONE = make_variety(
    (2, 3, 1),
    u3={(1, 1), (2, 2)},
    u1={(3, 1)},
)

# Twelve lines closed under the four-hyperplane coplanarity condition.
FOUR_HYPERPLANE_EXAMPLE = make_variety(
    (2, 3, 2),
    u3={(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)},
    u2={(1, 1), (1, 2), (2, 1)},
    u1={(1, 1), (1, 2), (2, 1), (3, 1)},
)

# Nine lines closed under the five-hyperplane condition.
FIVE_HYPERPLANE_EXAMPLE = make_variety(
    (2, 3, 2),
    u3={(1, 1), (1, 2), (1, 3), (2, 2)},
    u2={(1, 1), (1, 2), (2, 1)},
    u1={(1, 1), (3, 1)},
)

# Nine lines with two triple points on disjoint coordinates: fails the
# six-hyperplane condition and is the standard multiplicity-tensor
# example.
TWO_TRIPLE_POINTS = make_variety(
    (2, 2, 2),
    u3={(1, 1), (1, 2), (2, 2)},
    u2={(1, 1), (2, 1), (2, 2)},
    u1={(1, 1), (1, 2), (2, 2)},
)

# The previous variety plus L(A2, B1): ACM but not a Ferrers variety.
REPAIRED_TRIPLE_POINTS = make_variety(
    (2, 2, 2),
    u3={(1, 1), (1, 2), (2, 1), (2, 2)},
    u2={(1, 1), (2, 1), (2, 2)},
    u1={(1, 1), (1, 2), (2, 2)},
)

# Full-box Ferrers variety on (4, 3, 2): all three index sets are
# complete rectangles.
FULL_BOX_432 = make_variety(
    (4, 3, 2),
    u3={(i, j) for i in range(1, 5) for j in range(1, 4)},
    u2={(i, k) for i in range(1, 5) for k in range(1, 3)},
    u1={(j, k) for j in range(1, 4) for k in range(1, 3)},
)

# Two-direction variety: complete intersection of a pure B-form and a
# mixed A*C-form.
CI_EXAMPLE = make_variety(
    (4, 3, 2),
    u3={(i, j) for i in range(1, 5) for j in range(1, 4)},
    u1={(j, k) for j in range(1, 4) for k in range(1, 3)},
)

# Smallest ACM variety that is not a literal staircase in every
# direction; its companion is the corner variety below.
SKEW_CORNER = make_variety(
    (1, 2, 1), u3={(1, 1)}, u2={(1, 1)}, u1={(2, 1)}
)
CORNER = make_variety((1, 1, 1), u3={(1, 1)}, u2={(1, 1)}, u1={(1, 1)})

SINGLE_LINE = make_variety((1, 1, 1), u3={(1, 1)})


WORKED_EXAMPLES = (
    FIFTEEN_LINES,
    DIAGONAL_PAIR_PLUS_ONE,
    FOUR_HYPERPLANE_EXAMPLE,
    FIVE_HYPERPLANE_EXAMPLE,
    TWO_TRIPLE_POINTS,
    REPAIRED_TRIPLE_POINTS,
    CI_EXAMPLE,
    SKEW_CORNER,
    CORNER,
    SINGLE_LINE,
)


def first_pattern_by_product(X, n):
    """Route 2's length-n witness found the slow way, or None.

    For each family sequence of the pattern table in turn: the first
    label tuple, in itertools.product order over the positions sorted by
    (family, position), that is a chordless cycle of the complement
    graph (so its same-family labels differ).
    """
    Gc = complement(build_graph(X))
    for fam_seq in _PATTERN_FAMILY_SEQS[n]:
        steps = sorted(range(n), key=lambda pos: (fam_seq[pos], pos))
        ranges = [range(1, X.d[fam_seq[pos] - 1] + 1) for pos in steps]
        for labels in itertools.product(*ranges):
            at = dict(zip(steps, labels))
            cycle = tuple(
                HyperplaneId(FAMILY_NAMES[f - 1], at[pos])
                for pos, f in enumerate(fam_seq)
            )
            if is_induced_cycle(Gc, cycle):
                return cycle
    return None


def first_pattern_by_backtracking(X, n):
    """Route 2's length-n witness as has_hyp_star found it before forward
    checking, or None.

    Positions are assigned one per step in (family, position) order,
    each skipping its same-family predecessor's index. A cross-family
    pair of positions s, t (s in the lower family) is checked once t is
    assigned: consecutive positions need an absent line (a complement
    edge of the cycle), the others a present line (a non-edge). So the
    candidates of t are one mask, the AND of the line row of each checked
    label (or its complement) without the predecessor's bit, tried in
    ascending order, starting from the mask of family f's used labels.
    """
    masks = line_masks(X)
    (r3, c3), (r2, c2), (r1, c1) = masks[3], masks[2], masks[1]
    used = [functools.reduce(operator.or_, rows, 0) for rows in (c3 + c2, r3 + c1, r2 + r1)]
    for fam_seq in _PATTERN_FAMILY_SEQS.get(n, ()):
        steps = sorted(range(n), key=lambda pos: (fam_seq[pos], pos))
        checks = [[] for _ in range(n)]
        twins = [n] * n  # labels[n]: no twin yet
        for s, t in itertools.combinations(steps, 2):
            f, g = fam_seq[s], fam_seq[t]
            if f == g:
                twins[t] = s
            else:
                consecutive = abs(s - t) in (1, n - 1)
                checks[t].append((s, masks[6 - f - g][0], not consecutive))
        starts = [used[f - 1] for f in fam_seq]
        labels = [max(used).bit_length()] * (n + 1)  # a bit in no used mask

        def assign(step):
            if step == n:
                return tuple(
                    HyperplaneId(FAMILY_NAMES[f - 1], i + 1)
                    for f, i in zip(fam_seq, labels)
                )
            pos = steps[step]
            candidates = starts[pos] & ~(1 << labels[twins[pos]])
            for s, rows, must_be_present in checks[pos]:
                row = rows[labels[s]]
                candidates &= row if must_be_present else ~row
            while candidates:
                low = candidates & -candidates
                labels[pos] = low.bit_length() - 1
                result = assign(step + 1)
                if result is not None:
                    return result
                candidates ^= low
            return None

        witness = assign(0)
        if witness is not None:
            return witness
    return None


def _staircase_cells(rng, rows, first):
    parts = [first] + sorted((rng.randint(1, first) for _ in range(rows - 1)), reverse=True)
    return {(r, c) for r, size in enumerate(parts, 1) for c in range(1, size + 1)}


def ferrers_with_d(rng, d):
    """An ACM literal Ferrers variety whose hyperplane counts are exactly
    d: the A x B staircase has d1 rows and a first row of d2, the A x C
    staircase a first row of d3, the other sizes are random. No pattern
    exists, so route 2 searches the whole box at every length."""
    d1, d2, d3 = d
    return make_variety(
        d,
        _staircase_cells(rng, d1, d2),
        _staircase_cells(rng, rng.randint(1, d1), d3),
        _staircase_cells(rng, rng.randint(1, d2), rng.randint(1, d3)),
    )


def _ordered_pairs(size):
    return [(p, q) for p in range(1, size + 1) for q in range(1, size + 1) if p != q]


def _diagonal_pattern(matrix):
    """First (r1, r2, c1, c2) with the 2x2 identity pattern (1,0 / 0,1)."""
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


def _hyp4_by_mu(M):
    for direction in (3, 2, 1):
        hit = _diagonal_pattern(M.slice_matrix(direction))
        if hit:
            return False, {
                "condition": f"slice-{direction} diagonal 2x2 pattern",
                "rows": hit[:2],
                "cols": hit[2:],
            }
    for order in ((1, 2, 3), (3, 1, 2), (2, 3, 1)):
        P = M.permuted(order)
        d1, d2, d3 = P.d
        m3 = P.slice_matrix(3)
        for a1, a2 in _ordered_pairs(d1):
            for b1 in range(1, d2 + 1):
                if m3[a1 - 1][b1 - 1] != 1 or m3[a2 - 1][b1 - 1] != 0:
                    continue
                for c1 in range(1, d3 + 1):
                    if P.mu(a1, b1, c1) == 1 and P.mu(a2, b1, c1) == 1:
                        return False, _pattern_witness(
                            order, "doubled-{} tensor pattern",
                            (a1, a2), (b1,), (c1,),
                        )
    return True, None


def _hyp5_by_mu(M):
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
        m3 = P.slice_matrix(3)
        for a1, a2 in _ordered_pairs(d1):
            for b1, b2 in _ordered_pairs(d2):
                if not block_ok(m3, a1, a2, b1, b2):
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


def _hyp6_by_mu(M):
    d1, d2, d3 = M.d
    triples = [
        (i, j, k)
        for i in range(1, d1 + 1)
        for j in range(1, d2 + 1)
        for k in range(1, d3 + 1)
        if M.mu(i, j, k) == 3
    ]
    for (a1, b1, c1), (a2, b2, c2) in itertools.product(triples, repeat=2):
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


def numeric_by_mu(M, n):
    """Route 3's length-n criterion found the slow way: (verdict, witness).

    The literal loops, over ordered index pairs and M.permuted(order),
    that test each mu equality of the criterion one cell at a time; the
    witness is the first hit in that loop order.
    """
    return {4: _hyp4_by_mu, 5: _hyp5_by_mu, 6: _hyp6_by_mu}[n](M)


def adjacency_sets(G):
    """The neighbour set of each vertex of G, read off G.edges."""
    adj = {v: set() for v in G.vertices}
    for u, v in G.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def is_chordal_by_sets(G):
    """is_chordal's verdict and certificate from a search on vertex sets
    and dicts: the whole maximum cardinality search order first (most
    visited neighbours, then lowest position in G.vertices), then the
    Tarjan-Yannakakis check along it, then a breadth-first u-w path
    through earlier vertices outside N(v), neighbours taken in vertex
    order."""
    ordinal, adj = G.ordinal, adjacency_sets(G)
    weight = {v: 0 for v in G.vertices}
    unvisited = set(G.vertices)
    order = []
    pos = {}
    for step in range(len(G.vertices)):
        v = max(unvisited, key=lambda x: (weight[x], -ordinal[x]))
        unvisited.remove(v)
        pos[v] = step
        order.append(v)
        for w in adj[v]:
            if w in unvisited:
                weight[w] += 1
    for i, v in enumerate(order):
        earlier = [w for w in adj[v] if pos[w] < i]
        if not earlier:
            continue
        u = max(earlier, key=lambda x: pos[x])
        missing = [w for w in earlier if w != u and w not in adj[u]]
        if missing:
            w = min(missing, key=lambda x: ordinal[x])
            allowed = {x for x in order[:i] if x not in adj[v]} | {u, w}
            parent = {u: None}
            frontier = [u]
            while frontier and w not in parent:
                nxt = []
                for x in frontier:
                    for y in sorted(adj[x] & allowed, key=lambda t: ordinal[t]):
                        if y not in parent:
                            parent[y] = x
                            nxt.append(y)
                frontier = nxt
            path = [w]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return False, canonical_cycle([v] + path[::-1], ordinal)
    return True, None


MAX_CYCLE_SEARCH_VERTICES = 18


def chordless_cycles(G, max_len=6):
    """All chordless cycles of length 4..max_len, canonicalized, sorted:
    every vertex subset of each size whose induced subgraph is one
    cycle."""
    if G.vertex_count > MAX_CYCLE_SEARCH_VERTICES:
        raise SizeLimit(
            f"cycle enumeration limited to {MAX_CYCLE_SEARCH_VERTICES} "
            f"vertices, got {G.vertex_count}"
        )
    ordinal, adj = G.ordinal, adjacency_sets(G)
    out = set()
    for size in range(4, max_len + 1):
        for subset in itertools.combinations(G.vertices, size):
            sset = set(subset)
            if any(len(adj[v] & sset) != 2 for v in subset):
                continue
            # walk the 2-regular induced subgraph; connected iff one cycle
            start = subset[0]
            cycle = [start]
            prev = None
            while True:
                nbrs = adj[cycle[-1]] & sset
                nxt = sorted(
                    (x for x in nbrs if x != prev),
                    key=lambda t: ordinal[t],
                )
                prev = cycle[-1]
                if nxt[0] == start:
                    break
                cycle.append(nxt[0])
            if len(cycle) == size:
                out.add(canonical_cycle(cycle, ordinal))
    return sorted(out, key=lambda t: tuple(ordinal[v] for v in t))


def graph_by_edge_sets(X):
    """X's incidence graph as (vertices, edges) the way build_graph once
    made it: HyperplaneId vertices, family-major, and one edge per line
    from its lower family to its higher one."""
    vertices = tuple(
        HyperplaneId(FAMILY_NAMES[f - 1], i)
        for f in (1, 2, 3)
        for i in range(1, X.d[f - 1] + 1)
    )
    edges = set()
    for direction, (fam_p, fam_q) in DIRECTION_FAMILIES.items():
        for p, q in X.u(direction):
            u = HyperplaneId(FAMILY_NAMES[fam_p - 1], p)
            v = HyperplaneId(FAMILY_NAMES[fam_q - 1], q)
            edges.add((u, v))
    return vertices, frozenset(edges)


def complement_by_pairs(vertices, edges):
    """The complement's edges, each vertex pair tested in turn."""
    return frozenset(
        (u, v) for u, v in itertools.combinations(vertices, 2)
        if (u, v) not in edges and (v, u) not in edges
    )


def membership_matrices(X):
    """X's 0/1 slice matrices by direction: entry (p - 1, q - 1) of
    direction h is 1 when (p, q) is a line of that direction."""
    matrices = {}
    for direction, (fam_p, fam_q) in DIRECTION_FAMILIES.items():
        cells = X.u(direction)
        matrices[direction] = tuple(
            tuple(1 if (r, c) in cells else 0 for c in range(1, X.d[fam_q - 1] + 1))
            for r in range(1, X.d[fam_p - 1] + 1)
        )
    return matrices


def mu_by_matrices(matrices, i, j, k):
    """mu(i, j, k) as the overlay of the three 0/1 slice matrices."""
    return (
        matrices[3][i - 1][j - 1]
        + matrices[2][i - 1][k - 1]
        + matrices[1][j - 1][k - 1]
    )


def scan_unclipped(X, box):
    """generator_degree_scan's counts from a loop over the whole box,
    without the warning: it also eliminates at every degree past X.d,
    where the scan itself stops, and it eliminates the three-factor
    rows of _kernel3 on the faces t_a = d_a, where the scan solves one
    two-factor slice."""
    memo, kernels, found = {}, {}, {}
    for t in _boxrange(box):
        kernels[t] = _kernel3(t, X, memo)
        dim_ideal = len(kernels[t])
        if dim_ideal:
            count = dim_ideal - sparse_rank(_grown_rows(t, kernels), dim_ideal)
            if count:
                found[t] = count
    return found


def grown_rows_by_saturation(t, kernels, d):
    """_grown_rows as it was before it applied the copy rule to every
    one-node vector: the copy rule (each g and its copy g' at node t_a +
    1) on every axis saturated one step below (d_a <= t_a), where every
    kernel vector sits on one node, and both degree-one multiples
    (_multiplied_rows) of every vector on the other axes."""
    rows = []
    for axis in range(len(t)):
        if t[axis] == 0:
            continue
        below = kernels[t[:axis] + (t[axis] - 1,) + t[axis + 1:]]
        if d[axis] <= t[axis]:
            new = t[axis] + 1
            for g in below:
                rows.append(g)
                rows.append(
                    {c[:axis] + (new,) + c[axis + 1:]: v for c, v in g.items()}
                )
        else:
            coeffs = extension_coeffs(t[axis])
            for g in below:
                rows.extend(_multiplied_rows(g, axis, coeffs))
    return rows


def echelon_by_elimination(rows, limit=None) -> dict:
    """linalg._echelon as it was before its unit-row path: every row is
    reduced against the stored pivot rows until its leading column is
    new, then stored with its content divided out."""
    pivots = {}
    for raw in rows:
        row = {c: v for c, v in raw.items() if v}
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                g = math.gcd(*row.values())
                pivots[c] = {k: v // g for k, v in row.items()}
                if len(pivots) == limit:
                    return pivots
                break
            g = math.gcd(row[c], pivot[c])
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


def line_sample_points(X, deg):
    """deg-dependent sample points: each line swept through its free
    factor at the integer parameters 1..(free degree + 1)."""
    i, j, k = deg
    pts = []
    for a, b in sorted(X.U3):
        pts.extend((a, b, t) for t in range(1, k + 2))
    for a, c in sorted(X.U2):
        pts.extend((a, t, c) for t in range(1, j + 2))
    for b, c in sorted(X.U1):
        pts.extend((t, b, c) for t in range(1, i + 2))
    return pts


def evaluation_matrix(X, deg):
    """Sample points (rows) evaluated on all monomials (columns)."""
    i, j, k = deg
    monomials = [
        (s1, s2, s3)
        for s1 in range(i + 1)
        for s2 in range(j + 1)
        for s3 in range(k + 1)
    ]
    matrix = []
    for x, y, z in line_sample_points(X, deg):
        matrix.append([x**s1 * y**s2 * z**s3 for s1, s2, s3 in monomials])
    return matrix


def hilbert_oracle_naive(X, box):
    """Hilbert function by literal evaluation-matrix ranks (slow)."""
    return box_table(box, lambda deg: bareiss_rank(evaluation_matrix(X, deg)))


def condition_rows(sizes, conditions) -> list[list[int]]:
    """Integer rows of vanishing conditions on a tensor product of value
    spaces (factor n has sizes[n] coordinates), flattened row-major.

    A condition gives one integer node per factor, or None for a factor
    it leaves free: it asks a polynomial to vanish on the coordinate
    line (or at the point) those nodes cut out. Its rows are Kronecker
    products of the nodes' evaluation functionals, with each unit vector
    of the free factor in turn.
    """
    rows = []
    for nodes in conditions:
        factors = [
            [_eval_row(size, node)] if node is not None
            else [[int(s == t) for s in range(size)] for t in range(size)]
            for size, node in zip(sizes, nodes)
        ]
        for vectors in itertools.product(*factors):
            rows.append([math.prod(v) for v in itertools.product(*vectors)])
    return rows


def dense_kernel_by_rows(sizes, conditions) -> list[dict]:
    """_dense_kernel as it was before it dropped the value-node
    conditions: nullspace of every condition's full Kronecker rows over
    the whole grid, as sparse {cell: value} dicts over the 1-based
    cells."""
    cells = list(itertools.product(*(range(1, size + 1) for size in sizes)))
    return [
        {cells[n]: v for n, v in enumerate(vec) if v}
        for vec in nullspace(condition_rows(sizes, conditions), len(cells))
    ]


def conditions2(row, col, points):
    """_kernel2's row, column and points masks as conditions."""
    return (
        [(r + 1, None) for r in _bits(row)]
        + [(None, c + 1) for c in _bits(col)]
        + [(b, c + 1) for b, mask in enumerate(points, start=1) for c in _bits(mask)]
    )


def _rank2(deg_pair, row, col, points, memo) -> int:
    """dim of sum of row spaces v_r (x) Q, column spaces P (x) w_c and
    single tensors v_b (x) w_c inside P (x) Q.

    P has deg_pair[0]+1 value coordinates and indices up to
    len(points); Q has deg_pair[1]+1. row has bit r - 1 set for each
    row r and col bit c - 1 for each column c; points[b - 1] has bit
    c - 1 set for each point (b, c). The front view puts the saturated
    factors first, so when P is not saturated neither is Q.
    """
    key = (deg_pair, row, col, points)
    if key in memo:
        return memo[key]
    j, k = deg_pair
    if len(points) <= j + 1:
        fibres = _fibres(j, row, col, points)
        total = row.bit_count() * (k + 1) + sum(
            min(s.bit_count(), k + 1) for s in fibres.values()
        )
    else:
        # neither side saturated: small dense block
        total = bareiss_rank(
            condition_rows((j + 1, k + 1), conditions2(row, col, points))
        )
    memo[key] = total
    return total


def _rank3_by_nodes(deg, X, memo):
    """The evaluation rank at deg as one _rank2 sum over the front nodes,
    at every degree of the box: the Hilbert oracle before it took dim
    I_t from the kernels and continued the table affinely past d."""
    view = _front_view(deg, X, memo)
    if view is None:
        sizes = tuple(t + 1 for t in deg)
        return bareiss_rank(condition_rows(sizes, _line_conditions(X)))
    _, pick, rows, cols, points = view
    i, j, k = pick(deg)
    total = sum(_rank2((j, k), r, c, points, memo) for r, c in zip(rows, cols))
    free = i + 1 - len(rows)
    if free:
        total += free * _rank2((j, k), 0, 0, points, memo)
    return total


def hilbert_oracle_by_nodes(X, box):
    """hilbert_oracle's table, each cell of the box summed node by node
    as a rank, with no affine continuation."""
    memo = {}
    return box_table(box, lambda deg: _rank3_by_nodes(deg, X, memo))


def _leq(s, t):
    return all(a <= b for a, b in zip(s, t))


def corner_degrees_by_descents(p):
    """points_generator_degrees(p) read off the descents of the partition
    p: (0, p_1), (r, 0) and (i, p_{i+1}) at every strict descent, and
    {(0, 0)} when p is empty."""
    if not p:
        return {(0, 0)}
    out = {(0, p[0]), (len(p), 0)}
    for i in range(1, len(p)):
        if p[i] < p[i - 1]:
            out.add((i, p[i]))
    return out


def minimal_degrees_by_product(X):
    """degree_sets(X).minimal as a Ferrers variety's degrees were once
    built: each direction's corners as degree triples (0 in its free
    family), the componentwise maxima over one corner per direction, and
    the minimal elements of those by a test of every pair."""
    by_direction = [
        {
            tuple(dict(zip(families, pair)).get(f, 0) for f in (1, 2, 3))
            for pair in corner_degrees_by_descents(row_partition(X, h))
        }
        for h, families in DIRECTION_FAMILIES.items()
    ]
    combined = {tuple(map(max, *picks)) for picks in itertools.product(*by_direction)}
    return frozenset(
        t for t in combined if not any(s != t and _leq(s, t) for s in combined)
    )


def delta_hilbert_by_leq(X, box):
    """delta_hilbert's table, each cell tested against every minimal
    degree of minimal_degrees_by_product."""
    box = check_box(box)
    minimal = minimal_degrees_by_product(X)
    return box_table(
        box, lambda deg: 0 if any(_leq(m, deg) for m in minimal) else 1
    )


def staircase_by_compaction(d, p3, p2, p1):
    """The literal staircase with row partitions p3, p2, p1 declared in
    the box d, then compacted: how the companion and the Ferrers sampler
    once built it."""

    def cells(p):
        return {(r, c) for r, size in enumerate(p, start=1) for c in range(1, size + 1)}

    return compact(make_variety(d, cells(p3), cells(p2), cells(p1)))


def _row_sets(X, direction):
    fam_p, _ = DIRECTION_FAMILIES[direction]
    rows = [set() for _ in range(X.d[fam_p - 1])]
    for p, q in X.u(direction):
        rows[p - 1].add(q)
    return rows


def row_partition_by_sets(X, direction):
    """row_partition from the row sets."""
    return tuple(sorted((len(r) for r in _row_sets(X, direction) if r), reverse=True))


def resembles_ferrers_by_sets(X, direction):
    """resembles_ferrers with the chain test on distinct row sets."""
    distinct = {frozenset(s) for s in _row_sets(X, direction)}
    ordered = sorted(distinct, key=len, reverse=True)
    chain = all(
        len(a) != len(b) and a >= b for a, b in zip(ordered, ordered[1:])
    )
    return chain, row_partition_by_sets(X, direction)


def is_literal_ferrers_by_sets(X, direction):
    """is_literal_ferrers cell by cell: each cell's left and upper
    neighbours are cells too."""
    cells = X.u(direction)
    return all(
        (p == 1 or (p - 1, q) in cells) and (q == 1 or (p, q - 1) in cells)
        for p, q in cells
    )


# Orders (see permute_families) bringing one family to the front, the
# others kept in order.
FRONT_ORDERS = {1: (1, 2, 3), 2: (2, 1, 3), 3: (3, 1, 2)}


def is_ferrers_variety_by_sets(X):
    """is_ferrers_variety on row sets: family f's two diagrams are the
    directions 3 and 2 of X with f permuted to the front."""
    perms = []
    for f in (1, 2, 3):
        Y = permute_families(X, FRONT_ORDERS[f])
        first, second = _row_sets(Y, 3), _row_sets(Y, 2)
        indexed = [
            (frozenset(first[i - 1]), frozenset(second[i - 1]), i)
            for i in range(1, X.d[f - 1] + 1)
        ]
        indexed.sort(key=lambda t: (-len(t[0]), -len(t[1]), t[2]))
        for (a1, a2, _), (b1, b2, _) in zip(indexed, indexed[1:]):
            if not (a1 >= b1 and a2 >= b2):
                return FerrersCheck(ok=False, perms=None)
        perm = [0] * X.d[f - 1]
        for new, (_, _, old) in enumerate(indexed, start=1):
            perm[old - 1] = new
        perms.append(tuple(perm))
    return FerrersCheck(ok=True, perms=tuple(perms))


def assert_ferrers_checks_match_the_row_sets(X):
    """The bit-row Ferrers checks equal their row-set references on X,
    FerrersCheck.perms included."""
    assert is_ferrers_variety(X) == is_ferrers_variety_by_sets(X), X
    for h in (3, 2, 1):
        assert resembles_ferrers(X, h) == resembles_ferrers_by_sets(X, h), (X, h)
        assert is_literal_ferrers(X, h) == is_literal_ferrers_by_sets(X, h), (X, h)
        assert row_partition(X, h) == row_partition_by_sets(X, h), (X, h)


def complete_intersection_by_rectangles(X):
    """detect_complete_intersection's (degrees, products) by the rule it
    once followed, or None: after compaction, X is one full rectangle of
    lines in one direction, or two full rectangles sharing a family.
    Products name the compacted labels."""
    X = compact(X)
    nonempty = [h for h in (3, 2, 1) if X.u(h)]
    full = all(
        len(X.u(h)) == X.d[p - 1] * X.d[q - 1]
        for h in nonempty
        for p, q in [DIRECTION_FAMILIES[h]]
    )
    if not 0 < len(nonempty) < 3 or not full:
        return None
    if len(nonempty) == 1:
        groups = [(f,) for f in DIRECTION_FAMILIES[nonempty[0]]]
    else:
        h1, h2 = nonempty
        (f,) = set(DIRECTION_FAMILIES[h1]) & set(DIRECTION_FAMILIES[h2])
        groups = [(f,), tuple(g for g in (1, 2, 3) if g != f)]
    degrees = tuple(
        tuple(X.d[g - 1] if g in group else 0 for g in (1, 2, 3)) for group in groups
    )
    products = tuple(
        "*".join(
            f"{FAMILY_NAMES[g - 1]}{i}" for g in group for i in range(1, X.d[g - 1] + 1)
        )
        for group in groups
    )
    return degrees, products


def grid_hilbert_by_formula(box, i, j, k):
    """The full (a, b, c) grid's Hilbert function by its inclusion-exclusion
    over the twists, written out term by term."""
    a, b, c = box

    def r(u, v, w):
        if u < 0 or v < 0 or w < 0:
            return 0
        return (u + 1) * (v + 1) * (w + 1)

    return (
        r(i, j, k)
        - r(i - a, j - b, k)
        - r(i - a, j, k - c)
        - r(i, j - b, k - c)
        + 2 * r(i - a, j - b, k - c)
    )


def scattered(rng, X, extra, shuffle=True):
    """Compact X re-declared with 0 to extra unused hyperplanes per
    family, its used labels moved to random places, in random order or,
    when not shuffle, in their own order (then compact(result) == X)."""
    maps, d = {}, []
    for f, n in zip((1, 2, 3), X.d):
        size = n + rng.randint(0, extra)
        places = rng.sample(range(1, size + 1), n)
        maps[f] = dict(zip(range(1, n + 1), places if shuffle else sorted(places)))
        d.append(size)
    return _renumber(X, tuple(d), maps)


def compact_by_renumbering(X):
    """compact's result by renumbering every family, compact or not,
    each family's used indices read off the lines on their own."""
    maps, new_d = {}, []
    for f in (1, 2, 3):
        used = sorted({
            pair[side]
            for direction, families in DIRECTION_FAMILIES.items()
            for side, g in enumerate(families) if g == f
            for pair in X.u(direction)
        })
        maps[f] = {old: new for new, old in enumerate(used, start=1)}
        new_d.append(len(used))
    return _renumber(X, tuple(new_d), maps)


def _co_edge_homology_vanishes(W, edges):
    """Reduced homology below top dimension of the complex on W whose
    faces are the subsets avoiding some edge."""
    nw = len(W)
    dim_link = nw - 3  # facets have size nw - 2
    if dim_link <= 0:
        return True  # H~(-1) cannot survive once any vertex is a face
    faces_by_size = {0: [()]}
    for size in range(1, nw - 1):
        faces = [
            tau
            for tau in itertools.combinations(W, size)
            if any(not (e & set(tau)) for e in edges)
        ]
        faces_by_size[size] = faces
    rank_boundary = {}
    for size in range(1, nw - 1):
        lower_index = {f: n for n, f in enumerate(faces_by_size[size - 1])}
        matrix = []
        for tau in faces_by_size[size]:
            row = {}
            for m in range(size):
                sub = tau[:m] + tau[m + 1:]
                row[lower_index[sub]] = (-1) ** m
            matrix.append(row)
        rank_boundary[size] = sparse_rank(matrix)
    rank_boundary[nw - 1] = 0
    for q in range(-1, dim_link):
        size = q + 1
        betti = (
            len(faces_by_size[size])
            - rank_boundary.get(size, 0)
            - rank_boundary.get(size + 1, 0)
        )
        if betti:
            return False
    return True


def reisner_cm_by_links(cx):
    """reisner_cm's verdict from Reisner's criterion as stated: every
    face's link, its co-edge faces listed subset by subset, has
    vanishing reduced homology below its dimension."""
    V = tuple(cx.vertices)
    vset = frozenset(V)
    edges = [vset - f for f in cx.facets]
    for size in range(0, len(V) - 3):
        for sigma in itertools.combinations(V, size):
            sset = set(sigma)
            live = [e for e in edges if not (e & sset)]
            if not live:
                continue  # sigma is not a face
            W = tuple(v for v in V if v not in sset)
            if not _co_edge_homology_vanishes(W, live):
                return False
    return True


def all_small_varieties():
    """Every nonempty variety on the (2, 2, 2) box, compacted.

    There are 2^12 line subsets; the empty one is dropped.
    """
    return list(all_varieties())


@pytest.fixture(scope="session")
def small_population():
    return all_small_varieties()


@pytest.fixture(scope="session")
def route_verdicts(small_population):
    """Verdict for every small variety, plus any route disagreements."""
    verdicts = []
    disagreements = []
    for X in small_population:
        try:
            verdicts.append((X, is_acm(X)))
        except CriteriaDisagreement as exc:
            disagreements.append((X, str(exc)))
    return verdicts, disagreements


@pytest.fixture(scope="session")
def oracle_population():
    """100 seeded random varieties with their two independent verdicts."""
    rng = random.Random(20240817)
    rows = []
    for _ in range(100):
        X = random_variety(rng, 3, p=0.4)
        combinatorial = is_acm(X).acm
        homological = reisner_cm(stanley_reisner_complex(X))
        rows.append((X, combinatorial, homological))
    return rows
