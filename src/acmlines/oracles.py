"""Independent oracles: Hilbert function, generator scan, face-ring test.

Both linear-algebra oracles work, per multidegree t, on the ideal's
piece I_t: the polynomials that vanish at sample points on the lines
(one factor's coordinate swept through deg+1 integer parameter values
per line; hyperplane parameters are the integers 1, 2, 3, ...), in
interpolation (value) coordinates and integer arithmetic. The tests keep
the literal evaluation matrix as the reference. Both read X only
through its slice bit rows (variety.line_masks). When a factor f is
saturated at deg (d_f <= deg_f + 1, so the value nodes include every
hyperplane of f), permute_masks (_split_view) puts it first and I_t
splits along it into node slices, one two-factor problem per node;
else the whole grid is one problem (_dense_kernel). A line or point
whose fixed nodes are all value nodes only zeroes grid values (the
evaluation at a value node is a multiple of its unit vector), so its
cells are dropped before any elimination (_fibres, _kept); only the
conditions past the value nodes (_past, _past_lines) are eliminated.

Each oracle takes only the slice data it needs. The Hilbert oracle is
dim R_t - dim I_t on the core box min(box, max(d, 1)), continued
affinely past it (see hilbert_oracle); it counts dim I_t slice by slice
(_dim3), and on a saturated fibre the count is a formula (_node_dim).
Four forks exist for speed alone, each measured against the general
path it shortcuts: _kernel2's fibre branch (a dense block for every
node problem makes the scan 13% slower, 45% on the 2x2x2 box), the
counts _node_dim and _dim3 (summing len(_kernel2) or len(_kernel3)
makes hilbert_oracle 8-37% or 43-87% slower), and the scan's face
problems (_face_rows; the interior path everywhere costs it 17%).

The generator scan counts minimal ideal generators per multidegree as
dim I_t minus the dimension spanned by degree-one multiples of lower
pieces. That span lies inside I_t, so its elimination stops once the
rank reaches dim I_t. A kernel vector that sits on one node x of an
axis (along an axis saturated one step below, every vector does) has
two multiples that span the same space as the vector and its copy at
the new node (the 2x2 determinant is c_x (t_a + 1 - x), with c_x the
nonzero extension coefficient), so those two are its rows; only a
vector spread over several nodes is multiplied out. The scan walks only
the box clipped to the declared hyperplane counts d. At a degree t with
some t_a > d_a, nodes t_a and t_a + 1 of axis a both lie past every
hyperplane of family a, the copied rows already span I_t, and so no
minimal generator lies past d. On a face of that box, t_a = d_a >= 1,
every node slice but the one past d_a is already spanned by the copied
rows, so the scan solves that one slice as a two-factor problem; it
builds three-factor kernels only in the interior (the proofs are in
generator_degree_scan). So the work of both oracles is bounded by d,
not by the box.

The face-ring route builds the simplicial complex whose facets are the
vertex complements of the incidence-graph edges, and checks Reisner's
condition over the rationals in its Alexander-dual form: on the
independence complexes of the induced subgraphs (see reisner_cm). It
uses no chordality search, so it stays independent of the
combinatorial routes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import product, zip_longest
from math import comb, prod
from operator import itemgetter

from .criteria import is_acm  # noqa: F401  perfbench/selftest.py traces this binding
from .errors import BoxTooSmallWarning, EmptyVariety, SizeLimit
from .graphs import Graph, _bits, build_graph
from .linalg import extension_coeffs, nullspace, sparse_rank
from .variety import (
    VarietyOfLines,
    box_table,
    check_box,
    check_table_box,
    compact,
    family_permutation,
    line_masks,
    permute_masks,
)

MAX_REISNER_VERTICES = 14


def _boxrange(box):
    bi, bj, bk = box
    return product(range(bi + 1), range(bj + 1), range(bk + 1))


# ---------------------------------------------------------------------------
# kernels of the point conditions, and the Hilbert oracle
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def _eval_row(node_count: int, node: int) -> tuple[int, ...]:
    """Evaluation functional at an integer node, in value coordinates
    (nodes 1..node_count), times (node_count - 1)!: the Lagrange
    coefficients with their denominators cleared. At a value node
    (node <= node_count) it is (node_count - 1)! times that node's unit
    vector. Memoised: scans ask for the same few (node_count, node)
    pairs thousands of times."""
    return tuple(
        (-1) ** (node_count - x) * comb(node_count - 1, x - 1)
        * prod(node - y for y in range(1, node_count + 1) if y != x)
        for x in range(1, node_count + 1)
    )


def _cell_kernel(sizes, cells, conditions) -> list[dict]:
    """Kernel basis of vanishing conditions on some cells of a tensor
    product of value spaces (factor n has sizes[n] coordinates), every
    other cell held at zero, as sparse {cell: value} dicts. cells are
    1-based and in row-major order.

    A condition gives one integer node per factor, or None for a factor
    it leaves free: it asks a polynomial to vanish on the coordinate
    line (or at the point) those nodes cut out. Its rows are Kronecker
    products of the nodes' evaluation functionals with each unit vector
    of the free factors in turn, built here on the given cells only.
    """
    if not cells:
        return []
    rows = []
    for nodes in conditions:
        evals = [
            None if node is None else _eval_row(size, node)
            for size, node in zip(sizes, nodes)
        ]
        by_free: dict[tuple, list[int]] = {}
        for n, cell in enumerate(cells):
            v = prod(e[x - 1] for e, x in zip(evals, cell) if e is not None)
            if v:
                free = tuple(x for e, x in zip(evals, cell) if e is None)
                by_free.setdefault(free, [0] * len(cells))[n] = v
        rows.extend(by_free.values())
    if not rows:
        return [{cell: 1} for cell in cells]
    return [
        {cells[n]: v for n, v in enumerate(vec) if v}
        for vec in nullspace(rows, len(cells))
    ]


def _kept(mask: int, size: int) -> list[int]:
    """The value nodes 1..size whose bit (node - 1) is clear in mask."""
    return [n for n in range(1, size + 1) if not mask >> (n - 1) & 1]


def _past(mask: int, size: int) -> list[int]:
    """The nodes past size whose bit (node - 1) is set in mask."""
    return [c + 1 for c in _bits(mask >> size << size)]


def _past_lines(rows, m: int, n: int) -> list[tuple[int, int]]:
    """The lines (a, b) of a bit-row matrix (rows[a - 1] has bit b - 1
    set) that the value nodes 1..m x 1..n do not hold, in sorted order."""
    return [(a, b) for a, r in enumerate(rows, 1) for b in _past(r, n if a <= m else 0)]


def _fibres(j, row, col, points) -> dict[int, int]:
    """Each first-side value node y in 1..j+1 outside row, with the bit
    mask of the second-side nodes where its fibre must vanish (col, and
    the points with first coordinate y)."""
    padded = points[:j + 1] + (0,) * (j + 1 - len(points))
    return {
        y: col | mask
        for y, mask in enumerate(padded, start=1)
        if not row >> (y - 1) & 1
    }


def _kernel2(deg_pair, row, col, points, memo) -> list[dict]:
    """Basis of the joint kernel, inside P (x) Q, of the row conditions
    v_r (x) Q, the column conditions P (x) w_c and the single tensors
    v_b (x) w_c, as sparse {(y, z): value} dicts over value-grid cells
    (1-based): the basis nullspace gives on the whole grid.

    P has deg_pair[0]+1 value coordinates and indices up to
    len(points); Q has deg_pair[1]+1. row has bit r - 1 set for each
    row r and col bit c - 1 for each column c; points[b - 1] has bit
    c - 1 set for each point (b, c). _split_view puts the saturated
    factors of the pair first, so when P is not saturated neither is Q.

    The value-node conditions (the low j+1 bits of row, the low k+1
    bits of col and the points inside both) only zero cells, so each
    fibre y of _fibres keeps the nodes z that its mask s leaves (_kept),
    as each A-node does in _dense_kernel. When P is saturated every row
    and point sits at a value node of P, so the problem is one fibre
    problem per y, the nodes of s past k+1 on the nodes kept; their
    direct sum gives the same basis, in the same order. Otherwise the
    conditions past the value nodes (_past, _past_lines) are eliminated
    on the cells kept, as one dense block.

    Kept in the call's memo under (deg_pair, row, col, points), and so
    is each fibre's basis under (y, k, s): node problems that share a
    fibre share its dicts, which no caller modifies.
    """
    key = (deg_pair, row, col, points)
    if key in memo:
        return memo[key]
    j, k = deg_pair
    fibres = _fibres(j, row, col, points)
    if len(points) <= j + 1:
        out = []
        for y, s in fibres.items():
            fibre = memo.get((y, k, s))
            if fibre is None:
                fibre = memo[(y, k, s)] = _cell_kernel(
                    (j + 1, k + 1),
                    [(y, z) for z in _kept(s, k + 1)],
                    [(None, c) for c in _past(s, k + 1)],
                )
            out += fibre
    else:
        # most blocks have no cell left, and then no condition is built
        cells = [(y, z) for y, s in fibres.items() for z in _kept(s, k + 1)]
        out = [] if not cells else _cell_kernel(
            (j + 1, k + 1),
            cells,
            [(r, None) for r in _past(row, j + 1)]
            + [(None, c) for c in _past(col, k + 1)]
            + _past_lines(points, j + 1, k + 1),
        )
    memo[key] = out
    return out


def _dense_kernel(deg, X: VarietyOfLines) -> list[dict]:
    """Basis of I_deg in value coordinates, sparse {(x,y,z): value}, at a
    degree with no saturated factor: the kernel basis of one condition
    per line of X (see _cell_kernel) on the whole value grid.

    A line whose fixed nodes are both value nodes only zeroes cells (see
    _eval_row). So each A-node x <= i+1 keeps the cells of its fibres
    (_fibres of its AB and AC bit rows and the BC points) on their _kept
    C-nodes, and only the lines past the value nodes (_past_lines) are
    eliminated on them, in sorted line order. The basis is still the one
    nullspace gives on the whole grid. The dropped cells' unit vectors
    lie in the row space, so its pivot columns are the dropped cells
    plus the pivots of the reduced rows, which leaves the same free
    columns, and the kernel vector of a free column (primitive, positive
    there and zero at the other free columns) is unique.
    """
    i, j, k = deg
    masks = line_masks(X)
    ab, ac, bc = masks[3][0], masks[2][0], masks[1][0]
    cells = [  # d_A > i + 1, so ab and ac reach every A-node
        (x, y, z)
        for x, row, col in zip(range(1, i + 2), ab, ac)
        for y, s in _fibres(j, row, col, bc).items()
        for z in _kept(s, k + 1)
    ]
    return [] if not cells else _cell_kernel(
        (i + 1, j + 1, k + 1),
        cells,
        [(a, b, None) for a, b in _past_lines(ab, i + 1, j + 1)]
        + [(a, None, c) for a, c in _past_lines(ac, i + 1, k + 1)]
        + [(None, b, c) for b, c in _past_lines(bc, j + 1, k + 1)],
    )


def _saturation(deg, d) -> tuple:
    """Which factors are saturated at deg (d_f <= deg_f + 1), in order."""
    return d[0] <= deg[0] + 1, d[1] <= deg[1] + 1, d[2] <= deg[2] + 1


def _split_view(a, saturated, X: VarietyOfLines, memo):
    """X's problem at a degree with the saturation pattern saturated,
    split along the saturated axis a (d_a <= deg_a + 1: the deg_a + 1
    value nodes include every hyperplane of family a + 1), as one
    two-factor problem per node x of a.

    Returns the family order (a + 1 first, then the other two with the
    saturated ones first, each group in ascending order), its pick
    (family_permutation), and the direction-3, direction-2 and
    direction-1 bit rows of permute_masks(line_masks(X), order). The
    first two give the rows and the columns of each node of a (d_a of
    them; the nodes past d_a have none), the third the points, one bit
    row per second-family index. Kept in memo (a memo serves one
    variety) under a and saturated.
    """
    key = ("view", a, saturated)
    view = memo.get(key)
    if view is None:
        others = sorted({1, 2, 3} - {a + 1}, key=lambda f: (not saturated[f - 1], f))
        order = (a + 1, *others)
        masks = permute_masks(line_masks(X), order)
        pick = family_permutation(order)[0]
        view = memo[key] = order, pick, masks[3][0], masks[2][0], masks[1][0]
    return view


def _kernel3(deg, X: VarietyOfLines, memo):
    """Basis of I_deg in value coordinates, sparse {(x,y,z): value}:
    _dense_kernel when no factor is saturated, else the node slices of
    the split along the first saturated axis."""
    saturated = _saturation(deg, X.d)
    if not any(saturated):
        return _dense_kernel(deg, X)
    a = saturated.index(True)
    order, pick, rows, cols, points = _split_view(a, saturated, X, memo)
    i, j, k = pick(deg)
    # split-view cell -> cell in X's axis order
    unpermute = itemgetter(*(order.index(g) for g in (1, 2, 3)))
    return [
        {unpermute((x, y, z)): v for (y, z), v in g.items()}
        for r, c, x in zip_longest(rows, cols, range(1, i + 2), fillvalue=0)
        for g in _kernel2((j, k), r, c, points, memo)
    ]


def _node_dim(deg_pair, row, col, points, memo) -> int:
    """len(_kernel2(deg_pair, row, col, points, memo)), with no vector
    built when P is saturated: each fibre y of _fibres, with mask s,
    holds the polynomials of degree <= k that vanish at the s.bit_count()
    distinct nodes of s (its killed value nodes and its nodes past k+1),
    a space of dimension max(0, k + 1 - s.bit_count()). A dense block is
    solved by _kernel2. Kept in the call's memo."""
    key = ("dim", deg_pair, row, col, points)
    dim = memo.get(key)
    if dim is None:
        j, k = deg_pair
        if len(points) <= j + 1:
            dim = sum(
                max(0, k + 1 - s.bit_count())
                for s in _fibres(j, row, col, points).values()
            )
        else:
            dim = len(_kernel2(deg_pair, row, col, points, memo))
        memo[key] = dim
    return dim


def _dim3(deg, X: VarietyOfLines, memo) -> int:
    """dim I_deg, len(_kernel3(deg, X, memo)), as a sum of _node_dim over
    the nodes of _kernel3's split, walked as _kernel3 walks them (the
    nodes past d_a pose one problem, which the memo answers after the
    first). With no saturated factor it is the length of the dense
    kernel, which builds no condition row when no cell is left: a rank
    count was slower there."""
    saturated = _saturation(deg, X.d)
    if not any(saturated):
        return len(_dense_kernel(deg, X))
    a = saturated.index(True)
    _, pick, rows, cols, points = _split_view(a, saturated, X, memo)
    i, j, k = pick(deg)
    nodes = zip_longest(rows, cols, range(i + 1), fillvalue=0)
    return sum(_node_dim((j, k), r, c, points, memo) for r, c, _ in nodes)


def hilbert_oracle(X: VarietyOfLines, box) -> list:
    """Hilbert function table over the box (inclusive bounds).

    The table does not depend on labels, so X is compacted first and
    unused hyperplanes cost nothing past that one pass. H(t) = dim R_t -
    dim I_t is solved on the core box min(box_a, max(d_a, 1)) only.
    dim I_t is counted, not built: _dim3 sums one count per node slice
    of the split along the first saturated axis (_split_view), and a
    slice whose first factor is saturated is counted fibre by fibre
    (_node_dim), with no kernel vector built. A degree with no
    saturated factor is counted as the length of _dense_kernel.

    Along any axis a, H is affine in t_a once t_a >= d_a - 1. Then
    factor a is saturated, and I_t is the direct sum of node slices
    along a, one per value node x (the split of _split_view, which
    generator_degree_scan's proof also uses), each in the other two
    degrees alone. A node x <= d_a carries the lines on hyperplane x of
    family a and the points of the other lines; each node past d_a
    carries the points only, so all of those pose one problem. So
    dim I_t = F + (t_a + 1 - d_a) E and dim R_t = (t_a + 1) G, with F,
    E and G independent of t_a, and H(t) = 2 H(t - e_a) - H(t - 2 e_a)
    once t_a - 2 >= d_a - 1. With core_a = max(d_a, 1) the core holds
    t_a = core_a - 1 and core_a, both >= d_a - 1, so the rule fills
    every t_a > core_a: axis 3 on the core's rows, then 2, then 1.
    """
    bi, bj, bk = box = check_table_box(box)
    X = compact(X)
    memo: dict = {}
    table = box_table(
        tuple(min(b, max(n, 1)) for b, n in zip(box, X.d)),
        lambda t: prod(n + 1 for n in t) - _dim3(t, X, memo),
    )
    for plane in table:
        for row in plane:
            while len(row) <= bk:
                row.append(2 * row[-1] - row[-2])
        while len(plane) <= bj:
            plane.append([2 * x - y for x, y in zip(plane[-1], plane[-2])])
    while len(table) <= bi:
        table.append([
            [2 * x - y for x, y in zip(r1, r2)]
            for r1, r2 in zip(table[-1], table[-2])
        ])
    return table


# ---------------------------------------------------------------------------
# generator degree scan
# ---------------------------------------------------------------------------

def _multiplied_rows(g: dict, axis: int, coeffs: list[int]):
    """The two degree-one multiples of a value vector, extended along
    one factor from node_count to node_count+1 nodes.

    Multiplying by the factor's constant coordinate keeps the values;
    multiplying by the parameter coordinate scales each cell by its
    node. Both need the polynomial extension value at the new node,
    coeffs = extension_coeffs(node_count), so node_count = len(coeffs).
    """
    node_count = len(coeffs)
    groups: dict[tuple, dict[int, int]] = {}
    for cell, v in g.items():
        key = cell[:axis] + cell[axis + 1:]
        groups.setdefault(key, {})[cell[axis]] = v
    row0 = dict(g)
    for key, vals in groups.items():
        ext = sum(coeffs[x - 1] * v for x, v in vals.items())
        if ext:
            cell = key[:axis] + (node_count + 1,) + key[axis:]
            row0[cell] = ext
    row1 = {cell: cell[axis] * v for cell, v in row0.items()}
    return row0, row1


def _grown_rows(t, kernels) -> list[dict]:
    """Rows spanning the degree-one multiples at t of the kernel bases
    one step below (kernels[t - e_a] for each axis a with t_a > 0), two
    rows per kernel vector and axis, in any number of factors.

    A kernel vector g whose cells all sit on one node x of axis a gives
    the copy rule. Its two multiples are g + c_x g' and x g + (t_a + 1)
    c_x g', with g' the copy of g at the new node t_a + 1 and c_x =
    extension_coeffs(t_a)[x - 1] != 0; their determinant c_x (t_a + 1 -
    x) is nonzero, as x <= t_a, so the pair spans exactly {g, g'}, and
    those two are the rows. That holds whether or not a is saturated; on
    a saturated axis every kernel vector sits on one node. A vector
    spread over several nodes of a gives its two multiples
    (_multiplied_rows).
    """
    rows: list[dict] = []
    for axis in range(len(t)):
        if t[axis] == 0:
            continue
        below = kernels[t[:axis] + (t[axis] - 1,) + t[axis + 1:]]
        new = t[axis] + 1
        coeffs = None
        for g in below:
            cells = iter(g)
            x = next(cells)[axis]
            if all(c[axis] == x for c in cells):
                rows.append(g)
                rows.append(
                    {c[:axis] + (new,) + c[axis + 1:]: v for c, v in g.items()}
                )
            else:
                if coeffs is None:
                    coeffs = extension_coeffs(t[axis])
                rows.extend(_multiplied_rows(g, axis, coeffs))
    return rows


def _face_rows(a, t, X: VarietyOfLines, memo, faces):
    """dim K_inf(t') and rows spanning the grown rows that land in it, at
    a degree t with 1 <= d_a = t_a (see generator_degree_scan).

    K_inf(t') is the points-only problem of the nodes past d_a, in the
    other two degrees t': the split along a (_split_view), which need
    not be the first saturated axis, orders the pair saturated first so
    that _kernel2 takes its fibre branch. Its basis is kept in faces[t],
    with the pair order, for the degrees t + e_b; a basis solved in the
    other order is transposed, not solved again.
    """
    order, pick, rows, cols, points = _split_view(a, _saturation(t, X.d), X, memo)
    _, j, k = pick(t)
    pair = order[1:]
    inf = _kernel2((j, k), 0, 0, points, memo)
    faces[t] = pair, inf
    if not inf:
        return 0, []
    grown = [g for r, c in zip(rows, cols) for g in _kernel2((j, k), r, c, points, memo)]
    below = {}
    for n, f in enumerate(pair):
        if t[f - 1]:
            s = t[:f - 1] + (t[f - 1] - 1,) + t[f:]
            pair_s, basis = faces[s]
            if pair_s != pair:
                basis = [{(z, y): v for (y, z), v in g.items()} for g in basis]
            below[(j - 1, k) if n == 0 else (j, k - 1)] = basis
    grown += _grown_rows((j, k), below)
    return len(inf), grown


def generator_degree_scan(X: VarietyOfLines, box) -> dict:
    """Multidegrees (and counts) of minimal ideal generators in the box.

    For each multidegree t, computes dim I_t minus the span of the six
    degree-one multiples of the kernels one step below (_grown_rows);
    positive differences are minimal generators. That span lies inside
    I_t, so the elimination stops as soon as its rank reaches dim I_t:
    past that point no row can change the count. The counts do not
    depend on labels, so X is compacted first.

    Only the box clipped to X.d is scanned, because no minimal generator
    has t_a > d_a. Say t_a > d_a. Then axis a is saturated at t - e_a
    and at t. By the value-coordinate split, I_t is the direct sum of
    node slices K_x, one per node x of axis a, and the kernel at t - e_a
    is the sum of the same slices at nodes 1..t_a, which the copy rule
    emits unchanged. Nodes t_a and t_a + 1 both lie past every
    hyperplane of family a, so both slices are the kernel of the free
    lines' point conditions alone, and the copy rule also emits the copy
    of node t_a's kernel at node t_a + 1. So the grown span is all of
    I_t and the count is 0. The kernels past d are never needed either,
    since t + e_b is past d whenever t is. The dict is the one the full
    box gives, key order included: it only holds nonzero counts. So the
    scan warns exactly when the box, not d, sets the clip on some axis.

    Three-factor kernels (_kernel3) are built only in the interior,
    where no axis has 1 <= d_a = t_a; the degrees one step below an
    interior degree are interior too. On a face, where 1 <= d_a = t_a
    (the first such a), axis a is saturated at t and at every t - e_f,
    so each of these pieces is the direct sum of its node slices along
    a, and every grown row lies in one slice: the copy rule along a
    gives g on node x and its copy g' on node d_a + 1, and the multiples
    along b != a keep the a-node. For x <= d_a the rows g are the whole
    slice K_x(t'), the two-factor problem at the other degrees t', so no
    generator sits there. The slice at node d_a + 1 is K_inf(t'), the
    points-only problem of the nodes past d_a. The rows in it are the
    copies g' (every K_x(t') for x <= d_a) and the two-factor grown rows
    of K_inf(t' - e_b) for the other two axes b, which are the face
    bases at t - e_b. So the count at t is dim K_inf(t') minus the rank
    of those rows (_face_rows).
    """
    box = check_box(box)
    X = compact(X)
    if any(b < n for b, n in zip(box, X.d)):
        warnings.warn(
            f"box {box} may miss generators up to {X.d}",
            BoxTooSmallWarning,
        )
    memo: dict = {}
    kernels: dict[tuple, list[dict]] = {}
    faces: dict[tuple, tuple] = {}
    found: dict[tuple, int] = {}
    d = X.d
    for t in _boxrange(tuple(map(min, box, d))):
        a = next((f for f in range(3) if 0 < t[f] == d[f]), None)
        if a is None:
            kernels[t] = _kernel3(t, X, memo)
            dim = len(kernels[t])
            rows = _grown_rows(t, kernels) if dim else []
        else:
            dim, rows = _face_rows(a, t, X, memo, faces)
        if dim:
            count = dim - sparse_rank(rows, dim)
            if count:
                found[t] = count
    return found


# ---------------------------------------------------------------------------
# face ring (Stanley-Reisner) route
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimplicialComplex:
    vertices: tuple
    facets: frozenset


def stanley_reisner_complex(X: VarietyOfLines) -> SimplicialComplex:
    """Complex whose facets are vertex complements of incidence edges, on
    the hyperplanes some line uses (an unused one is a cone point)."""
    if X.is_empty:
        raise EmptyVariety("face-ring test needs at least one line")
    G = build_graph(X)
    vertices = tuple(v for v, mask in zip(G.vertices, G.masks) if mask)
    if len(vertices) > MAX_REISNER_VERTICES:
        raise SizeLimit(
            f"face-ring test limited to {MAX_REISNER_VERTICES} vertices, "
            f"got {len(vertices)}"
        )
    vset = frozenset(vertices)
    facets = frozenset(vset - {u, v} for (u, v) in G.edges)
    assert len({len(f) for f in facets}) == 1  # pure by construction
    return SimplicialComplex(vertices=vertices, facets=facets)


def _independence_homology_vanishes(adj, W: int) -> bool:
    """H~_q(Ind(G[W]); Q) = 0 for every q >= 1, where adj holds G's
    adjacency bitmasks and W is a vertex bitmask.

    Faces are bitmasks. Each face of size s + 1 is a face of size s
    grown by a vertex of W above its highest one and adjacent to none of
    it, so each independent set is made once. q = s - 1 is the
    dimension of the faces of size s.
    """
    layers = [[0]]
    while layers[-1]:
        layers.append([
            f | 1 << v
            for f in layers[-1]
            for v in _bits(W >> f.bit_length() << f.bit_length())
            if not adj[v] & f
        ])
    # ranks[s]: rank of the boundary map from faces of size s to size
    # s - 1, needed for s >= 2 only
    ranks = [0, 0] + [
        sparse_rank([
            {f ^ 1 << v: (-1) ** n for n, v in enumerate(_bits(f))}
            for f in layer
        ])
        for layer in layers[2:]
    ]
    return all(
        len(layers[s]) == ranks[s] + ranks[s + 1]
        for s in range(2, len(layers) - 1)
    )


def reisner_cm(cx: SimplicialComplex) -> bool:
    """Reisner's criterion over the rationals, in its Alexander-dual form.

    The facets are V - e for the edges e of a graph G, so V - W is a face
    iff G[W] has an edge, and its link is dual within W to the
    independence complex Ind(G[W]): H~_i(link) = H~^(|W| - i - 3)(Ind(G[W])).
    So the link's homology vanishes below its dimension |W| - 3 iff
    H~_q(Ind(G[W]); Q) = 0 for all q >= 1 (Hochster 1977; Eagon and
    Reiner 1998). Ind(G[W]) is a cone, with no reduced homology, when a
    vertex of W has no neighbour in W, so only the other W are tested.
    """
    vset = frozenset(cx.vertices)
    adj = Graph.from_edges(cx.vertices, (tuple(vset - f) for f in cx.facets)).masks
    return all(
        _independence_homology_vanishes(adj, W)
        for W in range(1 << len(adj))
        if all(adj[v] & W for v in _bits(W))
    )
