"""Incidence graph of a variety of lines, its complement, and chordality.

The incidence graph has one vertex per hyperplane and one edge per line
(joining the two hyperplanes that cut the line out); it is tripartite by
construction. The package's main combinatorial criterion looks at the
complement graph, where same-family vertex pairs are always adjacent.
A graph is held as one adjacency bitmask per vertex, filled straight
from X's lines, so the complement flips bits and the chordality search
runs on the masks as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .variety import DIRECTION_FAMILIES, FAMILY_NAMES, HyperplaneId, VarietyOfLines


def _bits(mask: int):
    """The positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on a fixed, ordered vertex tuple, held as
    adjacency bitmasks: bit m of masks[n] is set when vertices n and m
    (positions in the tuple) are adjacent."""

    vertices: tuple
    masks: tuple[int, ...]

    @classmethod
    def from_edges(cls, vertices, edges) -> Graph:
        """The graph on vertices with the given edges (vertex pairs)."""
        vertices = tuple(vertices)
        ordinal = {v: n for n, v in enumerate(vertices)}
        masks = [0] * len(vertices)
        for u, v in edges:
            masks[ordinal[u]] |= 1 << ordinal[v]
            masks[ordinal[v]] |= 1 << ordinal[u]
        return cls(vertices, tuple(masks))

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.masks) // 2

    @property
    def edges(self) -> tuple:
        """Every edge once, its earlier vertex first, in vertex order."""
        vertices = self.vertices
        return tuple(
            (vertices[n], vertices[m])
            for n, mask in enumerate(self.masks)
            for m in _bits(mask >> (n + 1) << (n + 1))
        )

    @cached_property
    def ordinal(self) -> dict:
        """Position of each vertex in the vertex tuple."""
        return {v: n for n, v in enumerate(self.vertices)}


def _incidence_masks(X: VarietyOfLines) -> list[int]:
    """The incidence graph's adjacency bitmasks, in build_graph's vertex
    order (family-major: A1.., B1.., C1..), from one pass over X's lines."""
    offsets = (0, X.d[0], X.d[0] + X.d[1])
    masks = [0] * sum(X.d)
    for direction, (fam_p, fam_q) in DIRECTION_FAMILIES.items():
        off_p, off_q = offsets[fam_p - 1] - 1, offsets[fam_q - 1] - 1
        for p, q in X.u(direction):
            masks[off_p + p] |= 1 << (off_q + q)
            masks[off_q + q] |= 1 << (off_p + p)
    return masks


def _complement_masks(masks) -> list[int]:
    """The complement's adjacency bitmasks: each vertex's bits flipped,
    but its own."""
    full = (1 << len(masks)) - 1
    return [full ^ (1 << n) ^ mask for n, mask in enumerate(masks)]


def build_graph(X: VarietyOfLines) -> Graph:
    """Incidence graph: vertices are hyperplanes, edges are lines."""
    vertices = tuple(
        HyperplaneId(name, i)
        for name, count in zip(FAMILY_NAMES, X.d)
        for i in range(1, count + 1)
    )
    return Graph(vertices, tuple(_incidence_masks(X)))


def complement(G: Graph) -> Graph:
    return Graph(G.vertices, tuple(_complement_masks(G.masks)))


def is_induced_cycle(G: Graph, cycle) -> bool:
    """Check that the vertex sequence is a chordless cycle of G."""
    n, ordinal = len(cycle), G.ordinal
    if n < 4 or len(set(cycle)) != n or not all(v in ordinal for v in cycle):
        return False
    at = [ordinal[v] for v in cycle]
    on_cycle = sum(1 << x for x in at)
    return all(
        G.masks[x] & on_cycle == 1 << at[i - 1] | 1 << at[(i + 1) % n]
        for i, x in enumerate(at)
    )


def canonical_cycle(cycle, ordinal) -> tuple:
    """Lexicographically least rotation/reflection of a cyclic sequence."""
    seqs = []
    n = len(cycle)
    for base in (list(cycle), list(reversed(cycle))):
        for s in range(n):
            seqs.append(tuple(base[s:] + base[:s]))
    return min(seqs, key=lambda t: tuple(ordinal[v] for v in t))


def _mcs_failure(adj):
    """Maximum cardinality search with the Tarjan-Yannakakis check, on
    adjacency bitmasks: vertex n is bit n, and adj[n] is its neighbours.

    The search visits an unvisited vertex with the most visited
    neighbours, the lowest index on ties. Each vertex v is checked as it
    is visited: its visited neighbours must all be adjacent to the
    latest of them, u. Returns None when every check passes (the graph
    is chordal), else (v, u, w, pos) for the first failure, with w the
    lowest-index visited neighbour of v not adjacent to u, and pos[n]
    the step at which vertex n was visited (len(adj) if it was not).
    """
    n = len(adj)
    levels = [(1 << n) - 1]  # levels[k]: unvisited, k visited neighbours
    top = 0
    pos = [n] * n
    order: list[int] = []
    visited = 0
    for step in range(n):
        while not levels[top]:
            top -= 1
        low = levels[top] & -levels[top]
        levels[top] ^= low
        v = low.bit_length() - 1
        pos[v] = step
        earlier = adj[v] & visited
        if earlier:
            u = next(x for x in reversed(order) if earlier >> x & 1)
            missing = earlier & ~adj[u] & ~(1 << u)
            if missing:
                return v, u, (missing & -missing).bit_length() - 1, pos
        order.append(v)
        visited |= low
        rising = adj[v] & ~visited
        if rising:
            # descending, so no vertex moves twice; stop once every
            # rising vertex has moved, so empty levels are not walked
            levels.append(0)
            for k in range(top, -1, -1):
                moving = levels[k] & rising
                if moving:
                    levels[k] ^= moving
                    levels[k + 1] |= moving
                    rising ^= moving
                    if not rising:
                        break
            top += 1
    return None


def is_chordal(G: Graph):
    """Maximum-cardinality-search chordality test with a cycle certificate.

    Returns (True, None) or (False, cycle) where the cycle is a
    chordless cycle of length >= 4, canonicalized. The search itself is
    _mcs_failure, on G.masks.

    Why the certificate always exists: in a maximum cardinality search
    order, G is chordal iff every vertex's earlier neighbours are all
    adjacent to the latest of them, u (Tarjan and Yannakakis 1984). When
    this fails at v for a neighbour w, the search order joins u and w by
    a path through earlier vertices outside N(v) (their 1985 addendum).
    A shortest such path has no chord, v is adjacent only to its ends
    and u, w are not adjacent, so with v it is a chordless cycle of
    length >= 4.
    """
    failure = _mcs_failure(G.masks)
    if failure is None:
        return True, None
    return False, _extract_cycle(G, *failure)


def _extract_cycle(G, v, u, w, pos):
    """Chordless cycle through v from a failed elimination check.

    u and w are earlier neighbors of v that are non-adjacent; a shortest
    u-w path avoiding N[v] among earlier vertices closes an induced
    cycle, found breadth-first with neighbours taken in ascending
    position. v, u, w are positions in G.vertices, and pos[n] is the
    search step of vertex n.
    """
    masks = G.masks
    earlier = sum(1 << x for x, step in enumerate(pos) if step < pos[v])
    allowed = earlier & ~masks[v] | 1 << u | 1 << w
    parent = {u: None}
    reached = 1 << u
    frontier = [u]
    while frontier and not reached >> w & 1:
        nxt = []
        for x in frontier:
            for y in _bits(masks[x] & allowed & ~reached):
                parent[y] = x
                nxt.append(y)
            reached |= masks[x] & allowed
        frontier = nxt
    path = [w]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    vertices = G.vertices
    cycle = canonical_cycle([vertices[x] for x in [v] + path[::-1]], G.ordinal)
    assert is_induced_cycle(G, cycle), cycle
    return cycle


def graph_to_dot(G: Graph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    for v in G.vertices:
        lines.append(f'  "{v}";')
    for u, v in G.edges:
        lines.append(f'  "{u}" -- "{v}";')
    lines.append("}")
    return "\n".join(lines)
