"""Incidence graph of a variety of lines, its complement, and chordality.

The incidence graph has one vertex per hyperplane and one edge per line
(joining the two hyperplanes that cut the line out); it is tripartite by
construction. The package's main combinatorial criterion looks at the
complement graph, where same-family vertex pairs are always adjacent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import SizeLimit
from .variety import (
    DIRECTION_FAMILIES,
    FAMILY_NAMES,
    HyperplaneId,
    VarietyOfLines,
)

MAX_CYCLE_SEARCH_VERTICES = 18


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with a fixed, ordered vertex tuple."""

    vertices: tuple[HyperplaneId, ...]
    edges: frozenset[tuple[HyperplaneId, HyperplaneId]]

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def ordinal(self) -> dict[HyperplaneId, int]:
        """Position of each vertex in the vertex tuple."""
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def adj(self) -> dict[HyperplaneId, set[HyperplaneId]]:
        """Neighbour set of each vertex."""
        adj: dict[HyperplaneId, set[HyperplaneId]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def has_edge(self, u: HyperplaneId, v: HyperplaneId) -> bool:
        return v in self.adj.get(u, ())


def build_graph(X: VarietyOfLines) -> Graph:
    """Incidence graph: vertices are hyperplanes, edges are lines.

    Vertices are family-major and DIRECTION_FAMILIES pairs ascend, so
    each edge lists its earlier vertex first."""
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
    return Graph(vertices=vertices, edges=frozenset(edges))


def complement(G: Graph) -> Graph:
    edges = frozenset(
        (u, v) for u, v in combinations(G.vertices, 2) if not G.has_edge(u, v)
    )
    return Graph(vertices=G.vertices, edges=edges)


def is_induced_cycle(G: Graph, cycle) -> bool:
    """Check that the vertex sequence is a chordless cycle of G."""
    n = len(cycle)
    if n < 4 or len(set(cycle)) != n:
        return False
    for i, j in combinations(range(n), 2):
        consecutive = j - i in (1, n - 1)
        if G.has_edge(cycle[i], cycle[j]) != consecutive:
            return False
    return True


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
            # descending, so no vertex moves twice
            levels.append(0)
            for k in range(top, -1, -1):
                moving = levels[k] & rising
                if moving:
                    levels[k] ^= moving
                    levels[k + 1] |= moving
            top += 1
    return None


def is_chordal(G: Graph):
    """Maximum-cardinality-search chordality test with a cycle certificate.

    Returns (True, None) or (False, cycle) where the cycle is a
    chordless cycle of length >= 4, canonicalized. The search itself is
    _mcs_failure, on the vertices' positions in G.vertices.

    Why the certificate always exists: in a maximum cardinality search
    order, G is chordal iff every vertex's earlier neighbours are all
    adjacent to the latest of them, u (Tarjan and Yannakakis 1984). When
    this fails at v for a neighbour w, the search order joins u and w by
    a path through earlier vertices outside N(v) (their 1985 addendum).
    A shortest such path has no chord, v is adjacent only to its ends
    and u, w are not adjacent, so with v it is a chordless cycle of
    length >= 4.
    """
    ordinal, adj = G.ordinal, G.adj
    masks = [sum(1 << ordinal[w] for w in adj[v]) for v in G.vertices]
    failure = _mcs_failure(masks)
    if failure is None:
        return True, None
    v, u, w, pos = failure
    vertices = G.vertices
    return False, _extract_cycle(G, pos, vertices[v], vertices[u], vertices[w])


def _extract_cycle(G, pos, v, u, w):
    """Chordless cycle through v from a failed elimination check.

    u and w are earlier neighbors of v that are non-adjacent; a shortest
    u-w path avoiding N[v] among earlier vertices closes an induced
    cycle. pos lists the search step of each vertex by its position in
    G.vertices.
    """
    ordinal = G.ordinal
    allowed = {
        x for x in G.vertices
        if pos[ordinal[x]] < pos[ordinal[v]] and x not in G.adj[v]
    }
    allowed |= {u, w}
    parent = {u: None}
    frontier = [u]
    while frontier and w not in parent:
        nxt = []
        for x in frontier:
            for y in sorted(G.adj[x] & allowed, key=lambda t: ordinal[t]):
                if y not in parent:
                    parent[y] = x
                    nxt.append(y)
        frontier = nxt
    path = [w]
    while parent.get(path[-1]) is not None:
        path.append(parent[path[-1]])
    path.reverse()
    cycle = canonical_cycle([v] + path, ordinal)
    assert is_induced_cycle(G, cycle), cycle
    return cycle


def chordless_cycles(G: Graph, max_len: int = 6) -> list[tuple]:
    """All chordless cycles of length 4..max_len, canonicalized, sorted."""
    if G.vertex_count > MAX_CYCLE_SEARCH_VERTICES:
        raise SizeLimit(
            f"cycle enumeration limited to {MAX_CYCLE_SEARCH_VERTICES} "
            f"vertices, got {G.vertex_count}"
        )
    ordinal, adj = G.ordinal, G.adj
    out = set()
    for size in range(4, max_len + 1):
        for subset in combinations(G.vertices, size):
            sset = set(subset)
            degs = {v: len(adj[v] & sset) for v in subset}
            if any(d != 2 for d in degs.values()):
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


def graph_to_dot(G: Graph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    for v in G.vertices:
        lines.append(f'  "{v}";')
    ordinal = G.ordinal
    for u, v in sorted(G.edges, key=lambda e: (ordinal[e[0]], ordinal[e[1]])):
        lines.append(f'  "{u}" -- "{v}";')
    lines.append("}")
    return "\n".join(lines)
