"""Simple undirected graphs on dense integer vertex ids, plus degree queries.

Vertices are 0..n-1. The only adjacency store is one int bitmask per vertex:
bit u of row v is set when uv is an edge, so a row costs about n/8 bytes
whatever the degree. Degrees are popcounts, and neighbour tuples and edge
lists are read off the set bits in ascending order on request. Graphs are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator


class Graph:
    """Immutable simple undirected graph."""

    __slots__ = ("_n", "_masks", "_edge_count")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()):
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        n = self._n = int(vertex_count)
        masks = [0] * n
        for u, v in edges:
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for {n} vertices")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._masks = tuple(masks)
        self._edge_count = sum(m.bit_count() for m in masks) // 2

    @property
    def n(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return tuple(bits(self._masks[v]))

    def neighbor_mask(self, v: int) -> int:
        self._check_vertex(v)
        return self._masks[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self._masks[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        for u, mask in enumerate(self._masks):
            for v in bits(mask >> (u + 1)):
                yield (u, u + 1 + v)

    def full_mask(self) -> int:
        return (1 << self._n) - 1

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self._n):
            raise ValueError(f"vertex {v} out of range for {self._n} vertices")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._masks == other._masks

    def __hash__(self):
        return hash((self._n, self._masks))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self._edge_count})"


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask of a vertex set."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Vertices of a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def degree_into(g: Graph, v: int, members: Iterable[int] | int) -> int:
    """Number of neighbors of v inside the given vertex set.

    `members` may be an iterable of vertex ids or a precomputed bitmask
    (useful in hot loops). Membership of v itself is irrelevant since the
    graph has no self-loops.
    """
    mask = members if isinstance(members, int) else mask_of(members)
    if mask >> g.n:
        raise ValueError("member set contains out-of-range vertices")
    return (g.neighbor_mask(v) & mask).bit_count()


def induced(g: Graph, members: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on a vertex set, with the id-relabeling map.

    Returns (subgraph, mapping) where mapping is the bijection from the
    original ids (sorted ascending) onto 0..len(members)-1.
    """
    vs = sorted(set(members))
    if vs and not (0 <= vs[0] and vs[-1] < g.n):
        raise ValueError("member set contains out-of-range vertices")
    index = {v: i for i, v in enumerate(vs)}
    mask = mask_of(vs)
    edges = []
    for v in vs:
        for u in bits(g.neighbor_mask(v) & mask):
            if u > v:
                edges.append((index[v], index[u]))
    return Graph(len(vs), edges), index


def min_degree(g: Graph) -> int | None:
    """Minimum degree, or None for the empty graph."""
    if g.n == 0:
        return None
    return min(g.degree(v) for v in range(g.n))


def regular_degree(g: Graph) -> int:
    """The common degree of a regular graph; ValueError if not regular."""
    degs = {g.degree(v) for v in range(g.n)}
    if len(degs) != 1:
        raise ValueError("graph is not regular")
    return degs.pop()


def bipartite_min_degree(g: Graph, a: Iterable[int], b: Iterable[int]) -> int | None:
    """Minimum cross-degree in the bipartite subgraph induced by disjoint a, b.

    The minimum ranges over all of a (counting neighbors in b) and all of b
    (counting neighbors in a). Returns None if either side is empty.
    """
    sa, sb = sorted(set(a)), sorted(set(b))
    ma, mb = mask_of(sa), mask_of(sb)
    if ma & mb:
        raise ValueError("sides of a bipartite query must be disjoint")
    if (ma | mb) >> g.n:
        raise ValueError("side contains out-of-range vertices")
    if not sa or not sb:
        return None
    da = min((g.neighbor_mask(v) & mb).bit_count() for v in sa)
    db = min((g.neighbor_mask(v) & ma).bit_count() for v in sb)
    return min(da, db)


# --- edge-list text format ---------------------------------------------------
# First line "N M", then M lines "u v" with 0 <= u < v < N. The reader rejects
# loops, duplicates, out-of-range ids and count mismatches.


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty edge-list document")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"header must be 'N M', got {lines[0]!r}")
    n, m = int(head[0]), int(head[1])
    if n < 0 or m < 0:
        raise ValueError("negative counts in header")
    if len(lines) - 1 != m:
        raise ValueError(f"header declares {m} edges, found {len(lines) - 1}")
    seen = set()
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if u == v:
            raise ValueError(f"loop edge {u} {v}")
        if not (0 <= u < v < n):
            raise ValueError(f"edge {u} {v} violates 0 <= u < v < {n}")
        if (u, v) in seen:
            raise ValueError(f"duplicate edge {u} {v}")
        seen.add((u, v))
        edges.append((u, v))
    return Graph(n, edges)


def write_edge_list(g: Graph, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_edge_list(g))


def read_edge_list(path: str | os.PathLike) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_edge_list(fh.read())


def to_dot(g: Graph, name: str = "G") -> str:
    """DOT document for visualization."""
    lines = [f"graph {name} {{"]
    lines.extend(f"  {v};" for v in range(g.n))
    lines.extend(f"  {u} -- {v};" for u, v in g.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"
