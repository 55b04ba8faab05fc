"""Simple undirected graphs on dense integer vertex ids, degree queries, and
the edge-list text format.

Vertices are 0..n-1. The only adjacency store is one int bitmask per vertex:
bit u of row v is set when uv is an edge, so a row costs about n/8 bytes
whatever the degree. Degrees are popcounts; neighbour tuples and edge lists
are read off the set bits in ascending order. Graphs are immutable and safe
to share across threads. Edge lists are read by an accept-only array pass in
front of a line reader that states the grammar and names every fault.
"""

from __future__ import annotations

import os
import re
from collections.abc import Iterable, Iterator

import numpy as np


class Graph:
    """Immutable simple undirected graph."""

    __slots__ = ("_n", "_masks", "_edge_count")

    def __init__(self, vertex_count: int,
                 edges: Iterable[tuple[int, int]] | np.ndarray = ()):
        """Edges are pairs or an (m, 2) integer array; repeats collapse. An id
        out of range, and after that a loop, names the first such edge."""
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        n = int(vertex_count)
        edges = edges if isinstance(edges, np.ndarray) else list(edges)
        try:
            uv = np.asarray(edges, np.int64)
        except OverflowError:  # an id past int64
            raise _out_of_range(*next((u, v) for u, v in edges
                                      if not (0 <= u < n and 0 <= v < n)), n) from None
        if uv.size and (uv.ndim != 2 or uv.shape[1] != 2):
            raise ValueError("edges must be (u, v) pairs")
        u, v = uv.reshape(-1, 2).T
        out = (u < 0) | (u >= n) | (v < 0) | (v >= n)
        if out.any():
            raise _out_of_range(u[out.argmax()], v[out.argmax()], n)
        if (u == v).any():
            raise ValueError(f"self-loop at vertex {u[(u == v).argmax()]}")
        try:
            masks = [0] * n
        except (OverflowError, MemoryError):  # past what a list can hold
            raise ValueError(f"vertex count {n} is too large") from None
        if len(u):  # one matrix row per vertex with an edge
            touched = np.zeros(n, bool)
            touched[u] = touched[v] = True
            slot = np.cumsum(touched) - 1
            adj = np.zeros((int(slot[-1]) + 1, n), bool)
            adj[slot[u], v] = adj[slot[v], u] = True
            for i, row in zip(np.flatnonzero(touched).tolist(), pack_rows(adj)):
                masks[i] = row
        self._store(masks)

    @classmethod
    def _from_rows(cls, masks: list[int]) -> Graph:
        """Graph of bitmask rows that are valid by construction, unchecked."""
        g = cls.__new__(cls)
        g._store(masks)
        return g

    def _store(self, masks: list[int]) -> None:
        self._n = len(masks)
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


def _out_of_range(u: int, v: int, n: int) -> ValueError:
    return ValueError(f"edge ({u},{v}) out of range for {n} vertices")


def pack_rows(adj: np.ndarray) -> list[int]:
    """One int bitmask per row of a boolean matrix: bit j of row i is adj[i, j]."""
    packed = np.packbits(adj, axis=1, bitorder="little")
    return [int.from_bytes(row, "little") for row in packed]


def _unpack_rows(g: Graph, vs) -> np.ndarray:
    """0/1 matrix of the rows of the vertices vs, one column per vertex of g."""
    width = (g.n + 7) // 8
    rows = np.frombuffer(b"".join(g._masks[v].to_bytes(width, "little") for v in vs), np.uint8)
    return np.unpackbits(rows.reshape(len(vs), width), axis=1, count=g.n, bitorder="little")


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
    return Graph._from_rows(pack_rows(_unpack_rows(g, vs)[:, vs])), index


def min_degree(g: Graph) -> int | None:
    """Minimum degree, or None for the empty graph."""
    return min(map(int.bit_count, g._masks), default=None)


def regular_degree(g: Graph) -> int:
    """The common degree of a regular graph; ValueError if not regular."""
    degs = set(map(int.bit_count, g._masks))
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
# "N M", then M lines "u v" with 0 <= u < v < N and no pair twice; the line
# reader states the whole grammar, and the array pass hands it every document
# it does not accept. The writer emits "N M\n", then "u v\n" per edge, sorted.

_CLASS = np.full(256, 3, np.uint8)  # 0 separator, 1 line end, 2 digit, 3 other
_CLASS[[ord(" "), ord("\t")]] = 0
_CLASS[[ord("\n"), ord("\r")]] = 1
_CLASS[ord("0"):ord("9") + 1] = 2
_EDGE_LINE = re.compile(r"[ \t]*-?[0-9]+[ \t]+-?[0-9]+[ \t]*")


def format_edge_list(g: Graph) -> str:
    u, v = np.nonzero(np.triu(_unpack_rows(g, range(g.n)), 1))
    w = len(str(max(g.n - 1, 0)))
    # each id's digits, NUL-padded to the widest id; the NULs are dropped below
    digits = np.arange(g.n).astype(f"S{w}").view(np.uint8).reshape(-1, w)
    lines = np.zeros((len(u), 2 * w + 2), np.uint8)
    lines[:, :w], lines[:, w] = digits[u], ord(" ")
    lines[:, w + 1:-1], lines[:, -1] = digits[v], ord("\n")
    return f"{g.n} {g.edge_count}\n" + lines[lines != 0].tobytes().decode("ascii")


def parse_edge_list(text: str) -> Graph:
    """Graph of an edge-list document. A ValueError names the first fault:
    the header, the line count, the first bad edge line (malformed, u >= v
    or an id out of range), or the first repeated pair."""
    return _array_pass(text) or _read_lines(text)


def _array_pass(text: str) -> Graph | None:
    """Graph of a faultless document of digits, spaces, tabs and line ends, else None."""
    cls = _CLASS[np.frombuffer(text.encode("ascii", "replace"), np.uint8)]
    if (cls == 3).any():  # "?" stands in for each non-ASCII character
        return None
    digit = cls == 2
    # a 1 per line end and a 2 per token start, in document order
    marks = cls[(cls == 1) | (digit & np.diff(digit, prepend=False))]
    del cls, digit  # free before the values are read: the peak stays low
    per_line = np.diff(np.flatnonzero(marks == 1), prepend=-1, append=len(marks)) - 1
    if not ((per_line == 0) | (per_line == 2)).all():  # each line holds 0 or 2 tokens
        return None
    values = np.fromstring(text, np.int64, sep=" ")  # [0] for blank text
    if len(values) < 2 or values.max() == np.iinfo(np.int64).max:  # the overflow value
        return None
    n, m = values[:2].tolist()
    uv = values[2:].reshape(-1, 2)
    if m != len(uv) or (uv[:, 0] >= uv[:, 1]).any():
        return None
    try:
        g = Graph(n, uv)
    except ValueError:  # an id out of range, or a vertex count too large to hold
        return None
    return g if g.edge_count == m else None


def _read_lines(text: str) -> Graph:
    """Graph of an edge-list document read a line at a time; see parse_edge_list."""
    lines = [ln for ln in re.split(r"\r\n|\r|\n", text) if ln.strip(" \t")]
    if not lines:
        raise ValueError("empty edge-list document")
    if not _EDGE_LINE.fullmatch(lines[0]):
        raise ValueError(f"header must be 'N M', got {lines[0].strip()!r}")
    n, m = map(int, lines[0].split())
    if n < 0 or m < 0:
        raise ValueError("negative counts in header")
    if len(lines) - 1 != m:
        raise ValueError(f"header declares {m} edges, found {len(lines) - 1}")
    edges, repeat = {}, None
    for ln in lines[1:]:
        if not _EDGE_LINE.fullmatch(ln):
            raise ValueError(f"malformed edge line {ln.strip()!r}")
        u, v = map(int, ln.split())
        if u >= v:
            raise ValueError(f"edge {u} {v} violates u < v")
        if u < 0 or v >= n:
            raise _out_of_range(u, v, n)
        if (u, v) in edges and not repeat:
            repeat = (u, v)
        edges[u, v] = None
    if repeat:
        raise ValueError("duplicate edge {} {}".format(*repeat))
    return Graph(n, list(edges))


def write_edge_list(g: Graph, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_edge_list(g))


def read_edge_list(path: str | os.PathLike) -> Graph:
    # a non-ASCII byte decodes to U+FFFD, so the line reader names its line
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        return parse_edge_list(fh.read())


def to_dot(g: Graph, name: str = "G") -> str:
    """DOT document for visualization."""
    lines = [f"graph {name} {{"]
    lines.extend(f"  {v};" for v in range(g.n))
    lines.extend(f"  {u} -- {v};" for u, v in g.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"
