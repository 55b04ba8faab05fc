"""Simple undirected graphs on dense integer vertex ids, plus degree queries.

Vertices are 0..n-1. The only adjacency store is one int bitmask per vertex:
bit u of row v is set when uv is an edge, so a row costs about n/8 bytes
whatever the degree. Degrees are popcounts, and neighbour tuples and edge
lists are read off the set bits in ascending order on request. Graphs are
immutable after construction and safe to share across threads.

Edges go in as pairs or as an (m, 2) integer array. Construction and
edge-list I/O are whole-array numpy work: rows are packed from a boolean
adjacency matrix, and documents are tokenised and built as byte arrays (the
grammar is under "edge-list text format" below).
"""

from __future__ import annotations

import os
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
        masks = [0] * n
        if len(u):  # one matrix row per vertex with an edge
            touched = np.zeros(n, bool)
            touched[u] = touched[v] = True
            slot = np.cumsum(touched) - 1
            adj = np.zeros((int(slot[-1]) + 1, n), bool)
            adj[slot[u], v] = adj[slot[v], u] = True
            packed = np.packbits(adj, axis=1, bitorder="little")
            for i, row in zip(np.flatnonzero(touched).tolist(), packed):
                masks[i] = int.from_bytes(row, "little")
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
    rows = [mask_of(index[u] for u in bits(g.neighbor_mask(v) & mask)) for v in vs]
    return Graph._from_rows(rows), index


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
# ASCII lines ending in "\n" or "\r"; lines of only spaces and tabs are
# skipped. Every other line is two tokens -?[0-9]+ split by spaces or tabs:
# first "N M", then M lines "u v" with 0 <= u < v < N and no pair twice.
# The writer emits "N M\n", then "u v\n" per edge in lexicographic order.

_CLASS = np.full(256, 3, np.uint8)  # 0 separator, 1 line end, 2 digit, 3 other
_CLASS[[ord(" "), ord("\t")]] = 0
_CLASS[[ord("\n"), ord("\r")]] = 1
_CLASS[ord("0"):ord("9") + 1] = 2
_CLAMP = 2 ** 62  # cap on ids read from longer tokens, past any vertex count


def format_edge_list(g: Graph) -> str:
    width = (g.n + 7) // 8
    rows = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in g._masks), np.uint8)
    adj = np.unpackbits(rows.reshape(g.n, width), axis=1, count=g.n, bitorder="little")
    u, v = np.nonzero(np.triu(adj, 1))
    w = len(str(max(g.n - 1, 0)))
    # each id's digits, NUL-padded to the widest id; the NULs are dropped below
    digits = np.arange(g.n).astype(f"S{w}").view(np.uint8).reshape(-1, w)
    lines = np.zeros((len(u), 2 * w + 2), np.uint8)
    lines[:, :w], lines[:, w] = digits[u], ord(" ")
    lines[:, w + 1:-1], lines[:, -1] = digits[v], ord("\n")
    return f"{g.n} {g.edge_count}\n" + lines[lines != 0].tobytes().decode("ascii")


def _offsets(mask: np.ndarray) -> np.ndarray:
    """np.flatnonzero(mask), a block at a time so that offsets of documents
    under 2 GiB are kept as int32 without a full int64 copy."""
    kind = np.int32 if len(mask) < 2 ** 31 else np.int64
    return np.concatenate([np.flatnonzero(mask[i:i + 65536]).astype(kind) + i
                           for i in range(0, len(mask) + 1, 65536)])


def _token_values(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Values of the tokens buf[starts[i]:ends[i]], each -?[0-9]+, capped in
    magnitude at _CLAMP. Blocks of tokens keep the temporaries small."""
    values = np.zeros(len(starts), np.int64)
    for b in range(0, len(starts), 1 << 16):
        s, e, v = (a[b:b + (1 << 16)] for a in (starts, ends, values))
        neg = buf[s] == ord("-")
        at = s + neg  # each token's next digit
        for _ in range(min(int((e - at).max()), 18)):  # Horner, the block at once
            live = at < e
            np.multiply(v, 10, out=v, where=live)
            v += np.where(live, buf.take(at, mode="clip") - ord("0"), 0)
            at += 1
        np.negative(v, out=v, where=neg)
        for i in np.flatnonzero(e - s - neg > 18).tolist():  # may not fit int64
            v[i] = max(-_CLAMP, min(int(buf[s[i]:e[i]].tobytes()), _CLAMP))
    return values


def parse_edge_list(text: str) -> Graph:
    """Graph of an edge-list document. A ValueError names the first fault:
    the header, the line count, the first bad edge line (malformed, u >= v
    or an id out of range), or the first repeated pair."""
    try:
        buf = np.frombuffer(text.encode("ascii"), np.uint8)
    except UnicodeEncodeError:
        raise ValueError("edge-list document is not ASCII") from None
    cls = _CLASS[buf]
    eol = _offsets(cls == 1)  # line i ends at eol[i], the last one at the end
    starts, ends = _offsets(np.diff(cls >= 2, prepend=False, append=False)).reshape(-1, 2).T
    other = np.flatnonzero(cls == 3)
    del cls
    per_line = np.diff(np.searchsorted(starts, eol), prepend=0, append=len(starts))
    lines = _offsets(per_line)  # the lines with tokens

    def line(i: int) -> str:
        return text[eol[i - 1] + 1 if i else 0:eol[i] if i < len(eol) else None].strip()

    if not len(lines):
        raise ValueError("empty edge-list document")
    # lines not of two tokens, each digits after at most one leading "-"
    bad = per_line[lines] != 2
    del per_line
    tok = np.searchsorted(starts, other, side="right") - 1
    stray = other[(buf[other] != ord("-")) | (starts[tok] != other)
                  | (ends[tok] - other < 2)]
    bad[np.searchsorted(lines, np.searchsorted(eol, stray))] = True
    if bad[0]:
        raise ValueError(f"header must be 'N M', got {line(lines[0])!r}")
    n, m = (int(text[s:e]) for s, e in zip(starts[:2].tolist(), ends[:2].tolist()))
    if n < 0 or m < 0:
        raise ValueError("negative counts in header")
    if len(lines) - 1 != m:
        raise ValueError(f"header declares {m} edges, found {len(lines) - 1}")
    bad = bad[1:]
    malformed = int(bad.argmax()) if bad.any() else m
    uv = _token_values(buf, starts[2:2 + 2 * malformed], ends[2:2 + 2 * malformed])
    uv = uv.reshape(-1, 2)
    # a line before it with u >= v, or with an id too large to read exactly
    wrong = (uv[:, 0] >= uv[:, 1]) | (uv[:, 0] <= -_CLAMP) | (uv[:, 1] >= _CLAMP)
    first = int(wrong.argmax()) if wrong.any() else malformed
    if first < m:
        Graph(n, uv[:first])  # an out-of-range id on a line before it
        bad_line = line(lines[first + 1])
        if first == malformed:
            raise ValueError(f"malformed edge line {bad_line!r}")
        u, v = (int(t) for t in bad_line.split())
        if u >= v:
            raise ValueError(f"edge {u} {v} violates u < v")
        raise _out_of_range(u, v, n)
    g = Graph(n, uv)
    if g.edge_count != m:
        _, once = np.unique(uv[:, 0] * n + uv[:, 1], return_index=True)
        repeat = np.ones(m, bool)
        repeat[once] = False
        raise ValueError("duplicate edge {} {}".format(*uv[repeat.argmax()]))
    return g


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
