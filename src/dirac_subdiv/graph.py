"""Simple undirected graphs on dense integer vertex ids, degree queries, and
the edge-list text format.

Vertices are 0..n-1. The only adjacency store is one int bitmask per vertex:
bit u of row v is set when uv is an edge, so a row costs about n/8 bytes
whatever the degree. Degrees are popcounts; neighbour tuples and edge lists
are read off the set bits in ascending order. Graphs are immutable and safe
to share across threads. Edge lists are read by an accept-only array pass in
front of a line reader that states the grammar and names every fault; the
line reader matches lines lazily and keeps the pairs in an int64 array.
Edge lists are written a block of rows at a time, each line two gathers from
a per-id table of fixed-width records (the digits and a space, the digits and
a line end), so the writer's memory is bounded by the block, not the text.
"""

from __future__ import annotations

import operator
import os
import re
from array import array
from collections.abc import Iterable, Iterator
from typing import TextIO

import numpy as np


class Graph:
    """Immutable simple undirected graph."""

    __slots__ = ("_n", "_masks", "_edge_count")

    def __init__(self, vertex_count: int,
                 edges: Iterable[tuple[int, int]] | np.ndarray = ()):
        """Edges are pairs or an (m, 2) integer array; repeats collapse. The
        vertex count must be an integer; an id that is not, then an id out of
        range, and after that a loop, names the first such edge."""
        if not isinstance(vertex_count, (int, np.integer)):
            raise ValueError("vertex_count must be an integer")
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        n = int(vertex_count)
        edges = edges if isinstance(edges, np.ndarray) else list(edges)
        uv = np.asarray(edges)
        if uv.size and (uv.ndim != 2 or uv.shape[1] != 2):
            raise ValueError("edges must be (u, v) pairs")
        # numpy infers no signed integer type from a float or string id, an id
        # past int64 or an empty list; only such input has its ids type-checked,
        # as Python values, whose cast past int64 raises where uint64's wraps
        if uv.dtype.kind != "i":
            pairs = edges.tolist() if isinstance(edges, np.ndarray) else edges
            ints = (int, np.integer)
            for u, v in pairs:
                if not (isinstance(u, ints) and isinstance(v, ints)):
                    raise ValueError(f"edge ({u!r},{v!r}) has an id that is not an integer")
            try:
                uv = np.asarray(pairs, np.int64)
            except OverflowError:  # an id past int64, so past n unless n is too
                bad = next(((u, v) for u, v in pairs
                            if not (0 <= u < n and 0 <= v < n)), None)
                raise (_too_large(n) if bad is None else _out_of_range(*bad, n)) from None
        uv = uv.astype(np.int64, copy=False)
        u, v = uv.reshape(-1, 2).T
        if uv.size and (uv.min() < 0 or uv.max() >= n):  # the masks name the first offender
            out = (u < 0) | (u >= n) | (v < 0) | (v >= n)
            raise _out_of_range(u[out.argmax()], v[out.argmax()], n)
        if (u == v).any():
            raise ValueError(f"self-loop at vertex {u[(u == v).argmax()]}")
        try:
            masks = [0] * n
        except (OverflowError, MemoryError):  # past what a list can hold
            raise _too_large(n) from None
        if len(u):  # one matrix row per vertex with an edge
            touched = np.zeros(n, bool)
            touched[u] = touched[v] = True
            slot = np.cumsum(touched) - 1
            adj = np.zeros((int(slot[-1]) + 1, n), bool)
            cells = adj.reshape(-1)
            for a, b in ((u, v), (v, u)):  # set cell (slot[a], b), indexed flat
                i = slot[a]
                i *= n
                i += b
                cells[i] = True
                del i  # before the next slot[a] is built
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

    @property
    def rows(self) -> tuple[int, ...]:
        """The adjacency rows, rows[v] == neighbor_mask(v), for hot loops
        over ids already checked to lie in range."""
        return self._masks

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bits(self._masks[self._vertex(v)]))

    def neighbor_mask(self, v: int) -> int:
        return self._masks[self._vertex(v)]

    def degree(self, v: int) -> int:
        return self._masks[self._vertex(v)].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._masks[self._vertex(u)] >> self._vertex(v) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        for u, mask in enumerate(self._masks):
            for v in bits(mask >> (u + 1)):
                yield (u, u + 1 + v)

    def full_mask(self) -> int:
        return (1 << self._n) - 1

    def _vertex(self, v: int) -> int:
        """v as a plain int, not a numpy int64 that overflows a shift; a
        ValueError when it lies outside [0, n)."""
        i = operator.index(v)
        if not (0 <= i < self._n):
            raise ValueError(f"vertex {v} out of range for {self._n} vertices")
        return i

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


def _too_large(n: int) -> ValueError:
    return ValueError(f"vertex count {n} is too large")


def pack_rows(adj: np.ndarray) -> list[int]:
    """One int bitmask per row of a boolean matrix: bit j of row i is adj[i, j]."""
    packed = np.packbits(adj, axis=1, bitorder="little")
    return [int.from_bytes(row, "little") for row in packed]


def _unpack_rows(masks: list[int], n: int) -> np.ndarray:
    """Boolean matrix of bitmask rows over n columns: cell (i, j) is bit j of masks[i]."""
    width = (n + 7) // 8
    rows = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), np.uint8)
    cells = np.unpackbits(rows.reshape(len(masks), width), axis=1, count=n, bitorder="little")
    return cells.view(bool)


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
    mask = members if isinstance(members, int) else mask_of(checked_ids(g, members))
    if mask >> g.n:  # a mask with a bit at n or past it, or a negative mask
        raise ValueError("member set contains out-of-range vertices")
    return (g.neighbor_mask(v) & mask).bit_count()


def checked_ids(g: Graph, ids: Iterable[int], what: str = "member set") -> list[int]:
    """The ids of a caller-given vertex set of g as plain ints, ascending, no
    repeats; a ValueError names the set `what` when one lies outside [0, N)."""
    vs = sorted(set(map(operator.index, ids)))
    if vs and not (0 <= vs[0] and vs[-1] < g.n):
        raise ValueError(f"{what} contains out-of-range vertices")
    return vs


def induced(g: Graph, members: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on a vertex set, with the id-relabeling map.

    Returns (subgraph, mapping) where mapping is the bijection from the
    original ids (sorted ascending) onto 0..len(members)-1.
    """
    vs = checked_ids(g, members)
    index = {v: i for i, v in enumerate(vs)}
    return Graph._from_rows(pack_rows(_unpack_rows([g.rows[v] for v in vs], g.n)[:, vs])), index


def min_degree(g: Graph) -> int | None:
    """Minimum degree, or None for the empty graph."""
    return min(map(int.bit_count, g._masks), default=None)


def regular_degree(g: Graph) -> int:
    """The common degree of a regular graph; ValueError if not regular."""
    degs = set(map(int.bit_count, g._masks))
    if len(degs) != 1:
        raise ValueError("graph is not regular")
    return degs.pop()


# --- edge-list text format ---------------------------------------------------
# "N M", then M lines "u v" with 0 <= u < v < N and no pair twice; the line
# reader states the whole grammar, and the array pass hands it every document
# it does not accept. The array pass reads only the writer's spelling, "N M\n"
# then "u v\n" per edge, which its separators alone prove.

_EDGE_LINE = re.compile(r"[ \t]*(-?[0-9]+)[ \t]+(-?[0-9]+)[ \t]*")
_LINE = re.compile(r"[ \t]*[^ \t\r\n][^\r\n]*")  # a line that is not blank
_BLOCK_CELLS = 1 << 18  # adjacency cells the writer unpacks per block of rows


def _edge_list_blocks(g: Graph) -> Iterator[bytes]:
    """The edge-list document of g in pieces: the header, then the lines of
    one block of rows at a time, so the memory held is bounded by the block."""
    n = g.n
    yield f"{n} {g.edge_count}\n".encode()
    # per-id records "digits " and "digits\n", NUL-padded to one width, so
    # each line is two 1-D gathers; the NULs are dropped per block
    ids = np.arange(n).astype(f"S{len(str(max(n - 1, 0)))}")
    head, tail = np.char.add(ids, b" "), np.char.add(ids, b"\n")
    step = max(1, _BLOCK_CELLS // max(n, 1))
    for r0 in range(0, n, step):
        # row u keeps only its bits past u, so each edge shows once, as u < v
        cells = _unpack_rows([g.rows[u] >> u + 1 << u + 1
                              for u in range(r0, min(r0 + step, n))], n)
        u, v = np.divmod(np.flatnonzero(cells), n)
        lines = np.empty((len(u), 2), head.dtype)
        lines[:, 0], lines[:, 1] = head.take(u + r0), tail.take(v)
        yield lines.tobytes().translate(None, b"\0")


def format_edge_list(g: Graph) -> str:
    return b"".join(_edge_list_blocks(g)).decode("ascii")


def parse_edge_list(text: str) -> Graph:
    """Graph of an edge-list document. A ValueError names the first fault:
    the header, the line count, the first bad edge line (malformed, u >= v
    or an id out of range), or the first repeated pair."""
    return _array_pass(text) or _read_lines(text)


def _array_pass(text: str) -> Graph | None:
    """Graph of a faultless document in the writer's spelling, else None."""
    enc = text.encode("ascii", "replace")  # "?" stands in for each non-ASCII character
    seps = enc.translate(None, b"0123456789")
    if seps != b" \n" * (len(seps) // 2) or not enc.endswith(b"\n"):
        return None
    values = np.fromstring(enc, np.int64, sep=" ")
    # one value per separator: no token is empty
    if len(values) != len(seps) or values.max() == np.iinfo(np.int64).max:  # the overflow value
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
    lines = _LINE.finditer(text)
    head = next(lines, None)
    if head is None:
        raise ValueError("empty edge-list document")
    counts = _EDGE_LINE.fullmatch(head.group())
    if not counts:
        raise ValueError(f"header must be 'N M', got {head.group().strip()!r}")
    n, m = map(int, counts.groups())
    if n < 0 or m < 0:
        raise ValueError("negative counts in header")
    found = sum(1 for _ in lines)
    if found != m:
        raise ValueError(f"header declares {m} edges, found {found}")
    # an id past int64 lies below an n past it, which no Graph can hold; a
    # list keeps such ids for the repeated-pair check that precedes that fault
    uv = array("q") if n <= np.iinfo(np.int64).max else []
    for ln in _LINE.finditer(text, head.end()):
        edge = _EDGE_LINE.fullmatch(ln.group())
        if not edge:
            raise ValueError(f"malformed edge line {ln.group().strip()!r}")
        u, v = map(int, edge.groups())
        if u >= v:
            raise ValueError(f"edge {u} {v} violates u < v")
        if u < 0 or v >= n:
            raise _out_of_range(u, v, n)
        uv.append(u)
        uv.append(v)
    uv = np.asarray(uv, np.int64 if isinstance(uv, array) else object).reshape(-1, 2)
    # a stable sort keeps equal pairs in input order, so the earliest second
    # occurrence is the first repeated pair
    order = np.lexsort(uv.T[::-1])
    ranked = uv[order]
    again = (ranked[1:] == ranked[:-1]).all(axis=1)
    if again.any():
        raise ValueError("duplicate edge {} {}".format(*uv[order[1:][again].min()].tolist()))
    return Graph(n, uv)


def write_edge_list(g: Graph, out: str | bytes | os.PathLike | TextIO) -> None:
    """Write g's edge list to a path, or to an open text stream: to its byte
    buffer, so "\n" line ends hold everywhere, else as ASCII text (io.StringIO)."""
    if isinstance(out, (str, bytes, os.PathLike)):
        with open(out, "wb") as fh:
            fh.writelines(_edge_list_blocks(g))
    elif hasattr(out, "buffer"):
        out.flush()  # text already written goes first
        out.buffer.writelines(_edge_list_blocks(g))
    else:
        out.writelines(block.decode("ascii") for block in _edge_list_blocks(g))


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
