"""Hamilton x,y-paths in dense graphs.

The path runs through the whole graph, or through a vertex set of it (an
embedding block) given as `within`. On a set whose induced minimum degree
is at least (|S|+1)/2 (Ore's bound, which every block of an embedding
template meets) the path always exists, and it is built deterministically
by Ore's proof read as an algorithm: close the gaps of one fixed vertex
cycle by segment reversals (Palmer 1997). That only tests adjacency, so it
reads the host's own bitmask rows and builds no induced graph. A set that
misses the bound gets the exact subset dynamic program (Held & Karp 1962)
on its induced graph, which finds the path or proves there is none; it is
limited to EXACT_THRESHOLD vertices, and a larger such set is a ValueError.
"""

from __future__ import annotations

from .graph import Graph, bits, checked_ids, induced, mask_of
# spawn_seed is unused here; perfbench/spans.py traces it as hampath.spawn_seed
from .rng import spawn_seed

EXACT_THRESHOLD = 20
BRUTE_FORCE_LIMIT = 12


def is_simple_path(g: Graph, seq) -> bool:
    """True if seq is a sequence of distinct vertices joined by edges of g."""
    if len(seq) != len(set(seq)):
        return False
    if any(not (0 <= v < g.n) for v in seq):
        return False
    return all(g.has_edge(u, v) for u, v in zip(seq, seq[1:]))


def _path_vertices(g: Graph, x: int, y: int, within=None):
    """x and y as plain ints of g, and the vertices a Hamilton x,y-path
    covers, ascending: all of g, or the set `within`, once checked to hold
    only ids of g and both endpoints, which must differ."""
    x, y = g._vertex(x), g._vertex(y)
    vs = range(g.n) if within is None else checked_ids(g, within, "vertex set")
    if x == y:
        raise ValueError("endpoints must be distinct")
    if x not in vs or y not in vs:
        raise ValueError(f"endpoints ({x},{y}) must lie among the {len(vs)} path vertices")
    return x, y, vs


def ore_miss(rows, vertices, mask: int) -> tuple[int, int] | None:
    """The first of `vertices`, in their order, with fewer than (k+1)/2
    neighbours in `mask`, the bitmask of those k vertices, as (v, degree);
    None when all of them meet Ore's bound. rows[v] is v's adjacency mask."""
    for v in vertices:
        have = (rows[v] & mask).bit_count()
        if 2 * have < len(vertices) + 1:
            return v, have
    return None


def _ore_path(rows, vertices, x: int, y: int) -> list[int]:
    """Hamilton x,y-path through an ascending vertex set of n vertices, each
    with at least (n+1)/2 neighbours in the set; rows[v] is v's adjacency
    mask, whose bits outside the set are never read.

    The cycle c is x, the other vertices ascending, y, closed by a virtual
    edge yx. At the first pair (c[i], c[i+1]) that is not an edge, a j in
    [0, n-2] with c[i] ~ c[j] and c[i+1] ~ c[j+1] exists: at least
    deg c[i] - 1 indices j qualify for the first condition and
    deg c[i+1] - 1 for the second, neither set holds i, and the two sizes
    sum past n - 2. Reversing the segment between the two pairs, for the
    smallest such j, makes both edges and keeps every earlier pair an edge,
    so one left-to-right pass closes every gap. j < n - 1, so x and y never
    move.
    """
    c = [x, *(v for v in vertices if v != x and v != y), y]
    n = len(c)
    for i in range(n - 1):
        a, b = rows[c[i]], rows[c[i + 1]]
        if a >> c[i + 1] & 1:
            continue
        j = next(j for j in range(n - 1) if a >> c[j] & 1 and b >> c[j + 1] & 1)
        lo, hi = (i + 1, j + 1) if j > i else (j + 1, i + 1)
        c[lo:hi] = reversed(c[lo:hi])
    return c


def _exact_path(g: Graph, x: int, y: int) -> list[int] | None:
    """Subset DP: endpoints[mask] = bitmask of vertices v such that some
    x-path covers exactly mask and ends at v. y is kept out of the DP and
    appended at the end, halving the state space."""
    n = g.n
    ybit = 1 << y
    full = g.full_mask() & ~ybit
    endpoints = [0] * (1 << n)
    endpoints[1 << x] = 1 << x
    for mask in range(1 << n):
        ends = endpoints[mask]
        if not ends:
            continue
        for v in bits(ends):
            for u in bits(g.neighbor_mask(v) & ~mask & ~ybit):
                endpoints[mask | (1 << u)] |= 1 << u
    finals = endpoints[full] & g.neighbor_mask(y)
    if not finals:
        return None
    # walk back from the smallest admissible endpoint
    last = (finals & -finals).bit_length() - 1
    path = [y, last]
    mask = full
    while mask != 1 << x:
        prev_mask = mask & ~(1 << last)
        cands = endpoints[prev_mask] & g.neighbor_mask(last)
        last = (cands & -cands).bit_length() - 1
        path.append(last)
        mask = prev_mask
    path.reverse()
    return path


def hamilton_path_between(g: Graph, x: int, y: int, return_stats: bool = False,
                          within=None):
    """Hamilton x,y-path of g, or None if there is none.

    With `within`, a set of vertex ids of g holding x and y, the path runs
    through exactly that set, in the subgraph it induces, and is given in
    g's ids; a member out of range, x == y, or an endpoint outside the set
    is a ValueError. The result and stats are those of the same call on
    induced(g, within) mapped back to g's ids. Without `within` the set is
    all of g, whose induced graph is g itself under the identity relabelling.

    When 2 * min degree >= n + 1 in the set (Ore's bound) the path exists
    and is built by gap closing on g's own rows; no induced graph is built.
    Any other set of at most EXACT_THRESHOLD vertices gets the exact subset
    DP on its induced graph, so None is always definitive: no Hamilton
    x,y-path exists. A larger set that misses the bound is a ValueError.
    The path is deterministic.

    With return_stats=True returns (path, stats) where stats reads
    restarts 0 and whether the exact DP ran.
    """
    x, y, vs = _path_vertices(g, x, y, within)
    exact = ore_miss(g.rows, vs, mask_of(vs)) is not None
    if not exact:
        path = _ore_path(g.rows, vs, x, y)
    elif len(vs) > EXACT_THRESHOLD:
        raise ValueError(f"a set of {len(vs)} vertices that misses Ore's bound is "
                         f"past the exact DP's EXACT_THRESHOLD = {EXACT_THRESHOLD}")
    else:
        sub, index = induced(g, vs)
        path = _exact_path(sub, index[x], index[y])
        if path is not None:
            path = [vs[v] for v in path]
    stats = {"restarts": 0, "exact": exact}
    return (path, stats) if return_stats else path


def brute_force_hamilton_path(g: Graph, x: int, y: int) -> list[int] | None:
    """Exhaustive Hamilton x,y-path search for graphs on at most 12 vertices.

    Depth-first enumeration over neighbor lists with memoized dead states;
    independent of the DP above so the two can check each other. Raises
    ValueError beyond the size limit.
    """
    if g.n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_LIMIT} vertices")
    x, y, _ = _path_vertices(g, x, y)
    full = g.full_mask()
    dead: set[tuple[int, int]] = set()
    path = [x]

    def dfs(v: int, visited: int) -> bool:
        if visited == full:
            return v == y
        if (v, visited) in dead:
            return False
        for u in g.neighbors(v):
            bit = 1 << u
            if visited & bit:
                continue
            if u == y and visited | bit != full:
                continue
            path.append(u)
            if dfs(u, visited | bit):
                return True
            path.pop()
        dead.add((v, visited))
        return False

    return list(path) if dfs(x, 1 << x) else None
