"""Host and pattern graph generators.

All generators are pure functions of their parameters and seed: the same
seed yields the same graph, byte-for-byte in edge-list serialization.
Randomized generators verify their own postconditions, so a returned graph
always satisfies the advertised guarantee. None of them retries: the host is
one sample, and the pattern sampler repairs one pairing by switchings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GenerationError
from .graph import Graph, min_degree, pack_rows
from .rng import make_rng, spawn_seed

SWITCH_BUDGET = 64  # batches of n*d/2 repair proposals before GenerationError


def check_pattern_dimensions(n: int, d: int) -> None:
    """Raise ValueError unless n >= 2, 1 <= d < n and n*d is even, the patterns embed takes."""
    if n < 2:
        raise ValueError("pattern vertex count n must be >= 2")
    if not (1 <= d < n):
        raise ValueError("pattern regularity d must satisfy 1 <= d < n")
    if (n * d) % 2 != 0:
        raise ValueError("n*d must be even for a d-regular graph to exist")


@dataclass(frozen=True)
class HostSpec:
    """Parameters of a dense host instance for an n-vertex d-regular pattern.

    The host has N = C*d*n vertices and minimum degree at least
    (1+epsilon)*N/2.
    """

    n: int
    d: int
    C: int
    epsilon: float
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "d", "C"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
        check_pattern_dimensions(self.n, self.d)
        if self.C < 1:
            raise ValueError("blow-up constant C must be >= 1")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")

    @property
    def N(self) -> int:
        return self.C * self.d * self.n


def dirac_degree_bound(N: int, epsilon: float) -> int:
    """Smallest integer degree satisfying deg >= (1+epsilon)*N/2."""
    return math.ceil((1.0 + epsilon) * N / 2.0 - 1e-9)


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    full = (1 << int(n)) - 1  # int: a numpy n would shift in 64 bits
    return Graph._from_rows([full ^ (1 << v) for v in range(n)])


def gen_two_clique_extremal(half: int) -> Graph:
    """Two disjoint cliques of the given size, no cross edges.

    On 2*half vertices this has minimum degree half-1, one short of half the
    order, and no connected spanning structure can cross the cut. It is the
    standard witness that the degree requirement of the embedder cannot be
    relaxed to N/2.
    """
    if half < 1:
        raise ValueError("clique size must be >= 1")
    clique = (1 << int(half)) - 1
    rows = [clique ^ (1 << v) for v in range(half)]  # the second clique is half higher
    return Graph._from_rows(rows + [row << int(half) for row in rows])


def _sample_gnp(n: int, p: float, rng: np.random.Generator) -> Graph:
    # One uniform per pair u < v in row-major order, drawn a block of rows at
    # a time straight into the adjacency matrix: the same stream as a single
    # rng.random call, without an array of every pair.
    adj = np.zeros((n, n), bool)
    rows = max(1, (1 << 18) // max(n, 1))  # about 2^18 cells a block
    for a in range(0, n, rows):
        upper = np.arange(n) > np.arange(a, min(a + rows, n))[:, None]
        adj[a:a + rows][upper] = rng.random(int(upper.sum())) < p
    adj |= adj.T
    return Graph._from_rows(pack_rows(adj))


def gen_dirac_host(spec: HostSpec) -> Graph:
    """Random host on N = C*d*n vertices with min degree >= (1+eps)*N/2.

    Draws one sample of G(N, p) at p = min(1, (1+eps)/2 + 3*sqrt(ln N / N))
    and checks the degree bound on it, never assuming it. A redraw cannot
    help: at p = 1 every sample is K_N, and p < 1 needs N >= 189, where
    Hoeffding's inequality with a union bound over the N vertices puts the
    chance that a sample misses the bound at most 1e-38. Raises
    GenerationError on a miss, which in practice means a bound above N - 1.
    """
    N = spec.N
    bound = dirac_degree_bound(N, spec.epsilon)
    p = min(1.0, (1.0 + spec.epsilon) / 2.0 + 3.0 * math.sqrt(math.log(N) / N))
    g = _sample_gnp(N, p, make_rng(spawn_seed(spec.seed, 0x05, 1)))
    md = min_degree(g)
    if md < bound:
        raise GenerationError(
            f"G({N},{p:.4f}) sample has min degree {md}, below the required "
            f"{bound}; parameters too tight")
    return g


def _complement(g: Graph) -> Graph:
    full = g.full_mask()
    return Graph._from_rows([full ^ g.neighbor_mask(v) ^ (1 << v) for v in range(g.n)])


def _switch(ends: list[int], count: dict[int, int], n: int, s: int, t: int) -> bool:
    """Swap the stubs at positions s and t of a pairing, if that is a simple switch.

    Pair i of `ends` is (ends[2i], ends[2i+1]), and `count` maps each pair's
    key min*n + max to its multiplicity. With a = ends[s^1], b = ends[s],
    c = ends[t] and e = ends[t^1], the swap trades the pairs ab, ce for ac,
    be. It is made, and `count` updated, only when ac and be are distinct,
    not loops and not pairs already present; returns whether it was made.
    """
    a, b, c, e = ends[s ^ 1], ends[s], ends[t], ends[t ^ 1]
    if a == c or b == e:
        return False
    ac = a * n + c if a < c else c * n + a
    be = b * n + e if b < e else e * n + b
    if ac == be or ac in count or be in count:
        return False
    for key in (a * n + b if a < b else b * n + a, c * n + e if c < e else e * n + c):
        if count[key] == 1:
            del count[key]
        else:
            count[key] -= 1
    count[ac] = count[be] = 1
    ends[s], ends[t] = c, b
    return True


def gen_random_regular(n: int, d: int, seed: int = 0) -> Graph:
    """Random simple d-regular graph on n vertices: one configuration-model
    pairing, made simple by switchings, then n*d/2 steps of the switch chain.

    Any (n, d) but d = 0 on n >= 1, the edgeless graph, must pass
    check_pattern_dimensions. For d above (n-1)/2 the complement of a
    random (n-1-d)-regular graph is returned. The stubs are shuffled into one
    pairing. Each loop and repeated pair is then removed by double-edge
    switchings (ab, ce -> ac, be) that are made only when both new pairs are
    new and not loops, so each one lowers the defect count (McKay & Wormald
    1990). A fixed n*d/2 proposals of the switch chain, which keeps the graph
    simple and whose stationary law is uniform, follow. The output is
    approximately uniform, not exactly: exactly uniform switching samplers
    (McKay & Wormald 1990; Gao & Wormald 2017) reject some outcomes, which
    this one does not. The work is O(n*d) switch proposals in expectation.
    Raises GenerationError only if the repair's proposal budget, far above
    what any tested (n, d) needs, runs out.
    """
    if d == 0 and n >= 1:  # edgeless; d = n-1 below returns its complement K_n
        return Graph(n)
    check_pattern_dimensions(n, d)
    if 2 * d > n - 1:
        return _complement(gen_random_regular(n, n - 1 - d, seed))
    rng = make_rng(spawn_seed(seed, 0x07))
    stubs = np.repeat(np.arange(n), d)
    rng.shuffle(stubs)
    ends, m = stubs.tolist(), len(stubs) // 2
    count: dict[int, int] = {}
    defects = []  # a loop, or a pair seen before; re-checked when popped
    for i in range(m):
        a, b = ends[2 * i], ends[2 * i + 1]
        key = a * n + b if a < b else b * n + a
        if a == b or key in count:
            defects.append(i)
        count[key] = count.get(key, 0) + 1
    batches, draws = SWITCH_BUDGET, []
    while defects:
        i = defects.pop()
        while True:
            a, b = ends[2 * i], ends[2 * i + 1]
            if a != b and count[a * n + b if a < b else b * n + a] == 1:
                break
            if not draws:
                if batches == 0:
                    raise GenerationError(
                        f"switchings left a loop or repeated pair in a {d}-regular "
                        f"pairing on {n} vertices after {SWITCH_BUDGET * m} proposals")
                batches -= 1
                draws = rng.integers(0, 4 * m, m).tolist()
            r = draws.pop()  # which end of pair i, and the stub it swaps with
            _switch(ends, count, n, 2 * i + (r & 1), r >> 1)
    for s, t in rng.integers(0, 2 * m, (m, 2)).tolist():
        _switch(ends, count, n, s, t)
    g = Graph(n, np.array(ends).reshape(-1, 2))
    if g.edge_count != m or any(row.bit_count() != d for row in g.rows):
        raise AssertionError(f"switchings left a non-simple {d}-regular pairing on {n} vertices")
    return g
