"""Host and pattern graph generators.

All generators are pure functions of their parameters and seed: the same
seed yields the same graph, byte-for-byte in edge-list serialization.
Randomized generators verify their own postconditions and retry, so a
returned graph always satisfies the advertised guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GenerationError
from .graph import Graph, min_degree
from .rng import make_rng, spawn_seed

DIRAC_HOST_ATTEMPTS = 50
REGULAR_ATTEMPTS = 200


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
        if self.n < 2:
            raise ValueError("pattern vertex count n must be >= 2")
        if not (1 <= self.d < self.n):
            raise ValueError("pattern regularity d must satisfy 1 <= d < n")
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
    return Graph(n, np.column_stack(np.triu_indices(n, k=1)))


def gen_two_clique_extremal(half: int) -> Graph:
    """Two disjoint cliques of the given size, no cross edges.

    On 2*half vertices this has minimum degree half-1, one short of half the
    order, and no connected spanning structure can cross the cut. It is the
    standard witness that the degree requirement of the embedder cannot be
    relaxed to N/2.
    """
    if half < 1:
        raise ValueError("clique size must be >= 1")
    clique = np.column_stack(np.triu_indices(half, k=1))
    return Graph(2 * half, np.concatenate((clique, clique + half)))


def _sample_gnp(n: int, p: float, rng: np.random.Generator) -> Graph:
    pairs = np.column_stack(np.triu_indices(n, k=1))
    return Graph(n, pairs[rng.random(len(pairs)) < p])


def gen_dirac_host(spec: HostSpec) -> Graph:
    """Random host on N = C*d*n vertices with min degree >= (1+eps)*N/2.

    Samples G(N, p) at p = min(1, (1+eps)/2 + 3*sqrt(ln N / N)), checks the
    degree bound, and retries with fresh derived seeds. The bound is checked
    on the returned graph, never assumed.
    """
    N = spec.N
    bound = dirac_degree_bound(N, spec.epsilon)
    p = min(1.0, (1.0 + spec.epsilon) / 2.0 + 3.0 * math.sqrt(math.log(N) / N))
    for attempt in range(1, DIRAC_HOST_ATTEMPTS + 1):
        g = _sample_gnp(N, p, make_rng(spawn_seed(spec.seed, 0x05, attempt)))
        md = min_degree(g)
        if md is not None and md >= bound:
            return g
    raise GenerationError(
        f"no G({N},{p:.4f}) sample reached min degree {bound} "
        f"in {DIRAC_HOST_ATTEMPTS} attempts; parameters too tight",
        attempts=DIRAC_HOST_ATTEMPTS,
    )


def _complement(g: Graph) -> Graph:
    full = g.full_mask()
    return Graph._from_rows([full ^ g.neighbor_mask(v) ^ (1 << v) for v in range(g.n)])


def _pairing_attempt(n: int, d: int, rng: np.random.Generator) -> Graph | None:
    # Uniform pairing of degree stubs; reject the whole pairing on any loop
    # or repeated pair (a Graph with fewer than n*d/2 edges), which keeps the
    # output uniform over simple d-regular graphs.
    stubs = np.repeat(np.arange(n), d)
    rng.shuffle(stubs)
    pairs = stubs.reshape(-1, 2)
    if (pairs[:, 0] == pairs[:, 1]).any():
        return None
    g = Graph(n, pairs)
    return g if g.edge_count == n * d // 2 else None


def gen_random_regular(n: int, d: int, seed: int = 0) -> Graph:
    """Random simple d-regular graph on n vertices via the configuration model.

    Requires n*d even and 0 <= d < n. For d above (n-1)/2 the complement of a
    random (n-1-d)-regular graph is returned, which keeps the rejection rate
    manageable. Raises GenerationError when the restart budget runs out.
    """
    if not (0 <= d < n):
        raise ValueError("regularity must satisfy 0 <= d < n")
    if (n * d) % 2 != 0:
        raise ValueError("n*d must be even for a d-regular graph to exist")
    if d == 0:
        return Graph(n)
    if 2 * d > n - 1:
        return _complement(gen_random_regular(n, n - 1 - d, seed))
    for attempt in range(1, REGULAR_ATTEMPTS + 1):
        g = _pairing_attempt(n, d, make_rng(spawn_seed(seed, 0x07, attempt)))
        if g is not None:
            return g
    raise GenerationError(
        f"configuration model found no simple {d}-regular graph on {n} "
        f"vertices in {REGULAR_ATTEMPTS} restarts",
        attempts=REGULAR_ATTEMPTS,
    )
