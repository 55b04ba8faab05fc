import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from dirac_subdiv import (Graph, brute_force_hamilton_path, complete_graph,
                          hamilton_path_between, hampath, induced, min_degree)
from dirac_subdiv.hampath import is_simple_path
from dirac_subdiv.rng import make_rng, spawn_seed

from support import complete_minus, cycle_graph, path_graph, random_gnp


def is_hamilton_xy_path(g, p, x, y):
    return (p is not None and len(p) == g.n and p[0] == x and p[-1] == y
            and is_simple_path(g, p))


class TestExamples:
    def test_complete_graph(self):
        g = complete_graph(4)
        p = hamilton_path_between(g, 0, 3, seed=1)
        assert is_hamilton_xy_path(g, p, 0, 3)

    def test_k5_minus_edge_between_its_endpoints(self):
        g = complete_minus(5, {(0, 1)})
        assert min_degree(g) == 3 >= (5 + 1) // 2
        oracle = brute_force_hamilton_path(g, 0, 1)
        assert is_hamilton_xy_path(g, oracle, 0, 1)
        p = hamilton_path_between(g, 0, 1, seed=1)
        assert is_hamilton_xy_path(g, p, 0, 1)

    def test_path_graph_no_path(self):
        # any Hamilton 0,2-path must end at 2, but 3 hangs off 2 alone
        g = path_graph(4)
        assert hamilton_path_between(g, 0, 2, seed=1) is None
        assert brute_force_hamilton_path(g, 0, 2) is None

    def test_brute_force_triangle(self):
        g = complete_graph(3)
        assert brute_force_hamilton_path(g, 0, 2) == [0, 1, 2]

    def test_disconnected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert brute_force_hamilton_path(g, 0, 3) is None
        assert hamilton_path_between(g, 0, 3, seed=1) is None

    def test_five_cycle_adjacent_endpoints(self):
        g = cycle_graph(5)
        # the only Hamilton 0,1-path walks the long way around
        assert brute_force_hamilton_path(g, 0, 1) == [0, 4, 3, 2, 1]
        p = hamilton_path_between(g, 0, 1, seed=1)
        assert p == [0, 4, 3, 2, 1]


class TestValidation:
    def test_same_endpoints_rejected(self):
        g = complete_graph(4)
        with pytest.raises(ValueError):
            hamilton_path_between(g, 2, 2)
        with pytest.raises(ValueError):
            brute_force_hamilton_path(g, 2, 2)

    def test_out_of_range(self):
        g = complete_graph(4)
        with pytest.raises(ValueError):
            hamilton_path_between(g, 0, 4)

    def test_brute_force_size_limit(self):
        g = complete_graph(13)
        with pytest.raises(ValueError):
            brute_force_hamilton_path(g, 0, 1)

    def test_two_vertices(self):
        g = Graph(2, [(0, 1)])
        assert hamilton_path_between(g, 0, 1, seed=0) == [0, 1]
        assert hamilton_path_between(Graph(2), 0, 1, seed=0) is None


class TestOracleAgreement:
    def test_random_corpus(self):
        rng = make_rng(spawn_seed(2024, 0))
        checked = 0
        for k in range(120):
            n = 4 + k % 5
            p = (k % 11) / 10.0
            g = random_gnp(n, p, rng)
            for x in range(n):
                for y in range(x + 1, n):
                    got = hamilton_path_between(g, x, y, budget=6,
                                                seed=spawn_seed(3, k, x, y))
                    want = brute_force_hamilton_path(g, x, y)
                    assert (got is None) == (want is None)
                    if got is not None:
                        assert is_hamilton_xy_path(g, got, x, y)
                    checked += 1
        assert checked > 1000

    def test_ore_dense_graphs_never_miss(self):
        rng = make_rng(spawn_seed(2024, 1))
        count = 0
        while count < 40:
            n = int(rng.integers(4, 13))
            g = random_gnp(n, 0.5 + 0.4 * rng.random(), rng)
            md = min_degree(g)
            if md is None or md < (n + 1) / 2:
                continue
            count += 1
            for x in range(n):
                for y in range(x + 1, n):
                    p = hamilton_path_between(g, x, y, budget=8,
                                              seed=spawn_seed(4, count, x, y))
                    assert is_hamilton_xy_path(g, p, x, y)

    def test_reversal_is_valid_path(self):
        g = complete_minus(6, {(0, 3), (1, 4)})
        p = hamilton_path_between(g, 0, 5, seed=6)
        assert is_hamilton_xy_path(g, p, 0, 5)
        assert is_hamilton_xy_path(g, list(reversed(p)), 5, 0)


class TestDeterminism:
    def test_same_seed_same_path(self):
        rng = make_rng(99)
        g = random_gnp(10, 0.7, rng)
        a = hamilton_path_between(g, 0, 9, seed=123)
        b = hamilton_path_between(g, 0, 9, seed=123)
        assert a == b

    def test_stats_reporting(self):
        # K6 meets Ore's bound: the gap-closing path draws no restart
        g = complete_graph(6)
        p, stats = hamilton_path_between(g, 0, 5, seed=1, return_stats=True)
        assert is_hamilton_xy_path(g, p, 0, 5)
        assert stats == {"restarts": 0, "exact": False}
        # C5 misses it (2 * 2 < 5 + 1), so the exact DP runs
        g = cycle_graph(5)
        p, stats = hamilton_path_between(g, 0, 1, seed=1, return_stats=True)
        assert is_hamilton_xy_path(g, p, 0, 1)
        assert stats == {"restarts": 0, "exact": True}

    def test_exact_fallback_engages(self):
        # two cliques bridged by one cut vertex miss Ore's bound (the
        # clique vertices have degree 4 < (9 + 1) / 2), so the exact DP
        # settles it
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        edges += [(u, v) for u in range(4, 9) for v in range(u + 1, 9)]
        g = Graph(9, edges)
        p, stats = hamilton_path_between(g, 0, 8, budget=1, seed=0,
                                         return_stats=True)
        assert is_hamilton_xy_path(g, p, 0, 8)
        assert stats == {"restarts": 0, "exact": True}


class TestExactBranch:
    """A set that misses Ore's bound gets the exact DP up to EXACT_THRESHOLD
    vertices, and is a ValueError past it."""

    @pytest.mark.parametrize("g,x,y,found", [
        (path_graph(4), 0, 3, True),
        (path_graph(4), 0, 2, False),
        (cycle_graph(7), 2, 3, True),
        (Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]), 0, 5, False),
    ])
    def test_stats_report_the_dp(self, g, x, y, found):
        assert 2 * min_degree(g) < g.n + 1
        p, stats = hamilton_path_between(g, x, y, seed=3, return_stats=True)
        assert (p is not None) == found
        assert p is None or is_hamilton_xy_path(g, p, x, y)
        assert stats == {"restarts": 0, "exact": True}

    def test_past_the_threshold_is_an_error(self):
        assert hampath.EXACT_THRESHOLD < 21
        cycle = cycle_graph(21)
        host = Graph(25, [*cycle.edges(), (20, 21), (21, 22), (0, 23), (23, 24)])
        match = r"\b21\b.*EXACT_THRESHOLD"
        with pytest.raises(ValueError, match=match):
            hamilton_path_between(cycle, 0, 1)
        with pytest.raises(ValueError, match=match):
            hamilton_path_between(host, 0, 1, within=range(21))


@st.composite
def ore_graphs(draw, min_n=3, max_n=40):
    """K_n less a drawn set of edges, skipping any removal that would take
    an end below Ore's bound (n + 1) / 2."""
    n = draw(st.integers(min_n, max_n))
    need = (n + 2) // 2
    drop = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=n * n // 4))
    deg, miss = [n - 1] * n, set()
    for u, v in drop:
        e = (min(u, v), max(u, v))
        if u != v and e not in miss and deg[u] > need and deg[v] > need:
            miss.add(e)
            deg[u] -= 1
            deg[v] -= 1
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if (u, v) not in miss])


class TestOrePath:
    """On graphs meeting Ore's bound the path is built by gap closing: no
    seed is drawn and no restart is counted."""

    @settings(max_examples=150, deadline=None)
    @given(ore_graphs(), st.data())
    def test_every_ore_graph_gets_a_path_without_a_seed(self, g, data):
        assert 2 * min_degree(g) >= g.n + 1
        x = data.draw(st.integers(0, g.n - 1))
        y = data.draw(st.integers(0, g.n - 1).filter(lambda v: v != x))
        seeds = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hampath, "spawn_seed", lambda *parts: seeds.append(parts))
            p, stats = hamilton_path_between(g, x, y, seed=7, return_stats=True)
        assert is_hamilton_xy_path(g, p, x, y)
        assert stats == {"restarts": 0, "exact": False} and seeds == []

    def test_forty_vertices_inner_endpoints(self):
        # n past 32 for certain, and x, y away from the ends of the id order
        g = complete_minus(40, {(v, (v + 1) % 40) for v in range(40)})
        assert 2 * min_degree(g) >= 41
        p, stats = hamilton_path_between(g, 17, 3, return_stats=True)
        assert is_hamilton_xy_path(g, p, 17, 3) and stats["restarts"] == 0

    def test_agrees_with_brute_force_on_every_pair(self):
        rng = make_rng(spawn_seed(2024, 2))
        graphs = 0
        while graphs < 60:
            n = int(rng.integers(3, 13))
            g = random_gnp(n, 0.55 + 0.45 * rng.random(), rng)
            if 2 * min_degree(g) < n + 1:
                continue
            graphs += 1
            for x in range(n):
                for y in range(n):
                    if x == y:
                        continue
                    assert is_hamilton_xy_path(g, brute_force_hamilton_path(g, x, y), x, y)
                    p, stats = hamilton_path_between(g, x, y, seed=1, return_stats=True)
                    assert is_hamilton_xy_path(g, p, x, y)
                    assert stats["restarts"] == 0
                    # deterministic: the seed plays no part
                    assert hamilton_path_between(g, x, y, seed=2) == p


def via_induced(g, x, y, members, seed):
    """(path, stats) of the call on the induced graph, mapped back to g."""
    sub, index = induced(g, members)
    inv = sorted(index)
    p, stats = hamilton_path_between(sub, index[x], index[y], seed=seed,
                                     return_stats=True)
    return (None if p is None else [inv[v] for v in p]), stats


class TestWithin:
    """A path through a vertex set of the host equals the path of the
    induced graph mapped back; an Ore set is served from the host's rows
    without building the induced graph."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(4, 24), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1),
           st.data())
    def test_matches_the_induced_graph(self, n, p, host_seed, data):
        g = random_gnp(n, p, random.Random(host_seed))
        members = data.draw(st.lists(st.integers(0, n - 1), min_size=2,
                                     max_size=n, unique=True))
        x, y = data.draw(st.permutations(members))[:2]
        seed = data.draw(st.integers(0, 9))
        sub = induced(g, members)[0]
        ore = 2 * min_degree(sub) >= sub.n + 1
        if not ore and sub.n > hampath.EXACT_THRESHOLD:
            with pytest.raises(ValueError):
                via_induced(g, x, y, members, seed)
            with pytest.raises(ValueError):
                hamilton_path_between(g, x, y, seed=seed, within=members)
            return
        # the exact DP's work more than doubles with each vertex: two runs
        # per example on a 15-20 vertex set would take seconds
        assume(ore or sub.n < 15)
        want = via_induced(g, x, y, members, seed)
        builds = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hampath, "induced",
                       lambda *a: builds.append(a) or induced(*a))
            got = hamilton_path_between(g, x, y, seed=seed, return_stats=True,
                                        within=members)
        assert got == want
        assert (builds == []) == ore

    def test_c5_in_a_sparse_host(self):
        # a 5-cycle 2-5-7-11-13 on 16 vertices, misses Ore's bound
        cyc = [2, 5, 7, 11, 13]
        g = Graph(16, [(cyc[k], cyc[(k + 1) % 5]) for k in range(5)]
                  + [(0, 1), (1, 3), (5, 9), (9, 12), (13, 15)])
        got = hamilton_path_between(g, 2, 5, seed=1, return_stats=True,
                                    within=cyc)
        assert got == via_induced(g, 2, 5, cyc, 1)
        assert got == ([2, 13, 11, 7, 5], {"restarts": 0, "exact": True})

    def test_ore_block_in_a_sparse_host(self):
        # K6 on 3, 4, 8, 9, 14, 15 of a 20-vertex host, with edges leaving it
        block = [3, 4, 8, 9, 14, 15]
        g = Graph(20, [(u, v) for u in block for v in block if u < v]
                  + [(0, 3), (4, 19), (8, 10), (15, 16)])
        got = hamilton_path_between(g, 9, 4, return_stats=True, within=block)
        assert got == via_induced(g, 9, 4, block, 0)
        assert got == ([9, 3, 8, 14, 15, 4], {"restarts": 0, "exact": False})

    @pytest.mark.parametrize("x,y,members", [
        (0, 1, [0, 1, -1]),       # a negative member
        (0, 1, [0, 1, 6]),        # a member past the last vertex
        (2, 2, [1, 2, 3]),        # x == y
        (0, 5, [0, 1, 2]),        # y outside the set
        (4, 1, [0, 1, 2]),        # x outside the set
    ])
    def test_bad_sets_rejected(self, x, y, members):
        with pytest.raises(ValueError):
            hamilton_path_between(complete_graph(6), x, y, within=members)
