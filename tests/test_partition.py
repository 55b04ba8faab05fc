import math
import random

import pytest

from dirac_subdiv import partition
from dirac_subdiv import (Graph, PartitionError, block_partition,
                          complete_graph, degree_into, gen_dirac_host,
                          gen_two_clique_extremal, good_partition, HostSpec,
                          hypergeometric_tail_bound, interval_tree,
                          is_good_partition, min_degree)

from support import path_graph, random_gnp


class TestTailBound:
    def test_reference_value_small(self):
        # direct evaluation of 2*exp(-2*t^2/n)
        assert hypergeometric_tail_bound(100, 10.0) == pytest.approx(
            2.0 * math.exp(-2.0), rel=1e-12)
        assert hypergeometric_tail_bound(100, 10.0) == pytest.approx(0.27067, abs=1e-5)

    def test_reference_value_tiny(self):
        assert hypergeometric_tail_bound(64, 16.0) == pytest.approx(
            2.0 * math.exp(-8.0), rel=1e-12)
        assert hypergeometric_tail_bound(64, 16.0) == pytest.approx(6.71e-4, abs=1e-6)

    def test_vacuous_as_t_vanishes(self):
        assert hypergeometric_tail_bound(50, 1e-12) == pytest.approx(2.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            hypergeometric_tail_bound(0, 1.0)
        with pytest.raises(ValueError):
            hypergeometric_tail_bound(10, 0.0)


def reference_interval_sizes(d):
    """Independent simulation of the splitting rule on plain lists."""
    levels = [[d]]
    s = 0 if d == 1 else math.ceil(math.log2(d))
    for i in range(s):
        prev, nxt = levels[-1], []
        final = i == s - 1
        for ln in prev:
            if final and ln == 1:
                nxt.append(1)
            else:
                nxt.extend([(ln + 1) // 2, ln // 2])
        levels.append(nxt)
    return levels


class TestIntervalTree:
    def test_d1(self):
        t = interval_tree(1)
        assert t.s == 0
        assert t.levels == ((range(0, 1),),)

    def test_d2(self):
        t = interval_tree(2)
        assert t.s == 1
        assert [len(iv) for iv in t.levels[1]] == [1, 1]

    def test_d5(self):
        t = interval_tree(5)
        assert t.s == 3
        assert sorted(len(iv) for iv in t.levels[1]) == [2, 3]
        assert sorted(len(iv) for iv in t.levels[2]) == [1, 1, 1, 2]
        # exactly one penultimate interval is split at the final stage
        assert sum(1 for iv in t.levels[2] if len(iv) == 2) == 1

    @pytest.mark.parametrize("d", list(range(1, 17)))
    def test_matches_reference_simulation(self, d):
        t = interval_tree(d)
        ref = reference_interval_sizes(d)
        assert len(t.levels) == len(ref)
        for lvl, ref_lvl in zip(t.levels, ref):
            assert [len(iv) for iv in lvl] == ref_lvl

    @pytest.mark.parametrize("d", list(range(1, 33)))
    def test_invariants(self, d):
        t = interval_tree(d)
        for i, lvl in enumerate(t.levels):
            assert sum(len(iv) for iv in lvl) == d
            assert max(len(iv) for iv in lvl) <= math.ceil(d / 2 ** i)
        if t.s >= 1:
            assert all(len(iv) in (1, 2) for iv in t.levels[t.s - 1])
        leaves = [iv.start for iv in t.levels[-1]]
        assert leaves == list(range(d))
        assert all(len(iv) == 1 for iv in t.levels[-1])


class TestIsGoodPartition:
    def test_complete_host_passes(self):
        g = complete_graph(12)
        h = complete_graph(3)
        parts = [range(0, 4), range(4, 8), range(8, 12)]
        chk = is_good_partition(g, h, parts, threshold=0.5)
        assert chk.ok and chk.violation is None

    def test_unequal_sizes_fail_condition_one(self):
        g = complete_graph(12)
        h = complete_graph(3)
        parts = [range(0, 3), range(3, 8), range(8, 12)]
        chk = is_good_partition(g, h, parts, threshold=0.1)
        assert not chk.ok
        assert chk.violation[0] == "part-size"

    def test_two_clique_split_fails_cross_degree(self):
        g = gen_two_clique_extremal(6)
        h = complete_graph(2)  # single pattern edge
        chk = is_good_partition(g, h, [range(0, 6), range(6, 12)], threshold=0.1)
        assert not chk.ok
        kind, vertex, pair, have, need = chk.violation
        assert kind == "pair-degree" and have == 0

    def test_malformed_partitions_raise(self):
        g = complete_graph(6)
        h = complete_graph(2)
        with pytest.raises(ValueError):
            is_good_partition(g, h, [range(0, 3)], threshold=0.5)
        with pytest.raises(ValueError):
            is_good_partition(g, h, [range(0, 4), range(3, 6)], threshold=0.5)
        with pytest.raises(ValueError):
            is_good_partition(g, h, [range(0, 3), range(3, 5)], threshold=0.5)


class TestGoodPartition:
    def test_complete_host_first_attempt(self):
        C, d, n = 4, 2, 3
        g = complete_graph(C * d * n)
        h = complete_graph(3)
        gp = good_partition(g, h, alpha=0.7, delta=0.2, budget=10, seed=3)
        assert gp.attempts == 1
        assert gp.part_size == C * d
        assert is_good_partition(g, h, gp.parts, threshold=0.5).ok

    def test_non_divisible_order_is_equitable(self):
        g = complete_graph(25)
        h = complete_graph(3)
        gp = good_partition(g, h, alpha=0.7, delta=0.2, budget=10, seed=3)
        assert [len(p) for p in gp.parts] == [9, 8, 8]
        assert gp.part_size is None
        assert is_good_partition(g, h, gp.parts, threshold=0.5).ok

    def test_non_equitable_split_is_rejected(self):
        g = complete_graph(25)
        h = complete_graph(3)
        parts = [range(0, 10), range(10, 18), range(18, 25)]
        chk = is_good_partition(g, h, parts, threshold=0.5)
        assert chk.violation == ("part-size", 0, 10, 9)

    def test_matching_pattern_on_dirac_host(self):
        # d=1 pattern (perfect matching), moderate host
        host = gen_dirac_host(HostSpec(n=4, d=1, C=20, epsilon=0.2, seed=21))
        h = Graph(4, [(0, 1), (2, 3)])
        gp = good_partition(host, h, alpha=0.6, delta=0.1, budget=10, seed=5)
        assert gp.attempts <= 5
        chk = is_good_partition(host, h, gp.parts, threshold=0.5)
        assert chk.ok

    def test_precondition_error(self):
        g = gen_two_clique_extremal(12)
        h = complete_graph(2)
        with pytest.raises(ValueError):
            good_partition(g, h, alpha=0.6, delta=0.1, budget=5, seed=0)

    def test_budget_exhaustion_reports_worst(self):
        # two cliques again, but alpha set exactly at the actual min degree
        # ratio so the precondition holds while condition 2 is impossible:
        # within a part of size 40, every vertex would need 20 same-clique
        # companions on both sides of the 40/40 clique split at once.
        g = gen_two_clique_extremal(40)
        h = complete_graph(2)
        alpha = 39 / 80
        with pytest.raises(PartitionError) as exc:
            good_partition(g, h, alpha=alpha, delta=1e-4, budget=6, seed=1)
        err = exc.value
        assert err.attempts == 6
        assert err.violation is not None

    def test_las_vegas_reverification(self):
        g = complete_graph(24)
        h = complete_graph(2)
        gp = good_partition(g, h, alpha=0.8, delta=0.3, budget=5, seed=8)
        assert is_good_partition(g, h, gp.parts, threshold=0.5).ok

    def test_non_regular_pattern_rejected(self):
        g = complete_graph(12)
        with pytest.raises(ValueError):
            good_partition(g, path_graph(3), alpha=0.7, delta=0.2)


def block_postconditions_hold(g, group, bp, alpha, delta, C):
    """Re-derive the three block guarantees straight from degree queries."""
    tau = alpha - delta
    for i, blk in enumerate(bp.blocks):
        bset = set(blk)
        assert degree_into(g, bp.center, bset) >= tau * len(blk) - 1e-9
        assert degree_into(g, bp.connectors[i], bset) >= tau * len(blk) - 1e-9
        for v in blk:
            assert degree_into(g, v, bset - {v}) >= tau * C - 1e-9
    return True


class TestBlockPartition:
    def test_complete_group_any_bisection(self):
        C, d = 8, 4
        g = complete_graph(C * d)
        bp = block_partition(g, range(C * d), center=0,
                             connectors=[1, 2, 3, 4], alpha=0.7, delta=0.2,
                             level_budget=5, seed=2)
        assert sorted(len(b) for b in bp.blocks) == [6, 7, 7, 7]
        assert block_postconditions_hold(g, range(C * d), bp, 0.7, 0.2, C)

    def test_d1_boundary_no_splitting(self):
        C = 10
        g = complete_graph(C)
        bp = block_partition(g, range(C), center=0, connectors=[5],
                             alpha=0.6, delta=0.1, seed=4)
        assert len(bp.blocks) == 1
        assert len(bp.blocks[0]) == C - 2
        assert bp.attempts == 0
        assert block_postconditions_hold(g, range(C), bp, 0.6, 0.1, C)

    def test_from_good_partition_group(self):
        host = gen_dirac_host(HostSpec(n=4, d=3, C=12, epsilon=0.2, seed=31))
        h = complete_graph(4)
        gp = good_partition(host, h, alpha=0.6, delta=0.1, budget=20, seed=6)
        group = gp.parts[0]
        center = group[0]
        connectors = list(group[1:4])
        bp = block_partition(host, group, center, connectors,
                             alpha=0.5, delta=0.05, level_budget=20, seed=7)
        assert sorted(len(b) for b in bp.blocks) == [10, 11, 11]
        assert block_postconditions_hold(host, group, bp, 0.5, 0.05, 12)

    def test_size_identity(self):
        for C, d in [(8, 1), (8, 2), (12, 3), (9, 5), (20, 8)]:
            g = complete_graph(C * d)
            bp = block_partition(g, range(C * d), center=0,
                                 connectors=list(range(1, d + 1)),
                                 alpha=0.7, delta=0.2, seed=1)
            assert 1 + d + sum(len(b) for b in bp.blocks) == C * d
            assert 1 + d + (d - 1) * (C - 1) + (C - 2) == C * d

    def test_level_budget_exhaustion(self):
        # complete bipartite group: no size-10 block can have min degree
        # 0.49*12 inside itself, since that would need 6 vertices of each
        # side among 10
        g = Graph(24, [(u, v) for u in range(12) for v in range(12, 24)])
        with pytest.raises(PartitionError) as exc:
            block_partition(g, range(24), center=0, connectors=[1, 12],
                            alpha=0.5, delta=0.01, level_budget=3, seed=5)
        err = exc.value
        assert err.level == 1
        assert err.attempts == 3
        assert err.violation is not None

    def test_exhaustion_counts_accepted_levels(self, monkeypatch):
        # a 0.7-dense random group: level 1 is accepted after a few draws,
        # level 2 fails all of its budget; the error counts both
        g = random_gnp(48, 0.7, random.Random(0))
        alpha = min_degree(g) / 48
        real = partition.spawn_seed
        draws = []

        def spy(*parts):
            draws.append(parts)
            return real(*parts)

        monkeypatch.setattr(partition, "spawn_seed", spy)
        with pytest.raises(PartitionError) as exc:
            block_partition(g, range(48), center=0, connectors=[1, 2, 3, 4],
                            alpha=alpha, delta=alpha - 0.4375, level_budget=5,
                            seed=3)
        err = exc.value
        assert err.level == 2
        level1 = sum(1 for p in draws if p[2] == 1)
        assert level1 >= 1 and len(draws) == level1 + 5
        assert err.attempts == len(draws)

    def test_preconditions(self):
        g = complete_graph(16)
        with pytest.raises(ValueError):  # connectors not distinct
            block_partition(g, range(16), 0, [1, 1], alpha=0.7, delta=0.2)
        with pytest.raises(ValueError):  # center outside group
            block_partition(g, range(8), 9, [1], alpha=0.7, delta=0.2)
        with pytest.raises(ValueError):  # group size not divisible by d
            block_partition(g, range(15), 0, [1, 2], alpha=0.7, delta=0.2)
        low = gen_two_clique_extremal(8)
        with pytest.raises(ValueError):  # group min degree below alpha
            block_partition(low, range(16), 0, [1, 8], alpha=0.6, delta=0.1)
