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

    def test_d1_counts_no_draw(self):
        # d = 1 takes the whole pool as its block without a random draw, so
        # both outcomes report 0 attempts. The failing pool {2,3,4,5} is a
        # 4-cycle: min degree 2 < 0.4*C = 2.4.
        pool_matching = [(2, 3), (4, 5)]
        g = Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)
                      if (u, v) not in pool_matching])
        with pytest.raises(PartitionError) as exc:
            block_partition(g, range(6), center=0, connectors=[1],
                            alpha=0.5, delta=0.1)
        assert exc.value.attempts == 0
        assert exc.value.violation[0] == "block-min-degree"
        bp = block_partition(complete_graph(6), range(6), center=0,
                             connectors=[1], alpha=0.5, delta=0.1)
        assert bp.attempts == 0

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


def ore_bound_holds(g, bp):
    """Every block with its center and connector added, as build_template
    assembles it, has min degree >= (|B|+1)/2."""
    for i, blk in enumerate(bp.blocks):
        b = set(blk) | {bp.center, bp.connectors[i]}
        for v in b:
            if degree_into(g, v, b) < (len(b) + 1) / 2:
                return False
    return True


class TestBlockOreBound:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_returned_blocks_meet_ore_bound(self, d):
        # G(N, p) groups at the group's own min-degree ratio, with and without
        # extras; d = 3 and 5 carry a singleton through the final level
        C = 12
        returned = 0
        for extras in sorted({0, d - 1}):
            for seed in range(6):
                N = C * d + extras
                g = random_gnp(N, 0.8, random.Random(1000 * d + 97 * extras + seed))
                alpha = min_degree(g) / N
                try:
                    bp = block_partition(g, range(N), 0, list(range(1, d + 1)),
                                         alpha=alpha, delta=0.2, seed=seed,
                                         extras=extras)
                except PartitionError:
                    continue
                returned += 1
                assert ore_bound_holds(g, bp)
                assert block_postconditions_hold(g, range(N), bp, alpha, 0.2, C)
        assert returned >= 3

    def test_ore_miss_has_its_own_label(self):
        # d = 1, C = 10, tau = 0.4: the pool {2..9} is a clique (degree 7 >=
        # tau*C = 4) and the center sees 4 >= tau*8 of it, so every tau event
        # holds; but with the connector the center has degree 5 in the
        # 10-vertex block, below (10+1)/2
        edges = [(u, v) for u in range(1, 10) for v in range(u + 1, 10)]
        edges += [(0, v) for v in (1, 2, 3, 4, 5)]
        g = Graph(10, edges)
        with pytest.raises(PartitionError) as exc:
            block_partition(g, range(10), center=0, connectors=[1],
                            alpha=0.5, delta=0.1)
        assert exc.value.violation == ("block-ore-degree", 0, (0,), 5, 5.5)


def pair_shortfall(g, center, conns, pair, tau, C):
    """Total shortfall of two sibling blocks against the final-level events,
    recounted from scratch in whole degrees."""
    total = 0
    for blk, conn in zip(pair, conns):
        blk = set(blk)
        full = blk | {center, conn}
        ore = math.ceil((len(blk) + 3) / 2)
        for v in blk:
            total += max(0, math.ceil(tau * C) - degree_into(g, v, blk))
        for v in (center, conn):
            total += max(0, math.ceil(tau * len(blk)) - degree_into(g, v, blk))
        for v in full:
            total += max(0, ore - degree_into(g, v, full))
    return total


def exhaustive_repair(g, center, conns, pair, tau, C):
    """Steepest descent that rescores every allowed swap by recounting."""
    a_side, b_side = set(pair[0]), set(pair[1])

    def takes_part(side, conn):
        full = side | {center, conn}
        ore = math.ceil((len(side) + 3) / 2)
        out = set()
        for v in full:
            need = math.ceil(tau * (C if v in side else len(side)))
            if degree_into(g, v, side) < need or degree_into(g, v, full) < ore:
                out |= {u for u in side if not g.has_edge(u, v)}
        return out

    for _ in range(len(a_side) + len(b_side)):
        now = pair_shortfall(g, center, conns, (a_side, b_side), tau, C)
        if now == 0:
            break
        movable = takes_part(a_side, conns[0]) | takes_part(b_side, conns[1])
        best, best_pair = 0, None
        for a in sorted(a_side):
            for b in sorted(b_side):
                if a in movable or b in movable:
                    after = pair_shortfall(g, center, conns, (a_side - {a} | {b},
                                                              b_side - {b} | {a}), tau, C)
                    if after - now < best:
                        best, best_pair = after - now, (a, b)
        if best_pair is None:
            break
        a, b = best_pair
        a_side, b_side = a_side - {a} | {b}, b_side - {b} | {a}
    return tuple(sorted(a_side)), tuple(sorted(b_side))


def final_entries(bp):
    return [(range(ell, ell + 1), blk) for ell, blk in enumerate(bp.blocks)]


class TestSwapRepair:
    def test_matches_exhaustive_rescoring(self):
        # the incremental scores pick the same swaps as recounting every
        # candidate from scratch, so the bookkeeping is exact
        rng = random.Random(5)
        moved = 0
        for _ in range(40):
            n = rng.randint(16, 28)
            g = random_gnp(n, rng.uniform(0.5, 0.85), rng)
            vs = rng.sample(range(n), n)
            center, conns, rest = vs[0], (vs[1], vs[2]), vs[3:]
            k = len(rest) // 2
            pair = (tuple(sorted(rest[:k])), tuple(sorted(rest[k:])))
            tau, C = rng.uniform(0.35, 0.6), k + 1
            got = partition._swap_repair(g, center, conns, pair, tau, C)
            assert got == exhaustive_repair(g, center, conns, pair, tau, C)
            assert sorted(got[0] + got[1]) == sorted(rest)
            assert [len(b) for b in got] == [len(b) for b in pair]
            moved += got != pair
        assert moved >= 10

    def test_repaired_level_passes_the_block_checks(self, monkeypatch):
        # G(48, 0.75) groups at tau = 7/16: the first final-level draw misses
        # tau*C in every seed and swap repair makes it pass
        real = partition._swap_repair
        changed = []

        def spy(*args):
            out = real(*args)
            changed.append(out != args[3])
            return out

        monkeypatch.setattr(partition, "_swap_repair", spy)
        for seed in range(5):
            g = random_gnp(48, 0.75, random.Random(seed))
            alpha = min_degree(g) / 48
            changed.clear()
            bp = block_partition(g, range(48), 0, [1, 2, 3, 4], alpha=alpha,
                                 delta=alpha - 0.4375, seed=seed)
            assert bp.attempts == 2 and any(changed)
            assert partition._block_events_violation(
                g, 0, bp.connectors, final_entries(bp), 0.4375, 12) is None
            assert ore_bound_holds(g, bp)
            assert block_postconditions_hold(g, range(48), bp, alpha, alpha - 0.4375, 12)

    def test_passing_draw_is_untouched(self, monkeypatch):
        # only a sibling pair that misses is repaired, and a seed whose draws
        # all pass gives the blocks the draws alone give
        real = partition._swap_repair
        calls = []

        def spy(g, center, conns, pair, threshold, C):
            entries = [(range(0, 1), pair[0]), (range(1, 2), pair[1])]
            assert partition._block_events_violation(
                g, center, conns, entries, threshold, C) is not None
            calls.append(pair)
            return real(g, center, conns, pair, threshold, C)

        def outcome(g, seed):
            alpha = min_degree(g) / 48
            try:
                return block_partition(g, range(48), 0, [1, 2, 3, 4], alpha=alpha,
                                       delta=alpha - 0.4375, seed=seed)
            except PartitionError as err:
                return err.attempts, err.violation

        untouched = 0
        for seed in range(6):
            g = random_gnp(48, 0.8, random.Random(seed))
            calls.clear()
            monkeypatch.setattr(partition, "_swap_repair", spy)
            bp = outcome(g, seed)
            monkeypatch.setattr(partition, "_swap_repair",
                                lambda g, center, conns, pair, threshold, C: pair)
            drawn = outcome(g, seed)
            if not calls:
                untouched += 1
                assert bp == drawn
        assert 0 < untouched < 6

    @pytest.mark.parametrize("p, seed", [(0.75, 0), (0.75, 3), (0.7, 0)])
    def test_repair_derives_no_seed(self, monkeypatch, p, seed):
        # one 0x0B seed per counted draw, repaired or not; (0.7, 0) exhausts
        # the final level with a repair on every draw
        real_seed, real_repair = partition.spawn_seed, partition._swap_repair
        tags, repairs = [], []

        def seed_spy(*parts):
            tags.append(parts[1])
            return real_seed(*parts)

        def repair_spy(*args):
            repairs.append(1)
            return real_repair(*args)

        monkeypatch.setattr(partition, "spawn_seed", seed_spy)
        monkeypatch.setattr(partition, "_swap_repair", repair_spy)
        g = random_gnp(48, p, random.Random(seed))
        alpha = min_degree(g) / 48
        try:
            draws = block_partition(g, range(48), 0, [1, 2, 3, 4], alpha=alpha,
                                    delta=alpha - 0.4375, seed=seed).attempts
        except PartitionError as err:
            assert err.level == 2
            draws = err.attempts
        assert repairs and tags == [0x0B] * draws
