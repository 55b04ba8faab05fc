import math
import random

import numpy as np
import pytest

from dirac_subdiv import partition
from dirac_subdiv.graph import mask_of
from dirac_subdiv.rng import make_rng, spawn_seed
from dirac_subdiv import (Graph, PartitionError, block_partition,
                          complete_graph, degree_into, gen_dirac_host,
                          gen_two_clique_extremal, good_partition, HostSpec,
                          hypergeometric_tail_bound, interval_tree,
                          is_good_partition, min_degree)

from support import path_graph, random_gnp


def inline_good_cut(seed, budget, N, sizes):
    """The draws good_partition cut inline before _draws, as the reference."""
    draws = []
    for attempt in range(1, budget + 1):
        rng = make_rng(spawn_seed(seed, 0x0A, attempt))
        perm = rng.permutation(N).tolist()
        parts = []
        pos = 0
        for size in sizes:
            parts.append(tuple(sorted(perm[pos:pos + size])))
            pos += size
        draws.append((attempt, parts))
    return draws


def inline_block_cut(seed, level_budget, pool, sizes):
    """The draws block_partition cut inline before _draws, as the reference."""
    d = len(sizes)
    budget = level_budget if d > 1 else 1
    ends = [sum(sizes[:ell]) for ell in range(d + 1)]
    draws = []
    for attempt in range(1, budget + 1):
        perm = make_rng(spawn_seed(seed, 0x0B, 1, attempt)).permutation(len(pool)).tolist()
        draws.append((attempt, [tuple(sorted(pool[i] for i in perm[a:b]))
                                for a, b in zip(ends, ends[1:])]))
    return draws


class TestDraws:
    SIZES = pytest.mark.parametrize("sizes", [[9], [1, 1], [4, 3, 3], [5, 5, 4, 4], [2, 7, 1, 3, 3]],
                                    ids=lambda sizes: "-".join(map(str, sizes)))

    @SIZES
    def test_good_stage_matches_inline_cut(self, sizes):
        # a single part draws once: good_partition's first draw of one group
        # always passed, so it never made a second
        for seed in range(25):
            want = inline_good_cut(seed, 4, sum(sizes), sizes)
            got = list(partition._draws(4, sum(sizes), sizes, seed, 0x0A))
            assert got == (want if len(sizes) > 1 else want[:1])

    @SIZES
    def test_block_stage_matches_inline_cut(self, sizes):
        # block_partition passes its pool as an array; a tuple draws the same
        rnd = random.Random(len(sizes))
        for seed in range(25):
            pool = tuple(sorted(rnd.sample(range(3 * sum(sizes)), sum(sizes))))
            want = inline_block_cut(seed, 4, pool, sizes)
            for population in (np.array(pool), pool):
                assert list(partition._draws(4, population, sizes, seed, 0x0B, 1)) == want

    def test_one_group_passes_its_first_draw(self):
        gp = good_partition(complete_graph(9), Graph(1), alpha=0.6, delta=0.1)
        assert gp.parts == (tuple(range(9)),) and gp.attempts == 1


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
    def test_d0_rejected(self):
        with pytest.raises(ValueError, match="d must be >= 1"):
            interval_tree(0)

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

    @pytest.mark.parametrize("d", [*range(1, 65), 127, 128, 129, 1000, 1023, 1024, 1025])
    def test_matches_reference_simulation(self, d):
        t = interval_tree(d)
        ref = reference_interval_sizes(d)
        assert t.s == (d - 1).bit_length()
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

    def test_negative_ids_are_out_of_range(self):
        g = complete_graph(6)
        h = complete_graph(2)
        with pytest.raises(ValueError, match="out-of-range"):
            is_good_partition(g, h, [[-1, 0, 1], [2, 3, 4]], threshold=0.5)


def goodness_constraints(g, h, parts, tau):
    """Conditions 2 and 3 recounted edge by edge, as (label, vertex, key,
    have, need) in the documented order: parts, then both directions of
    each pattern edge."""
    def have(v, part):
        return sum(g.has_edge(v, u) for u in part)

    found = []
    for i, part in enumerate(parts):
        found += [("part-degree", v, i, have(v, part), tau * len(part))
                  for v in sorted(part)]
    for i, j in h.edges():
        for a, b in ((i, j), (j, i)):
            found += [("pair-degree", v, (a, b), have(v, parts[b]), tau * len(parts[b]))
                      for v in sorted(parts[a])]
    return found


class TestGoodnessReference:
    def test_violation_and_min_slack_match_a_recount(self):
        # parts of 4 or 8 at thresholds 1/4, 1/2 and 3/4: every need is an
        # integer, so equal slacks are common. The worst violation is the
        # one of least slack, the first in order on a tie.
        rng = random.Random(11)
        labels, ties = set(), 0
        for _ in range(120):
            h = rng.choice([complete_graph(2), complete_graph(3), Graph(4, [(0, 1), (2, 3)])])
            size = rng.choice([4, 8])
            g = random_gnp(h.n * size, rng.uniform(0.3, 0.9), rng)
            perm = rng.sample(range(g.n), g.n)
            parts = [perm[k * size:(k + 1) * size] for k in range(h.n)]
            tau = rng.choice([0.25, 0.5, 0.75])
            found = goodness_constraints(g, h, parts, tau)
            slacks = [have - need for *_, have, need in found]
            min_slack = min(slacks)
            worst = found[slacks.index(min_slack)] if min_slack < 0 else None
            chk = is_good_partition(g, h, parts, tau)
            assert (chk.ok, chk.violation, chk.min_slack) == (worst is None, worst, min_slack)
            labels.add(worst and worst[0])
            ties += min_slack < 0 and slacks.count(min_slack) > 1
        assert labels == {None, "part-degree", "pair-degree"}
        assert ties >= 30


class TestGoodPartition:
    def test_complete_host_first_attempt(self):
        C, d, n = 4, 2, 3
        g = complete_graph(C * d * n)
        h = complete_graph(3)
        gp = good_partition(g, h, alpha=0.7, delta=0.2, budget=10, seed=3)
        assert gp.attempts == 1
        assert is_good_partition(g, h, gp.parts, threshold=0.5).ok

    def test_non_divisible_order_is_equitable(self):
        g = complete_graph(25)
        h = complete_graph(3)
        gp = good_partition(g, h, alpha=0.7, delta=0.2, budget=10, seed=3)
        assert [len(p) for p in gp.parts] == [9, 8, 8]
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
        with pytest.raises(ValueError, match="need 0 < delta < alpha"):
            good_partition(complete_graph(24), h, alpha=0.6, delta=0.6)
        with pytest.raises(ValueError, match="budget must be >= 1"):
            good_partition(complete_graph(24), h, alpha=0.6, delta=0.1, budget=0)

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
    def test_complete_group_near_equal_blocks(self):
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
        assert bp.attempts == 1
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

    def test_d1_counts_one_draw(self):
        # d = 1 has only one possible draw, the whole pool as its block, so
        # both outcomes count one draw, and the miss raises at level 1 like
        # any exhausted group. The failing pool {2,3,4,5} is a 4-cycle: min
        # degree 2 < 0.4*C = 2.4.
        pool_matching = [(2, 3), (4, 5)]
        g = Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)
                      if (u, v) not in pool_matching])
        with pytest.raises(PartitionError) as exc:
            block_partition(g, range(6), center=0, connectors=[1],
                            alpha=0.5, delta=0.1)
        assert exc.value.attempts == 1 and exc.value.level == 1
        assert exc.value.violation[0] == "block-min-degree"
        bp = block_partition(complete_graph(6), range(6), center=0,
                             connectors=[1], alpha=0.5, delta=0.1)
        assert bp.attempts == 1

    def test_level_budget_exhaustion(self, monkeypatch):
        # complete bipartite group: no size-10 block can have min degree
        # 0.49*12 inside itself, since that would need 6 vertices of each
        # side among 10; the error counts one 0x0B seed per group draw
        real = partition.spawn_seed
        tags = []

        def spy(*parts):
            tags.append(parts[1])
            return real(*parts)

        monkeypatch.setattr(partition, "spawn_seed", spy)
        g = Graph(24, [(u, v) for u in range(12) for v in range(12, 24)])
        with pytest.raises(PartitionError) as exc:
            block_partition(g, range(24), center=0, connectors=[1, 12],
                            alpha=0.5, delta=0.01, level_budget=3, seed=5)
        err = exc.value
        assert err.level == 1
        assert err.attempts == 3 == tags.count(0x0B) == len(tags)
        assert err.violation is not None

    def test_preconditions(self):
        g = complete_graph(16)
        with pytest.raises(ValueError):  # connectors not distinct
            block_partition(g, range(16), 0, [1, 1], alpha=0.7, delta=0.2)
        with pytest.raises(ValueError):  # center outside group
            block_partition(g, range(8), 9, [1], alpha=0.7, delta=0.2)
        with pytest.raises(ValueError, match="need 0 < delta < alpha"):
            block_partition(g, range(16), 0, [1, 2], alpha=0.7, delta=0.7)
        with pytest.raises(ValueError, match="level_budget must be >= 1"):
            block_partition(g, range(16), 0, [1, 2], alpha=0.7, delta=0.2, level_budget=0)
        with pytest.raises(ValueError, match="need at least one connector"):
            block_partition(g, range(16), 0, [], alpha=0.7, delta=0.2)
        low = gen_two_clique_extremal(8)
        with pytest.raises(ValueError):  # group min degree below alpha
            block_partition(low, range(16), 0, [1, 8], alpha=0.6, delta=0.1)

    def test_negative_ids_are_out_of_range(self):
        g = complete_graph(16)
        with pytest.raises(ValueError, match="out-of-range"):
            block_partition(g, range(-1, 16), 0, [1, 2], alpha=0.7, delta=0.2)
        for center, connectors in [(-1, [1, 2]), (0, [1, -2])]:
            with pytest.raises(ValueError, match="inside the group"):
                block_partition(g, range(16), center, connectors, alpha=0.7, delta=0.2)

    @pytest.mark.parametrize("C, delta, least", [(4, 0.05, 6), (5, 0.05, 6),
                                                  (3, 0.15, 5)])
    def test_infeasible_blowup_rejected(self, C, delta, least):
        # tau = 0.5 - delta: the last block's C-2 vertices have inner degree
        # <= C-3 < tau*C on every host, even a complete one, until C = least
        with pytest.raises(ValueError, match=f"smallest feasible C is {least}$"):
            block_partition(complete_graph(2 * C), range(2 * C), 0, [1, 2],
                            alpha=0.5, delta=delta)
        block_partition(complete_graph(2 * least), range(2 * least), 0, [1, 2],
                        alpha=0.5, delta=delta)


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
        # extras
        C = 12
        returned = 0
        for extras in sorted({0, d - 1}):
            for seed in range(6):
                N = C * d + extras
                g = random_gnp(N, 0.8, random.Random(1000 * d + 97 * extras + seed))
                alpha = min_degree(g) / N
                try:
                    bp = block_partition(g, range(N), 0, list(range(1, d + 1)),
                                         alpha=alpha, delta=0.2, seed=seed)
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
        assert exc.value.violation == ("block-ore-degree", 0, 0, 5, 5.5)


def reference_block_violation(g, center, connectors, entries, tau, C):
    """The worst missed block-stage event, recounted edge by edge: the least
    have - need, the first in the documented order on a tie, or None. Per
    (block index, vertex tuple) entry the order is the inner degree of each
    vertex of S, then Ore's bound in B = S + {center, connector}: S, the
    center, the connector. One rule asks one need of each vertex it binds,
    so this is the first vertex of least count in the first rule of least
    slack."""
    def have(v, members):
        return sum(g.has_edge(v, u) for u in members)

    events = []
    for i, vs in entries:
        S, conn = set(vs), connectors[i]
        B = S | {center, conn}
        rules = [("block-min-degree", v, S, tau * C) for v in vs]
        rules += [("block-ore-degree", v, B, (len(B) + 1) / 2)
                  for v in (*vs, center, conn)]
        events += [(label, v, i, have(v, members), need)
                   for label, v, members, need in rules]
    worst = min(events, key=lambda e: e[3] - e[4])
    return worst if worst[3] < worst[4] else None


def block_sides(center, connectors, entries, tau, C):
    """The (demand rows, set) sides of (block index, vertex tuple) entries,
    as block_partition checks and repairs them."""
    return [(partition._block_demands(i, len(vs), center, connectors[i], tau, C), vs)
            for i, vs in entries]


class TestBlockEventsReference:
    def test_worst_violation_matches_a_recount(self):
        # one or two blocks per call, in any index order, at thresholds with
        # integer and fractional needs
        rng = random.Random(17)
        labels = set()
        for _ in range(300):
            d = rng.randint(1, 4)
            g = random_gnp(rng.randint(d + 5, 24), rng.uniform(0.4, 0.95), rng)
            center, *connectors = rng.sample(range(g.n), d + 1)
            rest = [v for v in range(g.n) if v != center and v not in connectors]
            rng.shuffle(rest)
            entries = []
            for i in rng.sample(range(d), min(d, rng.randint(1, 2))):
                k = rng.randint(1, len(rest) // 2)
                entries.append((i, tuple(sorted(rest[:k]))))
                rest = rest[k:]
            tau, C = rng.choice([0.25, 0.5, 0.75, 0.4375]), rng.randint(1, 12)
            got, _ = partition._worst_violation(
                g.rows, block_sides(center, connectors, entries, tau, C))
            assert got == reference_block_violation(g, center, connectors, entries, tau, C)
            labels.add(got and got[0])
        assert labels == {None, "block-min-degree", "block-ore-degree"}


def five_row_block_demands(i, size, center, connector, threshold, C):
    """_block_demands as it was with two more rows: degree tau*|S| from the
    center and from the connector into S, checked after the inner degree."""
    need, extra = threshold * size, 1 << center | 1 << connector
    ore = (size + 3) / 2
    return [("block-min-degree", i, None, 0, threshold * C),
            ("center-degree", i, (center,), 0, need),
            ("connector-degree", i, (connector,), 0, need),
            *(("block-ore-degree", i, W, extra, ore) for W in (None, (center, connector)))]


class TestCenterAndConnectorRowsAreImplied:
    @staticmethod
    def block_pairs(rng, count):
        """count random groups, each with two of its blocks (i, A), (j, B)."""
        for _ in range(count):
            d = rng.randint(2, 4)
            g = random_gnp(rng.randint(d + 9, 31), rng.uniform(0.4, 0.95), rng)
            center, *connectors = rng.sample(range(g.n), d + 1)
            rest = [v for v in range(g.n) if v != center and v not in connectors]
            rng.shuffle(rest)
            k = len(rest) // 2 + rng.randint(-1, 1)
            i, j = rng.sample(range(d), 2)
            yield g, center, connectors, [(i, tuple(sorted(rest[:k]))),
                                          (j, tuple(sorted(rest[k:])))]

    def test_same_results_below_the_bound(self):
        # at the pipeline's tau = 1/2 - eps/4 and just below 1/2 + 1/(2|S|),
        # the check of one block and of a pair (worst miss and min slack) and
        # the pair's repair are those of the five-row table; the two deleted
        # rows still miss on their own, so the cases exercise them
        rng = random.Random(30)
        own_misses = repaired = 0
        for g, center, connectors, entries in self.block_pairs(rng, 120):
            largest = max(len(vs) for _, vs in entries)
            C = largest + 1
            for tau in (0.4875, 0.475, 0.4375, 0.375, 0.5 + 1 / (2 * largest) - 1e-6):
                sides = [[(table(i, len(vs), center, connectors[i], tau, C), vs)
                          for i, vs in entries]
                         for table in (partition._block_demands, five_row_block_demands)]
                for k in (1, 2):
                    assert (partition._worst_violation(g.rows, sides[0][:k])
                            == partition._worst_violation(g.rows, sides[1][:k]))
                got = partition._swap_repair(g.rows, sides[0])
                assert got == partition._swap_repair(g.rows, sides[1])
                repaired += got is not None and got != pair_sets(entries)
                own_misses += any(
                    partition._worst_violation(g.rows, [(demands[1:3], vs)])[0]
                    for demands, vs in sides[1])
        assert own_misses >= 100 and repaired >= 50

    def test_above_the_bound_the_tables_differ(self):
        # tau = 0.75 > 1/2 + 1/16 on a block of 8: the center sees 5 vertices
        # of S and the connector, 6 >= Ore's (8+3)/2, yet 5 < tau*8, so only
        # the deleted center row misses
        edges = [(u, v) for u in range(1, 10) for v in range(u + 1, 10)]
        edges += [(0, v) for v in range(1, 7)]
        g, S = Graph(10, edges), tuple(range(2, 10))
        assert partition._worst_violation(
            g.rows, [(partition._block_demands(0, 8, 0, 1, 0.75, 8), S)]) == (None, 0.5)
        assert partition._worst_violation(
            g.rows, [(five_row_block_demands(0, 8, 0, 1, 0.75, 8), S)]) == (
            ("center-degree", 0, 0, 5, 6.0), -1.0)


def side_rules(center, connector, side, tau, C):
    """The (vertex, members mask, need) rules of one block X in whole
    degrees, stated from the documented events: tau*C inner degree, and
    Ore's (|B|+1)/2 in B = X + {center, connector}."""
    S = mask_of(side)
    B = S | 1 << center | 1 << connector
    return ([(v, S, math.ceil(tau * C)) for v in side]
            + [(v, B, math.ceil((len(side) + 3) / 2)) for v in (*side, center, connector)])


def pair_shortfall(g, center, connectors, entries, tau, C):
    """Total shortfall of two blocks, recounted from scratch: per block,
    each vertex is short by its largest miss over the rules that bind it."""
    total = 0
    for i, side in entries:
        gap = {}
        for v, members, need in side_rules(center, connectors[i], side, tau, C):
            gap[v] = max(gap.get(v, 0), need - degree_into(g, v, members))
        total += sum(gap.values())
    return total


def exhaustive_repair(g, center, connectors, entries, tau, C):
    """Steepest descent that rescores every swap by recounting."""
    (i, a_side), (j, b_side) = entries
    a_side, b_side = set(a_side), set(b_side)
    for _ in range(len(a_side) + len(b_side)):
        now = pair_shortfall(g, center, connectors, [(i, a_side), (j, b_side)], tau, C)
        if now == 0:
            break
        best, best_pair = 0, None
        for a in sorted(a_side):
            for b in sorted(b_side):
                after = pair_shortfall(g, center, connectors,
                                       [(i, a_side - {a} | {b}),
                                        (j, b_side - {b} | {a})], tau, C)
                if after - now < best:
                    best, best_pair = after - now, (a, b)
        if best_pair is None:
            break
        a, b = best_pair
        a_side, b_side = a_side - {a} | {b}, b_side - {b} | {a}
    return tuple(sorted(a_side)), tuple(sorted(b_side))


def pair_sets(entries):
    return tuple(vs for _, vs in entries)


def judged(rows, sides, pair):
    """pair when both of its sets pass their sides' rows, else None: what
    _swap_repair returns for the pair its swaps end with."""
    checked = [(demands, vs) for (demands, _), vs in zip(sides, pair)]
    return pair if partition._worst_violation(rows, checked)[0] is None else None


class TestSwapRepair:
    def test_matches_exhaustive_rescoring(self):
        # the kernel's swap scores pick the same swaps as recounting every
        # candidate from scratch, so each score is the exact change: on block
        # pairs in index order and against it, as the group repair pairs a
        # failing block with any other block of its group; the kernel
        # returns the final pair exactly when both blocks pass
        d = 4
        for pair in [(0, 1), (1, 0), (3, 2)]:
            rng = random.Random(5)
            moved = repaired = 0
            for _ in range(40):
                n = rng.randint(16 + d, 28 + d)
                g = random_gnp(n, rng.uniform(0.5, 0.85), rng)
                vs = rng.sample(range(n), n)
                center, connectors, rest = vs[0], vs[1:d + 1], vs[d + 1:]
                k = len(rest) // 2
                entries = [(pair[0], tuple(sorted(rest[:k]))),
                           (pair[1], tuple(sorted(rest[k:])))]
                tau, C = rng.uniform(0.35, 0.6), k + 1
                sides = block_sides(center, connectors, entries, tau, C)
                want = exhaustive_repair(g, center, connectors, entries, tau, C)
                got = partition._swap_repair(g.rows, sides)
                assert got == judged(g.rows, sides, want)
                assert sorted(want[0] + want[1]) == sorted(rest)
                assert [len(b) for b in want] == [len(vs) for _, vs in entries]
                moved += want != pair_sets(entries)
                repaired += got is not None
            assert moved >= 10 and 0 < repaired < 40

    def test_repaired_level_passes_the_block_checks(self, monkeypatch):
        # G(48, 0.75) groups at tau = 7/16: the first group draw misses
        # tau*C in every seed and the group repair makes it pass; each
        # returned block passes the recounted block events
        real = partition._swap_repair
        changed = []

        def spy(*args):
            out = real(*args)  # None is no repair
            changed.append(out is not None and out != pair_sets(args[1]))
            return out

        monkeypatch.setattr(partition, "_swap_repair", spy)
        for seed in range(5):
            g = random_gnp(48, 0.75, random.Random(seed))
            alpha = min_degree(g) / 48
            changed.clear()
            bp = block_partition(g, range(48), 0, [1, 2, 3, 4], alpha=alpha,
                                 delta=alpha - 0.4375, seed=seed)
            assert bp.attempts == 1 and any(changed)
            for entry in enumerate(bp.blocks):
                assert reference_block_violation(
                    g, 0, bp.connectors, [entry], 0.4375, 12) is None
            assert ore_bound_holds(g, bp)
            assert block_postconditions_hold(g, range(48), bp, alpha, alpha - 0.4375, 12)

    def test_passing_draw_is_untouched(self, monkeypatch):
        # only a draw that misses is repaired, and a seed whose draws all
        # pass gives the blocks the draws alone give
        real = partition._swap_repair
        calls = []

        def spy(rows, sides):
            assert partition._worst_violation(rows, sides)[0] is not None
            calls.append(sides)
            return real(rows, sides)

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
            monkeypatch.setattr(partition, "_swap_repair", lambda rows, sides: None)
            drawn = outcome(g, seed)
            if not calls:
                untouched += 1
                assert bp == drawn
        assert 0 < untouched < 6

    @pytest.mark.parametrize("p, seed", [(0.75, 0), (0.75, 3), (0.7, 0), (0.65, 0)])
    def test_repair_derives_no_seed(self, monkeypatch, p, seed):
        # one 0x0B seed per counted draw, repaired or not; (0.7, 0) is
        # accepted at its second draw, and (0.65, 0) exhausts the budget,
        # repairs included
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
            assert err.level == 1
            draws = err.attempts
        assert repairs and tags == [0x0B] * draws


def full_scan_repair(rows, sides, scores=None):
    """partition._swap_repair as it was before its scan stopped early: every
    step scores all |A|*|B| swaps. With a list `scores`, each step appends
    (total, [(a, b, delta), ...]) of its candidates in scan order."""
    pool = sides[0][1] + sides[1][1]
    bound = ({}, {})
    for (demands, _), t in zip(sides, bound):
        for *_, W, extra, need in demands:
            k = math.ceil(need)
            for v in W or pool:
                b = k - (rows[v] & extra).bit_count()
                if v not in t or b > t[v]:
                    t[v] = b
    fixed = [t.keys() - set(pool) for t in bound]
    tracked = bound[0].keys() | bound[1].keys()
    members = [sorted(sides[0][1]), sorted(sides[1][1])]
    counts = [{v: (rows[v] & m).bit_count() for v in tracked}
              for m in (mask_of(members[0]), mask_of(members[1]))]

    for _ in range(len(pool)):
        rise, exact, total = [0, 0], [0, 0], 0
        for s in (0, 1):
            for v in (*members[s], *fixed[s]):
                gap = bound[s][v] - counts[s][v]
                if gap > 0:
                    total += gap
                    rise[s] |= 1 << v
                elif gap == 0:
                    exact[s] |= 1 << v
        if total == 0:
            break
        fall = [rise[0] | exact[0], rise[1] | exact[1]]
        own = ([], [])
        for s in (0, 1):
            o = 1 - s
            for v in members[s]:
                r, gap = rows[v], bound[o][v] - counts[o][v]
                base = ((r & fall[s]).bit_count() - (r & rise[o]).bit_count()
                        - max(0, bound[s][v] - counts[s][v]))
                own[s].append((v, r, (base + max(0, gap),
                                      base + max(0, gap + 1) + (rise[s] >> v & 1))))
        best, best_pair, step = 0, None, []
        for a, ra, ta in own[0]:
            for b, rb, tb in own[1]:
                ab = ra >> b & 1
                common = ra & rb
                delta = (ta[ab] + tb[ab] - (common & exact[0]).bit_count()
                         - (common & exact[1]).bit_count())
                step.append((a, b, delta))
                if delta < best:
                    best, best_pair = delta, (a, b)
        if scores is not None:
            scores.append((total, step))
        if best_pair is None:
            break
        a, b = best_pair
        members = [sorted({*members[0], b} - {a}), sorted({*members[1], a} - {b})]
        if total + best == 0:
            break
        ra, rb = rows[a], rows[b]
        for v in tracked:
            change = (rb >> v & 1) - (ra >> v & 1)
            counts[0][v] += change
            counts[1][v] -= change
    return tuple(members[0]), tuple(members[1])


def failing_block_pairs(seeds, tau=0.4375, C=12):
    """(g, connectors, (i, A), (j, B)) for every block i that misses in one
    random group draw of G(48, 0.75), center 0 and connectors 1-4, paired
    with each other block j, as block_partition hands them to the repair."""
    connectors = [1, 2, 3, 4]
    for seed in seeds:
        rng = random.Random(seed)
        g = random_gnp(48, 0.75, rng)
        pool = list(range(5, 48))
        rng.shuffle(pool)
        ends = [0, 11, 22, 33, 43]
        blocks = [tuple(sorted(pool[a:b])) for a, b in zip(ends, ends[1:])]
        for i in range(4):
            if reference_block_violation(g, 0, connectors, [(i, blocks[i])], tau, C):
                for j in range(4):
                    if j != i:
                        yield g, connectors, (i, blocks[i]), (j, blocks[j])


class TestSwapRepairEarlyExit:
    def test_first_step_deltas_are_exact(self):
        # every candidate's delta is the recounted change of the total
        # shortfall, so none can beat -total and the first swap that
        # reaches it is the one the full scan keeps
        checked = 0
        for g, connectors, A, B in failing_block_pairs(range(6)):
            scores = []
            full_scan_repair(g.rows, block_sides(0, connectors, [A, B], 0.4375, 12), scores)
            total, step = scores[0]
            assert total == pair_shortfall(g, 0, connectors, [A, B], 0.4375, 12) > 0
            for a, b, delta in step:
                swapped = [(A[0], set(A[1]) - {a} | {b}), (B[0], set(B[1]) - {b} | {a})]
                assert pair_shortfall(g, 0, connectors, swapped, 0.4375, 12) == total + delta
                checked += 1
        assert checked > 1000

    def test_early_exit_returns_the_full_scan_pair(self):
        # the kernel returns the full scan's final pair when it passes both
        # blocks, and None when it does not
        cut_short = unrepaired = 0
        for g, connectors, A, B in failing_block_pairs(range(20)):
            sides = block_sides(0, connectors, [A, B], 0.4375, 12)
            scores = []
            want = judged(g.rows, sides, full_scan_repair(g.rows, sides, scores))
            assert partition._swap_repair(g.rows, sides) == want
            unrepaired += want is None
            # the early exit is taken before the last candidate of a step
            cut_short += any(delta == -total for total, step in scores
                             for *_, delta in step[:-1])
        assert cut_short >= 10 and unrepaired > 0
