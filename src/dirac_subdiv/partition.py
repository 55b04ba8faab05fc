"""Randomized vertex partitions with verified degree guarantees.

Two stages. First, an equitable random partition of the whole host into one
group per pattern vertex, accepted only if every group and every
pattern-edge group pair induces large minimum degree. Second, inside one
group, a recursive random bisection guided by a balanced interval tree that
carves out one block per connector while preserving degree margins for the
group's center vertex, its connectors, and every block vertex. A finished
block is accepted only when, with the center and its connector added, it
meets Ore's bound min degree >= (|B|+1)/2, so every block the second stage
returns passes the template's block-degree check.

Both stages are Las Vegas: a candidate partition is checked against the
required degree thresholds and re-randomized on failure (whole-partition
retries for the first stage, per-level retries for the second, since each
bisection level conditions on the previous one). At the final bisection
level a pair of sibling blocks that misses is first repaired by
deterministic steepest-descent vertex swaps between the two, in the manner
of Kernighan and Lin, and re-checked; only a pair the repair cannot fix
costs another draw. Returned partitions always satisfy the advertised
postconditions.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .errors import PartitionError
from .graph import Graph, mask_of, min_degree, regular_degree
from .rng import make_rng, spawn_seed


def hypergeometric_tail_bound(n: int, t: float) -> float:
    """Upper bound 2*exp(-2*t^2/n) on P(|X - E[X]| >= t) for a hypergeometric
    variable drawn with sample size n. Vacuous (approaches 2) as t -> 0."""
    if n < 1:
        raise ValueError("sample size n must be >= 1")
    if t <= 0:
        raise ValueError("deviation t must be positive")
    return 2.0 * math.exp(-2.0 * t * t / n)


# --- stage 1: whole-host good partition --------------------------------------


@dataclass(frozen=True)
class GoodPartition:
    """Groups V_0..V_{n-1} of the host, one per pattern vertex.

    The first N mod n groups hold one vertex more than the others.
    part_size is the common group size, or None when n does not divide the
    host order N. attempts records how many random equitable partitions
    were drawn before one passed the degree checks.
    """

    parts: tuple[tuple[int, ...], ...]
    part_size: int | None
    attempts: int


@dataclass(frozen=True)
class GoodnessCheck:
    """Outcome of checking a candidate partition at a degree threshold.

    violation is None on pass, else the worst failed constraint as a tuple
    ("part-size", i, have, want) or ("part-degree" | "pair-degree", vertex,
    part or (part, part), have, need). min_slack is the smallest margin
    have - need over all degree constraints, useful as a retry diagnostic.
    """

    ok: bool
    violation: tuple | None
    min_slack: float


def _degree_violations(g: Graph, pattern_edges, parts, threshold: float):
    """Worst degree violation and min slack for conditions 2 and 3."""
    masks = [mask_of(p) for p in parts]
    worst = None
    min_slack = math.inf
    for i, part in enumerate(parts):
        need = threshold * len(part)
        for v in part:
            have = (g.neighbor_mask(v) & masks[i]).bit_count()
            slack = have - need
            if slack < min_slack:
                min_slack = slack
                if have < need:
                    worst = ("part-degree", v, i, have, need)
    for (i, j) in pattern_edges:
        for a, b in ((i, j), (j, i)):
            need = threshold * len(parts[b])
            for v in parts[a]:
                have = (g.neighbor_mask(v) & masks[b]).bit_count()
                slack = have - need
                if slack < min_slack:
                    min_slack = slack
                    if have < need:
                        worst = ("pair-degree", v, (a, b), have, need)
    return worst, min_slack


def is_good_partition(g: Graph, h: Graph, parts: Sequence[Iterable[int]],
                      threshold: float) -> GoodnessCheck:
    """Check the three good-partition conditions at the given threshold.

    Condition 1: the parts form the equitable layout good_partition draws,
    the first N mod n of size N // n + 1 and the rest of size N // n.
    Condition 2: every part P induces minimum degree >= threshold*|P|.
    Condition 3: for every pattern edge ij, each vertex of P_i has at least
    threshold*|P_j| neighbours in P_j, and vice versa. A
    partition that is structurally broken (wrong part count, overlap, not
    covering the host) raises ValueError; condition failures are reported,
    not raised.
    """
    parts = [tuple(sorted(set(p))) for p in parts]
    if len(parts) != h.n:
        raise ValueError(f"expected {h.n} parts, got {len(parts)}")
    total = 0
    union = 0
    for p in parts:
        m = mask_of(p)
        if m >> g.n:
            raise ValueError("part contains out-of-range vertices")
        if union & m:
            raise ValueError("parts overlap")
        union |= m
        total += len(p)
    if total != g.n or union != g.full_mask():
        raise ValueError("parts do not cover the host vertex set")

    base, rem = divmod(g.n, h.n)
    for i, p in enumerate(parts):
        want = base + (i < rem)
        if len(p) != want:
            return GoodnessCheck(False, ("part-size", i, len(p), want), -math.inf)
    worst, min_slack = _degree_violations(g, h.edges(), parts, threshold)
    return GoodnessCheck(worst is None, worst, min_slack)


def good_partition(g: Graph, h: Graph, alpha: float, delta: float,
                   budget: int = 50, seed: int = 0) -> GoodPartition:
    """Random equitable partition of the host, verified at threshold alpha-delta.

    Draws uniformly random partitions of V(g) into n = |V(h)| groups, the
    first g.n mod n of size g.n // n + 1 and the rest of size g.n // n, and
    returns the first one whose groups and pattern-edge group pairs all have
    induced minimum degree at least (alpha-delta) times the relevant group
    size. Requires min_degree(g) >= alpha*g.n. Raises PartitionError with the
    attempt count and worst violated constraint when the budget runs out.
    """
    if not (0 < delta < alpha):
        raise ValueError("need 0 < delta < alpha")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    regular_degree(h)
    n = h.n
    N = g.n
    base, rem = divmod(N, n)
    sizes = [base + 1] * rem + [base] * (n - rem)
    md = min_degree(g)
    if md is None or md < alpha * N - 1e-9:
        raise ValueError(f"host min degree {md} below required {alpha * N:.3f}")

    threshold = alpha - delta
    pattern_edges = list(h.edges())
    worst_overall = None
    worst_slack = math.inf
    for attempt in range(1, budget + 1):
        rng = make_rng(spawn_seed(seed, 0x0A, attempt))
        perm = rng.permutation(N).tolist()
        parts = []
        pos = 0
        for size in sizes:
            parts.append(tuple(sorted(perm[pos:pos + size])))
            pos += size
        worst, slack = _degree_violations(g, pattern_edges, parts, threshold)
        if worst is None:
            return GoodPartition(tuple(parts), None if rem else base, attempt)
        if slack < worst_slack:
            worst_slack = slack
            worst_overall = worst
    raise PartitionError(
        f"no good partition at threshold {threshold:.4f} in {budget} attempts; "
        f"worst violation: {worst_overall}",
        attempts=budget, violation=worst_overall,
    )


# --- balanced interval tree --------------------------------------------------


@dataclass(frozen=True)
class IntervalTree:
    """Balanced recursive bisection of the block indices 0..d-1.

    levels[0] is the single interval [0, d); each level splits every
    interval into halves whose lengths differ by at most one, except the
    final level, where surviving 2-intervals split into singletons and
    1-intervals carry over. levels[s] enumerates 0..d-1 as singletons, left
    to right. s is the minimal integer with 2**(s-1) < d <= 2**s.
    """

    d: int
    s: int
    levels: tuple[tuple[range, ...], ...]


def interval_tree(d: int) -> IntervalTree:
    if d < 1:
        raise ValueError("d must be >= 1")
    s = (d - 1).bit_length()
    levels = [(range(0, d),)]
    # full bisection down to level s-1, larger half first
    for _ in range(max(0, s - 1)):
        nxt = []
        for iv in levels[-1]:
            mid = iv.start + (len(iv) + 1) // 2
            nxt.append(range(iv.start, mid))
            nxt.append(range(mid, iv.stop))
        levels.append(tuple(nxt))
    if s >= 1:
        last = []
        for iv in levels[-1]:
            if len(iv) == 2:
                last.append(range(iv.start, iv.start + 1))
                last.append(range(iv.start + 1, iv.stop))
            else:
                last.append(iv)
        levels.append(tuple(last))
    return IntervalTree(d, s, tuple(levels))


# --- stage 2: per-group block partition --------------------------------------


@dataclass(frozen=True)
class BlockPartition:
    """One group's split into connector blocks.

    blocks[i] is the block assigned to connectors[i]; the center and the
    connectors themselves are excluded from every block. attempts counts
    level re-randomizations used across the whole bisection.
    """

    center: int
    connectors: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    attempts: int


def _block_events_violation(g: Graph, center: int, connectors, entries,
                            threshold: float, C: int):
    """Check the degree events for freshly randomized sets.

    entries is a list of (interval, vertex_tuple). For an internal interval
    the thresholds scale with the set size; for a singleton (a finished
    block) the induced-min-degree event is checked against threshold*C.
    A finished block must also meet Ore's bound once its center and
    connector join it: every vertex of that set B has at least (|B|+1)/2
    neighbours in B, the bound check_template and the Hamilton stage need.
    """
    for iv, vs in entries:
        m = mask_of(vs)
        size = len(vs)
        final = len(iv) == 1
        need_inner = threshold * (C if final else size)
        for v in vs:
            have = (g.neighbor_mask(v) & m).bit_count()
            if have < need_inner:
                label = "block-min-degree" if final else "set-min-degree"
                return (label, v, tuple(iv), have, need_inner)
        need = threshold * size
        have = (g.neighbor_mask(center) & m).bit_count()
        if have < need:
            return ("center-degree", center, tuple(iv), have, need)
        for ell in iv:
            have = (g.neighbor_mask(connectors[ell]) & m).bit_count()
            if have < need:
                return ("connector-degree", connectors[ell], tuple(iv), have, need)
        if final:
            conn = connectors[iv.start]
            b = m | 1 << center | 1 << conn
            need_ore = (size + 3) / 2  # (|B|+1)/2 with |B| = size + 2
            for v in (*vs, center, conn):
                have = (g.neighbor_mask(v) & b).bit_count()
                if have < need_ore:
                    return ("block-ore-degree", v, tuple(iv), have, need_ore)
    return None


def _swap_repair(g: Graph, center: int, conns: tuple[int, int],
                 pair: tuple[tuple[int, ...], tuple[int, ...]],
                 threshold: float, C: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Steepest-descent swaps between two sibling blocks; no randomness.

    The shortfall of a block X with connector c is what
    _block_events_violation finds missing, in whole degrees (an integer
    degree meets a bound iff it meets its ceiling): tau*C inner degree of
    each vertex of X, Ore degree (|X|+3)/2 of each vertex of X + {center,
    c} inside that set, and tau*|X| degree of the center and of c into X.
    Each step makes the swap of a in the first block with b in the second
    that most reduces the pair's total shortfall, the lowest (a, b) on a
    tie. One of a, b must take part in a shortfall: be short itself, or be
    a non-neighbour of a short vertex of its block. The pass stops at zero
    shortfall, when no swap reduces it, or after |A|+|B| swaps.

    Every vertex keeps its degree counts into both blocks, updated from the
    rows of the two swapped vertices. A vertex with count k and bounds
    lo <= hi is short by max(0, lo-k) + max(0, hi-k). A swap moves the
    count of every other vertex by at most one, which changes that by
    [k<=lo]+[k<=hi] on a fall and by -([k<lo]+[k<hi]) on a rise. Held as
    bit masks, those weights split the change of a swap into a term of a, a
    term of b, and minus the number of bounds met exactly over the common
    neighbours of a and b, so scoring a swap costs one AND and a popcount
    or two.
    """
    z = center
    pool = pair[0] + pair[1]
    row = {v: g.neighbor_mask(v) for v in (*pool, z, *conns)}
    inner = math.ceil(threshold * C)
    bounds = []  # per side: vertex -> the bounds (lo, hi) its count must meet
    for X, c in zip(pair, conns):
        ore = math.ceil((len(X) + 3) / 2)
        t = {v: sorted((inner, ore - (row[z] >> v & 1) - (row[c] >> v & 1)))
             for v in pool}
        t[z] = t[c] = sorted((math.ceil(threshold * len(X)), ore - (row[z] >> c & 1)))
        bounds.append(t)
    members = [sorted(pair[0]), sorted(pair[1])]
    counts = [{v: (r & m).bit_count() for v, r in row.items()}
              for m in (mask_of(pair[0]), mask_of(pair[1]))]

    def short(s, v, k):
        lo, hi = bounds[s][v]
        return max(0, lo - k) + max(0, hi - k)

    for _ in range(len(pool)):
        # per side, as masks: the vertices whose shortfall grows by >= 1 and
        # by 2 when their count falls by one, those whose shortfall shrinks
        # by >= 1 and by 2 when it rises by one, and the swap-out candidates
        fall1, fall2, rise1, rise2, movable = [0, 0], [0, 0], [0, 0], [0, 0], [0, 0]
        exact = {}  # vertex -> bounds its counts meet exactly, both sides
        total = 0
        for s in (0, 1):
            m = mask_of(members[s])
            for v in (*members[s], z, conns[s]):
                k = counts[s][v]
                lo, hi = bounds[s][v]
                if k > hi:
                    continue
                bit = 1 << v
                fall1[s] |= bit
                if k <= lo:
                    fall2[s] |= bit
                if k == lo or k == hi:
                    exact[v] = exact.get(v, 0) + (k == lo) + (k == hi)
                if k < hi:
                    rise1[s] |= bit
                    if k < lo:
                        rise2[s] |= bit
                    total += max(0, lo - k) + hi - k
                    movable[s] |= m & ~row[v]
        if total == 0:
            break
        # bit slices of the exact counts: slice i holds the vertices of
        # weight > i, so a set's weight is the sum of its popcounts with them
        first, *more = [mask_of(v for v, w in exact.items() if w > i)
                        for i in range(max(exact.values(), default=1))]
        out = [[v for v in members[s] if movable[s] >> v & 1] for s in (0, 1)]
        # own[s][v][j]: the change of a swap that moves v off side s, less
        # the common-neighbour term; j = 1 when v and its partner are
        # adjacent, so the partner's row also counts v, whose rise is void
        own = ({}, {})
        for s in (0, 1):
            o = 1 - s
            f1, f2, r1, r2 = fall1[s], fall2[s], rise1[o], rise2[o]
            for v in members[s] if out[o] else out[s]:
                r = row[v]
                k = counts[o][v]
                base = ((r & f1).bit_count() + (r & f2).bit_count()
                        - (r & r1).bit_count() - (r & r2).bit_count()
                        - short(s, v, counts[s][v]))
                own[s][v] = (base + short(o, v, k),
                             base + short(o, v, k - 1)
                             + (rise1[s] >> v & 1) + (rise2[s] >> v & 1))
        # a candidate a pairs with every b, any other a with candidate b only
        every = [(b, row[b], own[1][b]) for b in members[1] if b in own[1]]
        some = [(b, row[b], own[1][b]) for b in out[1]]
        best, best_pair = 0, None
        for a in members[0]:
            ra, ta = row[a], own[0].get(a)
            for b, rb, tb in every if movable[0] >> a & 1 else some:
                ab = ra >> b & 1
                common = ra & rb
                delta = ta[ab] + tb[ab] - (common & first).bit_count()
                for sl in more:
                    delta -= (common & sl).bit_count()
                if delta < best:
                    best, best_pair = delta, (a, b)
        if best_pair is None:
            break
        a, b = best_pair
        members = [sorted({*members[0], b} - {a}), sorted({*members[1], a} - {b})]
        if total + best == 0:
            break
        ra, rb = row[a], row[b]
        for v in row:
            change = (rb >> v & 1) - (ra >> v & 1)
            counts[0][v] += change
            counts[1][v] -= change
    return tuple(members[0]), tuple(members[1])


def block_partition(g: Graph, group: Iterable[int], center: int,
                    connectors: Sequence[int], alpha: float, delta: float,
                    level_budget: int = 50, seed: int = 0,
                    extras: int = 0) -> BlockPartition:
    """Split a group of size C*d (+extras) into d verified connector blocks.

    The group minus {center} and the d connectors is bisected recursively
    following interval_tree(d): at each level every current set splits
    uniformly at random into two sets whose target sizes are the sums of the
    block sizes below each child interval. Block i ends with C-1 vertices
    (C-2 for the last block), plus one more for the first `extras` blocks.

    A level is accepted only if every freshly split set S keeps, at
    threshold tau = alpha - delta: induced min degree >= tau*|S| (>= tau*C
    once S is a finished block), degree of the center into S >= tau*|S|, and
    degree of each connector indexed inside S's interval >= tau*|S|. A
    finished block must also meet Ore's bound with its center and connector
    added: B = S + {center, connector} has min degree >= (|B|+1)/2, the
    block-min-degree check of check_template, labelled "block-ore-degree"
    when it fails.

    At the final level, where every fresh set is a block, the draw is
    checked one sibling pair at a time. A pair that misses is repaired
    before another draw: _swap_repair swaps vertices between the two
    siblings, deterministically and without drawing a seed, and the pair is
    checked again by the same events. A draw that passes is used untouched.
    A level whose draw still misses is re-randomized, up to level_budget
    draws; exhaustion raises PartitionError naming the level and failed
    event, whose attempts count every level draw of the call (accepted
    levels included; repairs are not draws). Requires the induced group min
    degree to be at least alpha*|group|.
    """
    if not (0 < delta < alpha):
        raise ValueError("need 0 < delta < alpha")
    if level_budget < 1:
        raise ValueError("level_budget must be >= 1")
    group = sorted(set(group))
    gmask = mask_of(group)
    if gmask >> g.n:
        raise ValueError("group contains out-of-range vertices")
    d = len(connectors)
    if d < 1:
        raise ValueError("need at least one connector")
    specials = [center, *connectors]
    if len(set(specials)) != d + 1:
        raise ValueError("center and connectors must be distinct")
    if any(not (gmask >> v & 1) for v in specials):
        raise ValueError("center and connectors must lie inside the group")
    if extras < 0 or (extras >= d and extras != 0):
        raise ValueError("extras must satisfy 0 <= extras < d")
    if (len(group) - extras) % d != 0:
        raise ValueError(f"group size {len(group)} minus extras {extras} not divisible by {d}")
    C = (len(group) - extras) // d
    if C < 3:
        raise ValueError(f"blow-up constant {C} too small; need C >= 3")
    gmin = min((g.neighbor_mask(v) & gmask).bit_count() for v in group)
    if gmin < alpha * len(group) - 1e-9:
        raise ValueError(
            f"group min degree {gmin} below required {alpha * len(group):.3f}")

    sizes = [(C - 1 if ell < d - 1 else C - 2) + (1 if ell < extras else 0)
             for ell in range(d)]
    pool = tuple(v for v in group if v not in set(specials))
    assert len(pool) == sum(sizes)

    threshold = alpha - delta
    tree = interval_tree(d)

    if tree.s == 0:
        # d == 1: nothing to randomize, the pool is the single block
        viol = _block_events_violation(
            g, center, connectors, [(tree.levels[0][0], pool)], threshold, C)
        if viol is not None:
            raise PartitionError(
                f"single-block degree event failed: {viol}",
                attempts=0, level=0, violation=viol)
        return BlockPartition(center, tuple(connectors), (pool,), 0)

    def span_size(iv: range) -> int:
        return sum(sizes[ell] for ell in iv)

    current = [pool]
    total_attempts = 0
    for level in range(1, tree.s + 1):
        parents = tree.levels[level - 1]
        children = tree.levels[level]
        # align children with their parents positionally
        kid_groups = []
        k = 0
        for pr in parents:
            kids = []
            while k < len(children) and children[k].stop <= pr.stop:
                kids.append(children[k])
                k += 1
            kid_groups.append(kids)
        last_viol = None
        for attempt in range(1, level_budget + 1):
            rng = make_rng(spawn_seed(seed, 0x0B, level, attempt))
            new_sets = []
            fresh = []
            for pr, pset, kids in zip(parents, current, kid_groups):
                if len(kids) == 1:
                    new_sets.append(pset)  # singleton carried, already checked
                    continue
                left_size = span_size(kids[0])
                perm = rng.permutation(len(pset))
                left = tuple(sorted(pset[i] for i in perm[:left_size]))
                right = tuple(sorted(pset[i] for i in perm[left_size:]))
                new_sets.extend((left, right))
                fresh.extend(((kids[0], left), (kids[1], right)))
            # the final level, where fresh holds sibling blocks side by side
            # and new_sets[l] is block l, is checked one pair at a time; a
            # pair that misses is repaired by swaps and checked again
            step = 2 if level == tree.s else len(fresh)
            for i in range(0, len(fresh), step):
                sets = fresh[i:i + step]
                last_viol = _block_events_violation(
                    g, center, connectors, sets, threshold, C)
                if last_viol is not None and level == tree.s:
                    (lk, left), (rk, right) = sets
                    left, right = _swap_repair(
                        g, center, (connectors[lk.start], connectors[rk.start]),
                        (left, right), threshold, C)
                    sets = [(lk, left), (rk, right)]
                    new_sets[lk.start], new_sets[rk.start] = left, right
                    last_viol = _block_events_violation(
                        g, center, connectors, sets, threshold, C)
                if last_viol is not None:
                    break
            if last_viol is None:
                current = new_sets
                total_attempts += attempt
                break
        else:
            raise PartitionError(
                f"level {level} degree events failed {level_budget} times; "
                f"last violation: {last_viol}",
                attempts=total_attempts + level_budget, level=level,
                violation=last_viol)

    blocks = tuple(current)
    assert [len(b) for b in blocks] == sizes
    return BlockPartition(center, tuple(connectors), blocks, total_attempts)
