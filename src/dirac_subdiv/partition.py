"""Randomized vertex partitions with verified degree guarantees.

Two stages. First, an equitable random partition of the whole host into one
group per pattern vertex, accepted only if every group and every
pattern-edge group pair induces large minimum degree. Second, inside one
group, a uniformly random split of the group, center and connectors
excepted, into one block per connector. A block is accepted only with
large inner degree and when, with the center and its connector added, it
meets Ore's bound min degree >= (|B|+1)/2, which passes the template's Ore
check and gives the center and the connector about half the block.

Both stages are Las Vegas: a candidate partition is checked against the
required degree thresholds and re-randomized on failure. A block split
that misses is first repaired by deterministic steepest-descent vertex
swaps between a failing block and another block of its group, in the
manner of Kernighan and Lin; blocks of one group share only the center, so
a swap between two of them leaves every other block's check as it was, and
only a split the repair cannot fix costs another draw. Both stages draw
through one seeded split, _draws.

Every degree rule of both stages reads: vertex v needs at least k
neighbours in a set X. Each stage states its rules once, as demand tables
of rows (label, key, W, extra, need): each vertex of W, or of the checked
set S when W is None, needs `need` neighbours in S plus the vertex mask
extra; the block stage builds one table per block per call.
_worst_violation reports the worst miss over (table, S) sides;
_swap_repair scores swaps on them.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import accumulate, product

import numpy as np

from .errors import PartitionError
from .graph import Graph, checked_ids, mask_of, min_degree, regular_degree
from .rng import make_rng, spawn_seed


def hypergeometric_tail_bound(n: int, t: float) -> float:
    """Upper bound 2*exp(-2*t^2/n) on P(|X - E[X]| >= t) for a hypergeometric
    variable drawn with sample size n. Vacuous (approaches 2) as t -> 0."""
    if n < 1:
        raise ValueError("sample size n must be >= 1")
    if t <= 0:
        raise ValueError("deviation t must be positive")
    return 2.0 * math.exp(-2.0 * t * t / n)


def _draws(budget: int, population, sizes: Sequence[int], *seed_path: int):
    """Both stages' random splits, as (k, parts): draw k orders population, an
    int N standing for range(N), by make_rng(spawn_seed(*seed_path, k)) and
    cuts the order into sorted parts of the given sizes. Yields budget draws,
    or one for a single part, which has only one possible split."""
    ends = [0, *accumulate(sizes)]
    for k in range(1, (budget if len(sizes) > 1 else 1) + 1):
        order = make_rng(spawn_seed(*seed_path, k)).permutation(population).tolist()
        yield k, [tuple(sorted(order[a:b])) for a, b in zip(ends, ends[1:])]


# --- stage 1: whole-host good partition --------------------------------------


@dataclass(frozen=True)
class GoodPartition:
    """Groups V_0..V_{n-1} of the host, one per pattern vertex.

    The first N mod n groups hold one vertex more than the others.
    attempts records how many random equitable partitions were drawn before
    one passed the degree checks.
    """

    parts: tuple[tuple[int, ...], ...]
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


def _worst_violation(rows, sides):
    """The worst miss (label, v, key, have, need) over sides, each a demand
    table with the set S it checks, least slack have - need and first in
    order on a tie, or None, and the min slack over all rows."""
    worst, min_slack = None, math.inf
    for demands, S in sides:
        m = mask_of(S)
        for label, key, W, extra, need in demands:
            X = m | extra
            low = math.inf
            for v in W or S:
                have = (rows[v] & X).bit_count()
                if have < low:
                    low, low_v = have, v
            if low - need < min_slack:
                min_slack = low - need
                if low < need:
                    worst = (label, low_v, key, low, need)
    return worst, min_slack


def _good_demands(pattern_edges, parts, threshold: float):
    """Conditions 2 and 3 of a good partition as demand rows."""
    masks = [mask_of(p) for p in parts]
    for i, part in enumerate(parts):
        yield "part-degree", i, part, masks[i], threshold * len(part)
    for (i, j) in pattern_edges:
        for a, b in ((i, j), (j, i)):
            yield "pair-degree", (a, b), parts[a], masks[b], threshold * len(parts[b])


def _goodness(rows, pattern_edges, parts, threshold: float) -> GoodnessCheck:
    """Conditions 1-3 of a good partition of the host with these rows."""
    base, rem = divmod(len(rows), len(parts))
    for i, p in enumerate(parts):
        if len(p) != base + (i < rem):
            return GoodnessCheck(False, ("part-size", i, len(p), base + (i < rem)), -math.inf)
    worst, min_slack = _worst_violation(
        rows, [(_good_demands(pattern_edges, parts, threshold), ())])
    return GoodnessCheck(worst is None, worst, min_slack)


def is_good_partition(g: Graph, h: Graph, parts: Sequence[Iterable[int]],
                      threshold: float) -> GoodnessCheck:
    """Check the three good-partition conditions at the given threshold.

    Condition 1: the parts form the equitable layout good_partition draws,
    the first N mod n of size N // n + 1 and the rest of size N // n.
    Condition 2: every part P induces minimum degree >= threshold*|P|.
    Condition 3: for every pattern edge ij, each vertex of P_i has at least
    threshold*|P_j| neighbours in P_j, and vice versa. A partition that is
    structurally broken (wrong part count, overlap, not covering the host)
    raises ValueError; condition failures are reported, not raised.
    """
    if len(parts) != h.n:
        raise ValueError(f"expected {h.n} parts, got {len(parts)}")
    parts = [tuple(checked_ids(g, p, "part")) for p in parts]
    union = 0
    for p in parts:
        m = mask_of(p)
        if union & m:
            raise ValueError("parts overlap")
        union |= m
    if union != g.full_mask():  # disjoint sets, so the sizes sum to g.n
        raise ValueError("parts do not cover the host vertex set")
    return _goodness(g.rows, h.edges(), parts, threshold)


def good_partition(g: Graph, h: Graph, alpha: float, delta: float,
                   budget: int = 50, seed: int = 0) -> GoodPartition:
    """Random equitable partition of the host, verified at threshold alpha-delta.

    Draws, through _draws on the seed path (seed, 0x0A), uniformly random
    partitions of V(g) into n = |V(h)| groups, the first g.n mod n of size
    g.n // n + 1 and the rest of size g.n // n, and returns the first one
    whose groups and pattern-edge group pairs all have induced minimum
    degree at least (alpha-delta) times the relevant group size. Requires
    min_degree(g) >= alpha*g.n. Raises PartitionError with the draws made
    and the worst violated constraint when the budget runs out.
    """
    if not (0 < delta < alpha):
        raise ValueError("need 0 < delta < alpha")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    regular_degree(h)
    n, N = h.n, g.n
    base, rem = divmod(N, n)
    sizes = [base + 1] * rem + [base] * (n - rem)
    md = min_degree(g)
    if md is None or md < alpha * N - 1e-9:
        raise ValueError(f"host min degree {md} below required {alpha * N:.3f}")

    threshold = alpha - delta
    pattern_edges = list(h.edges())
    least = None  # the failed check of least min_slack, the first on a tie
    for attempt, parts in _draws(budget, N, sizes, seed, 0x0A):
        check = _goodness(g.rows, pattern_edges, parts, threshold)
        if check.ok:
            return GoodPartition(tuple(parts), attempt)
        if least is None or check.min_slack < least.min_slack:
            least = check
    raise PartitionError(
        f"no good partition at threshold {threshold:.4f} in {attempt} attempts; "
        f"worst violation: {least.violation}",
        attempts=attempt, violation=least.violation,
    )


# --- balanced interval tree --------------------------------------------------


@dataclass(frozen=True)
class IntervalTree:
    """Balanced recursive bisection of the block indices 0..d-1.

    levels[0] is the single interval [0, d); each level halves every
    interval of two or more, larger half first, and carries singletons
    over. levels[s] enumerates 0..d-1 as singletons, left to right. s is
    the minimal integer with 2**(s-1) < d <= 2**s.

    The pipeline does not call it; acceptance criterion 6 tests it.
    """

    d: int
    s: int
    levels: tuple[tuple[range, ...], ...]


def interval_tree(d: int) -> IntervalTree:
    if d < 1:
        raise ValueError("d must be >= 1")
    levels = [(range(0, d),)]
    while len(levels[-1]) < d:
        nxt = []
        for iv in levels[-1]:
            mid = iv.start + (len(iv) + 1) // 2
            nxt += (range(iv.start, mid), range(mid, iv.stop)) if len(iv) > 1 else (iv,)
        levels.append(tuple(nxt))
    return IntervalTree(d, len(levels) - 1, tuple(levels))


# --- stage 2: per-group block partition --------------------------------------


@dataclass(frozen=True)
class BlockPartition:
    """One group's split into connector blocks.

    blocks[i] is the block assigned to connectors[i]; the center and the
    connectors themselves are excluded from every block. attempts counts
    the group draws used, the accepted one included.
    """

    center: int
    connectors: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    attempts: int


def _block_demands(i: int, size: int, center: int, connector: int,
                   threshold: float, C: int):
    """Block i's demand rows at size s and threshold tau, in check order:
    inner degree tau*C, then Ore's bound on every vertex of B = S + {center,
    connector}, S first. Degree tau*s from the center or the connector needs
    no row: with c its neighbours in S and a = 1 when the two are adjacent,
    Ore's bound gives c >= ceil((s+3)/2) - a >= ceil((s+1)/2) >= tau*s for
    tau < 1/2 + 1/(2s), with slack c + a - (s+3)/2 below c - tau*s, so such
    a row would change no check, repair bound or worst miss."""
    extra = 1 << center | 1 << connector
    ore = (size + 3) / 2  # (|B|+1)/2 with |B| = size + 2
    return [("block-min-degree", i, None, 0, threshold * C),
            *(("block-ore-degree", i, W, extra, ore) for W in (None, (center, connector)))]


def _swap_repair(rows, sides) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Steepest-descent swaps between two blocks of one group, given as the
    (demand rows, set) sides _worst_violation checks; no randomness.

    A row asking need neighbours in X + extra bounds v's count into X below by
    ceil(need) - |N(v) & extra|. A row with W None binds every vertex of the
    pair, since any may move into X; one with a W binds the vertices in it,
    which stay put. A vertex meets all its rows on a side exactly when it
    meets the largest of these bounds, so it keeps only that one, and a
    side's shortfall is the sum of max(0, bound - count) over the vertices
    it binds. Each step makes the swap of a in the first set with b in the
    second that most reduces the total shortfall, the lowest (a, b) on a
    tie. A swap's change is exact, so none falls below minus the total: the
    scan stops at the first swap that clears the pair, which is the swap
    the full scan picks. The pass returns the pair at zero shortfall (both
    sets pass), and None when no swap reduces it.

    A swap moves every other count by at most one: a fall costs one on a
    vertex at or below its bound, a rise saves one below it. So a swap's
    change is a term of a, a term of b, and minus the vertices exactly at
    their bound among the common neighbours: one AND and popcount per mask.
    """
    pool = sides[0][1] + sides[1][1]
    bound = ({}, {})  # per side: vertex -> the largest count into the side its rows ask
    for (demands, _), t in zip(sides, bound):
        for *_, W, extra, need in demands:
            k = math.ceil(need)
            for v in W or pool:
                b = k - (rows[v] & extra).bit_count()
                if v not in t or b > t[v]:
                    t[v] = b
    fixed = [t.keys() - set(pool) for t in bound]  # the W vertices each side binds
    members = [sorted(sides[0][1]), sorted(sides[1][1])]

    while True:  # each step lowers the integer shortfall by at least one
        m = [mask_of(members[0]), mask_of(members[1])]
        # per side, the vertices below their bound (rise) and those at it (exact)
        rise, exact, total = [0, 0], [0, 0], 0
        for s in (0, 1):
            for v in (*members[s], *fixed[s]):
                gap = bound[s][v] - (rows[v] & m[s]).bit_count()
                if gap > 0:
                    total += gap
                    rise[s] |= 1 << v
                elif gap == 0:
                    exact[s] |= 1 << v
        if total == 0:
            return tuple(members[0]), tuple(members[1])
        fall = [rise[0] | exact[0], rise[1] | exact[1]]
        # own[s]: (v, row, t) per vertex v of side s, where t[j] is the change
        # of a swap that moves v off side s, less the common-neighbour term;
        # j = 1 when v and its partner are adjacent, so the partner's row
        # also counts v, whose rise is void
        own = ([], [])
        for s in (0, 1):
            o = 1 - s
            for v in members[s]:
                r = rows[v]
                gap = bound[o][v] - (r & m[o]).bit_count()  # on the side v joins
                base = ((r & fall[s]).bit_count() - (r & rise[o]).bit_count()
                        - max(0, bound[s][v] - (r & m[s]).bit_count()))
                own[s].append((v, r, (base + max(0, gap),
                                      base + max(0, gap + 1) + (rise[s] >> v & 1))))
        best, best_pair = 0, None
        for (a, ra, ta), (b, rb, tb) in product(*own):
            ab = ra >> b & 1
            common = ra & rb
            delta = (ta[ab] + tb[ab] - (common & exact[0]).bit_count()
                     - (common & exact[1]).bit_count())
            if delta < best:
                best, best_pair = delta, (a, b)
                if best == -total:  # no swap clears more than the total
                    break
        if best_pair is None:
            return None
        a, b = best_pair
        members = [sorted({*members[0], b} - {a}), sorted({*members[1], a} - {b})]
        if total + best == 0:
            return tuple(members[0]), tuple(members[1])


def check_blowup(C: int, alpha: float, delta: float) -> None:
    """ValueError unless blow-up constant C can pass the block stage at
    threshold tau = alpha - delta < 1 on some host: the last block has C-2
    vertices, so inner degree at most C-3, and the stage needs tau*C of it.
    """
    tau = alpha - delta
    least = C
    while least - 3 < tau * least:  # the float test of the block-min-degree row
        least += 1
    if least > C:
        raise ValueError(
            f"blow-up constant C={C} is infeasible at block threshold {tau:g}: "
            f"the last block's C-2 vertices have inner degree at most C-3 < "
            f"{tau:g}*C; the smallest feasible C is {least}")


def block_partition(g: Graph, group: Iterable[int], center: int,
                    connectors: Sequence[int], alpha: float, delta: float,
                    level_budget: int = 50, seed: int = 0) -> BlockPartition:
    """Split a group of C*d + r vertices, 0 <= r < d, into d verified blocks.

    Each draw, through _draws on the seed path (seed, 0x0B, 1), takes one
    uniformly random order of the group minus {center} and the d connectors
    and cuts it into the d block sizes: block i has C-1 vertices (C-2 for
    the last block), plus one more for the first r blocks.

    A block S is accepted only if, at threshold tau = alpha - delta, it has
    induced min degree >= tau*C ("block-min-degree") and B = S + {center,
    connector} meets Ore's bound min degree >= (|B|+1)/2 ("block-ore-degree"),
    check_template's Ore check. That bound gives the center and the connector
    degree >= tau*|S| into S for tau < 1/2 + 1/(2|S|), every threshold
    build_template uses (_block_demands); above it that degree is unchecked.

    Each block of a draw is checked once, in index order. A failing block is
    passed to _swap_repair with each other block in index order,
    deterministically and without drawing a seed, and the first pair it
    returns, which passes, is kept; a failing block that no partner repairs
    ends the draw. A draw that passes is used untouched. A missed draw is
    replaced by a fresh one, up to level_budget draws, or one draw for d = 1,
    whose single block has only one possible split; exhaustion raises
    PartitionError at level 1 with the worst miss of the block that ended the
    last draw, whose attempts count every draw. Requires the induced group min
    degree to be at least alpha*|group| and a feasible C (check_blowup).
    """
    if not (0 < delta < alpha):
        raise ValueError("need 0 < delta < alpha")
    if level_budget < 1:
        raise ValueError("level_budget must be >= 1")
    group = checked_ids(g, group, "group")
    gmask = mask_of(group)
    d = len(connectors)
    if d < 1:
        raise ValueError("need at least one connector")
    specials = {center, *connectors}
    if len(specials) != d + 1:
        raise ValueError("center and connectors must be distinct")
    if not specials <= set(group):
        raise ValueError("center and connectors must lie inside the group")
    center, connectors = g._vertex(center), [*map(g._vertex, connectors)]
    rows = g.rows
    gmin = min((rows[v] & gmask).bit_count() for v in group)
    if gmin < alpha * len(group) - 1e-9:
        raise ValueError(
            f"group min degree {gmin} below required {alpha * len(group):.3f}")
    C, extras = divmod(len(group), d)
    check_blowup(C, alpha, delta)

    sizes = [(C - 1 if ell < d - 1 else C - 2) + (ell < extras) for ell in range(d)]
    pool = np.array([v for v in group if v not in specials])  # no conversion per draw
    threshold = alpha - delta
    demands = [_block_demands(ell, k, center, connectors[ell], threshold, C)
               for ell, k in enumerate(sizes)]
    # a group draw is level 1, in its seed path as in PartitionError
    for attempt, blocks in _draws(level_budget, pool, sizes, seed, 0x0B, 1):
        # a failing block i takes the first repaired pair with a partner j; a
        # swap moves no other block, so blocks before i still pass
        for i in range(d):
            viol = _worst_violation(rows, [(demands[i], blocks[i])])[0]
            if viol is None:
                continue
            for j in range(d):
                if j != i:
                    pair = _swap_repair(rows, [(demands[i], blocks[i]), (demands[j], blocks[j])])
                    if pair is not None:
                        blocks[i], blocks[j] = pair
                        break
            else:
                break
        else:
            return BlockPartition(center, tuple(connectors), tuple(blocks), attempt)
    raise PartitionError(
        f"group draw failed {attempt} times; last violation: {viol}",
        attempts=attempt, level=1, violation=viol)
