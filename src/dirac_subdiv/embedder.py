"""Spanning-subdivision embedding pipeline.

Given a host graph G on N = C*d*n + r vertices (0 <= r < d*n) with minimum
degree at least (1+eps)*N/2 and a d-regular pattern H on n vertices, the
pipeline builds a template (one branch vertex per pattern vertex, one
connector pair and one block per pattern edge end), finds a Hamilton path
from the branch vertex to the connector inside every block, and glues path
pairs across connector edges into one host path per pattern edge. The
result is a certificate that is verified from scratch before being
reported; a success report never carries an unverified certificate.

Randomness is Las Vegas throughout: every template stage checks its own
output and the whole pipeline retries with a fresh derived seed when a
partition stage runs out of draws. Only the template is random, and the
connector and branch picks between the two partition stages are
deterministic and cannot fail.
Every block meets Ore's bound, so the Hamilton stage builds its paths
deterministically, draws no seed and cannot fail, and the glued
certificate always verifies: a rejected one is a bug, not a retry.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, replace

from .certificate import SubdivisionCertificate
from .errors import PartitionError
from .generators import check_pattern_dimensions, dirac_degree_bound
# induced is unused here; perfbench/spans.py traces it as embedder.induced
from .graph import Graph, induced, mask_of, min_degree, regular_degree
from .partition import block_partition, check_blowup, good_partition
from .hampath import hamilton_path_between, ore_miss
from .rng import spawn_seed
from .verifier import PathLengthStats, verify_certificate

# the keys of EmbedReport.stage_attempts; block_levels counts group draws, and
# keeps its name because the sweep CSV header and the embed-near-bound digest pin it
DRAW_COUNTS = ("good_partition", "block_levels")


@dataclass
class EmbedConfig:
    """Knobs for one embedding run.

    epsilon is the degree slack of the host guarantee. The blow-up constant
    is always C = N // (d*n) for a host of order N; a given C is only
    checked against that value. The host splits equitably into n groups,
    the first N mod n of them one vertex larger, so an order above C*d*n
    widens the block-size window by one.
    """

    epsilon: float
    C: int | None = None
    seed: int = 0
    master_attempts: int = 5

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")
        if self.master_attempts < 1:
            raise ValueError("master_attempts must be >= 1")


@dataclass
class Template:
    """Branch vertices, connectors, and blocks covering the host.

    branch[i] is the branch vertex of pattern vertex i. For every pattern
    edge ij there are connectors[(i,j)] in group i and connectors[(j,i)] in
    group j joined by a host edge, and blocks[(i,j)] contains branch[i],
    connectors[(i,j)], and the private vertices the edge path will consume
    on i's side. Blocks of one group share exactly the branch vertex;
    check_template derives their size window from the host order.
    """

    branch: tuple[int, ...]
    connectors: dict[tuple[int, int], int]
    blocks: dict[tuple[int, int], tuple[int, ...]]


@dataclass
class TemplateCheck:
    ok: bool
    label: str | None = None
    witness: str | None = None


@dataclass
class EmbedReport:
    success: bool
    n: int
    d: int
    C: int
    N: int
    epsilon: float
    seed: int
    master_attempts_used: int
    stage_attempts: dict[str, int]
    failures: list[str]
    failure_stage: str | None
    detail: str | None
    length_stats: PathLengthStats | None
    wall_time_s: float
    certificate: SubdivisionCertificate | None

    def summary(self) -> str:
        head = "success" if self.success else f"FAILURE at {self.failure_stage}"
        lines = [
            f"embed {head}: n={self.n} d={self.d} C={self.C} N={self.N} "
            f"epsilon={self.epsilon} seed={self.seed}",
            f"  master attempts: {self.master_attempts_used}  "
            f"stage attempts: {self.stage_attempts}",
            f"  wall time: {self.wall_time_s:.3f}s",
        ]
        if self.detail:
            lines.append(f"  detail: {self.detail}")
        if self.length_stats and not self.length_stats.empty:
            lines.append(f"  path edge-lengths: {self.length_stats}")
        return "\n".join(lines)


def stage_thresholds(epsilon: float):
    """(alpha, delta) of the good partition and of the block partition: the
    proof chain checks the host's groups at (1+eps)/2 minus eps/2, and each
    group's blocks at that value minus eps/4."""
    alpha = (1.0 + epsilon) / 2.0
    return (alpha, epsilon / 2.0), (alpha - epsilon / 2.0, epsilon / 4.0)


def resolve_dimensions(g: Graph, h: Graph, cfg: EmbedConfig):
    """Derive (n, d, C) from the pattern and the host order, checked by
    check_pattern_dimensions and, at cfg.epsilon, check_blowup."""
    n = h.n
    d = regular_degree(h)
    check_pattern_dimensions(n, d)
    C = g.n // (d * n)
    if cfg.C is not None and cfg.C != C:
        raise ValueError(
            f"host order {g.n} must lie in [C*d*n, (C+1)*d*n) = "
            f"[{cfg.C * d * n}, {(cfg.C + 1) * d * n}) for C={cfg.C}")
    check_blowup(C, *stage_thresholds(cfg.epsilon)[1])
    return n, d, C


def _part_order(g: Graph, part) -> list[int]:
    """Part vertices by descending degree into the part, ties by id."""
    rows, pmask = g.rows, mask_of(part)
    return sorted(part, key=lambda v: (-(rows[v] & pmask).bit_count(), v))


def _select_connectors_and_branch(g: Graph, h: Graph, parts):
    """Pick one connector pair per pattern edge and one branch vertex per
    group, all distinct, greedily preferring vertices of large degree into
    their own group. Deterministic.

    The picks cannot run out on a good partition, which build_template
    checks at (1+eps)/2 - eps/2 = 1/2: every vertex of group i then has at
    least |P_j|/2 >= 3d/2 neighbours in each pattern-neighbour group j,
    since |P_j| >= C*d >= 3d. When the pair of edge ij is picked, at most
    d-1 vertices of group i or of group j are taken (connectors of their
    other edges), so group i has an unused vertex u and u an unused
    neighbour in group j. After the connectors each group has d of its
    >= 3d vertices taken, which leaves it a branch vertex.
    """
    rows = g.rows
    orders = [_part_order(g, p) for p in parts]
    masks = [mask_of(p) for p in parts]
    used: set[int] = set()
    connectors: dict[tuple[int, int], int] = {}
    for i, j in sorted(h.edges()):
        u = next(u for u in orders[i] if u not in used)
        nbrs = rows[u] & masks[j]
        v = next(v for v in orders[j] if v not in used and nbrs >> v & 1)
        connectors[(i, j)], connectors[(j, i)] = u, v
        used.update((u, v))
    # a branch pick need not join `used`: no two come from one group
    branch = tuple(next(v for v in order if v not in used) for order in orders)
    return branch, connectors


def _counted(counts: dict[str, int], key: str, stage, *args, **kwargs):
    """Call a randomized partition stage and add its draws to counts[key],
    whether it returns or raises PartitionError."""
    try:
        result = stage(*args, **kwargs)
    except PartitionError as e:
        counts[key] += e.attempts
        raise
    counts[key] += result.attempts
    return result


def build_template(g: Graph, h: Graph, cfg: EmbedConfig,
                   counts: dict[str, int] | None = None) -> Template:
    """Construct and self-check a template from its one seed, cfg.seed, which
    embed_subdivision sets to spawn_seed(cfg.seed, 0x01, k) in master attempt k.

    Stage thresholds follow the proof chain: the whole-host partition is
    checked at (1+eps)/2 minus eps/2, and the per-group block partitions at
    that value minus eps/4. The block stage also checks every block, branch
    vertex and connector included, at Ore's bound (|block|+1)/2, so a block
    that would fail check_template's block-ore-degree is repaired or re-drawn
    with its group instead of failing the whole attempt. Raises PartitionError
    when a randomized stage exhausts its budget, and ValueError when the inputs
    are structurally unsuitable or the host misses the degree bound (the latter
    checked by good_partition). Every template passes check_template by
    construction, so a failed check is a bug: an AssertionError that names the
    label and the witness, by an explicit raise that python -O keeps.

    When `counts`, keyed by DRAW_COUNTS, is given, every good-partition draw
    and every block-partition group draw is added to its key as it happens,
    so the tally survives a raise.
    """
    n, _, _ = resolve_dimensions(g, h, cfg)
    counts = dict.fromkeys(DRAW_COUNTS, 0) if counts is None else counts
    good_key, block_key = DRAW_COUNTS

    (alpha1, delta1), (alpha2, delta2) = stage_thresholds(cfg.epsilon)
    gp = _counted(counts, good_key, good_partition,
                  g, h, alpha1, delta1, seed=spawn_seed(cfg.seed, 0x21))

    branch, connectors = _select_connectors_and_branch(g, h, gp.parts)

    blocks: dict[tuple[int, int], tuple[int, ...]] = {}
    for i in range(n):
        nbrs = sorted(h.neighbors(i))
        conns = [connectors[(i, j)] for j in nbrs]
        bp = _counted(
            counts, block_key, block_partition,
            g, gp.parts[i], branch[i], conns,
            alpha=alpha2, delta=delta2,
            seed=spawn_seed(cfg.seed, 0x22, i),
        )
        for k, j in enumerate(nbrs):
            blocks[(i, j)] = tuple(sorted(
                bp.blocks[k] + (branch[i], connectors[(i, j)])))

    template = Template(branch, connectors, blocks)
    check = check_template(g, h, template)
    if not check.ok:
        raise AssertionError(f"template self-check failed: {check.label}: {check.witness}")
    return template


def check_template(g: Graph, h: Graph, t: Template) -> TemplateCheck:
    """Check the template properties, reporting the first violation.

    Checked in order: structural consistency (distinct branch/connector
    vertices sitting in their blocks, one block per pattern edge end), host
    cover, disjointness across groups, the within-group rule that blocks of
    one group pairwise share exactly the branch vertex, block sizes in
    [C, C+1] for C = N // #blocks, [C, C+2] if #blocks does not divide N,
    Ore's bound min degree >= (|block|+1)/2 in every block, and connector edges.
    """
    n = h.n
    expected = {(i, j) for i in range(n) for j in h.neighbors(i)}

    specials = list(t.branch) + [t.connectors.get(k) for k in sorted(expected)]
    if (len(t.branch) != n
            or set(t.connectors.keys()) != expected
            or set(t.blocks.keys()) != expected
            or None in specials
            or len(set(specials)) != len(specials)):
        return TemplateCheck(False, "structure",
                             "branch/connector vertices missing or not distinct")
    for (i, j) in sorted(expected):
        blk = set(t.blocks[(i, j)])
        if t.branch[i] not in blk or t.connectors[(i, j)] not in blk:
            return TemplateCheck(
                False, "structure",
                f"block ({i},{j}) missing its branch or connector vertex")

    # every id in range before any 1 << v, then one mask per block and group
    blocks = t.blocks
    in_range = all(0 <= min(blk) and max(blk) < g.n for blk in blocks.values())
    masks = {k: mask_of(blk) for k, blk in blocks.items()} if in_range else {}
    group = [0] * n
    for (i, _), m in masks.items():
        group[i] |= m
    cover = 0
    for m in group:
        cover |= m
    if not in_range or cover != g.full_mask():
        ids, host = set().union(*blocks.values()), set(range(g.n))
        return TemplateCheck(False, "cover", f"missing {sorted(host - ids)[:5]} "
                                             f"extra {sorted(ids - host)[:5]}")

    seen = 0
    for i, m in enumerate(group):
        if m & seen:  # its lowest id in an earlier group
            v = (m & seen & -(m & seen)).bit_length() - 1
            first = next(k for k in range(i) if group[k] >> v & 1)
            return TemplateCheck(False, "groups-disjoint",
                                 f"vertex {v} appears in groups {first} and {i}")
        seen |= m

    # the structure check put the branch in all d blocks of its group, so they
    # share only it when none lists a vertex twice and sizes sum to |group|+d-1
    for i in range(n):
        keys = [(i, j) for j in h.neighbors(i)]
        d, branch = len(keys), t.branch[i]
        if (any(len(blocks[k]) != masks[k].bit_count() for k in keys)
                or sum(len(blocks[k]) for k in keys) != group[i].bit_count() + d - 1):
            counts = Counter(v for k in keys for v in blocks[k])
            v = next(v for v, c in counts.items() if c != (d if v == branch else 1))
            return TemplateCheck(False, "within-group-overlap",
                                 f"vertex {v} lies in {counts[v]} blocks of group {i}, "
                                 f"want {d if v == branch else 1}")

    if expected:  # one block per pattern edge end, so C = N // (d*n)
        lo, hi = g.n // len(expected), -(-g.n // len(expected)) + 1  # ceil(N/(d*n)) + 1
        for key in sorted(expected):
            size = len(t.blocks[key])
            if not (lo <= size <= hi):
                return TemplateCheck(False, "block-size",
                                     f"block {key} has size {size}, window [{lo},{hi}]")

    for key in sorted(expected):  # the cover check above put every block id in range
        miss = ore_miss(g.rows, blocks[key], masks[key])
        if miss is not None:
            return TemplateCheck(
                False, "block-ore-degree",
                f"vertex {miss[0]} has degree {miss[1]} in block {key}, "
                f"need >= {(len(blocks[key]) + 1) / 2.0}")

    for (i, j) in sorted((i, j) for (i, j) in expected if i < j):
        if not g.has_edge(t.connectors[(i, j)], t.connectors[(j, i)]):
            return TemplateCheck(
                False, "connector-edge",
                f"connectors of edge ({i},{j}) not adjacent in the host")

    return TemplateCheck(True)


def embed_subdivision(g: Graph, h: Graph, cfg: EmbedConfig) -> EmbedReport:
    """Run the full pipeline and return a report (with certificate on success).

    Input shape problems (non-regular pattern, order mismatch) raise
    ValueError. A host that is not dense enough, or partition stages out of
    draws in every master attempt, give a failed report naming the stage. A
    success report's certificate has been verified spanning; a block without
    a Hamilton path or a failed verification is a bug and raises
    AssertionError naming it, by an explicit raise that python -O keeps.
    """
    t0 = time.perf_counter()
    n, d, C = resolve_dimensions(g, h, cfg)
    N = g.n
    attempts = dict.fromkeys(DRAW_COUNTS, 0)
    failures: list[str] = []

    def report(success, used, stage=None, detail=None, stats=None, cert=None):
        return EmbedReport(
            success=success, n=n, d=d, C=C, N=N, epsilon=cfg.epsilon,
            seed=cfg.seed, master_attempts_used=used, stage_attempts=attempts,
            failures=failures, failure_stage=stage, detail=detail,
            length_stats=stats, wall_time_s=time.perf_counter() - t0,
            certificate=cert)

    md = min_degree(g)
    bound = dirac_degree_bound(N, cfg.epsilon)
    if md < bound:
        return report(False, 0, stage="precondition",
                      detail=f"host min degree {md} below required {bound}")

    for master in range(1, cfg.master_attempts + 1):
        try:
            template = build_template(
                g, h, replace(cfg, seed=spawn_seed(cfg.seed, 0x01, master)), counts=attempts)
        except PartitionError as e:
            stage = "good-partition" if e.level is None else "block-partition"
            failures.append(f"attempt {master}: {stage}: {e}")
            continue

        half_paths: dict[tuple[int, int], list[int]] = {}
        for (i, j), blk in template.blocks.items():
            # the stats go unused here; perfbench/spans.py reads them
            path, _ = hamilton_path_between(
                g, template.branch[i], template.connectors[(i, j)],
                return_stats=True, within=blk)
            if path is None:
                raise AssertionError(f"no Hamilton path in block {(i, j)}")
            half_paths[(i, j)] = path

        # the verifier below is the check of every glued path
        edge_paths = {(i, j): (*half_paths[(i, j)], *reversed(half_paths[(j, i)]))
                      for (i, j) in sorted(h.edges())}
        cert = SubdivisionCertificate(
            host_vertex_count=g.n, pattern=h,
            branch_map=template.branch, edge_paths=edge_paths)
        vr = verify_certificate(g, h, cert, require_spanning=True)
        if not vr.ok:
            raise AssertionError(f"certificate failed verification: {vr.failed()}")
        return report(True, master, stats=vr.length_stats, cert=cert)

    return report(False, cfg.master_attempts, stage=stage, detail=failures[-1])
