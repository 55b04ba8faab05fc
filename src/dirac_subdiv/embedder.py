"""Spanning-subdivision embedding pipeline.

Given a host graph G on N = C*d*n + r vertices (0 <= r < d*n) with minimum
degree at least (1+eps)*N/2 and a d-regular pattern H on n vertices, the
pipeline builds a template (one branch vertex per pattern vertex, one
connector pair and one block per pattern edge end), finds a Hamilton path
from the branch vertex to the connector inside every block, and glues path
pairs across connector edges into one host path per pattern edge. The
result is a certificate that is verified from scratch before being
reported; a success report never carries an unverified certificate.

Randomness is Las Vegas throughout: every stage checks its own output and
the whole pipeline retries with a fresh derived seed when any stage fails.
Only the template is random. Every block meets Ore's bound, so the Hamilton
stage builds its paths deterministically and draws no seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .certificate import SubdivisionCertificate
from .errors import PartitionError, TemplateError
from .generators import dirac_degree_bound
from .graph import Graph, induced, mask_of, min_degree, regular_degree
from .partition import block_partition, good_partition
from .hampath import hamilton_path_between
from .rng import spawn_seed
from .verifier import PathLengthStats, verify_certificate


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
    on i's side. Blocks of one group share exactly the branch vertex.
    """

    branch: tuple[int, ...]
    connectors: dict[tuple[int, int], int]
    blocks: dict[tuple[int, int], tuple[int, ...]]
    C: int
    size_window: tuple[int, int]


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
            st = self.length_stats
            lines.append(
                f"  path edge-lengths: min={st.min} max={st.max} "
                f"mean={st.mean:.2f} multiset={st.multiset}")
        return "\n".join(lines)


def resolve_dimensions(g: Graph, h: Graph, cfg: EmbedConfig):
    """Derive (n, d, C) from the pattern and the host order."""
    n = h.n
    d = regular_degree(h)
    if n < 2 or d < 1:
        raise ValueError("pattern must be d-regular with d >= 1 on n >= 2 vertices")
    C = g.n // (d * n)
    if cfg.C is not None and cfg.C != C:
        raise ValueError(
            f"host order {g.n} must lie in [C*d*n, (C+1)*d*n) = "
            f"[{cfg.C * d * n}, {(cfg.C + 1) * d * n}) for C={cfg.C}")
    if C < 3:
        raise ValueError(f"blow-up constant C={C} too small; need C >= 3")
    return n, d, C


def _part_order(g: Graph, part) -> list[int]:
    """Part vertices by descending degree into the part, ties by id."""
    rows, pmask = g.rows, mask_of(part)
    return sorted(part, key=lambda v: (-(rows[v] & pmask).bit_count(), v))


def _select_connectors_and_branch(g: Graph, h: Graph, parts):
    """Pick one connector pair per pattern edge and one branch vertex per
    group, all distinct, greedily preferring vertices of large degree into
    their own group. Deterministic."""
    rows = g.rows
    orders = [_part_order(g, p) for p in parts]
    masks = [mask_of(p) for p in parts]
    used: set[int] = set()
    connectors: dict[tuple[int, int], int] = {}
    for i, j in sorted(h.edges()):
        pick = None
        for u in orders[i]:
            if u in used:
                continue
            avail = rows[u] & masks[j]
            if not avail:
                continue
            for v in orders[j]:
                if v not in used and (avail >> v & 1):
                    pick = (u, v)
                    break
            if pick:
                break
        if pick is None:
            raise TemplateError(
                f"no unused host edge left between groups {i} and {j}",
                label="connector-selection", witness=(i, j))
        connectors[(i, j)], connectors[(j, i)] = pick
        used.update(pick)
    branch = []
    for i in range(h.n):
        cand = next((v for v in orders[i] if v not in used), None)
        if cand is None:
            raise TemplateError(
                f"group {i} has no unused vertex left for a branch vertex",
                label="branch-selection", witness=i)
        branch.append(cand)
        used.add(cand)
    return tuple(branch), connectors


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
                   seed: int | None = None,
                   counts: dict[str, int] | None = None) -> Template:
    """Construct and self-check a template.

    Stage thresholds follow the proof chain: the whole-host partition is
    checked at (1+eps)/2 minus eps/2, and the per-group block partitions at
    that value minus eps/4. The block stage also checks every finished
    block, branch vertex and connector included, at Ore's bound
    (|block|+1)/2, so a block that would fail check_template's
    block-min-degree is re-drawn at its own bisection level instead of
    failing the whole attempt. Raises PartitionError or TemplateError when a
    randomized stage exhausts its budget or a check fails, and ValueError
    when the inputs are structurally unsuitable or the host misses the
    degree bound (the latter checked by good_partition).

    When `counts` is given, every good-partition draw is added to
    counts["good_partition"] and every block-level draw to
    counts["block_levels"] as it happens, so the tally survives a raise.
    """
    n, d, C = resolve_dimensions(g, h, cfg)
    if seed is None:
        seed = cfg.seed
    if counts is None:
        counts = {"good_partition": 0, "block_levels": 0}

    alpha1 = (1.0 + cfg.epsilon) / 2.0
    delta1 = cfg.epsilon / 2.0
    tau1 = alpha1 - delta1
    gp = _counted(counts, "good_partition", good_partition,
                  g, h, alpha1, delta1, seed=spawn_seed(seed, 0x21))

    branch, connectors = _select_connectors_and_branch(g, h, gp.parts)

    blocks: dict[tuple[int, int], tuple[int, ...]] = {}
    for i in range(n):
        nbrs = sorted(h.neighbors(i))
        conns = [connectors[(i, j)] for j in nbrs]
        bp = _counted(
            counts, "block_levels", block_partition,
            g, gp.parts[i], branch[i], conns,
            alpha=tau1, delta=cfg.epsilon / 4.0,
            seed=spawn_seed(seed, 0x22, i),
            extras=len(gp.parts[i]) % d,
        )
        for k, j in enumerate(nbrs):
            blocks[(i, j)] = tuple(sorted(
                bp.blocks[k] + (branch[i], connectors[(i, j)])))

    window = (C, C + 1) if g.n == C * d * n else (C, C + 2)
    template = Template(branch, connectors, blocks, C, window)
    check = check_template(g, h, template)
    if not check.ok:
        raise TemplateError(
            f"template self-check failed: {check.label}: {check.witness}",
            label=check.label, witness=check.witness)
    return template


def check_template(g: Graph, h: Graph, t: Template) -> TemplateCheck:
    """Check the template properties, reporting the first violation.

    Checked in order: structural consistency (distinct branch/connector
    vertices sitting in their blocks, one block per pattern edge end), host
    cover, disjointness across groups, the within-group rule that blocks of
    one group pairwise share exactly the branch vertex, block sizes inside
    the window, the Hamiltonian-connectivity degree bound
    min degree >= (|block|+1)/2 in every block, and connector edges.
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

    cover = set()
    for blk in t.blocks.values():
        cover.update(blk)
    if cover != set(range(g.n)):
        missing = sorted(set(range(g.n)) - cover)
        extra = sorted(cover - set(range(g.n)))
        return TemplateCheck(False, "cover",
                             f"missing {missing[:5]} extra {extra[:5]}")

    group_union: dict[int, set[int]] = {}
    for i in range(n):
        group_union[i] = set()
        for j in h.neighbors(i):
            group_union[i].update(t.blocks[(i, j)])
    seen: dict[int, int] = {}
    for i in range(n):
        for v in sorted(group_union[i]):
            if v in seen:
                return TemplateCheck(
                    False, "groups-disjoint",
                    f"vertex {v} appears in groups {seen[v]} and {i}")
            seen[v] = i

    for i in range(n):
        counts: dict[int, int] = {}
        deg = len(h.neighbors(i))
        for j in h.neighbors(i):
            for v in t.blocks[(i, j)]:
                counts[v] = counts.get(v, 0) + 1
        for v, c in counts.items():
            want = deg if v == t.branch[i] else 1
            if c != want:
                return TemplateCheck(
                    False, "within-group-overlap",
                    f"vertex {v} lies in {c} blocks of group {i}, want {want}")

    lo, hi = t.size_window
    for key in sorted(expected):
        size = len(t.blocks[key])
        if not (lo <= size <= hi):
            return TemplateCheck(False, "block-size",
                                 f"block {key} has size {size}, window [{lo},{hi}]")

    rows = g.rows  # the cover check above put every block id in range
    for key in sorted(expected):
        blk = t.blocks[key]
        bmask = mask_of(blk)
        need = (len(blk) + 1) / 2.0
        for v in blk:
            have = (rows[v] & bmask).bit_count()
            if have < need:
                return TemplateCheck(
                    False, "block-min-degree",
                    f"vertex {v} has degree {have} in block {key}, "
                    f"need >= {need}")

    for (i, j) in sorted((i, j) for (i, j) in expected if i < j):
        if not g.has_edge(t.connectors[(i, j)], t.connectors[(j, i)]):
            return TemplateCheck(
                False, "connector-edge",
                f"connectors of edge ({i},{j}) not adjacent in the host")

    return TemplateCheck(True)


def glue(g: Graph, p_ij, p_ji) -> list[int]:
    """Concatenate a branch-to-connector path with the reverse of its twin.

    p_ij runs from one branch vertex to its connector, p_ji likewise on the
    other side; the two connectors must be adjacent in g and the paths
    disjoint. The result runs branch to branch with edge count
    len(p_ij) + len(p_ji) - 1.
    """
    if len(p_ij) < 2 or len(p_ji) < 2:
        raise ValueError("glue needs paths with at least two vertices each")
    overlap = set(p_ij) & set(p_ji)
    if overlap:
        raise ValueError(f"paths overlap at {sorted(overlap)[:5]}")
    if not g.has_edge(p_ij[-1], p_ji[-1]):
        raise ValueError(
            f"connector endpoints {p_ij[-1]} and {p_ji[-1]} not adjacent")
    return list(p_ij) + list(reversed(p_ji))


def _ore_diagnostic(sub: Graph) -> str:
    md = min_degree(sub)
    return (f"block min degree {md}, Hamiltonian-connectivity bound "
            f"{(sub.n + 1) / 2:.1f}")


def embed_subdivision(g: Graph, h: Graph, cfg: EmbedConfig) -> EmbedReport:
    """Run the full pipeline and return a report (with certificate on success).

    Input shape problems (non-regular pattern, order mismatch) raise
    ValueError. Everything else, including a host that simply is not dense
    enough, is reported as a failed run: the report carries the failing
    stage and per-stage attempt counts. A success report's certificate has
    been verified spanning before being returned.
    """
    t0 = time.perf_counter()
    n, d, C = resolve_dimensions(g, h, cfg)
    N = g.n
    attempts = {"good_partition": 0, "block_levels": 0,
                "hampath_calls": 0, "hampath_restarts": 0}
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
    if md is None or md < bound:
        return report(False, 0, stage="precondition",
                      detail=f"host min degree {md} below required {bound}")

    last_stage = None
    for master in range(1, cfg.master_attempts + 1):
        seed_a = spawn_seed(cfg.seed, 0x01, master)
        try:
            template = build_template(g, h, cfg, seed=seed_a, counts=attempts)
        except PartitionError as e:
            last_stage = "good-partition" if e.level is None else "block-partition"
            failures.append(f"attempt {master}: {last_stage}: {e}")
            continue
        except TemplateError as e:
            last_stage = "template"
            failures.append(f"attempt {master}: template: {e}")
            continue

        half_paths: dict[tuple[int, int], list[int]] = {}
        failed_block = None
        for i in range(n):
            for j in sorted(h.neighbors(i)):
                blk = template.blocks[(i, j)]
                path, stats = hamilton_path_between(
                    g, template.branch[i], template.connectors[(i, j)],
                    return_stats=True, within=blk)
                attempts["hampath_calls"] += 1
                attempts["hampath_restarts"] += stats["restarts"]
                if path is None:
                    failed_block = ((i, j), _ore_diagnostic(induced(g, blk)[0]))
                    break
                half_paths[(i, j)] = path
            if failed_block:
                break
        if failed_block:
            last_stage = "hampath"
            failures.append(
                f"attempt {master}: hampath: block {failed_block[0]}: "
                f"{failed_block[1]}")
            continue

        edge_paths = {}
        for (i, j) in sorted(h.edges()):
            edge_paths[(i, j)] = tuple(glue(g, half_paths[(i, j)],
                                            half_paths[(j, i)]))
        cert = SubdivisionCertificate(
            host_vertex_count=g.n, pattern=h,
            branch_map=template.branch, edge_paths=edge_paths)
        vr = verify_certificate(g, h, cert, require_spanning=True)
        if vr.ok:
            return report(True, master, stats=vr.length_stats, cert=cert)
        last_stage = "verification"
        failures.append(f"attempt {master}: verification: {vr.failed()}")

    return report(False, cfg.master_attempts,
                  stage=last_stage or "pipeline",
                  detail=failures[-1] if failures else "no attempt recorded")
