"""Independent certificate checking.

Every property of a subdivision certificate is re-derived here from the
host graph, the pattern graph, and the certificate body alone; nothing the
embedder did is trusted. All problems are reported in the returned
VerifyReport rather than raised, and every check runs regardless of earlier
failures, so a broken certificate yields a full diagnosis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .certificate import SubdivisionCertificate
from .graph import Graph

CHECK_NAMES = (
    "shape",             # certificate is structurally consistent with g and h
    "branch-injective",  # (a) branch map is injective
    "endpoints",         # (b) path for edge ij runs from branch i to branch j
    "edges-exist",       # (c) consecutive path vertices are adjacent in g
    "paths-simple",      # (d) no vertex repeats within a path
    "interiors-disjoint",  # (e) interiors pairwise disjoint, avoid branch vertices
    "spanning",          # (f) every host vertex lies on some path
)


@dataclass
class PathLengthStats:
    """Path edge-length statistics; str() of a non-empty record is the line
    embed and verify print."""

    count: int
    min: int | None
    max: int | None
    mean: float | None
    multiset: dict[int, int] = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        return self.count == 0

    def __str__(self) -> str:
        return f"min={self.min} max={self.max} mean={self.mean:.3f} multiset={self.multiset}"


@dataclass
class VerifyReport:
    checks: list[tuple[str, bool, str | None]]  # CHECK_NAMES, spanning if required
    length_stats: PathLengthStats

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def failed(self) -> list[str]:
        return [name for name, passed, _ in self.checks if not passed]

    def summary(self) -> str:
        lines = []
        for name, passed, witness in self.checks:
            mark = "pass" if passed else "FAIL"
            extra = f"  ({witness})" if witness else ""
            lines.append(f"{mark}  {name}{extra}")
        return "\n".join(lines)


def path_length_stats(cert: SubdivisionCertificate) -> PathLengthStats:
    """Edge-length statistics of the certificate's paths.

    A path on k >= 1 vertices has k-1 edges, and an empty path 0. Returns
    the empty-stats record for a certificate without paths.
    """
    lengths = sorted(max(len(p) - 1, 0) for p in cert.edge_paths.values())
    if not lengths:
        return PathLengthStats(0, None, None, None, {})
    multiset: dict[int, int] = {}
    for ln in lengths:
        multiset[ln] = multiset.get(ln, 0) + 1
    return PathLengthStats(
        count=len(lengths),
        min=lengths[0],
        max=lengths[-1],
        mean=sum(lengths) / len(lengths),
        multiset=multiset,
    )


def verify_certificate(g: Graph, h: Graph, cert: SubdivisionCertificate,
                       require_spanning: bool = True) -> VerifyReport:
    """Re-check every certificate property against g and h from scratch."""
    checks: list[tuple[str, bool, str | None]] = []

    # shape: counts match, pattern edge lists agree, one path per pattern
    # edge, all ids in range
    shape_problems = []
    if cert.host_vertex_count != g.n:
        shape_problems.append(
            f"host order {cert.host_vertex_count} != {g.n}")
    if cert.pattern.n != h.n:
        shape_problems.append(
            f"pattern order {cert.pattern.n} != {h.n}")
    elif cert.pattern != h:
        shape_problems.append("pattern edge list differs from supplied pattern")
    expected_edges = {(min(u, v), max(u, v)) for u, v in h.edges()}
    got_edges = set(cert.edge_paths.keys())
    if got_edges != expected_edges:
        missing = sorted(expected_edges - got_edges)
        extra = sorted(got_edges - expected_edges)
        shape_problems.append(f"edge paths missing {missing} extra {extra}")
    if len(cert.branch_map) != h.n:
        shape_problems.append(
            f"branch map has {len(cert.branch_map)} entries, want {h.n}")
    bad_ids = sorted(
        {v for v in cert.branch_map if not (0 <= v < g.n)}
        | {v for p in cert.edge_paths.values() for v in p if not (0 <= v < g.n)}
    )
    if bad_ids:
        shape_problems.append(f"out-of-range vertex ids {bad_ids[:5]}")
    checks.append(("shape", not shape_problems,
                   "; ".join(shape_problems) or None))

    # (a) branch map injective
    seen: dict[int, int] = {}
    dup = None
    for i, v in enumerate(cert.branch_map):
        if v in seen:
            dup = f"pattern vertices {seen[v]} and {i} both map to host vertex {v}"
            break
        seen[v] = i
    checks.append(("branch-injective", dup is None, dup))

    paths = cert.paths_sorted()

    # (b) endpoints
    witness = None
    k = len(cert.branch_map)
    for (i, j), p in paths:
        if not (0 <= i < k and 0 <= j < k) or len(p) < 2:
            witness = f"edge ({i},{j}) path unusable for endpoint check"
            break
        if p[0] != cert.branch_map[i] or p[-1] != cert.branch_map[j]:
            witness = (f"edge ({i},{j}) path runs {p[0]}..{p[-1]}, "
                       f"want {cert.branch_map[i]}..{cert.branch_map[j]}")
            break
    checks.append(("endpoints", witness is None, witness))

    # (c) consecutive pairs are host edges
    witness = None
    n, rows = g.n, g.rows
    for (i, j), p in paths:
        for u, v in zip(p, p[1:]):
            if not (0 <= u < n and 0 <= v < n and rows[u] >> v & 1):
                witness = f"edge ({i},{j}) path uses non-edge ({u},{v})"
                break
        if witness:
            break
    checks.append(("edges-exist", witness is None, witness))

    # (d) paths are simple
    witness = None
    for (i, j), p in paths:
        if len(set(p)) != len(p):
            rep = next(v for k, v in enumerate(p) if v in p[:k])
            witness = f"edge ({i},{j}) path repeats vertex {rep}"
            break
    checks.append(("paths-simple", witness is None, witness))

    # (e) interiors pairwise disjoint and avoiding all branch vertices
    witness = None
    branch_set = set(cert.branch_map)
    owner: dict[int, tuple[int, int]] = {}
    for (i, j), p in paths:
        for v in p[1:-1]:
            if v in branch_set:
                witness = f"interior of edge ({i},{j}) contains branch vertex {v}"
                break
            if v in owner and owner[v] != (i, j):
                witness = (f"vertex {v} interior to both {owner[v]} and ({i},{j})")
                break
            owner[v] = (i, j)
        if witness:
            break
    checks.append(("interiors-disjoint", witness is None, witness))

    # (f) spanning
    if require_spanning:
        covered = set(cert.branch_map)
        for _, p in paths:
            covered.update(p)
        missing = [v for v in range(g.n) if v not in covered]
        witness = f"host vertex {missing[0]} uncovered" if missing else None
        checks.append(("spanning", not missing, witness))

    return VerifyReport(checks, path_length_stats(cert))
