"""Command-line front end.

Subcommands: gen (write instance graphs), embed (run the pipeline and write
a certificate), verify (check a certificate), sweep (success-rate grid
experiments). Exit codes: 0 success, 1 verified failure (embedding failed
or certificate rejected), 2 usage error (out of memory included).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

from .certificate import certificate_to_json, read_certificate, write_certificate
from .embedder import (DRAW_COUNTS, EmbedConfig, embed_subdivision,
                       resolve_dimensions, stage_thresholds)
from .errors import GenerationError
from .generators import (HostSpec, check_pattern_dimensions, complete_graph,
                         gen_dirac_host, gen_random_regular,
                         gen_two_clique_extremal)
from .graph import read_edge_list, to_dot, write_edge_list
from .partition import check_blowup
from .rng import spawn_seed
from .verifier import verify_certificate

# sweep's host kinds, each the host of a cell's HostSpec by a builder read at call time
HOSTS = {"dirac": lambda spec: gen_dirac_host(spec),
         "complete": lambda spec: complete_graph(spec.N),
         "two-clique": lambda spec: gen_two_clique_extremal(spec.N // 2)}  # a cell has n*d even
# gen's kinds and the options each one needs
GEN_NEEDS = {"dirac": ("n", "d", "C", "epsilon"), "regular": ("n", "d"),
             "complete": ("n",), "two-clique": ("n",)}


def _warn_small_d(n: int, d: int) -> None:
    if d < math.log(n):
        print(f"warning: d={d} is below ln(n)={math.log(n):.2f}; the dense-host "
              "guarantee is only established for d >= ln n", file=sys.stderr)


def _host_cell(n: int, d: int, C: int, eps: float, seed: int = 0) -> HostSpec:
    """A gen or sweep cell's HostSpec, whose C must pass check_blowup as in embed."""
    spec = HostSpec(n, d, C, eps, seed)
    check_blowup(C, *stage_thresholds(eps)[1])
    return spec


def _cmd_gen(args) -> int:
    kind = args.kind
    if any(getattr(args, name) is None for name in GEN_NEEDS[kind]):
        print(f"gen --kind {kind} requires --{' --'.join(GEN_NEEDS[kind])}", file=sys.stderr)
        return 2
    if kind == "complete":
        g = complete_graph(args.n)
    elif kind == "two-clique":
        g = gen_two_clique_extremal(args.n)
    elif kind == "regular":
        check_pattern_dimensions(args.n, args.d)
        _warn_small_d(args.n, args.d)
        g = gen_random_regular(args.n, args.d, args.seed)
    else:  # dirac
        spec = _host_cell(args.n, args.d, args.C, args.epsilon, args.seed)
        _warn_small_d(args.n, args.d)
        g = gen_dirac_host(spec)
    write_edge_list(g, args.out or sys.stdout)
    if args.dot:
        with open(args.dot, "w", encoding="ascii") as fh:
            fh.write(to_dot(g))
    return 0


def _cmd_embed(args) -> int:
    host = read_edge_list(args.host)
    pattern = read_edge_list(args.pattern)
    cfg = EmbedConfig(epsilon=args.epsilon, C=args.C, seed=args.seed,
                      master_attempts=args.master_attempts)
    n, d, _ = resolve_dimensions(host, pattern, cfg)
    _warn_small_d(n, d)
    report = embed_subdivision(host, pattern, cfg)
    print(report.summary(), file=sys.stderr)
    if not report.success:
        return 1
    if args.out:
        write_certificate(report.certificate, args.out)
    else:
        sys.stdout.write(certificate_to_json(report.certificate))
    return 0


def _cmd_verify(args) -> int:
    host = read_edge_list(args.host)
    pattern = read_edge_list(args.pattern)
    cert = read_certificate(args.cert)
    report = verify_certificate(host, pattern, cert,
                                require_spanning=args.spanning)
    print(report.summary())
    if not report.length_stats.empty:
        print(f"path edge-lengths: {report.length_stats}")
    return 0 if report.ok else 1


# --- sweep -------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """Grid experiment: every combination of the listed values is one cell,
    which must pass _host_cell; a ValueError names the cell."""

    kinds: tuple[str, ...]
    ns: tuple[int, ...]
    ds: tuple[int, ...]
    Cs: tuple[int, ...]
    epsilons: tuple[float, ...]
    trials: int
    seed_base: int = 0
    include_timings: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        for axis in ("kinds", "ns", "ds", "Cs", "epsilons"):
            if not getattr(self, axis):
                raise ValueError(f"empty sweep grid axis {axis}")
        for k in self.kinds:
            if k not in HOSTS:
                raise ValueError(f"unknown host kind {k!r}")
        for _, (_, n, d, C, eps) in self.cells():
            try:
                _host_cell(n, d, C, eps)
            except ValueError as e:
                raise ValueError(f"cell (n={n}, d={d}, C={C}, epsilon={eps}): {e}") from None

    def cells(self):
        """Number the cells, kinds outermost: the index seeds the trials."""
        from itertools import product
        return enumerate(product(self.kinds, self.ns, self.ds, self.Cs, self.epsilons))


@dataclass
class SweepResult:
    rows: list[dict]
    csv_text: str
    table_text: str
    notes: list[str]


def _sweep_trial(kind: str, n: int, d: int, C: int, eps: float, seed: int) -> dict:
    out = {"ok": False, "master": 0, **dict.fromkeys(DRAW_COUNTS, 0),
           "wall_s": 0.0, "error": None}
    try:
        host = HOSTS[kind](HostSpec(n, d, C, eps, seed))
        pattern = gen_random_regular(n, d, spawn_seed(seed, 0x33))
        rep = embed_subdivision(host, pattern, EmbedConfig(epsilon=eps, C=C, seed=seed))
        out.update(ok=rep.success, master=rep.master_attempts_used,
                   **rep.stage_attempts, wall_s=rep.wall_time_s)
    except GenerationError as e:
        out["error"] = str(e)
    return out


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run every cell of the grid; never aborts on per-cell failures.

    Trials are seeded from (seed_base, cell index, trial index), so results
    are reproducible and independent of execution order.
    """
    rows = []
    for idx, (kind, n, d, C, eps) in spec.cells():
        trials = [_sweep_trial(kind, n, d, C, eps, spawn_seed(spec.seed_base, idx, t))
                  for t in range(spec.trials)]
        succ = sum(1 for t in trials if t["ok"])
        row = {
            "kind": kind, "n": n, "d": d, "C": C, "epsilon": eps,
            "N": C * d * n, "trials": spec.trials, "successes": succ,
            "errors": sum(1 for t in trials if t["error"] is not None),
            "success_rate": succ / spec.trials,
        }
        for col, key, scale in (("mean_master", "master", 1),
                                *((f"mean_{k}", k, 1) for k in DRAW_COUNTS),
                                ("mean_wall_ms", "wall_s", 1000.0)):
            row[col] = scale * sum(t[key] for t in trials) / spec.trials
        rows.append(row)

    notes = []
    by_group: dict[tuple, list[dict]] = {}
    for row in rows:
        by_group.setdefault((row["kind"], row["n"], row["d"], row["C"]), []).append(row)
    for key, group in by_group.items():
        # an errored trial never ran the embedder, so its cell's rate is no evidence
        ordered = sorted((r for r in group if not r["errors"]), key=lambda r: -r["epsilon"])
        rates = [r["success_rate"] for r in ordered]
        if any(b > a + 1e-12 for a, b in zip(rates, rates[1:])):
            notes.append(
                f"note: success rate not monotone in epsilon for "
                f"kind={key[0]} n={key[1]} d={key[2]} C={key[3]} "
                f"(statistical fluctuation is expected at small trial counts)")

    # the header, then one row per cell, each value formatted once
    cols = list(rows[0])  # a grid is never empty
    specs = [{"epsilon": "g", "success_rate": ".4f"}.get(
        c, ".3f" if c.startswith("mean_") else "") for c in cols]
    matrix = [cols] + [[format(row[c], f) for c, f in zip(cols, specs)] for row in rows]
    # wall times are not reproducible, so the CSV keeps them only on request
    keep = [k for k, c in enumerate(cols) if spec.include_timings or c != "mean_wall_ms"]
    csv_text = "".join(",".join(line[k] for k in keep) + "\n" for line in matrix)
    widths = [max(map(len, column)) for column in zip(*matrix)]
    table_text = "".join(
        "  ".join(cell.rjust(w) for cell, w in zip(line, widths)) + "\n"
        for line in matrix)

    return SweepResult(rows, csv_text, table_text, notes)


def _parse_list(text: str, conv):
    return tuple(conv(tok) for tok in text.split(",") if tok != "")


def _cmd_sweep(args) -> int:
    spec = SweepSpec(
        kinds=_parse_list(args.host_kind, str),
        ns=_parse_list(args.n, int),
        ds=_parse_list(args.d, int),
        Cs=_parse_list(args.C, int),
        epsilons=_parse_list(args.epsilon, float),
        trials=args.trials,
        seed_base=args.seed,
        include_timings=args.timings,
    )
    result = run_sweep(spec)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(result.csv_text)
    else:
        sys.stdout.write(result.csv_text)
    print(result.table_text, file=sys.stderr, end="")
    for note in result.notes:
        print(note, file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirac-subdiv",
        description="Embed spanning subdivisions of regular patterns into "
                    "dense host graphs, with verified certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate instance graphs")
    p.add_argument("--kind", required=True, choices=GEN_NEEDS)
    p.add_argument("--n", type=int, help="vertex count; the clique size for two-clique")
    p.add_argument("--d", type=int)
    p.add_argument("--C", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--dot")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("embed", help="embed a pattern subdivision into a host")
    p.add_argument("--host", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--C", type=int,
                   help="expected blow-up constant; C is always N // (d*n), "
                        "and a host order outside [C*d*n, (C+1)*d*n) is an error")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--master-attempts", type=int, default=5)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("verify", help="check a certificate")
    p.add_argument("--host", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--cert", required=True)
    p.add_argument("--spanning", action="store_true",
                   help="require the subdivision to cover every host vertex")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="success-rate grid experiment")
    p.add_argument("--host-kind", default="dirac",
                   help=f"comma list from {{{','.join(HOSTS)}}}")
    p.add_argument("--n", required=True, help="comma list")
    p.add_argument("--d", required=True, help="comma list")
    p.add_argument("--C", required=True, help="comma list")
    p.add_argument("--epsilon", required=True, help="comma list")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.add_argument("--timings", action="store_true",
                   help="include mean wall time in the CSV (not reproducible)")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        return args.func(args)
    except (OSError, ValueError, GenerationError, MemoryError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
