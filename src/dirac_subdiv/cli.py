"""Command-line front end.

Subcommands: gen (write instance graphs), embed (run the pipeline and write
a certificate), verify (check a certificate), sweep (success-rate grid
experiments). Exit codes: 0 success, 1 verified failure (embedding failed
or certificate rejected), 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

from .certificate import certificate_to_json, read_certificate, write_certificate
from .embedder import EmbedConfig, embed_subdivision
from .errors import GenerationError
from .generators import (HostSpec, complete_graph, gen_dirac_host,
                         gen_random_regular, gen_two_clique_extremal)
from .graph import (format_edge_list, read_edge_list, regular_degree, to_dot,
                    write_edge_list)
from .rng import spawn_seed
from .verifier import verify_certificate

HOST_KINDS = ("dirac", "complete", "two-clique")


def _warn_small_d(n: int, d: int) -> None:
    if n >= 2 and d < math.log(n):
        print(f"warning: d={d} is below ln(n)={math.log(n):.2f}; the dense-host "
              "guarantee is only established for d >= ln n", file=sys.stderr)


def _cmd_gen(args) -> int:
    kind = args.kind
    if kind == "complete":
        if args.n is None:
            print("gen --kind complete requires --n", file=sys.stderr)
            return 2
        g = complete_graph(args.n)
    elif kind == "two-clique":
        if args.n is None:
            print("gen --kind two-clique requires --n (the clique size)",
                  file=sys.stderr)
            return 2
        g = gen_two_clique_extremal(args.n)
    elif kind == "regular":
        if args.n is None or args.d is None:
            print("gen --kind regular requires --n and --d", file=sys.stderr)
            return 2
        _warn_small_d(args.n, args.d)
        g = gen_random_regular(args.n, args.d, args.seed)
    else:  # dirac
        if None in (args.n, args.d, args.C, args.epsilon):
            print("gen --kind dirac requires --n --d --C --epsilon",
                  file=sys.stderr)
            return 2
        _warn_small_d(args.n, args.d)
        g = gen_dirac_host(HostSpec(args.n, args.d, args.C, args.epsilon,
                                    args.seed))
    if args.out:
        write_edge_list(g, args.out)
    else:
        sys.stdout.write(format_edge_list(g))
    if args.dot:
        with open(args.dot, "w", encoding="ascii") as fh:
            fh.write(to_dot(g))
    return 0


def _cmd_embed(args) -> int:
    host = read_edge_list(args.host)
    pattern = read_edge_list(args.pattern)
    cfg = EmbedConfig(
        epsilon=args.epsilon, C=args.C, seed=args.seed,
        master_attempts=args.master_attempts,
    )
    try:
        _warn_small_d(pattern.n, regular_degree(pattern))
    except ValueError:  # not regular: embed_subdivision reports it
        pass
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
        st = report.length_stats
        print(f"path edge-lengths: min={st.min} max={st.max} "
              f"mean={st.mean:.3f} multiset={st.multiset}")
    return 0 if report.ok else 1


# --- sweep -------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """Grid experiment: every combination of the listed values is one cell."""

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
        for k in self.kinds:
            if k not in HOST_KINDS:
                raise ValueError(f"unknown host kind {k!r}")
        for (n, d, C, eps) in self.cells_params():
            if n < 2 or not (1 <= d < n):
                raise ValueError(f"cell (n={n}, d={d}) outside generator domain")
            if (n * d) % 2 != 0:
                raise ValueError(f"cell (n={n}, d={d}): n*d must be even")
            if C < 3:
                raise ValueError(f"cell C={C}: need C >= 3")
            if not (0.0 < eps < 1.0):
                raise ValueError(f"cell epsilon={eps}: need 0 < epsilon < 1")

    def cells_params(self):
        for n in self.ns:
            for d in self.ds:
                for C in self.Cs:
                    for eps in self.epsilons:
                        yield (n, d, C, eps)

    def cells(self):
        idx = 0
        for kind in self.kinds:
            for (n, d, C, eps) in self.cells_params():
                yield idx, kind, n, d, C, eps
                idx += 1


@dataclass
class SweepResult:
    rows: list[dict]
    csv_text: str
    table_text: str
    notes: list[str]


def _sweep_trial(kind: str, n: int, d: int, C: int, eps: float, seed: int) -> dict:
    N = C * d * n
    out = {"ok": False, "master": 0, "good_partition": 0, "block_levels": 0,
           "wall_s": 0.0, "error": None}
    try:
        if kind == "complete":
            host = complete_graph(N)
        elif kind == "two-clique":
            if N % 2 != 0:
                raise GenerationError(f"two-clique host needs even order, got {N}")
            host = gen_two_clique_extremal(N // 2)
        else:
            host = gen_dirac_host(HostSpec(n, d, C, eps, seed))
        pattern = gen_random_regular(n, d, spawn_seed(seed, 0x33))
        rep = embed_subdivision(host, pattern, EmbedConfig(epsilon=eps, C=C, seed=seed))
        out.update(ok=rep.success, master=rep.master_attempts_used,
                   good_partition=rep.stage_attempts["good_partition"],
                   block_levels=rep.stage_attempts["block_levels"],
                   wall_s=rep.wall_time_s)
    except GenerationError as e:
        out["error"] = str(e)
    return out


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run every cell of the grid; never aborts on per-cell failures.

    Trials are seeded from (seed_base, cell index, trial index), so results
    are reproducible and independent of execution order.
    """
    rows = []
    for idx, kind, n, d, C, eps in spec.cells():
        trials = [_sweep_trial(kind, n, d, C, eps, spawn_seed(spec.seed_base, idx, t))
                  for t in range(spec.trials)]
        succ = sum(1 for t in trials if t["ok"])
        errors = sum(1 for t in trials if t["error"] is not None)
        row = {
            "kind": kind, "n": n, "d": d, "C": C, "epsilon": eps,
            "N": C * d * n, "trials": spec.trials, "successes": succ,
            "errors": errors,
            "success_rate": succ / spec.trials,
            "mean_master": sum(t["master"] for t in trials) / spec.trials,
            "mean_good_partition": sum(t["good_partition"] for t in trials) / spec.trials,
            "mean_block_levels": sum(t["block_levels"] for t in trials) / spec.trials,
            "mean_wall_ms": 1000.0 * sum(t["wall_s"] for t in trials) / spec.trials,
        }
        rows.append(row)

    notes = []
    by_group: dict[tuple, list[dict]] = {}
    for row in rows:
        by_group.setdefault((row["kind"], row["n"], row["d"], row["C"]), []).append(row)
    for key, group in by_group.items():
        ordered = sorted(group, key=lambda r: -r["epsilon"])
        rates = [r["success_rate"] for r in ordered]
        if any(b > a + 1e-12 for a, b in zip(rates, rates[1:])):
            notes.append(
                f"note: success rate not monotone in epsilon for "
                f"kind={key[0]} n={key[1]} d={key[2]} C={key[3]} "
                f"(statistical fluctuation is expected at small trial counts)")

    cols = ["kind", "n", "d", "C", "epsilon", "N", "trials", "successes",
            "errors", "success_rate", "mean_master", "mean_good_partition",
            "mean_block_levels"]
    if spec.include_timings:
        cols.append("mean_wall_ms")

    def fmt(row, col):
        v = row[col]
        if col == "epsilon":
            return f"{v:g}"
        if col == "success_rate":
            return f"{v:.4f}"
        if col.startswith("mean_"):
            return f"{v:.3f}"
        return str(v)

    csv_lines = [",".join(cols)]
    csv_lines.extend(",".join(fmt(row, c) for c in cols) for row in rows)
    csv_text = "\n".join(csv_lines) + "\n"

    table_cols = cols + (["mean_wall_ms"] if not spec.include_timings else [])
    widths = {c: max(len(c), *(len(fmt(r, c)) for r in rows)) if rows else len(c)
              for c in table_cols}
    table_lines = ["  ".join(c.rjust(widths[c]) for c in table_cols)]
    table_lines.extend(
        "  ".join(fmt(r, c).rjust(widths[c]) for c in table_cols) for r in rows)
    table_text = "\n".join(table_lines) + "\n"

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
    p.add_argument("--kind", required=True,
                   choices=["dirac", "regular", "complete", "two-clique"])
    p.add_argument("--n", type=int)
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
                   help="comma list from {dirac,complete,two-clique}")
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
    except (OSError, ValueError, GenerationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
