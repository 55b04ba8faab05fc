"""Benchmark for dirac-subdiv: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload embed-near-bound --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

A single workload runs in this process with one thread and prints, as its
last stdout line, {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The line before it is {"info": ...} with the environment, sample counts and
the determinism digest. `--workload all` runs every workload in its own
process, untraced and traced with the same seed, prints both tables, and
checks that the two digests of each workload match.

See perfbench/README.md for the workloads, metric definitions and layer map.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPS = 3
# Median CPU seconds of `reference` on the machine where the benchmark was
# defined (2-core Xeon VM, Python 3.11.7, numpy 2.4.6) in its usual state.
# End-to-end times are reported as seconds on a machine of that speed.
REFERENCE_CPU_S = 0.017
# runs of `reference` discarded first: the interpreter specialises its
# bytecode over the first runs, which are up to a third slower
REFERENCE_WARMUP = 5
TAIL_BEYOND = 10


def import_program():
    """Import dirac_subdiv from this checkout's src/, and nothing else."""
    pkg = ROOT / "src" / "dirac_subdiv"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: {pkg} not found; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import dirac_subdiv
    if Path(dirac_subdiv.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported dirac_subdiv from {dirac_subdiv.__file__}, "
                 f"not from {pkg}")


def tail(samples):
    """Highest order statistic with TAIL_BEYOND samples above it, and its
    percentile. With fewer than 2*TAIL_BEYOND+1 samples no value at or above
    the median has that many beyond it; the maximum is reported instead."""
    ordered = sorted(samples)
    n = len(ordered)
    if n > 2 * TAIL_BEYOND:
        return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
    return ordered[-1], 100.0, 0


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:32]


def cpu_now() -> float:
    """CPU seconds used so far by this process, all its threads, and its
    reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reference_data():
    """Fixed inputs for `reference`: a 160-vertex graph as edge-list text and
    40 vertex groups."""
    rng = random.Random(20231017)
    edges = [(u, v) for u in range(160) for v in range(u + 1, 160)
             if rng.random() < 0.7]
    groups = [sorted(rng.sample(range(160), 24)) for _ in range(40)]
    return "\n".join(f"{u} {v}" for u, v in edges), groups


def reference(data) -> float:
    """CPU seconds of a fixed computation in the package's style: edge-list
    parsing, set/tuple/bitmask graph building, relabelled mask walks and
    seeded numpy draws. Its time tracks the machine's speed."""
    import numpy as np

    text, groups = data
    c0 = cpu_now()
    sets = [set() for _ in range(160)]
    for line in text.splitlines():
        u, v = (int(t) for t in line.split())
        sets[u].add(v)
        sets[v].add(u)
    masks = []
    for s in sets:
        m = 0
        for v in sorted(s):
            m |= 1 << v
        masks.append(m)
    acc = 0
    for grp in groups:
        index = {v: i for i, v in enumerate(grp)}
        gm = 0
        for v in grp:
            gm |= 1 << v
        for v in grp:
            m = masks[v] & gm
            while m:
                low = m & -m
                acc += index[low.bit_length() - 1]
                m ^= low
        seq = np.random.SeedSequence([acc & 0xFFFF, len(grp)])
        rng = np.random.default_rng(int(seq.generate_state(1, np.uint64)[0]))
        acc += int(rng.permutation(len(grp))[0])
    return cpu_now() - c0


class Phase:
    """Per-op CPU and wall seconds and outcomes of one pass over the ops."""

    def __init__(self):
        self.cpu, self.wall, self.outcomes = [], [], []

    def timed(self, wl, state, k):
        w0, c0 = time.perf_counter(), cpu_now()
        result = wl.op(state, k)
        self.cpu.append(cpu_now() - c0)
        self.wall.append(time.perf_counter() - w0)
        self.outcomes.append(wl.record(state, k, result))
        return result


def run_ops(wl, state, probe, seconds=None, count=None, tracer=None):
    """Run ops k = 0, 1, ... until their CPU time reaches `seconds`, or
    `count` ops. Only wl.op is timed; each outcome is re-verified after it.
    `probe` runs right after every op; the caller runs it once before the
    first, so each op has a measurement of the machine's speed on either
    side of it.

    With a tracer every op runs twice, untraced and then traced, so slow
    phases of the machine hit both alike. The traced pass skips the
    re-verification; its outcomes must equal the untraced ones."""
    from spans import installed

    plain, traced = Phase(), Phase()
    correct = True
    k = 0
    while k < count if count is not None else sum(plain.cpu) < seconds:
        result = plain.timed(wl, state, k)
        probe()
        out = plain.outcomes[-1]
        if not wl.reverify(state, k, result, out):
            correct = False
            print(f"perfbench: op {k} failed its check: {out.line}", file=sys.stderr)
        wl.cleanup(state, k)
        if tracer is not None:
            with installed(tracer):
                tracer.op = k
                traced.timed(wl, state, k)
                tracer.op = None
            if traced.outcomes[-1].line != out.line:
                correct = False
                print(f"perfbench: traced op {k} differs: {traced.outcomes[-1].line}",
                      file=sys.stderr)
            wl.cleanup(state, k)
        k += 1
    return plain, traced, correct


def run_workload(name, seed, seconds, traced):
    import numpy

    from spans import Tracer, installed, layer_metrics, setup_metrics
    from workloads import WORKLOADS

    # CPU time since process start: interpreter start-up and all imports
    import_cpu = cpu_now()
    wl = WORKLOADS[name]
    scratch = str(OUT / f"tmp-{os.getpid()}")
    tracer = Tracer() if traced else None
    correct = True
    # ref_ops[0] precedes set-up repetition 0, ref_ops[i + 1] follows
    # repetition i, and ref_ops[SETUP_REPS + k + 1] follows op k
    ref_data, ref_ops = reference_data(), []

    def probe():
        ref_ops.append(reference(ref_data))

    try:
        rep_cpu, rep_wall, fingerprints = [], [], set()
        state = None
        for _ in range(REFERENCE_WARMUP):
            reference(ref_data)
        probe()
        for rep in range(SETUP_REPS):
            state = None  # free the previous inputs so peak RSS holds one set
            w0, c0 = time.perf_counter(), cpu_now()
            if traced and rep == SETUP_REPS - 1:
                tracer.op = "setup"
                with installed(tracer):
                    state = wl.setup(seed, scratch)
                tracer.op = None
            else:
                state = wl.setup(seed, scratch)
            rep_cpu.append(cpu_now() - c0)
            rep_wall.append(time.perf_counter() - w0)
            probe()
            fingerprints.add(wl.fingerprint(state))
        if len(fingerprints) != 1:
            correct = False
            print("perfbench: set-up repetitions built different inputs",
                  file=sys.stderr)
        if traced:
            base, run, ok = run_ops(wl, state, probe, count=wl.trace_ops, tracer=tracer)
        else:
            run, _, ok = run_ops(wl, state, probe, seconds=seconds)
        correct = correct and ok
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = [o.line for o in run.outcomes]
    successes = sum(o.success for o in run.outcomes)
    stages = {}
    for o in run.outcomes:
        if not o.success:
            stages[o.stage] = stages.get(o.stage, 0) + 1
    op_cpu = sum(run.cpu)
    # how much slower than the defining machine a step ran: the mean of the
    # reference runs on either side of it, over REFERENCE_CPU_S
    speeds = [(a + b) / (2 * REFERENCE_CPU_S) for a, b in zip(ref_ops, ref_ops[1:])]
    rep_scaled = [c / s for c, s in zip(rep_cpu, speeds)]
    scaled = [c / s for c, s in zip(run.cpu, speeds[SETUP_REPS:])]
    tail_s, tail_pct, beyond = tail(scaled)
    info = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "import_cpu_s": import_cpu,
        "reference_cpu_s": statistics.median(ref_ops), "reference_runs": len(ref_ops),
        "setup_rep_cpu_s": rep_cpu, "setup_rep_wall_s": rep_wall,
        "pattern_retries_in_setup": state.get("pattern_retries", 0),
        "op_samples": len(run.cpu), "op_cpu_s": op_cpu, "op_wall_s": sum(run.wall),
        "op_wall_p50": statistics.median(run.wall),
        "tail_pct": tail_pct, "tail_beyond": beyond,
        "fail_stages": stages,
        "digest_ops": min(wl.trace_ops, len(lines)),
        "digest": digest(lines[:wl.trace_ops]),
    }
    info.update(ops_speed=statistics.median(speeds[SETUP_REPS:]),
                raw_op_cpu_p50=statistics.median(run.cpu),
                raw_op_cpu_tail=tail(run.cpu)[0], raw_goodput_per_cpu_s=successes / op_cpu,
                raw_setup_cpu_s=import_cpu + statistics.median(rep_cpu))
    if traced:
        values = layer_metrics(tracer.spans, range(len(run.cpu)), sum(run.wall))
        values.update(setup_metrics(tracer.spans))
        values["trace.overhead"] = statistics.median(run.cpu) / statistics.median(base.cpu)
        path = OUT / f"spans-{name}-seed{seed}.json"
        tracer.write(str(path))
        info["spans_file"] = str(path.relative_to(ROOT))
        info["spans"] = len(tracer.spans)
    else:
        values = {
            # the imports are not scaled: their CPU time does not follow
            # the reference's
            "setup_s": import_cpu + statistics.median(rep_scaled),
            "op_s.p50": statistics.median(scaled),
            "op_s.tail": tail_s,
            "goodput_per_s": successes / sum(scaled),
            "tries_per_op": sum(o.tries for o in run.outcomes) / len(run.cpu),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    units = declared("per_layer" if traced else "end_to_end")
    if set(values) != set(units):
        sys.exit(f"perfbench: metrics {sorted(set(values) ^ set(units))} are "
                 "computed or declared but not both")
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(run.cpu),
        "failed": len(run.cpu) - successes,
        "metrics": {key: {"value": values[key], "unit": unit}
                    for key, unit in units.items()},
    }))


def declared(kind):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def run_all(names, seed, seconds):
    """Every workload, untraced then traced, each in its own process."""
    ok = True
    for name in names:
        infos = []
        for traced in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(traced)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(proc.stderr)
                print(f"{name} trace={traced}: exit {proc.returncode}")
                ok = False
                continue
            info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
            infos.append(info)
            ok = ok and result["correct"]
            print(f"\n== {name}  trace={traced}  correct={result['correct']}  "
                  f"attempted={result['attempted']}  failed={result['failed']}  "
                  f"tail=p{info['tail_pct']:.1f} of {info['op_samples']} ops  "
                  f"digest={info['digest']} over {info['digest_ops']} ops")
            for key, m in result["metrics"].items():
                print(f"  {key:40s} {m['value']:>14.6g} {m['unit']}")
        if len(infos) == 2:
            if infos[0]["digest_ops"] != infos[1]["digest_ops"]:
                print("  digests not compared: the untraced run completed fewer ops "
                      "than the traced run replays; raise --seconds")
            else:
                same = infos[0]["digest"] == infos[1]["digest"]
                print(f"  digests of untraced and traced runs match: {same}")
                ok = ok and same
    print(f"\nall correct: {ok}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for every workload "
                             "both untraced and traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # one thread of load: the package's own pool and numpy's BLAS pools,
    # set before the import of dirac_subdiv loads numpy
    for var in ("DIRAC_SUBDIV_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    import_program()
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(list(WORKLOADS), args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
