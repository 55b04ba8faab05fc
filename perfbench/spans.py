"""Span tracing around the module-level names each dirac_subdiv layer is
called through.

Nothing under src/ is edited: `installed(tracer)` replaces module
attributes (and `Graph.__init__`) with wrappers that record a span
[name, start, end, parent, op, extra] and restores the originals on exit.
`extra` holds counts taken from public return values (attempt counts,
stats dicts, reports) or exceptions (PartitionError.attempts/level).
Spans stay in memory until the benchmark writes them out at the end.
"""

from __future__ import annotations

import contextlib
import json
import os
from collections import defaultdict
from time import perf_counter

from dirac_subdiv import cli, embedder, generators, graph, hampath, partition
from dirac_subdiv.errors import GenerationError, PartitionError
from dirac_subdiv.graph import Graph
from dirac_subdiv.partition import interval_tree

NAME, START, END, PARENT, OP, EXTRA = range(6)

# Stages a master attempt, and so an EmbedReport, may fail in on a host that
# meets the degree bound; anything else (e.g. "precondition") means the
# benchmark built a bad instance.
EMBED_FAIL_STAGES = ("good-partition", "block-partition", "template",
                     "hampath", "verification")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []

    def wrap(self, name, fn, after=None, on_error=None):
        """Wrap fn so each call records a span; `after(result, args)` and
        `on_error(exc)` return a dict of counts stored on the span."""
        spans, stack = self.spans, self._stack

        def wrapped(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[END] = perf_counter()
                stack.pop()
                if on_error is not None:
                    rec[EXTRA] = on_error(exc)
                raise
            rec[END] = perf_counter()
            stack.pop()
            if after is not None:
                rec[EXTRA] = after(result, args)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "extra"],
                       "spans": self.spans}, fh, separators=(",", ":"))


# --- count hooks, all from public return values ------------------------------

def _parse_bytes(result, args):
    return {"bytes": len(args[0])}


def _format_bytes(result, args):
    return {"bytes": len(result)}


def _construct(result, args):
    return {"edges": args[0].edge_count}


def _pattern_fail(exc):
    return {"fail": int(isinstance(exc, GenerationError))}


def _good(result, args):
    return {"draws": result.attempts, "accepted": 1}


def _good_error(exc):
    if isinstance(exc, PartitionError):
        return {"draws": exc.attempts, "accepted": 0}
    return None


def _block(result, args):
    # one level draw is accepted per bisection level of the interval tree
    return {"draws": result.attempts,
            "accepted": interval_tree(len(result.connectors)).s,
            "fail": 0}


def _block_error(exc):
    if isinstance(exc, PartitionError):
        return {"draws": exc.attempts, "accepted": (exc.level or 1) - 1,
                "fail": 1}
    return None


def _hampath(result, args):
    path, stats = result
    return {"restarts": stats["restarts"], "exact": int(stats["exact"]),
            "none": int(path is None)}


def _embed(report, args):
    # each entry of report.failures reads "attempt <m>: <stage>: <detail>"
    return {"master": report.master_attempts_used,
            "success": int(report.success),
            "stages": [f.split(": ", 2)[1] for f in report.failures]}


def _verify(report, args):
    return {"reject": int(not report.ok)}


def _cert_write(result, args):
    return {"bytes": os.path.getsize(args[1])}


# (owner, attribute, span name, after, on_error). Names imported into several
# modules are wrapped at every binding the pipeline calls through.
LAYERS = (
    (cli, "main", "cli", None, None),
    (cli, "gen_dirac_host", "generators.host", None, None),
    (generators, "_sample_gnp", "generators.host_sample", None, None),
    (cli, "gen_random_regular", "generators.pattern", None, _pattern_fail),
    (cli, "complete_graph", "generators.pattern", None, _pattern_fail),
    (graph, "format_edge_list", "graph.format", _format_bytes, None),
    (cli, "read_edge_list", "graph.read", None, None),
    (graph, "parse_edge_list", "graph.parse", _parse_bytes, None),
    (Graph, "__init__", "graph.construct", _construct, None),
    (embedder, "induced", "graph.induced", None, None),
    (embedder, "min_degree", "graph.min_degree", None, None),
    (partition, "min_degree", "graph.min_degree", None, None),
    (generators, "min_degree", "graph.min_degree", None, None),
    (embedder, "spawn_seed", "rng.spawn", None, None),
    (partition, "spawn_seed", "rng.spawn", None, None),
    (hampath, "spawn_seed", "rng.spawn", None, None),
    (generators, "spawn_seed", "rng.spawn", None, None),
    (cli, "embed_subdivision", "embedder", _embed, None),
    (embedder, "embed_subdivision", "embedder", _embed, None),
    (embedder, "build_template", "embedder.template", None, None),
    (embedder, "check_template", "embedder.check_template", None, None),
    (embedder, "good_partition", "partition.good", _good, _good_error),
    (embedder, "block_partition", "partition.block", _block, _block_error),
    (embedder, "hamilton_path_between", "hampath", _hampath, None),
    (embedder, "verify_certificate", "verifier", _verify, None),
    (cli, "verify_certificate", "verifier", _verify, None),
    (cli, "write_certificate", "certificate.write", _cert_write, None),
    (cli, "read_certificate", "certificate.read", None, None),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    saved = []
    try:
        for owner, attr, name, after, on_error in LAYERS:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, after, on_error))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# --- aggregation --------------------------------------------------------------

def layer_metrics(spans, op_ids, op_time_s: float) -> dict[str, float]:
    """Per-layer totals over the spans of the given ops.

    `*_s` is inclusive time, `*self_s` is time not covered by child spans,
    and counts are totals. trace.coverage is the time in top-level spans
    over the ops' measured time.
    """
    ops = set(op_ids)
    time_s = defaultdict(float)
    calls = defaultdict(int)
    extra = defaultdict(int)
    stages = defaultdict(int)
    child_s = defaultdict(float)  # span index -> time covered by its children
    top_s = 0.0
    mine = [i for i, span in enumerate(spans) if span[OP] in ops]
    for i in mine:
        name, start, end, parent, _, ex = spans[i]
        time_s[name] += end - start
        calls[name] += 1
        if parent is None:
            top_s += end - start
        else:
            child_s[parent] += end - start
        for key, value in (ex or {}).items():
            if key == "stages":
                for stage in value:
                    stages[stage] += 1
            else:
                extra[(name, key)] += value
    self_s = defaultdict(float)
    for i in mine:
        self_s[spans[i][NAME]] += spans[i][END] - spans[i][START] - child_s[i]

    def ratio(num, den):
        return num / den if den else 0.0

    good_draws = extra[("partition.good", "draws")]
    level_draws = extra[("partition.block", "draws")]
    successes = extra[("embedder", "success")]
    master = extra[("embedder", "master")]
    metrics = {
        "graph.parse_s": time_s["graph.parse"],
        "graph.parse_bytes": extra[("graph.parse", "bytes")],
        "graph.format_s": time_s["graph.format"],
        "graph.format_bytes": extra[("graph.format", "bytes")],
        "graph.construct_s": time_s["graph.construct"],
        "graph.construct_calls": calls["graph.construct"],
        "graph.construct_edges": extra[("graph.construct", "edges")],
        "generators.host_s": time_s["generators.host"],
        "generators.host_samples": calls["generators.host_sample"],
        "generators.pattern_s": time_s["generators.pattern"],
        "generators.pattern_fail": extra[("generators.pattern", "fail")],
        "graph.induced_s": time_s["graph.induced"],
        "graph.induced_calls": calls["graph.induced"],
        "hampath.s": time_s["hampath"],
        "hampath.calls": calls["hampath"],
        "hampath.restarts": extra[("hampath", "restarts")],
        "hampath.exact_calls": extra[("hampath", "exact")],
        "hampath.none": extra[("hampath", "none")],
        "partition.good_s": time_s["partition.good"],
        "partition.good_draws": good_draws,
        "partition.good_accept_ratio": ratio(
            extra[("partition.good", "accepted")], good_draws),
        "partition.block_s": time_s["partition.block"],
        "partition.block_level_draws": level_draws,
        "partition.block_accept_ratio": ratio(
            extra[("partition.block", "accepted")], level_draws),
        "partition.block_fail": extra[("partition.block", "fail")],
        "graph.min_degree_s": time_s["graph.min_degree"],
        "graph.min_degree_calls": calls["graph.min_degree"],
        "rng.spawn_s": time_s["rng.spawn"],
        "rng.spawn_calls": calls["rng.spawn"],
        "embedder.template_s": time_s["embedder.template"],
        "embedder.template_self_s": self_s["embedder.template"],
        "embedder.check_template_s": time_s["embedder.check_template"],
        "embedder.successes": successes,
        "embedder.master_attempts": master,
        "embedder.master_attempts_per_success": ratio(master, successes),
        "embedder.self_s": self_s["embedder"],
        "verifier.s": time_s["verifier"],
        "verifier.calls": calls["verifier"],
        "verifier.rejects": extra[("verifier", "reject")],
        "certificate.write_s": time_s["certificate.write"],
        "certificate.read_s": time_s["certificate.read"],
        "certificate.bytes": extra[("certificate.write", "bytes")],
        "cli.self_s": self_s["cli"],
        "trace.coverage": ratio(top_s, op_time_s),
    }
    for stage in EMBED_FAIL_STAGES:
        metrics["embedder.fail." + stage.replace("-", "_")] = stages[stage]
    return metrics


def setup_metrics(spans) -> dict[str, float]:
    """Graph construction during the traced set-up repetition."""
    recs = [s for s in spans if s[OP] == "setup" and s[NAME] == "graph.construct"]
    return {
        "setup.graph.construct_s": sum(s[END] - s[START] for s in recs),
        "setup.graph.construct_calls": len(recs),
        "setup.graph.construct_edges": sum(s[EXTRA]["edges"] for s in recs),
    }
