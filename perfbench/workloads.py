"""The benchmark workloads.

Each workload builds its inputs from the workload seed in `setup`, runs one
timed operation per `op` call, and describes the outcome in `record`
(success flag, failure stage, Las Vegas tries, one digest line). An op
re-runs a randomized step that failed, as a user of a Las Vegas program
would, so that every op ends in a verified result; the re-runs show as
tries. `reverify` re-checks a success from scratch and runs outside the
timed region. The program under test only ever sees the generated inputs;
op seeds are derived here with hashlib so that a change to the package's
own seed derivation cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil

from dirac_subdiv import cli, embedder
from dirac_subdiv.certificate import certificate_to_json, read_certificate
from dirac_subdiv.embedder import EmbedConfig
from dirac_subdiv.errors import GenerationError
from dirac_subdiv.generators import HostSpec, gen_dirac_host, gen_random_regular
from dirac_subdiv.graph import read_edge_list
from dirac_subdiv.verifier import verify_certificate

from spans import EMBED_FAIL_STAGES


def derive(*parts) -> int:
    """Seed derived from (workload seed, tag, index...), 31 bits."""
    text = "/".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "little") >> 1


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def file_sha(path: str) -> str:
    if not os.path.exists(path):
        return "-"
    with open(path, "rb") as fh:
        return sha(fh.read())


class Outcome:
    """`tries` is the op's randomized runs over the runs a first-time success
    needs, so 1.0 means nothing was re-run."""

    __slots__ = ("success", "stage", "tries", "line")

    def __init__(self, success: bool, stage: str | None, tries: float, line: str):
        self.success = success
        self.stage = stage
        self.tries = tries
        self.line = line


# --- embed-near-bound ----------------------------------------------------------

class EmbedWorkload:
    """One op is embed_subdivision with a fresh seed on a host built in setup,
    with a master-attempt budget of `master_attempts`: the package's own Las
    Vegas loop re-runs the pipeline until a verified embedding comes out.
    `instance` is an (n, d, C, epsilon) tuple."""

    def __init__(self, name, instance, master_attempts, trace_ops):
        self.name = name
        self.instance = instance
        self.master_attempts = master_attempts
        self.trace_ops = trace_ops

    def setup(self, seed, scratch):
        # The host and pattern do not depend on the workload seed, only the
        # op seeds do: how often a master attempt succeeds depends on the
        # host, and one random host per run moved p50 and goodput by up to
        # 0.2 between seeds.
        n, d, C, eps = self.instance
        host = gen_dirac_host(HostSpec(n, d, C, eps, derive(self.name, "host", 0)))
        # the generator's own failures are measured on cli-pipeline; here the
        # pattern is only an input, so draw until one exists
        attempt = 0
        while True:
            try:
                pattern = gen_random_regular(n, d, derive(self.name, "pattern", 0, attempt))
                break
            except GenerationError:
                attempt += 1
        return {"host": host, "pattern": pattern, "seed": seed,
                "pattern_retries": attempt}

    def fingerprint(self, state) -> str:
        h = hashlib.sha256()
        for g in (state["host"], state["pattern"]):
            width = (g.n + 7) // 8
            h.update(g.n.to_bytes(4, "little"))
            for v in range(g.n):
                h.update(g.neighbor_mask(v).to_bytes(width, "little"))
        return h.hexdigest()[:16]

    def op(self, state, k):
        _, _, C, eps = self.instance
        cfg = EmbedConfig(epsilon=eps, C=C, seed=derive(state["seed"], "op", k),
                          master_attempts=self.master_attempts)
        return embedder.embed_subdivision(state["host"], state["pattern"], cfg)

    def record(self, state, k, report) -> Outcome:
        tries = report.master_attempts_used
        if report.success:
            text = certificate_to_json(report.certificate).encode()
            return Outcome(True, None, tries,
                           f"{k} ok {tries} {report.stage_attempts} {sha(text)}")
        return Outcome(False, report.failure_stage, tries,
                       f"{k} fail {report.failure_stage} {tries} {report.stage_attempts}")

    def reverify(self, state, k, report, outcome) -> bool:
        if not outcome.success:
            # Las Vegas: a failed run is typed and carries no certificate
            return (outcome.stage in EMBED_FAIL_STAGES
                    and report.certificate is None)
        return verify_certificate(state["host"], state["pattern"], report.certificate,
                                  require_spanning=True).ok

    def cleanup(self, state, k):
        pass


# --- cli-pipeline ---------------------------------------------------------------

class CliWorkload:
    """One op is gen host -> gen pattern -> embed -> verify --spanning through
    cli.main in-process, each op in its own directory. A randomized step that
    gives its Las Vegas exit (a generator out of restarts, an embedding out
    of master attempts) is run again with the next derived seed, up to
    MAX_TRIES times; the op stops at the first other nonzero exit."""

    name = "cli-pipeline"
    # (n, d) at C=12, epsilon=0.25: K4 (N=144), n=8 d=3 (N=288) and n=10 d=4
    # (N=480), whose pattern generator runs out of restarts on ~8% of seeds
    instances = ((4, 3), (8, 3), (10, 4))
    trace_ops = 60
    steps = ("gen-host", "gen-pattern", "embed", "verify")
    # the exit code each randomized step gives when only its seed was unlucky
    RETRY_EXIT = {"gen-host": 2, "gen-pattern": 2, "embed": 1}
    MAX_TRIES = 20

    def setup(self, seed, scratch):
        os.makedirs(scratch, exist_ok=True)
        return {"seed": seed, "scratch": scratch}

    def fingerprint(self, state) -> str:
        return "-"

    def _paths(self, state, k):
        base = os.path.join(state["scratch"], f"op{k}")
        return base, {name: os.path.join(base, name)
                      for name in ("host.txt", "pattern.txt", "cert.json")}

    def _argv(self, state, k, step, t):
        """The command line of try t of `step` in op k."""
        n, d = self.instances[k % len(self.instances)]
        _, p = self._paths(state, k)
        seed = str(derive(state["seed"], step, k, t))
        if step == "gen-host":
            return ["gen", "--kind", "dirac", "--n", str(n), "--d", str(d), "--C", "12",
                    "--epsilon", "0.25", "--seed", seed, "--out", p["host.txt"]]
        if step == "gen-pattern":
            kind = (["--kind", "complete"] if d == n - 1 else
                    ["--kind", "regular", "--d", str(d), "--seed", seed])
            return ["gen", *kind, "--n", str(n), "--out", p["pattern.txt"]]
        files = ["--host", p["host.txt"], "--pattern", p["pattern.txt"]]
        if step == "embed":
            return ["embed", *files, "--epsilon", "0.25", "--C", "12",
                    "--seed", seed, "--out", p["cert.json"]]
        return ["verify", *files, "--cert", p["cert.json"], "--spanning"]

    def op(self, state, k):
        """Run the steps; return the (step, exit code) of every command run."""
        os.makedirs(self._paths(state, k)[0])
        runs = []
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for step in self.steps:
                for t in range(self.MAX_TRIES):
                    code = cli.main(self._argv(state, k, step, t))
                    runs.append((step, code))
                    if code != self.RETRY_EXIT.get(step):
                        break
                if code != 0:
                    break
        return runs

    def record(self, state, k, runs) -> Outcome:
        _, p = self._paths(state, k)
        digests = [file_sha(p[name]) for name in ("host.txt", "pattern.txt", "cert.json")]
        codes = [code for _, code in runs]
        line = f"{k} {k % len(self.instances)} {codes} {' '.join(digests)}"
        tries = len(runs) / len(self.steps)
        if runs[-1] == ("verify", 0):
            return Outcome(True, None, tries, line)
        step, code = runs[-1]
        return Outcome(False, f"{step}:{code}", tries, line)

    # A randomized step that gave its Las Vegas exit MAX_TRIES times is a
    # failed op, not a wrong answer. A verify rejection of a certificate embed
    # just wrote, or any other exit, is a wrong answer.
    EXPECTED_FAILURES = tuple(f"{step}:{code}" for step, code in RETRY_EXIT.items())

    def reverify(self, state, k, runs, outcome) -> bool:
        if not outcome.success:
            return outcome.stage in self.EXPECTED_FAILURES
        _, p = self._paths(state, k)
        return verify_certificate(read_edge_list(p["host.txt"]),
                                  read_edge_list(p["pattern.txt"]),
                                  read_certificate(p["cert.json"]),
                                  require_spanning=True).ok

    def cleanup(self, state, k):
        shutil.rmtree(self._paths(state, k)[0], ignore_errors=True)


# trace_ops: the traced run replays this many ops (for cli-pipeline whole
# cycles over its instances), so its counts repeat exactly for a seed however
# fast the code becomes; each op runs twice, which took about one run_seconds
# when the benchmark was defined.
WORKLOADS = {
    "cli-pipeline": CliWorkload(),
    # n=32 at d=4, eps=0.25 (N=1536), next to the block-partition cliff: about
    # one master attempt in four succeeds, the others fail in the template or
    # the block partition. The budget of 100 attempts leaves an op a failure
    # chance of about 0.75**100, so every op ends verified and the cliff shows
    # as tries_per_op. n=48 (N=2304) is not used: every attempt there fails.
    "embed-near-bound": EmbedWorkload(
        "embed-near-bound", (32, 4, 12, 0.25), master_attempts=100, trace_ops=80),
}
