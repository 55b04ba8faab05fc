import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dirac_subdiv import embedder, hampath, partition
from dirac_subdiv import (EmbedConfig, Graph,
                          Template, build_template, certificate_from_json,
                          certificate_to_json, check_template, complete_graph,
                          embed_subdivision, gen_dirac_host,
                          gen_random_regular, gen_two_clique_extremal, glue,
                          HostSpec, PartitionError, verify_certificate)
from dirac_subdiv.embedder import TemplateCheck, _select_connectors_and_branch
from dirac_subdiv.generators import dirac_degree_bound

from support import complete_minus, path_graph


def template_copy(t, branch=None, connectors=None, blocks=None):
    return Template(
        branch=branch if branch is not None else t.branch,
        connectors=dict(connectors if connectors is not None else t.connectors),
        blocks=dict(blocks if blocks is not None else t.blocks),
        size_window=t.size_window)


def multipartite_at_bound(N, eps):
    """The complete multipartite host on N vertices whose parts have at most
    N - ceil((1+eps)N/2) vertices, randomly relabelled: every vertex has
    degree at least the bound, and the largest parts' vertices exactly it."""
    k = N - dirac_degree_bound(N, eps)
    sizes = [k] * (N // k) + ([N % k] if N % k else [])
    part = np.random.default_rng(0).permutation(np.repeat(range(len(sizes)), sizes))
    u, v = np.triu_indices(N, 1)
    cross = part[u] != part[v]
    return Graph(N, np.stack([u[cross], v[cross]], axis=1))


def spy_hampath(monkeypatch):
    """Record the `within` set of every Hamilton call the embedder makes."""
    blocks = []
    real = embedder.hamilton_path_between

    def spy(g, x, y, **kwargs):
        blocks.append(kwargs["within"])
        return real(g, x, y, **kwargs)

    monkeypatch.setattr(embedder, "hamilton_path_between", spy)
    return blocks


class TestBuildTemplate:
    def test_single_edge_pattern(self):
        C = 8
        g = complete_graph(2 * C)
        h = complete_graph(2)
        t = build_template(g, h, EmbedConfig(epsilon=0.3, C=C, seed=2))
        assert set(t.blocks.keys()) == {(0, 1), (1, 0)}
        # with d=1 each group contributes one block of size exactly C
        assert [len(t.blocks[k]) for k in sorted(t.blocks)] == [C, C]
        assert check_template(g, h, t).ok

    def test_k4_on_dirac_host(self):
        host = gen_dirac_host(HostSpec(n=4, d=3, C=12, epsilon=0.2, seed=13))
        h = complete_graph(4)
        t = build_template(host, h, EmbedConfig(epsilon=0.2, C=12, seed=13))
        assert check_template(host, h, t).ok
        # every block size inside the advertised window
        lo, hi = t.size_window
        assert all(lo <= len(b) <= hi for b in t.blocks.values())

    def test_group_accounting_identity(self):
        host = complete_graph(144)
        h = complete_graph(4)
        t = build_template(host, h, EmbedConfig(epsilon=0.25, C=12, seed=3))
        d = 3
        for i in range(4):
            total = sum(len(t.blocks[(i, j)]) for j in h.neighbors(i))
            assert total == 12 * d + (d - 1)

    def test_degree_precondition_error(self):
        g = gen_two_clique_extremal(8)
        h = complete_graph(2)
        with pytest.raises(ValueError):
            build_template(g, h, EmbedConfig(epsilon=0.3, C=8, seed=0))

    def test_non_regular_pattern_rejected(self):
        g = complete_graph(24)
        with pytest.raises(ValueError):
            build_template(g, path_graph(3), EmbedConfig(epsilon=0.3, seed=0))

    def test_size_mismatch_rejected(self):
        g = complete_graph(30)
        h = complete_graph(2)
        with pytest.raises(ValueError):
            build_template(g, h, EmbedConfig(epsilon=0.3, C=8, seed=0))

    # multipartite hosts at the degree bound: C=3, the smallest blow-up
    # constant, and the host of test_counts_match_draws_near_the_cliff
    @pytest.mark.parametrize("N, n, d", [(72, 8, 3), (768, 16, 4)],
                             ids=["C3", "multipartite-C12"])
    def test_selection_on_a_good_partition_cannot_fail(self, N, n, d):
        # a good partition gives each vertex >= 3d/2 neighbours in every
        # pattern-neighbour group, but at most d-1 vertices of a group are
        # taken when a pick is made there, so no pick can run out
        host, h = multipartite_at_bound(N, 0.25), gen_random_regular(n, d, seed=0)
        parts = partition.good_partition(host, h, 0.625, 0.125, seed=1).parts
        branch, connectors = _select_connectors_and_branch(host, h, parts)
        picks = [*branch, *connectors.values()]
        assert len(set(picks)) == len(picks) == h.n + 2 * h.edge_count
        assert all(branch[i] in parts[i] for i in range(h.n))
        for (i, j), u in connectors.items():
            assert u in parts[i] and host.has_edge(u, connectors[(j, i)])


class TestCheckTemplate:
    def base(self):
        g = complete_graph(36)
        h = complete_graph(3)  # n=3, d=2, C=6
        t = build_template(g, h, EmbedConfig(epsilon=0.3, C=6, seed=5))
        return g, h, t

    def test_valid_template_passes(self):
        g, h, t = self.base()
        assert check_template(g, h, t).ok

    def test_deleted_vertex_fails_cover(self):
        g, h, t = self.base()
        key = (0, 1)
        victim = next(v for v in t.blocks[key]
                      if v not in (t.branch[0], t.connectors[key]))
        blocks = dict(t.blocks)
        blocks[key] = tuple(v for v in blocks[key] if v != victim)
        chk = check_template(g, h, template_copy(t, blocks=blocks))
        assert not chk.ok and chk.label == "cover"

    def test_cross_group_overlap(self):
        g, h, t = self.base()
        stolen = next(v for v in t.blocks[(1, 0)]
                      if v not in (t.branch[1], t.connectors[(1, 0)]))
        blocks = dict(t.blocks)
        blocks[(0, 1)] = tuple(sorted(blocks[(0, 1)] + (stolen,)))
        chk = check_template(g, h, template_copy(t, blocks=blocks))
        assert not chk.ok and chk.label == "groups-disjoint"

    def test_within_group_overlap(self):
        g, h, t = self.base()
        stolen = next(v for v in t.blocks[(0, 2)]
                      if v not in (t.branch[0], t.connectors[(0, 2)]))
        blocks = dict(t.blocks)
        blocks[(0, 1)] = tuple(sorted(blocks[(0, 1)] + (stolen,)))
        chk = check_template(g, h, template_copy(t, blocks=blocks))
        assert not chk.ok and chk.label == "within-group-overlap"

    def test_block_size_window(self):
        # move one plain vertex between the two blocks of a 2-group template
        g = complete_graph(16)
        h = complete_graph(2)
        t = build_template(g, h, EmbedConfig(epsilon=0.3, C=8, seed=1))
        a, b = (0, 1), (1, 0)
        mover = next(v for v in t.blocks[a]
                     if v not in (t.branch[0], t.connectors[a]))
        blocks = dict(t.blocks)
        blocks[a] = tuple(v for v in blocks[a] if v != mover)
        blocks[b] = tuple(sorted(blocks[b] + (mover,)))
        chk = check_template(g, h, template_copy(t, blocks=blocks))
        assert not chk.ok and chk.label == "block-size"

    def test_block_min_degree(self):
        # hand-built: vertex 0 keeps only one neighbor inside its block
        g = complete_minus(8, {(0, 1), (0, 2)})
        h = complete_graph(2)
        t = Template(branch=(3, 7),
                     connectors={(0, 1): 2, (1, 0): 6},
                     blocks={(0, 1): (0, 1, 2, 3), (1, 0): (4, 5, 6, 7)},
                     size_window=(4, 5))
        chk = check_template(g, h, t)
        assert not chk.ok and chk.label == "block-min-degree"

    def test_connector_edge(self):
        g = complete_minus(8, {(2, 6)})
        h = complete_graph(2)
        t = Template(branch=(3, 7),
                     connectors={(0, 1): 2, (1, 0): 6},
                     blocks={(0, 1): (0, 1, 2, 3), (1, 0): (4, 5, 6, 7)},
                     size_window=(4, 5))
        chk = check_template(g, h, t)
        assert not chk.ok and chk.label == "connector-edge"

    def test_duplicate_branch_fails_structure(self):
        g, h, t = self.base()
        chk = check_template(g, h, template_copy(
            t, branch=(t.branch[0], t.branch[0], t.branch[2])))
        assert not chk.ok and chk.label == "structure"

    @pytest.mark.parametrize("bad", [-1, 36])
    def test_out_of_range_block_vertex_fails_cover(self, bad):
        # the block-degree check indexes host rows by id; an id past either
        # end must be caught by the cover check, never index or wrap a row
        g, h, t = self.base()
        key = (0, 1)
        victim = next(v for v in t.blocks[key]
                      if v not in (t.branch[0], t.connectors[key]))
        blocks = dict(t.blocks)
        blocks[key] = tuple(bad if v == victim else v for v in blocks[key])
        chk = check_template(g, h, template_copy(t, blocks=blocks))
        assert not chk.ok and chk.label == "cover"


class TestGlue:
    def host(self):
        return Graph(4, [(0, 1), (1, 3), (2, 3)])

    def test_definition(self):
        g = self.host()
        assert glue(g, [0, 1], [2, 3]) == [0, 1, 3, 2]

    def test_degenerate_rejected(self):
        g = self.host()
        with pytest.raises(ValueError):
            glue(g, [0], [2, 3])
        with pytest.raises(ValueError):
            glue(g, [0], [2])

    def test_overlap_rejected(self):
        g = complete_graph(4)
        with pytest.raises(ValueError):
            glue(g, [0, 1], [1, 2])

    def test_missing_connector_edge_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            glue(g, [0, 1], [2, 3])

    def test_length_arithmetic(self):
        # interiors of sizes C-1 and C glue to 2C-1 interior vertices
        C = 6
        g = complete_graph(2 * C + 2)
        p = list(range(0, C))            # C vertices
        q = list(range(C, 2 * C + 1))    # C+1 vertices
        out = glue(g, p, q)
        assert len(out) == len(p) + len(q)
        assert len(out) - 1 == (len(p) - 1) + (len(q) - 1) + 1
        assert len(out) - 2 == 2 * C - 1  # interior count


class TestEmbedSubdivision:
    def test_complete_host_success(self):
        g = complete_graph(36)
        h = complete_graph(3)
        rep = embed_subdivision(g, h, EmbedConfig(epsilon=0.3, C=6, seed=1))
        assert rep.success
        vr = verify_certificate(g, h, rep.certificate, require_spanning=True)
        assert vr.ok

    def test_two_clique_host_fails(self):
        g = gen_two_clique_extremal(18)
        h = complete_graph(3)
        rep = embed_subdivision(g, h, EmbedConfig(epsilon=0.3, C=6, seed=1))
        assert not rep.success
        assert rep.failure_stage == "precondition"
        assert rep.certificate is None

    def test_interiors_partition_host(self):
        g = complete_graph(36)
        h = complete_graph(3)
        rep = embed_subdivision(g, h, EmbedConfig(epsilon=0.3, C=6, seed=4))
        cert = rep.certificate
        interiors = []
        for p in cert.edge_paths.values():
            interiors.extend(p[1:-1])
        assert len(interiors) == len(set(interiors))
        assert set(interiors) | set(cert.branch_map) == set(range(36))
        assert not set(interiors) & set(cert.branch_map)

    def test_balance_window(self):
        host = gen_dirac_host(HostSpec(n=4, d=3, C=12, epsilon=0.25, seed=17))
        h = complete_graph(4)
        rep = embed_subdivision(host, h, EmbedConfig(epsilon=0.25, C=12, seed=17))
        assert rep.success
        lengths = {len(p) - 1 for p in rep.certificate.edge_paths.values()}
        assert lengths <= {23, 24, 25}

    def test_flexible_mode(self):
        g = complete_graph(40)  # C=6, d=2, n=3 -> 36, remainder 4
        h = complete_graph(3)
        rep = embed_subdivision(g, h, EmbedConfig(epsilon=0.3, C=6, seed=5))
        assert rep.success
        assert verify_certificate(g, h, rep.certificate).ok
        lengths = sorted(len(p) - 1 for p in rep.certificate.edge_paths.values())
        assert all(11 <= ln <= 15 for ln in lengths)  # window widens by 2

    def test_order_above_window_rejected(self):
        g = complete_graph(42)  # (C+1)*d*n: C = N // (d*n) is 7, not 6
        h = complete_graph(3)
        with pytest.raises(ValueError):
            embed_subdivision(g, h, EmbedConfig(epsilon=0.3, C=6, seed=5))

    def test_deterministic_certificates(self):
        g = complete_graph(36)
        h = complete_graph(3)
        cfg = EmbedConfig(epsilon=0.3, C=6, seed=9)
        a = embed_subdivision(g, h, cfg).certificate
        b = embed_subdivision(g, h, cfg).certificate
        assert certificate_to_json(a) == certificate_to_json(b)

    def test_report_attempt_accounting(self, monkeypatch):
        g = complete_graph(36)
        h = complete_graph(3)
        calls = spy_hampath(monkeypatch)
        rep = embed_subdivision(g, h, EmbedConfig(epsilon=0.3, C=6, seed=2))
        assert rep.master_attempts_used == 1
        assert rep.stage_attempts == {"good_partition": 1, "block_levels": 3}
        assert len(calls) == 2 * h.edge_count
        assert rep.wall_time_s > 0

    def test_near_bound_attempts_never_fail_the_template(self):
        # the block stage checks the template's block-min-degree bound, so
        # every template passes check_template (a miss would raise) and only
        # a partition stage can cost a master attempt
        for seed in range(5):
            host = gen_dirac_host(HostSpec(32, 4, 12, 0.25, seed=seed))
            h = gen_random_regular(32, 4, seed=seed)
            r = embed_subdivision(host, h, EmbedConfig(epsilon=0.25, seed=seed))
            assert r.success
            assert {f.split(": ")[1] for f in r.failures} <= {
                "good-partition", "block-partition"}


class TestHamiltonStage:
    """Every block meets Ore's bound, so the Hamilton stage builds its
    paths by gap closing: no seed, no induced graph, no exact DP."""

    @staticmethod
    def spy_exact(monkeypatch):
        """Calls into the branch for sets that miss Ore's bound: the induced
        graph it builds and the exact DP it runs."""
        calls = []

        def spy(name):
            real = getattr(hampath, name)
            monkeypatch.setattr(hampath, name,
                                lambda *a: calls.append(name) or real(*a))

        spy("induced")
        spy("_exact_path")
        return calls

    def test_no_seed_after_the_template(self, monkeypatch):
        tags = {embedder: [], hampath: []}

        def spy(module):
            real = module.spawn_seed

            def derive(*parts):
                tags[module].append(parts[1])
                return real(*parts)
            monkeypatch.setattr(module, "spawn_seed", derive)

        spy(embedder)
        spy(hampath)
        exact = self.spy_exact(monkeypatch)
        calls = spy_hampath(monkeypatch)
        host = gen_dirac_host(HostSpec(8, 3, 12, 0.25, seed=4))
        h = gen_random_regular(8, 3, seed=4)
        r = embed_subdivision(host, h, EmbedConfig(epsilon=0.25, seed=4))
        assert r.success and len(calls) == 2 * h.edge_count
        assert exact == []
        assert 0x01 in tags[embedder] and tags[hampath] == []

    def test_blocks_past_the_exact_threshold(self, monkeypatch):
        # K3 on K384: C = 64, so every block has 65 vertices
        exact = self.spy_exact(monkeypatch)
        r = embed_subdivision(complete_graph(384), complete_graph(3),
                              EmbedConfig(epsilon=0.5, seed=1))
        assert r.success and r.C == 64 > hampath.EXACT_THRESHOLD
        assert exact == []

    def test_a_block_without_a_path_is_an_error(self, monkeypatch):
        # the stage cannot fail on a checked template, so a missing path
        # is a fault that names its block, not a reason to retry
        templates = []
        real_build = embedder.build_template
        real_path = embedder.hamilton_path_between

        def build_spy(*args, **kwargs):
            templates.append(real_build(*args, **kwargs))
            return templates[-1]

        def no_path_in_block_12(g, x, y, **kwargs):
            path, stats = real_path(g, x, y, **kwargs)
            if y == templates[-1].connectors[(1, 2)]:
                return None, stats
            return path, stats

        monkeypatch.setattr(embedder, "build_template", build_spy)
        monkeypatch.setattr(embedder, "hamilton_path_between", no_path_in_block_12)
        with pytest.raises(AssertionError, match=r"block \(1, 2\)"):
            embed_subdivision(complete_graph(36), complete_graph(3),
                              EmbedConfig(epsilon=0.3, C=6, seed=2))

    def test_blocks_are_paths_of_the_host_rows(self, monkeypatch):
        # the golden certificate's run: no induced graph is built, and each
        # block is one Hamilton call on the host with the block as `within`
        builds = []
        monkeypatch.setattr(embedder, "induced", lambda *a: builds.append(a))
        blocks = spy_hampath(monkeypatch)
        host = gen_dirac_host(HostSpec(4, 3, 12, 0.25, seed=1005))
        h = complete_graph(4)
        r = embed_subdivision(host, h, EmbedConfig(0.25, C=12, seed=5))
        text = certificate_to_json(r.certificate)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "e96ec15a6c5acc7a"
        assert r.master_attempts_used == 1 and builds == []
        assert len(blocks) == 2 * h.edge_count
        assert sorted(v for b in blocks for v in b) == sorted(
            [*range(host.n), *r.certificate.branch_map, *r.certificate.branch_map])


class TestCertificateSerialization:
    def test_roundtrip(self):
        g = complete_graph(36)
        h = complete_graph(3)
        cert = embed_subdivision(g, h, EmbedConfig(epsilon=0.3, C=6, seed=3)).certificate
        text = certificate_to_json(cert)
        back = certificate_from_json(text)
        assert back == cert
        assert certificate_to_json(back) == text

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            certificate_from_json('{"format": "something-else"}')


class TestAttemptCounts:
    """stage_attempts sums every draw of every master attempt, including
    the draws of attempts that fail."""

    def test_forced_block_partition_failure(self, monkeypatch):
        # K36 host, triangle pattern (C=6, d=2): the good partition and the
        # one bisection level of a group are accepted at their first draw.
        # Every second block partition (group 1 of each attempt) is made to
        # fail after 7 draws, so an attempt draws 1 + 1 + 7 and stops.
        real = embedder.block_partition
        calls = []

        def second_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) % 2 == 0:
                raise PartitionError("forced", attempts=7, level=1)
            return real(*args, **kwargs)

        monkeypatch.setattr(embedder, "block_partition", second_fails)
        rep = embed_subdivision(complete_graph(36), complete_graph(3),
                                EmbedConfig(epsilon=0.3, C=6, seed=2,
                                            master_attempts=3))
        assert not rep.success and rep.failure_stage == "block-partition"
        assert rep.master_attempts_used == 3
        assert len(calls) == 6
        assert rep.stage_attempts == {"good_partition": 3, "block_levels": 24}

    def test_forced_template_failure(self, monkeypatch):
        # every template passes check_template by construction, so a failed
        # check is a bug, not a reason to retry: the first master attempt
        # raises, naming the label and the witness
        checked = []

        def forced(g, h, t):
            checked.append(t)
            return TemplateCheck(False, "forced", "witness-7")

        monkeypatch.setattr(embedder, "check_template", forced)
        with pytest.raises(AssertionError, match="forced: witness-7"):
            embed_subdivision(complete_graph(36), complete_graph(3),
                              EmbedConfig(epsilon=0.3, C=6, seed=2,
                                          master_attempts=2))
        assert len(checked) == 1

    def test_rejected_certificate_is_an_error(self, monkeypatch):
        # a certificate glued from a checked template always verifies, so
        # a rejection is a bug, not a reason to retry: the first master
        # attempt raises, naming the failed check
        real = embedder.verify_certificate
        verified = []

        def reject(*args, **kwargs):
            verified.append(kwargs)
            vr = real(*args, **kwargs)
            vr.checks.append(("forced-check", False, None))
            return vr

        monkeypatch.setattr(embedder, "verify_certificate", reject)
        with pytest.raises(AssertionError, match="forced-check"):
            embed_subdivision(complete_graph(36), complete_graph(3),
                              EmbedConfig(epsilon=0.3, C=6, seed=2,
                                          master_attempts=3))
        assert verified == [{"require_spanning": True}]

    def test_rejected_certificate_raises_under_optimize(self):
        # python -O strips assert statements, the template and path checks
        # among them; the verification gate must still stop the report
        script = (
            "from dirac_subdiv import EmbedConfig, complete_graph, embedder\n"
            "real = embedder.verify_certificate\n"
            "def reject(*args, **kwargs):\n"
            "    vr = real(*args, **kwargs)\n"
            "    vr.checks.append(('forced-check', False, None))\n"
            "    return vr\n"
            "embedder.verify_certificate = reject\n"
            "assert False, 'assert statements are live'\n"
            "try:\n"
            "    rep = embedder.embed_subdivision(\n"
            "        complete_graph(36), complete_graph(3),\n"
            "        EmbedConfig(epsilon=0.3, C=6, seed=2, master_attempts=3))\n"
            "except AssertionError as e:\n"
            "    print('raised:', e)\n"
            "else:\n"
            "    print('reported:', rep.success, rep.failure_stage)\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        done = subprocess.run([sys.executable, "-O", "-c", script],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("raised: ") and "forced-check" in done.stdout

    def test_counts_match_draws_near_the_cliff(self, monkeypatch):
        # a complete multipartite host at the degree bound (n=16, C=12,
        # eps=0.25, N=768): parts of 288, 288 and 192 vertices, so the
        # min degree is exactly 480 = ceil((1+eps)N/2). A block of 11
        # has inner degree >= tau*C = 5.25 only with at most 5 vertices of
        # each part, which the first bisection level can already rule out,
        # so each attempt exhausts the final level of some group, swap
        # repair included. Every draw derives its seed through
        # partition.spawn_seed with a stage tag (0x0A good partition, 0x0B
        # block level), which is tallied here.
        host = multipartite_at_bound(768, 0.25)
        pattern = gen_random_regular(16, 4, seed=0)
        real = partition.spawn_seed
        tags = []

        def spy(*parts):
            tags.append(parts[1])
            return real(*parts)

        monkeypatch.setattr(partition, "spawn_seed", spy)
        rep = embed_subdivision(host, pattern, EmbedConfig(
            epsilon=0.25, C=12, seed=1, master_attempts=3))
        assert [f.split(": ")[1] for f in rep.failures] == ["block-partition"] * 3
        assert rep.stage_attempts == {
            "good_partition": tags.count(0x0A),
            "block_levels": tags.count(0x0B)}
        assert rep.stage_attempts["good_partition"] >= 3
        assert rep.stage_attempts["block_levels"] > 3 * 50


class TestSwapRepair:
    """A final bisection level that misses is repaired by sibling swaps
    before another draw, which moves the eps=0.25 cliff past n=64."""

    @pytest.mark.parametrize("n", [48, 64])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cliff_instances_embed_at_the_first_attempt(self, n, seed):
        # without repair every master attempt at these sizes fails in the
        # block partition
        host = gen_dirac_host(HostSpec(n, 4, 12, 0.25, seed=seed))
        h = gen_random_regular(n, 4, seed=seed)
        rep = embed_subdivision(host, h, EmbedConfig(epsilon=0.25, C=12, seed=seed))
        assert rep.success and rep.master_attempts_used == 1
        assert verify_certificate(host, h, rep.certificate, require_spanning=True).ok

    def test_repaired_blocks_pass_the_template_check(self, monkeypatch):
        real = partition._swap_repair
        changed = []

        def spy(g, center, conns, pair, threshold, C):
            out = real(g, center, conns, pair, threshold, C)
            changed.append(out != pair)
            return out

        monkeypatch.setattr(partition, "_swap_repair", spy)
        host = gen_dirac_host(HostSpec(48, 4, 12, 0.25, seed=0))
        h = gen_random_regular(48, 4, seed=0)
        t = build_template(host, h, EmbedConfig(epsilon=0.25, C=12, seed=0))
        assert sum(changed) > 0
        assert check_template(host, h, t).ok
