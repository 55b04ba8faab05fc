import hashlib
import os
import re
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
                          gen_random_regular, gen_two_clique_extremal,
                          HostSpec, PartitionError, SubdivisionCertificate,
                          interval_tree, verify_certificate)
from dirac_subdiv.cli import SweepSpec
from dirac_subdiv.embedder import TemplateCheck, _select_connectors_and_branch
from dirac_subdiv.generators import dirac_degree_bound

from support import complete_minus, path_graph


def embed_under_optimize(stub):
    """What a python -O run prints that runs the code stub, then embeds K3 in
    K36: 'raised: <message>' for an AssertionError, else 'reported: <success>
    <stage>'. The run must exit 0, which it does only with asserts stripped."""
    script = (
        "from dirac_subdiv import EmbedConfig, complete_graph, embedder\n"
        "from dirac_subdiv.embedder import TemplateCheck\n"
        f"{stub}\n"
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
    return done.stdout


def template_copy(t, branch=None, connectors=None, blocks=None):
    return Template(
        branch=branch if branch is not None else t.branch,
        connectors=dict(connectors if connectors is not None else t.connectors),
        blocks=dict(blocks if blocks is not None else t.blocks))


def multipartite_at_bound(N, eps, seed=0):
    """The complete multipartite host on N vertices whose parts have at most
    N - ceil((1+eps)N/2) vertices, relabelled at random by seed: every
    vertex has degree at least the bound, and the largest parts' vertices
    exactly it."""
    k = N - dirac_degree_bound(N, eps)
    sizes = [k] * (N // k) + ([N % k] if N % k else [])
    part = np.random.default_rng(seed).permutation(np.repeat(range(len(sizes)), sizes))
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
        # N = 144 = C*d*n, so every block has size C or C+1
        assert all(12 <= len(b) <= 13 for b in t.blocks.values())

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

    def test_edgeless_pattern_rejected(self):
        with pytest.raises(ValueError, match="pattern regularity d must satisfy 1 <= d < n"):
            build_template(complete_graph(24), Graph(4), EmbedConfig(epsilon=0.3, seed=0))

    @pytest.mark.parametrize("knobs, message", [
        ({"epsilon": 0}, "epsilon must lie in"),
        ({"epsilon": 0.3, "master_attempts": 0}, "master_attempts must be >= 1"),
    ])
    def test_config_validation(self, knobs, message):
        with pytest.raises(ValueError, match=message):
            EmbedConfig(**knobs)

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
        assert chk.witness == "missing [7] extra []"

    def test_numpy_ids_are_read_as_ints(self):
        # 1 << np.int64(v) wraps past bit 63: ids of K144 must read as ints,
        # and a dropped block vertex must still fail cover by name
        g, h = complete_graph(144), complete_graph(4)
        t = build_template(g, h, EmbedConfig(epsilon=0.3, C=12, seed=1))
        as_np = Template(tuple(map(np.int64, t.branch)),
                         {k: np.int64(v) for k, v in t.connectors.items()},
                         {k: tuple(map(np.int64, b)) for k, b in t.blocks.items()})
        assert check_template(g, h, as_np).ok
        key = max(t.blocks)
        victim = max(v for v in t.blocks[key]
                     if v not in (t.branch[key[0]], t.connectors[key]))
        assert victim >= 64
        blocks = dict(as_np.blocks)
        blocks[key] = tuple(v for v in blocks[key] if v != victim)
        chk = check_template(g, h, template_copy(as_np, blocks=blocks))
        assert not chk.ok and chk.label == "cover"
        assert chk.witness == f"missing [{victim}] extra []"

    @pytest.mark.parametrize("role", ["block", "connector", "branch"])
    def test_non_integer_ids_are_reported(self, role):
        # one id made a float: reported as the verifier's shape check words
        # it, never compared, shifted or passed to the host's adjacency
        g, h, t = self.base()
        key = (0, 1)
        if role == "block":
            v = next(v for v in t.blocks[key] if v not in (t.branch[0], t.connectors[key]))
            t = template_copy(t, blocks={
                **t.blocks, key: tuple(float(u) if u == v else u for u in t.blocks[key])})
        elif role == "connector":
            v = t.connectors[key]
            t = template_copy(t, connectors={**t.connectors, key: float(v)})
        else:
            v = t.branch[0]
            t = template_copy(t, branch=(float(v), *t.branch[1:]))
        chk = check_template(g, h, t)
        assert (chk.ok, chk.label, chk.witness) == (
            False, "structure", f"non-integer vertex ids [{float(v)}]")

    def test_cross_group_overlap(self):
        g, h, t = self.base()
        stolen = next(v for v in t.blocks[(1, 0)]
                      if v not in (t.branch[1], t.connectors[(1, 0)]))
        blocks = dict(t.blocks)
        blocks[(0, 1)] = tuple(sorted(blocks[(0, 1)] + (stolen,)))
        chk = check_template(g, h, template_copy(t, blocks=blocks))
        assert not chk.ok and chk.label == "groups-disjoint"
        assert chk.witness == "vertex 13 appears in groups 0 and 1"

    def test_within_group_overlap(self):
        g, h, t = self.base()
        stolen = next(v for v in t.blocks[(0, 2)]
                      if v not in (t.branch[0], t.connectors[(0, 2)]))
        blocks = dict(t.blocks)
        blocks[(0, 1)] = tuple(sorted(blocks[(0, 1)] + (stolen,)))
        chk = check_template(g, h, template_copy(t, blocks=blocks))
        assert not chk.ok and chk.label == "within-group-overlap"
        assert chk.witness == "vertex 9 lies in 2 blocks of group 0, want 1"

    @pytest.mark.parametrize("twice, witness", [
        (7, "vertex 7 lies in 2 blocks of group 0, want 1"),
        (5, "vertex 5 lies in 3 blocks of group 0, want 2")])
    def test_vertex_listed_twice_in_one_block(self, twice, witness):
        # a plain vertex, and the branch vertex 5, listed twice in block
        # (0,1): the block's vertex count is right for a set one larger
        g, h, t = self.base()
        blocks = dict(t.blocks)
        blocks[(0, 1)] = tuple(sorted(blocks[(0, 1)] + (twice,)))
        chk = check_template(g, h, template_copy(t, blocks=blocks))
        assert (chk.ok, chk.label, chk.witness) == (False, "within-group-overlap", witness)

    @pytest.mark.parametrize("N, n, C, a, b, witness", [
        (16, 2, 8, (0, 1), (1, 0), "block (0, 1) has size 7, window [8,9]"),
        (40, 3, 6, (0, 2), (0, 1), "block (0, 1) has size 9, window [6,8]")],
        ids=["divisible", "non-divisible"])
    def test_block_size_outside_window(self, N, n, C, a, b, witness):
        # move one plain vertex from block a to block b: K2 on K16 has the
        # window [C, C+1]; K3 on K40 has d*n = 6 not dividing N, so [C, C+2]
        g = complete_graph(N)
        h = complete_graph(n)
        t = build_template(g, h, EmbedConfig(epsilon=0.3, C=C, seed=1))
        mover = next(v for v in t.blocks[a]
                     if v not in (t.branch[a[0]], t.connectors[a]))
        blocks = dict(t.blocks)
        blocks[a] = tuple(v for v in blocks[a] if v != mover)
        blocks[b] = tuple(sorted(blocks[b] + (mover,)))
        chk = check_template(g, h, template_copy(t, blocks=blocks))
        assert (chk.ok, chk.label, chk.witness) == (False, "block-size", witness)

    def test_empty_template_passes(self):
        # no block to size, so no window to derive
        assert check_template(Graph(0), Graph(0), Template((), {}, {})).ok

    def test_block_min_degree(self):
        # hand-built: vertex 0 keeps only one neighbor inside its block
        g = complete_minus(8, {(0, 1), (0, 2)})
        h = complete_graph(2)
        t = Template(branch=(3, 7),
                     connectors={(0, 1): 2, (1, 0): 6},
                     blocks={(0, 1): (0, 1, 2, 3), (1, 0): (4, 5, 6, 7)})
        chk = check_template(g, h, t)
        assert not chk.ok and chk.label == "block-ore-degree"

    def test_connector_edge(self):
        g = complete_minus(8, {(2, 6)})
        h = complete_graph(2)
        t = Template(branch=(3, 7),
                     connectors={(0, 1): 2, (1, 0): 6},
                     blocks={(0, 1): (0, 1, 2, 3), (1, 0): (4, 5, 6, 7)})
        chk = check_template(g, h, t)
        assert not chk.ok and chk.label == "connector-edge"

    def test_duplicate_branch_fails_structure(self):
        g, h, t = self.base()
        chk = check_template(g, h, template_copy(
            t, branch=(t.branch[0], t.branch[0], t.branch[2])))
        assert not chk.ok and chk.label == "structure"

    @pytest.mark.parametrize("role", ["branch", "connector"])
    def test_block_missing_its_special_vertex_fails_structure(self, role):
        g, h, t = self.base()
        key = (0, 1)
        gone = t.branch[0] if role == "branch" else t.connectors[key]
        blocks = dict(t.blocks)
        blocks[key] = tuple(v for v in blocks[key] if v != gone)
        chk = check_template(g, h, template_copy(t, blocks=blocks))
        assert not chk.ok and chk.label == "structure"
        assert chk.witness == "block (0,1) missing its branch or connector vertex"

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
        assert chk.witness == f"missing [7] extra [{bad}]"


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
        # the block stage checks the template's block-ore-degree bound, so
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

    def test_a_glue_fault_is_an_error(self, monkeypatch):
        # glued paths have no check of their own: the verifier is that
        # check, so a half path that reuses an interior vertex of its twin
        # is a fault that names the failed checks, not a usage error
        templates = []
        real_build = embedder.build_template
        real_path = embedder.hamilton_path_between

        def build_spy(*args, **kwargs):
            templates.append(real_build(*args, **kwargs))
            return templates[-1]

        def overlap_in_block_10(g, x, y, **kwargs):
            path, stats = real_path(g, x, y, **kwargs)
            t = templates[-1]
            if y == t.connectors[(1, 0)]:
                twin, _ = real_path(g, t.branch[0], t.connectors[(0, 1)],
                                    within=t.blocks[(0, 1)], return_stats=True)
                path = [path[0], twin[1], *path[1:]]
            return path, stats

        monkeypatch.setattr(embedder, "build_template", build_spy)
        monkeypatch.setattr(embedder, "hamilton_path_between", overlap_in_block_10)
        with pytest.raises(AssertionError, match="paths-simple"):
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
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "3ba92f98bfa71821"
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

    def test_numpy_ids_write_the_plain_int_document(self):
        g, h = complete_graph(144), complete_graph(4)
        cert = embed_subdivision(g, h, EmbedConfig(epsilon=0.3, C=12, seed=1)).certificate
        as_np = SubdivisionCertificate(
            cert.host_vertex_count, cert.pattern, tuple(map(np.int64, cert.branch_map)),
            {(np.int64(i), np.int64(j)): tuple(map(np.int64, p))
             for (i, j), p in cert.edge_paths.items()})
        assert certificate_to_json(as_np) == certificate_to_json(cert)

    @pytest.mark.parametrize("bad", [7.0, "7", None])
    def test_non_integer_id_is_not_written(self, bad):
        cert = SubdivisionCertificate(8, complete_graph(2), (0, bad), {(0, 1): (0, 7)})
        with pytest.raises(ValueError, match=re.escape(f"certificate id {bad!r} is not an integer")):
            certificate_to_json(cert)

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            certificate_from_json('{"format": "something-else"}')


class TestIntegerParameters:
    """Seeds and sizes are integers, numpy ones too; a float is never read
    as its integer part."""

    @pytest.mark.parametrize("entry", ["embed", "pattern", "host"])
    def test_float_seed_is_a_type_error(self, entry):
        runs = {
            "embed": lambda: embed_subdivision(complete_graph(36), complete_graph(3),
                                               EmbedConfig(epsilon=0.3, C=6, seed=1.5)),
            "pattern": lambda: gen_random_regular(8, 3, 1.7),
            "host": lambda: gen_dirac_host(HostSpec(3, 2, 6, 0.4, seed=7.9)),
        }
        with pytest.raises(TypeError):
            runs[entry]()

    def test_numpy_seed_writes_the_plain_int_certificate(self):
        g, h = complete_graph(36), complete_graph(3)
        docs = [certificate_to_json(embed_subdivision(
                    g, h, EmbedConfig(epsilon=0.3, C=6, seed=seed)).certificate)
                for seed in (5, np.int64(5), -1, np.int64(-1), np.uint64(2**64 - 1))]
        assert docs[0] == docs[1] and docs[2] == docs[3] == docs[4]

    @pytest.mark.parametrize("make, field", [
        (lambda: HostSpec(4.0, 3, 12, 0.25), "n"),
        (lambda: HostSpec(4, 3.0, 12, 0.25), "d"),
        (lambda: HostSpec(4, 3, 12.0, 0.25), "C"),
        (lambda: EmbedConfig(epsilon=0.3, C=6.0), "C"),
        (lambda: EmbedConfig(epsilon=0.3, master_attempts=1.5), "master_attempts"),
        (lambda: SweepSpec(kinds=("complete",), ns=(3,), ds=(2,), Cs=(6.0,),
                           epsilons=(0.4,), trials=1), "C"),
    ], ids=["host-n", "host-d", "host-C", "embed-C", "embed-master_attempts", "sweep-Cs"])
    def test_non_integer_size_is_a_value_error(self, make, field):
        with pytest.raises(ValueError, match=rf"\b{field} must be an integer"):
            make()

    def test_numpy_sizes_pass(self):
        assert HostSpec(*map(np.int64, (4, 3, 12)), 0.25).N == 144
        cfg = EmbedConfig(epsilon=0.3, C=np.int64(6), master_attempts=np.int64(2))
        assert embed_subdivision(complete_graph(36), complete_graph(3), cfg).success


class TestAttemptCounts:
    """stage_attempts sums every draw of every master attempt, including
    the draws of attempts that fail."""

    def test_forced_block_partition_failure(self, monkeypatch):
        # K36 host, triangle pattern (C=6, d=2): the good partition and the
        # blocks of each group are accepted at their first draw.
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
        # python -O strips assert statements; the verification gate must
        # still stop the report
        out = embed_under_optimize(
            "real = embedder.verify_certificate\n"
            "def reject(*args, **kwargs):\n"
            "    vr = real(*args, **kwargs)\n"
            "    vr.checks.append(('forced-check', False, None))\n"
            "    return vr\n"
            "embedder.verify_certificate = reject")
        assert out.startswith("raised: ") and "forced-check" in out

    @pytest.mark.parametrize("stub, message", [
        ("embedder.check_template = lambda g, h, t: TemplateCheck(False, 'forced', 'w-7')",
         "template self-check failed: forced: w-7"),
        ("embedder.hamilton_path_between = lambda *a, **k: (None, {})",
         "no Hamilton path in block (0, 1)"),
    ], ids=["template-check", "hamilton-path"])
    def test_self_checks_raise_under_optimize(self, stub, message):
        # the template check and the Hamilton stage are explicit raises too,
        # so a failed one stops the run under python -O as it does without
        assert embed_under_optimize(stub) == f"raised: {message}\n"

    def test_counts_match_draws_near_the_cliff(self, monkeypatch):
        # a complete multipartite host at the degree bound (n=16, C=12,
        # eps=0.25, N=768): parts of 288, 288 and 192 vertices, so the
        # min degree is exactly 480 = ceil((1+eps)N/2). A block of 11
        # has inner degree >= tau*C = 5.25 only with at most 5 vertices of
        # each part, which a group of 48 with more than about 24 of one part
        # cannot give all its blocks, so each attempt exhausts the group
        # draws of some group, repairs included. Every draw derives its seed
        # through partition.spawn_seed with a stage tag (0x0A good
        # partition, 0x0B group draw), which is tallied here.
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
        assert rep.stage_attempts["block_levels"] >= 3 * 50


class TestSwapRepair:
    """A group draw that misses is repaired by swaps between a failing block
    and any other block of its group before another draw, which moves the
    eps=0.25 cliff past n=64 and embeds hosts at the degree bound."""

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

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_in_domain_instances_repair_non_sibling_pairs(self, monkeypatch, seed):
        # n=64 and d = 5 = ceil(ln 64), inside the paper's domain: some
        # accepted repair pairs two blocks that are not siblings in
        # interval_tree(5), whose only sibling blocks are {0, 1} and {3, 4},
        # a trade that recursive bisection could not make
        real = partition._swap_repair
        accepted = []

        def spy(rows, sides):
            out = real(rows, sides)
            if out is not None:  # None is no repair; a returned pair passes
                accepted.append({t[0][1] for t, _ in sides})
            return out

        monkeypatch.setattr(partition, "_swap_repair", spy)
        host = gen_dirac_host(HostSpec(64, 5, 12, 0.25, seed=seed))
        h = gen_random_regular(64, 5, seed=seed)
        rep = embed_subdivision(host, h, EmbedConfig(epsilon=0.25, C=12, seed=seed))
        assert rep.success and rep.master_attempts_used == 1
        assert verify_certificate(host, h, rep.certificate, require_spanning=True).ok
        siblings = [set(iv) for level in interval_tree(5).levels for iv in level
                    if len(iv) == 2]  # an interval of two splits into sibling blocks
        assert siblings == [{3, 4}, {0, 1}]
        assert any(pair not in siblings for pair in accepted)

    @pytest.mark.parametrize("seed", [1, 2, 4])
    def test_hosts_at_the_bound_embed(self, seed):
        # a complete multipartite host at the degree bound (n=16, d=4,
        # eps=0.25, C=24, N=1536), relabelled by the seed; with blocks
        # drawn by recursive bisection and repaired only in sibling pairs,
        # all five master attempts on these seeds fail in the block stage
        host = multipartite_at_bound(1536, 0.25, seed=seed)
        h = gen_random_regular(16, 4, seed=seed)
        rep = embed_subdivision(host, h, EmbedConfig(epsilon=0.25, C=24, seed=seed))
        assert rep.success and rep.master_attempts_used == 1
        assert verify_certificate(host, h, rep.certificate, require_spanning=True).ok

    def test_repaired_blocks_pass_the_template_check(self, monkeypatch):
        real = partition._swap_repair
        changed = []

        def spy(rows, sides):
            out = real(rows, sides)
            changed.append(out is not None and out != tuple(vs for _, vs in sides))
            return out

        monkeypatch.setattr(partition, "_swap_repair", spy)
        host = gen_dirac_host(HostSpec(48, 4, 12, 0.25, seed=0))
        h = gen_random_regular(48, 4, seed=0)
        t = build_template(host, h, EmbedConfig(epsilon=0.25, C=12, seed=0))
        assert sum(changed) > 0
        assert check_template(host, h, t).ok
