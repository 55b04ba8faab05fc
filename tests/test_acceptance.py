"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import time

import pytest

from dirac_subdiv import (EmbedConfig, block_partition, certificate_to_json,
                          complete_graph, degree_into, embed_subdivision,
                          brute_force_hamilton_path, gen_dirac_host,
                          gen_random_regular, gen_two_clique_extremal,
                          hamilton_path_between, HostSpec,
                          hypergeometric_tail_bound, interval_tree, min_degree,
                          verify_certificate, write_edge_list)
from dirac_subdiv.cli import SweepSpec, main, run_sweep
from dirac_subdiv.hampath import is_simple_path
from dirac_subdiv.rng import make_rng, spawn_seed

from support import certificate_mutations, random_gnp, valid_base_certificate


def verdict(num: int, ok: bool, text: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def theorem_instance_runs():
    """Criterion 1 workload: 20 seeded runs at (n=4, d=3, C=12, eps=0.25)."""
    t0 = time.perf_counter()
    runs = []
    for s in range(20):
        host = gen_dirac_host(HostSpec(n=4, d=3, C=12, epsilon=0.25, seed=1000 + s))
        h = complete_graph(4)
        rep = embed_subdivision(host, h, EmbedConfig(epsilon=0.25, C=12, seed=s))
        verified = False
        if rep.success:
            verified = verify_certificate(host, h, rep.certificate,
                                          require_spanning=True).ok
        runs.append((host, h, rep, verified))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def larger_instance_runs():
    """Criterion 2 workload: 10 seeded runs at (n=8, d=3, C=15, eps=0.2)."""
    t0 = time.perf_counter()
    runs = []
    for s in range(10):
        host = gen_dirac_host(HostSpec(n=8, d=3, C=15, epsilon=0.2, seed=2000 + s))
        h = gen_random_regular(8, 3, seed=3000 + s)
        rep = embed_subdivision(host, h, EmbedConfig(epsilon=0.2, C=15, seed=s))
        verified = False
        if rep.success:
            verified = verify_certificate(host, h, rep.certificate,
                                          require_spanning=True).ok
        runs.append((rep, verified))
    return runs, time.perf_counter() - t0


def test_criterion_1_end_to_end_theorem_instance(theorem_instance_runs):
    runs, elapsed = theorem_instance_runs
    successes = [r for _, _, r, _ in runs if r.success]
    rate = len(successes) / len(runs)
    all_verified = all(v for _, _, r, v in runs if r.success)
    ok = rate >= 0.90 and all_verified and elapsed < 60.0
    verdict(1, ok,
            f"N=144 h=K4: success rate {rate:.2f} (>=0.90), "
            f"all successes verified spanning: {all_verified}, "
            f"runtime {elapsed:.1f}s (<60s)")


def test_criterion_2_larger_instance(larger_instance_runs):
    runs, elapsed = larger_instance_runs
    rate = sum(1 for r, _ in runs if r.success) / len(runs)
    all_verified = all(v for r, v in runs if r.success)
    ok = rate >= 0.80 and all_verified and elapsed < 120.0
    verdict(2, ok,
            f"N=360 h random 3-regular: success rate {rate:.2f} (>=0.80), "
            f"verified: {all_verified}, runtime {elapsed:.1f}s (<120s)")


def test_criterion_3_two_clique_tightness(tmp_path):
    host = gen_two_clique_extremal(72)   # N=144 = 12*3*4, min degree 71 < 90
    h = complete_graph(4)
    host_file = str(tmp_path / "host.txt")
    patt_file = str(tmp_path / "patt.txt")
    write_edge_list(host, host_file)
    write_edge_list(h, patt_file)
    lib_failures = 0
    cli_exit_ones = 0
    for s in range(10):
        rep = embed_subdivision(host, h, EmbedConfig(epsilon=0.25, C=12, seed=s))
        lib_failures += int(not rep.success)
        rc = main(["embed", "--host", host_file, "--pattern", patt_file,
                   "--epsilon", "0.25", "--C", "12", "--seed", str(s)])
        cli_exit_ones += int(rc == 1)
    ok = lib_failures == 10 and cli_exit_ones == 10
    verdict(3, ok,
            f"two-clique host rejected: {lib_failures}/10 library failures, "
            f"{cli_exit_ones}/10 CLI exit code 1")


def test_criterion_4_hamilton_oracle_equivalence():
    rng = make_rng(spawn_seed(41, 0))
    graphs_checked = 0
    pair_checks = 0
    agree = True
    for k in range(500):
        n = 4 + k % 5
        p = (k % 11) / 10.0
        g = random_gnp(n, p, rng)
        graphs_checked += 1
        for x in range(n):
            for y in range(x + 1, n):
                got = hamilton_path_between(g, x, y)
                want = brute_force_hamilton_path(g, x, y)
                pair_checks += 1
                if (got is None) != (want is None):
                    agree = False
                if got is not None and not (
                        len(got) == n and got[0] == x and got[-1] == y
                        and is_simple_path(g, got)):
                    agree = False

    ore_graphs = 0
    ore_found = 0
    ore_total = 0
    while ore_graphs < 200:
        n = int(rng.integers(4, 13))
        g = random_gnp(n, 0.55 + 0.4 * float(rng.random()), rng)
        md = min_degree(g)
        if md is None or md < (n + 1) / 2:
            continue
        ore_graphs += 1
        for x in range(n):
            for y in range(x + 1, n):
                ore_total += 1
                p = hamilton_path_between(g, x, y)
                if p is not None and len(p) == n and is_simple_path(g, p):
                    ore_found += 1
    ok = agree and graphs_checked >= 500 and ore_graphs >= 200 \
        and ore_found == ore_total
    verdict(4, ok,
            f"{graphs_checked} graphs / {pair_checks} endpoint pairs agree "
            f"with brute force; dense batch {ore_found}/{ore_total} found "
            f"across {ore_graphs} graphs (must be 100%)")


def test_criterion_5_block_partition_identities():
    cells = 0
    random_cells = 0
    for C in range(8, 21):
        for d in range(1, 9):
            g = complete_graph(C * d)
            bp = block_partition(g, range(C * d), center=0,
                                 connectors=list(range(1, d + 1)),
                                 alpha=0.7, delta=0.2, seed=C * 100 + d)
            assert 1 + d + sum(len(b) for b in bp.blocks) == C * d
            assert 1 + d + (d - 1) * (C - 1) + (C - 2) == C * d
            _assert_block_postconditions(g, bp, tau=0.5, C=C)
            cells += 1
    # randomized hosts on a subgrid, threshold from a conservative alpha
    rng = make_rng(7)
    for C in (8, 12, 16, 20):
        for d in (2, 3, 5):
            g = random_gnp(C * d, 0.9, rng)
            frac = min_degree(g) / (C * d)
            if frac < 0.56:
                continue
            bp = block_partition(g, range(C * d), center=0,
                                 connectors=list(range(1, d + 1)),
                                 alpha=0.55, delta=0.05,
                                 level_budget=100, seed=C * 10 + d)
            assert 1 + d + sum(len(b) for b in bp.blocks) == C * d
            _assert_block_postconditions(g, bp, tau=0.5, C=C)
            random_cells += 1
    ok = cells == 13 * 8 and random_cells >= 8
    verdict(5, ok,
            f"size identity and degree postconditions hold on {cells} "
            f"complete cells (C in [8,20] x d in [1,8]) and "
            f"{random_cells} randomized cells")


def _assert_block_postconditions(g, bp, tau, C):
    for i, blk in enumerate(bp.blocks):
        bset = set(blk)
        assert degree_into(g, bp.center, bset) >= tau * len(blk) - 1e-9
        assert degree_into(g, bp.connectors[i], bset) >= tau * len(blk) - 1e-9
        for v in blk:
            assert degree_into(g, v, bset - {v}) >= tau * C - 1e-9


def test_criterion_6_interval_tree():
    for d in range(1, 65):
        t = interval_tree(d)
        leaves = [iv.start for iv in t.levels[-1]]
        assert leaves == list(range(d)), f"d={d} leaves wrong"
        assert all(len(iv) == 1 for iv in t.levels[-1])
        for lvl in t.levels:
            assert sum(len(iv) for iv in lvl) == d
        if t.s >= 1:
            assert all(len(iv) in (1, 2) for iv in t.levels[t.s - 1])
    verdict(6, True, "d in [1,64]: leaves enumerate [d] once, penultimate "
                     "interval sizes in {1,2}, level sums equal d")


def test_criterion_7_concentration_bound_sanity():
    cases = [(100, 10.0), (64, 16.0), (400, 40.0)]
    trials = 2000
    results = []
    ok = True
    for idx, (n, t) in enumerate(cases):
        rng = make_rng(spawn_seed(77, idx))
        # equipartition draw: population 2n, half marked, sample n
        draws = rng.hypergeometric(n, n, n, size=trials)
        mean = n / 2.0
        freq = float((abs(draws - mean) >= t).mean())
        bound = hypergeometric_tail_bound(n, t)
        results.append(f"(n={n},t={t:g}): freq {freq:.4f} <= "
                       f"bound {bound:.4f} + 0.02")
        if freq > bound + 0.02:
            ok = False
    verdict(7, ok, "; ".join(results))


def test_criterion_8_certificate_mutation_suite():
    host, pattern, base = valid_base_certificate()
    assert verify_certificate(host, pattern, base, require_spanning=True).ok
    lines = []
    ok = True
    for name, cert, entailed in certificate_mutations():
        rep = verify_certificate(host, pattern, cert, require_spanning=True)
        failed = set(rep.failed())
        flipped = name in failed and failed <= {name} | entailed
        ok = ok and flipped
        lines.append(f"{name}: {'flips' if flipped else 'WRONG'}")
    verdict(8, ok, "; ".join(lines))


def test_criterion_9_path_length_balance(theorem_instance_runs):
    runs, _ = theorem_instance_runs
    C = 12
    ok = True
    seen = set()
    for _, _, rep, _ in runs:
        if not rep.success:
            continue
        lengths = {len(p) - 1 for p in rep.certificate.edge_paths.values()}
        seen |= lengths
        if not lengths <= {2 * C - 1, 2 * C, 2 * C + 1}:
            ok = False
    # plus a second strict geometry for good measure
    g36 = complete_graph(36)
    rep36 = embed_subdivision(g36, complete_graph(3),
                              EmbedConfig(epsilon=0.3, C=6, seed=11))
    l36 = {len(p) - 1 for p in rep36.certificate.edge_paths.values()}
    ok = ok and l36 <= {11, 12, 13} and rep36.success
    verdict(9, ok,
            f"strict-mode edge lengths {sorted(seen)} within "
            f"{{2C-1, 2C, 2C+1}} = {{23,24,25}}; C=6 run within {{11,12,13}}")


def test_criterion_10_determinism(tmp_path):
    host = gen_dirac_host(HostSpec(n=4, d=3, C=12, epsilon=0.25, seed=1005))
    h = complete_graph(4)
    cfg = EmbedConfig(epsilon=0.25, C=12, seed=5)
    cert_a = embed_subdivision(host, h, cfg).certificate
    cert_b = embed_subdivision(host, h, cfg).certificate
    certs_equal = certificate_to_json(cert_a) == certificate_to_json(cert_b)

    spec = SweepSpec(kinds=("complete", "two-clique"), ns=(3,), ds=(2,),
                     Cs=(6,), epsilons=(0.4, 0.25), trials=2, seed_base=13)
    sweep_equal = run_sweep(spec).csv_text == run_sweep(spec).csv_text

    hosts_equal = (certificate_to_json(cert_a) ==
                   certificate_to_json(embed_subdivision(
                       gen_dirac_host(HostSpec(4, 3, 12, 0.25, seed=1005)),
                       h, cfg).certificate))
    ok = certs_equal and sweep_equal and hosts_equal
    verdict(10, ok,
            f"repeat embeds byte-identical: {certs_equal and hosts_equal}; "
            f"repeat sweep tables byte-identical: {sweep_equal}")
