"""Golden bytes: a seed must reproduce these documents exactly, release to
release. Each value is sha256(text)[:16] of the document as first written."""

import hashlib
import random

from dirac_subdiv import (EmbedConfig, HostSpec, PartitionError,
                          block_partition, certificate_to_json, complete_graph,
                          embed_subdivision, format_edge_list, gen_dirac_host,
                          gen_random_regular, good_partition, is_good_partition,
                          min_degree, parse_edge_list)
from dirac_subdiv.cli import SweepSpec, run_sweep

from support import cycle_graph, random_gnp


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_host_edge_list():
    host = gen_dirac_host(HostSpec(4, 3, 12, 0.25, seed=1005))
    assert digest(format_edge_list(host)) == "9eef05dc0061380e"


def test_dense_host_round_trip():
    # the cli-pipeline's largest host: N=480, every id width up to three digits
    host = gen_dirac_host(HostSpec(10, 4, 12, 0.25, seed=5))
    text = format_edge_list(host)
    assert digest(text) == "ad93117fc3f9e9ee"
    assert parse_edge_list(text) == host


def test_certificate():
    host = gen_dirac_host(HostSpec(4, 3, 12, 0.25, seed=1005))
    report = embed_subdivision(host, complete_graph(4),
                               EmbedConfig(0.25, C=12, seed=5))
    assert digest(certificate_to_json(report.certificate)) == "3ba92f98bfa71821"


def test_certificate_non_divisible_order():
    # N=40 is not a multiple of d*n=6: groups of 14, 13 and 13 vertices
    report = embed_subdivision(complete_graph(40), complete_graph(3),
                               EmbedConfig(0.3, C=6, seed=5))
    assert digest(certificate_to_json(report.certificate)) == "37cfbdb25ab8f8e4"


def test_block_partition_outcomes():
    # G(N, 0.8) groups at tau = 7/16 for d = 1..8, C = 12 and 16, and
    # remainders 0 and d-1: blocks and group draws of every success, and
    # message, draws, level and violation of every PartitionError. Every
    # group with d >= 2 is accepted at its first draw, repairs included;
    # five d = 1 pools fail their single draw at level 1.
    outcomes = []
    for C in (12, 16):
        for d in range(1, 9):
            for rem in sorted({0, d - 1}):
                for seed in range(3):
                    N = C * d + rem
                    g = random_gnp(N, 0.8, random.Random(1000 * d + 10 * rem + seed))
                    alpha = min_degree(g) / N
                    try:
                        bp = block_partition(g, range(N), 0, list(range(1, d + 1)),
                                             alpha=alpha, delta=alpha - 0.4375,
                                             level_budget=4, seed=seed)
                        outcomes.append((bp.blocks, bp.attempts))
                    except PartitionError as err:
                        outcomes.append((str(err), err.attempts, err.level,
                                         err.violation))
    assert digest(repr(outcomes)) == "15d0b0800eb46b87"


def test_good_partition_outcomes():
    # G(N, 0.8) hosts for K2, K3 and C4 patterns, N = 24 and 37 (unequal
    # parts), at thresholds 0.75 and 0.9 of the host's min-degree ratio with
    # a budget of 3: parts and draws of every success, message, draws and
    # worst violation of every PartitionError (the grid exhausts budgets on
    # both part-degree and pair-degree), and the full check of one
    # independent equitable split of each host, min slack included
    outcomes = []
    for h in (complete_graph(2), complete_graph(3), cycle_graph(4)):
        for N in (24, 37):
            for seed in range(3):
                rng = random.Random(100 * N + 10 * h.n + seed)
                g = random_gnp(N, 0.8, rng)
                alpha = min_degree(g) / N
                perm = rng.sample(range(N), N)
                ends = [i * (N // h.n) + min(i, N % h.n) for i in range(h.n + 1)]
                split = [perm[a:b] for a, b in zip(ends, ends[1:])]
                for tau in (0.75 * alpha, 0.9 * alpha):
                    try:
                        gp = good_partition(g, h, alpha=alpha, delta=alpha - tau,
                                            budget=3, seed=seed)
                        outcomes.append((gp.parts, gp.attempts))
                    except PartitionError as err:
                        outcomes.append((str(err), err.attempts, err.violation))
                    outcomes.append(is_good_partition(g, h, split, tau))
    assert digest(repr(outcomes)) == "94280ababf034de6"


def test_pattern_edge_list():
    pattern = gen_random_regular(8, 3, seed=3000)
    assert digest(format_edge_list(pattern)) == "9f8d5eafe6e18dfc"


def test_sweep_csv():
    # the grid of acceptance criterion 10
    spec = SweepSpec(kinds=("complete", "two-clique"), ns=(3,), ds=(2,),
                     Cs=(6,), epsilons=(0.4, 0.25), trials=2, seed_base=13)
    assert digest(run_sweep(spec).csv_text) == "0571fb89f29ccace"
