"""Golden bytes: a seed must reproduce these documents exactly, release to
release. Each value is sha256(text)[:16] of the document as first written."""

import hashlib

from dirac_subdiv import (EmbedConfig, HostSpec, certificate_to_json,
                          complete_graph, embed_subdivision, format_edge_list,
                          gen_dirac_host, gen_random_regular, parse_edge_list)
from dirac_subdiv.cli import SweepSpec, run_sweep


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
    assert digest(certificate_to_json(report.certificate)) == "e96ec15a6c5acc7a"


def test_certificate_non_divisible_order():
    # N=40 is not a multiple of d*n=6: groups of 14, 13 and 13 vertices
    report = embed_subdivision(complete_graph(40), complete_graph(3),
                               EmbedConfig(0.3, C=6, seed=5))
    assert digest(certificate_to_json(report.certificate)) == "37cfbdb25ab8f8e4"


def test_pattern_edge_list():
    pattern = gen_random_regular(8, 3, seed=3000)
    assert digest(format_edge_list(pattern)) == "b325b887d1305cbf"


def test_sweep_csv():
    # the grid of acceptance criterion 10
    spec = SweepSpec(kinds=("complete", "two-clique"), ns=(3,), ds=(2,),
                     Cs=(6,), epsilons=(0.4, 0.25), trials=2, seed_base=13)
    assert digest(run_sweep(spec).csv_text) == "0571fb89f29ccace"
