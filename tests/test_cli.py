import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dirac_subdiv import (Graph, SubdivisionCertificate, certificate_from_json,
                          certificate_to_json, complete_graph, format_edge_list,
                          min_degree, parse_edge_list, read_certificate,
                          read_edge_list, verify_certificate, write_edge_list)
from dirac_subdiv import cli
from dirac_subdiv.cli import SweepSpec, main, run_sweep


def write_instance(tmp_path, name, g):
    path = tmp_path / name
    write_edge_list(g, path)
    return str(path)


class TestGen:
    def test_complete_to_stdout(self, capsys):
        assert main(["gen", "--kind", "complete", "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert out == format_edge_list(complete_graph(5))

    def test_stdout_streams_every_row_block(self, capsysbinary, tmp_path):
        # 600 rows of 600 cells are two row blocks of the writer
        out = str(tmp_path / "k600.txt")
        assert main(["gen", "--kind", "complete", "--n", "600", "--out", out]) == 0
        assert main(["gen", "--kind", "complete", "--n", "600"]) == 0
        assert capsysbinary.readouterr().out == Path(out).read_bytes()

    def test_two_clique_file(self, tmp_path):
        out = str(tmp_path / "tc.txt")
        assert main(["gen", "--kind", "two-clique", "--n", "4", "--out", out]) == 0
        g = read_edge_list(out)
        assert g.n == 8 and min_degree(g) == 3

    def test_regular(self, tmp_path):
        out = str(tmp_path / "reg.txt")
        assert main(["gen", "--kind", "regular", "--n", "8", "--d", "3",
                     "--seed", "4", "--out", out]) == 0
        g = read_edge_list(out)
        assert all(g.degree(v) == 3 for v in range(8))

    def test_dirac_host(self, tmp_path):
        out = str(tmp_path / "host.txt")
        assert main(["gen", "--kind", "dirac", "--n", "2", "--d", "1",
                     "--C", "6", "--epsilon", "0.3", "--seed", "1",
                     "--out", out]) == 0
        g = read_edge_list(out)
        assert g.n == 12 and min_degree(g) >= 8

    def test_byte_identical_reruns(self, tmp_path):
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        args = ["gen", "--kind", "regular", "--n", "10", "--d", "3",
                "--seed", "9"]
        assert main(args + ["--out", a]) == 0
        assert main(args + ["--out", b]) == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_dot_export(self, tmp_path):
        dot = str(tmp_path / "g.dot")
        assert main(["gen", "--kind", "complete", "--n", "3",
                     "--out", str(tmp_path / "g.txt"), "--dot", dot]) == 0
        assert "0 -- 1;" in Path(dot).read_text()

    def test_missing_params_usage_error(self):
        assert main(["gen", "--kind", "dirac", "--n", "4"]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["--kind", "complete"], "gen --kind complete requires --n"),
        (["--kind", "two-clique"], "gen --kind two-clique requires --n"),
        (["--kind", "regular", "--n", "8"], "gen --kind regular requires --n --d"),
        (["--kind", "dirac", "--n", "4"], "gen --kind dirac requires --n --d --C --epsilon"),
    ], ids=["complete", "two-clique", "regular", "dirac"])
    def test_missing_params_per_kind_usage_error(self, capsys, argv, message):
        assert main(["gen", *argv]) == 2
        assert capsys.readouterr().err == message + "\n"

    def test_text_only_stdout(self):
        # a stream without a byte buffer, as io.StringIO, takes the document as text
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["gen", "--kind", "complete", "--n", "3"]) == 0
        assert out.getvalue() == "3 3\n0 1\n0 2\n1 2\n"

    @pytest.mark.parametrize("argv, message", [
        (["--kind", "regular", "--n", "4", "--d", "0"],
         "pattern regularity d must satisfy 1 <= d < n"),
        (["--kind", "regular", "--n", "1", "--d", "0"],
         "pattern vertex count n must be >= 2"),
        (["--kind", "dirac", "--n", "4", "--d", "0", "--C", "12", "--epsilon", "0.25"],
         "pattern regularity d must satisfy 1 <= d < n"),
        (["--kind", "dirac", "--n", "5", "--d", "3", "--C", "12", "--epsilon", "0.25"],
         "n*d must be even for a d-regular graph to exist"),
        # a cell that sweep rejects: no block split at C=4 meets tau*C
        (["--kind", "dirac", "--n", "4", "--d", "3", "--C", "4", "--epsilon", "0.25"],
         "blow-up constant C=4 is infeasible at block threshold 0.4375: the last "
         "block's C-2 vertices have inner degree at most C-3 < 0.4375*C; the "
         "smallest feasible C is 6"),
    ], ids=["regular-d0", "regular-n1", "dirac-d0", "dirac-odd", "dirac-infeasible-C"])
    def test_pattern_outside_embed_domain_usage_error(self, capsys, argv, message):
        # gen writes no instance that embed would reject, and warns about none
        assert main(["gen", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    def test_small_d_warning(self, tmp_path, capsys):
        assert main(["gen", "--kind", "regular", "--n", "30", "--d", "1",
                     "--out", str(tmp_path / "m.txt")]) == 0
        assert "warning" in capsys.readouterr().err

    def test_infeasible_dirac_bound_usage_error(self, capsys):
        # the bound ceil(1.99 * 144 / 2) = 144 is above every degree of K_144
        assert main(["gen", "--kind", "dirac", "--n", "4", "--d", "3",
                     "--C", "12", "--epsilon", "0.99"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: G(144,1.0000) sample has min degree 143")

    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 9.31 GiB for an array", "Unable to allocate 9.31 GiB"),
        ("", "MemoryError"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_usage_error(self, capsys, monkeypatch, message, shown):
        # exit 1 means a verified failure; running out of memory is not one
        import dirac_subdiv.cli as cli

        def refuse(n):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "complete_graph", refuse)
        assert main(["gen", "--kind", "complete", "--n", "100000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {shown}") and "Traceback" not in err


class TestEmbedVerify:
    def test_end_to_end(self, tmp_path, capsys):
        host = write_instance(tmp_path, "host.txt", complete_graph(36))
        patt = write_instance(tmp_path, "patt.txt", complete_graph(3))
        cert = str(tmp_path / "cert.json")
        rc = main(["embed", "--host", host, "--pattern", patt,
                   "--epsilon", "0.3", "--C", "6", "--seed", "2",
                   "--out", cert])
        assert rc == 0
        assert "success" in capsys.readouterr().err
        rc = main(["verify", "--host", host, "--pattern", patt,
                   "--cert", cert, "--spanning"])
        assert rc == 0
        loaded = read_certificate(cert)
        assert verify_certificate(read_edge_list(host), complete_graph(3),
                                  loaded).ok

    def test_seeds_wrap_at_two_to_the_64(self, tmp_path):
        # spawn_seed takes every seed mod 2**64, so -1 and 2**64 - 1 are one seed
        host = write_instance(tmp_path, "host.txt", complete_graph(36))
        patt = write_instance(tmp_path, "patt.txt", complete_graph(3))
        written = []
        for seed in ("-1", str(2 ** 64 - 1), "0"):
            cert = tmp_path / f"cert{seed}.json"
            assert main(["embed", "--host", host, "--pattern", patt, "--epsilon", "0.25",
                         "--C", "6", "--seed", seed, "--out", str(cert)]) == 0
            written.append(cert.read_bytes())
        assert written[0] == written[1] != written[2]

    def test_embed_and_verify_print_one_length_line(self, tmp_path, capsys):
        host = write_instance(tmp_path, "host.txt", complete_graph(36))
        patt = write_instance(tmp_path, "patt.txt", complete_graph(3))
        cert = str(tmp_path / "cert.json")
        assert main(["embed", "--host", host, "--pattern", patt, "--epsilon", "0.3",
                     "--C", "6", "--seed", "2", "--out", cert]) == 0
        embedded = [ln.strip() for ln in capsys.readouterr().err.splitlines()
                    if "path edge-lengths:" in ln]
        assert main(["verify", "--host", host, "--pattern", patt, "--cert", cert]) == 0
        verified = [ln for ln in capsys.readouterr().out.splitlines()
                    if "path edge-lengths:" in ln]
        stats = verify_certificate(complete_graph(36), complete_graph(3),
                                   read_certificate(cert)).length_stats
        assert embedded == verified == [
            f"path edge-lengths: min={stats.min} max={stats.max} "
            f"mean={stats.mean:.3f} multiset={stats.multiset}"]

    def test_embed_to_stdout(self, tmp_path, capsys):
        host = write_instance(tmp_path, "host.txt", complete_graph(36))
        rc = main(["embed", "--host", host,
                   "--pattern", write_instance(tmp_path, "patt.txt", complete_graph(3)),
                   "--epsilon", "0.3", "--C", "6", "--seed", "2"])
        assert rc == 0
        cert = certificate_from_json(capsys.readouterr().out)
        assert verify_certificate(complete_graph(36), complete_graph(3), cert,
                                  require_spanning=True).ok

    def test_non_regular_pattern_usage_error(self, tmp_path, capsys):
        host = write_instance(tmp_path, "host.txt", complete_graph(36))
        patt = write_instance(tmp_path, "patt.txt", Graph(3, [(0, 1), (1, 2)]))
        rc = main(["embed", "--host", host, "--pattern", patt,
                   "--epsilon", "0.3", "--C", "6"])
        assert rc == 2
        assert "error: graph is not regular" in capsys.readouterr().err

    def test_edgeless_pattern_usage_error_without_warning(self, tmp_path, capsys):
        # a 0-regular pattern is rejected, so no small-d warning precedes it
        host = write_instance(tmp_path, "host.txt", complete_graph(36))
        patt = write_instance(tmp_path, "patt.txt", Graph(4))
        rc = main(["embed", "--host", host, "--pattern", patt,
                   "--epsilon", "0.3", "--C", "6"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: pattern regularity d must satisfy 1 <= d < n" in err
        assert "warning" not in err

    def test_embed_failure_exits_one(self, tmp_path, capsys):
        from dirac_subdiv import gen_two_clique_extremal
        host = write_instance(tmp_path, "tc.txt", gen_two_clique_extremal(18))
        patt = write_instance(tmp_path, "patt.txt", complete_graph(3))
        rc = main(["embed", "--host", host, "--pattern", patt,
                   "--epsilon", "0.3", "--C", "6", "--seed", "2"])
        assert rc == 1
        assert "precondition" in capsys.readouterr().err

    def test_verify_rejects_tampered_cert(self, tmp_path):
        from dirac_subdiv import write_certificate
        host = write_instance(tmp_path, "host.txt", complete_graph(36))
        patt = write_instance(tmp_path, "patt.txt", complete_graph(3))
        cert = str(tmp_path / "cert.json")
        assert main(["embed", "--host", host, "--pattern", patt,
                     "--epsilon", "0.3", "--C", "6", "--seed", "2",
                     "--out", cert]) == 0
        doc = read_certificate(cert)
        # drop one interior vertex from one path
        key = min(doc.edge_paths)
        p = doc.edge_paths[key]
        doc.edge_paths[key] = p[:1] + p[2:]
        write_certificate(doc, cert)
        assert main(["verify", "--host", host, "--pattern", patt,
                     "--cert", cert, "--spanning"]) == 1

    def test_embed_non_divisible_order(self, tmp_path):
        # N=40 lies in [C*d*n, (C+1)*d*n) = [36, 42) for K3 at C=6
        host = write_instance(tmp_path, "host.txt", complete_graph(40))
        patt = write_instance(tmp_path, "patt.txt", complete_graph(3))
        cert = str(tmp_path / "cert.json")
        assert main(["embed", "--host", host, "--pattern", patt,
                     "--epsilon", "0.3", "--seed", "2", "--out", cert]) == 0
        assert main(["verify", "--host", host, "--pattern", patt,
                     "--cert", cert, "--spanning"]) == 0

    def test_order_above_window_usage_error(self, tmp_path, capsys):
        host = write_instance(tmp_path, "host.txt", complete_graph(42))
        patt = write_instance(tmp_path, "patt.txt", complete_graph(3))
        rc = main(["embed", "--host", host, "--pattern", patt,
                   "--epsilon", "0.3", "--C", "6"])
        assert rc == 2
        assert "error: host order 42" in capsys.readouterr().err

    @pytest.mark.parametrize("mangle, named", [
        (lambda doc: {k: v for k, v in doc.items() if k != "edge_paths"}, ""),
        (lambda doc: [doc], ""),
        (lambda doc: {**doc, "branch_map": [None, *doc["branch_map"][1:]]}, ""),
        (lambda doc: {**doc, "edge_paths": [{"edge": p["edge"]}
                                            for p in doc["edge_paths"]]}, ""),
        (lambda doc: {**doc, "edge_paths": [[0, 1]]}, ""),
        (lambda doc: {**doc, "edge_paths": [{"edge": [0, 1, 2], "vertices": [0, 3, 1]}]},
         "certificate edge entry [0, 1, 2] is not a pair"),
        (lambda doc: {**doc, "edge_paths": [{"edge": [0], "vertices": [0, 3, 1]}]},
         "certificate edge entry [0] is not a pair"),
    ], ids=["no-edge-paths", "top-level-list", "null-branch", "no-vertices",
            "entry-not-object", "edge-triple", "edge-single"])
    def test_malformed_certificate_usage_error(self, tmp_path, capsys, mangle, named):
        pattern = complete_graph(2)
        host = write_instance(tmp_path, "host.txt", complete_graph(4))
        patt = write_instance(tmp_path, "patt.txt", pattern)
        good = SubdivisionCertificate(4, pattern, (0, 3), {(0, 1): (0, 1, 2, 3)})
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(mangle(json.loads(certificate_to_json(good)))))
        rc = main(["verify", "--host", host, "--pattern", patt,
                   "--cert", str(cert)])
        assert rc == 2
        assert "error: " + named in capsys.readouterr().err

    # each of these verified (or failed verification) before: the parser
    # coerced the value instead of rejecting it
    @pytest.mark.parametrize("field, value", [
        ("pattern_edges", ["01", "02", "12"]),
        ("pattern_edges", [[0, 1], [0, 2], [1, 2.0]]),
        ("pattern_vertex_count", "3"),
        ("host_vertex_count", 6.9),
        ("host_vertex_count", True),
        ("branch_map", "012"),
        ("branch_map", [0, 1, False]),
        ("edge_paths", [{"edge": "01", "vertices": [0, 3, 1]},
                        {"edge": [0, 2], "vertices": [0, 4, 2]},
                        {"edge": [1, 2], "vertices": [1, 5, 2]}]),
        ("edge_paths", [{"edge": [0, 1], "vertices": "031"},
                        {"edge": [0, 2], "vertices": [0, 4, 2]},
                        {"edge": [1, 2], "vertices": [1, 5, 2]}]),
        ("version", True),
    ], ids=["edge-strings", "edge-float", "count-string", "host-float",
            "host-bool", "branch-string", "branch-bool", "edge-string",
            "vertices-string", "version-bool"])
    def test_wrong_json_type_usage_error(self, tmp_path, capsys, field, value):
        pattern = complete_graph(3)
        host = write_instance(tmp_path, "host.txt", complete_graph(6))
        patt = write_instance(tmp_path, "patt.txt", pattern)
        good = SubdivisionCertificate(
            6, pattern, (0, 1, 2), {(0, 1): (0, 3, 1), (0, 2): (0, 4, 2),
                                    (1, 2): (1, 5, 2)})
        cert = tmp_path / "cert.json"
        cert.write_text(certificate_to_json(good))
        argv = ["verify", "--host", host, "--pattern", patt, "--cert", str(cert),
                "--spanning"]
        assert main(argv) == 0
        capsys.readouterr()
        cert.write_text(json.dumps({**json.loads(certificate_to_json(good)),
                                    field: value}))
        with pytest.raises(ValueError):
            certificate_from_json(cert.read_text())
        assert main(argv) == 2
        assert "error: " in capsys.readouterr().err

    # each of these verified before: the parser kept the last of two entries,
    # so the bogus first one was never checked, or collapsed a repeated
    # pattern edge
    @pytest.mark.parametrize("repeat, message", [
        (lambda doc: json.dumps({**doc, "edge_paths": [
            {"edge": [0, 1], "vertices": [0, 1]}, *doc["edge_paths"]]}),
         "lists the edge [0, 1] twice"),
        (lambda doc: '{"branch_map": [5, 5, 5], ' + json.dumps(doc)[1:],
         "repeats the key 'branch_map'"),
        (lambda doc: json.dumps({**doc, "pattern_edges": [*doc["pattern_edges"], [1, 0]]}),
         "lists the pattern edge [0, 1] twice"),
    ], ids=["edge-twice", "key-twice", "pattern-edge-twice"])
    def test_repeated_entry_usage_error(self, tmp_path, capsys, repeat, message):
        pattern = complete_graph(3)
        host = write_instance(tmp_path, "host.txt", complete_graph(6))
        patt = write_instance(tmp_path, "patt.txt", pattern)
        good = SubdivisionCertificate(
            6, pattern, (0, 1, 2), {(0, 1): (0, 3, 1), (0, 2): (0, 4, 2),
                                    (1, 2): (1, 5, 2)})
        cert = tmp_path / "cert.json"
        cert.write_text(repeat(json.loads(certificate_to_json(good))))
        with pytest.raises(ValueError, match=re.escape(message)):
            certificate_from_json(cert.read_text())
        assert main(["verify", "--host", host, "--pattern", patt,
                     "--cert", str(cert), "--spanning"]) == 2
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("text, detail", [
        ("", "Expecting value: line 1 column 1 (char 0)"),
        ('{"format": ', "Expecting value: line 1 column 12 (char 11)"),
    ], ids=["empty", "truncated"])
    def test_not_json_certificate_usage_error(self, tmp_path, capsys, text, detail):
        # the decoder's message alone named no certificate
        host = write_instance(tmp_path, "host.txt", complete_graph(4))
        patt = write_instance(tmp_path, "patt.txt", complete_graph(2))
        cert = tmp_path / "cert.json"
        cert.write_text(text)
        assert main(["verify", "--host", host, "--pattern", patt,
                     "--cert", str(cert)]) == 2
        assert capsys.readouterr().err == f"error: certificate is not JSON: {detail}\n"

    @pytest.mark.parametrize("text", ["[" * 100000, '{"a": ' * 100000],
                             ids=["array", "object"])
    def test_deep_nesting_usage_error(self, tmp_path, capsys, text):
        # json.loads raised RecursionError here, a traceback and exit 1
        host = write_instance(tmp_path, "host.txt", complete_graph(4))
        patt = write_instance(tmp_path, "patt.txt", complete_graph(2))
        cert = tmp_path / "cert.json"
        cert.write_text(text)
        with pytest.raises(ValueError, match="nests too deeply"):
            certificate_from_json(text)
        assert main(["verify", "--host", host, "--pattern", patt,
                     "--cert", str(cert)]) == 2
        assert "error: certificate nests too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize("C, epsilon", [(4, "0.1"), (5, "0.1")])
    def test_infeasible_blowup_usage_error(self, tmp_path, capsys, monkeypatch,
                                           C, epsilon):
        # the last block's C-2 vertices have inner degree <= C-3 < tau*C with
        # tau = 1/2 - eps/4, so even a complete host failed every draw
        from dirac_subdiv import partition

        def no_draw(seed):
            raise AssertionError("drew a partition")

        monkeypatch.setattr(partition, "make_rng", no_draw)
        host = write_instance(tmp_path, "host.txt", complete_graph(6 * C))
        patt = write_instance(tmp_path, "patt.txt", complete_graph(3))
        rc = main(["embed", "--host", host, "--pattern", patt,
                   "--epsilon", epsilon, "--C", str(C)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: blow-up constant C={C} is infeasible" in err
        assert "the smallest feasible C is 6" in err

    def test_smallest_blowup_at_large_epsilon(self, tmp_path):
        # at eps = 0.5, tau = 3/8 and C = 5 meets C-3 >= tau*C
        host = write_instance(tmp_path, "host.txt", complete_graph(30))
        patt = write_instance(tmp_path, "patt.txt", complete_graph(3))
        cert = str(tmp_path / "cert.json")
        assert main(["embed", "--host", host, "--pattern", patt,
                     "--epsilon", "0.5", "--C", "5", "--out", cert]) == 0
        assert main(["verify", "--host", host, "--pattern", patt,
                     "--cert", cert, "--spanning"]) == 0

    @pytest.mark.parametrize("n", [10 ** 20, 2 ** 62])
    def test_huge_vertex_count_usage_error(self, tmp_path, capsys, n):
        pattern = complete_graph(2)
        host = write_instance(tmp_path, "host.txt", complete_graph(4))
        patt = write_instance(tmp_path, "patt.txt", pattern)
        good = SubdivisionCertificate(4, pattern, (0, 3), {(0, 1): (0, 1, 2, 3)})
        cert = tmp_path / "cert.json"
        cert.write_text(certificate_to_json(good))
        huge = tmp_path / "huge.txt"
        huge.write_text(f"{n} 0\n")
        huge_cert = tmp_path / "huge.json"
        doc = {**json.loads(certificate_to_json(good)), "pattern_vertex_count": n}
        huge_cert.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="too large"):
            certificate_from_json(huge_cert.read_text())
        for argv in (["--host", str(huge), "--pattern", patt, "--cert", str(cert)],
                     ["--host", host, "--pattern", patt, "--cert", str(huge_cert)]):
            assert main(["verify", *argv]) == 2
            assert f"error: vertex count {n} is too large" in capsys.readouterr().err

    def test_missing_file_usage_error(self, tmp_path, capsys):
        patt = write_instance(tmp_path, "patt.txt", complete_graph(3))
        rc = main(["embed", "--host", str(tmp_path / "nope.txt"),
                   "--pattern", patt, "--epsilon", "0.3"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["2 1\n0 0\n", "3 1\n1 0\n",
                                      "3 1\n-1 2\n", "3 1\n0 3\n",
                                      "3 1\n0 1 2\n", "3 2\n0 1\n",
                                      "3 3\n0 1\n0 2\n0 1\n", "3\n", ""])
    def test_malformed_host_usage_error(self, tmp_path, capsys, text):
        with pytest.raises(ValueError) as info:
            parse_edge_list(text)
        host = tmp_path / "host.txt"
        host.write_text(text)
        patt = write_instance(tmp_path, "patt.txt", complete_graph(3))
        rc = main(["embed", "--host", str(host), "--pattern", patt,
                   "--epsilon", "0.3"])
        assert rc == 2
        assert f"error: {info.value}" in capsys.readouterr().err

    def test_non_ascii_host_names_the_line(self, tmp_path, capsys):
        host = tmp_path / "host.txt"
        host.write_bytes("3 1\n0 1\u00e9\n".encode("utf-8"))
        patt = write_instance(tmp_path, "patt.txt", complete_graph(3))
        rc = main(["embed", "--host", str(host), "--pattern", patt,
                   "--epsilon", "0.3"])
        assert rc == 2
        assert "malformed edge line" in capsys.readouterr().err

    def test_unknown_subcommand_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag_usage_error(self, capsys):
        assert main(["gen", "--kind", "complete", "--n", "3",
                     "--wibble"]) == 2


class TestSweep:
    def test_complete_host_cell(self):
        spec = SweepSpec(kinds=("complete",), ns=(3,), ds=(2,), Cs=(6,),
                         epsilons=(0.3,), trials=5, seed_base=0)
        result = run_sweep(spec)
        assert len(result.rows) == 1
        assert result.rows[0]["success_rate"] == 1.0

    def test_two_clique_row_never_succeeds(self):
        spec = SweepSpec(kinds=("two-clique",), ns=(3,), ds=(2,), Cs=(6,),
                         epsilons=(0.3,), trials=3, seed_base=0)
        result = run_sweep(spec)
        assert result.rows[0]["success_rate"] == 0.0

    def test_csv_deterministic(self):
        spec = SweepSpec(kinds=("complete", "two-clique"), ns=(3,), ds=(2,),
                         Cs=(6,), epsilons=(0.4, 0.2), trials=2, seed_base=7)
        a = run_sweep(spec)
        b = run_sweep(spec)
        assert a.csv_text == b.csv_text
        assert "mean_wall_ms" not in a.csv_text
        assert "success_rate" in a.csv_text.splitlines()[0]

    def test_timings_column_optional(self):
        spec = SweepSpec(kinds=("complete",), ns=(3,), ds=(2,), Cs=(6,),
                         epsilons=(0.3,), trials=1, seed_base=0,
                         include_timings=True)
        assert "mean_wall_ms" in run_sweep(spec).csv_text

    def test_grid_validation(self):
        # every cell error names the cell
        with pytest.raises(ValueError, match=re.escape(
                "cell (n=3, d=3, C=6, epsilon=0.3): pattern regularity d must satisfy 1 <= d < n")):
            SweepSpec(kinds=("complete",), ns=(3,), ds=(3,), Cs=(6,),
                      epsilons=(0.3,), trials=1)
        with pytest.raises(ValueError, match=re.escape(
                "cell (n=5, d=3, C=6, epsilon=0.3): n*d must be even for a d-regular graph to exist")):
            SweepSpec(kinds=("complete",), ns=(5,), ds=(3,), Cs=(6,),
                      epsilons=(0.3,), trials=1)
        with pytest.raises(ValueError):
            SweepSpec(kinds=("weird",), ns=(3,), ds=(2,), Cs=(6,),
                      epsilons=(0.3,), trials=1)
        with pytest.raises(ValueError, match="empty sweep grid axis ns"):
            SweepSpec(kinds=("complete",), ns=(), ds=(2,), Cs=(6,),
                      epsilons=(0.3,), trials=1)
        with pytest.raises(ValueError, match="empty sweep grid axis kinds"):
            SweepSpec(kinds=(), ns=(3,), ds=(2,), Cs=(6,),
                      epsilons=(0.3,), trials=1)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            SweepSpec(kinds=("complete",), ns=(3,), ds=(2,), Cs=(6,),
                      epsilons=(0.3,), trials=0)
        with pytest.raises(ValueError, match=re.escape(
                "cell (n=3, d=2, C=6, epsilon=1.0): epsilon must lie in (0, 1)")):
            SweepSpec(kinds=("complete",), ns=(3,), ds=(2,), Cs=(6,),
                      epsilons=(0.3, 1.0), trials=1)
        # a grid with an empty axis has no cells: a usage error, not an empty CSV
        assert main(["sweep", "--host-kind", "complete", "--n", "", "--d", "2",
                     "--C", "6", "--epsilon", "0.3"]) == 2

    def test_infeasible_blowup_rejected(self):
        with pytest.raises(ValueError, match="smallest feasible C is 6"):
            SweepSpec(kinds=("complete",), ns=(3,), ds=(2,), Cs=(5,),
                      epsilons=(0.5, 0.1), trials=1)
        SweepSpec(kinds=("complete",), ns=(3,), ds=(2,), Cs=(5,),
                  epsilons=(0.5,), trials=1)

    def test_cli_sweep_writes_csv(self, tmp_path, capsys):
        out = str(tmp_path / "sweep.csv")
        rc = main(["sweep", "--host-kind", "complete", "--n", "3", "--d", "2",
                   "--C", "6", "--epsilon", "0.3", "--trials", "2",
                   "--seed", "1", "--out", out])
        assert rc == 0
        lines = Path(out).read_text().splitlines()
        assert len(lines) == 2
        err = capsys.readouterr().err
        assert "success_rate" in err  # aligned table on stderr

    def test_cli_sweep_to_stdout(self, capsys):
        argv = ["sweep", "--host-kind", "complete", "--n", "3", "--d", "2",
                "--C", "6", "--epsilon", "0.3", "--trials", "2", "--seed", "1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        spec = SweepSpec(kinds=("complete",), ns=(3,), ds=(2,), Cs=(6,),
                         epsilons=(0.3,), trials=2, seed_base=1)
        assert out == run_sweep(spec).csv_text

    def test_epsilon_descending_rates_recorded_not_asserted(self):
        spec = SweepSpec(kinds=("dirac",), ns=(4,), ds=(3,), Cs=(12,),
                         epsilons=(0.4, 0.2, 0.1, 0.05), trials=2, seed_base=5)
        result = run_sweep(spec)
        assert len(result.rows) == 4
        rates = [r["success_rate"] for r in result.rows]
        assert all(0.0 <= r <= 1.0 for r in rates)
        # monotonicity in epsilon is only flagged, never a failure
        assert all(n.startswith("note:") for n in result.notes)

    def test_errored_cells_give_no_note(self, capsys):
        # no host meets the degree bound at epsilon=0.99: that cell has
        # errors, not a success rate to compare
        assert main(["sweep", "--n", "3", "--d", "2", "--C", "6", "--epsilon",
                     "0.99,0.5", "--trials", "2", "--seed", "1"]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[1].split(",")[8] == "2"  # the errors column
        assert "note:" not in err

    @pytest.mark.parametrize("kind, builder, arg", [
        # the one trial of cell 0 at seed base 0
        ("dirac", "gen_dirac_host", cli.HostSpec(3, 2, 6, 0.4, cli.spawn_seed(0, 0, 0))),
        ("complete", "complete_graph", 36),
        ("two-clique", "gen_two_clique_extremal", 18),
    ])
    def test_host_kinds_read_their_builder_at_call_time(self, monkeypatch, kind, builder, arg):
        # a replaced cli.<builder> sees the sweep's call, as the bench tracer needs
        seen = []

        def stub(x):
            seen.append(x)
            raise cli.GenerationError("stub host")
        monkeypatch.setattr(cli, builder, stub)
        spec = SweepSpec(kinds=(kind,), ns=(3,), ds=(2,), Cs=(6,), epsilons=(0.4,), trials=1)
        assert run_sweep(spec).rows[0]["errors"] == 1
        assert seen == [arg]

    def test_non_monotone_rates_give_a_note(self, monkeypatch, capsys):
        def trial(kind, n, d, C, eps, seed):
            return {"ok": eps < 0.4, "master": 1, "good_partition": 1,
                    "block_levels": 1, "wall_s": 0.0, "error": None}
        monkeypatch.setattr(cli, "_sweep_trial", trial)
        spec = SweepSpec(kinds=("complete",), ns=(3,), ds=(2,), Cs=(6,),
                         epsilons=(0.5, 0.3), trials=2)
        note = ("note: success rate not monotone in epsilon for kind=complete n=3 "
                "d=2 C=6 (statistical fluctuation is expected at small trial counts)")
        assert run_sweep(spec).notes == [note]
        # the sweep command prints the note on stderr, after the table
        assert main(["sweep", "--host-kind", "complete", "--n", "3", "--d", "2",
                     "--C", "6", "--epsilon", "0.5,0.3", "--trials", "2"]) == 0
        out, err = capsys.readouterr()
        assert err.endswith(note + "\n") and "note:" not in out

    def test_table_and_csv_are_pinned(self, tmp_path, monkeypatch, capsys):
        # fixed trial outcomes and zero wall times make every rendering exact
        def trial(kind, n, d, C, eps, seed):
            errored = kind == "two-clique" and eps < 0.3
            return {"ok": kind == "complete", "master": 1 if kind == "complete" else 5,
                    "good_partition": 12 if kind == "complete" else 3,
                    "block_levels": round(eps * 40), "wall_s": 0.0,
                    "error": "no host" if errored else None}
        monkeypatch.setattr(cli, "_sweep_trial", trial)
        table = (
            "      kind  n  d  C  epsilon   N  trials  successes  errors  success_rate"
            "  mean_master  mean_good_partition  mean_block_levels  mean_wall_ms\n"
            "  complete  3  2  6      0.4  36       2          2       0        1.0000"
            "        1.000               12.000             16.000         0.000\n"
            "  complete  3  2  6     0.25  36       2          2       0        1.0000"
            "        1.000               12.000             10.000         0.000\n"
            "two-clique  3  2  6      0.4  36       2          0       0        0.0000"
            "        5.000                3.000             16.000         0.000\n"
            "two-clique  3  2  6     0.25  36       2          0       2        0.0000"
            "        5.000                3.000             10.000         0.000\n")
        csv = [
            "kind,n,d,C,epsilon,N,trials,successes,errors,success_rate,"
            "mean_master,mean_good_partition,mean_block_levels,mean_wall_ms",
            "complete,3,2,6,0.4,36,2,2,0,1.0000,1.000,12.000,16.000,0.000",
            "complete,3,2,6,0.25,36,2,2,0,1.0000,1.000,12.000,10.000,0.000",
            "two-clique,3,2,6,0.4,36,2,0,0,0.0000,5.000,3.000,16.000,0.000",
            "two-clique,3,2,6,0.25,36,2,0,2,0.0000,5.000,3.000,10.000,0.000"]
        argv = ["sweep", "--host-kind", "complete,two-clique", "--n", "3",
                "--d", "2", "--C", "6", "--epsilon", "0.4,0.25", "--trials", "2"]
        out = str(tmp_path / "sweep.csv")
        assert main(argv + ["--timings", "--out", out]) == 0
        assert Path(out).read_text() == "\n".join(csv) + "\n"
        assert capsys.readouterr().err == table
        # without --timings the CSV drops mean_wall_ms; the table keeps it
        assert main(argv + ["--out", out]) == 0
        assert Path(out).read_text() == "".join(
            line.rsplit(",", 1)[0] + "\n" for line in csv)
        assert capsys.readouterr().err == table

def test_python_m_entry_point():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, "-m", "dirac_subdiv", "--help"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0
    assert "embed" in done.stdout


@st.composite
def certificates(draw):
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    ids = st.integers(0, 2 ** 70)
    return SubdivisionCertificate(
        host_vertex_count=draw(ids),
        pattern=Graph(n, edges),
        branch_map=tuple(draw(st.lists(ids, max_size=n))),
        edge_paths={e: tuple(draw(st.lists(ids, max_size=6))) for e in edges})


@settings(max_examples=80, deadline=None)
@given(certificates())
def test_written_certificates_round_trip(cert):
    text = certificate_to_json(cert)
    assert certificate_from_json(text) == cert
    assert certificate_to_json(certificate_from_json(text)) == text
