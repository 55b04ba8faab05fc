import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dirac_subdiv import (SubdivisionCertificate, certificate_to_json,
                          complete_graph, format_edge_list, min_degree,
                          parse_edge_list, read_certificate, read_edge_list,
                          verify_certificate, write_edge_list)
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

    def test_small_d_warning(self, tmp_path, capsys):
        assert main(["gen", "--kind", "regular", "--n", "30", "--d", "1",
                     "--out", str(tmp_path / "m.txt")]) == 0
        assert "warning" in capsys.readouterr().err


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

    @pytest.mark.parametrize("mangle", [
        lambda doc: {k: v for k, v in doc.items() if k != "edge_paths"},
        lambda doc: [doc],
        lambda doc: {**doc, "branch_map": [None, *doc["branch_map"][1:]]},
        lambda doc: {**doc, "edge_paths": [{"edge": p["edge"]}
                                           for p in doc["edge_paths"]]},
    ], ids=["no-edge-paths", "top-level-list", "null-branch", "no-vertices"])
    def test_malformed_certificate_usage_error(self, tmp_path, capsys, mangle):
        pattern = complete_graph(2)
        host = write_instance(tmp_path, "host.txt", complete_graph(4))
        patt = write_instance(tmp_path, "patt.txt", pattern)
        good = SubdivisionCertificate(4, pattern, (0, 3), {(0, 1): (0, 1, 2, 3)})
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(mangle(json.loads(certificate_to_json(good)))))
        rc = main(["verify", "--host", host, "--pattern", patt,
                   "--cert", str(cert)])
        assert rc == 2
        assert "error: " in capsys.readouterr().err

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
        with pytest.raises(ValueError):
            SweepSpec(kinds=("complete",), ns=(3,), ds=(3,), Cs=(6,),
                      epsilons=(0.3,), trials=1)  # d >= n
        with pytest.raises(ValueError):
            SweepSpec(kinds=("complete",), ns=(5,), ds=(3,), Cs=(6,),
                      epsilons=(0.3,), trials=1)  # odd n*d
        with pytest.raises(ValueError):
            SweepSpec(kinds=("weird",), ns=(3,), ds=(2,), Cs=(6,),
                      epsilons=(0.3,), trials=1)

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

    def test_epsilon_descending_rates_recorded_not_asserted(self):
        spec = SweepSpec(kinds=("dirac",), ns=(4,), ds=(3,), Cs=(12,),
                         epsilons=(0.4, 0.2, 0.1, 0.05), trials=2, seed_base=5)
        result = run_sweep(spec)
        assert len(result.rows) == 4
        rates = [r["success_rate"] for r in result.rows]
        assert all(0.0 <= r <= 1.0 for r in rates)
        # monotonicity in epsilon is only flagged, never a failure
        assert all(n.startswith("note:") for n in result.notes)


def test_python_m_entry_point():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, "-m", "dirac_subdiv", "--help"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0
    assert "embed" in done.stdout
