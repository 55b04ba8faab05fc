import pytest

from dirac_subdiv import (Graph, SubdivisionCertificate, complete_graph,
                          path_length_stats, verify_certificate)
from dirac_subdiv.verifier import CHECK_NAMES

from support import (certificate_mutations, path_graph,
                     valid_base_certificate)


class TestBaseCertificate:
    def test_passes_all_checks(self):
        host, pattern, cert = valid_base_certificate()
        rep = verify_certificate(host, pattern, cert, require_spanning=True)
        assert rep.ok, rep.summary()
        assert rep.failed() == []

    def test_stateless_and_deterministic(self):
        host, pattern, cert = valid_base_certificate()
        a = verify_certificate(host, pattern, cert, require_spanning=True)
        b = verify_certificate(host, pattern, cert, require_spanning=True)
        assert a.checks == b.checks
        assert a.summary() == b.summary()

    def test_reports_every_check_in_order(self):
        # spanning is the last check, and the only one a caller can skip
        host, pattern, cert = valid_base_certificate()
        for spanning, names in ((True, CHECK_NAMES), (False, CHECK_NAMES[:-1])):
            rep = verify_certificate(host, pattern, cert, require_spanning=spanning)
            assert tuple(name for name, _, _ in rep.checks) == names


class TestMutations:
    @pytest.mark.parametrize("name,cert,entailed",
                             certificate_mutations(),
                             ids=[m[0] for m in certificate_mutations()])
    def test_each_check_flips_in_isolation(self, name, cert, entailed):
        host, pattern, _ = valid_base_certificate()
        rep = verify_certificate(host, pattern, cert, require_spanning=True)
        failed = set(rep.failed())
        assert name in failed
        assert failed <= {name} | entailed, rep.summary()

    def test_interior_through_a_branch_vertex(self):
        # K3 into K3 with the path of (0,1) routed through branch vertex 2
        k3 = complete_graph(3)
        cert = SubdivisionCertificate(
            3, k3, (0, 1, 2), {(0, 1): (0, 2, 1), (0, 2): (0, 2), (1, 2): (1, 2)})
        rep = verify_certificate(k3, k3, cert, require_spanning=True)
        assert rep.failed() == ["interiors-disjoint"]
        assert "contains branch vertex 2" in rep.summary()

    def test_spanning_only_when_required(self):
        host, pattern, _ = valid_base_certificate()
        name, cert, _ = certificate_mutations()[-1]
        assert name == "spanning"
        relaxed = verify_certificate(host, pattern, cert, require_spanning=False)
        assert relaxed.ok
        strict = verify_certificate(host, pattern, cert, require_spanning=True)
        assert not strict.ok


class TestShapeCheck:
    def test_pattern_mismatch(self):
        host, pattern, cert = valid_base_certificate()
        other = complete_graph(3)
        rep = verify_certificate(host, other, cert)
        assert "shape" in rep.failed()

    def test_missing_path(self):
        host, pattern, cert = valid_base_certificate()
        broken = SubdivisionCertificate(
            cert.host_vertex_count, cert.pattern, cert.branch_map,
            {(0, 1): cert.edge_paths[(0, 1)]})
        rep = verify_certificate(host, pattern, broken)
        assert "shape" in rep.failed()

    def test_out_of_range_ids(self):
        host, pattern, cert = valid_base_certificate()
        broken = SubdivisionCertificate(
            cert.host_vertex_count, cert.pattern, (0, 3, 99),
            dict(cert.edge_paths))
        rep = verify_certificate(host, pattern, broken)
        assert "shape" in rep.failed()

    def test_negative_id_inside_a_path(self):
        # edges-exist reads host rows by id: -1 must fail it, not wrap to a row
        host, pattern, cert = valid_base_certificate()
        broken = SubdivisionCertificate(
            cert.host_vertex_count, cert.pattern, cert.branch_map,
            {(0, 1): cert.edge_paths[(0, 1)], (1, 2): (3, 4, -1, 6, 7)})
        failed = verify_certificate(host, pattern, broken).failed()
        assert "shape" in failed and "edges-exist" in failed

    @pytest.mark.parametrize("key", [(0, -1), (-2, 1)])
    def test_negative_pattern_index_fails_endpoints(self, key):
        # a negative index must not wrap round the branch map (0, 5), where
        # [-1] is [1] and [-2] is [0], so the path 0..5 would pass
        h = complete_graph(2)
        cert = SubdivisionCertificate(6, h, (0, 5), {key: (0, 1, 2, 3, 4, 5)})
        rep = verify_certificate(complete_graph(6), h, cert)
        witness = f"edge ({key[0]},{key[1]}) path unusable for endpoint check"
        assert ("endpoints", False, witness) in rep.checks
        assert "shape" in rep.failed()

    def test_problems_reported_never_raised(self):
        host, pattern, cert = valid_base_certificate()
        garbage = SubdivisionCertificate(5, path_graph(2), (42,),
                                         {(7, 9): (1, 2, 300)})
        rep = verify_certificate(host, pattern, garbage)
        assert not rep.ok  # no exception


class TestPathLengthStats:
    def make_cert(self, paths):
        pattern = Graph(len(paths) + 1,
                        [(i, i + 1) for i in range(len(paths))])
        return SubdivisionCertificate(
            host_vertex_count=100, pattern=pattern,
            branch_map=tuple(range(len(paths) + 1)),
            edge_paths={(i, i + 1): tuple(p) for i, p in enumerate(paths)})

    def test_mixed_lengths(self):
        cert = self.make_cert([(0, 1, 2), (3, 4, 5, 6, 7, 8)])
        st = path_length_stats(cert)
        assert (st.min, st.max, st.mean) == (2, 5, 3.5)
        assert st.multiset == {2: 1, 5: 1}

    def test_single_glued_edge(self):
        # two one-edge halves glued across a connector edge: 4 vertices
        cert = self.make_cert([(0, 1, 2, 3)])
        st = path_length_stats(cert)
        assert st.min == st.max == 3 and st.count == 1

    def test_empty_path_counts_zero_edges(self):
        # a rejected certificate may list a path without vertices; its
        # stats are still printed, so no length may read negative
        cert = self.make_cert([(), (0, 1, 2)])
        st = path_length_stats(cert)
        assert (st.min, st.max, st.mean) == (0, 2, 1.0)
        assert st.multiset == {0: 1, 2: 1}

    def test_empty_certificate(self):
        cert = SubdivisionCertificate(0, Graph(1), (0,), {})
        st = path_length_stats(cert)
        assert st.empty and st.count == 0
        assert st.min is None and st.max is None and st.mean is None


def test_verifier_accepts_unsubdivided_edges():
    # a path of length 1 is a legal replacement for a pattern edge
    host = complete_graph(2)
    pattern = complete_graph(2)
    cert = SubdivisionCertificate(2, pattern, (0, 1), {(0, 1): (0, 1)})
    rep = verify_certificate(host, pattern, cert, require_spanning=True)
    assert rep.ok, rep.summary()
