import numpy as np
import pytest

from dirac_subdiv import (GenerationError, Graph, HostSpec, complete_graph,
                          format_edge_list, gen_dirac_host, gen_random_regular,
                          gen_two_clique_extremal, min_degree)
from dirac_subdiv.generators import _pairing_attempt, dirac_degree_bound
from dirac_subdiv.rng import make_rng


class TestCompleteGraph:
    def test_single_vertex(self):
        g = complete_graph(1)
        assert g.n == 1 and g.edge_count == 0

    def test_single_edge(self):
        g = complete_graph(2)
        assert g.edge_count == 1

    def test_k5(self):
        g = complete_graph(5)
        assert g.edge_count == 10
        assert all(g.degree(v) == 4 for v in range(5))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            complete_graph(0)


class TestTwoCliqueExtremal:
    def test_half_one(self):
        g = gen_two_clique_extremal(1)
        assert g.n == 2 and g.edge_count == 0

    def test_two_triangles(self):
        g = gen_two_clique_extremal(3)
        assert g.n == 6
        assert min_degree(g) == 2
        assert min_degree(g) < g.n // 2

    def test_half_ten_below_dirac(self):
        g = gen_two_clique_extremal(10)
        assert min_degree(g) == 9 < 10 == g.n // 2
        # no cross edges
        assert all(not g.has_edge(u, v) for u in range(10) for v in range(10, 20))


class TestRandomRegular:
    def test_k4_is_unique_cubic(self):
        g = gen_random_regular(4, 3, seed=11)
        assert g == complete_graph(4)

    def test_perfect_matching(self):
        g = gen_random_regular(6, 1, seed=2)
        assert all(g.degree(v) == 1 for v in range(6))
        assert g.edge_count == 3

    def test_degrees_exact(self):
        g = gen_random_regular(8, 3, seed=5)
        assert all(g.degree(v) == 3 for v in range(8))

    def test_complement_route_for_dense_d(self):
        g = gen_random_regular(8, 5, seed=5)
        assert all(g.degree(v) == 5 for v in range(8))

    def test_d_zero(self):
        g = gen_random_regular(5, 0, seed=0)
        assert g.edge_count == 0

    def test_odd_parity_rejected(self):
        with pytest.raises(ValueError):
            gen_random_regular(5, 3, seed=0)

    def test_d_out_of_range(self):
        with pytest.raises(ValueError):
            gen_random_regular(4, 4, seed=0)

    def test_deterministic(self):
        a = gen_random_regular(10, 3, seed=77)
        b = gen_random_regular(10, 3, seed=77)
        assert format_edge_list(a) == format_edge_list(b)

    def test_pairing_matches_set_reference(self):
        def reference(n, d, rng):
            stubs = np.repeat(np.arange(n), d)
            rng.shuffle(stubs)
            stubs = stubs.tolist()
            edges = set()
            for i in range(0, len(stubs), 2):
                u, v = stubs[i], stubs[i + 1]
                if u == v:
                    return None
                e = (u, v) if u < v else (v, u)
                if e in edges:
                    return None
                edges.add(e)
            return Graph(n, edges)

        rejected = []
        for n, d in [(16, 5), (32, 5), (12, 3)]:
            for seed in range(50):
                got = _pairing_attempt(n, d, make_rng(seed))
                assert got == reference(n, d, make_rng(seed)), (n, d, seed)
                rejected.append(got is None)
        assert any(rejected) and not all(rejected)


class TestDiracHost:
    def test_small_boundary(self):
        spec = HostSpec(n=2, d=1, C=4, epsilon=0.5, seed=1)
        g = gen_dirac_host(spec)
        assert g.n == 8
        assert min_degree(g) >= 6

    def test_derived_instance(self):
        spec = HostSpec(n=4, d=3, C=10, epsilon=0.2, seed=9)
        g = gen_dirac_host(spec)
        assert g.n == 120
        # postcondition checked through the independent degree query
        assert min_degree(g) >= dirac_degree_bound(120, 0.2) == 72

    def test_epsilon_out_of_range_is_parameter_error(self):
        with pytest.raises(ValueError):
            HostSpec(n=2, d=1, C=4, epsilon=1.0, seed=0)
        with pytest.raises(ValueError):
            HostSpec(n=2, d=1, C=4, epsilon=0.0, seed=0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            HostSpec(n=1, d=1, C=4, epsilon=0.5)
        with pytest.raises(ValueError):
            HostSpec(n=4, d=4, C=4, epsilon=0.5)

    def test_deterministic_bytes(self):
        spec = HostSpec(n=4, d=3, C=10, epsilon=0.2, seed=42)
        a = gen_dirac_host(spec)
        b = gen_dirac_host(spec)
        assert format_edge_list(a) == format_edge_list(b)


def test_generation_error_carries_attempts():
    err = GenerationError("nope", attempts=7)
    assert err.attempts == 7
