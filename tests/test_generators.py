import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirac_subdiv import generators
from dirac_subdiv import (GenerationError, Graph, HostSpec, complete_graph,
                          format_edge_list, gen_dirac_host, gen_random_regular,
                          gen_two_clique_extremal, min_degree)
from dirac_subdiv.generators import _sample_gnp, dirac_degree_bound
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

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="clique size must be >= 1"):
            gen_two_clique_extremal(0)

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


@pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 130])
def test_row_builders_match_the_pair_built_graphs(n):
    # both builders write bitmask rows; Graph.__init__ builds from the pairs
    pairs = np.column_stack(np.triu_indices(n, k=1))
    assert complete_graph(n) == complete_graph(np.int64(n)) == Graph(n, pairs)
    assert (gen_two_clique_extremal(n) == gen_two_clique_extremal(np.int64(n))
            == Graph(2 * n, np.concatenate((pairs, pairs + n))))


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
        with pytest.raises(ValueError, match=r"^n\*d must be even for a d-regular graph to exist$"):
            gen_random_regular(5, 3, seed=0)

    def test_d_out_of_range(self):
        # the sampler's domain is check_pattern_dimensions', plus d = 0 on n >= 1
        with pytest.raises(ValueError, match=r"^pattern regularity d must satisfy 1 <= d < n$"):
            gen_random_regular(4, 4, seed=0)
        with pytest.raises(ValueError, match=r"^pattern vertex count n must be >= 2$"):
            gen_random_regular(0, 0, seed=0)

    def test_deterministic(self):
        a = gen_random_regular(10, 3, seed=77)
        b = gen_random_regular(10, 3, seed=77)
        assert format_edge_list(a) == format_edge_list(b)

    def test_switch_matches_set_reference(self):
        def reference(ends, s, t):
            # the pairing with stubs s and t swapped, if its two new pairs are
            # new, distinct and not loops; else None
            pairs = [tuple(ends[k:k + 2]) for k in range(0, len(ends), 2)]
            present = {frozenset(p) for p in pairs}
            out = list(ends)
            out[s], out[t] = ends[t], ends[s]
            new = {s // 2, t // 2}
            made = [frozenset(out[2 * i:2 * i + 2]) for i in new]
            if (len(new) < 2 or len(set(made)) < 2 or min(map(len, made)) < 2
                    or any(p in present for p in made)):
                return None
            return out

        made = []
        for n, d in [(6, 2), (9, 4), (12, 3), (16, 5)]:
            rng = make_rng(n * d)
            stubs = np.repeat(np.arange(n), d)
            for _ in range(400):
                rng.shuffle(stubs)
                ends = stubs.tolist()
                count = Counter(min(u, v) * n + max(u, v)
                                for u, v in zip(ends[::2], ends[1::2]))
                s, t = rng.integers(0, len(ends), 2).tolist()
                want = reference(ends, s, t)
                got = generators._switch(ends, count, n, s, t)
                assert got == (want is not None), (n, d, s, t)
                assert ends == (want or ends)
                assert count == Counter(min(u, v) * n + max(u, v)
                                        for u, v in zip(ends[::2], ends[1::2]))
                made.append(got)
        assert any(made) and not all(made)

    @pytest.mark.parametrize("n, d", [(64, 5), (100, 5), (128, 5), (208, 6),
                                      (512, 7), (1024, 7)])
    def test_in_domain_shapes(self, n, d):
        # d = ceil(ln n), rounded up to make n*d even: the smallest regularity
        # the paper's theorem covers
        for seed in range(20):
            g = gen_random_regular(n, d, seed)
            assert g.edge_count == n * d // 2
            assert all(g.degree(v) == d for v in range(n)), (n, d, seed)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_simple_regular_and_deterministic(self, data):
        n = data.draw(st.integers(2, 40))
        d = data.draw(st.integers(0, n - 1).filter(lambda d: n * d % 2 == 0))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        g = gen_random_regular(n, d, seed)
        assert g.edge_count == n * d // 2
        assert all(g.degree(v) == d for v in range(n))
        assert format_edge_list(gen_random_regular(n, d, seed)) == format_edge_list(g)

    def test_budget_backstop(self, monkeypatch):
        # with no proposals allowed, a pairing with a loop or repeated pair
        # cannot be repaired; a pairing without one needs no repair
        monkeypatch.setattr(generators, "SWITCH_BUDGET", 0)
        outcomes = []
        for seed in range(20):
            try:
                outcomes.append(gen_random_regular(12, 2, seed).edge_count)
            except GenerationError as err:
                assert "after 0 proposals" in str(err)
                outcomes.append(None)
        assert None in outcomes and 12 in outcomes


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
        with pytest.raises(ValueError, match="C must be >= 1"):
            HostSpec(n=4, d=3, C=0, epsilon=0.5)

    def test_deterministic_bytes(self):
        spec = HostSpec(n=4, d=3, C=10, epsilon=0.2, seed=42)
        a = gen_dirac_host(spec)
        b = gen_dirac_host(spec)
        assert format_edge_list(a) == format_edge_list(b)

    def test_one_sample_per_call(self, monkeypatch):
        # at p = 1 every sample is K_N, and at p < 1 a miss has probability
        # below 1e-38, so a second sample could not help
        ps = []
        real = generators._sample_gnp

        def spy(n, p, rng):
            ps.append(p)
            return real(n, p, rng)

        monkeypatch.setattr(generators, "_sample_gnp", spy)
        for spec, p_is_one in [(HostSpec(n=4, d=3, C=12, epsilon=0.25), True),
                               (HostSpec(n=10, d=4, C=12, epsilon=0.25), False)]:
            ps.clear()
            g = gen_dirac_host(spec)
            assert len(ps) == 1 and (ps[0] == 1.0) == p_is_one
            assert min_degree(g) >= dirac_degree_bound(spec.N, spec.epsilon)
        # bound ceil(1.99 * 144 / 2) = 144: no 144-vertex graph has it
        ps.clear()
        spec = HostSpec(n=4, d=3, C=12, epsilon=0.99)
        assert dirac_degree_bound(spec.N, spec.epsilon) == 144
        with pytest.raises(GenerationError, match="min degree 143"):
            gen_dirac_host(spec)
        assert ps == [1.0]


class TestSampleGnp:
    @staticmethod
    def whole_array(n, p, rng):
        # every pair u < v and its uniform at once, in row-major order
        pairs = np.column_stack(np.triu_indices(n, k=1))
        return Graph(n, pairs[rng.random(len(pairs)) < p])

    @pytest.mark.parametrize("n, p", [(1, .5), (2, .5), (5, .3), (257, .77),
                                      (1536, .8), (600, 1.0)])
    def test_matches_whole_array_sampler(self, n, p):
        for seed in range(2):
            got = _sample_gnp(n, p, make_rng(seed))
            want = self.whole_array(n, p, make_rng(seed))
            assert got == want and got.edge_count == want.edge_count

    def test_memory_grows_with_the_matrix_not_the_pairs(self):
        # the boolean matrix is N^2 bytes (2.25 MiB at N=1536); an index pair
        # and a uniform per vertex pair would be about 37 bytes per pair
        tracemalloc.start()
        try:
            _sample_gnp(1536, 0.75, make_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2 ** 20

