import re

import pytest
from hypothesis import given, settings, strategies as st

from dirac_subdiv import (Graph, bipartite_min_degree, degree_into,
                          complete_graph, format_edge_list, induced,
                          min_degree, parse_edge_list, to_dot)

from dirac_subdiv.generators import _complement
from support import cycle_graph, path_graph


def all_pairs(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


@st.composite
def graphs(draw, min_n=1, max_n=10):
    n = draw(st.integers(min_n, max_n))
    pairs = all_pairs(n)
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                              max_size=len(pairs)))
    else:
        edges = []
    return Graph(n, edges)


class TestGraphBasics:
    def test_construction_and_symmetry(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.n == 4 and g.edge_count == 3
        for u in range(4):
            for v in g.neighbors(u):
                assert u in g.neighbors(v)

    def test_rejects_loops_and_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph(-1)

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_equality(self):
        assert Graph(3, [(0, 1)]) == Graph(3, [(1, 0)])
        assert Graph(3, [(0, 1)]) != Graph(3, [(0, 2)])


class TestDegreeInto:
    def test_complete_graph(self):
        g = complete_graph(4)
        assert degree_into(g, 0, {1, 2, 3}) == 3

    def test_no_self_loops(self):
        g = complete_graph(4)
        assert degree_into(g, 0, {0}) == 0

    def test_six_cycle(self):
        g = cycle_graph(6)
        # oracle: enumerate N(0) and intersect by hand
        members = {1, 3, 5}
        expected = sum(1 for u in members if u in g.neighbors(0))
        assert expected == 2
        assert degree_into(g, 0, members) == expected

    def test_accepts_mask(self):
        g = cycle_graph(6)
        assert degree_into(g, 0, (1 << 1) | (1 << 3) | (1 << 5)) == 2

    def test_out_of_range(self):
        g = complete_graph(4)
        with pytest.raises(ValueError):
            degree_into(g, 7, {1})
        with pytest.raises(ValueError):
            degree_into(g, 0, {9})


class TestInduced:
    def test_complete_to_complete(self):
        g = complete_graph(5)
        sub, mapping = induced(g, {0, 2, 4})
        assert sub == complete_graph(3)
        assert sorted(mapping) == [0, 2, 4]
        assert sorted(mapping.values()) == [0, 1, 2]

    def test_edgeless(self):
        g = Graph(6)
        sub, _ = induced(g, {1, 2, 3, 4})
        assert sub.n == 4 and sub.edge_count == 0

    def test_six_cycle_segment(self):
        g = cycle_graph(6)
        members = [0, 1, 2]
        # oracle: enumerate all pairs inside the set
        expected = {(u, v) for u in members for v in members
                    if u < v and g.has_edge(u, v)}
        assert expected == {(0, 1), (1, 2)}
        sub, mapping = induced(g, members)
        assert sub.edge_count == 2
        assert {(mapping[u], mapping[v]) for u, v in expected} == set(sub.edges())

    def test_identity_on_full_vertex_set(self):
        g = cycle_graph(6)
        sub, mapping = induced(g, range(6))
        assert sub == g
        assert all(mapping[v] == v for v in range(6))


class TestMinDegree:
    def test_complete(self):
        assert min_degree(complete_graph(4)) == 3

    def test_empty_graph_flag(self):
        assert min_degree(Graph(0)) is None

    def test_disjoint_triangles_cross(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert bipartite_min_degree(g, {0, 1, 2}, {3, 4, 5}) == 0

    def test_complete_bipartite(self):
        a, b = {0, 1}, {2, 3, 4}
        g = Graph(5, [(u, v) for u in a for v in b])
        # oracle: degrees are 3,3 on one side and 2,2,2 on the other
        degs = [degree_into(g, v, b) for v in a] + [degree_into(g, v, a) for v in b]
        assert sorted(degs) == [2, 2, 2, 3, 3]
        assert bipartite_min_degree(g, a, b) == 2

    def test_empty_side_flag(self):
        g = complete_graph(3)
        assert bipartite_min_degree(g, set(), {0, 1}) is None

    def test_overlapping_sides_rejected(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            bipartite_min_degree(g, {0, 1}, {1, 2})


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(graphs(min_n=2, max_n=9), st.randoms(use_true_random=False))
    def test_partition_degree_sum(self, g, rnd):
        verts = list(range(g.n))
        rnd.shuffle(verts)
        k = rnd.randint(1, g.n)
        parts = [verts[i::k] for i in range(k)]
        for v in range(g.n):
            total = sum(degree_into(g, v, p) for p in parts)
            assert total == g.degree(v)

    @settings(max_examples=40, deadline=None)
    @given(graphs(min_n=2, max_n=9), st.data())
    def test_induced_min_degree_matches_direct(self, g, data):
        size = data.draw(st.integers(1, g.n))
        members = data.draw(st.permutations(range(g.n)))[:size]
        sub, _ = induced(g, members)
        direct = min(degree_into(g, v, set(members) - {v}) for v in members)
        assert min_degree(sub) == direct


class TestEdgeListFormat:
    def test_roundtrip(self):
        g = cycle_graph(6)
        assert parse_edge_list(format_edge_list(g)) == g

    def test_format_example(self):
        g = Graph(3, [(0, 2), (0, 1)])
        assert format_edge_list(g) == "3 2\n0 1\n0 2\n"

    @pytest.mark.parametrize("text", [
        "",                       # empty
        "2 1\n0 0\n",             # loop
        "3 2\n0 1\n0 1\n",        # duplicate
        "3 1\n1 0\n",             # u >= v
        "3 1\n0 3\n",             # out of range
        "3 2\n0 1\n",             # count mismatch
        "3\n",                    # bad header
        "3 1\n-1 2\n",            # negative id
        "3 1\n0 1 2\n",           # three tokens
        "3 3\n0 1\n0 2\n0 1\n",   # duplicate, not adjacent
        "3 1\n0 9223372036854775808\n",      # id past 2**63
        "3 1\n-99999999999999999999 1\n",
        "3 1\n0 1.0\n",
        "3 1\n0 0x1\n",
        "3 1\n0 1e3\n",
        "3 1\n0 1-\n",
        "3 1\n0 -\n",
        "1e3 0\n",
        "3 1\n0 1\u00e9\n",               # not ASCII
        "3000 1\n0 1-2\n",                 # "-" inside a token
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_edge_list(text)

    @pytest.mark.parametrize("text, message", [
        ("3 2\n0 1\n0 1\n", "duplicate edge 0 1"),
        ("3 3\n0 1\n0 2\n0 1\n", "duplicate edge 0 1"),
        ("3 1\n-1 2\n", "edge (-1,2) out of range for 3 vertices"),
        ("3 1\n0 3\n", "edge (0,3) out of range for 3 vertices"),
        ("3 1\n0 9223372036854775808\n",
         "edge (0,9223372036854775808) out of range for 3 vertices"),
        ("3 2\n0 5\n1 x\n", "edge (0,5) out of range for 3 vertices"),
        ("3 2\n0 1\n1 x\n", "malformed edge line '1 x'"),
        ("3 2\n2 1\n0 5\n", "edge 2 1 violates u < v"),
        ("3 1\n0 1 2\n", "malformed edge line '0 1 2'"),
        ("3 x\n", "header must be 'N M', got '3 x'"),
        ("2 1\n1 1\n", "edge 1 1 violates u < v"),
    ])
    def test_error_names_the_edge(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_edge_list(text)

    def test_leading_zeros_and_line_ends(self):
        # an 18-digit id is read by the vectorised pass, a 25-digit one apart
        text = "0003 2\r\n\n 000 0000000000000000000000001\t\r1 000000000000000002"
        assert parse_edge_list(text) == Graph(3, [(0, 1), (1, 2)])

    def test_dot_export(self):
        g = path_graph(3)
        dot = to_dot(g)
        assert dot.startswith("graph G {")
        assert "0 -- 1;" in dot and "1 -- 2;" in dot


@st.composite
def edge_lists(draw, max_n=70):
    """(n, edges) with edges in either orientation and some repeated; n runs
    past 64 so masks span more than one machine word."""
    n = draw(st.integers(0, max_n))
    if n < 2:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    edges = draw(st.lists(pair, max_size=3 * n))
    if edges:
        repeats = draw(st.lists(st.sampled_from(edges), max_size=len(edges)))
        edges += [(v, u) for u, v in repeats] + repeats
    return n, edges


class TestAgainstSetReference:
    @settings(max_examples=80, deadline=None)
    @given(edge_lists(), st.randoms(use_true_random=False))
    def test_queries_match_set_reference(self, case, rnd):
        n, edges = case
        ref = [set() for _ in range(n)]
        for u, v in edges:
            ref[u].add(v)
            ref[v].add(u)
        g = Graph(n, edges)
        for v in range(n):
            assert g.neighbors(v) == tuple(sorted(ref[v]))
            assert g.degree(v) == len(ref[v])
        expected = [(u, v) for u in range(n) for v in sorted(ref[u]) if u < v]
        assert list(g.edges()) == expected
        assert g.edge_count == len(expected)

        shuffled = [(v, u) for u, v in expected]
        rnd.shuffle(shuffled)
        same = Graph(n, shuffled)
        assert g == same and hash(g) == hash(same)
        if expected:
            assert g != Graph(n, expected[1:])
        assert g != Graph(n + 1, expected)

        assert parse_edge_list(format_edge_list(g)) == g
        missing = [(u, v) for u in range(n) for v in range(u + 1, n)
                   if v not in ref[u]]
        assert _complement(g) == Graph(n, missing)
