"""The vectorised edge-list path: Graph construction from pairs or arrays,
the formatter, and the parser checked against a line-by-line reference."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dirac_subdiv import (Graph, HostSpec, format_edge_list, gen_dirac_host,
                          parse_edge_list)


def reference_parse(text: str) -> Graph:
    """The line-by-line parser the vectorised one replaced, kept as an oracle."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty edge-list document")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"header must be 'N M', got {lines[0]!r}")
    n, m = int(head[0]), int(head[1])
    if n < 0 or m < 0:
        raise ValueError("negative counts in header")
    if len(lines) - 1 != m:
        raise ValueError(f"header declares {m} edges, found {len(lines) - 1}")
    edges, seen = [], set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if u >= v:
            raise ValueError(f"edge {u} {v} violates u < v")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for {n} vertices")
        edges.append((u, v))
    for e in edges:
        if e in seen:
            raise ValueError(f"duplicate edge {e[0]} {e[1]}")
        seen.add(e)
    return Graph(n, edges)


def reference_format(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def outcome(parse, text):
    try:
        return parse(text)
    except ValueError:
        return ValueError


def header_order(text: str) -> int:
    """The N a document's header declares, or 0 when it has none."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    head = lines[0].split() if lines else []
    if len(head) == 2 and all(re.fullmatch(r"-?[0-9]+", t) for t in head):
        return int(head[0])
    return 0


ALPHABET = "0123456789- \t\r\nx"


@st.composite
def near_valid_documents(draw):
    """A formatted random graph, then a few edits from the test alphabet:
    most documents stay close to valid, so both accept and reject paths run."""
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    text = format_edge_list(Graph(n, edges))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        ch = draw(st.sampled_from(ALPHABET))
        if edit == "insert":
            text = text[:i] + ch + text[i:]
        elif edit == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + ch + text[i + 1:]
    return text


class TestParserMatchesReference:
    def check(self, text):
        assume(header_order(text) <= 10 ** 5)  # both build an O(N) row list
        expected = outcome(reference_parse, text)
        got = outcome(parse_edge_list, text)
        if expected is ValueError:
            assert got is ValueError
        else:
            assert got == expected

    @settings(max_examples=400, deadline=None)
    @given(st.text(ALPHABET, max_size=40))
    def test_random_text(self, text):
        self.check(text)

    @settings(max_examples=400, deadline=None)
    @given(near_valid_documents())
    def test_edited_documents(self, text):
        self.check(text)


class TestConstruction:
    def test_array_and_pairs_agree(self):
        rng = np.random.default_rng(4)
        pairs = rng.integers(0, 70, size=(300, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        assert Graph(70, pairs) == Graph(70, (tuple(e) for e in pairs.tolist()))

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1), (1, 1), (0, 5), (4, 0)], "edge (0,5) out of range for 3 vertices"),
        ([(0, 1), (2, 2), (1, 1)], "self-loop at vertex 2"),
        ([(-1, 2)], "edge (-1,2) out of range for 3 vertices"),
    ])
    def test_first_bad_edge_range_before_loop(self, edges, message):
        pattern = f"^{re.escape(message)}$"
        with pytest.raises(ValueError, match=pattern):
            Graph(3, np.array(edges))
        with pytest.raises(ValueError, match=pattern):
            Graph(3, (e for e in edges))

    def test_id_past_int64_is_out_of_range(self):
        with pytest.raises(ValueError, match=r"^edge \(0,\d+\) out of range"):
            Graph(3, [(0, 1), (0, 2 ** 70)])

    def test_rejects_non_pairs(self):
        with pytest.raises(ValueError):
            Graph(4, np.zeros((2, 3), int))

    def test_sparse_rows_of_a_large_order(self):
        g = Graph(10 ** 6, np.array([[0, 999_999]]))
        assert g.edge_count == 1 and g.neighbors(999_999) == (0,)


class TestFormat:
    @pytest.mark.parametrize("n", [0, 1, 9, 10, 65, 100, 1000])
    def test_matches_line_by_line_formatter(self, n):
        rng = np.random.default_rng(n)
        iu, iv = np.triu_indices(n, k=1)
        keep = rng.random(len(iu)) < 0.3
        g = Graph(n, np.column_stack((iu[keep], iv[keep])))
        text = format_edge_list(g)
        assert text == reference_format(g)
        assert parse_edge_list(text) == g


def test_parse_memory_stays_linear():
    # the cli-pipeline host: N=480, about 110k edges, 0.84 MB of text
    text = format_edge_list(gen_dirac_host(HostSpec(10, 4, 12, 0.25, seed=5)))
    tracemalloc.start()
    try:
        parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * len(text)
