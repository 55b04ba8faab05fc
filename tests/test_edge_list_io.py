"""The vectorised edge-list path: Graph construction from pairs or arrays,
the formatter, and the parser checked against a line-by-line reference."""

import io
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dirac_subdiv import (Graph, HostSpec, format_edge_list, gen_dirac_host,
                          graph, parse_edge_list, write_edge_list)


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


def sampled_graph(n: int) -> Graph:
    """G(n, 0.3) drawn from seed n."""
    rng = np.random.default_rng(n)
    iu, iv = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < 0.3
    return Graph(n, np.column_stack((iu[keep], iv[keep])))


# orders on both sides of each id-width step; from 1000 on, several row blocks
ORDERS = [0, 1, 9, 10, 11, 65, 100, 101, 1000, 1001]


class TestFormat:
    @pytest.mark.parametrize("n", ORDERS)
    def test_matches_line_by_line_formatter(self, n, tmp_path):
        g = sampled_graph(n)
        text = format_edge_list(g)
        assert text == reference_format(g)
        assert parse_edge_list(text) == g
        write_edge_list(g, tmp_path / "g.txt")
        assert (tmp_path / "g.txt").read_bytes() == text.encode()

    def test_writes_to_a_path_or_a_stream(self, tmp_path):
        g = sampled_graph(101)
        data = format_edge_list(g).encode()
        for path in (str(tmp_path / "a.txt"), tmp_path / "b.txt",
                     os.fsencode(tmp_path / "c.txt")):
            write_edge_list(g, path)
            assert (tmp_path / os.fsdecode(path)).read_bytes() == data
        # a text stream's byte buffer takes the bytes, after the text already
        # written and untranslated by the stream's newline setting
        raw = io.BytesIO()
        stream = io.TextIOWrapper(raw, encoding="ascii", newline="\r\n")
        stream.write("x")
        write_edge_list(g, stream)
        assert raw.getvalue() == b"x" + data
        # a stream without a buffer takes ASCII text
        text = io.StringIO()
        write_edge_list(g, text)
        assert text.getvalue() == data.decode()

    @pytest.mark.parametrize("n", [32, 64])
    def test_write_memory_stays_bounded(self, n, tmp_path):
        # N=1,536 and N=3,072: 8.4 and 34 MB of text, written a block of rows
        # at a time, so the peak does not grow with the text
        g = gen_dirac_host(HostSpec(n, 4, 12, 0.25, seed=5))
        assert traced_peak(lambda: write_edge_list(g, tmp_path / "g.txt")) <= 16 * 2 ** 20


@pytest.fixture
def no_line_reader(monkeypatch):
    def refuse(text):
        raise AssertionError("document left the array pass")
    monkeypatch.setattr(graph, "_read_lines", refuse)


class TestArrayPass:
    """Documents in the writer's spelling ("N M\\n", then "u v\\n" per edge)
    never reach the line reader; every other spelling is the line reader's."""

    @pytest.mark.usefixtures("no_line_reader")
    @pytest.mark.parametrize("n, d", [(4, 3), (8, 3), (10, 4)])
    def test_cli_pipeline_hosts(self, n, d):
        g = gen_dirac_host(HostSpec(n, d, 12, 0.25, seed=5))
        assert parse_edge_list(format_edge_list(g)) == g

    def test_line_ends_tabs_blanks_and_padding(self, monkeypatch):
        g = gen_dirac_host(HostSpec(4, 3, 12, 0.25, seed=5))
        lines = ["\t".join(t.zfill(25) for t in ln.split())
                 for ln in format_edge_list(g).splitlines()]
        text = "\r\n\r\n".join(lines[:3]) + " \t\n\r" + "\r\n".join(lines[3:])
        read, read_lines = [], graph._read_lines
        monkeypatch.setattr(graph, "_read_lines", lambda t: read.append(t) or read_lines(t))
        assert parse_edge_list(text) == g
        assert read == [text]


class TestWriterSpelling:
    """Formatted graphs of every size stay on the array pass, and documents
    one separator away from the writer's spelling parse as the reference does."""

    @pytest.mark.usefixtures("no_line_reader")
    @pytest.mark.parametrize("n", ORDERS)
    def test_format_sizes(self, n):
        g = sampled_graph(n)
        assert parse_edge_list(format_edge_list(g)) == g

    @pytest.mark.parametrize("text", [
        "2 1\n0 1\n",    # valid
        "2 \n1 0\n",     # an empty token
        "2 1\n0 1\n5",   # a trailing token
        "3 \n1 0\n2",    # an empty and a trailing token: the count alone matches
        " 1\n0 1\n",     # an empty first token
        "3 1\n0 \n",     # an empty last token
        " \n",           # no tokens
        "02 1\n00 01\n", # leading zeros
        "2 1\n1 0\n",    # u > v
        "2 1\n0 2\n",    # an id out of range
        "3 2\n0 1\n0 1\n",  # a repeated pair
    ])
    def test_alternating_separators_match_reference(self, text):
        expected = outcome(reference_parse, text)
        got = outcome(parse_edge_list, text)
        assert got is ValueError if expected is ValueError else got == expected


def traced_peak(run) -> int:
    """The tracemalloc peak, in bytes, of one call of run()."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def cli_pipeline_host_text() -> str:
    # the cli-pipeline host: N=480, about 110k edges, 0.84 MB of text
    return format_edge_list(gen_dirac_host(HostSpec(10, 4, 12, 0.25, seed=5)))


def test_parse_memory_stays_linear():
    text = cli_pipeline_host_text()
    assert traced_peak(lambda: parse_edge_list(text)) <= 16 * len(text)


def test_line_reader_memory_stays_linear():
    text = cli_pipeline_host_text().replace(" ", "\t")  # off the writer's spelling
    assert traced_peak(lambda: parse_edge_list(text)) <= 16 * len(text)
