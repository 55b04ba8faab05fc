"""Subdivision certificates and their canonical on-disk form.

A certificate names the branch vertex for every pattern vertex and one host
path per pattern edge. It is the complete, independently checkable output
of an embedding run. Serialization is canonical JSON (sorted keys, fixed
separators, trailing newline) so identical inputs and seed produce
byte-identical files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .graph import Graph

FORMAT_TAG = "dirac-subdiv-certificate"
FORMAT_VERSION = 1


@dataclass
class SubdivisionCertificate:
    host_vertex_count: int
    pattern: Graph
    branch_map: tuple[int, ...]
    edge_paths: dict[tuple[int, int], tuple[int, ...]]

    def paths_sorted(self) -> list[tuple[tuple[int, int], tuple[int, ...]]]:
        return sorted(self.edge_paths.items())


def certificate_to_json(cert: SubdivisionCertificate) -> str:
    doc = {
        "format": FORMAT_TAG,
        "version": FORMAT_VERSION,
        "host_vertex_count": cert.host_vertex_count,
        "pattern_vertex_count": cert.pattern.n,
        "pattern_edges": [[u, v] for u, v in cert.pattern.edges()],
        "branch_map": list(cert.branch_map),
        "edge_paths": [
            {"edge": [i, j], "vertices": list(path)}
            for (i, j), path in cert.paths_sorted()
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def _typed(value, kind: type):
    """value if its JSON type is kind (int or list), else ValueError: a bool,
    float or string is never coerced, nor a string read as a list."""
    if type(value) is not kind:
        raise ValueError(f"certificate value {value!r} is not a JSON {kind.__name__}")
    return value


def _ints(value) -> list[int]:
    return [_typed(v, int) for v in _typed(value, list)]


def _unique_keys(pairs) -> dict:
    """A JSON object whose keys are distinct: json.loads would keep the last
    of a repeated key and silently drop the others."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"certificate repeats the key {key!r}")
        doc[key] = value
    return doc


def certificate_from_json(text: str) -> SubdivisionCertificate:
    """Parse a certificate document. Any malformed document, including text
    that is not JSON, a missing field, a value of the wrong JSON type, a
    repeated key, a pattern edge listed twice or nesting too deep to
    decode, raises ValueError."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("certificate nests too deeply to decode") from None
    except json.JSONDecodeError as e:
        raise ValueError(f"certificate is not JSON: {e}") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_TAG:
        raise ValueError("not a subdivision certificate document")
    if type(doc.get("version")) is not int or doc["version"] != FORMAT_VERSION:
        raise ValueError(f"unsupported certificate version {doc.get('version')}")
    try:
        edges = [_ints(e) for e in _typed(doc["pattern_edges"], list)]
        pattern = Graph(_typed(doc["pattern_vertex_count"], int), edges)
        if pattern.edge_count < len(edges):  # Graph collapses a repeated pair
            last = {frozenset(e): k for k, e in enumerate(edges)}
            pair = next(e for k, e in enumerate(edges) if last[frozenset(e)] != k)
            raise ValueError(f"certificate lists the pattern edge {pair} twice")
        edge_paths = {}
        for entry in _typed(doc["edge_paths"], list):
            edge = _ints(entry["edge"])
            if len(edge) != 2:
                raise ValueError(f"certificate edge entry {edge} is not a pair")
            i, j = edge
            if (i, j) in edge_paths:
                raise ValueError(f"certificate lists the edge {[i, j]} twice")
            edge_paths[(i, j)] = tuple(_ints(entry["vertices"]))
        return SubdivisionCertificate(
            host_vertex_count=_typed(doc["host_vertex_count"], int),
            pattern=pattern,
            branch_map=tuple(_ints(doc["branch_map"])),
            edge_paths=edge_paths,
        )
    except KeyError as e:
        raise ValueError(f"certificate is missing the field {e}") from None
    except TypeError as e:
        raise ValueError(f"certificate has a value of the wrong type: {e}") from None


def write_certificate(cert: SubdivisionCertificate, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(certificate_to_json(cert))


def read_certificate(path: str | os.PathLike) -> SubdivisionCertificate:
    with open(path, "r", encoding="ascii") as fh:
        return certificate_from_json(fh.read())
