"""The benchmark's trace harness (perfbench/spans.py) wraps module-level
names of the package by attribute. Renaming or dropping one of those names,
even an import that looks unused, breaks `perfbench/run.py --trace 1`; these
tests catch that without running the benchmark."""

import importlib.util
from pathlib import Path

import pytest

from dirac_subdiv import EmbedConfig, complete_graph, embedder

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_resolves(spans):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in spans.LAYERS
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_traced_embed_records_its_layers(spans):
    tracer = spans.Tracer()
    tracer.op = 0
    with spans.installed(tracer):
        # through the module attribute, which is what the harness wraps
        h = complete_graph(3)
        report = embedder.embed_subdivision(complete_graph(36), h,
                                            EmbedConfig(epsilon=0.3, C=6, seed=2))
    assert report.success
    metrics = spans.layer_metrics(tracer.spans, [0], 1.0)
    assert metrics["embedder.successes"] == 1
    assert metrics["partition.good_draws"] == report.stage_attempts["good_partition"]
    assert metrics["partition.block_level_draws"] == report.stage_attempts["block_levels"]
    assert metrics["hampath.calls"] == 2 * h.edge_count
    assert metrics["hampath.restarts"] == 0
    assert metrics["hampath.none"] == 0
