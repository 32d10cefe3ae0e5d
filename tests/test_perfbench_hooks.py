"""The benchmark's tracing hooks still find what they wrap.

`perfbench/tracing.py` replaces library functions by name and classifies
flow solves by their arguments, so a rename or a changed call in `src/`
would silently drop spans.  The module is imported as it stands, from
the `perfbench` directory on `sys.path`.
"""

import importlib
from pathlib import Path

import pytest

from vertiport_auction import solver
from vertiport_auction.generator import GeneratorConfig, generate
from vertiport_auction.graph import build_graph
from vertiport_auction.mechanism import run_auction

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_every_target_exists(tracing):
    for module, attribute, _, _ in tracing._TARGETS:
        assert callable(getattr(module, attribute, None)), (module.__name__, attribute)


def test_flow_spans_match_solver_stats(tracing):
    """Every flow solve of a traced auction and of traced solves under
    both strategies is one `solver.flow.*` span, and none is taken for a
    pin solve; `solve` is called positionally, as the benchmark does."""
    document = generate(GeneratorConfig(seed=0))
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.request("auction"):
            run_auction(document.instance, document.bids)
        for strategy in ("bnb", "enumerate"):
            graph = build_graph(document.instance, document.bids)
            with tracer.request(strategy):
                solver.solve(graph, strategy)
    kinds = {}
    for rid in ("auction", "bnb", "enumerate"):
        spans = [span for span in tracer.spans if span[tracing.RID] == rid]
        flows = [span[tracing.NAME] for span in spans
                 if span[tracing.NAME].startswith("solver.flow.")]
        reported = sum(span[tracing.B] for span in spans
                       if span[tracing.NAME] == tracing.SOLVE)
        assert len(flows) == reported > 0, rid
        kinds[rid] = set(flows)
    assert kinds == {"auction": {tracing.BOUND}, "bnb": {tracing.BOUND},
                     "enumerate": {tracing.LEAF}}
