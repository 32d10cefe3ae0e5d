"""The benchmark's tracing hooks still find what they wrap, and its
corpora still do the pinned search work.

`perfbench/tracing.py` replaces library functions by name and classifies
flow solves by their arguments, so a rename or a changed call in `src/`
would silently drop spans.  The modules are imported as they stand, from
the `perfbench` directory on `sys.path`.
"""

import importlib
from pathlib import Path

import pytest

from conftest import ReadRecorder
from vertiport_auction import mechanism, solver
from vertiport_auction.generator import GeneratorConfig, generate
from vertiport_auction.graph import build_graph
from vertiport_auction.mechanism import run_auction

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: Search work of one pass over each benchmark corpus, as the benchmark
#: issues its requests: solves, branch-and-bound nodes, flow solves and
#: augmenting paths.  A change that changes this work, on purpose, must
#: update the pin and say why.  Paths fell from 122 (auction-mid) and
#: 1,273 (ic-sweep) when each counterfactual took its clearing graph's
#: gain unit: every payment root now starts from the cleared root as it
#: is, and the kernel repairs only the zeroed operator's route edges.
CORPUS_WORK = {
    "solve-large": (4, 4, 4, 37),
    "auction-mid": (32, 71, 71, 121),
    "ic-sweep": (738, 738, 738, 1113),
}


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def test_benchmark_corpora_do_the_pinned_work(workloads, monkeypatch):
    """Each workload's corpus, built from its `perfbench/workloads.py`
    config and run through `workloads.run_request`, does the pinned
    work, so a change that only adds work, a weaker prune or a kernel
    that routes more paths, fails here even where every result holds."""
    seen = []

    def counted(*args, _solve=solver.solve, **kwargs):
        result = _solve(*args, **kwargs)
        seen.append(result.stats)
        return result

    monkeypatch.setattr(solver, "solve", counted)
    monkeypatch.setattr(mechanism, "solve", counted)
    work = {}
    for name, workload in workloads.WORKLOADS.items():
        seen.clear()
        for group in workloads.build_requests(workload):
            for request in group:
                workloads.run_request(workload.kind, request.text)
        work[name] = (len(seen), sum(stats.nodes_explored for stats in seen),
                      sum(stats.fixed_delta_solves for stats in seen),
                      sum(stats.augmentations for stats in seen))
    assert work == CORPUS_WORK


def test_counterfactual_roots_set_up_only_the_zeroed_routes(workloads, monkeypatch):
    """On the auction corpora, every payment solve hands the kernel the
    cleared root as it is, its potentials its own, and the kernel sets up
    only edges among the zeroed operator's route edges: it reads no other
    edge's bounds."""
    calls = []  # per kernel call: (start, the edges whose bounds it read)
    payments = []  # per payment: (clearing graph, operator, cleared, first call)
    kernel, pay = solver.min_cost_flow, mechanism.payment

    def recorded(network, lower, upper, start):
        lower = ReadRecorder(lower)
        calls.append((start, lower.read))
        return kernel(network, lower, upper, start)

    def paid(clearing, operator_id, cleared, *args, **kwargs):
        payments.append((clearing, operator_id, cleared, len(calls)))
        return pay(clearing, operator_id, cleared, *args, **kwargs)

    monkeypatch.setattr(solver, "min_cost_flow", recorded)
    monkeypatch.setattr(mechanism, "payment", paid)
    roots = {}
    for name in ("auction-mid", "ic-sweep"):
        workload = workloads.WORKLOADS[name]
        payments.clear()
        for group in workloads.build_requests(workload):
            for request in group:
                workloads.run_request(workload.kind, request.text)
        for clearing, operator_id, cleared, first in payments:
            start, read = calls[first]
            assert start is cleared.root
            assert start.residual.potential is start.potential
            routes = {k for _, (i, _, _), granted in clearing.aircraft
                      if i == operator_id for k, _, _ in granted}
            assert read <= routes
        roots[name] = len(payments)
    assert roots == {"auction-mid": 24, "ic-sweep": 492}


def test_every_target_exists(tracing):
    for module, attribute, _, _ in tracing._TARGETS:
        assert callable(getattr(module, attribute, None)), (module.__name__, attribute)


def test_flow_spans_match_solver_stats(tracing):
    """Every flow solve of a traced auction and of a traced solve is one
    `solver.flow.*` span, a bound solve; `solve` is called positionally,
    as the benchmark does."""
    document = generate(GeneratorConfig(seed=0))
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.request("auction"):
            run_auction(document.instance, document.bids)
        graph = build_graph(document.instance, document.bids)
        with tracer.request("bnb"):
            solver.solve(graph, "bnb")
    kinds = {}
    for rid in ("auction", "bnb"):
        spans = [span for span in tracer.spans if span[tracing.RID] == rid]
        flows = [span[tracing.NAME] for span in spans
                 if span[tracing.NAME].startswith("solver.flow.")]
        reported = sum(span[tracing.B] for span in spans
                       if span[tracing.NAME] == tracing.SOLVE)
        assert len(flows) == reported > 0, rid
        kinds[rid] = set(flows)
    assert kinds == {"auction": {tracing.BOUND}, "bnb": {tracing.BOUND}}
