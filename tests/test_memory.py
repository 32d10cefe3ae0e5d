"""Every call frees what it made by reference counting alone.

An object on a reference cycle is freed only by CPython's cyclic
collector, whose passes run inside whichever call allocates past its
threshold and cost a tenth of a benchmark request.  So no library call
may leave cyclic garbage.  And a request whose objects are all freed at
once must also leave no memory behind: a tuple built from an iterator
(`tuple(<generator>)`, a namedtuple's `_replace`) is grown by resizing,
not taken from CPython's tuple free lists, yet joins them when freed,
so each such call adds one to a free list that only a full collection
empties, and full collections no longer run.
"""

import gc
import importlib
import platform
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from test_solver import AUCTION_MID, DEEP, SOLVE_LARGE
from vertiport_auction import serialize
from vertiport_auction.generator import GeneratorConfig, generate
from vertiport_auction.graph import build_graph
from vertiport_auction.mechanism import (
    RULE_EXTERNALITY,
    RULE_NO_ZEROING,
    run_auction,
    sample_misreports,
)
from vertiport_auction.oracle import oracle_optimal, oracle_payment
from vertiport_auction.solver import solve

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: The benchmark's ic-sweep shape, the acceptance corpus's.
IC_SWEEP = dict(vertiports=(2, 3), operators=(2, 2), fleet_size=(1, 2),
                transit_routes=(1, 2), horizon=(3, 4))
#: The benchmark's three shapes and the deeper-branching one, and whether
#: enumeration and the oracle are cheap there (every candidate space of
#: these seeds is at most 729 allocations).
SHAPES = {
    "solve-large": (SOLVE_LARGE, False),
    "auction-mid": (AUCTION_MID, True),
    "ic-sweep": (IC_SWEEP, True),
    "deep": (DEEP, False),
}


@contextmanager
def collector_off():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("name", SHAPES)
def test_calls_leave_no_cyclic_garbage(name):
    """With the collector off, a full collection after each public call
    finds nothing, on generator seeds 0-2 of the shape; the calls on
    seed 0 are made once beforehand, so one-time set-up such as a first
    import is not counted."""
    shape, exhaustive = SHAPES[name]
    with collector_off():
        for seed in range(3):
            document = generate(GeneratorConfig(**dict(shape, seed=seed)))
            instance, bids = document.instance, document.bids
            operator = instance.operators[0].id
            text = serialize.render(document)
            graph = build_graph(instance, bids)
            calls = {
                "render": lambda: serialize.render(document),
                "parse": lambda: serialize.parse(text),
                "build_graph": lambda: build_graph(instance, bids),
                "solve bnb": lambda: solve(graph, "bnb"),
                "run_auction": lambda: run_auction(instance, bids, rule=RULE_EXTERNALITY),
                "run_auction no-zeroing": lambda: run_auction(instance, bids,
                                                              rule=RULE_NO_ZEROING),
                "sample_misreports": lambda: sample_misreports(
                    instance, document.valuations, operator, 5, seed),
            }
            if exhaustive:
                calls.update({
                    "solve enumerate": lambda: solve(graph, "enumerate"),
                    "oracle_optimal": lambda: oracle_optimal(instance, bids),
                    "oracle_payment": lambda: oracle_payment(instance, bids, operator),
                })
            if seed == 0:
                for call in calls.values():
                    call()
            gc.collect()
            left = {}
            for label, call in calls.items():
                call()  # its result dropped at once
                left[label] = gc.collect()
            assert left == dict.fromkeys(left, 0), (name, seed)


#: Requests per pass over a corpus, at least: the corpus is repeated
#: until it holds this many.  CPython's free lists of dicts, lists and
#: small tuples settle over the first few hundred requests; over shorter
#: passes their filling reads as up to 0.3 blocks a request.
MEASURED_REQUESTS = 200


@pytest.mark.skipif(platform.python_implementation() != "CPython",
                    reason="counts CPython's allocated memory blocks")
def test_requests_leave_memory_flat(monkeypatch):
    """After a warm pass over each benchmark corpus, as the benchmark
    issues its requests, a second pass holds on to fewer than half a
    memory block per request, with the collector off for both.  A pass
    repeats the corpus until it holds `MEASURED_REQUESTS` requests.  A
    request that left one cycle or one tuple on a free list would grow
    the count by at least one block a request."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    grown = {}
    for name, workload in workloads.WORKLOADS.items():
        texts = [request.text for group in workloads.build_requests(workload)
                 for request in group]
        texts *= -(-MEASURED_REQUESTS // len(texts))
        with collector_off():
            gc.collect()
            for text in texts:
                workloads.run_request(workload.kind, text)
            before = sys.getallocatedblocks()
            for text in texts:
                workloads.run_request(workload.kind, text)
            grown[name] = (sys.getallocatedblocks() - before) / len(texts)
    assert all(blocks < 0.5 for blocks in grown.values()), grown
