"""Outside-in tracing: spans recorded around the library's public calls.

While a ``Tracer`` is installed, the module attributes below are replaced
by wrappers that record one span per call: name, start, end, parent span
and request id, plus one or two integers of work done.  Nothing in
``src/`` changes; the library picks up the wrappers because it calls
these functions through module globals.

Flow solves are classified from the outside: ``solve_fixed_delta``
without ``overrides`` is a leaf solve, with ``overrides`` (the lexmin
tie-break pinning, including its final solve) a pin solve, and
``relaxation_bound`` a bound solve.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from vertiport_auction import graph, mechanism, model, serialize, solver

ROOT = "bench.request"
LEAF, PIN, BOUND = "solver.flow.leaf", "solver.flow.pin", "solver.flow.bound"
SOLVE, BUILD, PAYMENT = "solver.solve", "graph.build_graph", "mechanism.payment"
AUCTION = "mechanism.run_auction"
VALIDATE = ("model.validate_instance", "model.validate_profile")
LAYERS = ("serialize", "model", "graph", "solver", "mechanism")

# Span fields: name, start, end, parent index, request id, work a, work b.
NAME, START, END, PARENT, RID, A, B = range(7)


def _flow_kind(args, kwargs) -> str:
    overrides = args[2] if len(args) > 2 else kwargs.get("overrides")
    return LEAF if overrides is None else PIN


def _flow_work(args, result):
    """(edges in the graph, 1 if the solve was feasible)."""
    return len(args[0].edges), int(result is not None)


def _solve_work(args, result):
    """(B&B nodes, flow solves the solver's own stats report)."""
    return result.stats.nodes_explored, result.stats.fixed_delta_solves


def _build_work(args, result):
    return len(result.edges), 0


# (module, attribute, span name or classifier, work extractor)
_TARGETS = (
    (serialize, "parse", "serialize.parse", None),
    (model, "validate_instance", VALIDATE[0], None),
    (graph, "build_graph", BUILD, _build_work),
    (solver, "solve", SOLVE, _solve_work),
    (solver, "solve_fixed_delta", _flow_kind, _flow_work),
    (solver, "relaxation_bound", BOUND, _flow_work),
    (solver, "flow_objective", "graph.flow_objective", None),
    (solver, "flow_to_allocation", "graph.flow_to_allocation", None),
    (mechanism, "run_auction", AUCTION, None),
    (mechanism, "solve", SOLVE, _solve_work),
    (mechanism, "build_graph", BUILD, _build_work),
    (mechanism, "payment", PAYMENT, None),
    (mechanism, "validate_instance", VALIDATE[0], None),
    (mechanism, "validate_profile", VALIDATE[1], None),
)


class Tracer:
    """Spans kept in memory; one request at a time, one thread."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._rid: Optional[str] = None

    def _wrap(self, fn, name, work):
        clock = time.perf_counter
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self._rid is None:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(args, kwargs)
            span = [label, clock(), 0.0, stack[-1], self._rid, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if work is not None:
                span[A], span[B] = work(args, result)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Replace the target attributes by tracing wrappers, then restore."""
        saved = [(module, attr, getattr(module, attr))
                 for module, attr, _, _ in _TARGETS]
        try:
            for module, attr, name, work in _TARGETS:
                setattr(module, attr,
                        self._wrap(getattr(module, attr), name, work))
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    @contextmanager
    def request(self, rid: str) -> Iterator[list]:
        """Root span of one request; library spans nest under it.

        The caller stores the latency it measures around this block in
        the root span's work field ``A``, to be compared with the span.
        """
        span = [ROOT, time.perf_counter(), 0.0, -1, rid, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._rid = rid
        try:
            yield span
        finally:
            span[END] = time.perf_counter()
            self._rid = None
            self._stack.pop()


class AccountingError(RuntimeError):
    """Spans do not nest, belong to no layer, or escape the request."""


def per_request(spans: List[list]) -> List[Dict[str, float]]:
    """Work counts and times for each traced request, from its spans.

    A span's self time is its duration minus its children's, so the self
    times of one request add up to its root span by construction.  What
    is checked is that spans nest (one thread, strictly nested calls),
    that every span belongs to a layer, and that the root span lies
    within the latency measured outside the tracer; the difference
    between the two is the request's ``unaccounted_s``.
    """
    children: Dict[int, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    requests = []
    current: Optional[Dict[str, float]] = None
    for index, span in enumerate(spans):
        name = span[NAME]
        duration = span[END] - span[START]
        cursor = span[START]
        covered = 0.0
        for child in children[index]:
            child_span = spans[child]
            if child_span[START] < cursor or child_span[END] > span[END]:
                raise AccountingError(f"span {child_span[NAME]} escapes "
                                      f"{name} in request {span[RID]}")
            cursor = child_span[END]
            covered += child_span[END] - child_span[START]
        own = duration - covered
        if name == ROOT:
            current = defaultdict(float)
            current["rid"] = span[RID]
            current["request_s"] = duration
            current["unaccounted_s"] = span[A] - duration
            if current["unaccounted_s"] < 0:
                raise AccountingError(
                    f"request {span[RID]}: traced for {duration} s, "
                    f"measured outside the tracer as {span[A]} s")
            requests.append(current)
        layer = "bench" if name == ROOT else name.split(".")[0]
        if layer not in LAYERS + ("bench",):
            raise AccountingError(f"span {name} belongs to no layer")
        current[f"self_s.{layer}"] += own
        current[f"calls.{name}"] += 1
        current[f"time_s.{name}"] += duration
        if name in (LEAF, PIN, BOUND):
            current["flow_edge_visits"] += span[A]
            current[f"feasible.{name}"] += span[B]
        elif name == SOLVE:
            current["nodes"] += span[A]
            current["stats_fixed_delta_solves"] += span[B]
            parent = spans[span[PARENT]][NAME]
            current["solves.payment" if parent == PAYMENT
                    else "solves.clearing"] += 1
            current["solve_self_s"] += own
        elif name == BUILD:
            current["edges_built"] += span[A]
        elif name == AUCTION:
            current["auction_self_s"] += own
    return requests


def work_counts(record: Dict[str, float]) -> tuple:
    """The exact, order-independent work of one request."""
    return tuple(int(record[key]) for key in (
        "nodes", f"calls.{LEAF}", f"feasible.{LEAF}", f"calls.{BOUND}",
        f"feasible.{BOUND}", f"calls.{PIN}", f"calls.{BUILD}", "edges_built",
        "solves.clearing", "solves.payment", "flow_edge_visits",
        "stats_fixed_delta_solves"))


def layer_metrics(records: List[Dict[str, float]]) -> Dict[str, tuple]:
    """Per-request means of the per-layer metrics, with their units."""
    n = len(records)

    def total(key: str) -> float:
        return sum(r.get(key, 0.0) for r in records)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    flow_calls = {kind: total(f"calls.{kind}") for kind in (LEAF, PIN, BOUND)}
    flow_s = {kind: total(f"time_s.{kind}") for kind in (LEAF, PIN, BOUND)}
    all_flow_calls = sum(flow_calls.values())
    all_flow_s = sum(flow_s.values())
    builds = total(f"calls.{BUILD}")
    ms = 1000.0
    metrics = {
        "serialize.parse_ms": (total("time_s.serialize.parse") * ms / n, "ms"),
        "model.validate_ms": (sum(total(f"time_s.{v}") for v in VALIDATE)
                              * ms / n, "ms"),
        "graph.build_ms": (total(f"time_s.{BUILD}") * ms / n, "ms"),
        "graph.build_calls": (builds / n, "count"),
        "graph.edges_per_build": (ratio(total("edges_built"), builds), "count"),
        "solver.nodes": (total("nodes") / n, "count"),
        "solver.flow_calls.leaf": (flow_calls[LEAF] / n, "count"),
        "solver.flow_calls.bound": (flow_calls[BOUND] / n, "count"),
        "solver.flow_calls.pin": (flow_calls[PIN] / n, "count"),
        "solver.leaf_feasible_ratio": (
            ratio(total(f"feasible.{LEAF}"), flow_calls[LEAF]), "ratio"),
        "solver.bound_infeasible_ratio": (
            ratio(flow_calls[BOUND] - total(f"feasible.{BOUND}"),
                  flow_calls[BOUND]), "ratio"),
        "solver.flow_us_per_call": (ratio(all_flow_s, all_flow_calls) * 1e6,
                                    "us"),
        "solver.flow_ms.leaf": (flow_s[LEAF] * ms / n, "ms"),
        "solver.flow_ms.bound": (flow_s[BOUND] * ms / n, "ms"),
        "solver.flow_ms.pin": (flow_s[PIN] * ms / n, "ms"),
        "solver.flow_share": (ratio(all_flow_s, total("request_s")), "ratio"),
        "solver.flow_edge_visits": (total("flow_edge_visits") / n, "count"),
        "solver.flow_calls_per_build": (ratio(all_flow_calls, builds), "count"),
        "solver.solve_self_ms": (total("solve_self_s") * ms / n, "ms"),
        "mechanism.solves.clearing": (total("solves.clearing") / n, "count"),
        "mechanism.solves.payment": (total("solves.payment") / n, "count"),
        "mechanism.payment_ms": (total(f"time_s.{PAYMENT}") * ms / n, "ms"),
        "mechanism.auction_self_ms": (total("auction_self_s") * ms / n, "ms"),
        "bench.gap_ms": (total("self_s.bench") * ms / n, "ms"),
        "trace.request_ms": (total("request_s") * ms / n, "ms"),
        "trace.unaccounted_ms": (total("unaccounted_s") * ms / n, "ms"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (total(f"self_s.{layer}") * ms / n, "ms")
    return metrics
