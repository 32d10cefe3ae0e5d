"""Welfare maximization over the auxiliary graph.

Branches over the per-aircraft departure-time binaries; each fixed
assignment leaves a max-gain flow with integer bounds, solved exactly
as a min-cost circulation over the graph's integer edge gains by the
successive-shortest-path kernel in `flow`, on the residual network
`graph.price_graph` priced.  Every augmentation moves whole units, so the
flows are integral, and all arithmetic is on Python ints.  A
branch-and-bound node's solve starts from the optimal flow and
potentials of its parent, whose bounds contain its own (the root from
the priced cold state); enumeration solves every leaf cold.

The gains encode welfare and the tie-break in one number (see the
`graph` module docstring): the maximum-gain allocation is unique and is
the welfare optimum with the lexicographically smallest departure-time
vector, then menu-key vector.  So the two interchangeable strategies,
exhaustive enumeration of departure-time combinations (the reference
path) and depth-first branch-and-bound with an admissible
flow-relaxation bound, return the same objective and allocation.

Node rule.  Every branch-and-bound node, the root included, is one
solve of the flow relaxation of its partial assignment (undecided
aircraft relaxed, see `_resolved_bounds`).  A node ends in one of three
ways, or branches: infeasible (no completion exists), bound (its gain
does not exceed the incumbent's), or completion: its flow gives every
aircraft at most one unit on its E4 edges.  That flow spells a
completion, each aircraft at the time of its unit and staying without
one, and it lies as it stands within that completion's resolved bounds:
E4 is the only edge whose bounds depend on delta, and its flow is
exactly the spelled unit.  A decided aircraft spells its own decision,
since its bounds force or forbid those units.  So the flow is a
feasible completion of the node that gains as much as the relaxation,
which bounds every completion: it is the best one, and it is offered as
the incumbent with the gain the relaxation already computed.

Split rule.  A node that does not end branches on the aircraft its
relaxed flow splits: the first, in `AuxGraph.departure_times` order,
that carries two or more E4 units.  That aircraft is undecided, since a
decided one carries exactly its decision, so every root-to-node path
decides each aircraft at most once and is at most the fleet size deep;
there is no separate leaf case, and no departure-time selector object:
a decision is applied straight to the E4 edges `departure_times` names.
The children take the aircraft's departure times in ascending order,
the stay (tau 0) last.  Each end discards only subtrees that are empty
or hold nothing better than what is kept, the children's assignments
cover the node's, and the optimum is unique, so the result does not
depend on the order of the search.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from .flow import FlowState, min_cost_flow
from .graph import (
    AuxGraph,
    DeltaAssignment,
    FlowSolution,
    build_graph,
    flow_gain,
    flow_objective,
    flow_to_allocation,
)
from .model import Allocation, Instance, Profile, validate_instance


@dataclass
class SolveStats:
    nodes_explored: int = 0
    leaf_solves: int = 0  # enumerate only: one per assignment
    bound_solves: int = 0
    pruned_infeasible: int = 0
    pruned_bound: int = 0
    pruned_completion: int = 0  # relaxed flow spelled a completion
    augmentations: int = 0  # paths pushed, over every flow solve
    wall_time: float = 0.0

    @property
    def fixed_delta_solves(self) -> int:
        """Every flow solve: leaves plus relaxation bounds."""
        return self.leaf_solves + self.bound_solves


@dataclass(frozen=True)
class SolveResult:
    flow: FlowSolution
    objective: Fraction
    allocation: Allocation
    delta: Mapping[Tuple[str, str], int]
    stats: SolveStats


class SolverError(ValueError):
    pass


def enumerate_deltas(instance: Instance) -> Iterator[Dict[Tuple[str, str], int]]:
    """Every departure-time combination, lexicographic over the canonical
    aircraft order with tau ascending.  Empty fleet yields one empty map.
    """
    pairs = [(op.id, craft.id) for op, craft in instance.iter_aircraft()]
    choices = [
        craft.departure_times() for _, craft in instance.iter_aircraft()
    ]
    for combo in itertools.product(*choices):
        yield dict(zip(pairs, combo))


def _resolved_bounds(graph: AuxGraph, partial_delta: DeltaAssignment
                     ) -> Tuple[List[int], List[int]]:
    """Per-edge integer (lower, upper) bounds under a (possibly partial)
    assignment.

    Aircraft absent from `partial_delta` are undecided: their E4 edges
    keep the relaxed [0, 1], a valid superset of every completion, since
    the aircraft may also stay and use none of them.  Deciding an
    aircraft at tau raises the lower bound of its E4 edge at tau to 1 and
    cuts the upper bounds of its other E4 edges to 0; deciding that it
    stays (tau 0) cuts them all.  So a full assignment resolves every
    bound exactly.
    """
    lower, upper = list(graph.relaxed_lower), list(graph.relaxed_upper)
    for pair, tau in partial_delta.items():
        for other, k in graph.departure_times[pair].items():
            if other == tau:
                lower[k] = 1
            else:
                upper[k] = 0
    return lower, upper


def _canonicalize_bundles(graph: AuxGraph, flows: List[int]) -> None:
    """Push parallel-bundle flow into prefix (lowest-q) form, in place.

    Gains are non-increasing in q, so this never lowers the gain.
    """
    for members in graph.bundles:
        total = sum(flows[k] for k in members)
        for position, k in enumerate(members):
            flows[k] = 1 if position < total else 0


@dataclass
class FlowStart:
    """Where a flow solve starts: `state` is `network.cold` or the state
    of a solve whose bounds contain its own (see `flow`).  A feasible
    solve leaves its own state there; every solve adds the paths it
    pushed to `stats`."""

    state: FlowState
    stats: SolveStats


def _min_cost_flow(graph: AuxGraph, partial_delta: DeltaAssignment,
                   start: Optional[FlowStart]) -> Optional[List[int]]:
    start = start or FlowStart(graph.network.cold, SolveStats())
    state, pushed = min_cost_flow(
        graph.network, *_resolved_bounds(graph, partial_delta), start.state)
    start.stats.augmentations += pushed
    if state is None:
        return None
    start.state = state
    return state.flows[:-1]


def solve_fixed_delta(graph: AuxGraph, delta: DeltaAssignment, *,
                      start: Optional[FlowStart] = None) -> Optional[FlowSolution]:
    """Maximum-gain integral flow for a fully fixed departure-time
    assignment, or None when the fixed bounds admit no balanced flow.
    A solve starts cold unless given a `start`.
    """
    times = graph.departure_times
    if set(delta) != set(times):
        raise SolverError("delta must assign every aircraft exactly once")
    for pair, tau in delta.items():
        if tau and tau not in times[pair]:
            raise SolverError(f"aircraft {pair} has no departure time {tau}")
    flows = _min_cost_flow(graph, delta, start)
    if flows is None:
        return None
    _canonicalize_bundles(graph, flows)
    return FlowSolution(tuple(flows), dict(delta))


def relaxation_bound(graph: AuxGraph, partial_delta: DeltaAssignment, *,
                     start: Optional[FlowStart] = None
                     ) -> Optional[Tuple[int, List[int]]]:
    """Admissible upper bound, in gain units, for every completion of
    `partial_delta`, with the relaxed flow that attains it; None when no
    completion is feasible."""
    flows = _min_cost_flow(graph, partial_delta, start)
    return None if flows is None else (flow_gain(graph, flows), flows)


def _spelled_completion(graph: AuxGraph, flows: List[int]
                        ) -> Tuple[Optional[Dict[Tuple[str, str], int]],
                                   Optional[Tuple[str, str]]]:
    """(delta, None) if a relaxed flow gives every aircraft at most one
    unit on its E4 edges, delta being the assignment it spells (none: the
    aircraft stays); else (None, the first aircraft, in
    `departure_times` order, that carries two or more)."""
    delta = {}
    for pair, carriers in graph.departure_times.items():
        carried = [tau for tau, k in carriers.items() if flows[k]]
        if len(carried) > 1:
            return None, pair
        delta[pair] = carried[0] if carried else 0
    return delta, None


@dataclass
class _Incumbent:
    """Best completion so far.  Distinct allocations never tie in gain."""

    gain: Optional[int] = None
    flow: Optional[FlowSolution] = None

    def offer(self, graph: AuxGraph, flow: Optional[FlowSolution],
              gain: Optional[int] = None) -> None:
        """Keep `flow` if it gains more; `gain` is computed if not given."""
        if flow is None:
            return
        if gain is None:
            gain = flow_gain(graph, flow.flows)
        if self.gain is None or gain > self.gain:
            self.gain = gain
            self.flow = flow


def _solve_enumerate(graph: AuxGraph, stats: SolveStats) -> _Incumbent:
    best = _Incumbent()
    for delta in enumerate_deltas(graph.instance):
        stats.nodes_explored += 1
        stats.leaf_solves += 1
        best.offer(graph, solve_fixed_delta(
            graph, delta, start=FlowStart(graph.network.cold, stats)))
    return best


def _solve_bnb(graph: AuxGraph, stats: SolveStats) -> _Incumbent:
    best = _Incumbent()

    def visit(partial: Dict[Tuple[str, str], int], state: FlowState) -> None:
        stats.nodes_explored += 1
        stats.bound_solves += 1
        start = FlowStart(state, stats)
        relaxed = relaxation_bound(graph, partial, start=start)
        if relaxed is None:
            stats.pruned_infeasible += 1
            return
        bound, flows = relaxed
        if best.gain is not None and bound <= best.gain:
            stats.pruned_bound += 1
            return
        spelled, split = _spelled_completion(graph, flows)
        if split is None:
            stats.pruned_completion += 1
            _canonicalize_bundles(graph, flows)
            best.offer(graph, FlowSolution(tuple(flows), spelled), bound)
            return
        for tau in (*graph.departure_times[split], 0):
            partial[split] = tau
            visit(partial, start.state)
        del partial[split]

    visit({}, graph.network.cold)
    return best


def solve(graph: AuxGraph, strategy: str = "bnb") -> SolveResult:
    """Global welfare maximum over all departure-time assignments.

    ``strategy`` is ``"bnb"`` (default) or ``"enumerate"``; both return
    identical objectives and allocations.
    """
    if strategy not in ("bnb", "enumerate"):
        raise SolverError(f"unknown strategy {strategy!r}")
    stats = SolveStats()
    start = time.perf_counter()
    if strategy == "enumerate":
        best = _solve_enumerate(graph, stats)
    else:
        best = _solve_bnb(graph, stats)
    if best.flow is None:
        raise SolverError("no feasible departure-time assignment")
    stats.wall_time = time.perf_counter() - start
    return SolveResult(
        flow=best.flow,
        objective=flow_objective(graph, best.flow),
        allocation=flow_to_allocation(graph, best.flow),
        delta=dict(best.flow.delta),
        stats=stats,
    )


def optimal_allocation(instance: Instance, bids: Profile,
                       strategy: str = "bnb") -> Allocation:
    """Welfare-maximizing allocation under the documented tie-break."""
    report = validate_instance(instance)
    if not report.ok:
        raise SolverError(f"invalid instance: {report.violations}")
    return solve(build_graph(instance, bids), strategy=strategy).allocation
