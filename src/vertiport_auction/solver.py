"""Welfare maximization over the auxiliary graph.

Branches over the per-aircraft departure-time binaries; each fixed
assignment leaves a max-gain flow with integer bounds, solved exactly
as a min-cost circulation over the graph's integer edge gains by the
successive-shortest-path kernel in `flow`, on the residual network
`build_graph` compiled.  Every augmentation moves whole units, so the
flows are integral, and all arithmetic is on Python ints.  A
branch-and-bound node's solve starts from the optimal flow and
potentials of its parent, whose bounds contain its own (the root from
the compiled cold state); enumeration solves every leaf cold.

The gains encode welfare and the tie-break in one number (see the
`graph` module docstring): the maximum-gain allocation is unique and is
the welfare optimum with the lexicographically smallest departure-time
vector, then menu-key vector.  So the two interchangeable strategies,
exhaustive enumeration of departure-time combinations (the reference
path) and depth-first branch-and-bound with an admissible
flow-relaxation bound, return the same objective and allocation.

Node rule.  Branch-and-bound solves the flow relaxation of the partial
assignment (undecided aircraft relaxed, see `_resolved_bounds`) at
every internal node, the root included, and the fixed-delta flow at
every leaf.  An internal node ends in one of three ways, or branches:
infeasible (no completion exists), bound (its gain does not exceed the
incumbent's), or completion: its flow gives every aircraft at most one
unit on its E4 edges.  That flow spells a completion, each aircraft at
the time of its unit and staying without one, and it lies as it stands
within that completion's resolved bounds: E4 is the only edge whose
bounds depend on delta, and its flow is exactly the spelled unit.  A
decided aircraft spells its own decision, since its bounds force or
forbid those units.  So the flow is a feasible completion of the node
that gains as much as the relaxation, which bounds every completion:
it is the best one, and it is offered as the incumbent with the gain
the relaxation already computed.  Each end discards only subtrees that
are empty or hold nothing better than what is kept, and the optimum is
unique, so the result does not depend on the order of the search.
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
    leaf_solves: int = 0
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

    Aircraft absent from `partial_delta` are undecided: each of their
    bounds relaxes to the range it takes over their departure times, a
    valid superset of every completion (see `graph._bound_templates`).
    """
    lower, upper = list(graph.relaxed_lower), list(graph.relaxed_upper)
    for decision in partial_delta.items():
        raises, cuts = graph.decisions[decision]
        for k in raises:
            lower[k] = 1
        for k in cuts:
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
                        ) -> Optional[Dict[Tuple[str, str], int]]:
    """The departure-time assignment a relaxed flow spells, if it gives
    every aircraft at most one unit on its E4 edges (none: it stays);
    else None."""
    delta = {}
    for pair, carriers in graph.departure_times.items():
        carried = [tau for tau, k in carriers.items() if flows[k]]
        if len(carried) > 1:
            return None
        delta[pair] = carried[0] if carried else 0
    return delta


@dataclass
class _Incumbent:
    """Best leaf so far.  Distinct allocations never tie in gain."""

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


def _branch_order(graph: AuxGraph) -> List[Tuple[Tuple[str, str], List[int]]]:
    """Aircraft by descending bid spread; taus by descending best bid.

    An aircraft's stay time 0 comes last unless its stay bid is at least
    its best bid at some other departure time; generated stay bids are
    drawn ten times smaller, so the stay time is usually tried last and
    the always-feasible all-stay completion is reached late.
    """
    instance = graph.instance
    ordered = []
    for operator, craft in instance.iter_aircraft():
        bids = {
            entry.key: graph.bids[(operator.id, craft.id, entry.key)]
            for entry in craft.menu
        }
        spread = max(bids.values()) - min(bids.values())
        best_by_tau = {}
        for entry in craft.menu:
            bid = bids[entry.key]
            prev = best_by_tau.get(entry.depart_time)
            if prev is None or bid > prev:
                best_by_tau[entry.depart_time] = bid
        taus = sorted(best_by_tau, key=lambda tau: (-best_by_tau[tau], tau))
        ordered.append(((operator.id, craft.id), taus, spread))
    ordered.sort(key=lambda item: (-item[2], item[0]))
    return [(pair, taus) for pair, taus, _ in ordered]


def _solve_bnb(graph: AuxGraph, stats: SolveStats) -> _Incumbent:
    order = _branch_order(graph)
    best = _Incumbent()

    def visit(depth: int, partial: Dict[Tuple[str, str], int],
              state: FlowState) -> None:
        stats.nodes_explored += 1
        start = FlowStart(state, stats)
        if depth == len(order):
            stats.leaf_solves += 1
            best.offer(graph, solve_fixed_delta(graph, partial, start=start))
            return
        stats.bound_solves += 1
        relaxed = relaxation_bound(graph, partial, start=start)
        if relaxed is None:
            stats.pruned_infeasible += 1
            return
        bound, flows = relaxed
        if best.gain is not None and bound <= best.gain:
            stats.pruned_bound += 1
            return
        spelled = _spelled_completion(graph, flows)
        if spelled is not None:
            stats.pruned_completion += 1
            _canonicalize_bundles(graph, flows)
            best.offer(graph, FlowSolution(tuple(flows), spelled), bound)
            return
        pair, taus = order[depth]
        for tau in taus:
            partial[pair] = tau
            visit(depth + 1, partial, start.state)
            del partial[pair]

    visit(0, {}, graph.network.cold)
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
