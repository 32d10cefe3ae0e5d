"""Welfare maximization over the auxiliary graph.

Branches over the per-aircraft departure-time binaries; each fixed
assignment leaves a max-gain flow with integer bounds, solved exactly
as a min-cost circulation over the graph's integer edge gains by the
successive-shortest-path kernel in `flow`, on the residual network
`graph.price_graph` priced.  Every augmentation moves whole units, so the
flows are integral, and all arithmetic is on Python ints.  A
branch-and-bound node's solve starts from the optimal flow and
potentials of its parent, whose bounds contain its own (the root from
the priced cold state); enumeration solves every leaf cold.  A solve's
answer, `SolveResult.flow`, is the kernel's optimal flow as a tuple:
the one flow of its allocation (see the `graph` module docstring).

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
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .flow import FlowState, min_cost_flow
from .graph import (
    AuxGraph,
    DeltaAssignment,
    flow_gain,
    flow_objective,
    flow_to_allocation,
)
from .model import Allocation, Instance


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
    flow: Tuple[int, ...]  # the kernel's optimal flow, one entry per edge
    objective: Fraction
    allocation: Allocation
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


def _min_cost_flow(graph: AuxGraph, partial_delta: DeltaAssignment, start: FlowState,
                   stats: Optional[SolveStats]) -> Optional[FlowState]:
    """The kernel's solve of `partial_delta`'s resolved bounds from
    `start`; adds the paths it pushed to `stats` if given."""
    state, pushed = min_cost_flow(
        graph.network, *_resolved_bounds(graph, partial_delta), start)
    if stats is not None:
        stats.augmentations += pushed
    return state


def solve_fixed_delta(graph: AuxGraph, delta: DeltaAssignment, *,
                      stats: Optional[SolveStats] = None
                      ) -> Optional[Tuple[int, ...]]:
    """The kernel's maximum-gain integral flow for a fully fixed
    departure-time assignment, or None when the fixed bounds admit no
    balanced flow.  The solve starts cold.
    """
    times = graph.departure_times
    if set(delta) != set(times):
        raise SolverError("delta must assign every aircraft exactly once")
    for pair, tau in delta.items():
        if tau and tau not in times[pair]:
            raise SolverError(f"aircraft {pair} has no departure time {tau}")
    state = _min_cost_flow(graph, delta, graph.network.cold, stats)
    return None if state is None else tuple(state.flows)


def relaxation_bound(graph: AuxGraph, partial_delta: DeltaAssignment, *,
                     start: Optional[FlowState] = None,
                     stats: Optional[SolveStats] = None
                     ) -> Optional[Tuple[int, FlowState]]:
    """Admissible upper bound, in gain units, for every completion of
    `partial_delta`, with the solved state whose flow attains it; None
    when no completion is feasible.  The solve starts from `start`, the
    state of a solve whose bounds contain these (see `flow`), or cold."""
    if start is None:
        start = graph.network.cold
    state = _min_cost_flow(graph, partial_delta, start, stats)
    return None if state is None else (flow_gain(graph, state.flows), state)


def _split_aircraft(graph: AuxGraph, flows: Sequence[int]
                    ) -> Optional[Tuple[str, str]]:
    """The first aircraft, in `departure_times` order, that a relaxed flow
    gives two or more units on its E4 edges; None when the flow spells a
    completion."""
    for pair, carriers in graph.departure_times.items():
        if sum(flows[k] for k in carriers.values()) > 1:
            return pair
    return None


@dataclass
class _Incumbent:
    """Best completion so far.  Distinct allocations never tie in gain."""

    gain: Optional[int] = None
    flow: Optional[Tuple[int, ...]] = None

    def offer(self, flow: Tuple[int, ...], gain: int) -> None:
        """Keep `flow`, which gains `gain`, if it gains more."""
        if self.gain is None or gain > self.gain:
            self.gain = gain
            self.flow = flow


def _solve_enumerate(graph: AuxGraph, stats: SolveStats) -> _Incumbent:
    best = _Incumbent()
    for delta in enumerate_deltas(graph.instance):
        stats.nodes_explored += 1
        stats.leaf_solves += 1
        flow = solve_fixed_delta(graph, delta, stats=stats)
        if flow is not None:
            best.offer(flow, flow_gain(graph, flow))
    return best


def _solve_bnb(graph: AuxGraph, stats: SolveStats) -> _Incumbent:
    best = _Incumbent()

    def visit(partial: Dict[Tuple[str, str], int], state: FlowState) -> None:
        stats.nodes_explored += 1
        stats.bound_solves += 1
        relaxed = relaxation_bound(graph, partial, start=state, stats=stats)
        if relaxed is None:
            stats.pruned_infeasible += 1
            return
        bound, state = relaxed
        if best.gain is not None and bound <= best.gain:
            stats.pruned_bound += 1
            return
        split = _split_aircraft(graph, state.flows)
        if split is None:
            stats.pruned_completion += 1
            best.offer(tuple(state.flows), bound)
            return
        for tau in (*graph.departure_times[split], 0):
            partial[split] = tau
            visit(partial, state)
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
        objective=flow_objective(graph, best.flow, best.gain),
        allocation=flow_to_allocation(graph, best.flow),
        stats=stats,
    )
