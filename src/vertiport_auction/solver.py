"""Welfare maximization over the auxiliary graph, by branch-and-bound.

Branches over the per-aircraft departure-time binaries; each fixed
assignment leaves a max-gain flow with integer bounds, solved exactly
as a min-cost circulation over the graph's integer unit gains by the
successive-shortest-path kernel in `flow`, on the network
`graph.price_graph` priced (or `graph.counterfactual_graph` derived),
one row of unit costs per edge.  Every
augmenting path moves one unit, so the flows are integral, and all
arithmetic is on Python ints.  A branch-and-bound node's solve starts
from the solved state of its parent, so the kernel sets up and repairs
only the edges whose bounds the node's decision changed, the split
aircraft's departure edges, and, the parent's bounds containing the
node's, the repair only clamps them; the root starts from the priced
cold state, or from another solve's root at the same gain unit, as a
payment counterfactual starts from its auction's cleared root
(`solve`).  Every solved state carries its flow's gain, as minus its
cost (see `flow`): that is a node's bound and a leaf's gain, read with
no walk over the edges.  A solve's answer, `SolveResult.flow`, is the
kernel's optimal flow as a tuple: the one flow of its allocation (see
the `graph` module docstring); `SolveResult.gain` keeps its gain, from
which `mechanism.payment` prices.

The gains encode welfare and the tie-break in one number, so the
maximum-gain allocation is unique: the welfare optimum that the `graph`
module docstring's *Tie-break* section picks.  So the depth-first
branch-and-bound below, with an admissible flow-relaxation bound,
returns the allocation that exhaustive enumeration of every
departure-time combination would.

Node rule.  Every branch-and-bound node, the root included, is one
solve of the flow relaxation of its partial assignment (undecided
aircraft relaxed, see `_resolved_bounds`).  A node ends in one of three
ways, or branches: infeasible (no completion exists), bound (its gain
does not exceed the incumbent's), or completion: its flow gives every
aircraft at most one unit on its departure edges, the edges
`AuxGraph.departure_times` names (an E4 edge, or the one E5 edge of a
time with one route; see the `graph` module docstring).  That flow
spells a completion, each aircraft at the time of its unit and staying
without one, and it lies as it stands within that completion's resolved
bounds: the edges `departure_times` names are the only edges whose
bounds depend on delta, and their flow is exactly the spelled unit.  A
decided aircraft spells its own decision, since its bounds force or
forbid those units.  So the flow is a feasible completion of the node
that gains as much as the relaxation, which bounds every completion: it
is the best one.  Not pruned by bound, it gains more than the
incumbent, and it replaces it with the gain the relaxation already
computed.

Split rule.  A node that does not end branches on the aircraft its
relaxed flow splits: the first, in `AuxGraph.departure_times` order,
that carries two or more units on its departure edges.  That aircraft is undecided, since a
decided one carries exactly its decision, so every root-to-node path
decides each aircraft at most once and is at most the fleet size deep;
there is no separate leaf case, and no departure-time selector object:
a decision is applied straight to the edges `departure_times` names.
The children take the aircraft's departure times in ascending order,
the stay (tau 0) last.  Each end discards only subtrees that are empty
or hold nothing better than what is kept, the children's assignments
cover the node's, and the optimum is unique, so the result does not
depend on the order of the search.

Search shape.  The search is one depth-first loop in `_solve_bnb` over
a stack of open nodes, each a partial assignment of its own, its
parent's plus one decision, and the parent's solved state, which its
solve starts from.  Children are pushed stay first, so the earliest
departure time pops first, in the order above.  Nothing recurses, so
the depth of a search is bounded by memory, not by the interpreter's
stack, and a solve leaves no reference cycle: its graph, with everything
it holds, is freed by reference counting when the caller drops it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .flow import FlowState, min_cost_flow
from .graph import (
    AuxGraph,
    DeltaAssignment,
    flow_objective,
    flow_to_allocation,
)
from .model import Allocation


@dataclass
class SolveStats:
    nodes_explored: int = 0
    bound_solves: int = 0
    pruned_infeasible: int = 0
    pruned_bound: int = 0
    pruned_completion: int = 0  # relaxed flow spelled a completion
    incumbent_updates: int = 0  # completions that replaced the incumbent
    augmentations: int = 0  # paths pushed, one unit each, over every flow solve
    wall_time: float = field(default=0.0, compare=False)

    @property
    def fixed_delta_solves(self) -> int:
        """Every flow solve: one relaxation bound per node.  Kept for the
        benchmark's tracer, which reads it; it goes with ROADMAP item 1."""
        return self.bound_solves


@dataclass(frozen=True)
class SolveResult:
    flow: Tuple[int, ...]  # the kernel's optimal flow, one entry per edge
    gain: int  # the flow's gain, the sum of its edges' gains (`graph`)
    objective: Fraction
    allocation: Allocation
    stats: SolveStats
    # The root's solved state, its potentials in gains of `unit`, the
    # graph's S * P: read by `solve` when this result starts the root of a
    # solve of another graph at the same unit.
    root: FlowState = field(compare=False, repr=False)
    unit: int = field(compare=False, repr=False)


class SolverError(ValueError):
    pass


def _resolved_bounds(graph: AuxGraph, partial_delta: DeltaAssignment
                     ) -> Tuple[List[int], List[int]]:
    """Per-edge integer (lower, upper) bounds under a (possibly partial)
    assignment.

    Aircraft absent from `partial_delta` are undecided: their departure
    edges (`AuxGraph.departure_times`) keep the relaxed [0, 1], a valid
    superset of every completion, since the aircraft may also stay and
    use none of them.  Deciding an aircraft at tau raises the lower bound
    of its departure edge at tau to 1 and cuts the upper bounds of its
    other departure edges to 0; deciding that it
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


def solve_fixed_delta(graph: AuxGraph, delta: DeltaAssignment, *,
                      stats: Optional[SolveStats] = None
                      ) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """The gain of the kernel's maximum-gain integral flow for a fully
    fixed departure-time assignment, and the flow; None when the fixed
    bounds admit no balanced flow.  The solve starts cold.  Kept for the
    benchmark's tracer, which wraps it, and the tests' exhaustive
    reference; it goes with ROADMAP item 1.
    """
    times = graph.departure_times
    if set(delta) != set(times):
        raise SolverError("delta must assign every aircraft exactly once")
    for pair, tau in delta.items():
        if tau and tau not in times[pair]:
            raise SolverError(f"aircraft {pair} has no departure time {tau}")
    relaxed = relaxation_bound(graph, delta, stats=stats)
    return None if relaxed is None else (relaxed[0], tuple(relaxed[1].flows))


def relaxation_bound(graph: AuxGraph, partial_delta: DeltaAssignment, *,
                     start: Optional[FlowState] = None,
                     stats: Optional[SolveStats] = None
                     ) -> Optional[Tuple[int, FlowState]]:
    """Admissible upper bound, in gain units, for every completion of
    `partial_delta`, with the solved state whose flow attains it; None
    when no completion is feasible.  The solve starts from `start`, the
    state of a solve on this graph or any other balanced state, which
    the kernel repairs where it sets it up (see `flow`), or cold; adds
    the paths the kernel pushed to `stats` if given."""
    state, pushed = min_cost_flow(
        graph.network, *_resolved_bounds(graph, partial_delta),
        graph.network.cold if start is None else start)
    if stats is not None:
        stats.augmentations += pushed
    return None if state is None else (-state.residual.cost, state)


def _split_aircraft(graph: AuxGraph, flows: Sequence[int]
                    ) -> Optional[Tuple[str, str]]:
    """The first aircraft, in `departure_times` order, that a relaxed flow
    gives two or more units on its departure edges; None when the flow
    spells a completion."""
    for pair, carriers in graph.departure_times.items():
        if sum(flows[k] for k in carriers.values()) > 1:
            return pair
    return None


def _solve_bnb(graph: AuxGraph, stats: SolveStats, start: Optional[FlowState] = None
               ) -> Tuple[Optional[int], Optional[Tuple[int, ...]], Optional[FlowState]]:
    """The best completion's gain and flow, (None, None) if none is
    feasible, and the root's solved state (None if the root is
    infeasible); the root's solve starts from `start`, or cold.  One
    loop over a stack of open nodes (module docstring, *Search shape*)."""
    best_gain = best_flow = root = None
    stack = [({}, start)]
    while stack:
        partial, state = stack.pop()
        stats.nodes_explored += 1
        stats.bound_solves += 1
        relaxed = relaxation_bound(graph, partial, start=state, stats=stats)
        if relaxed is None:
            stats.pruned_infeasible += 1
            continue
        bound, state = relaxed
        if not partial:  # the root, the one node with no decision
            root = state
        if best_gain is not None and bound <= best_gain:
            stats.pruned_bound += 1
            continue
        split = _split_aircraft(graph, state.flows)
        if split is None:
            stats.pruned_completion += 1
            stats.incumbent_updates += 1
            best_gain, best_flow = bound, tuple(state.flows)
            continue
        for tau in (0, *reversed(graph.departure_times[split])):
            stack.append(({**partial, split: tau}, state))
    return best_gain, best_flow, root


def solve(graph: AuxGraph, strategy: str = "bnb",
          start: Optional[SolveResult] = None) -> SolveResult:
    """Global welfare maximum over all departure-time assignments, by
    branch-and-bound.

    `start`, if given, is a solve of another graph on the same template
    at the same gain unit, as an auction's cleared solve is for its
    counterfactuals (`graph.counterfactual_graph`); a start at another
    unit raises SolverError.  The root's solve starts from its root as
    it is, instead of the cold state, and the kernel sets up and repairs
    only the edges whose rows differ (see `flow`).  `strategy` accepts
    only ``"bnb"``: it is kept for the benchmark, which passes it
    positionally, and goes with ROADMAP item 1.
    """
    if strategy != "bnb":
        raise SolverError(f"unknown strategy {strategy!r}")
    if start is not None and start.unit != graph.unit:
        raise SolverError(f"start priced at gain unit {start.unit}, "
                          f"the graph at {graph.unit}")
    stats = SolveStats()
    began = time.perf_counter()
    gain, flow, root = _solve_bnb(graph, stats, None if start is None else start.root)
    if flow is None:
        raise SolverError("no feasible departure-time assignment")
    stats.wall_time = time.perf_counter() - began
    return SolveResult(
        flow=flow,
        gain=gain,
        objective=flow_objective(graph, flow, gain),
        allocation=flow_to_allocation(graph, flow),
        stats=stats,
        root=root,
        unit=graph.unit,
    )
