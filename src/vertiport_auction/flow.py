"""Exact min-cost circulation on a compiled network, in plain Python ints.

Every bound and cost of the auxiliary graph is an integer, and its
vertices are numbered so that every edge runs from a lower to a higher
index except edges whose flow is fixed (lower bound = upper bound),
which close the circulation.  `compile_topology` turns such a graph's
edges into residual arcs once; a `Network` is that topology with one
row of unit costs per edge, and `min_cost_flow` solves one bound vector
on it by successive shortest paths, one unit per path (Ahuja, Magnanti
& Orlin, *Network Flows*, 1993, ch. 9-10), from a given flow and
potentials.

Edges.  Every edge has one form: a row of per-unit costs, its q-th unit
costing row[q-1], so carrying f units costs the sum of the row's first
f entries, and its bounds lie within [0, len(row)].  The row must be
non-decreasing (a discrete convex cost), which the kernel does not
check: on any other row a solve can return a flow that is not optimal.
This is the convex-cost edge of Ahuja, Magnanti & Orlin, ch. 14, kept
as one edge rather than expanded into parallel unit edges; an edge of
one cost c and capacity u is the row of u entries c.  At flow f its
forward arc costs row[f], the next unit, and its reverse arc -row[f-1],
minus the last unit, each 0 where there is no such unit, which leaves
that arc no capacity.

State.  A `FlowState` is a balanced flow on every edge and vertex
potentials; they certify the flow when every residual arc with
capacity has a non-negative reduced cost c(u, v) + p(u) - p(v).  A
solved state also carries its residual form (`Residual`): its own copy
of the bounds it was solved for, the capacity and the cost of every
arc, the flow's cost, which is minus its gain, the rows it was priced
with and its own potential object.  A solve starts from a copy of that
form and sets up only the edges whose bounds or rows differ from it.
A start with no residual form, as a cold or hand-made one, or whose
potentials are not its residual's (replaced), has every edge set up,
from a cost of 0.  Each set-up edge
gets its repaired flow, its two capacities, its two arc costs and its
share of the cost: what it costs at the new flow less what it cost at
the start flow, under the start's row.

Repair.  One rule sets every set-up edge's flow, under the start's
potentials: the edge takes the flow nearest its start flow at which
its units before it have non-positive reduced costs and the others
non-negative ones, found by bisecting its non-decreasing row, and that
flow is then clamped into its bounds.  Afterwards both residual arcs of
the edge have non-negative reduced costs: at f units the forward arc
costs unit f+1, of non-negative reduced cost unless f was cut to its
upper bound, where that arc has no capacity, and the reverse arc costs
minus unit f, of non-negative reduced cost unless f was raised to its
lower bound, where that arc has no capacity; a fixed edge sits at its
one bound.  An edge whose flow the start's potentials certify within
bounds that contain the new ones lands exactly where clamping puts it:
its start flow, or the nearer new bound when the bounds were narrowed.
So every edge a solve does not set up, which a solved state with its
own potentials certifies at the same bounds and rows, is a fixed point
of the repair, and only the edges that differ need it: the state of a
solved branch node starts every solve below it, repairing the edges
whose bounds the node's decision changed, and an auction's cleared
root starts each counterfactual derived from it, repairing the
re-priced edges.  So any balanced start flow with any potentials is a
valid start, and the imbalances the repair creates are routed.

Cold start.  The `Network.cold` state, computed when a solve first asks
for it, is the zero flow and the shortest distances, over the edges
that are not fixed, from a root with a 0-cost arc to every vertex, an
edge costing its first unit; index order is a topological order of
those edges.  Under them every such edge's forward arc has a
non-negative reduced cost, so the repair leaves it at its lower bound.
A fixed edge's arcs have no capacity under any bounds within its own;
the repair sets its flow, and the solve routes the imbalances that
creates.

Routing.  Each round runs Dijkstra on reduced costs from every vertex
with excess at once and stops at the nearest vertex with a deficit.  The
potentials absorb the distances, capped at the deficit's (which keeps
every reduced cost non-negative and zeroes them along the path), less
that cap: a constant, which moves no reduced cost, so only the vertices
settled before the deficit move, each down by the deficit's distance
less its own.  A solve copies its start's potentials once and moves
them in place.  One walk back from the deficit moves one unit along the
path.

Certification.  With no negative reduced cost, Dijkstra settles the
vertices in non-decreasing distance (Ahuja, Magnanti & Orlin, ch. 9),
and each round checks exactly that, from a last settled distance of 0:
a vertex that settles nearer than the one settled before it raises
ValueError, for then the start's potentials do not certify the edges
the solve did not set up.  That one check ends every solve.  A vertex
can settle a second time only through an entry nearer than its first
settle, so below the last settled distance: the check refuses it, and
each vertex settles at most once per round.  A vertex's predecessor
settled before it, and is never replaced once the vertex has settled,
since that too pushes an entry below the last settled distance, which
pops, and is refused, before the deficit can settle.  A source, at
distance 0, never gets a predecessor, since that needs an entry below
0.  So the walk back passes vertices settled ever earlier and always
ends at a source.  The check sees only the arcs a round relaxes: a
start whose negative reduced costs lie only on arcs no round relaxes
still goes unnoticed and can give a flow that is not optimal.

Paths.  A path moves one unit, after which the arc in the pushed
direction costs the next unit, no less by convexity, and the opposite
arc minus the pushed unit, at reduced cost 0, so the invariant holds.
An imbalance of u units takes u paths.  A path from source s to
deficit t costs the sum of its arcs' costs, which is its Dijkstra
distance on reduced costs plus p(t) - p(s) under the potentials before
the round, so p(t) - p(s) under those after it: p(t) does not move, t
being at the cap, and p(s) falls by dist(t), s being at distance 0.  The
state's cost moves by that much per path and by each
set-up edge's share, so a solve reads its gain off the state, with no
walk over the edges.  The state stays optimal for its own imbalances,
so once none are left it is a cheapest feasible circulation.  If some
excess cannot reach a deficit, the vertices it reaches form a cut whose
bounds cannot balance (Hoffman's circulation theorem) and the bounds
are infeasible.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import compress, count
from operator import ne
from typing import List, NamedTuple, Optional, Sequence, Tuple

Rows = Tuple[Tuple[int, ...], ...]  # per edge, the cost of each unit


class Residual(NamedTuple):
    """The residual form of a solved state: its own copy of the bounds it
    was solved for, the capacity and the cost of every arc at its flow,
    the flow's cost, minus its gain, and the rows it was priced with.
    `potential` is the state's own potential object: a state whose
    potentials were replaced is told apart by it."""

    lower: Tuple[int, ...]
    upper: Tuple[int, ...]
    cap: List[int]
    arc_cost: List[int]
    cost: int
    rows: Rows
    potential: Sequence[int]


class FlowState(NamedTuple):
    """Flow per edge and potentials.  A solved state also carries its
    residual form; a cold or hand-made one has none."""

    flows: Sequence[int]
    potential: Sequence[int]
    residual: Optional[Residual] = None


@dataclass(frozen=True)
class Topology:
    """The cost-free part of the residual network of a circulation.

    Edge k owns arc 2k (tail -> head) and its reverse 2k+1, so arc a's
    reverse is a ^ 1.
    """

    tails: Tuple[int, ...]
    heads: Tuple[int, ...]
    arc_head: Tuple[int, ...]
    arcs: Tuple[Tuple[Tuple[int, int], ...], ...]  # (arc id, head) out of each vertex
    out_edges: Tuple[Tuple[int, ...], ...]  # edges not fixed out of each vertex


@dataclass(frozen=True)
class Network:
    """A topology priced by one non-decreasing row of unit costs per edge."""

    topology: Topology
    rows: Rows

    @cached_property
    def cold(self) -> FlowState:
        """The cold start state: the zero flow and, as potentials, the
        shortest distances over the edges that are not fixed, each costing
        its first unit, from a root with a 0-cost arc to every vertex,
        found in one pass over the vertices in index order; computed on
        first use."""
        topology, rows = self.topology, self.rows
        heads = topology.heads
        potential = [0] * len(topology.arcs)
        for u, out in enumerate(topology.out_edges):
            base = potential[u]
            for k in out:
                reach = base + rows[k][0]
                if reach < potential[heads[k]]:
                    potential[heads[k]] = reach
        return FlowState((0,) * len(rows), tuple(potential))


def compile_topology(vertex_count: int, tails: Sequence[int], heads: Sequence[int],
                     lower: Sequence[int], upper: Sequence[int]) -> Topology:
    """Residual arcs of the edges (tails[k], heads[k]) with bounds
    [lower[k], upper[k]].  Every edge that is not fixed (lower[k] !=
    upper[k]) must run from a lower to a higher vertex index; raises
    ValueError otherwise."""
    out: List[List[int]] = [[] for _ in range(vertex_count)]
    arc_head = [0] * (2 * len(tails))
    arcs: List[List[Tuple[int, int]]] = [[] for _ in range(vertex_count)]
    for k, (u, v) in enumerate(zip(tails, heads)):
        if lower[k] != upper[k]:
            if u >= v:
                raise ValueError(f"edge {k} ({u} -> {v}) is not fixed and runs backward")
            out[u].append(k)
        arc_head[2 * k], arc_head[2 * k + 1] = v, u
        arcs[u].append((2 * k, v))
        arcs[v].append((2 * k + 1, u))
    # Tuples from lists, not `map`: see `graph.compile_template`.
    return Topology(tuple(tails), tuple(heads), tuple(arc_head),
                    tuple([tuple(vertex) for vertex in arcs]),
                    tuple([tuple(vertex) for vertex in out]))


def min_cost_flow(network: Network, lower: Sequence[int], upper: Sequence[int],
                  start: FlowState) -> Tuple[Optional[FlowState], int]:
    """Cheapest circulation with lower[k] <= flow[k] <= upper[k] on every
    edge, from the balanced flow and potentials of `start`, with its
    residual form, whose cost is minus the flow's gain; None if there is
    none.  Also returns the number of augmenting paths pushed, each one
    unit, so also the units routed.  A start whose residual form holds
    its own potentials sets up only the edges whose bounds or rows differ
    from those it was solved for; any other start sets up every edge.
    Every set-up edge is repaired by its row (module docstring).
    Dijkstra walks the topology's arcs and reads their costs on those
    with capacity.  Raises ValueError if, in a Dijkstra round, a vertex
    settles nearer than the vertex settled before it, as on a negative
    reduced cost the start's potentials leave on an edge the solve did
    not set up.  That check alone ends every solve: it lets each vertex
    settle at most once per round, and it keeps every predecessor settled
    before its successor and every source, at distance 0, without one, so
    each path walked back from a deficit ends at a source (module
    docstring).  A start whose negative reduced costs lie only on arcs no
    round relaxes goes unnoticed and can give a flow that is not
    optimal."""
    topology, rows = network.topology, network.rows
    tails, heads = topology.tails, topology.heads
    old = start.residual
    if old is not None and old.potential is not start.potential:
        old = None  # potentials not the solved ones: set up every edge
    flows = list(start.flows)
    if old is None:
        cap, arc_cost, cost = [0] * len(topology.arc_head), [0] * len(topology.arc_head), 0
        touched = range(len(flows))
    else:
        cap, arc_cost, cost = list(old.cap), list(old.arc_cost), old.cost
        touched = set(compress(count(), map(ne, lower, old.lower)))
        touched.update(compress(count(), map(ne, upper, old.upper)))
        if rows is not old.rows:
            touched.update(compress(count(), map(ne, rows, old.rows)))

    potential = list(start.potential)  # the solve's own, moved in place by each round
    excess = defaultdict(int)  # inflow minus outflow
    for k in touched:
        low, up, f0 = lower[k], upper[k], flows[k]
        if low > up:
            return None, 0
        row = rows[k]
        f = up if f0 > up else (low if f0 < low else f0)
        # A unit costing less than `rise` has a negative reduced cost, one
        # costing more a positive one.
        rise = potential[heads[k]] - potential[tails[k]]
        if f < up and row[f] < rise:  # take every unit of the first kind
            f = min(bisect_left(row, rise), up)
        elif f > low and row[f - 1] > rise:  # and none of the second
            f = max(bisect_right(row, rise), low)
        if f != f0:
            flows[k] = f
            excess[heads[k]] += f - f0
            excess[tails[k]] -= f - f0
        cap[2 * k], cap[2 * k + 1] = up - f, f - low
        arc_cost[2 * k] = row[f] if f < len(row) else 0
        arc_cost[2 * k + 1] = -row[f - 1] if f else 0
        if f:
            cost += sum(row[:f])
        if f0 and old is not None:  # less what the edge cost at its start flow
            cost -= sum(old.rows[k][:f0])

    arcs, arc_head = topology.arcs, topology.arc_head
    inf = float("inf")
    pushed = 0
    while True:
        heap = [(0, v) for v, units in excess.items() if units > 0]
        if not heap:  # imbalances sum to 0, so none is left
            break
        dist = [inf] * len(potential)
        prev = [-1] * len(potential)
        for _, v in heap:
            dist[v] = 0
        heapify(heap)
        deficits = {v for v, units in excess.items() if units < 0}
        target, cutoff = None, inf  # nearest deficit found so far
        last = 0  # distance of the vertex settled last
        settled = []  # before the deficit
        while heap:
            d, u = heappop(heap)
            if d > dist[u]:
                continue
            if d < last:
                raise ValueError("start state is not certified: vertices settled out of order")
            last = d
            if u == target:
                break
            settled.append(u)
            base = d + potential[u]
            for a, v in arcs[u]:
                if cap[a]:
                    reach = base + arc_cost[a] - potential[v]
                    if reach < dist[v] and reach < cutoff:
                        dist[v] = reach
                        prev[v] = a
                        heappush(heap, (reach, v))
                        if v in deficits:
                            target, cutoff = v, reach
        if target is None:
            return None, pushed
        span = dist[target]
        for u in settled:
            potential[u] -= span - dist[u]
        v = target
        while prev[v] >= 0:  # back to a source, whose prev stays -1
            a = prev[v]
            k = a >> 1
            cap[a] -= 1
            cap[a ^ 1] += 1
            f = flows[k] = flows[k] + 1 - 2 * (a & 1)
            row = rows[k]
            arc_cost[2 * k] = row[f] if f < len(row) else 0
            arc_cost[2 * k + 1] = -row[f - 1] if f else 0
            v = arc_head[a ^ 1]
        cost += potential[target] - potential[v]  # the path's cost
        excess[v] -= 1
        excess[target] += 1
        pushed += 1
    state = Residual(tuple(lower), tuple(upper), cap, arc_cost, cost, rows, potential)
    return FlowState(flows, potential, state), pushed
