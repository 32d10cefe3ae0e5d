"""Exact min-cost circulation on a compiled network, in plain Python ints.

Every cost and bound of the auxiliary graph is an integer, and its
vertices are numbered so that every edge runs from a lower to a higher
index except edges whose flow is fixed (lower bound = upper bound),
which close the circulation.  `compile_topology` turns such a graph's
edges into residual arcs once; `price_network`, once per cost vector,
adds one cost per arc and the cost rows of the convex edges, so a
priced network is the topology's own arcs plus one cost tuple, and its
cold state is computed on first use; `min_cost_flow` solves one bound
vector on a priced network by successive shortest paths, one unit per
path (Ahuja, Magnanti & Orlin, *Network Flows*, 1993, ch. 9-10),
starting from a given flow and potentials.

Convex edges.  An edge may carry a row of per-unit costs instead of one
cost: its q-th unit costs row[q-1], so carrying f units costs the sum of
the row's first f entries, and its bounds lie within [0, len(row)].  The
row must be non-decreasing (a discrete convex cost), which the kernel
does not check: on any other row a solve can return a flow that is not
optimal.  This is the convex-cost
edge of Ahuja, Magnanti & Orlin, ch. 14, kept as one edge rather than
expanded into parallel unit edges.  At flow f its forward arc costs
row[f], the next unit, and its reverse arc -row[f-1], minus the last
unit; a solve sets both on every edge it sets up and again after every
path across the edge.

State.  A `FlowState` is a flow on every edge and vertex potentials
under which every residual arc with capacity has a non-negative reduced
cost c(u, v) + p(u) - p(v), and it names the prices it holds for: the
`arc_cost` tuple object of the network it was solved on (a network's
cold state names its own).  A solved state also carries its residual
form (`Residual`): its own copy of the bounds it was solved for, the
capacity and the cost of every arc, the convex edges' repriced at the
flow, the flow's cost, which is minus its gain, the convex rows it was
priced with and its own potential object.  A solve starts from a copy
of that form and sets up only the edges that differ from it: those
whose bounds differ, and, from a state solved on other prices, those
whose cost or convex row differs.  Each such edge gets its clamped flow
(and, from other prices, its repaired one, below), its two capacities,
its two arc costs, and its share of the cost: what it costs at the new
flow less what it cost at the start flow.  A cold or hand-made state
has no residual form, so every edge is set up, from a cost of 0.
Clamping moves a set-up edge's start flow into its new bounds.  When
the new bounds narrow those the start state was solved for (lowers
raised, uppers cut), clamping leaves capacity only on residual arcs
that had it before, so the invariant still holds and only the
imbalances clamping created need routing: the state of a solved branch
node starts every solve below it.  On a convex edge, clamping up to a raised lower bound
moves the forward arc to a later unit, which costs no less, and
clamping down to a cut upper bound moves the reverse arc to minus an
earlier unit, which costs no more, so narrowing keeps the invariant
there too.

Repair.  A start that names other prices than the network's, as a
state solved for another cost vector on the same topology, or one made
by hand (None), is repaired after clamping.  Under the start's
potentials, every edge whose forward arc has a negative reduced cost
goes to its upper bound, every edge whose forward arc has a positive
one to its lower bound, and every other edge keeps its flow.  A convex
edge keeps its clamped start flow f if its first f units have
non-positive reduced costs and the others non-negative ones, and
otherwise goes to the nearest such f, found by bisecting its
non-decreasing row; f is then clamped into its bounds.  Afterwards both
residual arcs of a repaired edge have non-negative reduced costs.  An
edge of negative forward reduced cost sits at its upper bound, where
its forward arc has no capacity and its reverse arc costs minus a
negative reduced cost; one of positive reduced cost sits at its lower
bound, the converse; on one of zero reduced cost both arcs cost 0.  A
convex edge at f units has a forward arc costing unit f+1, of
non-negative reduced cost unless f was cut to its upper bound, where
that arc has no capacity, and a reverse arc costing minus unit f, of
non-negative reduced cost unless f was raised to its lower bound, where
that arc has no capacity.  A fixed edge sits at its one bound.  So an
edge that the start's potentials already certify, at the same prices
and bounds, is a fixed point of the repair, and only the edges that
differ need it: a solved state whose potentials are its own, as an
auction's cleared root handed to a counterfactual of the same gain
unit, repairs only the edges it sets up, the re-priced ones and those
whose bounds differ.  A start whose potentials are not the ones it was
solved with (replaced, as converted to another gain unit, or made by
hand) holds for no known prices, and every edge is set up and repaired.
So any balanced start flow with any potentials is a valid start, and
the imbalances the repair creates are routed like those of clamping.  A
start that names the network's prices, a cold root or a solved parent,
skips the repair; such a start must have been solved on bounds that
contain the new ones.

Cold start.  The priced `Network.cold` state, computed when a solve
first asks for it, is the zero flow and the shortest distances, over
the edges that are not fixed, from a root with a 0-cost arc to every
vertex, a convex edge costing its first unit; index order is a
topological order of those edges.  Under them every such edge's forward
arc has a non-negative reduced cost, and clamping the zero flow to the
lower bounds leaves their reverse arcs empty.  A fixed edge's arcs have
no capacity under any bounds within its own, so their reduced costs do
not matter; clamping sets its flow, and the solve routes the imbalances
that creates.

Routing.  Each round runs Dijkstra on reduced costs from every vertex
with excess at once and stops at the nearest vertex with a deficit.  The
potentials absorb the distances, capped at the deficit's (which keeps
every reduced cost non-negative and zeroes them along the path), and
one walk back from the deficit moves one unit along the path.

Certification.  With no negative reduced cost, Dijkstra settles the
vertices in non-decreasing distance (Ahuja, Magnanti & Orlin, ch. 9),
and each round checks exactly that, from a last settled distance of 0:
a vertex that settles nearer than the one settled before it raises
ValueError, for then the start's potentials do not certify the prices
it names.  That one check ends every solve.  A vertex can settle a
second time only through an entry nearer than its first settle, so
below the last settled distance: the check refuses it, and each vertex
settles at most once per round.  A vertex's predecessor settled before
it, and is never replaced once the vertex has settled, since that too
pushes an entry below the last settled distance, which pops, and is
refused, before the deficit can settle.  A source, at distance 0,
never gets a predecessor, since that needs an entry below 0.  So the
walk back passes vertices settled ever earlier and always ends at a
source.  The check sees only the arcs a round relaxes: a start whose
negative reduced costs lie only on arcs no round relaxes still goes
unnoticed and can give a flow that is not optimal.

Paths.  Every edge follows one rule: a path moves one unit, after which
the arc in the pushed direction costs the next unit, no less by
convexity (the same cost on an edge with one cost), and the opposite
arc minus the pushed unit, at reduced cost 0, so the invariant holds.
An imbalance of u units takes u paths.  A path from source s to
deficit t costs the sum of its arcs' costs, which is its Dijkstra
distance on reduced costs plus p(t) - p(s) under the potentials before
the round, so dist(t) + p_old(t) - p(s): p(s) does not move, s being at
distance 0.  The state's cost moves by that much per path and by each
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
from typing import List, Mapping, NamedTuple, Optional, Sequence, Tuple


class Residual(NamedTuple):
    """The residual form of a solved state: its own copy of the bounds it
    was solved for, the capacity and the cost of every arc (a convex
    edge's repriced at its flow), the flow's cost, minus its gain, and
    the convex rows it was priced with.  `potential` is the state's own
    potential object: a state whose potentials were replaced is told
    apart by it."""

    lower: Tuple[int, ...]
    upper: Tuple[int, ...]
    cap: List[int]
    arc_cost: List[int]
    cost: int
    rows: Mapping[int, Tuple[int, ...]]
    potential: Sequence[int]


class FlowState(NamedTuple):
    """Flow per edge and potentials, and the prices those potentials
    certify: the `Network.arc_cost` tuple of the network that solved the
    state, or None.  A solved state also carries its residual form; a
    cold or hand-made one has none."""

    flows: Sequence[int]
    potential: Sequence[int]
    prices: Optional[Tuple[int, ...]] = None
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
    """A topology priced by one cost vector: the topology's own arcs,
    one cost per arc and the cost rows of the convex edges."""

    topology: Topology
    # Arc 2k costs costs[k], its reverse -costs[k]; a convex edge's
    # costs[k] is its first unit's, which a solve reprices from its flow.
    arc_cost: Tuple[int, ...]
    rows: Mapping[int, Tuple[int, ...]]  # convex edge -> cost of each unit

    @cached_property
    def cold(self) -> FlowState:
        """The cold start state these costs certify: the zero flow and, as
        potentials, the shortest distances over the edges that are not
        fixed from a root with a 0-cost arc to every vertex, found in one
        pass over the vertices in index order; computed on first use."""
        topology = self.topology
        costs, heads = self.arc_cost[0::2], topology.heads
        potential = [0] * len(topology.arcs)
        for u, out in enumerate(topology.out_edges):
            base = potential[u]
            for k in out:
                reach = base + costs[k]
                if reach < potential[heads[k]]:
                    potential[heads[k]] = reach
        return FlowState((0,) * len(topology.tails), tuple(potential), self.arc_cost)


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
    return Topology(tuple(tails), tuple(heads), tuple(arc_head),
                    tuple(map(tuple, arcs)), tuple(map(tuple, out)))


def price_network(topology: Topology, costs: Sequence[int],
                  rows: Mapping[int, Tuple[int, ...]]) -> Network:
    """`topology` and `rows`, shared and not copied, with one cost per
    edge as one cost per residual arc, each convex edge k costing the
    units of the non-decreasing rows[k] (its costs[k] is not read)."""
    costs = list(costs)
    for k, row in rows.items():
        costs[k] = row[0] if row else 0
    arc_cost = [0] * len(topology.arc_head)
    arc_cost[0::2] = costs
    arc_cost[1::2] = [-c for c in costs]
    return Network(topology, tuple(arc_cost), rows)


def min_cost_flow(network: Network, lower: Sequence[int], upper: Sequence[int],
                  start: FlowState) -> Tuple[Optional[FlowState], int]:
    """Cheapest circulation with lower[k] <= flow[k] <= upper[k] on every
    edge, from `start`, with the state's prices `network.arc_cost` and
    its residual form, whose cost is minus the flow's gain; None if there
    is none.  Also returns the number of augmenting paths pushed, each
    one unit, so also the units routed.  A start that names this
    network's prices (`network.cold`, or the state of a solve on it
    whose bounds contain these) is used as it is; any other balanced
    start is repaired first.  A start with a residual form sets up only
    the edges whose bounds or prices differ from those it was solved
    for, and, if its potentials are its own, repairs only those; any
    other start sets up, and repairs, every edge (module docstring).
    Dijkstra walks the topology's arcs and reads their costs, the convex
    edges' repriced from the flow, on those with capacity.  Raises
    ValueError if, in a Dijkstra round, a vertex settles nearer than the
    vertex settled before it, as on a negative reduced cost from a start
    that names this network's prices but was solved on bounds that do
    not contain these, or whose potentials were never solved.  That
    check alone ends every solve: it lets each vertex settle at most
    once per round, and it keeps every predecessor settled before its
    successor and every source, at distance 0, without one, so each path
    walked back from a deficit ends at a source (module docstring).  A
    start whose negative reduced costs lie only on arcs no round relaxes
    goes unnoticed and can give a flow that is not optimal."""
    topology, prices, rows = network.topology, network.arc_cost, network.rows
    tails, heads = topology.tails, topology.heads
    repair = start.prices is not prices
    old = start.residual
    if old is not None and repair and old.potential is not start.potential:
        old = None  # potentials not the solved ones: repair every edge
    flows = list(start.flows)
    if old is None:
        cap, arc_cost, cost = [0] * len(topology.arc_head), list(prices), 0
        touched = range(len(flows))
    else:
        cap, arc_cost, cost = list(old.cap), list(old.arc_cost), old.cost
        touched = set(compress(count(), map(ne, lower, old.lower)))
        touched.update(compress(count(), map(ne, upper, old.upper)))
        if repair:
            touched.update(a >> 1 for a in compress(count(), map(ne, prices, start.prices)))
        if rows is not old.rows:
            touched.update(k for k in rows.keys() | old.rows.keys()
                           if rows.get(k) != old.rows.get(k))

    def reprice(k: int, row: Tuple[int, ...], f: int) -> None:
        """Convex edge k's arcs at f units: the next unit's cost, minus
        the last's."""
        arc_cost[2 * k] = row[f] if f < len(row) else 0
        arc_cost[2 * k + 1] = -row[f - 1] if f else 0

    potential = start.potential
    excess = defaultdict(int)  # inflow minus outflow
    for k in touched:
        low, up, f0 = lower[k], upper[k], flows[k]
        if low > up:
            return None, 0
        f = up if f0 > up else (low if f0 < low else f0)
        row = rows.get(k)
        if repair:
            slack = potential[tails[k]] - potential[heads[k]]
            if row is None:
                reduced = prices[2 * k] + slack
                f = up if reduced < 0 else (low if reduced > 0 else f)
            else:  # every unit of negative reduced cost, none of positive
                f = min(max(f, bisect_left(row, -slack)), bisect_right(row, -slack))
                f = min(max(f, low), up)
        if f != f0:
            flows[k] = f
            excess[heads[k]] += f - f0
            excess[tails[k]] -= f - f0
        cap[2 * k], cap[2 * k + 1] = up - f, f - low
        if row is None:
            arc_cost[2 * k], arc_cost[2 * k + 1] = prices[2 * k], -prices[2 * k]
            cost += prices[2 * k] * f
        else:
            reprice(k, row, f)
            cost += sum(row[:f])
        if old is not None:  # less what the edge cost at its start flow
            old_row = old.rows.get(k)
            cost -= start.prices[2 * k] * f0 if old_row is None else sum(old_row[:f0])

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
        while heap:
            d, u = heappop(heap)
            if d > dist[u]:
                continue
            if d < last:
                raise ValueError("start state is not certified: vertices settled out of order")
            last = d
            if u == target:
                break
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
        potential = [p + (d if d < span else span)
                     for p, d in zip(potential, dist)]
        v = target
        while prev[v] >= 0:  # back to a source, whose prev stays -1
            a = prev[v]
            k = a >> 1
            cap[a] -= 1
            cap[a ^ 1] += 1
            flows[k] += 1 - 2 * (a & 1)
            if k in rows:
                reprice(k, rows[k], flows[k])
            v = arc_head[a ^ 1]
        cost += potential[target] - potential[v]  # the path's cost
        excess[v] -= 1
        excess[target] += 1
        pushed += 1
    state = Residual(tuple(lower), tuple(upper), cap, arc_cost, cost, rows, potential)
    return FlowState(flows, potential, prices, state), pushed
