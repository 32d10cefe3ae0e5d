"""Exact min-cost circulation on a compiled DAG, in plain Python ints.

The auxiliary graph is acyclic apart from the return edge that closes
its circulation (time only moves forward), every cost and bound is an
integer, and the return edge, sink -> source, costs 0 and carries at
most one unit per aircraft.  `compile_network` turns such a graph into
a residual-network template once; `min_cost_flow` solves one bound
vector on it by successive shortest paths (Ahuja, Magnanti & Orlin,
*Network Flows*, 1993, ch. 9-10), starting from a given flow and
potentials.

State.  A `FlowState` is a flow on every edge, the return edge
included, and vertex potentials under which every residual arc with
capacity has a non-negative reduced cost c(u, v) + p(u) - p(v).  A
solve clamps the start flow into the new bounds.  When the new bounds
narrow those the start state was solved for (lowers raised, uppers cut),
clamping leaves capacity only on residual arcs that had it before, so
the invariant still holds and only the imbalances clamping created need
routing: the state of a solved branch node starts every solve below it.

Cold start.  The compiled `Network.cold` state is the zero flow and the
shortest distances in the DAG from a root with a 0-cost arc to every
vertex.  Under them every edge's forward arc has a non-negative reduced
cost, and clamping the zero flow to the lower bounds leaves the reverse
arcs empty.  Only the return arc's, p(sink) - p(source), can be
negative; the solve saturates it when it is, and routes the imbalance
that creates with the others.

Routing.  Each round runs Dijkstra on reduced costs from every vertex
with excess at once and stops at the nearest vertex with a deficit.  The
potentials absorb the distances, capped at the deficit's (which keeps
every reduced cost non-negative and zeroes them along the path), and
the path's bottleneck, bounded by its end imbalances, is pushed.  The
state stays optimal for its own imbalances, so once none are left it
is a cheapest feasible circulation.  If some excess cannot reach a
deficit, the vertices it reaches form a cut whose bounds cannot
balance (Hoffman's circulation theorem) and the bounds are infeasible.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import compress, count
from operator import ne, sub
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

Arc = Tuple[int, int, int]  # (arc id, head vertex, cost)


class FlowState(NamedTuple):
    """Flow per edge, the return edge last, and certifying potentials."""

    flows: Sequence[int]
    potential: Sequence[int]


@dataclass(frozen=True)
class Network:
    """Residual-network template of a DAG closed by a return edge.

    Edge k owns arc 2k (tail -> head) and its reverse 2k+1, so arc a's
    reverse is a ^ 1; the return edge sink -> source is the last edge.
    """

    tails: Tuple[int, ...]
    heads: Tuple[int, ...]
    source: int
    sink: int
    return_capacity: int
    arc_head: Tuple[int, ...]
    adjacency: Tuple[Tuple[Arc, ...], ...]  # arcs out of each vertex
    cold: FlowState


def compile_network(vertex_count: int, tails: Sequence[int], heads: Sequence[int],
                    costs: Sequence[int], source: int, sink: int,
                    return_capacity: int) -> Network:
    """Residual template of the edges (tails[k], heads[k]) with `costs`,
    closed by a sink -> source edge of `return_capacity`.  The edges
    must form a DAG."""
    n = vertex_count
    out: List[List[int]] = [[] for _ in range(n)]
    indegree = [0] * n
    for k, (u, v) in enumerate(zip(tails, heads)):
        out[u].append(k)
        indegree[v] += 1
    order = [v for v in range(n) if not indegree[v]]
    for u in order:  # Kahn's algorithm; `order` grows while it is read
        for k in out[u]:
            indegree[heads[k]] -= 1
            if not indegree[heads[k]]:
                order.append(heads[k])
    if len(order) != n:
        raise ValueError("flow network edges must form a DAG")
    potential = [0] * n
    for u in order:
        for k in out[u]:
            potential[heads[k]] = min(potential[heads[k]], potential[u] + costs[k])

    tails, heads = tuple(tails) + (sink,), tuple(heads) + (source,)
    arc_head = [0] * (2 * len(tails))
    adjacency: List[List[Arc]] = [[] for _ in range(n)]
    for k, (u, v, c) in enumerate(zip(tails, heads, tuple(costs) + (0,))):
        arc_head[2 * k], arc_head[2 * k + 1] = v, u
        adjacency[u].append((2 * k, v, c))
        adjacency[v].append((2 * k + 1, u, -c))
    return Network(tails, heads, source, sink, return_capacity, tuple(arc_head),
                   tuple(map(tuple, adjacency)),
                   FlowState((0,) * len(tails), tuple(potential)))


def min_cost_flow(network: Network, lower: Sequence[int], upper: Sequence[int],
                  start: FlowState) -> Tuple[Optional[FlowState], int]:
    """Cheapest circulation with lower[k] <= flow[k] <= upper[k] on every
    edge but the return edge, from `start` (`network.cold`, or the state
    of a solve whose bounds contain these); None if there is none.  Also
    returns the number of augmenting paths pushed.  Raises ValueError if
    a Dijkstra round pops more entries than the invariant allows, as on a
    negative-cost residual cycle; a start that breaks the invariant
    otherwise goes unnoticed and can give a flow that is not optimal."""
    flows = [u if f > u else (low if f < low else f)
             for f, low, u in zip(start.flows, lower, upper)]
    back = start.flows[-1]
    if start.potential[network.sink] < start.potential[network.source]:
        back = network.return_capacity  # the return arc's reduced cost is < 0
    flows.append(back)
    m = len(lower)
    cap = [0] * len(network.arc_head)
    cap[0:2 * m:2] = map(sub, upper, flows)
    cap[1:2 * m:2] = map(sub, flows, lower)
    cap[-2:] = network.return_capacity - back, back
    if min(cap) < 0:  # some lower bound exceeds its upper bound
        return None, 0
    excess: Dict[int, int] = defaultdict(int)  # inflow minus outflow
    for k in compress(count(), map(ne, flows, start.flows)):
        change = flows[k] - start.flows[k]
        excess[network.heads[k]] += change
        excess[network.tails[k]] -= change

    potential = list(start.potential)
    adjacency, arc_head = network.adjacency, network.arc_head
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
        for _ in range(len(heap) + len(arc_head)):  # each vertex settles once
            if not heap:
                break
            d, u = heappop(heap)
            if d > dist[u]:
                continue
            if u == target:
                break
            base = d + potential[u]
            for a, v, c in adjacency[u]:
                if cap[a]:
                    reach = base + c - potential[v]
                    if reach < dist[v] and reach < cutoff:
                        dist[v] = reach
                        prev[v] = a
                        heappush(heap, (reach, v))
                        if v in deficits:
                            target, cutoff = v, reach
        else:
            if heap:
                raise ValueError("start state is not certified: Dijkstra did not settle")
        if target is None:
            return None, pushed
        span = dist[target]
        potential = [p + (d if d < span else span)
                     for p, d in zip(potential, dist)]
        push = -excess[target]
        v = target
        while prev[v] >= 0:
            push = min(push, cap[prev[v]])
            v = arc_head[prev[v] ^ 1]
        origin, push = v, min(push, excess[v])
        v = target
        while v != origin:
            a = prev[v]
            cap[a] -= push
            cap[a ^ 1] += push
            v = arc_head[a ^ 1]
        excess[origin] -= push
        excess[target] += push
        pushed += 1
    flows = [low + c for low, c in zip(lower, cap[1::2])]
    flows.append(cap[-1])
    return FlowState(flows, potential), pushed
