"""Exact min-cost circulation on a compiled DAG, in plain Python ints.

The auxiliary graph is acyclic apart from the return edge that closes
its circulation (time only moves forward), every cost and bound is an
integer, and the return edge carries at most one unit per aircraft.
`compile_network` turns such a graph into a residual-network template
once; `min_cost_flow` copies the template's capacities for one bound
vector and solves it by successive shortest paths (Ahuja, Magnanti &
Orlin, *Network Flows*, 1993, ch. 9).

Reduction.  Lower bounds are shifted into vertex excesses.  A
super-source S* gets an arc to every vertex with positive excess and a
super-sink T* an arc from every vertex with negative excess, each of
cost -BIG, where BIG = sum(|cost| * capacity) + 1 is more than the cost
spread of all flows.  The return edge sink -> source becomes the two
arcs S* -> source and sink -> T*, of cost 0 and the return capacity.
The cheapest S*-T* flow of any value therefore puts as many units as
possible on the -BIG arcs, and only then lowers the cost.  The bounds
are feasible iff that flow saturates every excess arc *and* every
deficit arc: then S* -> source and sink -> T* carry the same amount,
the return flow, and the edge flows plus the lower bounds are a
cheapest feasible circulation.

Successive shortest paths.  The residual network starts acyclic, so one
pass in topological order gives potentials under which every reduced
cost is non-negative.  Each round, Dijkstra finds a cheapest S*-T* path
in reduced costs, the potentials absorb its distances (which keeps the
reduced costs non-negative) and the path's bottleneck is augmented.
Rounds stop when the cheapest path costs 0 or more, or T* is
unreachable.  Each round moves at least one unit, so there are at most
total excess plus return capacity rounds.

Every S*-T* path leaves S* once and enters T* once, so the kernel adds
BIG to the cost of every arc out of S* and into T*.  Paths keep their
order; the excess and deficit arcs cost 0, the return arcs BIG, and a
path is worth augmenting iff it costs less than 2 * BIG, which also
bounds how far each Dijkstra search goes.  The starting potentials do
not depend on BIG, so they are compiled once.  Arcs
into S* and out of T* are never on a shortest S*-T* path and are not
searched.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from operator import add, mul, sub
from typing import List, Optional, Sequence, Tuple

Arc = Tuple[int, int, int]  # (arc id, head vertex, cost)


@dataclass(frozen=True)
class Network:
    """Residual-network template of a DAG closed by a return edge.

    Vertices 0..n-1 are the graph's, n is S* and n+1 is T*.  Edge k owns
    arc 2k (tail -> head) and its reverse 2k+1; vertex v's excess arc is
    2m+2v and its deficit arc 2m+2n+2v; the return arcs are 2m+4n
    (S* -> source) and 2m+4n+2 (sink -> T*).  Arc a's reverse is a ^ 1.
    """

    tails: Tuple[int, ...]
    heads: Tuple[int, ...]
    abs_costs: Tuple[int, ...]
    source: int
    sink: int
    return_capacity: int
    arc_head: Tuple[int, ...]
    # Arcs out of each vertex; S*'s arcs and the sink's return arc
    # depend on the bound vector and are added per solve.
    adjacency: Tuple[Tuple[Arc, ...], ...]
    potential: Tuple[int, ...]  # starting potentials, S* and T* included


def compile_network(vertex_count: int, tails: Sequence[int], heads: Sequence[int],
                    costs: Sequence[int], source: int, sink: int,
                    return_capacity: int) -> Network:
    """Residual template of the edges (tails[k], heads[k]) with `costs`,
    closed by a sink -> source edge of `return_capacity`.  The edges
    must form a DAG."""
    n, m = vertex_count, len(tails)
    star, terminal = n, n + 1
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

    # Shortest distances from S*, whose arcs cost 0 to every vertex.
    potential = [0] * (n + 2)
    for u in order:
        for k in out[u]:
            reach = potential[u] + costs[k]
            if reach < potential[heads[k]]:
                potential[heads[k]] = reach
    potential[terminal] = min(potential[:n])

    arc_head = [0] * (2 * m + 4 * n + 4)
    adjacency: List[List[Arc]] = [[] for _ in range(n + 2)]
    for k, (u, v, c) in enumerate(zip(tails, heads, costs)):
        arc_head[2 * k], arc_head[2 * k + 1] = v, u
        adjacency[u].append((2 * k, v, c))
        adjacency[v].append((2 * k + 1, u, -c))
    for v in range(n):
        arc_head[2 * m + 2 * v], arc_head[2 * m + 2 * v + 1] = v, star
        deficit = 2 * m + 2 * n + 2 * v
        arc_head[deficit], arc_head[deficit + 1] = terminal, v
        adjacency[v].append((deficit, terminal, 0))
    back = 2 * m + 4 * n
    arc_head[back:back + 4] = source, star, terminal, sink
    return Network(tuple(tails), tuple(heads), tuple(abs(c) for c in costs),
                   source, sink, return_capacity, tuple(arc_head),
                   tuple(map(tuple, adjacency)), tuple(potential))


def min_cost_flow(network: Network, lower: Sequence[int], upper: Sequence[int]
                  ) -> Optional[List[int]]:
    """Cheapest edge flows with lower[k] <= flow[k] <= upper[k] that,
    with some return flow, balance at every vertex; None if there are
    none."""
    m = len(network.tails)
    n = len(network.adjacency) - 2
    star, terminal = n, n + 1
    caps = list(map(sub, upper, lower))
    if caps and min(caps) < 0:
        return None
    cap = [0] * len(network.arc_head)
    cap[0:2 * m:2] = caps
    excess = [0] * n
    heads, tails = network.heads, network.tails
    for k, low in enumerate(lower):
        if low:
            excess[heads[k]] += low
            excess[tails[k]] -= low

    big = sum(map(mul, network.abs_costs, caps)) + 1
    back = 2 * m + 4 * n
    cap[back] = cap[back + 2] = network.return_capacity
    first: List[Arc] = [(back, network.source, big)]
    for v, units in enumerate(excess):
        if units > 0:
            cap[2 * m + 2 * v] = units
            first.append((2 * m + 2 * v, v, 0))
        elif units < 0:
            cap[2 * m + 2 * n + 2 * v] = -units
    adjacency = list(network.adjacency)
    adjacency[star] = first
    adjacency[network.sink] += ((back + 2, terminal, big),)

    potential = list(network.potential)
    arc_head = network.arc_head
    while True:
        # Reduced distance a path must stay below to cost less than
        # 2 * BIG; S*'s potential stays 0.
        limit = 2 * big - potential[terminal]
        dist = [limit] * (n + 2)
        prev = [0] * (n + 2)
        dist[star] = 0
        heap = [(0, star)]
        while heap:
            d, u = heappop(heap)
            if u == terminal:
                break
            if d > dist[u]:
                continue
            base = d + potential[u]
            for a, v, c in adjacency[u]:
                if cap[a]:
                    reach = base + c - potential[v]
                    # A vertex no nearer than T* cannot shorten the path,
                    # and its potential gains T*'s distance either way.
                    if reach < dist[v] and reach < dist[terminal]:
                        dist[v] = reach
                        prev[v] = a
                        heappush(heap, (reach, v))
        else:
            break  # no path costs less than 2 * BIG
        span = dist[terminal]
        potential = [p + (d if d < span else span)
                     for p, d in zip(potential, dist)]
        push = cap[prev[terminal]]
        v = terminal
        while v != star:
            a = prev[v]
            push = min(push, cap[a])
            v = arc_head[a ^ 1]
        v = terminal
        while v != star:
            a = prev[v]
            cap[a] -= push
            cap[a ^ 1] += push
            v = arc_head[a ^ 1]

    if any(cap[2 * m:back:2]):
        return None
    return list(map(add, lower, cap[1:2 * m:2]))
