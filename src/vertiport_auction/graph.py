"""Time-expanded flow network for the reservation problem.

Builds the auxiliary graph whose max-weight flows correspond one-to-one
with feasible allocations: three vertiport replicas (parking, arrival,
departure) per slot, one vertex per (aircraft, departure time other than
the stay time 0), a source and a sink.  Edge classes:

  E1 arrival gate       Arr(r,t)  -> Park(r,t)   cap [0, A(r,t)]
  E2 departure gate     Park(r,t) -> Dep(r,t)    cap [0, D(r,t)]
  E3 parking bundle     Park(r,t) -> Park(r,t+1) C(r,t) unit edges,
                        q-th weight -lambda*(g(q) - g(q-1))
  E4 departure choice   Dep(o,tau) -> AcDep(i,j,tau)  cap [0, 1]
  E5 route grant        AcDep(i,j,d_k) -> Arr(dest_k, a_k)
                        weight rho*(b_k - b_stay)
  E6 initial fleet      Source -> Park(r,1)  bound = initial(r)
  E8 terminal bundle    Park(r,H) -> Sink   like E3 at slot H

Every aircraft based at r enters at Park(r,1) by E6; an aircraft departs
at tau exactly when its E4 edge at tau carries its unit, and stays
exactly when none of its E4 edges does.  The stay bid is folded into the
route weights, so a stay moves and gains nothing in the graph and
`AuxGraph.stay_welfare`, the fleet's weighted stay bids, is added back
to every flow's weight; some E5 weights are negative.  Every bound is a
plain integer, and the graph's bounds are those of the relaxation with
every aircraft undecided: E4 is [0, 1].  The departure-time decision
delta is encoded once, as `AuxGraph.departure_times`, the E4 edge of
each (aircraft, tau); deciding an aircraft at tau raises the lower bound
of that edge to 1 and cuts its other E4 edges to 0 (the stay, tau 0,
cuts them all), so one graph serves every branch node of the solver, and
no selector object stands for delta in any bound.  The solver branches
on an aircraft whose relaxed flow carries two or more E4 units (see the
`solver` module docstring).  Relaxed, E6 still fixes the units each
vertiport starts with: a relaxed flow cannot move a unit to another
vertiport, and a unit is credited for one aircraft's route at most once.
A graph is built in two stages, and every branch node of a solve shares
the result.  `compile_template` reads no bid: it lays out the vertices
and every edge, computes the E1-E4, E6 and E8 weights and the E5
tie-break bonuses, and compiles the relaxed bounds, the E4 edge of each
(aircraft, tau), the E3/E8 bundles and the flow kernel's topology
(`flow.Topology`: vertex-index tails and heads, a return edge of one
unit per aircraft, residual arcs and a topological order).
`price_graph` reads one bid profile: the E5 weights and `stay_welfare`,
then the scale S, the gains, the arc costs (-gain) and the cold
potentials, in one pass over the cached order (`flow.Network`).  So an
auction compiles one template and prices its clearing profile and each
payment counterfactual on it; `build_graph` is the two stages in a row.

Tie-break.  The solver maximizes one exact integer gain per edge,

  gain(e) = weight(e) * S * P + bonus(e),

where S is the lcm of the weight denominators and P = R^n * M^n, with n
the number of aircraft, R the most departure times and M the largest
menu of any aircraft.  For the aircraft with canonical index a (in
`Instance.iter_aircraft` order) granted the menu key of rank rk in its
sorted menu, departing at the time of rank rtau among its departure
times (stay: time 0, rank 0), let

  grant(a, rtau, rk) = M^n * R^(n-1-a) * (R-1-rtau) + M^(n-1-a) * (M-1-rk).

Only E5 edges carry a bonus, the grant of their route minus the grant of
the aircraft's stay.  Every feasible flow grants each aircraft at most
one E5 edge, and an aircraft with none stays, so a flow's bonuses plus
the constant sum of the fleet's stay grants are its grants, which sum
to at most P - 1 and spell its departure-time vector, then its menu-key
vector, as base-R and base-M numbers in which smaller entries score
higher.  A nonzero welfare difference is a multiple of 1/S, worth at
least P in gain.  So the maximum-gain flow is the welfare optimum whose
(departure-time vector, menu-key vector) is lexicographically smallest
among tied optima, and distinct allocations never tie in gain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .flow import Network, Topology, compile_topology, price_network
from .model import (
    Aircraft,
    Allocation,
    Instance,
    Profile,
    RouteOption,
    check_allocation,
    initial_occupancy,
    is_feasible,
    movements,
    occupancy_table,
)

# Vertex tags.  Vertices are plain tuples so they double as dict keys.
PARK = "park"
ARR = "arr"
DEP = "dep"
AC_DEP = "acdep"
SOURCE = ("source",)
SINK = ("sink",)

Vertex = Tuple
DeltaAssignment = Mapping[Tuple[str, str], int]  # (operator, aircraft) -> tau


def park(r: str, t: int) -> Vertex:
    return (PARK, r, t)


def arr(r: str, t: int) -> Vertex:
    return (ARR, r, t)


def dep(r: str, t: int) -> Vertex:
    return (DEP, r, t)


def acdep(i: str, j: str, tau: int) -> Vertex:
    return (AC_DEP, i, j, tau)


class Edge(NamedTuple):
    index: int
    cls: str  # "E1".."E6", "E8"
    key: Tuple
    tail: Vertex
    head: Vertex
    lower: int
    upper: int
    weight: Fraction
    q: Optional[int] = None  # bundle position for E3/E8


@dataclass(frozen=True)
class AuxGraph:
    instance: Instance
    bids: Profile
    vertices: Tuple[Vertex, ...]
    edges: Tuple[Edge, ...]
    gains: Tuple[int, ...]  # per edge; see the module docstring
    # The fleet's weighted stay bids, folded out of the E5 weights.
    stay_welfare: Fraction
    # The template's topology priced by -gains, for the solver.
    network: Network = field(compare=False, repr=False)
    # Per-edge bounds with every aircraft undecided: each edge's own.
    relaxed_lower: Tuple[int, ...] = field(compare=False, repr=False)
    relaxed_upper: Tuple[int, ...] = field(compare=False, repr=False)
    # (operator, aircraft) -> {tau: the E4 edge its unit takes to depart
    # at tau}, tau ascending, for every departure time but the stay time 0.
    departure_times: Mapping[Tuple[str, str], Mapping[int, int]] = field(
        compare=False, repr=False)
    # Edge indices of each E3/E8 parallel bundle, by position q.
    bundles: Tuple[Tuple[int, ...], ...] = field(compare=False, repr=False)


@dataclass(frozen=True)
class FlowSolution:
    """Integral edge flows plus the departure-time assignment they obey."""

    flows: Tuple[int, ...]
    delta: Mapping[Tuple[str, str], int]

    def flow(self, edge: Edge) -> int:
        return self.flows[edge.index]


@dataclass(frozen=True)
class GraphTemplate:
    """The auxiliary graph of an instance with the bids left out.

    Only the E5 weights, `stay_welfare` and what they set, the scale S,
    the gains, the arc costs and the cold potentials, depend on the
    bids; `price_graph` computes those for one profile.  So one template
    serves every profile on its instance: an auction's clearing solve
    and each of its payment counterfactuals.
    """

    instance: Instance
    vertices: Tuple[Vertex, ...]
    edges: Tuple[Edge, ...]  # E5 weights read 0 until priced
    # Per E5 edge: the edge, its operator's weight, the aircraft's stay
    # bid key and the edge's tie-break bonus.
    routes: Tuple[Tuple[Edge, Fraction, Tuple[str, str, int], int], ...]
    # Per aircraft: its operator's weight and its stay bid key.
    stays: Tuple[Tuple[Fraction, Tuple[str, str, int]], ...]
    scale: int  # lcm of the bid-independent weights' denominators
    tie_unit: int  # P = R^n * M^n
    scaled_weights: Tuple[int, ...]  # weight * scale per edge (E5: 0)
    topology: Topology
    relaxed_lower: Tuple[int, ...]
    relaxed_upper: Tuple[int, ...]
    departure_times: Mapping[Tuple[str, str], Mapping[int, int]]
    bundles: Tuple[Tuple[int, ...], ...]


def compile_template(instance: Instance) -> GraphTemplate:
    """Everything of the auxiliary graph of `instance` that no bid sets.

    Edge indexing is deterministic: class E1..E8, then lexicographic key,
    then bundle position.
    """
    h = instance.horizon
    lam = instance.congestion_ratio
    fleet = list(instance.iter_aircraft())
    n = len(fleet)
    most_times = max((len(craft.departure_times()) for _, craft in fleet), default=1)
    largest_menu = max((len(craft.menu) for _, craft in fleet), default=1)

    vertices: List[Vertex] = []
    for port in instance.vertiports:
        for t in range(1, h + 1):
            vertices.extend([park(port.id, t), arr(port.id, t), dep(port.id, t)])
    for operator, craft in instance.iter_aircraft():
        for tau in craft.departure_times()[1:]:  # all but the stay time 0
            vertices.append(acdep(operator.id, craft.id, tau))
    vertices.extend([SOURCE, SINK])

    # Vertiport-time pairs that can actually receive / emit a route,
    # for the zero-capacity pruning of dangling arrival/departure gates.
    arrival_used = set()
    departure_used = set()
    for operator, craft in instance.iter_aircraft():
        for entry in craft.menu:
            if entry.is_stay:
                continue
            arrival_used.add((entry.destination, entry.arrive_time))
            departure_used.add((craft.origin, entry.depart_time))

    edges: List[Edge] = []

    def add(cls: str, key: Tuple, tail: Vertex, head: Vertex, lower: int,
            upper: int, weight: Fraction, q: Optional[int] = None) -> Edge:
        edges.append(Edge(len(edges), cls, key, tail, head, lower, upper, weight, q))
        return edges[-1]

    def grant_bonus(a: int, craft: Aircraft, entry: RouteOption) -> int:
        rtau = craft.departure_times().index(entry.depart_time)
        rk = craft.menu.index(entry)
        return (largest_menu ** n * most_times ** (n - 1 - a) * (most_times - 1 - rtau)
                + largest_menu ** (n - 1 - a) * (largest_menu - 1 - rk))

    zero = Fraction(0)
    for port in instance.vertiports:
        for t in range(1, h + 1):
            cap = port.arrival_cap[t - 1] if (port.id, t) in arrival_used else 0
            add("E1", (port.id, t), arr(port.id, t), park(port.id, t), 0, cap, zero)
    for port in instance.vertiports:
        for t in range(1, h + 1):
            cap = port.departure_cap[t - 1] if (port.id, t) in departure_used else 0
            add("E2", (port.id, t), park(port.id, t), dep(port.id, t), 0, cap, zero)
    for port in instance.vertiports:
        for t in range(1, h):
            for q in range(1, port.parking_cap[t - 1] + 1):
                g = port.congestion_cost[t - 1]
                weight = lam * (g[q - 1] - g[q])
                add("E3", (port.id, t, q), park(port.id, t), park(port.id, t + 1),
                    0, 1, weight, q)
    for operator, craft in instance.iter_aircraft():
        for tau in craft.departure_times()[1:]:
            add("E4", (operator.id, craft.id, tau), dep(craft.origin, tau),
                acdep(operator.id, craft.id, tau), 0, 1, zero)
    routes = []
    stays = []
    for a, (operator, craft) in enumerate(fleet):
        stay_key = (operator.id, craft.id, craft.stay_key)
        stay_bonus = grant_bonus(a, craft, craft.option(craft.stay_key))
        stays.append((operator.weight, stay_key))
        for entry in craft.menu:
            if entry.is_stay:
                continue
            edge = add("E5", (operator.id, craft.id, entry.key),
                       acdep(operator.id, craft.id, entry.depart_time),
                       arr(entry.destination, entry.arrive_time), 0, 1, zero)
            routes.append((edge, operator.weight, stay_key,
                           grant_bonus(a, craft, entry) - stay_bonus))
    for port in instance.vertiports:
        count = initial_occupancy(instance, port.id)
        add("E6", (port.id,), SOURCE, park(port.id, 1), count, count, zero)
    for port in instance.vertiports:
        for q in range(1, port.parking_cap[h - 1] + 1):
            g = port.congestion_cost[h - 1]
            weight = lam * (g[q - 1] - g[q])
            add("E8", (port.id, q), park(port.id, h), SINK, 0, 1, weight, q)

    scale = lcm(*(e.weight.denominator for e in edges), 1)
    index = {v: position for position, v in enumerate(vertices)}
    topology = compile_topology(
        len(vertices), [index[e.tail] for e in edges], [index[e.head] for e in edges],
        index[SOURCE], index[SINK], n)
    times: Dict[Tuple[str, str], Dict[int, int]] = {
        (operator.id, craft.id): {} for operator, craft in fleet}
    for e in edges:
        if e.cls == "E4":
            i, j, tau = e.key
            times[i, j][tau] = e.index
    bundles: Dict[Tuple, List[Edge]] = {}
    for e in edges:
        if e.cls in ("E3", "E8"):
            bundles.setdefault((e.cls,) + e.key[:-1], []).append(e)
    return GraphTemplate(
        instance, tuple(vertices), tuple(edges), tuple(routes), tuple(stays), scale,
        most_times ** n * largest_menu ** n,
        tuple(e.weight.numerator * (scale // e.weight.denominator) for e in edges),
        topology, relaxed_lower=tuple(e.lower for e in edges),
        relaxed_upper=tuple(e.upper for e in edges), departure_times=times,
        bundles=tuple(tuple(e.index for e in sorted(members, key=lambda e: e.q))
                      for members in bundles.values()),
    )


def price_graph(template: GraphTemplate, bids: Profile) -> AuxGraph:
    """The auxiliary graph of `template`'s instance under `bids`: each E5
    edge weighs its operator's weight times its bid less its aircraft's
    stay bid, and S, the gains, the arc costs and the cold potentials
    follow from those weights.  Nothing of `template` is changed or
    carried over from another profile: S is the lcm of this profile's
    weight denominators."""
    weights = [weight * (bids[e.key] - bids[stay_key])
               for e, weight, stay_key, _ in template.routes]
    scale = lcm(template.scale, *(weight.denominator for weight in weights))
    unit = scale * template.tie_unit
    multiplier = unit // template.scale
    gains = [w * multiplier for w in template.scaled_weights]
    edges = list(template.edges)
    for (e, _, _, bonus), weight in zip(template.routes, weights):
        edges[e.index] = Edge(e.index, e.cls, e.key, e.tail, e.head, e.lower, e.upper,
                              weight)
        gains[e.index] = weight.numerator * (unit // weight.denominator) + bonus
    stay_welfare = Fraction(0)
    for weight, stay_key in template.stays:
        stay_welfare += weight * bids[stay_key]
    return AuxGraph(
        template.instance, bids, template.vertices, tuple(edges), tuple(gains),
        stay_welfare, network=price_network(template.topology, [-g for g in gains]),
        relaxed_lower=template.relaxed_lower, relaxed_upper=template.relaxed_upper,
        departure_times=template.departure_times, bundles=template.bundles,
    )


def build_graph(instance: Instance, bids: Profile) -> AuxGraph:
    """Construct the auxiliary graph for `instance` under `bids`."""
    return price_graph(compile_template(instance), bids)


def delta_of_allocation(instance: Instance, allocation: Allocation
                        ) -> Dict[Tuple[str, str], int]:
    """Departure-time assignment induced by a canonical allocation."""
    delta: Dict[Tuple[str, str], int] = {}
    for operator, craft in instance.iter_aircraft():
        entry = craft.option(allocation[(operator.id, craft.id)])
        delta[(operator.id, craft.id)] = entry.depart_time
    return delta


def allocation_to_flow(graph: AuxGraph, allocation: Allocation) -> FlowSolution:
    """Direct construction of the unique flow matching `allocation`."""
    instance = graph.instance
    report = is_feasible(instance, allocation)
    if not report.feasible:
        raise ValueError(f"allocation infeasible: {report.violations}")
    delta = delta_of_allocation(instance, allocation)
    arrivals, departures = movements(instance, allocation)
    occupancy = occupancy_table(instance, allocation)

    flows = [0] * len(graph.edges)
    for e in graph.edges:
        if e.cls == "E1":
            flows[e.index] = arrivals.get(e.key, 0)
        elif e.cls == "E2":
            flows[e.index] = departures.get(e.key, 0)
        elif e.cls in ("E3", "E8"):
            r = e.key[0]
            t = e.key[1] if e.cls == "E3" else instance.horizon
            flows[e.index] = 1 if e.q <= occupancy[(r, t)] else 0
        elif e.cls == "E4":
            i, j, tau = e.key
            flows[e.index] = 1 if delta[(i, j)] == tau else 0
        elif e.cls == "E5":
            i, j, k = e.key
            flows[e.index] = 1 if allocation[(i, j)] == k else 0
        elif e.cls == "E6":  # every aircraft based at r
            flows[e.index] = e.lower
    return FlowSolution(tuple(flows), delta)


def flow_objective(graph: AuxGraph, solution: FlowSolution) -> Fraction:
    """Exact weighted flow value: the welfare of the allocation it spells."""
    total = graph.stay_welfare
    for e in graph.edges:
        if solution.flows[e.index]:
            total += e.weight * solution.flows[e.index]
    return total


def flow_gain(graph: AuxGraph, flows: Sequence[int]) -> int:
    """Integer gain of a flow: welfare and tie-break in one number."""
    return sum(gain * flow for gain, flow in zip(graph.gains, flows) if flow)


def flow_to_allocation(graph: AuxGraph, solution: FlowSolution) -> Allocation:
    """Read the canonical allocation off the E5 unit flows: an aircraft
    granted no route stays."""
    instance = graph.instance
    granted: Dict[Tuple[str, str], List[int]] = {}
    for e in graph.edges:
        if e.cls != "E5":
            continue
        i, j, k = e.key
        value = solution.flow(e)
        if value not in (0, 1):
            raise ValueError(f"non-binary route flow for aircraft {(i, j)}, menu {k}")
        if value == 1:
            granted.setdefault((i, j), []).append(k)
    allocation: Dict[Tuple[str, str], int] = {}
    for operator, craft in instance.iter_aircraft():
        key = (operator.id, craft.id)
        routes = granted.get(key, [])
        if len(routes) > 1:
            raise ValueError(f"aircraft {key} granted {len(routes)} routes")
        allocation[key] = routes[0] if routes else craft.stay_key
    check_allocation(instance, allocation)
    return allocation

