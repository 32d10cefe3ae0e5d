"""Time-expanded flow network for the reservation problem.

Builds the auxiliary graph whose max-weight flows correspond one-to-one
with feasible allocations: three vertiport replicas (parking, arrival,
departure) per slot, one vertex per (aircraft, departure time other than
the stay time 0), and a sink.  Edge classes:

  E1 arrival gate       Arr(r,t)  -> Park(r,t)   cap [0, A(r,t)]
  E2 departure gate     Park(r,t) -> Dep(r,t)    cap [0, D(r,t)]
  E3 parking            Park(r,t) -> Park(r,t+1) cap [0, C(r,t)], convex:
                        q-th unit weighs -lambda*(g(q) - g(q-1))
  E4 departure choice   Dep(o,tau) -> AcDep(i,j,tau)  cap [0, 1]
  E5 route grant        AcDep(i,j,d_k) -> Arr(dest_k, a_k)
                        weight rho*(b_k - b_stay)
  E6 initial fleet      Sink -> Park(r,1)  bound = initial(r)
  E8 terminal parking   Park(r,H) -> Sink   like E3 at slot H

E6 closes the circulation: every aircraft based at r leaves the sink
for Park(r,1) by E6, and its unit returns to the sink by E8.  An E3/E8
edge's flow is its vertiport's occupancy at its slot, and the edge
weighs the sum of its first that many unit weights: minus lambda times
the congestion cost of that occupancy.  `compile_template` builds only
instances that validate, whose congestion rows are discrete convex and
whose lambda is non-negative, so the unit weights do not increase, as
the flow kernel's convex edges need (see `flow`).  Vertices are numbered in
time order, for each slot the Arr/Park/Dep vertices of every vertiport
and then the AcDep vertices, the sink last, so every
edge but the fixed E6 runs from a lower to a higher index (a validated
route departs before it arrives).  An aircraft departs
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
and every edge, computes the E3/E8 unit weights and the E5 tie-break
bonuses, and records, as it adds the edges, the E4 edge of each
(aircraft, tau), its only index; it then compiles the relaxed
bounds and the flow kernel's topology (`flow.Topology`: vertex-index
tails and heads and residual arcs).  `price_graph` reads one bid
profile: the E5 weights and `stay_welfare`, then the scale S, the
gains, one cost (-gain) per residual arc of the template's own topology,
each E3/E8 edge's row of unit costs (-gain per unit, `Network.rows`),
and the cold potentials, in one pass over the vertices in index order
(`flow.Network`).  An `AuxGraph` is its template, the same field
objects, plus those priced fields.  So an
auction compiles one template and prices its clearing profile and each
payment counterfactual on it; `build_graph` is the two stages in a row.

A flow is a tuple of one integer per edge, in index order: the solver's
answer is one (see the `solver` module docstring), and
`flow_to_allocation` reads its allocation off the E5 entries, aircraft
by aircraft, through `GraphTemplate.aircraft`.  An allocation's
departures, arrivals and occupancies fix every entry, so it has exactly
one flow.

Integer pricing.  A weight lives only in its integer gain, one per E5
edge in `AuxGraph.gains` and one per E3/E8 unit, negated, in the
network's rows; no weight is held as a `Fraction`.  With a
congestion row brought to integer numerators G over its lcm L, the q-th
unit of an E3/E8 edge weighs the pair
(lambda.num * (G(q-1) - G(q)), lambda.den * L); an E5 weight
w * (b - s), s the stay bid, is (w.num * (b.num * s.den - s.num * b.den),
w.den * b.den * s.den).  Each pair is reduced by its gcd, so S, the lcm
of the reduced denominators, and every gain are those of the same
weights in `Fraction`s.  `stay_welfare`, whose denominator need not
divide S, is one `Fraction` built from an integer numerator and
denominator, and a flow's welfare is

  stay_welfare + (gain - its E5 bonuses) / (S * P),

one `Fraction` per solve (`flow_objective`; `AuxGraph.unit` is S * P).

Tie-break.  The solver maximizes one exact integer gain per edge (per
unit on E3/E8),

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

from dataclasses import dataclass, field, fields
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

from .flow import Network, Topology, compile_topology, price_network
from .model import (
    Aircraft,
    Allocation,
    Instance,
    Profile,
    RouteOption,
    check_allocation,
    initial_occupancy,
    validate_instance,
)

# Vertex tags.  Vertices are plain tuples so they double as dict keys.
PARK = "park"
ARR = "arr"
DEP = "dep"
AC_DEP = "acdep"
SINK = ("sink",)

Vertex = Tuple
DeltaAssignment = Mapping[Tuple[str, str], int]  # (operator, aircraft) -> tau
BidKey = Tuple[str, str, int]  # (operator, aircraft, menu key)


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
    edges: Tuple[Edge, ...]
    # Per aircraft: its operator's weight, its stay bid key, and per E5
    # edge of its routes the edge index, bid key and tie-break bonus.
    aircraft: Tuple[Tuple[Fraction, BidKey, Tuple[Tuple[int, BidKey, int], ...]], ...]
    scale: int  # lcm of the E3/E8 unit weights' reduced denominators
    tie_unit: int  # P = R^n * M^n
    # E3/E8 edge -> each unit's weight * scale, in unit order.
    parking_rows: Mapping[int, Tuple[int, ...]]
    topology: Topology
    # Per-edge bounds with every aircraft undecided: each edge's own.
    relaxed_lower: Tuple[int, ...]
    relaxed_upper: Tuple[int, ...]
    # (operator, aircraft) -> {tau: the E4 edge its unit takes to depart
    # at tau}, tau ascending, for every departure time but the stay time 0.
    departure_times: Mapping[Tuple[str, str], Mapping[int, int]]


@dataclass(frozen=True)
class AuxGraph(GraphTemplate):
    """A template priced by one bid profile (`price_graph`): the template's
    own fields, shared with it, plus what the bids set."""

    bids: Profile
    gains: Tuple[int, ...]  # per edge, 0 on E3/E8; see the module docstring
    # The fleet's weighted stay bids, folded out of the E5 weights.
    stay_welfare: Fraction
    unit: int  # S * P: a gain's welfare part is welfare * unit
    # The template's topology priced by -gains, for the solver; each
    # E3/E8 edge's units cost minus their gains (`Network.rows`).
    network: Network = field(compare=False, repr=False)


def compile_template(instance: Instance) -> GraphTemplate:
    """Everything of the auxiliary graph of `instance` that no bid sets.

    Edge indexing is deterministic: class E1..E8, then lexicographic key.
    This is the library's one gate on instances: it raises
    ``ValueError("invalid instance: ...")`` with the violations
    `validate_instance` reports, if any, before it builds anything.
    """
    report = validate_instance(instance)
    if not report.ok:
        raise ValueError(f"invalid instance: {report.violations}")
    h = instance.horizon
    lam = instance.congestion_ratio
    fleet = list(instance.iter_aircraft())
    n = len(fleet)
    most_times = max((len(craft.departure_times()) for _, craft in fleet), default=1)
    largest_menu = max((len(craft.menu) for _, craft in fleet), default=1)

    vertices: List[Vertex] = []
    for t in range(1, h + 1):
        for port in instance.vertiports:
            vertices.extend([arr(port.id, t), park(port.id, t), dep(port.id, t)])
        for operator, craft in fleet:
            if t in craft.departure_times():
                vertices.append(acdep(operator.id, craft.id, t))
    vertices.append(SINK)
    index = {v: position for position, v in enumerate(vertices)}

    # Vertiport-time pairs that can actually receive / emit a route,
    # for the zero-capacity pruning of dangling arrival/departure gates.
    arrival_used = set()
    departure_used = set()
    for _, craft in fleet:
        for entry in craft.menu:
            if not entry.is_stay:
                arrival_used.add((entry.destination, entry.arrive_time))
                departure_used.add((craft.origin, entry.depart_time))

    edges: List[Edge] = []
    # Per E3/E8 edge, the reduced (numerator, denominator) of each unit's
    # weight; every other edge but E5 weighs 0.
    units: Dict[int, List[Tuple[int, int]]] = {}

    def add(cls: str, key: Tuple, tail: Vertex, head: Vertex, lower: int,
            upper: int) -> Edge:
        edges.append(Edge(len(edges), cls, key, tail, head, lower, upper))
        return edges[-1]

    def add_parking(cls: str, key: Tuple, tail: Vertex, head: Vertex, cap: int,
                    row: Tuple[Tuple[int, ...], int]) -> None:
        """One edge of `cap` units, the q-th weighing lambda * (g(q-1) - g(q)),
        from g's row over its lcm (`Vertiport.congestion_rows`)."""
        numerators, denominator = row
        denominator *= lam.denominator
        weights = units[add(cls, key, tail, head, 0, cap).index] = []
        for q in range(1, cap + 1):
            num = lam.numerator * (numerators[q - 1] - numerators[q])
            common = gcd(num, denominator)
            weights.append((num // common, denominator // common))

    def grant_bonus(a: int, craft: Aircraft, entry: RouteOption) -> int:
        rtau = craft.departure_times().index(entry.depart_time)
        rk = craft.menu.index(entry)
        return (largest_menu ** n * most_times ** (n - 1 - a) * (most_times - 1 - rtau)
                + largest_menu ** (n - 1 - a) * (largest_menu - 1 - rk))

    for port in instance.vertiports:
        for t in range(1, h + 1):
            cap = port.arrival_cap[t - 1] if (port.id, t) in arrival_used else 0
            add("E1", (port.id, t), arr(port.id, t), park(port.id, t), 0, cap)
    for port in instance.vertiports:
        for t in range(1, h + 1):
            cap = port.departure_cap[t - 1] if (port.id, t) in departure_used else 0
            add("E2", (port.id, t), park(port.id, t), dep(port.id, t), 0, cap)
    for port in instance.vertiports:
        for t in range(1, h):
            add_parking("E3", (port.id, t), park(port.id, t), park(port.id, t + 1),
                        port.parking_cap[t - 1], port.congestion_rows()[t - 1])
    times: Dict[Tuple[str, str], Dict[int, int]] = {}
    for operator, craft in fleet:
        times[operator.id, craft.id] = {
            tau: add("E4", (operator.id, craft.id, tau), dep(craft.origin, tau),
                     acdep(operator.id, craft.id, tau), 0, 1).index
            for tau in craft.departure_times()[1:]}
    aircraft = []
    for a, (operator, craft) in enumerate(fleet):
        stay_bonus = grant_bonus(a, craft, craft.option(craft.stay_key))
        routes = []
        for entry in craft.menu:
            if entry.is_stay:
                continue
            edge = add("E5", (operator.id, craft.id, entry.key),
                       acdep(operator.id, craft.id, entry.depart_time),
                       arr(entry.destination, entry.arrive_time), 0, 1)
            routes.append((edge.index, edge.key,
                           grant_bonus(a, craft, entry) - stay_bonus))
        aircraft.append((operator.weight, (operator.id, craft.id, craft.stay_key),
                         tuple(routes)))
    for port in instance.vertiports:
        count = initial_occupancy(instance, port.id)
        add("E6", (port.id,), SINK, park(port.id, 1), count, count)
    for port in instance.vertiports:
        add_parking("E8", (port.id,), park(port.id, h), SINK,
                    port.parking_cap[h - 1], port.congestion_rows()[h - 1])

    scale = lcm(1, *(den for row in units.values() for _, den in row))
    parking_rows = {k: tuple(num * (scale // den) for num, den in row)
                    for k, row in units.items()}
    lower, upper = tuple(e.lower for e in edges), tuple(e.upper for e in edges)
    topology = compile_topology(
        len(vertices), [index[e.tail] for e in edges], [index[e.head] for e in edges],
        lower, upper)
    return GraphTemplate(
        instance, tuple(vertices), tuple(edges), tuple(aircraft), scale,
        most_times ** n * largest_menu ** n, parking_rows, topology,
        relaxed_lower=lower, relaxed_upper=upper, departure_times=times,
    )


def price_graph(template: GraphTemplate, bids: Profile) -> AuxGraph:
    """The auxiliary graph of `template`'s instance under `bids`: each E5
    edge weighs its operator's weight times its bid less its aircraft's
    stay bid, and S, the gains, the arc costs and the cold potentials
    follow from those weights.  The graph holds `template`'s own
    `GraphTemplate` fields; nothing of them is changed, and nothing is
    carried over from another profile, so a priced graph reprices as its
    template: S is the lcm of this profile's weight denominators."""
    stays = []  # per aircraft: weight * stay bid as (numerator, denominator)
    priced = []  # per E5 edge: (index, reduced weight numerator, denominator, bonus)
    for weight, stay_key, routes in template.aircraft:
        wn, wd = weight.numerator, weight.denominator
        stay = bids[stay_key]
        sn, sd = stay.numerator, stay.denominator
        stays.append((wn * sn, wd * sd))
        for k, key, bonus in routes:
            bid = bids[key]
            num = wn * (bid.numerator * sd - sn * bid.denominator)
            den = wd * bid.denominator * sd
            common = gcd(num, den)
            priced.append((k, num // common, den // common, bonus))
    scale = lcm(template.scale, *(den for _, _, den, _ in priced))
    unit = scale * template.tie_unit
    multiplier = unit // template.scale
    rows = {k: tuple([-w * multiplier for w in row])
            for k, row in template.parking_rows.items()}
    gains = [0] * len(template.edges)
    for k, num, den, bonus in priced:
        gains[k] = num * (unit // den) + bonus
    stay_den = lcm(1, *(den for _, den in stays))
    stay_welfare = Fraction(sum(num * (stay_den // den) for num, den in stays), stay_den)
    shared = {f.name: getattr(template, f.name) for f in fields(GraphTemplate)}
    return AuxGraph(
        **shared, bids=bids, gains=tuple(gains), stay_welfare=stay_welfare,
        unit=unit, network=price_network(template.topology, [-g for g in gains], rows),
    )


def build_graph(instance: Instance, bids: Profile) -> AuxGraph:
    """Construct the auxiliary graph for `instance` under `bids`."""
    return price_graph(compile_template(instance), bids)


def flow_objective(graph: AuxGraph, flows: Sequence[int], gain: int) -> Fraction:
    """Exact weighted flow value: the welfare of the allocation it spells,
    `stay_welfare` plus the flow's gain (`flow_gain`) less its E5 bonuses
    over S * P."""
    carried = sum(bonus * flows[k] for _, _, routes in graph.aircraft
                  for k, _, bonus in routes if flows[k])
    return graph.stay_welfare + Fraction(gain - carried, graph.unit)


def flow_gain(graph: AuxGraph, flows: Sequence[int]) -> int:
    """Integer gain of a flow: welfare and tie-break in one number.  An
    E3/E8 edge carrying f units gains minus its first f units' costs."""
    return (sum(gain * flow for gain, flow in zip(graph.gains, flows) if flow)
            - sum(sum(row[:flows[k]]) for k, row in graph.network.rows.items()))


def flow_to_allocation(graph: AuxGraph, flows: Sequence[int]) -> Allocation:
    """Read the canonical allocation off the E5 unit flows, aircraft by
    aircraft in `Instance.iter_aircraft` order: an aircraft granted no
    route stays."""
    allocation: Dict[Tuple[str, str], int] = {}
    for _, (i, j, stay_key), routes in graph.aircraft:
        granted = []
        for k, (_, _, key), _ in routes:
            if flows[k] not in (0, 1):
                raise ValueError(f"non-binary route flow for aircraft {(i, j)}, menu {key}")
            if flows[k]:
                granted.append(key)
        if len(granted) > 1:
            raise ValueError(f"aircraft {(i, j)} granted {len(granted)} routes")
        allocation[i, j] = granted[0] if granted else stay_key
    check_allocation(graph.instance, allocation)
    return allocation
