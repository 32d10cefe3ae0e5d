"""Time-expanded flow network for the reservation problem.

Builds the auxiliary graph whose max-weight flows correspond one-to-one
with feasible allocations: a parking vertex Park(r,t) per (vertiport,
slot), an arrival vertex Arr(r,t) and a departure vertex Dep(r,t) only
where that slot's gate can bind (below), a vertex AcDep(i,j,tau) only
for an (aircraft, departure time other than the stay time 0) with two
or more routes, and a sink.  In(r,t) is Arr(r,t) if the slot has one,
else Park(r,t); Out(r,t) is Dep(r,t) if the slot has one, else
Park(r,t).  Edge classes:

  E1 arrival gate       Arr(r,t)  -> Park(r,t)   cap [0, A(r,t)]
  E2 departure gate     Park(r,t) -> Dep(r,t)    cap [0, D(r,t)]
  E3 parking            Park(r,t) -> Park(r,t+1) cap [0, C(r,t)], convex:
                        q-th unit weighs -lambda*(g(q) - g(q-1))
  E4 departure choice   Out(o,tau) -> AcDep(i,j,tau)  cap [0, 1]
  E5 route grant        AcDep(i,j,d_k), or Out(o,d_k) for a time with
                        one route, -> In(dest_k, a_k)  cap [0, 1]
                        weight rho*(b_k - b_stay)
  E6 initial fleet      Sink -> Park(r,1)  bound = initial(r)
  E8 terminal parking   Park(r,H) -> Sink   like E3 at slot H

Only the graph a flow can use is laid out.  A gate is an E1 (E2) edge
at a slot that some route arrives at (departs from) whose capacity is
below the number of distinct aircraft with a route through it,
capacity 0 included.  Every feasible flow grants each aircraft at most
one route, so a gate with room for all of them never binds: the slot
has no Arr (Dep) vertex and its routes end (start) at Park(r,t), and a
slot no route uses has none either.  A time with one route needs no
choice between routes: its E5 edge leaves Out(o,tau) itself.

E6 closes the circulation: every aircraft based at r leaves the sink
for Park(r,1) by E6, and its unit returns to the sink by E8.  An E3/E8
edge's flow is its vertiport's occupancy at its slot, and the edge
weighs the sum of its first that many unit weights: minus lambda times
the congestion cost of that occupancy.  `compile_template` builds only
instances that validate, whose congestion rows are discrete convex and
whose lambda is non-negative, so the unit weights do not increase, as
the flow kernel's rows of unit costs need (see `flow`).  Vertices are
numbered in time order, for each slot the Arr/Park/Dep vertices of
every vertiport and then the AcDep vertices, the sink last, so every
edge but the fixed E6 runs from a lower to a higher index (a validated
route departs before it arrives).  An aircraft's departure edge at tau
is its E4 edge there, or the one E5 edge of a time with one route; the
aircraft departs at tau exactly when that edge carries its unit, and
stays exactly when none of its departure edges does.  The stay bid is
folded into the route weights, so a stay moves and gains nothing in the
graph and `AuxGraph.stay_welfare`, the fleet's weighted stay bids, is
added back to every flow's weight; some E5 weights are negative.  Every bound is a
plain integer, and the graph's bounds are those of the relaxation with
every aircraft undecided: every departure edge is [0, 1].  The
departure-time decision delta is encoded once, as
`AuxGraph.departure_times`, the departure edge of each (aircraft, tau);
deciding an aircraft at tau raises the lower bound of that edge to 1
and cuts its other departure edges to 0 (the stay, tau 0, cuts them
all), so one graph serves every branch node of the solver, and
no selector object stands for delta in any bound.  The solver branches
on an aircraft whose relaxed flow carries two or more units on its
departure edges (see the `solver` module docstring).  Relaxed, E6 still
fixes the units each vertiport starts with: a relaxed flow cannot move
a unit to another vertiport, and a unit is credited for one aircraft's
route at most once.  A relaxed flow that splits an aircraft can pass
more units through a slot than a gate left out would have held; it
still bounds every completion, each of which lies within its bounds.
A graph is built in two stages, and every branch node of a solve shares
the result.  `compile_template` reads no bid: it lays out the vertices
and every edge, computes the E3/E8 unit weights and the E5 tie-break
bonuses, and records, as it adds the edges, the departure edge of
each (aircraft, tau), its only index; it then compiles the relaxed
bounds and the flow kernel's topology (`flow.Topology`: vertex-index
tails and heads and residual arcs).  `price_graph` reads one bid
profile: the E5 weights and `stay_welfare`, then the scale S and the
gains, as one row of unit costs (-gain per unit) per edge of the
template's own topology (`flow.Network`, whose cold potentials are
computed only when a solve starts cold).  An E5 edge's row is its one
unit, an E3/E8 edge's one entry per unit of its parking capacity, and
every other edge's zeros, one per unit of its upper bound: an E4
edge's one, a gate's below its aircraft count, an E6 edge's one per
aircraft based there.  Only the E5 rows read the bids; the others
depend on the profile only through the ratio of its gain unit to the
template's scale, so the template keeps them per ratio
(`GraphTemplate.priced_rows`) and a profile of the same ratio, as most
payment counterfactuals are, shares those row objects.
It is the library's one gate on bids: a profile that misses a menu
entry, names an unknown one or holds a negative bid raises ``invalid
bids: ...``, found as the bids are read, so a valid profile costs no
separate validation pass.  An `AuxGraph` is its
template, the same field objects, plus those priced fields.  So an
auction compiles one template and prices its clearing profile and each
payment counterfactual on it; `build_graph` is the two stages in a row.

A flow is a tuple of one integer per edge, in index order: the solver's
answer is one (see the `solver` module docstring), and
`flow_to_allocation` reads its allocation off the E5 entries, aircraft
by aircraft, through `GraphTemplate.aircraft`.  An allocation's
departures, arrivals and occupancies fix every entry, so it has exactly
one flow.

Integer pricing.  A weight lives only in its integer gain, one per E5
edge and one per E3/E8 unit, negated, in the network's rows; no weight
is held as a `Fraction`.  With a congestion row brought to integer
numerators G over its lcm L, the q-th unit of an E3/E8 edge weighs the
pair
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

from collections import Counter, defaultdict
from dataclasses import dataclass, field, fields
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Mapping, NamedTuple, Sequence, Set, Tuple

from .flow import Network, Rows, Topology, compile_topology
from .model import (
    Allocation,
    Instance,
    Profile,
    check_allocation,
    validate_instance,
    validate_profile,
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
    the gains and the parking rows' multiplier, depend on the bids;
    `price_graph` computes those for one profile.  So one
    template serves every profile on its instance: an auction's clearing
    solve and each of its payment counterfactuals.
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
    # (operator, aircraft) -> {tau: the departure edge its unit takes to
    # depart at tau, E4 or a time's one E5}, tau ascending, for every
    # departure time but the stay time 0.
    departure_times: Mapping[Tuple[str, str], Mapping[int, int]]
    # Gain unit over `scale` -> every edge's row of unit costs at it: an
    # E3/E8 edge's `parking_rows` priced, any other edge's zeros, one per
    # unit of its upper bound, which `price_graph` replaces on E5.  Filled
    # by `price_graph` as it meets each multiplier.
    priced_rows: Dict[int, Rows] = field(compare=False, repr=False)


#: The fields a priced graph shares with its template, named once.
_TEMPLATE_FIELDS = tuple([f.name for f in fields(GraphTemplate)])


@dataclass(frozen=True)
class AuxGraph(GraphTemplate):
    """A template priced by one bid profile (`price_graph`): the template's
    own fields, shared with it, plus what the bids set."""

    bids: Profile
    # The fleet's weighted stay bids, folded out of the E5 weights.
    stay_welfare: Fraction
    unit: int  # S * P: a gain's welfare part is welfare * unit
    # The template's topology with each edge's units costing minus their
    # gains (`Network.rows`), for the solver; see the module docstring.
    network: Network = field(compare=False, repr=False)


def compile_template(instance: Instance) -> GraphTemplate:
    """Everything of the auxiliary graph of `instance` that no bid sets.

    Only the vertices and edges a flow can use are laid out (module
    docstring).  Edge indexing is deterministic: class E1..E8, then
    lexicographic key.  This is the library's one gate on instances: it
    raises ``ValueError("invalid instance: ...")`` with the violations
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

    # Per (vertiport, slot): the aircraft with a route arriving there, and
    # those with a route departing from there.
    arriving: Dict[Tuple[str, int], Set[int]] = defaultdict(set)
    departing: Dict[Tuple[str, int], Set[int]] = defaultdict(set)
    # Per aircraft: its departure times with two or more routes.
    shared: List[Set[int]] = []
    for a, (_, craft) in enumerate(fleet):
        routes: Counter = Counter()
        for entry in craft.menu:
            if not entry.is_stay:
                arriving[entry.destination, entry.arrive_time].add(a)
                departing[craft.origin, entry.depart_time].add(a)
                routes[entry.depart_time] += 1
        shared.append({tau for tau, count in routes.items() if count > 1})
    # The gates that can bind, with their capacities: fewer units than
    # aircraft that may use them.  An aircraft flies at most one route, so
    # a gate with room for all of them never binds and is left out.
    arrival_gates = {(r, t): cap for (r, t), crafts in arriving.items()
                     if (cap := instance.vertiport(r).arrival_cap[t - 1]) < len(crafts)}
    departure_gates = {(r, t): cap for (r, t), crafts in departing.items()
                       if (cap := instance.vertiport(r).departure_cap[t - 1]) < len(crafts)}

    def landing(r: str, t: int) -> Vertex:
        return arr(r, t) if (r, t) in arrival_gates else park(r, t)

    def takeoff(r: str, t: int) -> Vertex:
        return dep(r, t) if (r, t) in departure_gates else park(r, t)

    vertices: List[Vertex] = []
    for t in range(1, h + 1):
        for port in instance.vertiports:
            if (port.id, t) in arrival_gates:
                vertices.append(arr(port.id, t))
            vertices.append(park(port.id, t))
            if (port.id, t) in departure_gates:
                vertices.append(dep(port.id, t))
        for (operator, craft), taus in zip(fleet, shared):
            if t in taus:
                vertices.append(acdep(operator.id, craft.id, t))
    vertices.append(SINK)
    index = {v: position for position, v in enumerate(vertices)}

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

    def grant_bonus(a: int, rtau: int, rk: int) -> int:
        return (largest_menu ** n * most_times ** (n - 1 - a) * (most_times - 1 - rtau)
                + largest_menu ** (n - 1 - a) * (largest_menu - 1 - rk))

    for (r, t), cap in sorted(arrival_gates.items()):
        add("E1", (r, t), arr(r, t), park(r, t), 0, cap)
    for (r, t), cap in sorted(departure_gates.items()):
        add("E2", (r, t), park(r, t), dep(r, t), 0, cap)
    for port in instance.vertiports:
        for t in range(1, h):
            add_parking("E3", (port.id, t), park(port.id, t), park(port.id, t + 1),
                        port.parking_cap[t - 1], port.congestion_rows()[t - 1])
    times: Dict[Tuple[str, str], Dict[int, int]] = {}
    for (operator, craft), taus in zip(fleet, shared):
        times[operator.id, craft.id] = carriers = dict.fromkeys(craft.departure_times()[1:])
        for tau in carriers:
            if tau in taus:
                carriers[tau] = add("E4", (operator.id, craft.id, tau),
                                    takeoff(craft.origin, tau),
                                    acdep(operator.id, craft.id, tau), 0, 1).index
    aircraft = []
    for a, ((operator, craft), taus) in enumerate(zip(fleet, shared)):
        rank = {tau: rtau for rtau, tau in enumerate(craft.departure_times())}
        grants = {entry.key: grant_bonus(a, rank[entry.depart_time], rk)
                  for rk, entry in enumerate(craft.menu)}
        stay_grant = grants[craft.stay_key]
        carriers = times[operator.id, craft.id]
        routes = []
        for entry in craft.menu:
            if entry.is_stay:
                continue
            tau = entry.depart_time
            edge = add("E5", (operator.id, craft.id, entry.key),
                       acdep(operator.id, craft.id, tau) if tau in taus
                       else takeoff(craft.origin, tau),
                       landing(entry.destination, entry.arrive_time), 0, 1)
            if tau not in taus:
                carriers[tau] = edge.index
            routes.append((edge.index, edge.key, grants[entry.key] - stay_grant))
        aircraft.append((operator.weight, (operator.id, craft.id, craft.stay_key),
                         tuple(routes)))
    based = Counter(craft.origin for _, craft in fleet)
    for port in instance.vertiports:
        count = based[port.id]
        add("E6", (port.id,), SINK, park(port.id, 1), count, count)
    for port in instance.vertiports:
        add_parking("E8", (port.id,), park(port.id, h), SINK,
                    port.parking_cap[h - 1], port.congestion_rows()[h - 1])

    scale = lcm(1, *(den for row in units.values() for _, den in row))
    # Tuples from lists, not iterators: CPython grows a tuple built from an
    # iterator by resizing it, and the freed result joins a free list that
    # only a full collection empties.
    parking_rows = {k: tuple([num * (scale // den) for num, den in row])
                    for k, row in units.items()}
    lower = tuple([e.lower for e in edges])
    upper = tuple([e.upper for e in edges])
    topology = compile_topology(
        len(vertices), [index[e.tail] for e in edges], [index[e.head] for e in edges],
        lower, upper)
    return GraphTemplate(
        instance, tuple(vertices), tuple(edges), tuple(aircraft), scale,
        most_times ** n * largest_menu ** n, parking_rows, topology,
        relaxed_lower=lower, relaxed_upper=upper, departure_times=times,
        priced_rows={},
    )


def price_graph(template: GraphTemplate, bids: Profile) -> AuxGraph:
    """The auxiliary graph of `template`'s instance under `bids`: each E5
    edge weighs its operator's weight times its bid less its aircraft's
    stay bid, and S, the gains and every edge's row of unit costs follow
    from those weights.  The graph holds `template`'s own `GraphTemplate`
    fields; nothing of them is changed but `priced_rows`, which gains the
    rows of this profile's multiplier (unit / scale) if it has none:
    those rows are a function of that multiplier alone and are copied
    before the E5 rows replace theirs, so nothing that depends on another
    profile's bids is carried over, and a priced graph reprices as its
    template: S is the lcm of this profile's weight denominators.

    This is the library's one gate on bids: it raises
    ``ValueError("invalid bids: ...")`` with the violations
    `validate_profile` reports unless `bids` holds exactly one
    non-negative bid per menu entry, checked as the bids are read."""
    stays = []  # per aircraft: weight * stay bid as (numerator, denominator)
    priced = []  # per E5 edge: (index, reduced weight numerator, denominator, bonus)
    valid = True  # no bid read is negative; a missing one reads as -1
    for weight, stay_key, routes in template.aircraft:
        wn, wd = weight.numerator, weight.denominator
        stay = bids.get(stay_key, -1)
        sn, sd = stay.numerator, stay.denominator
        valid = valid and sn >= 0
        stays.append((wn * sn, wd * sd))
        for k, key, bonus in routes:
            bid = bids.get(key, -1)
            bn, bd = bid.numerator, bid.denominator
            valid = valid and bn >= 0
            num = wn * (bn * sd - sn * bd)
            den = wd * bd * sd
            common = gcd(num, den)
            priced.append((k, num // common, den // common, bonus))
    if not valid or len(bids) != len(stays) + len(priced):
        raise ValueError(f"invalid bids: "
                         f"{validate_profile(template.instance, bids, 'bids').violations}")
    scale = lcm(template.scale, *(den for _, _, den, _ in priced))
    unit = scale * template.tie_unit
    multiplier = unit // template.scale
    parking = template.parking_rows
    rows = template.priced_rows.get(multiplier)
    if rows is None:
        rows = template.priced_rows[multiplier] = tuple([
            tuple([-w * multiplier for w in parking[e.index]]) if e.index in parking
            else (0,) * e.upper for e in template.edges])
    rows = list(rows)
    for k, num, den, bonus in priced:
        rows[k] = (-(num * (unit // den) + bonus),)
    stay_den = lcm(1, *(den for _, den in stays))
    stay_welfare = Fraction(sum(num * (stay_den // den) for num, den in stays), stay_den)
    shared = {name: getattr(template, name) for name in _TEMPLATE_FIELDS}
    return AuxGraph(
        **shared, bids=bids, stay_welfare=stay_welfare, unit=unit,
        network=Network(template.topology, tuple(rows)),
    )


def build_graph(instance: Instance, bids: Profile) -> AuxGraph:
    """Construct the auxiliary graph for `instance` under `bids`."""
    return price_graph(compile_template(instance), bids)


def flow_objective(graph: AuxGraph, flows: Sequence[int], gain: int) -> Fraction:
    """Exact weighted flow value: the welfare of the allocation it spells,
    `stay_welfare` plus the flow's gain, the sum of its edges' gains,
    which a solved flow state carries as minus its cost (see `flow`),
    less its E5 bonuses over S * P."""
    carried = sum(bonus * flows[k] for _, _, routes in graph.aircraft
                  for k, _, bonus in routes if flows[k])
    return graph.stay_welfare + Fraction(gain - carried, graph.unit)


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
