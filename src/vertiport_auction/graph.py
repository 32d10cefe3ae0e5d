"""Time-expanded flow network for the reservation problem.

Builds the auxiliary graph whose max-weight flows correspond one-to-one
with feasible allocations: a parking vertex Park(r,t) per (vertiport,
slot), an arrival vertex Arr(r,t) and a departure vertex Dep(r,t) only
where that slot's gate can bind (below), a vertex AcDep(i,j,tau) only
for an (aircraft, departure time other than the stay time 0) with two
or more routes, and a sink.  In(r,t) is Arr(r,t) if the slot has one,
else Park(r,t); Out(r,t) is Dep(r,t) if the slot has one, else
Park(r,t).  These vertex names and the edge classes below describe the
layout, not stored objects: a graph keeps integer vertex and edge
indices only (`GraphTemplate`).  Edge classes:

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
the result.  `compile_template` reads no bid.  After its gate it
derives each aircraft's departure times, ascending with the stay's 0
first, once from its menu, and each vertiport's E6 bound from
`model.initial_occupancy`.  It compiles in one pass
over integer vertex indices: each vertex is only a number, counted as
it is laid out, and each edge is appended as its tail and head indices
and its bounds, from which the flow kernel's topology (`flow.Topology`:
vertex-index tails and heads and residual arcs) and the relaxed bounds
are built.  As it adds the edges it records the departure edge of each
(aircraft, tau), its only index, each E5 edge's tie-break bonus, from
powers computed once per aircraft, and each E3/E8 edge's congestion
row, whose unit weights it computes once S's parking part is known.
`price_graph` reads one bid profile: the E5 weights and `stay_welfare`,
then the scale S and the gains, as one row of unit costs (-gain per
unit) per edge of the template's own topology (`flow.Network`, whose
cold potentials are computed only when a solve starts cold).  An E5
edge's row is its one unit, an E3/E8 edge's one entry per unit of its
parking capacity, and every other edge's zeros, one per unit of its
upper bound: an E4 edge's one, a gate's below its aircraft count, an E6
edge's one per aircraft based there.  Only the E5 rows read the bids.
It is the library's one gate on bids: a profile that misses a menu
entry, names an unknown one, or holds a negative bid or one that is not
an `int` or a `Fraction` raises ``invalid bids: ...``, found as the
bids are read, so a valid profile costs no separate validation pass.
An `AuxGraph` is its template, the same field objects, plus those
priced fields; `build_graph` is the two stages in a row.  An auction
compiles one template and prices its clearing profile on it, once.
Each payment counterfactual, the clearing profile with one operator's
bids zeroed, is derived from the clearing graph at its gain unit
(`counterfactual_graph`): that operator's E5 rows become their bonuses
alone, its weighted stay bids leave `stay_welfare`, and every other row
is the clearing graph's own object.

A flow is a tuple of one integer per edge, in index order: the solver's
answer is one (see the `solver` module docstring), and
`flow_to_allocation` reads its allocation off the E5 entries, aircraft
by aircraft, through `GraphTemplate.aircraft`.  An allocation's
departures, arrivals and occupancies fix every entry, so it has exactly
one flow.

Integer pricing.  A weight lives only in its integer gain, one per E5
edge and one per E3/E8 unit, negated, in the network's rows; no weight
is held as a `Fraction`.  With a congestion row of integer numerators
G over L (`Vertiport.congestion_rows`), the q-th unit of an E3/E8 edge
weighs the pair (lambda.num * (G(q-1) - G(q)), lambda.den * L); an E5
weight w * (b - s), s the stay bid, is (w.num * (b.num * s.den - s.num *
b.den), w.den * b.den * s.den).  Each E5 pair is reduced by its gcd, and
an E3/E8 edge's pairs by the gcd of their one denominator and all their
numerators, whose quotient is the lcm of the units' reduced
denominators.  So S, the lcm of the reduced denominators, and every
gain are those of the same weights in `Fraction`s.  `stay_welfare`,
whose denominator need not divide S, is one `Fraction` built from an
integer numerator and denominator (a counterfactual's too: it subtracts
the zeroed operator's weighted stay bids as integers over a common
denominator), and a flow's welfare is

  stay_welfare + (gain - its E5 bonuses) / (S * P),

one `Fraction` per solve, built from integers (`flow_objective`;
`AuxGraph.unit` is S * P).

Payments are priced in the same integers.  Operator i, of weight w,
pays the others' welfare in its counterfactual's solve less theirs in
the clearing solve, over w.  In either graph the others' welfare is
their weighted stay bids plus

  (gain - bonuses - own) / (S * P),

where `bonuses` sums the bonuses of the E5 edges the flow grants to
the others, and `own` the whole gains, weight and bonus, of those it
grants to i, each read off that graph's own rows (a counterfactual's
give i's routes their bonuses alone).  The others' bids are the same
in both graphs, so their stay bids cancel, and the payment is one
`Fraction`: the difference of the two integers over S * P * w
(`mechanism.payment`, from each solve's `SolveResult.gain`).  Under
`RULE_NO_ZEROING` the counterfactual is the clearing graph itself,
whose rows still weigh i's bids.  Reading each graph's own rows, not
assuming zeroed ones, keeps the identity with the `Fraction` walk over
both allocations there too: both solves are the same, and the payment
is 0.

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

A common multiple of the weight denominators is as good a scale as
their lcm: every gain is still an integer, and a nonzero welfare
difference is still worth at least P in gain, so the optimum and
`flow_objective` do not change.  Zeroing an operator's bids only drops
denominators, so the clearing profile's S is a common multiple of its
counterfactual's, and a counterfactual keeps the clearing gain unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Mapping, Sequence, Tuple

from .flow import Network, Topology, compile_topology
from .model import (
    STAY,
    Allocation,
    Instance,
    OperatorId,
    Profile,
    initial_occupancy,
    is_rational,
    pseudo_bids,
    validate_instance,
    validate_profile,
)

DeltaAssignment = Mapping[Tuple[str, str], int]  # (operator, aircraft) -> tau
BidKey = Tuple[str, str, int]  # (operator, aircraft, menu key)


@dataclass(frozen=True)
class GraphTemplate:
    """The auxiliary graph of an instance with the bids left out, as
    integer vertex and edge indices: the kernel's topology, each edge's
    relaxed bounds, and the aircraft, parking rows and departure edges
    that name edges by index.  No vertex or edge is stored as an object.

    Only the E5 weights, `stay_welfare` and what they set, the scale S,
    the gains and the parking rows' multiplier, depend on the bids;
    `price_graph` computes those for one profile.  So one
    template serves every profile on its instance, and every graph
    derived from one priced on it (`counterfactual_graph`).
    """

    instance: Instance
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

    @property
    def edges(self) -> range:
        """The edges' indices.  Nothing in the package reads this: it stays
        only because the benchmark's tracer (`perfbench/tracing.py`) counts
        ``len(graph.edges)``, and goes when the benchmark counts
        `relaxed_upper` instead."""
        return range(len(self.relaxed_upper))


#: The fields a priced graph shares with its template, named once.
_TEMPLATE_FIELDS = tuple([f.name for f in fields(GraphTemplate)])


@dataclass(frozen=True)
class AuxGraph(GraphTemplate):
    """A template priced by one bid profile (`price_graph`), or a priced
    graph's pseudo-bid counterfactual (`counterfactual_graph`): the
    template's own fields, shared with it, plus what the bids set."""

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
    ports = instance.vertiports
    fleet = list(instance.iter_aircraft())
    n = len(fleet)
    largest_menu = max((len(craft.menu) for _, craft in fleet), default=1)

    # Per vertiport and slot (slot 0 unused), how many aircraft have a
    # route arriving there and departing from there; per aircraft, its
    # routes, its departure times ascending (the stay's 0 first) and those
    # with two or more routes.
    arriving, departing = [{port.id: [0] * (h + 1) for port in ports} for _ in range(2)]
    flights, ranked, shared = [], [], []
    for _, craft in fleet:
        routes = [entry for entry in craft.menu if entry.kind != STAY]
        for r, t in {(entry.destination, entry.arrive_time) for entry in routes}:
            arriving[r][t] += 1
        ranks = sorted({entry.depart_time for entry in craft.menu})
        taus = ranks[1:]
        for tau in taus:
            departing[craft.origin][tau] += 1
        departs = [entry.depart_time for entry in routes]
        flights.append(routes)
        ranked.append(ranks)
        shared.append({tau for tau in taus if departs.count(tau) > 1}
                      if len(departs) > len(taus) else ())
    most_times = max(map(len, ranked), default=1)

    # The vertices, numbered as they are laid out: per slot, each
    # vertiport's Arr if its arrival gate can bind (fewer units than
    # aircraft that may use it: an aircraft flies at most one route, so a
    # gate with room for all of them never binds), its Park, its Dep if
    # its departure gate can bind, then the slot's AcDep vertices.
    vertex_count = 0
    # Per vertiport, per slot: the index of In, Park and Out.
    ins, parks, outs = [{port.id: [0] * (h + 1) for port in ports} for _ in range(3)]
    choices = {}  # (aircraft, tau) -> AcDep
    for t in range(1, h + 1):
        for port in ports:
            r = port.id
            ins[r][t] = vertex_count
            if port.arrival_cap[t - 1] < arriving[r][t]:
                vertex_count += 1
            parks[r][t] = outs[r][t] = vertex_count
            vertex_count += 1
            if port.departure_cap[t - 1] < departing[r][t]:
                outs[r][t] = vertex_count
                vertex_count += 1
        for a, taus in enumerate(shared):
            if t in taus:
                choices[a, t] = vertex_count
                vertex_count += 1
    sink = vertex_count

    # The edges as (tail, head, lower, upper), in index order, recording
    # each E3/E8 edge's congestion row and, per aircraft, the departure
    # edge at each tau.  E1 and E2 at the gates that can bind, then E3.
    edges = [(u, v, 0, port.arrival_cap[t - 1]) for port in ports
             for t, (u, v) in enumerate(zip(ins[port.id], parks[port.id])) if u != v]
    edges += [(u, v, 0, port.departure_cap[t - 1]) for port in ports
              for t, (u, v) in enumerate(zip(parks[port.id], outs[port.id])) if u != v]
    parking = []  # (edge index, congestion row)
    for port in ports:
        for t in range(1, h):
            parking.append((len(edges), port.congestion_rows[t - 1]))
            edges.append((parks[port.id][t], parks[port.id][t + 1], 0, port.parking_cap[t - 1]))
    times: Dict[Tuple[str, str], Dict[int, int]] = {}
    for a, ((operator, craft), taus) in enumerate(zip(fleet, shared)):  # E4
        times[operator.id, craft.id] = carriers = dict.fromkeys(ranked[a][1:])
        for tau in carriers:
            if tau in taus:
                carriers[tau] = len(edges)
                edges.append((outs[craft.origin][tau], choices[a, tau], 0, 1))
    # E5, each with its tie-break bonus grant(a, rtau, rk) less the stay's
    # grant(a, 0, rk), a validated menu's keys being its ranks 0, 1, ...
    aircraft = []
    for a, ((operator, craft), routes, taus) in enumerate(zip(fleet, flights, shared)):
        time_weight = largest_menu ** n * most_times ** (n - 1 - a)
        key_weight = largest_menu ** (n - 1 - a)
        carriers, stay = times[operator.id, craft.id], craft.stay_key
        granted = []
        for entry in routes:
            tau = entry.depart_time
            if tau not in taus:
                carriers[tau] = len(edges)
            granted.append((len(edges), (operator.id, craft.id, entry.key),
                            key_weight * (stay - entry.key) - time_weight * ranked[a].index(tau)))
            edges.append((choices[a, tau] if tau in taus else outs[craft.origin][tau],
                          ins[entry.destination][entry.arrive_time], 0, 1))
        aircraft.append((operator.weight, (operator.id, craft.id, stay), tuple(granted)))
    for port in ports:  # E6, fixed at the aircraft based there
        based = initial_occupancy(instance, port.id)
        edges.append((sink, parks[port.id][1], based, based))
    for port in ports:  # E8
        parking.append((len(edges), port.congestion_rows[h - 1]))
        edges.append((parks[port.id][h], sink, 0, port.parking_cap[h - 1]))

    # An E3/E8 edge's q-th unit weighs lambda * (G(q-1) - G(q)) / L, from
    # its slot's congestion row G over L.  Over their one denominator, its
    # units' weights reduced together leave the lcm of their reduced
    # denominators, so S's parking part is the lcm of those.
    lam_num, lam_den = instance.congestion_ratio.numerator, instance.congestion_ratio.denominator
    scale, units = 1, []
    for k, (numerators, common) in parking:
        denominator = lam_den * common
        weights = [lam_num * (g - g_next) for g, g_next in zip(numerators, numerators[1:])]
        scale = lcm(scale, denominator // gcd(denominator, *weights))
        units.append((k, weights, denominator))
    # Tuples from lists, not iterators: CPython grows a tuple built from an
    # iterator by resizing it, and the freed result joins a free list that
    # only a full collection empties.
    parking_rows = {k: tuple([w * scale // denominator for w in weights])
                    for k, weights, denominator in units}
    tails, heads, lower, upper = [tuple([edge[i] for edge in edges]) for i in range(4)]
    topology = compile_topology(sink + 1, tails, heads, lower, upper)
    return GraphTemplate(
        instance, tuple(aircraft), scale, most_times ** n * largest_menu ** n,
        parking_rows, topology, relaxed_lower=lower, relaxed_upper=upper,
        departure_times=times,
    )


def price_graph(template: GraphTemplate, bids: Profile) -> AuxGraph:
    """The auxiliary graph of `template`'s instance under `bids`: each E5
    edge weighs its operator's weight times its bid less its aircraft's
    stay bid, and S, the gains and every edge's row of unit costs follow
    from those weights.  The graph holds `template`'s own `GraphTemplate`
    fields, unchanged, so a priced graph reprices as its template: S is
    the lcm of this profile's weight denominators.

    This is the library's one gate on bids: it raises
    ``ValueError("invalid bids: ...")`` with the violations
    `validate_profile` reports unless `bids` holds exactly one
    non-negative `int` or `Fraction` (`model.is_rational`) per menu
    entry, checked as the bids are read."""
    stays = []  # per aircraft: weight * stay bid as (numerator, denominator)
    priced = []  # per E5 edge: (index, reduced weight numerator, denominator, bonus)
    valid = True  # no bid read is negative; a missing or other one reads as -1
    for weight, stay_key, routes in template.aircraft:
        wn, wd = weight.numerator, weight.denominator
        stay = bids.get(stay_key)
        sn, sd = (stay.numerator, stay.denominator) if is_rational(stay) else (-1, 1)
        valid = valid and sn >= 0
        stays.append((wn * sn, wd * sd))
        for k, key, bonus in routes:
            bid = bids.get(key)
            bn, bd = (bid.numerator, bid.denominator) if is_rational(bid) else (-1, 1)
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
    rows = [tuple([-w * multiplier for w in parking[k]]) if k in parking else (0,) * up
            for k, up in enumerate(template.relaxed_upper)]
    for k, num, den, bonus in priced:
        rows[k] = (-(num * (unit // den) + bonus),)
    stay_den = lcm(1, *(den for _, den in stays))
    stay_welfare = Fraction(sum(num * (stay_den // den) for num, den in stays), stay_den)
    shared = {name: getattr(template, name) for name in _TEMPLATE_FIELDS}
    return AuxGraph(
        **shared, bids=bids, stay_welfare=stay_welfare, unit=unit,
        network=Network(template.topology, tuple(rows)),
    )


def counterfactual_graph(graph: AuxGraph, operator_id: OperatorId) -> AuxGraph:
    """The pseudo-bid counterfactual of `graph` for `operator_id`: `graph`
    with every bid of that operator zeroed (`model.pseudo_bids`), at
    `graph`'s own gain unit (module docstring, *Tie-break*).  Each of the
    operator's E5 edges then weighs 0 and gains its bonus alone, its row
    ``(-bonus,)``, and its weighted stay bids leave `stay_welfare`; every
    other row is `graph`'s own object.  `graph`'s bids passed the gate
    when it was priced, so nothing is checked again."""
    rows = list(graph.network.rows)
    # `stay_welfare` less the operator's weighted stay bids, as integers
    # over a common denominator.
    num, den = graph.stay_welfare.numerator, graph.stay_welfare.denominator
    for weight, stay_key, routes in graph.aircraft:
        if stay_key[0] == operator_id:
            stay = graph.bids[stay_key]
            dropped = weight.denominator * stay.denominator
            num, den = num * dropped - weight.numerator * stay.numerator * den, den * dropped
            for k, _, bonus in routes:
                rows[k] = (-bonus,)
    shared = {name: getattr(graph, name) for name in _TEMPLATE_FIELDS}
    return AuxGraph(
        **shared, bids=pseudo_bids(operator_id, graph.bids),
        stay_welfare=Fraction(num, den), unit=graph.unit,
        network=Network(graph.topology, tuple(rows)),
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
    stays, unit = graph.stay_welfare, graph.unit
    return Fraction(stays.numerator * unit + (gain - carried) * stays.denominator,
                    stays.denominator * unit)


def flow_to_allocation(graph: AuxGraph, flows: Sequence[int]) -> Allocation:
    """Read the canonical allocation off the E5 unit flows, aircraft by
    aircraft in `Instance.iter_aircraft` order: an aircraft granted no
    route stays.  It is canonical by construction, with no check: one
    key per aircraft of `graph.aircraft`, each taken from that aircraft's
    own routes or its stay."""
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
    return allocation
