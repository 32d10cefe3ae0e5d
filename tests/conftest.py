"""Shared fixtures and checks: a deadline on every test, hand-built
instances with known outcomes, strategies drawing arbitrary validated
instances and mistyped ones, the exhaustive reference search, and the
exact solver/mechanism/flow comparisons against the oracle."""

import itertools
import signal
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from math import lcm
from typing import NamedTuple

import pytest
from hypothesis import strategies as st

from vertiport_auction import solver
from vertiport_auction.generator import GeneratorConfig
from vertiport_auction.graph import (
    build_graph,
    flow_objective,
    flow_to_allocation,
)
from vertiport_auction.mechanism import run_auction
from vertiport_auction.model import (
    STAY,
    TRANSIT,
    Aircraft,
    Instance,
    Operator,
    RouteOption,
    Vertiport,
    congestion_row,
    granted_value,
    is_feasible,
    movements,
    occupancy_table,
    social_welfare,
)
from vertiport_auction.oracle import enumerate_feasible, oracle_optimal, oracle_payment


#: Seconds any one test may run; the slowest takes about 5.
DEADLINE_S = 120


class DeadlineExceeded(BaseException):
    """A test ran past its deadline.  Not an `Exception`, so neither an
    ``except Exception`` in the code under test nor hypothesis, which
    would rerun a failing example to shrink it, swallows it."""


@contextmanager
def deadline(seconds, name):
    """Raise `DeadlineExceeded` naming `name` wherever the code in the block
    runs when `seconds` have passed.  A deadline armed around this one
    is re-armed afterwards with what it had left when this one began."""
    def expire(signum, frame):
        raise DeadlineExceeded(f"{name} ran past its deadline of {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    began = time.monotonic()
    outer, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if outer:
            signal.setitimer(signal.ITIMER_REAL,
                             max(outer - (time.monotonic() - began), 1e-3))


@pytest.fixture(autouse=True)
def per_test_deadline(request):
    """Every test fails by name after `DEADLINE_S` seconds instead of
    hanging the suite, as a kernel that never settles would."""
    with deadline(DEADLINE_S, request.node.nodeid):
        yield


def zero_congestion(parking_cap):
    """All-zero congestion tables of the right shape."""
    return tuple(tuple(Fraction(0) for _ in range(cap + 1)) for cap in parking_cap)


def fraction_rows(table):
    """A congestion table of rationals, ``table[t - 1][q]``, in its stored
    form, `Vertiport.congestion_rows`."""
    return tuple(congestion_row([Fraction(v).numerator for v in row],
                                [Fraction(v).denominator for v in row])
                 for row in table)


def make_port(pid, parking, arrival, departure, congestion=None):
    return Vertiport(
        id=pid,
        arrival_cap=tuple(arrival),
        departure_cap=tuple(departure),
        parking_cap=tuple(parking),
        congestion_rows=fraction_rows(congestion or zero_congestion(parking)),
    )


def stay(key=0, origin=None):
    return RouteOption(key=key, kind=STAY, depart_time=0, destination=origin)


def transit(key, depart, destination, arrive):
    return RouteOption(key=key, kind=TRANSIT, depart_time=depart,
                       destination=destination, arrive_time=arrive)


@pytest.fixture
def second_price():
    """Two single-aircraft operators at v1 compete for one arrival slot.

    Both can depart v1 at t=2 but only one may arrive at v2 at t=3.
    Bids 10 vs 6, stay bids 0, lambda 0, unit weights: classic
    second-price shape — the 10-bidder wins and pays 6.
    """
    route = transit(1, 2, "v2", 3)
    instance = Instance(
        horizon=3,
        congestion_ratio=Fraction(0),
        vertiports=(
            make_port("v1", (2, 2, 2), (0, 0, 0), (0, 2, 0)),
            make_port("v2", (1, 1, 1), (0, 0, 1), (0, 0, 0)),
        ),
        operators=(
            Operator("op1", Fraction(1),
                     (Aircraft("a1", "v1", (stay(origin="v1"), route)),)),
            Operator("op2", Fraction(1),
                     (Aircraft("a1", "v1", (stay(origin="v1"), route)),)),
        ),
    )
    bids = {
        ("op1", "a1", 0): Fraction(0), ("op1", "a1", 1): Fraction(10),
        ("op2", "a1", 0): Fraction(0), ("op2", "a1", 1): Fraction(6),
    }
    return instance, bids


@pytest.fixture
def exchange():
    """Two aircraft at mutually full cap-1 vertiports swapping places.

    Neither can move alone (the destination is full until the other
    leaves), but the simultaneous swap is feasible; with no competition
    both payments are zero.
    """
    instance = Instance(
        horizon=3,
        congestion_ratio=Fraction(0),
        vertiports=(
            make_port("v1", (1, 1, 1), (0, 0, 1), (0, 1, 0)),
            make_port("v2", (1, 1, 1), (0, 0, 1), (0, 1, 0)),
        ),
        operators=(
            Operator("op1", Fraction(1),
                     (Aircraft("a1", "v1",
                               (stay(origin="v1"), transit(1, 2, "v2", 3))),)),
            Operator("op2", Fraction(1),
                     (Aircraft("b1", "v2",
                               (stay(origin="v2"), transit(1, 2, "v1", 3))),)),
        ),
    )
    bids = {
        ("op1", "a1", 0): Fraction(0), ("op1", "a1", 1): Fraction(10),
        ("op2", "b1", 0): Fraction(0), ("op2", "b1", 1): Fraction(10),
    }
    return instance, bids


@pytest.fixture
def single_mover():
    """Two vertiports, one aircraft with a stay and one transit route."""
    instance = Instance(
        horizon=3,
        congestion_ratio=Fraction(0),
        vertiports=(
            make_port("v1", (1, 1, 1), (0, 0, 0), (0, 1, 0)),
            make_port("v2", (1, 1, 1), (0, 0, 1), (0, 0, 0)),
        ),
        operators=(
            Operator("op1", Fraction(1),
                     (Aircraft("a1", "v1",
                               (stay(origin="v1"), transit(1, 2, "v2", 3))),)),
        ),
    )
    bids = {("op1", "a1", 0): Fraction(0), ("op1", "a1", 1): Fraction(5)}
    return instance, bids


@pytest.fixture
def reluctant_movers():
    """Two aircraft at v1 whose every route bid is below their stay bid,
    so every route gains less than staying; two aircraft parked at v1
    from slot 2 cost 10 a slot, so one must leave.

    a1 (stay 8, routes 4 and 5) and b1 (stay 7, route 3) compete for one
    arrival at v2.  a1 leaves on route 2, giving up 3 where b1 would give
    up 4: welfare 12, and op2 pays the 3 its b1 keeps op1's a1 from.
    """
    crowded = (Fraction(0), Fraction(0), Fraction(10))
    instance = Instance(
        horizon=3,
        congestion_ratio=Fraction(1),
        vertiports=(
            make_port("v1", (2, 2, 2), (0, 0, 0), (1, 1, 0),
                      ((Fraction(0),) * 3, crowded, crowded)),
            make_port("v2", (1, 1, 1), (0, 0, 1), (0, 0, 0)),
        ),
        operators=(
            Operator("op1", Fraction(1), (Aircraft("a1", "v1", (
                stay(origin="v1"), transit(1, 1, "v2", 3),
                transit(2, 2, "v2", 3))),)),
            Operator("op2", Fraction(1), (Aircraft("b1", "v1", (
                stay(origin="v1"), transit(1, 2, "v2", 3))),)),
        ),
    )
    bids = {
        ("op1", "a1", 0): Fraction(8), ("op1", "a1", 1): Fraction(4),
        ("op1", "a1", 2): Fraction(5),
        ("op2", "b1", 0): Fraction(7), ("op2", "b1", 1): Fraction(3),
    }
    return instance, bids


@pytest.fixture
def empty_instance():
    """One vertiport, no aircraft."""
    return Instance(
        horizon=1,
        congestion_ratio=Fraction(0),
        vertiports=(make_port("v1", (2,), (1,), (1,)),),
        operators=(),
    )


class Edge(NamedTuple):
    """An edge of the auxiliary graph as the `graph` module docstring
    names it, with its relaxed bounds."""
    index: int
    cls: str  # "E1".."E6", "E8"
    key: tuple
    tail: tuple
    head: tuple
    lower: int
    upper: int


# Vertex labels: plain tuples, so they double as dict keys.
SINK = ("sink",)


def park(r, t):
    return ("park", r, t)


def arr(r, t):
    return ("arr", r, t)


def dep(r, t):
    return ("dep", r, t)


def acdep(i, j, tau):
    return ("acdep", i, j, tau)


def graph_view(graph):
    """(vertices, edges) of a template or priced graph as the `graph`
    module docstring names them: a label per vertex index and an `Edge`
    per edge index, derived from the fields the template keeps.  The E6
    edges leave the sink in vertiport order for Park(r, 1), the E3 edges
    chain each vertiport's Park vertices, the heads of the departure
    edges that are not routes (E4) are AcDep, and every other edge that
    is no route is E1 into a Park, from Arr, or E2 out of one, to Dep."""
    tails, heads = graph.topology.tails, graph.topology.heads
    sink = len(graph.topology.arcs) - 1
    routes = {k: key for _, _, granted in graph.aircraft for k, key, _ in granted}
    vertices = [None] * sink + [SINK]
    fleet = [k for k, u in enumerate(tails) if u == sink]
    for port, k in zip(graph.instance.vertiports, fleet):
        vertices[heads[k]] = park(port.id, 1)
    for k in sorted(graph.parking_rows):
        if heads[k] != sink:
            _, r, t = vertices[tails[k]]
            vertices[heads[k]] = park(r, t + 1)
    choices = set()
    for (i, j), carriers in graph.departure_times.items():
        for tau, k in carriers.items():
            if k not in routes:
                choices.add(k)
                vertices[heads[k]] = acdep(i, j, tau)
    for k, (u, v) in enumerate(zip(tails, heads)):
        if k in routes or k in choices or k in graph.parking_rows or u == sink:
            continue
        if vertices[u] is None:
            vertices[u] = arr(*vertices[v][1:])
        else:
            vertices[v] = dep(*vertices[u][1:])
    edges = []
    for k, (u, v) in enumerate(zip(tails, heads)):
        tail, head = vertices[u], vertices[v]
        if k in routes:
            cls, key = "E5", routes[k]
        elif tail == SINK:
            cls, key = "E6", (head[1],)
        elif head == SINK:
            cls, key = "E8", (tail[1],)
        elif tail[0] == "arr":
            cls, key = "E1", head[1:]
        elif head[0] == "dep":
            cls, key = "E2", tail[1:]
        elif head[0] == "acdep":
            cls, key = "E4", head[1:]
        else:
            cls, key = "E3", tail[1:]
        edges.append(Edge(k, cls, key, tail, head,
                          graph.relaxed_lower[k], graph.relaxed_upper[k]))
    return tuple(vertices), tuple(edges)


def graph_edges(graph):
    """`graph`'s edges as `Edge` tuples, in index order (`graph_view`)."""
    return graph_view(graph)[1]


def edges_of_class(graph, cls):
    return [e for e in graph_edges(graph) if e.cls == cls]


def congestion_costs(port):
    """``congestion_costs(port)[t - 1][q]``, the cost of ``q`` parked
    aircraft in slot ``t`` as a `Fraction`, derived from the vertiport's
    `congestion_rows`."""
    return tuple(tuple(Fraction(g, common) for g in numerators)
                 for numerators, common in port.congestion_rows)


def total_aircraft(instance):
    return sum(len(operator.fleet) for operator in instance.operators)


def single_slot_config(seed):
    """Degenerate single-slot setting: H = 1, slack-dominating gate
    capacities, single-aircraft operators (menus reduce to stay-only).
    """
    return GeneratorConfig(
        seed=seed,
        horizon=(1, 1),
        fleet_size=(1, 1),
        operators=(2, 3),
        arrival_cap=(1000, 1000),
        departure_cap=(1000, 1000),
        extra_parking=(0, 2),
    )


def all_stay_allocation(instance):
    """Every aircraft granted its stay."""
    return {(operator.id, craft.id): craft.stay_key
            for operator, craft in instance.iter_aircraft()}


def delta_of_allocation(instance, allocation):
    """Departure-time assignment induced by a canonical allocation."""
    delta = {}
    for operator, craft in instance.iter_aircraft():
        entry = craft.option(allocation[(operator.id, craft.id)])
        delta[(operator.id, craft.id)] = entry.depart_time
    return delta


def allocation_to_flow(graph, allocation):
    """Direct construction of the unique flow matching `allocation`."""
    instance = graph.instance
    report = is_feasible(instance, allocation)
    if not report.feasible:
        raise ValueError(f"allocation infeasible: {report.violations}")
    delta = delta_of_allocation(instance, allocation)
    arrivals, departures = movements(instance, allocation)
    occupancy = occupancy_table(instance, allocation)

    edges = graph_edges(graph)
    flows = [0] * len(edges)
    for e in edges:
        if e.cls == "E1":
            flows[e.index] = arrivals.get(e.key, 0)
        elif e.cls == "E2":
            flows[e.index] = departures.get(e.key, 0)
        elif e.cls in ("E3", "E8"):
            r = e.key[0]
            t = e.key[1] if e.cls == "E3" else instance.horizon
            flows[e.index] = occupancy[(r, t)]
        elif e.cls == "E4":
            i, j, tau = e.key
            flows[e.index] = 1 if delta[(i, j)] == tau else 0
        elif e.cls == "E5":
            i, j, k = e.key
            flows[e.index] = 1 if allocation[(i, j)] == k else 0
        elif e.cls == "E6":  # every aircraft based at r
            flows[e.index] = e.lower
    return tuple(flows)


def reference_pricing(graph):
    """(gains, parking gains, S * P, stay welfare) of `graph`'s edges
    under its bids, priced in `Fraction`s from the `graph` module
    docstring's formulas: lambda * (g(q-1) - g(q)) per unit q of an E3/E8
    edge, w * (b - b_stay) per E5 edge, S the lcm of the reduced weight
    denominators, and gain = weight * S * P + bonus."""
    instance, bids = graph.instance, graph.bids
    lam = Fraction(instance.congestion_ratio)
    ports = {port.id: port for port in instance.vertiports}
    fleet = list(instance.iter_aircraft())
    n = len(fleet)
    most_times = max((len(c.departure_times()) for _, c in fleet), default=1)
    largest_menu = max((len(c.menu) for _, c in fleet), default=1)
    rank = {(operator.id, craft.id): a for a, (operator, craft) in enumerate(fleet)}

    def grant(operator, craft, key):
        a = rank[operator.id, craft.id]
        rtau = craft.departure_times().index(craft.option(key).depart_time)
        rk = [entry.key for entry in craft.menu].index(key)
        return (largest_menu ** n * most_times ** (n - 1 - a) * (most_times - 1 - rtau)
                + largest_menu ** (n - 1 - a) * (largest_menu - 1 - rk))

    weights, bonuses, parking = [], [], {}
    for e in graph_edges(graph):
        weight, bonus = Fraction(0), 0
        if e.cls in ("E3", "E8"):
            t = e.key[1] if e.cls == "E3" else instance.horizon
            row = congestion_costs(ports[e.key[0]])[t - 1]
            parking[e.index] = [lam * (row[q - 1] - row[q]) for q in range(1, e.upper + 1)]
        elif e.cls == "E5":
            i, j, k = e.key
            operator = instance.operator(i)
            craft = operator.aircraft(j)
            weight = Fraction(operator.weight) * (
                Fraction(bids[i, j, k]) - Fraction(bids[i, j, craft.stay_key]))
            bonus = grant(operator, craft, k) - grant(operator, craft, craft.stay_key)
        weights.append(weight)
        bonuses.append(bonus)
    unit = lcm(1, *(w.denominator for w in weights),
               *(w.denominator for row in parking.values() for w in row)) * (
        most_times ** n * largest_menu ** n)
    scaled = [w * unit for w in weights]
    parking_gains = {k: tuple(w * unit for w in row) for k, row in parking.items()}
    assert all(x.denominator == 1 for x in scaled)
    assert all(x.denominator == 1 for row in parking_gains.values() for x in row)
    stay_welfare = Fraction(0)
    for operator, craft in fleet:
        stay_welfare += Fraction(operator.weight) * Fraction(
            bids[operator.id, craft.id, craft.stay_key])
    return (tuple(x.numerator + bonus for x, bonus in zip(scaled, bonuses)),
            parking_gains, unit, stay_welfare)


def unit_gains(graph):
    """Each edge's row of unit gains: minus its row of unit costs in the
    kernel's network."""
    return [tuple(-cost for cost in row) for row in graph.network.rows]


def flow_gain(graph, flows):
    """Integer gain of a flow, walked over every edge: the reference for
    the gain a solved state carries, minus its cost.  An edge carrying f
    units gains minus its first f units' costs."""
    return -sum(sum(row[:f]) for row, f in zip(graph.network.rows, flows))


def assert_priced_like_reference(graph):
    """Each E3/E8 edge's units gain the reference's parking gains, each
    other edge's units its reference gain, one per unit of its upper
    bound: an E5 edge its route's gain, any other edge 0."""
    gains, parking_gains, unit, stay_welfare = reference_pricing(graph)
    assert unit_gains(graph) == [tuple(parking_gains.get(e.index, (gain,) * e.upper))
                                 for e, gain in zip(graph_edges(graph), gains)]
    assert graph.unit == unit
    assert type(graph.stay_welfare) is Fraction and graph.stay_welfare == stay_welfare


def incidence(graph):
    """Signed vertex-edge incidence matrix as rows of ints: +1 at head,
    -1 at tail."""
    vertices, edges = graph_view(graph)
    index = {v: i for i, v in enumerate(vertices)}
    matrix = [[0] * len(edges) for _ in vertices]
    for e in edges:
        matrix[index[e.tail]][e.index] = -1
        matrix[index[e.head]][e.index] = 1
    return matrix


def truncated_incidence(graph):
    """Incidence matrix without the sink row."""
    return [row for v, row in zip(graph_view(graph)[0], incidence(graph)) if v != SINK]


def remaining_welfare(instance, allocation, bids, operator_id):
    """Weighted bids of everyone but `operator_id`, minus the full
    congestion term (which still counts that operator's aircraft).
    """
    weight = instance.operator(operator_id).weight
    return (social_welfare(instance, allocation, bids)
            - weight * granted_value(instance, allocation, bids, operator_id))


class ReadRecorder(list):
    """A bound vector that records the entries the kernel reads by index,
    which are those of the edges it sets up."""

    def __init__(self, values):
        super().__init__(values)
        self.read = set()

    def __getitem__(self, k):
        self.read.add(k)
        return super().__getitem__(k)


def enumerate_deltas(instance):
    """Every departure-time combination, lexicographic over the canonical
    aircraft order with tau ascending.  Empty fleet yields one empty map.
    """
    pairs = [(op.id, craft.id) for op, craft in instance.iter_aircraft()]
    choices = [craft.departure_times() for _, craft in instance.iter_aircraft()]
    for combo in itertools.product(*choices):
        yield dict(zip(pairs, combo))


def exhaustive_solve(graph):
    """The reference for `solver.solve`: every departure-time combination
    (`enumerate_deltas`), each leaf solved cold by
    `solver.solve_fixed_delta`, the best gain kept.  Distinct allocations
    never tie in gain, so this is the one optimum branch-and-bound must
    find.  Its stats stay empty and it keeps no root."""
    best = None
    for delta in enumerate_deltas(graph.instance):
        leaf = solver.solve_fixed_delta(graph, delta)
        if leaf is not None and (best is None or leaf[0] > best[0]):
            best = leaf
    if best is None:
        raise solver.SolverError("no feasible departure-time assignment")
    gain, flow = best
    return solver.SolveResult(flow=flow, objective=flow_objective(graph, flow, gain),
                              allocation=flow_to_allocation(graph, flow),
                              stats=solver.SolveStats(), root=None, unit=graph.unit)


def assert_matches_oracle(instance, bids):
    """Branch-and-bound and the exhaustive reference return the oracle's
    allocation and objective, and the one flow of that allocation; the
    auction charges every operator the oracle's payment, exactly."""
    expected = oracle_optimal(instance, bids)
    graph = build_graph(instance, bids)
    for search in (solver.solve, exhaustive_solve):
        result = search(graph)
        assert (result.allocation, result.objective) == expected, search.__name__
        assert result.flow == allocation_to_flow(graph, result.allocation), search.__name__
    outcome = run_auction(instance, bids)
    for operator in instance.operators:
        assert outcome.payments[operator.id] == oracle_payment(
            instance, bids, operator.id), operator.id


def assert_circulation(graph, flows, lower, upper):
    """One flow per edge, within bounds and balanced at every vertex."""
    vertices, edges = graph_view(graph)
    assert len(flows) == len(edges)
    assert all(lo <= f <= up for f, lo, up in zip(flows, lower, upper))
    balance = dict.fromkeys(vertices, 0)
    for e, f in zip(edges, flows):
        balance[e.tail] -= f
        balance[e.head] += f
    assert not any(balance.values())


def assert_certified(graph, state, lower, upper):
    """`state` is a circulation within the bounds whose potentials give
    every residual arc with capacity a non-negative reduced cost, read
    off the graph's own edges and their rows of unit gains: an edge's
    forward arc costs minus the gain of its unit f+1, its reverse arc
    the gain of its unit f.  The state was priced with the network's
    own rows."""
    assert_circulation(graph, state.flows, lower, upper)
    assert state.residual.rows is graph.network.rows
    vertices, edges = graph_view(graph)
    index = {v: position for position, v in enumerate(vertices)}
    p = state.potential
    for e, row, lo, up, f in zip(edges, unit_gains(graph), lower, upper, state.flows):
        slack = p[index[e.tail]] - p[index[e.head]]
        if f < up:
            assert -row[f] + slack >= 0
        if f > lo:
            assert -row[f - 1] + slack <= 0


def assert_carried_residual(graph, state, lower, upper):
    """A solved state carries the residual form of its own flow, rebuilt
    here from its flows and bounds and the network's rows of unit costs:
    copies of the bounds, each arc's capacity and cost (an edge's forward
    arc costs its unit f+1, 0 past its last unit, its reverse arc minus
    its unit f, 0 at f = 0), as its cost minus the flow's `flow_gain`,
    the network's own rows and the state's own potentials."""
    residual = state.residual
    assert list(residual.lower) == list(lower) and list(residual.upper) == list(upper)
    cap, arc_cost = [], []
    for row, f, lo, up in zip(graph.network.rows, state.flows, lower, upper):
        cap += [up - f, f - lo]
        arc_cost += [row[f] if f < len(row) else 0, -row[f - 1] if f else 0]
    assert list(residual.cap) == cap and list(residual.arc_cost) == arc_cost
    assert -residual.cost == flow_gain(graph, state.flows)
    assert residual.rows is graph.network.rows
    assert residual.potential is state.potential


@contextmanager
def checked_solves():
    """Within the block, every flow solve the solver issues that finds a
    flow is checked (`assert_certified`, `assert_carried_residual`)
    against the bounds of its node; yields the list of checked states."""
    kernel = solver._min_cost_flow
    checked = []

    def checked_kernel(graph, partial_delta, start, stats):
        state = kernel(graph, partial_delta, start, stats)
        if state is not None:
            bounds = solver._resolved_bounds(graph, partial_delta)
            assert_certified(graph, state, *bounds)
            assert_carried_residual(graph, state, *bounds)
            checked.append(state)
        return state

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_min_cost_flow", checked_kernel)
        yield checked


def assert_flow_correspondence(instance, bids):
    """Every feasible allocation maps to a circulation within the bounds
    its departure times resolve, with the allocation's welfare as its
    objective, and reads back as the same allocation."""
    graph = build_graph(instance, bids)
    for x in enumerate_feasible(instance):
        flow = allocation_to_flow(graph, x)
        assert_circulation(graph, flow, *solver._resolved_bounds(
            graph, delta_of_allocation(instance, x)))
        gain = flow_gain(graph, flow)
        assert flow_objective(graph, flow, gain) == social_welfare(instance, x, bids)
        assert flow_to_allocation(graph, flow) == x


_RATIONALS = st.builds(Fraction, st.integers(0, 6), st.sampled_from((1, 2, 3)))


@st.composite
def validated_instances(draw):
    """(instance, bids) drawn directly, not through the generator: H 1-4,
    1-3 vertiports, 1-3 operators with 0-2 aircraft, 0-2 transit routes
    per aircraft departing anywhere in [1, H-1] (destination possibly the
    origin), gates 0-2, parking = initial + 0-2, convex congestion and
    rational lambda, weights and bids."""
    h = draw(st.integers(1, 4))
    port_ids = [f"v{i + 1}" for i in range(draw(st.integers(1, 3)))]
    origins = dict.fromkeys(port_ids, 0)
    operators = []
    for o in range(draw(st.integers(1, 3))):
        fleet = []
        for a in range(draw(st.integers(0, 2))):
            origin = draw(st.sampled_from(port_ids))
            origins[origin] += 1
            menu = [stay(origin=origin)]
            for _ in range(draw(st.integers(0, 2)) if h > 1 else 0):
                depart = draw(st.integers(1, h - 1))
                menu.append(transit(len(menu), depart, draw(st.sampled_from(port_ids)),
                                    draw(st.integers(depart + 1, h))))
            fleet.append(Aircraft(f"a{a + 1}", origin, tuple(menu)))
        weight = draw(st.builds(Fraction, st.integers(1, 4), st.sampled_from((1, 2))))
        operators.append(Operator(f"op{o + 1}", weight, tuple(fleet)))
    gates = st.lists(st.integers(0, 2), min_size=h, max_size=h)
    ports = []
    for pid in port_ids:
        parking = [origins[pid] + draw(st.integers(0, 2)) for _ in range(h)]
        rows = []
        for cap in parking:
            increment, slope = draw(_RATIONALS), draw(_RATIONALS)
            row = [Fraction(0)]
            for _ in range(cap):
                row.append(row[-1] + increment)
                increment += slope
            rows.append(tuple(row))
        ports.append(make_port(pid, parking, draw(gates), draw(gates), tuple(rows)))
    instance = Instance(h, draw(_RATIONALS), tuple(ports), tuple(operators))
    bids = {(operator.id, craft.id, entry.key): draw(_RATIONALS)
            for operator, craft in instance.iter_aircraft() for entry in craft.menu}
    return instance, bids


_NOT_STR = st.one_of(st.integers(), st.floats(), st.none(), st.booleans())
_NOT_INT = st.one_of(st.text(max_size=2), st.floats(), st.none(), st.booleans())


@st.composite
def mistyped_instances(draw):
    """(instance, bids, problem): a `validated_instances` draw with one
    vertiport, operator or aircraft id replaced by an `int`, `float`,
    `None` or `bool`, or one menu key or departure time by a `str`,
    `float`, `None` or `bool`, and the text of the violation that names
    it.  The bids are the draw's own.  200 examples run in 1-3 s."""
    instance, bids = draw(validated_instances())
    ports, operators = list(instance.vertiports), list(instance.operators)
    entries = [(o, a, e) for o, operator in enumerate(operators)
               for a, craft in enumerate(operator.fleet) for e in range(len(craft.menu))]
    site = draw(st.sampled_from(("vertiport", "operator", "aircraft", "key", "departure")
                                if entries else ("vertiport", "operator")))
    value = draw(_NOT_STR if site in ("vertiport", "operator", "aircraft") else _NOT_INT)
    if site == "vertiport":
        p = draw(st.integers(0, len(ports) - 1))
        ports[p] = replace(ports[p], id=value)
        problem = f"vertiport id must be a str, got {value!r}"
    elif site == "operator":
        o = draw(st.integers(0, len(operators) - 1))
        operators[o] = replace(operators[o], id=value)
        problem = f"operator id must be a str, got {value!r}"
    else:
        o, a, e = draw(st.sampled_from(entries))
        fleet, craft = list(operators[o].fleet), operators[o].fleet[a]
        if site == "aircraft":
            fleet[a] = replace(craft, id=value)
            problem = f": id must be a str, got {value!r}"
        else:
            menu = list(craft.menu)
            if site == "key":
                menu[e] = replace(menu[e], key=value)
                problem = f"menu key must be an int, got {value!r}"
            else:
                menu[e] = replace(menu[e], depart_time=value)
                problem = f"departure time must be an int, got {value!r}"
            fleet[a] = replace(craft, menu=tuple(menu))
        operators[o] = replace(operators[o], fleet=tuple(fleet))
    return replace(instance, vertiports=tuple(ports), operators=tuple(operators)), bids, problem
