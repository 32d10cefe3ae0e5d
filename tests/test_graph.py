"""Auxiliary graph: construction, incidence, flow correspondence."""

import ast
import hashlib
import importlib
from collections import Counter, defaultdict
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SINK,
    acdep,
    all_stay_allocation,
    allocation_to_flow,
    arr,
    assert_flow_correspondence,
    delta_of_allocation,
    dep,
    edges_of_class,
    flow_gain,
    graph_edges,
    graph_view,
    incidence,
    make_port,
    park,
    stay,
    transit,
    truncated_incidence,
    unit_gains,
)
from vertiport_auction import graph as graph_module, mechanism
from vertiport_auction.generator import GeneratorConfig, generate
from vertiport_auction.graph import (
    build_graph,
    compile_template,
    counterfactual_graph,
    flow_objective,
    flow_to_allocation,
    price_graph,
)
from vertiport_auction.model import (
    Aircraft,
    Instance,
    Operator,
    initial_occupancy,
    social_welfare,
    validate_instance,
    validate_profile,
)
from vertiport_auction.mechanism import run_auction
from vertiport_auction.oracle import enumerate_feasible
from vertiport_auction.solver import solve
from test_small_scope import small_scope

F = Fraction


def exact_det(matrix):
    """Integer determinant by fraction-free Gaussian elimination (Bareiss)."""
    m = [list(map(int, row)) for row in matrix]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


class TestBuildGraph:
    def test_two_port_single_aircraft_vertex_count(self, single_mover):
        """One aircraft, one route: each gate it uses has room for it, so
        neither binds, and its one departure time needs no choice.  The
        graph is a parking vertex per port and slot plus the sink, and
        the route edge itself is the aircraft's departure edge at 2."""
        instance, bids = single_mover
        graph = build_graph(instance, bids)
        vertices, edges = graph_view(graph)
        assert list(vertices) == [park(r, t) for t in (1, 2, 3)
                                  for r in ("v1", "v2")] + [SINK]
        (e5,) = edges_of_class(graph, "E5")
        assert (e5.tail, e5.head) == (park("v1", 2), park("v2", 3))
        assert graph.departure_times == {("op1", "a1"): {2: e5.index}}
        assert {e.cls for e in edges} == {"E3", "E5", "E6", "E8"}

    def test_size_formula_random(self):
        """A parking vertex per (vertiport, slot), one Arr, Dep or AcDep
        vertex per E1, E2 or E4 edge, and the sink; one E3 per slot but
        the last, an E6 and an E8 per vertiport and an E5 per route."""
        for seed in range(10):
            document = generate(GeneratorConfig(seed=seed))
            instance = document.instance
            vertices, edges = graph_view(build_graph(instance, document.bids))
            count = Counter(e.cls for e in edges)
            ports, h = len(instance.vertiports), instance.horizon
            assert len(vertices) == (
                h * ports + count["E1"] + count["E2"] + count["E4"] + 1)
            assert count["E3"] == (h - 1) * ports
            assert count["E6"] == count["E8"] == ports
            assert count["E5"] == sum(len(craft.menu) - 1
                                      for _, craft in instance.iter_aircraft())
            assert sum(v[0] in ("arr", "dep", "acdep") for v in vertices) == (
                count["E1"] + count["E2"] + count["E4"])

    def test_no_aircraft_single_slot(self, empty_instance):
        """No route uses a gate, so the graph has none."""
        graph = build_graph(empty_instance, {})
        vertices, edges = graph_view(graph)
        assert vertices == (park("v1", 1), SINK)
        assert {e.cls for e in edges} == {"E6", "E8"}
        by_class = {cls: edges_of_class(graph, cls) for cls in
                    ("E1", "E2", "E3", "E4", "E5", "E6", "E8")}
        (e8,) = by_class["E8"]  # one edge carries the slot's parking cap 2
        assert (e8.key, e8.lower, e8.upper) == (("v1",), 0, 2)
        assert unit_gains(graph) == [(), (0, 0)]  # E6 carries no unit, E8 two
        for cls in ("E1", "E2", "E3", "E4", "E5"):
            assert by_class[cls] == []
        # The initial-fleet edge carries no aircraft here.
        (e6,) = by_class["E6"]
        assert (e6.tail, e6.head, e6.lower, e6.upper) == (SINK, park("v1", 1), 0, 0)

    def test_shared_departure_time_merges_vertices(self):
        inst = Instance(
            horizon=3,
            congestion_ratio=F(0),
            vertiports=(
                make_port("v1", (1, 1, 1), (0, 0, 0), (0, 1, 0)),
                make_port("v2", (2, 2, 2), (0, 2, 2), (0, 0, 0)),
            ),
            operators=(Operator("op1", F(1), (
                Aircraft("a1", "v1", (stay(origin="v1"),
                                      transit(1, 2, "v2", 3),
                                      transit(2, 2, "v2", 3))),)),),
        )
        bids = {("op1", "a1", k): F(k) for k in range(3)}
        graph = build_graph(inst, bids)
        ac_vertices = [v for v in graph_view(graph)[0] if v[0] == "acdep"]
        assert ac_vertices == [acdep("op1", "a1", 2)]
        assert len(edges_of_class(graph, "E5")) == 2

    def test_edge_shapes_and_weights(self, second_price):
        instance, bids = second_price
        graph = build_graph(instance, bids)
        e5 = {e.key: unit_gains(graph)[e.index] for e in edges_of_class(graph, "E5")}
        # S = 1 and P = R^n * M^n = 2^2 * 2^2; each route gains its weight
        # 10 or 6 times S * P plus its grant less the stay's: 0 - 10 for
        # the first aircraft, 0 - 5 for the second (module docstring).
        assert graph.unit == 16
        assert e5 == {("op1", "a1", 1): (10 * 16 - 10,), ("op2", "a1", 1): (6 * 16 - 5,)}
        assert sorted(bonus for _, _, routes in graph.aircraft
                      for _, _, bonus in routes) == [-10, -5]
        for e in edges_of_class(graph, "E1"):
            assert e.tail == arr(*e.key) and e.head == park(*e.key)
        for e in edges_of_class(graph, "E4"):  # relaxed: every aircraft undecided
            assert (e.lower, e.upper) == (0, 1)

    def test_zero_capacity_pruning(self, second_price):
        """Two aircraft can arrive at v2 at 3 and one fits, so that gate
        binds and stays; a slot no route uses has no gate, and v1's
        departure gate at 2, of capacity 2, has room for both aircraft.
        Cut to 0, the arrival gate still binds and stays, at 0; cut to 1,
        the departure gate binds too."""
        instance, bids = second_price
        vertices, edges = graph_view(build_graph(instance, bids))
        assert {(e.cls, e.key): e.upper for e in edges
                if e.cls in ("E1", "E2")} == {("E1", ("v2", 3)): 1}
        assert arr("v2", 3) in vertices
        assert not {arr("v2", 1), arr("v1", 1), dep("v1", 2)} & set(vertices)
        v1, v2 = instance.vertiports
        cut = Instance(instance.horizon, instance.congestion_ratio,
                       (make_port("v1", v1.parking_cap, v1.arrival_cap, (0, 1, 0)),
                        make_port("v2", v2.parking_cap, (0, 0, 0), v2.departure_cap)),
                       instance.operators)
        graph = build_graph(cut, bids)
        assert {(e.cls, e.key): e.upper for e in graph_edges(graph)
                if e.cls in ("E1", "E2")} == {("E1", ("v2", 3)): 0,
                                              ("E2", ("v1", 2)): 1}
        assert solve(graph).allocation == {("op1", "a1"): 0, ("op2", "a1"): 0}

    def test_one_parking_edge_per_slot(self):
        """Each (vertiport, slot) has one E3 edge (one E8 edge at slot H)
        keyed by the slot alone, with bounds [0, C(r,t)].  Every edge's row
        has one unit gain per unit of its upper bound, and only E3, E5 and
        E8 units gain anything."""
        for seed in range(15):
            document = generate(GeneratorConfig(seed=seed))
            instance = document.instance
            graph = build_graph(instance, document.bids)
            h = instance.horizon
            expected = {("E3", (port.id, t)): port.parking_cap[t - 1]
                        for port in instance.vertiports for t in range(1, h)}
            expected.update({("E8", (port.id,)): port.parking_cap[h - 1]
                             for port in instance.vertiports})
            edges = graph_edges(graph)
            parking = [e for e in edges if e.cls in ("E3", "E8")]
            assert {(e.cls, e.key): e.upper for e in parking} == expected
            assert len(parking) == len(expected)
            assert all(e.lower == 0 for e in parking)
            assert ([len(row) for row in graph.network.rows]
                    == [e.upper for e in edges])
            assert all(not any(row) for e, row in zip(edges, graph.network.rows)
                       if e.cls not in ("E3", "E5", "E8"))

    def test_parking_rows_non_increasing(self):
        """Each edge's row is non-increasing in gain: the congestion cost
        is discrete convex, and every other edge has one gain."""
        for seed in range(15):
            document = generate(GeneratorConfig(seed=seed))
            graph = build_graph(document.instance, document.bids)
            for row in unit_gains(graph):
                assert all(b <= a for a, b in zip(row, row[1:]))

    def test_non_convex_congestion_rejected(self, single_mover):
        """A congestion row whose increments fall fails validation, and
        building its graph raises that violation instead of pricing a
        cost the kernel would minimize wrongly."""
        instance, bids = single_mover
        concave = (F(0), F(3), F(4))
        port = make_port("v2", (2, 2, 2), (0, 0, 1), (0, 0, 0),
                         ((F(0), F(1), F(2)), concave, (F(0), F(1), F(2))))
        bent = Instance(instance.horizon, F(1),
                        (instance.vertiport("v1"), port), instance.operators)
        assert not validate_instance(bent).ok
        with pytest.raises(ValueError, match="not discrete convex at slot 2"):
            build_graph(bent, bids)


def _assert_contracted_layout(graph):
    """The graph holds only what can matter.  Its E1 (E2) gates are
    exactly the slots some route arrives at (departs from) whose capacity
    is below the number of distinct aircraft with a route through them,
    each at that capacity; every AcDep vertex has two or more route
    edges; and each `departure_times` entry names the E4 edge of a time
    with two or more routes, or else that time's only E5 edge."""
    instance = graph.instance
    users = defaultdict(set)
    for operator, craft in instance.iter_aircraft():
        pair = operator.id, craft.id
        for entry in craft.menu:
            if not entry.is_stay:
                users["E1", (entry.destination, entry.arrive_time)].add(pair)
                users["E2", (craft.origin, entry.depart_time)].add(pair)
    caps = {"E1": lambda port: port.arrival_cap, "E2": lambda port: port.departure_cap}
    binding = {}
    for (cls, (r, t)), crafts in users.items():
        cap = caps[cls](instance.vertiport(r))[t - 1]
        if cap < len(crafts):
            binding[cls, (r, t)] = cap
    vertices, edges = graph_view(graph)
    assert {(e.cls, e.key): e.upper for e in edges
            if e.cls in ("E1", "E2")} == binding
    routes_out = Counter(e.tail for e in edges if e.cls == "E5")
    for v in vertices:
        if v[0] == "acdep":
            assert routes_out[v] >= 2, v
    for (i, j), carriers in graph.departure_times.items():
        craft = instance.operator(i).aircraft(j)
        routes = Counter(entry.depart_time for entry in craft.menu if not entry.is_stay)
        assert list(carriers) == sorted(routes)
        for tau, k in carriers.items():
            e = edges[k]
            if routes[tau] > 1:
                assert (e.cls, e.key, e.head) == ("E4", (i, j, tau), acdep(i, j, tau))
            else:
                assert e.cls == "E5" and e.key[:2] == (i, j)
                assert craft.option(e.key[2]).depart_time == tau


def test_contracted_layout_on_generated_instances():
    for seed in range(15):
        document = generate(GeneratorConfig(seed=seed))
        _assert_contracted_layout(build_graph(document.instance, document.bids))


def test_contracted_layout_on_the_small_scope():
    for instance, bids in small_scope():
        _assert_contracted_layout(build_graph(instance, bids))


class TestIncidence:
    def test_single_edge_column(self, second_price):
        graph = build_graph(*second_price)
        matrix = incidence(graph)
        index = {v: i for i, v in enumerate(graph_view(graph)[0])}
        e1 = edges_of_class(graph, "E1")[0]
        column = [row[e1.index] for row in matrix]
        assert column[index[e1.tail]] == -1
        assert column[index[e1.head]] == 1
        assert sum(map(abs, column)) == 2

    def test_columns_sum_to_zero(self, second_price):
        instance, bids = second_price
        matrix = incidence(build_graph(instance, bids))
        assert all(sum(column) == 0 for column in zip(*matrix))
        assert {v for row in matrix for v in row} <= {-1, 0, 1}

    def test_truncated_drops_sink(self, second_price):
        instance, bids = second_price
        graph = build_graph(instance, bids)
        matrix = truncated_incidence(graph)
        vertices, edges = graph_view(graph)
        assert len(matrix) == len(vertices) - 1
        assert all(len(row) == len(edges) for row in matrix)

    def test_sampled_submatrix_determinants(self, second_price):
        instance, bids = second_price
        matrix = truncated_incidence(build_graph(instance, bids))
        rows, cols = len(matrix), len(matrix[0])
        import random
        rng = random.Random(7)
        for _ in range(100):
            k = rng.randint(2, 5)
            ri = rng.sample(range(rows), k)
            ci = rng.sample(range(cols), k)
            sub = [[matrix[r][c] for c in ci] for r in ri]
            assert exact_det(sub) in (-1, 0, 1)


class TestAllocationToFlow:
    def test_all_stay_pattern(self, second_price):
        instance, bids = second_price
        graph = build_graph(instance, bids)
        solution = allocation_to_flow(graph, all_stay_allocation(instance))
        for e in graph_edges(graph):
            if e.cls in ("E2", "E4", "E5"):
                assert solution[e.index] == 0
            elif e.cls == "E6":
                assert solution[e.index] == initial_occupancy(instance, e.key[0])
        # Each slot's one parking edge carries the initial occupancy.
        parking = edges_of_class(graph, "E3")
        assert len(parking) == len(instance.vertiports) * (instance.horizon - 1)
        for e in parking:
            assert solution[e.index] == initial_occupancy(instance, e.key[0])

    def test_objective_equals_welfare(self, exchange):
        instance, bids = exchange
        graph = build_graph(instance, bids)
        for x in enumerate_feasible(instance):
            solution = allocation_to_flow(graph, x)
            gain = flow_gain(graph, solution)
            assert flow_objective(graph, solution, gain) == social_welfare(
                instance, x, bids)

    def test_single_transit_path(self, single_mover):
        instance, bids = single_mover
        graph = build_graph(instance, bids)
        solution = allocation_to_flow(graph, {("op1", "a1"): 1})
        nonzero = [e for e in graph_edges(graph) if solution[e.index]]
        classes = sorted(e.cls for e in nonzero)
        # Sink -> Park(v1,1) -> Park(v1,2) -> Park(v2,3) -> Sink: neither
        # gate binds and the route is its time's only one.
        assert classes == ["E3", "E5", "E6", "E8"]
        assert [(e.tail, e.head) for e in nonzero if e.cls == "E5"] == [
            (park("v1", 2), park("v2", 3))]
        assert [(e.key, solution[e.index]) for e in nonzero if e.cls == "E6"] == [
            (("v1",), 1)]

    def test_infeasible_rejected(self, second_price):
        instance, bids = second_price
        graph = build_graph(instance, bids)
        with pytest.raises(ValueError, match="infeasible"):
            allocation_to_flow(graph, {("op1", "a1"): 1, ("op2", "a1"): 1})


class TestFlowToAllocation:
    def test_all_stay_readback(self, second_price):
        instance, bids = second_price
        graph = build_graph(instance, bids)
        solution = allocation_to_flow(graph, all_stay_allocation(instance))
        assert flow_to_allocation(graph, solution) == all_stay_allocation(instance)

    def test_exhaustive_roundtrip(self):
        for seed in range(10):
            document = generate(GeneratorConfig(seed=seed, operators=(2, 2)))
            instance = document.instance
            graph = build_graph(instance, document.bids)
            for x in enumerate_feasible(instance):
                assert flow_to_allocation(
                    graph, allocation_to_flow(graph, x)) == x

    def test_non_binary_route_flow_rejected(self, single_mover):
        instance, bids = single_mover
        graph = build_graph(instance, bids)
        flows = list(allocation_to_flow(graph, {("op1", "a1"): 1}))
        flows[edges_of_class(graph, "E5")[0].index] = 2
        with pytest.raises(ValueError, match="non-binary route flow"):
            flow_to_allocation(graph, flows)

    def test_two_routes_rejected(self, reluctant_movers):
        instance, bids = reluctant_movers
        graph = build_graph(instance, bids)
        flows = list(allocation_to_flow(
            graph, {("op1", "a1"): 1, ("op2", "b1"): 0}))
        route = {e.key: e.index for e in edges_of_class(graph, "E5")}
        flows[route["op1", "a1", 2]] = 1
        with pytest.raises(ValueError, match="granted 2 routes"):
            flow_to_allocation(graph, flows)

    def test_delta_of_allocation(self, exchange):
        instance, _ = exchange
        delta = delta_of_allocation(instance, {("op1", "a1"): 1,
                                               ("op2", "b1"): 0})
        assert delta == {("op1", "a1"): 2, ("op2", "b1"): 0}


@pytest.mark.parametrize("name", ["second_price", "exchange", "single_mover",
                                  "empty_instance"])
def test_allocation_to_flow_is_bounded_circulation(name, request):
    fixture = request.getfixturevalue(name)
    instance, bids = fixture if isinstance(fixture, tuple) else (fixture, {})
    assert_flow_correspondence(instance, bids)


def test_priced_graph_reprices_as_its_template():
    """A priced graph handed to `price_graph` is read as its template: it
    reprices to the graph `build_graph` makes for the new bids."""
    for seed in range(5):
        document = generate(GeneratorConfig(seed=seed))
        instance, bids = document.instance, document.bids
        other = {key: 2 * value + 1 for key, value in bids.items()}
        repriced = price_graph(build_graph(instance, bids), other)
        fresh = build_graph(instance, other)
        assert repriced == fresh
        assert repriced.network == fresh.network


@pytest.mark.parametrize("change", ["negative", "unknown", "missing", "float",
                                    "string", "boolean"])
def test_price_graph_is_the_one_gate_on_bids(change):
    """`price_graph` refuses a profile with a negative bid, an unknown
    entry, a missing one or one that is not an `int` or a `Fraction`
    (a route bid and a stay bid here), and so `build_graph` and
    `run_auction` do, all with the violations `validate_profile`
    reports."""
    document = generate(GeneratorConfig(seed=0))
    instance, bids = document.instance, dict(document.bids)
    if change == "negative":
        bids["op1", "a1", 0] = F(-5)
    elif change == "unknown":
        bids["zz", "a1", 0] = F(0)
    elif change == "missing":
        del bids["op1", "a1", 0]
    elif change == "float":
        bids["op1", "a1", 1] = 2.5
    elif change == "string":
        bids["op1", "a1", 0] = "0"
    else:
        bids["op1", "a1", 1] = True
    violations = validate_profile(instance, bids, "bids").violations
    assert violations
    for call in (build_graph, run_auction):
        with pytest.raises(ValueError) as caught:
            call(instance, bids)
        assert str(caught.value) == f"invalid bids: {violations}"


def test_valid_bids_cost_no_validation_pass(monkeypatch):
    """The gate checks bids as `price_graph` reads them: an auction on
    valid bids never calls `validate_profile`."""
    def refuse(*args):
        raise AssertionError("validate_profile called on valid bids")

    for module in (graph_module, mechanism):
        monkeypatch.setattr(module, "validate_profile", refuse, raising=False)
    document = generate(GeneratorConfig(seed=0))
    run_auction(document.instance, document.bids)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_deterministic_build(seed):
    document = generate(GeneratorConfig(seed=seed))
    a = build_graph(document.instance, document.bids)
    b = build_graph(document.instance, document.bids)
    assert a == b
    assert graph_view(a) == graph_view(b)


def test_edge_count_lasts_only_while_the_tracer_reads_it():
    """`GraphTemplate.edges`, the edges' indices, stays only for the
    benchmark's tracer, which counts ``len(graph.edges)``: it counts the
    edges of a template, its priced graph and a counterfactual, and this
    test fails once no `perfbench/` file reads an ``.edges`` attribute,
    so the property goes with its last reader."""
    for seed in range(5):
        document = generate(GeneratorConfig(seed=seed))
        template = compile_template(document.instance)
        graph = price_graph(template, document.bids)
        derived = counterfactual_graph(graph, document.instance.operators[0].id)
        for counted in (template, graph, derived):
            assert len(counted.edges) == len(counted.relaxed_upper)
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    readers = [path.name for path in sorted(perfbench.rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and node.attr == "edges"]
    assert readers, "no perfbench file reads .edges: delete GraphTemplate.edges"


#: The generator shapes the template pin runs over beside the benchmark
#: corpora: the default config and a wider one.
PIN_SHAPES = (
    {},
    dict(vertiports=(3, 6), operators=(2, 3), fleet_size=(1, 4),
         transit_routes=(1, 4), horizon=(3, 8)),
)
#: sha256 over every compiled `GraphTemplate` field and the labelled
#: vertices and edges `graph_view` derives from them, on the three
#: benchmark corpora and generator seeds 0-199 of each `PIN_SHAPES`
#: config.  Any change to a vertex, an edge, its order, a bound, a unit
#: weight, a bonus or an arc changes it; a change made on purpose must
#: update the pin and say why.
TEMPLATE_DIGEST = "ce68bbf9c8717f69"


def _template_fields(template):
    """A compiled template's labelled view (`graph_view`) and every
    field, in one canonical form: the `departure_times` index in its
    order, which the split rule reads."""
    topology = template.topology
    return (*graph_view(template), template.aircraft,
            template.scale, template.tie_unit, sorted(template.parking_rows.items()),
            (topology.tails, topology.heads, topology.arc_head, topology.arcs,
             topology.out_edges),
            template.relaxed_lower, template.relaxed_upper,
            [(pair, list(taus.items())) for pair, taus in template.departure_times.items()])


def test_compiled_templates_match_the_pinned_digest(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    configs = [replace(workload.config, seed=seed)
               for workload in workloads.WORKLOADS.values() for seed in workload.seeds]
    configs += [GeneratorConfig(seed=seed, **shape)
                for shape in PIN_SHAPES for seed in range(200)]
    digest = hashlib.sha256()
    for config in configs:
        template = compile_template(generate(config).instance)
        digest.update(repr(_template_fields(template)).encode())
    assert digest.hexdigest()[:16] == TEMPLATE_DIGEST
