"""Auxiliary graph: construction, incidence, flow correspondence."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_stay_allocation,
    allocation_to_flow,
    assert_flow_correspondence,
    delta_of_allocation,
    edges_of_class,
    incidence,
    make_port,
    stay,
    transit,
    truncated_incidence,
    unit_gains,
)
from vertiport_auction.generator import GeneratorConfig, generate
from vertiport_auction.graph import (
    SINK,
    acdep,
    arr,
    build_graph,
    dep,
    flow_gain,
    flow_objective,
    flow_to_allocation,
    park,
    price_graph,
)
from vertiport_auction.model import (
    Aircraft,
    Instance,
    Operator,
    initial_occupancy,
    social_welfare,
    validate_instance,
)
from vertiport_auction.oracle import enumerate_feasible

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
        instance, bids = single_mover
        graph = build_graph(instance, bids)
        # 3 replicas x 2 ports x 3 slots + one aircraft vertex for the
        # departure time 2 (the stay time 0 has none) + sink.
        assert len(graph.vertices) == 3 * 2 * 3 + 1 + 1 == 20
        assert [v for v in graph.vertices if v[0] == "acdep"] == [
            acdep("op1", "a1", 2)]

    def test_size_formula_random(self):
        for seed in range(10):
            document = generate(GeneratorConfig(seed=seed))
            instance = document.instance
            graph = build_graph(instance, document.bids)
            expected = 3 * instance.horizon * len(instance.vertiports) + sum(
                len(craft.departure_times()) - 1
                for _, craft in instance.iter_aircraft()
            ) + 1
            assert len(graph.vertices) == expected

    def test_no_aircraft_single_slot(self, empty_instance):
        graph = build_graph(empty_instance, {})
        assert set(graph.vertices) == {
            park("v1", 1), arr("v1", 1), dep("v1", 1), SINK,
        }
        assert {e.cls for e in graph.edges} == {"E1", "E2", "E6", "E8"}
        by_class = {cls: edges_of_class(graph, cls) for cls in
                    ("E1", "E2", "E3", "E4", "E5", "E6", "E8")}
        assert len(by_class["E1"]) == 1 and len(by_class["E2"]) == 1
        (e8,) = by_class["E8"]  # one edge carries the slot's parking cap 2
        assert (e8.key, e8.lower, e8.upper) == (("v1",), 0, 2)
        assert unit_gains(graph) == {e8.index: (0, 0)}
        for cls in ("E3", "E4", "E5"):
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
        ac_vertices = [v for v in graph.vertices if v[0] == "acdep"]
        assert ac_vertices == [acdep("op1", "a1", 2)]
        assert len(edges_of_class(graph, "E5")) == 2

    def test_edge_shapes_and_weights(self, second_price):
        instance, bids = second_price
        graph = build_graph(instance, bids)
        e5 = {e.key: graph.gains[e.index] for e in edges_of_class(graph, "E5")}
        # S = 1 and P = R^n * M^n = 2^2 * 2^2; each route gains its weight
        # 10 or 6 times S * P plus its grant less the stay's: 0 - 10 for
        # the first aircraft, 0 - 5 for the second (module docstring).
        assert graph.unit == 16
        assert e5 == {("op1", "a1", 1): 10 * 16 - 10, ("op2", "a1", 1): 6 * 16 - 5}
        assert sorted(bonus for _, _, routes in graph.aircraft
                      for _, _, bonus in routes) == [-10, -5]
        for e in edges_of_class(graph, "E1"):
            assert e.tail == arr(*e.key) and e.head == park(*e.key)
        for e in edges_of_class(graph, "E4"):  # relaxed: every aircraft undecided
            assert (e.lower, e.upper) == (0, 1)

    def test_zero_capacity_pruning(self, second_price):
        instance, bids = second_price
        graph = build_graph(instance, bids)
        caps = {e.key: e.upper for e in edges_of_class(graph, "E1")}
        assert caps[("v2", 3)] == 1   # the contested slot
        assert caps[("v2", 1)] == 0   # no route arrives there: pruned
        assert caps[("v1", 1)] == 0

    def test_one_parking_edge_per_slot(self):
        """Each (vertiport, slot) has one E3 edge (one E8 edge at slot H)
        keyed by the slot alone, with bounds [0, C(r,t)], and only those
        edges have a row of unit gains, one per unit."""
        for seed in range(15):
            document = generate(GeneratorConfig(seed=seed))
            instance = document.instance
            graph = build_graph(instance, document.bids)
            h = instance.horizon
            expected = {("E3", (port.id, t)): port.parking_cap[t - 1]
                        for port in instance.vertiports for t in range(1, h)}
            expected.update({("E8", (port.id,)): port.parking_cap[h - 1]
                             for port in instance.vertiports})
            parking = [e for e in graph.edges if e.cls in ("E3", "E8")]
            assert {(e.cls, e.key): e.upper for e in parking} == expected
            assert len(parking) == len(expected)
            assert all(e.lower == 0 for e in parking)
            assert {e.index: e.upper for e in parking} == {
                k: len(row) for k, row in graph.network.rows.items()}
            assert all(graph.gains[e.index] == 0 for e in parking)

    def test_parking_rows_non_increasing(self):
        """Each parking row is non-increasing in gain: the congestion
        cost is discrete convex."""
        for seed in range(15):
            document = generate(GeneratorConfig(seed=seed))
            graph = build_graph(document.instance, document.bids)
            for row in unit_gains(graph).values():
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


class TestIncidence:
    def test_single_edge_column(self, empty_instance):
        graph = build_graph(empty_instance, {})
        matrix = incidence(graph)
        index = {v: i for i, v in enumerate(graph.vertices)}
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
        assert len(matrix) == len(graph.vertices) - 1
        assert all(len(row) == len(graph.edges) for row in matrix)

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
        for e in graph.edges:
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
        nonzero = [e for e in graph.edges if solution[e.index]]
        classes = sorted(e.cls for e in nonzero)
        # Sink -> Park(v1,1) -> Park(v1,2) -> Dep(v1,2) -> AcDep
        # -> Arr(v2,3) -> Park(v2,3) -> Sink.
        assert classes == ["E1", "E2", "E3", "E4", "E5", "E6", "E8"]
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


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_deterministic_build(seed):
    document = generate(GeneratorConfig(seed=seed))
    a = build_graph(document.instance, document.bids)
    b = build_graph(document.instance, document.bids)
    assert a.vertices == b.vertices
    assert a.edges == b.edges
