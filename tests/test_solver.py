"""Solver: fixed-delta subproblem, enumeration, branch-and-bound."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_port, stay, transit
from vertiport_auction.generator import GeneratorConfig, generate
from vertiport_auction import solver
from vertiport_auction.graph import build_graph, flow_gain, flow_objective
from vertiport_auction.model import (
    Aircraft,
    Instance,
    Operator,
    is_feasible,
    social_welfare,
)
from vertiport_auction.solver import (
    SolverError,
    enumerate_deltas,
    optimal_allocation,
    relaxation_bound,
    solve,
    solve_fixed_delta,
)

F = Fraction


class TestEnumerateDeltas:
    def test_single_aircraft_two_times(self, single_mover):
        instance, _ = single_mover
        deltas = list(enumerate_deltas(instance))
        assert deltas == [{("op1", "a1"): 0}, {("op1", "a1"): 2}]

    def test_product_count(self):
        inst = Instance(
            horizon=4,
            congestion_ratio=F(0),
            vertiports=(
                make_port("v1", (2, 2, 2, 2), (0, 0, 0, 0), (0, 2, 2, 0)),
                make_port("v2", (2, 2, 2, 2), (0, 2, 2, 2), (0, 0, 0, 0)),
            ),
            operators=(
                Operator("op1", F(1), (
                    Aircraft("a1", "v1", (stay(origin="v1"),
                                          transit(1, 2, "v2", 3))),)),
                Operator("op2", F(1), (
                    Aircraft("a1", "v1", (stay(origin="v1"),
                                          transit(1, 2, "v2", 3),
                                          transit(2, 3, "v2", 4))),)),
            ),
        )
        assert len(list(enumerate_deltas(inst))) == 2 * 3

    def test_no_aircraft_yields_empty_assignment(self, empty_instance):
        assert list(enumerate_deltas(empty_instance)) == [{}]


class TestSolveFixedDelta:
    def test_empty_instance_zero_flow(self, empty_instance):
        graph = build_graph(empty_instance, {})
        solution = solve_fixed_delta(graph, {})
        assert all(v == 0 for v in solution.flows)
        assert flow_objective(graph, solution) == 0

    def test_stay_collects_stay_bid(self, single_mover):
        instance, _ = single_mover
        bids = {("op1", "a1", 0): F(4), ("op1", "a1", 1): F(9)}
        graph = build_graph(instance, bids)
        solution = solve_fixed_delta(graph, {("op1", "a1"): 0})
        assert flow_objective(graph, solution) == 4

    def test_blocked_departure_infeasible(self):
        inst = Instance(
            horizon=3,
            congestion_ratio=F(0),
            vertiports=(
                make_port("v1", (1, 1, 1), (0, 0, 0), (0, 1, 0)),
                make_port("v2", (1, 1, 1), (0, 0, 0), (0, 0, 0)),
            ),
            operators=(Operator("op1", F(1), (
                Aircraft("a1", "v1", (stay(origin="v1"),
                                      transit(1, 2, "v2", 3))),)),),
        )
        bids = {("op1", "a1", 0): F(0), ("op1", "a1", 1): F(5)}
        graph = build_graph(inst, bids)
        # Departing at 2 forces a unit through the zero-capacity arrival.
        assert solve_fixed_delta(graph, {("op1", "a1"): 2}) is None
        assert solve_fixed_delta(graph, {("op1", "a1"): 0}) is not None

    def test_integrality(self):
        for seed in range(8):
            document = generate(GeneratorConfig(seed=seed, operators=(2, 2)))
            graph = build_graph(document.instance, document.bids)
            for delta in enumerate_deltas(document.instance):
                solution = solve_fixed_delta(graph, delta)
                if solution is None:
                    continue
                assert all(isinstance(v, int) for v in solution.flows)

    def test_malformed_delta_rejected(self, single_mover):
        instance, bids = single_mover
        graph = build_graph(instance, bids)
        with pytest.raises(SolverError):
            solve_fixed_delta(graph, {})
        with pytest.raises(SolverError):
            solve_fixed_delta(graph, {("op1", "a1"): 1})  # 1 not in T_dep

    def test_bundle_flows_in_prefix_form(self, second_price):
        instance, bids = second_price
        graph = build_graph(instance, bids)
        solution = solve_fixed_delta(
            graph, {("op1", "a1"): 0, ("op2", "a1"): 0})
        bundles = {}
        for e in graph.edges:
            if e.cls in ("E3", "E8"):
                bundles.setdefault((e.cls,) + e.key[:-1], []).append(e)
        for members in bundles.values():
            members.sort(key=lambda e: e.q)
            flows = [solution.flow(e) for e in members]
            assert flows == sorted(flows, reverse=True)


class TestSolve:
    def test_zero_bids_zero_objective(self, second_price):
        instance, bids = second_price
        zeroed = {triple: F(0) for triple in bids}
        result = solve(build_graph(instance, zeroed))
        assert result.objective == 0

    def test_exchange_grants_swap(self, exchange):
        instance, bids = exchange
        result = solve(build_graph(instance, bids))
        assert result.objective == 20
        assert result.allocation == {("op1", "a1"): 1, ("op2", "b1"): 1}

    def test_blocked_exchange_falls_back_to_stays(self, exchange):
        instance, bids = exchange
        blocked = Instance(
            horizon=instance.horizon,
            congestion_ratio=instance.congestion_ratio,
            vertiports=(
                make_port("v1", (1, 1, 1), (0, 0, 0), (0, 1, 0)),
                instance.vertiport("v2"),
            ),
            operators=instance.operators,
        )
        result = solve(build_graph(blocked, bids))
        assert result.objective == 0  # both stay bids are zero
        assert result.allocation == {("op1", "a1"): 0, ("op2", "b1"): 0}

    def test_second_price_winner(self, second_price):
        instance, bids = second_price
        result = solve(build_graph(instance, bids))
        assert result.objective == 10
        assert result.allocation == {("op1", "a1"): 1, ("op2", "a1"): 0}

    def test_strategies_agree_everywhere(self):
        for seed in range(30):
            document = generate(GeneratorConfig(seed=seed))
            graph = build_graph(document.instance, document.bids)
            a = solve(graph, strategy="enumerate")
            b = solve(graph, strategy="bnb")
            assert a.objective == b.objective
            assert a.allocation == b.allocation

    def test_objective_matches_allocation_welfare(self):
        for seed in range(10):
            document = generate(GeneratorConfig(seed=seed))
            graph = build_graph(document.instance, document.bids)
            result = solve(graph)
            assert result.objective == social_welfare(
                document.instance, result.allocation, document.bids)
            assert result.objective == flow_objective(graph, result.flow)

    def test_tie_broken_lexicographically(self):
        # Two identical routes to interchangeable destinations: the
        # welfare tie must resolve to the smallest menu key.
        inst = Instance(
            horizon=3,
            congestion_ratio=F(0),
            vertiports=(
                make_port("v1", (1, 1, 1), (0, 0, 0), (0, 1, 0)),
                make_port("v2", (1, 1, 1), (0, 0, 1), (0, 0, 0)),
                make_port("v3", (1, 1, 1), (0, 0, 1), (0, 0, 0)),
            ),
            operators=(Operator("op1", F(1), (
                Aircraft("a1", "v1", (stay(origin="v1"),
                                      transit(1, 2, "v3", 3),
                                      transit(2, 2, "v2", 3))),)),),
        )
        bids = {("op1", "a1", 0): F(0), ("op1", "a1", 1): F(5),
                ("op1", "a1", 2): F(5)}
        for strategy in ("enumerate", "bnb"):
            result = solve(build_graph(inst, bids), strategy=strategy)
            assert result.allocation == {("op1", "a1"): 1}

    def test_stay_transit_tie_prefers_stay(self, single_mover):
        instance, _ = single_mover
        bids = {("op1", "a1", 0): F(5), ("op1", "a1", 1): F(5)}
        for strategy in ("enumerate", "bnb"):
            result = solve(build_graph(instance, bids), strategy=strategy)
            # Stay has departure time 0 < 2: lexicographically first.
            assert result.allocation == {("op1", "a1"): 0}

    def test_raising_a_bid_never_lowers_objective(self):
        for seed in range(8):
            document = generate(GeneratorConfig(seed=seed))
            base = solve(build_graph(document.instance, document.bids))
            bumped = dict(document.bids)
            triple = sorted(bumped)[seed % len(bumped)]
            bumped[triple] += F(3, 2)
            after = solve(build_graph(document.instance, bumped))
            assert after.objective >= base.objective

    def test_unknown_strategy_rejected(self, single_mover):
        instance, bids = single_mover
        with pytest.raises(SolverError):
            solve(build_graph(instance, bids), strategy="simplex")

    def test_stats_populated(self, second_price):
        instance, bids = second_price
        result = solve(build_graph(instance, bids))
        assert result.stats.nodes_explored >= 1
        assert result.stats.fixed_delta_solves >= 1
        assert result.stats.wall_time >= 0

    @pytest.mark.parametrize("strategy", ["bnb", "enumerate"])
    def test_stats_count_every_flow_solve(self, monkeypatch, strategy):
        calls = {"solve_fixed_delta": 0, "relaxation_bound": 0}
        for name in calls:
            def counted(*args, _fn=getattr(solver, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(solver, name, counted)
        for seed in range(6):
            document = generate(GeneratorConfig(seed=seed))
            calls.update(dict.fromkeys(calls, 0))
            result = solve(build_graph(document.instance, document.bids),
                           strategy=strategy)
            stats = result.stats
            assert calls["solve_fixed_delta"] == stats.leaf_solves
            assert calls["relaxation_bound"] == stats.bound_solves
            if strategy == "enumerate":
                assert stats.bound_solves == 0
                assert stats.pruned_infeasible == stats.pruned_bound == 0


#: The benchmark's auction-mid shape: 3 vertiports, 3 operators x 2
#: aircraft, 2 transit routes each, horizon 4.
AUCTION_MID = dict(vertiports=(3, 3), operators=(3, 3), fleet_size=(2, 2),
                   transit_routes=(2, 2), horizon=(4, 4))
#: The benchmark's solve-large shape: 2 operators x 4-5 aircraft.
SOLVE_LARGE = dict(vertiports=(3, 3), operators=(2, 2), fleet_size=(4, 5),
                   transit_routes=(2, 2), horizon=(4, 4))


class TestPruning:
    @pytest.mark.parametrize("seed", range(8))
    def test_bnb_matches_enumeration_at_six_aircraft(self, seed):
        document = generate(GeneratorConfig(seed=seed, **AUCTION_MID))
        graph = build_graph(document.instance, document.bids)
        reference = solve(graph, strategy="enumerate")
        result = solve(graph, strategy="bnb")
        assert result.allocation == reference.allocation
        assert result.objective == reference.objective

    def test_infeasible_subtrees_pruned_before_leaves(self):
        # 178 flow solves with bounds from the first level; a search
        # that bounds only after its first incumbent needs 6,877.
        total = 0
        for seed in range(4):
            document = generate(GeneratorConfig(seed=seed, **SOLVE_LARGE))
            result = solve(build_graph(document.instance, document.bids))
            assert result.stats.pruned_infeasible > 0
            total += result.stats.fixed_delta_solves
            assert is_feasible(document.instance, result.allocation).feasible
            assert result.objective == social_welfare(
                document.instance, result.allocation, document.bids)
        assert total <= 400


class TestRelaxationBound:
    def test_bound_dominates_every_completion(self):
        for seed in range(8):
            document = generate(GeneratorConfig(seed=seed, operators=(2, 2)))
            graph = build_graph(document.instance, document.bids)
            bound = relaxation_bound(graph, {})
            best = flow_gain(graph, solve(graph).flow.flows)
            assert bound is not None and bound >= best


class TestOptimalAllocation:
    def test_dominant_transit_granted(self, single_mover):
        instance, _ = single_mover
        bids = {("op1", "a1", 0): F(0), ("op1", "a1", 1): F(5)}
        assert optimal_allocation(instance, bids) == {("op1", "a1"): 1}

    def test_congestion_makes_staying_optimal(self):
        # Moving gains bid 1 but costs lambda * (destination increment 2)
        # while saving nothing at the empty origin slots.
        inst = Instance(
            horizon=3,
            congestion_ratio=F(2),
            vertiports=(
                make_port("v1", (1, 1, 1), (0, 0, 0), (0, 1, 0),
                          ((F(0), F(0)),) * 3),
                make_port("v2", (1, 1, 1), (0, 0, 1), (0, 0, 0),
                          ((F(0), F(1)),) * 3),
            ),
            operators=(Operator("op1", F(1), (
                Aircraft("a1", "v1", (stay(origin="v1"),
                                      transit(1, 2, "v2", 3))),)),),
        )
        bids = {("op1", "a1", 0): F(0), ("op1", "a1", 1): F(1)}
        assert optimal_allocation(inst, bids) == {("op1", "a1"): 0}
        cheap = Instance(
            horizon=inst.horizon,
            congestion_ratio=F(1, 4),
            vertiports=inst.vertiports,
            operators=inst.operators,
        )
        assert optimal_allocation(cheap, bids) == {("op1", "a1"): 1}

    def test_invalid_instance_rejected(self):
        bad = Instance(
            horizon=1,
            congestion_ratio=F(-1),
            vertiports=(make_port("v1", (0,), (0,), (0,)),),
            operators=(),
        )
        with pytest.raises(SolverError, match="invalid instance"):
            optimal_allocation(bad, {})


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_solve_deterministic(seed):
    document = generate(GeneratorConfig(seed=seed))
    graph = build_graph(document.instance, document.bids)
    a = solve(graph)
    b = solve(graph)
    assert a.objective == b.objective
    assert a.allocation == b.allocation
    assert a.flow.flows == b.flow.flows
