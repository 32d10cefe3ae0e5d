"""Solver: fixed-delta subproblem, enumeration, branch-and-bound."""

import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ReadRecorder,
    assert_certified,
    assert_circulation,
    checked_solves,
    edges_of_class,
    flow_gain,
    make_port,
    stay,
    transit,
    unit_gains,
    validated_instances,
)
from test_acceptance import corpus_config
from vertiport_auction.flow import (
    FlowState,
    Network,
    Residual,
    compile_topology,
    min_cost_flow,
)
from vertiport_auction.generator import GeneratorConfig, generate
from vertiport_auction.mechanism import run_auction
from vertiport_auction import mechanism, solver
from vertiport_auction.graph import (
    build_graph,
    compile_template,
    flow_objective,
    price_graph,
)
from vertiport_auction.model import (
    Aircraft,
    Instance,
    Operator,
    is_feasible,
    pseudo_bids,
    social_welfare,
    validate_instance,
)
from vertiport_auction.solver import (
    SolverError,
    enumerate_deltas,
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
        gain, solution = solve_fixed_delta(graph, {})
        assert all(v == 0 for v in solution)
        assert gain == flow_gain(graph, solution) == 0
        assert flow_objective(graph, solution, gain) == 0

    def test_no_vertiports_no_edges(self):
        """An instance without vertiports validates and builds a graph
        with no edges, whose only flow is the empty circulation."""
        inst = Instance(horizon=1, congestion_ratio=F(0), vertiports=(), operators=())
        assert validate_instance(inst).ok
        graph = build_graph(inst, {})
        assert graph.edges == ()
        assert solve(graph).objective == 0

    def test_stay_collects_stay_bid(self, single_mover):
        instance, _ = single_mover
        bids = {("op1", "a1", 0): F(4), ("op1", "a1", 1): F(9)}
        graph = build_graph(instance, bids)
        gain, solution = solve_fixed_delta(graph, {("op1", "a1"): 0})
        assert gain == flow_gain(graph, solution)
        assert flow_objective(graph, solution, gain) == 4

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
                leaf = solve_fixed_delta(graph, delta)
                if leaf is None:
                    continue
                gain, solution = leaf
                assert all(isinstance(v, int) for v in solution)
                assert gain == flow_gain(graph, solution)

    def test_malformed_delta_rejected(self, single_mover):
        instance, bids = single_mover
        graph = build_graph(instance, bids)
        with pytest.raises(SolverError):
            solve_fixed_delta(graph, {})
        with pytest.raises(SolverError):
            solve_fixed_delta(graph, {("op1", "a1"): 1})  # 1 not in T_dep


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
            assert result.objective == flow_objective(
                graph, result.flow, flow_gain(graph, result.flow))

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
    def test_equal_solves_compare_equal(self, strategy):
        """Two solves of one graph are equal: the wall time, which differs
        from run to run, takes no part in comparing results."""
        document = generate(GeneratorConfig(seed=0))
        graph = build_graph(document.instance, document.bids)
        first = solve(graph, strategy=strategy)
        assert first == solve(graph, strategy=strategy)
        assert replace(first.stats, wall_time=first.stats.wall_time + 1) == first.stats

    @pytest.mark.parametrize("strategy", ["bnb", "enumerate"])
    def test_stats_count_every_flow_solve(self, monkeypatch, strategy):
        calls = {"solve_fixed_delta": 0, "relaxation_bound": 0, "pushed": 0}
        for name in ("solve_fixed_delta", "relaxation_bound"):
            def counted(*args, _fn=getattr(solver, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(solver, name, counted)

        def kernel(*args, _fn=solver.min_cost_flow):
            state, pushed = _fn(*args)
            calls["pushed"] += pushed
            return state, pushed
        monkeypatch.setattr(solver, "min_cost_flow", kernel)
        for seed in range(6):
            document = generate(GeneratorConfig(seed=seed))
            calls.update(dict.fromkeys(calls, 0))
            result = solve(build_graph(document.instance, document.bids),
                           strategy=strategy)
            stats = result.stats
            assert calls["solve_fixed_delta"] == stats.leaf_solves
            assert calls["relaxation_bound"] == stats.bound_solves
            assert calls["pushed"] == stats.augmentations > 0
            if strategy == "enumerate":
                assert stats.bound_solves == 0
                assert (stats.pruned_infeasible == stats.pruned_bound
                        == stats.pruned_completion == 0)
            else:  # one flow solve per node, the root included
                assert stats.nodes_explored == stats.fixed_delta_solves


#: The benchmark's auction-mid shape: 3 vertiports, 3 operators x 2
#: aircraft, 2 transit routes each, horizon 4.
AUCTION_MID = dict(vertiports=(3, 3), operators=(3, 3), fleet_size=(2, 2),
                   transit_routes=(2, 2), horizon=(4, 4))
#: The benchmark's solve-large shape: 2 operators x 4-5 aircraft.
SOLVE_LARGE = dict(vertiports=(3, 3), operators=(2, 2), fleet_size=(4, 5),
                   transit_routes=(2, 2), horizon=(4, 4))
#: A shape whose searches branch deeper: 3 operators x 3 aircraft, 3-4
#: transit routes each, horizon 5.
DEEP = dict(vertiports=(3, 3), operators=(3, 3), fleet_size=(3, 3),
            transit_routes=(3, 4), horizon=(5, 5))
#: The ROADMAP's 3 x 10 shape: 3 operators x 10 aircraft, 4 transit
#: routes each, horizon 8, and at most one parking unit above a slot's
#: initial fleet.
WIDE = dict(vertiports=(3, 3), operators=(3, 3), fleet_size=(10, 10),
            transit_routes=(4, 4), horizon=(8, 8), extra_parking=(0, 1))

#: Search work of whole auctions on the shapes whose searches branch:
#: shape, generator seeds, then solves, branch-and-bound nodes, flow
#: solves and augmenting paths.  The benchmark corpora barely branch
#: (`tests/test_perfbench_hooks.py`), so a change to the node order, a
#: prune or the kernel's paths shows here.  A change that changes this
#: work, on purpose, must update the pin and say why.  Paths fell from
#: 1,204 (deep) and 1,550 (3x10) when each counterfactual took its
#: clearing graph's gain unit: every payment root now starts from the
#: cleared root as it is, and the kernel repairs only the zeroed
#: operator's route edges instead of every edge.
SEARCH_WORK = {
    "deep": (DEEP, range(20), (80, 679, 679, 1159)),
    "3x10": (WIDE, range(8), (32, 793, 793, 1522)),
}


@pytest.mark.parametrize("name", SEARCH_WORK)
def test_branching_auctions_do_the_pinned_work(name, monkeypatch):
    shape, seeds, pinned = SEARCH_WORK[name]
    seen = []

    def counted(*args, _solve=solver.solve, **kwargs):
        result = _solve(*args, **kwargs)
        seen.append(result.stats)
        return result

    monkeypatch.setattr(mechanism, "solve", counted)
    for seed in seeds:
        document = generate(GeneratorConfig(seed=seed, **shape))
        run_auction(document.instance, document.bids)
    work = (len(seen), sum(stats.nodes_explored for stats in seen),
            sum(stats.fixed_delta_solves for stats in seen),
            sum(stats.augmentations for stats in seen))
    assert work == pinned


def test_incumbent_updates_count_the_kept_completions(monkeypatch):
    """Enumeration counts each leaf that gains more than every leaf before
    it; branch-and-bound keeps at least one completion on a feasible
    solve, and never more than the nodes that ended in one."""
    leaves = []

    def recorded(*args, _fn=solver.solve_fixed_delta, **kwargs):
        leaf = _fn(*args, **kwargs)
        leaves.append(leaf)
        return leaf

    monkeypatch.setattr(solver, "solve_fixed_delta", recorded)
    for seed in range(6):
        document = generate(GeneratorConfig(seed=seed, **DEEP))
        for bids in [document.bids] + [pseudo_bids(operator.id, document.bids)
                                       for operator in document.instance.operators]:
            stats = solve(build_graph(document.instance, bids)).stats
            assert 1 <= stats.incumbent_updates <= stats.pruned_completion
    for seed in range(6):
        document = generate(GeneratorConfig(seed=seed))
        leaves.clear()
        stats = solve(build_graph(document.instance, document.bids), "enumerate").stats
        kept, best = 0, None
        for leaf in leaves:
            if leaf is not None and (best is None or leaf[0] > best):
                kept, best = kept + 1, leaf[0]
        assert stats.incumbent_updates == kept <= stats.leaf_solves
        assert len(leaves) == stats.leaf_solves


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
        # Auction-mid clearing (None) and counterfactual graphs whose
        # search branches: 36 flow solves, one per node, where enumeration
        # solves 2,538 leaves; branching on the aircraft the relaxation
        # splits, none of them meets an infeasible child.  On the deeper
        # shape some children are infeasible, and each ends at its own
        # relaxation, before any node below it.
        total = 0
        cases = [(AUCTION_MID, seed, excluded, False) for seed, excluded in (
            (1, None), (1, "op1"), (2, None), (2, "op1"), (2, "op3"),
            (6, None), (6, "op2"), (6, "op3"), (7, "op3"))]
        cases += [(DEEP, seed, excluded, True) for seed, excluded in (
            (3, None), (7, "op2"), (10, None), (19, "op1"))]
        for shape, seed, excluded, meets_infeasible in cases:
            document = generate(GeneratorConfig(seed=seed, **shape))
            bids = (document.bids if excluded is None
                    else pseudo_bids(excluded, document.bids))
            result = solve(build_graph(document.instance, bids))
            if meets_infeasible:
                assert result.stats.pruned_infeasible > 0
            else:
                total += result.stats.fixed_delta_solves
            assert is_feasible(document.instance, result.allocation).feasible
            assert result.objective == social_welfare(
                document.instance, result.allocation, bids)
        assert total <= 36


def _fraction_constructions(fn, *args):
    """(`Fraction`s constructed while `fn(*args)` runs, its result).  Counts
    calls of `Fraction.__new__` and, on Python versions whose arithmetic
    builds its results without it, of `Fraction._from_coprime_ints`."""
    codes = {Fraction.__new__.__code__}
    if hasattr(Fraction, "_from_coprime_ints"):
        codes.add(Fraction._from_coprime_ints.__func__.__code__)
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code in codes:
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(previous)
    return count, result


def test_pricing_and_search_construct_constant_fractions():
    """Pricing and search run on ints: on auction-mid-shape profiles,
    clearing and counterfactual, some of whose searches branch,
    `price_graph` constructs at most 1 `Fraction` (`stay_welfare`) and
    `solve` at most 2 (the objective: the gain's welfare part over
    S * P, then `stay_welfare` added), whatever the fleet or the nodes."""
    branched = 0
    for seed in range(4):
        document = generate(GeneratorConfig(seed=seed, **AUCTION_MID))
        template = compile_template(document.instance)
        for bids in [document.bids] + [pseudo_bids(operator.id, document.bids)
                                       for operator in document.instance.operators]:
            constructed, graph = _fraction_constructions(price_graph, template, bids)
            assert constructed <= 1
            constructed, result = _fraction_constructions(solve, graph)
            assert constructed <= 2
            branched += result.stats.nodes_explored > 1
    assert branched > 0


def _departure(graph, edge):
    """(aircraft, tau) if `edge` is a departure edge, read off the edge
    alone: an E4 edge, or an E5 edge that leaves no AcDep vertex (the
    only route of its time); None otherwise."""
    if edge.cls == "E4":
        i, j, tau = edge.key
        return (i, j), tau
    if edge.cls == "E5" and edge.tail[0] != "acdep":
        i, j, key = edge.key
        return (i, j), graph.instance.operator(i).aircraft(j).option(key).depart_time
    return None


def _resolve(graph, edge, bound, delta):
    """Value of an edge's bound under a full departure-time assignment:
    a departure edge carries its aircraft's unit exactly when the
    aircraft departs at the edge's time; every other bound is the edge's
    own."""
    departure = _departure(graph, edge)
    if departure is None:
        return bound
    pair, tau = departure
    return int(delta[pair] == tau)


class TestResolvedBounds:
    def test_full_assignment_resolves_every_bound(self):
        for seed in range(6):
            document = generate(GeneratorConfig(seed=seed, operators=(2, 2)))
            graph = build_graph(document.instance, document.bids)
            for delta in enumerate_deltas(document.instance):
                lower, upper = solver._resolved_bounds(graph, delta)
                assert lower == [_resolve(graph, e, e.lower, delta) for e in graph.edges]
                assert upper == [_resolve(graph, e, e.upper, delta) for e in graph.edges]

    def test_partial_assignment_contains_every_completion(self):
        for seed in range(6):
            document = generate(GeneratorConfig(seed=seed, operators=(2, 2)))
            graph = build_graph(document.instance, document.bids)
            deltas = list(enumerate_deltas(document.instance))
            for delta in deltas[::3]:
                pairs = sorted(delta)
                for decided in range(len(pairs)):
                    partial = {pair: delta[pair] for pair in pairs[:decided]}
                    lower, upper = solver._resolved_bounds(graph, partial)
                    for completion in deltas:
                        if any(completion[p] != tau for p, tau in partial.items()):
                            continue
                        for e in graph.edges:
                            assert (lower[e.index] <= _resolve(graph, e, e.lower, completion)
                                    and _resolve(graph, e, e.upper, completion)
                                    <= upper[e.index])


class TestRelaxationBound:
    def test_relaxation_conserves_the_fleet(self):
        """Each vertiport keeps its own units in the relaxation, and each
        unit is credited once.  a1 at v1 can fly at 1 or 2, and b1 at v2
        cannot leave.  Had b1's unit been free to reappear at v1, a1 would
        collect its stay bid and both route bids (11); had a1's one unit
        been paid both for staying and for its best route, 7.  The root
        relaxation is the optimum, 6, and ends the search."""
        inst = Instance(
            horizon=3,
            congestion_ratio=F(0),
            vertiports=(
                make_port("v1", (2, 2, 2), (0, 0, 0), (1, 1, 0)),
                make_port("v2", (2, 2, 2), (0, 1, 1), (1, 0, 0)),
            ),
            operators=(
                Operator("op1", F(1), (Aircraft("a1", "v1", (
                    stay(origin="v1"), transit(1, 1, "v2", 2),
                    transit(2, 2, "v2", 3))),)),
                Operator("op2", F(1), (Aircraft("b1", "v2", (
                    stay(origin="v2"), transit(1, 1, "v1", 2))),)),
            ),
        )
        bids = {("op1", "a1", 0): F(1), ("op1", "a1", 1): F(4),
                ("op1", "a1", 2): F(6), ("op2", "b1", 0): F(0),
                ("op2", "b1", 1): F(0)}
        graph = build_graph(inst, bids)
        bound, state = relaxation_bound(graph, {})
        flows = state.flows
        assert flow_objective(graph, flows, flow_gain(graph, flows)) == 6
        result = solve(graph)
        assert result.objective == 6
        assert result.allocation == {("op1", "a1"): 2, ("op2", "b1"): 0}
        assert bound == flow_gain(graph, result.flow)
        assert result.stats.fixed_delta_solves == 1

    def test_root_completion_ends_the_search(self):
        """A stay bid of 1 and a route bid of 1 that congestion at the
        destination outweighs: the root's relaxed flow keeps the aircraft
        home, which spells a completion, so one flow solve is the whole
        search and the bound is the optimum."""
        inst = Instance(
            horizon=3,
            congestion_ratio=F(2),
            vertiports=(
                make_port("v1", (1, 1, 1), (0, 0, 0), (0, 1, 0)),
                make_port("v2", (1, 1, 1), (0, 0, 1), (0, 0, 0),
                          ((F(0), F(1)),) * 3),
            ),
            operators=(Operator("op1", F(1), (
                Aircraft("a1", "v1", (stay(origin="v1"),
                                      transit(1, 2, "v2", 3))),)),),
        )
        bids = {("op1", "a1", 0): F(1), ("op1", "a1", 1): F(1)}
        graph = build_graph(inst, bids)
        bound, _ = relaxation_bound(graph, {})
        result = solve(graph)
        assert result.allocation == {("op1", "a1"): 0}
        assert bound == flow_gain(graph, result.flow)
        assert result.stats.fixed_delta_solves == 1
        assert result.stats.pruned_completion == 1

    def test_paying_route_is_not_credited_twice(self, single_mover):
        """Stay bid 4, route bid 9.  A relaxation that paid one unit for
        staying and for flying would bound the search at 13 and branch;
        with the stay folded into the route gain the root relaxation flies
        the aircraft, which spells the optimum, 9, in one flow solve."""
        instance, _ = single_mover
        bids = {("op1", "a1", 0): F(4), ("op1", "a1", 1): F(9)}
        graph = build_graph(instance, bids)
        bound, state = relaxation_bound(graph, {})
        flows = state.flows
        assert flow_objective(graph, flows, flow_gain(graph, flows)) == 9
        result = solve(graph)
        assert (result.allocation, result.objective) == ({("op1", "a1"): 1}, 9)
        assert bound == flow_gain(graph, result.flow)
        assert result.stats.fixed_delta_solves == 1
        assert result.stats.pruned_completion == 1

    def test_bound_dominates_every_completion(self):
        for seed in range(8):
            document = generate(GeneratorConfig(seed=seed, operators=(2, 2)))
            graph = build_graph(document.instance, document.bids)
            bound, state = relaxation_bound(graph, {})
            assert bound == flow_gain(graph, state.flows)
            assert bound >= flow_gain(graph, solve(graph).flow)


def _unit_edges(graph, lower, upper):
    """Each edge as linear-cost pieces (edge, key, gain, lower, upper):
    one unit edge per unit it may carry with that unit's gain, the first
    lower[k] of them forced.  An edge's cheapest units come first, so
    forcing those loses nothing."""
    for e, row, lo, up in zip(graph.edges, unit_gains(graph), lower, upper):
        for q in range(1, up + 1):
            yield e, (e.index, q), row[q - 1], int(q <= lo), 1


def _network_simplex(graph, lower, upper):
    """Reference max-gain circulation from `networkx.network_simplex`
    under the same bounds, lower bounds shifted into node demands.  It
    takes linear costs only, so each edge is expanded into unit edges
    (`_unit_edges`)."""
    nx = pytest.importorskip("networkx")
    if any(lo > up for lo, up in zip(lower, upper)):
        return None
    g = nx.MultiDiGraph()
    for v in graph.vertices:
        g.add_node(v, demand=0)
    pieces = list(_unit_edges(graph, lower, upper))
    for e, key, gain, lo, up in pieces:
        g.add_edge(e.tail, e.head, key=key, capacity=up - lo, weight=-gain)
        if lo:
            g.nodes[e.tail]["demand"] += lo
            g.nodes[e.head]["demand"] -= lo
    try:
        _, flow_dict = nx.network_simplex(g)
    except nx.NetworkXUnfeasible:
        return None
    flows = [0] * len(graph.edges)
    for e, key, _, lo, _ in pieces:
        flows[e.index] += flow_dict[e.tail][e.head][key] + lo
    return flows


def _restricted(graph, lower, upper, rng):
    """A narrowing of the bounds: one to three lowers raised or uppers
    cut by one unit each, no more than the graph has edges, sometimes past
    each other, and now and then one more departure forced through an
    open gate (E2)."""
    lower, upper = list(lower), list(upper)
    for k in rng.sample(range(len(lower)), rng.randint(1, min(3, len(lower)))):
        if rng.random() < 0.5:
            lower[k] += 1
        else:
            upper[k] -= 1
    gates = [e.index for e in edges_of_class(graph, "E2") if upper[e.index]]
    if gates and rng.random() < 0.3:
        lower[rng.choice(gates)] += 1
    return lower, upper


def _assert_kernel_agrees(graph, lower, upper, start):
    """Warm from `start` and cold, the kernel matches `network_simplex` in
    feasibility and gain and returns certified states.  Returns the warm
    state and the paths each solve pushed."""
    reference = _network_simplex(graph, lower, upper)
    states, pushes = zip(*(min_cost_flow(graph.network, lower, upper, begin)
                           for begin in (start, graph.network.cold)))
    for state in states:
        assert (state is None) == (reference is None)
        if state is not None:
            assert_certified(graph, state, lower, upper)
            assert flow_gain(graph, state.flows) == flow_gain(graph, reference)
    return states[0], pushes


@pytest.fixture(scope="module")
def kernel_graphs():
    """Graphs of acceptance-corpus seeds 0-39, of the benchmark's
    solve-large corpus (solve-large shape, seeds 0-3), and the auction-mid
    clearing and counterfactual graphs (seeds 0-99) whose search branches:
    most searches end at the root."""
    documents = [generate(corpus_config(seed)) for seed in range(40)]
    documents += [generate(GeneratorConfig(seed=seed, **SOLVE_LARGE))
                  for seed in range(4)]
    graphs = [build_graph(document.instance, document.bids) for document in documents]
    for seed in range(100):
        document = generate(GeneratorConfig(seed=seed, **AUCTION_MID))
        for bids in [document.bids] + [pseudo_bids(operator.id, document.bids)
                                       for operator in document.instance.operators]:
            graph = build_graph(document.instance, bids)
            if solve(graph).stats.nodes_explored > 1:
                graphs.append(graph)
    return graphs


def test_auction_solves_do_the_work_of_fresh_builds(kernel_graphs, monkeypatch):
    """Every clearing and payment solve of an auction, priced on the
    auction's one template, does the same search as a solve of a fresh
    `build_graph` on its profile: the same nodes, flow solves and
    prunes.  A payment solve's root starts from the cleared root, so
    the payment solves push fewer paths in total than the fresh builds,
    which start cold; a single one may push more.  The auctions run on
    each kernel graph's profile and on the deeper shape, where
    infeasible children occur."""
    seen = []

    def recorded(graph, strategy="bnb", start=None, _solve=mechanism.solve):
        result = _solve(graph, strategy=strategy, start=start)
        seen.append((graph.bids, result.stats, start))
        return result

    monkeypatch.setattr(mechanism, "solve", recorded)
    auctions = [(graph.instance, graph.bids) for graph in kernel_graphs]
    for seed in range(20):
        document = generate(GeneratorConfig(seed=seed, **DEEP))
        auctions.append((document.instance, document.bids))
    infeasible = warm = warm_paths = fresh_paths = 0
    for instance, bids in auctions:
        seen.clear()
        run_auction(instance, bids)
        assert len(seen) == len(instance.operators) + 1
        assert seen[0][2] is None and all(start is not None for *_, start in seen[1:])
        for profile, stats, start in seen:
            fresh = solve(build_graph(instance, profile)).stats
            assert (replace(stats, wall_time=0, augmentations=0)
                    == replace(fresh, wall_time=0, augmentations=0))
            if start is None:
                assert stats.augmentations == fresh.augmentations
            else:
                warm += 1
                warm_paths += stats.augmentations
                fresh_paths += fresh.augmentations
            infeasible += stats.pruned_infeasible
    assert infeasible > 0
    assert warm >= 300 and warm_paths < 0.75 * fresh_paths


@pytest.fixture(scope="module")
def generated_roots():
    """(graph, its cold-solved root state) of generator seeds 0-39 under the
    default config."""
    roots = []
    for seed in range(40):
        document = generate(GeneratorConfig(seed=seed))
        graph = build_graph(document.instance, document.bids)
        network = graph.network
        root, _ = min_cost_flow(network, *solver._resolved_bounds(graph, {}), network.cold)
        roots.append((graph, root))
    return roots


@pytest.fixture(scope="module")
def issued_solves(kernel_graphs):
    """Every flow solve `bnb` issues on `kernel_graphs`, as (graph, lower,
    upper, the state it started from)."""
    issued = []
    kernel = solver.min_cost_flow

    def recorded(network, lower, upper, start):
        issued.append((graph, lower, upper, start))
        return kernel(network, lower, upper, start)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "min_cost_flow", recorded)
        for graph in kernel_graphs:
            solve(graph, strategy="bnb")
    return issued


@pytest.fixture(scope="module")
def fathomed_nodes(kernel_graphs):
    """Every node `bnb` ends by completion on `kernel_graphs`, as (graph,
    the relaxed flow, the assignment it spells)."""
    fathomed = []
    split_aircraft = solver._split_aircraft

    def recorded(graph, flows):
        split = split_aircraft(graph, flows)
        if split is None:
            delta = {pair: next((tau for tau, k in carriers.items() if flows[k]), 0)
                     for pair, carriers in graph.departure_times.items()}
            fathomed.append((graph, list(flows), delta))
        return split

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_split_aircraft", recorded)
        for graph in kernel_graphs:  # the search alone: nothing read back
            solver._solve_bnb(graph, solver.SolveStats())
    return fathomed


def test_every_node_carries_its_residual_form(kernel_graphs):
    """Every node of every auction on the kernel graphs' profiles, the
    payment counterfactuals' roots started from the cleared root, and
    every leaf of enumeration on the acceptance-corpus graphs returns a
    certified state that carries its own residual form and, as minus its
    cost, the `flow_gain` of its flow (`checked_solves`)."""
    with checked_solves() as checked:
        for graph in kernel_graphs:
            run_auction(graph.instance, graph.bids)
        for graph in kernel_graphs[:40]:
            solve(graph, strategy="enumerate")
    assert len(checked) >= 1000


def test_fathomed_flows_are_completion_optima(fathomed_nodes):
    """A relaxed flow that ends a node lies within the resolved bounds of
    the full assignment it spells, and no flow within them gains more."""
    assert len(fathomed_nodes) >= 20
    for graph, flows, delta in fathomed_nodes:
        assert set(delta) == set(graph.departure_times)
        assert_circulation(graph, flows, *solver._resolved_bounds(graph, delta))
        gain, _ = solve_fixed_delta(graph, delta)
        assert gain == flow_gain(graph, flows)


def _scanned_indexes(graph):
    """`departure_times` derived by scanning the finished edge list: the
    reference for the index `compile_template` records while it adds the
    edges."""
    times = {(operator.id, craft.id): {}
             for operator, craft in graph.instance.iter_aircraft()}
    for e in graph.edges:
        departure = _departure(graph, e)
        if departure is not None:
            pair, tau = departure
            times[pair][tau] = e.index
    return {pair: dict(sorted(taus.items())) for pair, taus in times.items()}


def _assert_one_pass_template(instance, bids):
    """The recorded index equals the scanned one, in the same order (the
    split rule reads `departure_times` in order), and a priced graph
    holds its template's own objects."""
    template = compile_template(instance)
    graph = price_graph(template, bids)
    times = _scanned_indexes(graph)
    assert ([(pair, list(taus.items())) for pair, taus in graph.departure_times.items()]
            == [(pair, list(taus.items())) for pair, taus in times.items()])
    for name in ("edges", "topology", "departure_times"):
        assert getattr(graph, name) is getattr(template, name)


def test_template_indexes_match_edge_scans(kernel_graphs):
    for graph in kernel_graphs:
        _assert_one_pass_template(graph.instance, graph.bids)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(validated_instances())
def test_template_indexes_match_edge_scans_on_drawn_instances(drawn):
    _assert_one_pass_template(*drawn)


def _searched_nodes(graph):
    """Every node `bnb` visits on `graph`, in visiting order, as (its
    partial assignment, its relaxed flow or None when infeasible)."""
    nodes = []
    bound = solver.relaxation_bound

    def recorded(graph, partial_delta, **kwargs):
        relaxed = bound(graph, partial_delta, **kwargs)
        nodes.append((dict(partial_delta), relaxed and list(relaxed[1].flows)))
        return relaxed

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "relaxation_bound", recorded)
        solver._solve_bnb(graph, solver.SolveStats())
    return nodes


def test_bnb_splits_an_undecided_aircraft_its_relaxation_splits(kernel_graphs):
    """Each child decides one aircraft that its parent left undecided and
    whose units the parent's relaxed flow spreads over two or more E4
    edges; the children of a node take every departure time of that
    aircraft, ascending, then the stay.  So no path is deeper than the
    fleet.  The tree is rebuilt from the visiting order alone: a node's
    parent is the deepest node on the current path whose assignment it
    extends by exactly one decision."""
    graphs = list(kernel_graphs)
    for seed in range(20):
        document = generate(GeneratorConfig(seed=seed, **DEEP))
        graphs += [build_graph(document.instance, bids) for bids in
                   [document.bids] + [pseudo_bids(operator.id, document.bids)
                                      for operator in document.instance.operators]]
    splits = deepest = 0
    for graph in graphs:
        times = graph.departure_times
        path = []  # (partial, flows, [(split, tau) of each child so far])

        def close(node):
            children = node[2]
            if children:
                split = children[0][0]
                assert children == [(split, tau) for tau in (*times[split], 0)]

        for position, (partial, flows) in enumerate(_searched_nodes(graph)):
            while path and not (len(partial) == len(path[-1][0]) + 1
                                and path[-1][0].items() <= partial.items()):
                close(path.pop())
            if path:
                parent, parent_flows, children = path[-1]
                (split,) = set(partial) - set(parent)
                assert split not in parent
                assert sum(1 for k in times[split].values() if parent_flows[k]) >= 2
                children.append((split, partial[split]))
                splits += 1
            else:  # only the root has no parent
                assert position == 0 and partial == {}
            path.append((partial, flows, []))
            assert len(path) - 1 <= len(times)
            deepest = max(deepest, len(path) - 1)
        while path:
            close(path.pop())
    assert splits >= 500 and deepest >= 4


def test_search_depth_takes_no_stack_frames():
    """The search is one loop, not a frame per decided aircraft: with the
    recursion limit two frames above what a solve whose search ends at
    the root needs, a solve whose search decides 4 aircraft on one path
    still returns, and returns the same result."""
    documents = [generate(GeneratorConfig(seed=seed, **DEEP)) for seed in (0, 10)]
    shallow, deep = [build_graph(d.instance, d.bids) for d in documents]
    assert len(_searched_nodes(shallow)) == 1
    assert max(len(partial) for partial, _ in _searched_nodes(deep)) >= 4
    expected = solve(deep)
    limit, needed = sys.getrecursionlimit(), 1
    try:
        while True:  # the lowest limit under which the root-only solve returns
            try:
                sys.setrecursionlimit(needed)  # refused below the current depth
                solve(shallow)
                break
            except RecursionError:
                needed += 1
        sys.setrecursionlimit(needed + 2)
        result = solve(deep)
    finally:
        sys.setrecursionlimit(limit)
    assert result == expected


def _forged(graph, potential):
    """The cold flow with `potential` forged on as its own: a hand-built
    residual form of the zero flow on the graph's relaxed uppers, every
    lower 0, that carries `potential`.  A solve of the relaxed bounds from
    it sets up and repairs only the edges whose lower is not 0, the fixed
    E6 edges, and takes every other edge's arcs as they stand, certified
    or not."""
    rows, upper = graph.network.rows, graph.relaxed_upper
    residual = Residual(
        (0,) * len(upper), upper, [c for up in upper for c in (up, 0)],
        [c for row in rows for c in (row[0] if row else 0, 0)], 0, rows, potential)
    return FlowState(graph.network.cold.flows, potential, residual)


class TestFlowKernel:
    def test_only_the_fixed_e6_edges_run_backward(self, kernel_graphs):
        """Vertex indices are a topological order of every edge but E6,
        whose flow is fixed, and the kernel's topology uses them."""
        for graph in kernel_graphs:
            index = {v: position for position, v in enumerate(graph.vertices)}
            topology = graph.network.topology
            for e in graph.edges:
                tail, head = index[e.tail], index[e.head]
                assert (topology.tails[e.index], topology.heads[e.index]) == (tail, head)
                if e.cls == "E6":
                    assert e.lower == e.upper and tail > head
                else:
                    assert tail < head

    def test_backward_route_rejected(self):
        """The kernel's topology takes an edge from a higher to a lower
        vertex index only when its flow is fixed, like E6; any other such
        edge, like an E5 route that arrives before it departs, raises."""
        compile_topology(2, [1], [0], [1], [1])
        with pytest.raises(ValueError, match=r"edge 1 \(2 -> 1\) is not fixed and runs backward"):
            compile_topology(3, [0, 2], [1, 1], [0, 0], [1, 1])

    @pytest.mark.parametrize("route", [(1, "v2", 5), (4, "v2", 5), (1, "v9", 2)],
                             ids=["arrival_past_horizon", "departure_past_horizon",
                                  "unknown_destination"])
    def test_route_without_vertices_rejected(self, route):
        """A route that arrives or departs after the horizon, or lands at
        an unknown vertiport, fails validation; building its graph raises
        that violation, naming the aircraft and menu key, not a KeyError
        from the vertex index."""
        depart, destination, arrive = route
        instance = Instance(
            horizon=3,
            congestion_ratio=F(0),
            vertiports=(make_port("v1", (1, 1, 1), (1, 1, 1), (1, 1, 1)),
                        make_port("v2", (1, 1, 1), (1, 1, 1), (1, 1, 1))),
            operators=(Operator("op1", F(1), (Aircraft("a1", "v1", (
                stay(origin="v1"), transit(1, depart, destination, arrive))),)),),
        )
        bids = {("op1", "a1", 0): F(0), ("op1", "a1", 1): F(1)}
        assert not validate_instance(instance).ok
        with pytest.raises(ValueError, match=r"aircraft \(op1, a1\): menu key 1 "
                                             r"(needs 1 <= depart < arrive <= 3|has unknown "
                                             r"destination 'v9')"):
            build_graph(instance, bids)

    def test_root_and_children_match_network_simplex(self, kernel_graphs):
        """The relaxed root forces only the initial fleet from the sink
        to Park(r,1) (E6), so its cold solve routes those units back to
        the sink; deciding one aircraft then starts from the root's
        state."""
        pytest.importorskip("networkx")
        for graph in kernel_graphs:
            root, _ = _assert_kernel_agrees(
                graph, *solver._resolved_bounds(graph, {}), graph.network.cold)
            pair, taus = next(iter(graph.departure_times.items()))
            for tau in taus:
                _assert_kernel_agrees(
                    graph, *solver._resolved_bounds(graph, {pair: tau}), root)

    def test_matches_network_simplex(self, issued_solves):
        pytest.importorskip("networkx")
        warm_pushes = cold_pushes = warm_starts = 0
        for graph, lower, upper, start in issued_solves:
            _, (warm, cold) = _assert_kernel_agrees(graph, lower, upper, start)
            warm_pushes, cold_pushes = warm_pushes + warm, cold_pushes + cold
            warm_starts += start is not graph.network.cold
        assert len(issued_solves) >= 200
        assert warm_starts >= 0.5 * len(issued_solves)
        assert warm_pushes < cold_pushes

    def test_restrictions_match_network_simplex(self, issued_solves):
        pytest.importorskip("networkx")
        rng = random.Random(0)
        cases = infeasible = 0
        for graph, lower, upper, start in issued_solves:
            state, _ = min_cost_flow(graph.network, lower, upper, start)
            if state is None:
                continue
            for _ in range(2):
                restricted = _restricted(graph, lower, upper, rng)
                warm, _ = _assert_kernel_agrees(graph, *restricted, state)
                cases += 1
                infeasible += warm is None
        assert 0.1 * cases <= infeasible <= 0.9 * cases

    def test_negative_route_gains_match_network_simplex(self, reluctant_movers):
        """Every route gains less than staying, and the optimum flies one
        of them.  For the clearing and each counterfactual profile, the
        root solve (here the whole search) and each single decision warm
        from it match."""
        pytest.importorskip("networkx")
        instance, bids = reluctant_movers
        for profile in [bids] + [pseudo_bids(operator.id, bids)
                                 for operator in instance.operators]:
            graph = build_graph(instance, profile)
            root, _ = _assert_kernel_agrees(
                graph, *solver._resolved_bounds(graph, {}), graph.network.cold)
            for pair, taus in graph.departure_times.items():
                for tau in (*taus, 0):
                    _assert_kernel_agrees(
                        graph, *solver._resolved_bounds(graph, {pair: tau}), root)
        graph = build_graph(instance, bids)
        assert all(unit_gains(graph)[e.index][0] < 0 for e in edges_of_class(graph, "E5"))
        flows = solve(graph).flow
        assert [e.key for e in edges_of_class(graph, "E5") if flows[e.index]] == [
            ("op1", "a1", 2)]

    def test_foreign_start_returns_the_cold_optimum(self, kernel_graphs):
        """Every start is repaired where it is set up, so any balanced start
        gives the cold root's optimal flow with certified potentials: the
        cold flow under zero or random potentials, and another profile's
        solved root on the same template, its potentials converted to this
        profile's gain unit or left as they are.  A solved root handed over
        as it is, its potentials its own, sets up and repairs exactly the
        edges whose rows differ from those it was priced with: those are
        the edges whose bounds the kernel reads.  A start whose potentials
        were replaced (`_replace(potential=...)`), even by equal values, or
        that was made by hand, sets up and repairs every edge."""
        rng = random.Random(0)
        repaired = partial = 0
        for graph in kernel_graphs:
            network = graph.network
            bounds = solver._resolved_bounds(graph, {})
            cold, _ = min_cost_flow(network, *bounds, network.cold)
            template = compile_template(graph.instance)
            starts = [FlowState(network.cold.flows, (0,) * len(cold.potential))]
            for operator in graph.instance.operators[:2]:
                other = solve(price_graph(template, pseudo_bids(operator.id, graph.bids)))
                converted = [p * graph.unit // other.unit for p in other.root.potential]
                starts += [other.root, other.root._replace(potential=converted)]
            spread = max(abs(row[0]) for row in network.rows if row)
            starts += [FlowState(flows, [rng.randint(-spread, spread) for _ in cold.potential])
                       for flows in (network.cold.flows, starts[-1].flows)]
            for start in starts:
                lower = ReadRecorder(bounds[0])
                state, _ = min_cost_flow(network, lower, bounds[1], start)
                assert list(state.flows) == list(cold.flows)
                assert_certified(graph, state, *bounds)
                if start.residual is not None and start.residual.potential is start.potential:
                    assert lower.read == {k for k, (new, old) in enumerate(
                        zip(network.rows, start.residual.rows)) if new != old}
                    partial += len(lower.read) < len(lower)
                else:
                    assert lower.read == set(range(len(lower)))
                repaired += 1
        assert repaired >= 5 * len(kernel_graphs)
        assert partial >= len(kernel_graphs)

    def test_uncertified_start_raises(self, kernel_graphs):
        """Zero potentials forged into the residual form of the cold flow
        (`_forged`) leave negative reduced costs on arcs of edges the
        solve does not set up, and close a negative-cost cycle on
        acceptance-corpus seed 2: the kernel raises instead of looping."""
        graph = kernel_graphs[2]
        start = _forged(graph, (0,) * len(graph.network.cold.potential))
        with pytest.raises(ValueError, match="not certified"):
            min_cost_flow(graph.network, *solver._resolved_bounds(graph, {}), start)

    def test_forged_start_whose_path_back_does_not_end_raises(self):
        """Random potentials forged into the residual form of the cold
        flow (`_forged`) reach the kernel unrepaired on every edge but
        E6, and a source can then get a predecessor in the Dijkstra tree,
        so the walk back from the deficit would cycle: on seed 7, draws 9
        and 23 never reach a source.  Such a tree needs a vertex settled
        out of order, so those two draws raise the documented ValueError,
        and each of the first 26 draws on generator seeds 7 and 34 returns
        the cold root's flow or raises it."""
        raised = set()
        for seed in (7, 34):
            document = generate(GeneratorConfig(seed=seed))
            graph = build_graph(document.instance, document.bids)
            network = graph.network
            bounds = solver._resolved_bounds(graph, {})
            root, _ = min_cost_flow(network, *bounds, network.cold)
            rng = random.Random(seed)
            for draw in range(1, 27):
                start = _forged(graph, [rng.randint(-1000, 1000) * graph.unit
                                        for _ in network.cold.potential])
                try:
                    state, _ = min_cost_flow(network, *bounds, start)
                except ValueError as error:
                    assert str(error) == ("start state is not certified: "
                                          "vertices settled out of order")
                    raised.add((seed, draw))
                    continue
                assert list(state.flows) == list(root.flows)
        assert {(7, 9), (7, 23)} <= raised

    def test_forged_starts_return_the_optimum_or_raise(self, kernel_graphs, generated_roots):
        """Potentials forged into the residual form of the cold flow
        (`_forged`) reach the kernel unrepaired on every edge but E6: zero
        potentials on acceptance-corpus seed 2, which close a negative-cost
        cycle, and 26 draws of random potentials (integers in [-1000, 1000]
        times the gain unit, from `random.Random(seed)`) on each of
        generator seeds 0-39, 1,041 starts in all.  Each returns the cold
        root's flow or raises the documented ValueError; none returns a
        flow that gains less, and none loops."""
        graph = kernel_graphs[2]
        network = graph.network
        zero = _forged(graph, (0,) * len(network.cold.potential))
        root, _ = min_cost_flow(network, *solver._resolved_bounds(graph, {}), network.cold)
        cases = [(graph, root, [zero])]
        for seed, (graph, root) in enumerate(generated_roots):
            rng = random.Random(seed)
            cases.append((graph, root, [
                _forged(graph, [rng.randint(-1000, 1000) * graph.unit
                                for _ in graph.network.cold.potential])
                for _ in range(26)]))
        solved, raised = 0, []
        for graph, root, starts in cases:
            bounds = solver._resolved_bounds(graph, {})
            for start in starts:
                try:
                    state, _ = min_cost_flow(graph.network, *bounds, start)
                except ValueError as error:
                    assert str(error) == ("start state is not certified: "
                                          "vertices settled out of order")
                    raised.append(start)
                    continue
                assert list(state.flows) == list(root.flows)
                solved += 1
        assert raised[0] is zero
        assert solved + len(raised) == 1041 and len(raised) >= 1000 and solved

    def test_solved_state_without_its_prices_is_a_fixed_point(self, generated_roots):
        """A solved root handed back without its residual form is set up
        and repaired on every edge, and the repair keeps every edge where
        it is, so the solve pushes no path and returns the same flow."""
        for graph, root in generated_roots:
            bounds = solver._resolved_bounds(graph, {})
            state, pushed = min_cost_flow(graph.network, *bounds,
                                          FlowState(root.flows, root.potential))
            assert pushed == 0
            assert list(state.flows) == list(root.flows)

    def test_zero_aircraft_kernel(self, empty_instance):
        """With no aircraft the graph is the fixed E6 edge and the E8
        edge.  Every narrowing of one edge by one unit, warm from the
        root, matches network_simplex, and some are infeasible; so do the
        narrowings `_restricted` draws, one or two edges of the two."""
        graph = build_graph(empty_instance, {})
        lower, upper = solver._resolved_bounds(graph, {})
        root, _ = _assert_kernel_agrees(graph, lower, upper, graph.network.cold)
        assert len(lower) == 2
        rng = random.Random(0)
        for _ in range(20):
            narrowed_lower, narrowed_upper = _restricted(graph, lower, upper, rng)
            changed = sum(bounds != (lo, up) for bounds, lo, up
                          in zip(zip(lower, upper), narrowed_lower, narrowed_upper))
            assert 1 <= changed <= 2
            _assert_kernel_agrees(graph, narrowed_lower, narrowed_upper, root)
        outcomes = set()
        for k in range(len(lower)):
            for bounds, step in ((lower, 1), (upper, -1)):
                original = bounds[k]
                bounds[k] += step
                warm, _ = _assert_kernel_agrees(graph, lower, upper, root)
                bounds[k] = original
                outcomes.add(warm is None)
        assert outcomes == {True, False}

    def test_multi_unit_imbalance_takes_one_path_per_unit(self):
        """The fixed edge 2 -> 0 forces two units into vertex 0 and out of
        vertex 2.  The only way back, 0 -> 1 -> 2, has room for three, so
        from the cold start both units take it, each on its own path.  A
        hand-made start of zero potentials is repaired on every edge: the
        edge 1 -> 2, whose units each gain 1, goes to its upper bound 3,
        and three paths bring the flow to the same optimum, gain 2."""
        lower, upper = [0, 0, 2], [3, 3, 2]
        network = Network(compile_topology(3, [0, 1, 2], [1, 2, 0], lower, upper),
                          ((0, 0, 0), (-1, -1, -1), (0, 0)))
        state, pushed = min_cost_flow(network, lower, upper, network.cold)
        assert list(state.flows) == [2, 2, 2]
        assert pushed == 2
        zero = FlowState((0, 0, 0), (0, 0, 0))
        state, pushed = min_cost_flow(network, lower, upper, zero)
        assert list(state.flows) == [2, 2, 2]
        assert (-state.residual.cost, pushed) == (2, 3)


def test_import_loads_no_networkx():
    """Importing and solving never loads networkx, which the package
    needs only as a test-time reference."""
    script = (
        "import sys\n"
        "import vertiport_auction\n"
        "from vertiport_auction.generator import GeneratorConfig, generate\n"
        "from vertiport_auction.graph import build_graph\n"
        "from vertiport_auction.solver import solve\n"
        "document = generate(GeneratorConfig(seed=0))\n"
        "solve(build_graph(document.instance, document.bids))\n"
        "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
    )
    src = str(Path(solver.__file__).resolve().parents[1])
    completed = subprocess.run([sys.executable, "-c", script], capture_output=True,
                               text=True, env={**os.environ, "PYTHONPATH": src})
    assert completed.returncode == 0, completed.stderr


def _v1(parking=(1, 1, 1), departure=(0, 1, 0), congestion=None):
    return make_port("v1", parking, (0, 0, 0), departure, congestion)


_V2 = make_port("v2", (1, 1, 1), (0, 0, 1), (0, 0, 0))
_ROW = (F(0), F(1))


def _mover(ports=None, weight=F(1)):
    """The one-aircraft v1 -> v2 mover of `single_mover`, with its parts
    swappable for broken ones."""
    return Instance(3, F(0), ports or (_v1(), _V2), (Operator("op1", weight, (
        Aircraft("a1", "v1", (stay(origin="v1"), transit(1, 2, "v2", 3))),)),))


# Instances that fail validation, each with the violation it is built to
# show.  Unchecked, the first three would price an objective, the next
# four index past a table and the two after that have no feasible flow.
INVALID_INSTANCES = {
    "row_not_from_0": (_mover((_v1(congestion=((F(1), F(2)), _ROW, _ROW)), _V2)),
                       "vertiport v1: congestion_cost slot 1 must start at 0"),
    "weight_0": (_mover(weight=F(0)), "operator op1: weight must be positive, got 0"),
    "duplicate_port": (_mover((_v1(), _V2, _V2)), "duplicate vertiport id 'v2'"),
    "short_arrival_cap": (_mover((_v1(), make_port("v2", (1, 1, 1), (0, 0), (0, 0, 0)))),
                          "vertiport v2: arrival_cap has length 2, expected 3"),
    "short_parking_cap": (_mover((_v1(parking=(1, 1), congestion=(_ROW,) * 3), _V2)),
                          "vertiport v1: parking_cap has length 2, expected 3"),
    "short_congestion": (_mover((_v1(congestion=(_ROW, _ROW)), _V2)),
                         "vertiport v1: congestion_cost has 2 slots, expected 3"),
    "short_row": (_mover((_v1(congestion=((F(0),), _ROW, _ROW)), _V2)),
                  "vertiport v1: congestion_cost slot 1 has 1 entries, "
                  "expected parking_cap+1 = 2"),
    "slack": (_mover((_v1(parking=(0, 0, 0)), _V2)),
              "slack condition violated at vertiport v1, slot 1: "
              "parking_cap 0 < initial occupancy 1"),
    "negative_cap": (_mover((_v1(departure=(0, -1, 0)), _V2)),
                     "vertiport v1: departure_cap has a negative entry"),
    "negative_lambda": (Instance(1, F(-1), (make_port("v1", (0,), (0,), (0,)),), ()),
                        "lambda must be non-negative, got -1"),
}


class TestOptimalAllocation:
    def test_dominant_transit_granted(self, single_mover):
        instance, _ = single_mover
        bids = {("op1", "a1", 0): F(0), ("op1", "a1", 1): F(5)}
        assert solve(build_graph(instance, bids)).allocation == {("op1", "a1"): 1}

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
        assert solve(build_graph(inst, bids)).allocation == {("op1", "a1"): 0}
        cheap = Instance(
            horizon=inst.horizon,
            congestion_ratio=F(1, 4),
            vertiports=inst.vertiports,
            operators=inst.operators,
        )
        assert solve(build_graph(cheap, bids)).allocation == {("op1", "a1"): 1}

    @pytest.mark.parametrize("case", INVALID_INSTANCES)
    def test_invalid_instance_rejected(self, case):
        """`compile_template` is the one gate: it, `build_graph` and
        `run_auction` each refuse an instance that fails validation with
        the same text, the violations `validate_instance` reports."""
        instance, violation = INVALID_INSTANCES[case]
        violations = validate_instance(instance).violations
        assert violation in violations
        bids = {(operator.id, craft.id, entry.key): F(entry.key)
                for operator, craft in instance.iter_aircraft() for entry in craft.menu}
        for call in (lambda: compile_template(instance),
                     lambda: build_graph(instance, bids),
                     lambda: run_auction(instance, bids)):
            with pytest.raises(ValueError) as caught:
                call()
            assert str(caught.value) == f"invalid instance: {violations}"


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_solve_deterministic(seed):
    document = generate(GeneratorConfig(seed=seed))
    graph = build_graph(document.instance, document.bids)
    a = solve(graph)
    b = solve(graph)
    assert a.objective == b.objective
    assert a.allocation == b.allocation
    assert a.flow == b.flow
