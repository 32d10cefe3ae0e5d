"""Mechanism: pseudo-bids, externality payments, auction outcomes."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_matches_oracle,
    assert_priced_like_reference,
    exhaustive_solve,
    graph_edges,
    graph_view,
    make_port,
    remaining_welfare,
    stay,
    validated_instances,
)
from test_acceptance import corpus_config
from test_solver import AUCTION_MID
from vertiport_auction import graph, mechanism, solver
from vertiport_auction.generator import GeneratorConfig, generate
from vertiport_auction.graph import (
    build_graph,
    compile_template,
    counterfactual_graph,
    price_graph,
)
from vertiport_auction.mechanism import (
    RULE_NO_ZEROING,
    MechanismOutcome,
    payment,
    run_auction,
    sample_misreports,
)
from vertiport_auction.model import (
    Aircraft,
    Instance,
    Operator,
    is_feasible,
    pseudo_bids,
    social_welfare,
    utility,
)
from vertiport_auction.oracle import enumerate_feasible, oracle_payment
from vertiport_auction.solver import SolverError, solve

F = Fraction


class TestPseudoBids:
    def test_single_operator_all_zero(self, single_mover):
        _, bids = single_mover
        assert all(v == 0 for v in pseudo_bids("op1", bids).values())

    def test_other_operator_untouched(self, second_price):
        _, bids = second_price
        zeroed = pseudo_bids("op2", bids)
        assert zeroed[("op1", "a1", 1)] == 10
        assert zeroed[("op2", "a1", 1)] == 0
        assert zeroed[("op2", "a1", 0)] == 0  # stay entry zeroed too

    def test_idempotent(self, second_price):
        _, bids = second_price
        once = pseudo_bids("op1", bids)
        assert pseudo_bids("op1", once) == once


class TestRemainingWelfare:
    def test_single_operator_no_congestion(self, single_mover):
        instance, bids = single_mover
        assert remaining_welfare(instance, {("op1", "a1"): 1}, bids, "op1") == 0

    def test_congestion_still_counts_excluded_fleet(self):
        inst = Instance(
            horizon=1,
            congestion_ratio=F(1),
            vertiports=(make_port("v1", (1,), (0,), (0,),
                                  ((F(0), F(3)),)),),
            operators=(Operator("op1", F(1), (
                Aircraft("a1", "v1", (stay(origin="v1"),)),)),),
        )
        bids = {("op1", "a1", 0): F(5)}
        # Operator 1's bid is excluded but its parked aircraft still
        # incurs the congestion charge.
        assert remaining_welfare(inst, {("op1", "a1"): 0}, bids, "op1") == -3

    def test_welfare_decomposition_identity(self):
        for seed in range(10):
            document = generate(GeneratorConfig(seed=seed))
            instance, bids = document.instance, document.bids
            for x in enumerate_feasible(instance):
                total = social_welfare(instance, x, bids)
                for operator in instance.operators:
                    own = sum(
                        operator.weight * bids[(operator.id, craft.id,
                                                x[(operator.id, craft.id)])]
                        for craft in operator.fleet
                    )
                    assert total == own + remaining_welfare(
                        instance, x, bids, operator.id)

    def test_unknown_operator(self, single_mover):
        instance, bids = single_mover
        with pytest.raises(KeyError):
            remaining_welfare(instance, {("op1", "a1"): 0}, bids, "ghost")


class TestPayment:
    def test_single_operator_pays_nothing(self, single_mover):
        clearing = build_graph(*single_mover)
        assert payment(clearing, "op1", solve(clearing)) == 0

    def test_second_price_recovery(self, second_price):
        clearing = build_graph(*second_price)
        cleared = solve(clearing)
        assert payment(clearing, "op1", cleared) == 6
        assert payment(clearing, "op2", cleared) == 0

    def test_invariant_to_own_bid_scaling(self, second_price):
        instance, bids = second_price
        doubled = dict(bids)
        doubled[("op1", "a1", 1)] = F(20)
        clearing = build_graph(instance, doubled)
        cleared = solve(clearing)
        assert cleared.allocation == {("op1", "a1"): 1, ("op2", "a1"): 0}
        assert payment(clearing, "op1", cleared) == 6

    def test_unknown_rule_rejected(self, second_price):
        clearing = build_graph(*second_price)
        with pytest.raises(ValueError, match="unknown payment rule"):
            payment(clearing, "op1", solve(clearing), rule="vickrey")

    def test_routes_below_stay_bids_match_oracle(self, reluctant_movers):
        instance, bids = reluctant_movers
        assert_matches_oracle(instance, bids)
        outcome = run_auction(instance, bids)
        assert outcome.allocation == {("op1", "a1"): 2, ("op2", "b1"): 0}
        assert outcome.cleared_welfare == 12
        assert outcome.payments == {"op1": 0, "op2": 3}

    def test_pseudo_bid_neutrality(self, second_price):
        # In the inner optimization for op1, any routing of op1's
        # aircraft contributes zero bid value: the inner welfare only
        # reflects op2's bids (lambda is 0 here).
        instance, bids = second_price
        zeroed = pseudo_bids("op1", bids)
        inner = solve(build_graph(instance, zeroed))
        assert inner.objective == 6  # op2 takes the slot for free
        assert remaining_welfare(instance, inner.allocation, zeroed, "op1") == 6


class TestRunAuction:
    def test_empty_instance(self, empty_instance):
        outcome = run_auction(empty_instance, {})
        assert outcome.allocation == {}
        assert outcome.payments == {}
        assert outcome.cleared_welfare == 0

    def test_second_price_outcome(self, second_price):
        instance, bids = second_price
        outcome = run_auction(instance, bids)
        assert outcome.allocation == {("op1", "a1"): 1, ("op2", "a1"): 0}
        assert outcome.payments == {"op1": F(6), "op2": F(0)}
        assert outcome.cleared_welfare == 10

    def test_exchange_pays_nothing(self, exchange):
        instance, bids = exchange
        outcome = run_auction(instance, bids)
        assert outcome.allocation == {("op1", "a1"): 1, ("op2", "b1"): 1}
        assert outcome.payments == {"op1": F(0), "op2": F(0)}

    def test_allocation_always_feasible(self):
        for seed in range(10):
            document = generate(GeneratorConfig(seed=seed))
            outcome = run_auction(document.instance, document.bids)
            assert is_feasible(document.instance, outcome.allocation).feasible
            assert set(outcome.payments) == {
                op.id for op in document.instance.operators}

    def test_mutated_rule_pays_zero_here(self, second_price):
        # Without the zeroing the inner solve reproduces the cleared
        # allocation, so both terms cancel.
        instance, bids = second_price
        outcome = run_auction(instance, bids, rule=RULE_NO_ZEROING)
        assert outcome.payments == {"op1": F(0), "op2": F(0)}

    def test_invalid_inputs_rejected(self, second_price):
        instance, bids = second_price
        with pytest.raises(ValueError, match="invalid bids"):
            run_auction(instance, {})
        bad = Instance(
            horizon=instance.horizon,
            congestion_ratio=F(-1),
            vertiports=instance.vertiports,
            operators=instance.operators,
        )
        with pytest.raises(ValueError, match="invalid instance"):
            run_auction(bad, bids)

    def test_strategies_price_identically(self, monkeypatch):
        """An auction whose every solve is the exhaustive reference, which
        starts each counterfactual cold, clears and prices as one by
        branch-and-bound."""
        auctions = [generate(GeneratorConfig(seed=seed)) for seed in range(5)]
        searched = [run_auction(d.instance, d.bids) for d in auctions]
        monkeypatch.setattr(mechanism, "solve",
                            lambda graph, start=None: exhaustive_solve(graph))
        for document, a in zip(auctions, searched):
            b = run_auction(document.instance, document.bids)
            assert a.allocation == b.allocation
            assert a.payments == b.payments


def _derived_like_fresh(clearing):
    """Each operator's counterfactual, derived from the clearing graph as
    an auction derives it, keeps the clearing gain unit, holds the
    clearing graph's own row objects but on that operator's route edges,
    and matches a fresh `build_graph` of the pseudo-bids in bids and stay
    welfare; solved from the cleared solve, it gives the fresh build's
    allocation, objective and flow."""
    cleared = solve(clearing)
    for operator in clearing.instance.operators:
        derived = counterfactual_graph(clearing, operator.id)
        fresh = build_graph(clearing.instance, pseudo_bids(operator.id, clearing.bids))
        assert derived.bids == fresh.bids
        assert derived.unit == clearing.unit and derived.unit % fresh.unit == 0
        assert type(derived.stay_welfare) is F and derived.stay_welfare == fresh.stay_welfare
        routes = {k for _, (i, _, _), granted in clearing.aircraft if i == operator.id
                  for k, _, _ in granted}
        assert all(row is own for k, (row, own) in enumerate(
            zip(derived.network.rows, clearing.network.rows)) if k not in routes)
        result, reference = solve(derived, start=cleared), solve(fresh)
        assert ((result.allocation, result.objective, result.flow)
                == (reference.allocation, reference.objective, reference.flow))


def _priced_like_fresh(instance, bids):
    """Price the clearing profile, then each operator's pseudo-bids, on
    one template: each priced graph equals a fresh `build_graph` on the
    same profile, and its rows of unit gains, S * P and stay welfare
    equal the `Fraction` reference's.  Then each counterfactual derived
    from the clearing graph solves as the fresh build of its pseudo-bids
    (`_derived_like_fresh`).  Returns the priced graphs."""
    template = compile_template(instance)
    priced = []
    for profile in [bids] + [pseudo_bids(operator.id, bids)
                             for operator in instance.operators]:
        shared, fresh = price_graph(template, profile), build_graph(instance, profile)
        assert graph_view(shared) == graph_view(fresh)
        assert shared.network.rows == fresh.network.rows
        assert shared.unit == fresh.unit
        assert shared.stay_welfare == fresh.stay_welfare
        assert_priced_like_reference(shared)
        assert shared.network.topology is template.topology
        assert shared.network.cold == fresh.network.cold
        assert shared.relaxed_lower == fresh.relaxed_lower
        assert shared.relaxed_upper == fresh.relaxed_upper
        priced.append(shared)
    _derived_like_fresh(priced[0])
    return priced


class TestSharedTemplate:
    def test_one_template_per_auction(self, monkeypatch):
        """An auction compiles one template and prices one profile on it,
        the clearing one, in the mechanism or anywhere below it: each
        operator's counterfactual is derived from the clearing graph, and
        no solve falls back to its own build."""
        counts = {"compile_template": 0, "price_graph": 0}
        for module in (graph, mechanism):
            for name in counts:
                def counted(*args, _fn=getattr(module, name), _name=name):
                    counts[_name] += 1
                    return _fn(*args)
                monkeypatch.setattr(module, name, counted)
        for seed in range(5):
            document = generate(GeneratorConfig(seed=seed))
            counts.update(dict.fromkeys(counts, 0))
            run_auction(document.instance, document.bids)
            assert counts == {"compile_template": 1, "price_graph": 1}

    def test_auction_mid_profiles_price_like_fresh_builds(self):
        for seed in range(100):
            document = generate(GeneratorConfig(seed=seed, **AUCTION_MID))
            _priced_like_fresh(document.instance, document.bids)

    def test_acceptance_profiles_price_like_fresh_builds(self):
        for seed in range(60):
            document = generate(corpus_config(seed))
            _priced_like_fresh(document.instance, document.bids)

    @settings(max_examples=60, deadline=None)
    @given(validated_instances())
    def test_validated_profiles_price_like_fresh_builds(self, drawn):
        _priced_like_fresh(*drawn)

    def test_plain_int_profiles_price_like_reference(self):
        """Plain `int` lambda, weights and bids price, solve and pay
        exactly as the equal `Fraction`s do."""
        for seed in range(20):
            document = generate(GeneratorConfig(seed=seed, **AUCTION_MID))
            instance = document.instance

            def with_numerators(number):
                return replace(instance, congestion_ratio=number(
                    instance.congestion_ratio.numerator), operators=tuple(
                        replace(operator, weight=number(operator.weight.numerator))
                        for operator in instance.operators))

            ints, fractions = with_numerators(int), with_numerators(F)
            int_bids = {key: value.numerator for key, value in document.bids.items()}
            assert {type(value) for value in int_bids.values()} == {int}
            fraction_bids = {key: F(value) for key, value in int_bids.items()}
            for a, b in zip(_priced_like_fresh(ints, int_bids),
                            _priced_like_fresh(fractions, fraction_bids)):
                assert ((a.network.rows, a.unit, a.stay_welfare)
                        == (b.network.rows, b.unit, b.stay_welfare))
            assert run_auction(ints, int_bids) == run_auction(fractions, fraction_bids)

    def test_scale_shrinks_when_zeroing_drops_a_denominator(self, second_price,
                                                            monkeypatch):
        # op1's route bid is the only weight with denominator 3, so the
        # clearing graph's S is 3 and a fresh build of op1's pseudo-bids
        # has S = 1: there op2's route gain, bid 6 less stay 0, drops from
        # 6 * 3 * P to 6 * 1 * P.  op1's counterfactual, derived from the
        # clearing graph, keeps S = 3 and op2's route row.
        instance, bids = second_price
        bids = {**bids, ("op1", "a1", 1): F(31, 3)}
        clearing, without_op1, _ = _priced_like_fresh(instance, bids)
        (route,) = [e.index for e in graph_edges(clearing) if e.key == ("op2", "a1", 1)]
        tie_unit = compile_template(instance).tie_unit
        assert (without_op1.network.rows[route][0] - clearing.network.rows[route][0]
                == 6 * 2 * tie_unit)
        derived = counterfactual_graph(clearing, "op1")
        assert derived.unit == clearing.unit == 3 * without_op1.unit
        assert derived.network.rows[route] is clearing.network.rows[route]
        # op1's payment solve starts its root from the cleared root as it
        # is, and still pays the oracle's 6.
        cleared = solve(clearing)
        roots = []
        bound = solver.relaxation_bound

        def recorded(graph, partial_delta, **kwargs):
            if not partial_delta:
                roots.append((graph.unit, kwargs["start"]))
            return bound(graph, partial_delta, **kwargs)

        monkeypatch.setattr(solver, "relaxation_bound", recorded)
        assert payment(clearing, "op1", cleared) == oracle_payment(
            instance, bids, "op1") == 6
        ((unit, start),) = roots
        assert unit == clearing.unit and start is cleared.root

    def test_solve_refuses_a_start_at_another_unit(self, second_price):
        """A start priced at another gain unit never reaches the kernel:
        the cleared solve cannot start a fresh build of op1's pseudo-bids,
        whose S is 1 where the clearing graph's is 3."""
        instance, bids = second_price
        bids = {**bids, ("op1", "a1", 1): F(31, 3)}
        cleared = solve(build_graph(instance, bids))
        fresh = build_graph(instance, pseudo_bids("op1", bids))
        assert fresh.unit != cleared.unit
        with pytest.raises(SolverError, match="gain unit"):
            solve(fresh, start=cleared)
        assert solve(counterfactual_graph(build_graph(instance, bids), "op1"),
                     start=cleared).allocation == solve(fresh).allocation


class TestSampleMisreports:
    def test_deterministic_and_shaped(self, second_price):
        instance, bids = second_price
        a = sample_misreports(instance, bids, "op2", 6, seed=3)
        b = sample_misreports(instance, bids, "op2", 6, seed=3)
        assert a == b
        assert len(a) == 6

    def test_adversarial_classics_first(self, second_price):
        instance, bids = second_price
        reports = sample_misreports(instance, bids, "op2", 3, seed=0)
        assert reports[0][("op2", "a1", 1)] == 0
        assert reports[1][("op2", "a1", 1)] == 12
        for profile in reports:
            # Others' bids untouched, all entries non-negative.
            assert profile[("op1", "a1", 1)] == 10
            assert all(v >= 0 for v in profile.values())

    def test_different_seeds_differ(self, second_price):
        instance, bids = second_price
        a = sample_misreports(instance, bids, "op2", 10, seed=0)
        b = sample_misreports(instance, bids, "op2", 10, seed=1)
        assert a != b


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=500))
def test_truthful_utility_non_negative(seed):
    """Individual rationality on seeded truthful instances."""
    document = generate(GeneratorConfig(seed=seed, operators=(2, 2)))
    outcome = run_auction(document.instance, document.valuations)
    for operator in document.instance.operators:
        assert utility(document.instance, outcome, operator.id,
                       document.valuations) >= 0


def test_outcome_type_is_plain_data(second_price):
    instance, bids = second_price
    outcome = run_auction(instance, bids)
    clone = MechanismOutcome(outcome.allocation, outcome.payments,
                             outcome.cleared_welfare)
    assert clone == outcome
