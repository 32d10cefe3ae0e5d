"""End-to-end acceptance suite.

Ten criteria, each printing one ``criterion N: PASS/FAIL`` line directly
to the terminal (bypassing capture).  All comparisons are exact rational
equality — no tolerances anywhere.

The shared corpus is 200 seeded random instances kept small enough for
the brute-force oracle: at most 3 vertiports, 4 aircraft, horizon 4,
3 menu entries per aircraft (candidate space at most 3^4 = 81).
"""

import random
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings

from conftest import (
    allocation_to_flow,
    assert_flow_correspondence,
    assert_matches_oracle,
    flow_gain,
    remaining_welfare,
    single_slot_config,
    total_aircraft,
    truncated_incidence,
    validated_instances,
)
from test_graph import exact_det
from vertiport_auction.generator import GeneratorConfig, generate
from vertiport_auction.graph import (
    build_graph,
    flow_objective,
    flow_to_allocation,
)
from vertiport_auction.mechanism import RULE_NO_ZEROING, run_auction, sample_misreports
from vertiport_auction.model import (
    granted_value,
    pseudo_bids,
    social_welfare,
    utility,
    validate_instance,
)
from vertiport_auction.oracle import (
    candidate_count,
    enumerate_feasible,
    oracle_optimal,
    oracle_payment,
)
from vertiport_auction.solver import enumerate_deltas, solve, solve_fixed_delta

CORPUS_SIZE = 200
IC_INSTANCES = 50
MISREPORTS_PER_OPERATOR = 20
SINGLE_SLOT_INSTANCES = 50
SUBMATRIX_SAMPLES = 1000


def corpus_config(seed):
    return GeneratorConfig(
        seed=seed,
        vertiports=(2, 3),
        operators=(2, 2),
        fleet_size=(1, 2),
        transit_routes=(1, 2),
        horizon=(3, 4),
    )


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="session")
def corpus():
    return [generate(corpus_config(seed)) for seed in range(CORPUS_SIZE)]


@pytest.fixture(scope="session")
def solved(corpus):
    """Branch-and-bound solve plus oracle optimum per instance, timed."""
    start = time.perf_counter()
    entries = []
    for document in corpus:
        result = solve(build_graph(document.instance, document.bids),
                       strategy="bnb")
        oracle_allocation, oracle_welfare = oracle_optimal(
            document.instance, document.bids)
        entries.append((result, oracle_allocation, oracle_welfare))
    return {"entries": entries, "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="session")
def auctions(corpus):
    """Full mechanism outcome plus oracle payments per instance."""
    outcomes = []
    for document in corpus:
        outcome = run_auction(document.instance, document.bids)
        oracle_payments = {
            operator.id: oracle_payment(document.instance, document.bids,
                                        operator.id)
            for operator in document.instance.operators
        }
        outcomes.append((outcome, oracle_payments))
    return outcomes


def test_criterion_1_oracle_optimality_equivalence(corpus, solved, capsys):
    for document in corpus:
        instance = document.instance
        assert len(instance.vertiports) <= 3
        assert total_aircraft(instance) <= 4
        assert instance.horizon <= 4
        assert all(len(craft.menu) <= 3
                   for _, craft in instance.iter_aircraft())
        assert candidate_count(instance) <= 81
    mismatches = sum(
        1 for result, oracle_allocation, oracle_welfare in solved["entries"]
        if result.objective != oracle_welfare
        or result.allocation != oracle_allocation
    )
    elapsed = solved["elapsed"]
    ok = mismatches == 0 and elapsed < 60
    report(capsys, 1, ok,
           f"{CORPUS_SIZE} instances, {mismatches} objective or allocation "
           f"mismatches, {elapsed:.1f}s (< 60s)")


def tie_heavy_config(seed):
    """Integer values in {0, 1, 2}, zero stay values and no congestion:
    exact welfare ties, many of them across departure times."""
    return replace(corpus_config(seed), value_denominator=1,
                   max_value_numerator=2, lambda_range=(0, 0))


def test_tie_heavy_corpus_matches_oracle():
    tied = 0
    for seed in range(CORPUS_SIZE):
        document = generate(tie_heavy_config(seed))
        instance, bids = document.instance, document.bids
        welfares = [social_welfare(instance, x, bids)
                    for x in enumerate_feasible(instance)]
        tied += welfares.count(max(welfares)) > 1
        assert_matches_oracle(instance, bids)
    assert tied >= 50  # the corpus must exercise the tie-break (59 of 200)


def slot_one_instance(seed):
    """`corpus_config(seed)` with each slot-2 departure moved to slot 1
    with probability 1/2; the generator itself never draws slot 1."""
    document = generate(corpus_config(seed))
    rng = random.Random(seed)
    operators = []
    for operator in document.instance.operators:
        fleet = []
        for craft in operator.fleet:
            menu = [replace(entry, depart_time=1)
                    if entry.depart_time == 2 and rng.random() < 0.5 else entry
                    for entry in craft.menu]
            fleet.append(replace(craft, menu=tuple(menu)))
        operators.append(replace(operator, fleet=tuple(fleet)))
    return replace(document.instance, operators=tuple(operators)), document.bids


def test_slot_one_corpus_matches_oracle():
    with_slot_one = 0
    for seed in range(CORPUS_SIZE):
        instance, bids = slot_one_instance(seed)
        with_slot_one += any(entry.depart_time == 1
                             for _, craft in instance.iter_aircraft()
                             for entry in craft.menu)
        assert_matches_oracle(instance, bids)
        assert_flow_correspondence(instance, bids)
    assert with_slot_one >= 100


@settings(max_examples=200, derandomize=True, deadline=None)
@given(validated_instances())
def test_validated_instances_match_oracle(drawn):
    instance, bids = drawn
    assert validate_instance(instance).ok
    assert_matches_oracle(instance, bids)
    assert_flow_correspondence(instance, bids)


def test_criterion_2_payment_cross_check(corpus, auctions, capsys):
    mismatches = 0
    for document, (outcome, oracle_payments) in zip(corpus, auctions):
        for operator in document.instance.operators:
            if outcome.payments[operator.id] != oracle_payments[operator.id]:
                mismatches += 1
    report(capsys, 2, mismatches == 0,
           f"{CORPUS_SIZE} instances, {mismatches} payment mismatches")


def test_criterion_3_individual_rationality(corpus, auctions, capsys):
    violations = 0
    for document, (outcome, _) in zip(corpus, auctions):
        for operator in document.instance.operators:
            if utility(document.instance, outcome, operator.id,
                       document.valuations) < 0:
                violations += 1
    report(capsys, 3, violations == 0,
           f"{CORPUS_SIZE} truthful instances, {violations} negative utilities")


def _misreport_utilities(document, operator, misreports, rule_zeroing=True):
    """Utility the operator gets from each misreport, exactly.

    The inner (counterfactual) optimization does not depend on the
    operator's own reported numbers once they are zeroed, so it is
    solved once per operator.
    """
    instance = document.instance
    values = document.valuations
    if rule_zeroing:
        zeroed = pseudo_bids(operator.id, values)
        inner = solve(build_graph(instance, zeroed))
        inner_value = remaining_welfare(instance, inner.allocation, zeroed,
                                        operator.id)
    for profile in misreports:
        cleared = solve(build_graph(instance, profile))
        if not rule_zeroing:
            inner = solve(build_graph(instance, profile))
            inner_value = remaining_welfare(instance, inner.allocation,
                                            profile, operator.id)
        payment_value = (
            inner_value
            - remaining_welfare(instance, cleared.allocation, profile,
                                operator.id)
        ) / operator.weight
        yield (granted_value(instance, cleared.allocation, values, operator.id)
               - payment_value)


def test_criterion_4_incentive_compatibility_sampled(corpus, auctions, capsys):
    violations = 0
    checked = 0
    for document, (outcome, _) in zip(corpus[:IC_INSTANCES],
                                      auctions[:IC_INSTANCES]):
        for operator in document.instance.operators:
            truthful = utility(document.instance, outcome, operator.id,
                               document.valuations)
            misreports = sample_misreports(
                document.instance, document.valuations, operator.id,
                MISREPORTS_PER_OPERATOR, seed=0)
            for lied in _misreport_utilities(document, operator, misreports):
                checked += 1
                if lied > truthful:
                    violations += 1
    report(capsys, 4, violations == 0,
           f"{IC_INSTANCES} instances, {checked} misreports, "
           f"{violations} profitable deviations")


def tied_parking_documents():
    """Tie-heavy generator draws (integer values in {0, 1, 2}, no
    congestion, so every parking unit gains 0) whose `bnb` and
    `enumerate` searches reach their optimum by different paths."""
    return [generate(GeneratorConfig(seed=seed, value_denominator=1,
                                     max_value_numerator=2, lambda_range=(0, 0)))
            for seed in (173, 175)]


def test_criterion_5_flow_bijection(corpus, capsys):
    roundtrip_failures = 0
    objective_mismatches = 0
    flow_mismatches = 0
    allocations = 0
    for document in corpus:
        instance = document.instance
        graph = build_graph(instance, document.bids)
        for x in enumerate_feasible(instance):
            allocations += 1
            flow = allocation_to_flow(graph, x)
            if flow_to_allocation(graph, flow) != x:
                roundtrip_failures += 1
            gain = flow_gain(graph, flow)
            if flow_objective(graph, flow, gain) != social_welfare(
                    instance, x, document.bids):
                objective_mismatches += 1
    solved = corpus + tied_parking_documents()
    for document in solved:
        graph = build_graph(document.instance, document.bids)
        for strategy in ("bnb", "enumerate"):
            result = solve(graph, strategy=strategy)
            if result.flow != allocation_to_flow(graph, result.allocation):
                flow_mismatches += 1
    ok = roundtrip_failures == 0 and objective_mismatches == 0 and flow_mismatches == 0
    report(capsys, 5, ok,
           f"{allocations} feasible allocations, "
           f"{roundtrip_failures} roundtrip failures, "
           f"{objective_mismatches} objective mismatches; "
           f"{2 * len(solved)} solves, {flow_mismatches} not the flow of "
           f"their allocation")


def test_criterion_6_integrality_and_unimodularity(corpus, capsys):
    non_integer = 0
    solves = 0
    for document in corpus[:40]:
        graph = build_graph(document.instance, document.bids)
        for delta in enumerate_deltas(document.instance):
            leaf = solve_fixed_delta(graph, delta)
            if leaf is None:
                continue
            _, solution = leaf
            solves += 1
            if not all(isinstance(v, int) for v in solution):
                non_integer += 1
    rng = random.Random(0)
    bad_dets = 0
    sampled = 0
    while sampled < SUBMATRIX_SAMPLES:
        document = corpus[rng.randrange(len(corpus))]
        matrix = truncated_incidence(
            build_graph(document.instance, document.bids))
        rows, cols = len(matrix), len(matrix[0])
        for _ in range(25):
            k = rng.randint(2, min(6, rows, cols))
            ri = rng.sample(range(rows), k)
            ci = rng.sample(range(cols), k)
            sub = [[matrix[r][c] for c in ci] for r in ri]
            if exact_det(sub) not in (-1, 0, 1):
                bad_dets += 1
            sampled += 1
    ok = non_integer == 0 and bad_dets == 0
    report(capsys, 6, ok,
           f"{solves} fixed-assignment solves all integral ({non_integer} bad), "
           f"{sampled} sampled submatrix determinants in {{-1,0,1}} "
           f"({bad_dets} bad)")


def test_criterion_7_strategy_equivalence(corpus, solved, capsys):
    mismatches = 0
    for document, (bnb_result, _, _) in zip(corpus, solved["entries"]):
        enum_result = solve(build_graph(document.instance, document.bids),
                            strategy="enumerate")
        if (enum_result.objective != bnb_result.objective
                or enum_result.allocation != bnb_result.allocation):
            mismatches += 1
    report(capsys, 7, mismatches == 0,
           f"{CORPUS_SIZE} instances, {mismatches} strategy disagreements")


def test_criterion_8_single_slot_reduction(capsys):
    mismatches = 0
    for seed in range(SINGLE_SLOT_INSTANCES):
        document = generate(single_slot_config(seed))
        instance = document.instance
        assert instance.horizon == 1
        outcome = run_auction(instance, document.bids)
        oracle_allocation, oracle_welfare = oracle_optimal(instance,
                                                           document.bids)
        if (outcome.allocation != oracle_allocation
                or outcome.cleared_welfare != oracle_welfare):
            mismatches += 1
            continue
        for operator in instance.operators:
            if outcome.payments[operator.id] != oracle_payment(
                    instance, document.bids, operator.id):
                mismatches += 1
                break
    report(capsys, 8, mismatches == 0,
           f"{SINGLE_SLOT_INSTANCES} single-slot instances, "
           f"{mismatches} outcome mismatches")


def test_criterion_9_exchange_signature(exchange, capsys):
    instance, bids = exchange
    result = solve(build_graph(instance, bids))
    swap = {("op1", "a1"): 1, ("op2", "b1"): 1}
    feasible = list(enumerate_feasible(instance))
    one_sided_absent = (
        {("op1", "a1"): 1, ("op2", "b1"): 0} not in feasible
        and {("op1", "a1"): 0, ("op2", "b1"): 1} not in feasible
    )
    ok = (result.allocation == swap and result.objective == 20
          and swap in feasible and one_sided_absent)
    report(capsys, 9, ok,
           "simultaneous swap granted; one-sided moves infeasible "
           f"(feasible set size {len(feasible)})")


def test_criterion_10_negative_control(corpus, second_price, capsys):
    """The broken no-zeroing payment rule must fail the IC suite."""
    violations = 0
    checked = 0
    instance, bids = second_price
    fixture_doc = type("Doc", (), {})()
    fixture_doc.instance = instance
    fixture_doc.valuations = bids
    documents = [fixture_doc] + corpus[:10]
    for document in documents:
        truthful_outcome = run_auction(document.instance, document.valuations,
                                       rule=RULE_NO_ZEROING)
        for operator in document.instance.operators:
            truthful = utility(document.instance, truthful_outcome,
                               operator.id, document.valuations)
            misreports = sample_misreports(
                document.instance, document.valuations, operator.id,
                5, seed=0)
            for lied in _misreport_utilities(document, operator, misreports,
                                             rule_zeroing=False):
                checked += 1
                if lied > truthful:
                    violations += 1
    report(capsys, 10, violations > 0,
           f"mutated payment rule: {violations} profitable deviations "
           f"found in {checked} misreports (the IC suite has teeth)")
