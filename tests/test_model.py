"""Domain model: validation, occupancy, feasibility, welfare."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_stay_allocation,
    make_port,
    mistyped_instances,
    stay,
    total_aircraft,
    transit,
)
from vertiport_auction import model
from vertiport_auction.generator import GeneratorConfig, generate
from vertiport_auction.mechanism import run_auction
from vertiport_auction.model import (
    TRANSIT,
    Aircraft,
    Instance,
    Operator,
    RouteOption,
    congestion_total,
    granted_value,
    initial_occupancy,
    is_feasible,
    occupancy_table,
    social_welfare,
    utility,
    validate_instance,
    validate_profile,
)

F = Fraction


def one_port_instance(congestion_rows, parking=None, horizon=None,
                      n_origin=0, lam=F(1)):
    h = horizon or len(congestion_rows)
    parking = parking or tuple(len(row) - 1 for row in congestion_rows)
    fleet = tuple(
        Aircraft(f"a{i}", "v1", (stay(origin="v1"),)) for i in range(n_origin)
    )
    operators = (Operator("op1", F(1), fleet),) if fleet else ()
    return Instance(
        horizon=h,
        congestion_ratio=lam,
        vertiports=(make_port("v1", parking, (0,) * h, (0,) * h,
                              tuple(tuple(F(v) for v in row)
                                    for row in congestion_rows)),),
        operators=operators,
    )


class TestValidateInstance:
    def test_convex_table_accepted(self):
        inst = one_port_instance([(0, 1, 3)], horizon=1)
        assert validate_instance(inst).ok

    def test_decreasing_increments_rejected(self):
        inst = one_port_instance([(0, 2, 3, F("7/2"))], horizon=1)
        report = validate_instance(inst)
        assert any("not discrete convex" in v for v in report.violations)

    def test_slack_condition_violation(self):
        inst = one_port_instance([(0, 0), (0, 0)], parking=(1, 1), n_origin=2)
        report = validate_instance(inst)
        assert any("slack condition" in v for v in report.violations)

    def test_negative_lambda_rejected(self):
        inst = one_port_instance([(0,)], lam=F(-1))
        assert not validate_instance(inst).ok

    def test_float_lambda_rejected(self, second_price):
        """A float lambda is a violation, so an auction refuses the
        instance at its gate instead of failing inside the pricing."""
        instance, bids = second_price
        instance = replace(instance, congestion_ratio=0.5)
        assert validate_instance(instance).violations == (
            "lambda must be an int or a Fraction, got 0.5",)
        with pytest.raises(ValueError, match="invalid instance"):
            run_auction(instance, bids)

    def test_float_weight_rejected(self, second_price):
        instance, bids = second_price
        op1, op2 = instance.operators
        instance = replace(instance, operators=(replace(op1, weight=1.0), op2))
        assert validate_instance(instance).violations == (
            "operator op1: weight must be an int or a Fraction, got 1.0",)
        with pytest.raises(ValueError, match="invalid instance"):
            run_auction(instance, bids)

    def test_string_weight_reported_at_construction(self, second_price):
        """An instance with a `str` weight is constructed, and the weight
        is one of its violations."""
        instance, _ = second_price
        op1, op2 = instance.operators
        instance = replace(instance, operators=(op1, replace(op2, weight="1")))
        assert validate_instance(instance).violations == (
            "operator op2: weight must be an int or a Fraction, got '1'",)

    @pytest.mark.parametrize("field, value, problem", [
        ("horizon", 3.0, "horizon must be an int, got 3.0"),
        ("horizon", "3", "horizon must be an int, got '3'"),
        ("arrival_cap", (0, 0, 0.5), "vertiport v2: arrival_cap slot 3 must be an int, got 0.5"),
        ("departure_cap", (0, 0, True),
         "vertiport v2: departure_cap slot 3 must be an int, got True"),
        ("parking_cap", (1, 1.0, 1), "vertiport v2: parking_cap slot 2 must be an int, got 1.0"),
        ("key", 1.0, "aircraft (op1, a1): menu key must be an int, got 1.0"),
        ("depart_time", 2.0,
         "aircraft (op1, a1): menu key 1 departure time must be an int, got 2.0"),
        ("arrive_time", 3.0,
         "aircraft (op1, a1): menu key 1 arrival time must be an int, got 3.0"),
    ], ids=["horizon", "str_horizon", "arrival_cap", "bool_departure_cap", "parking_cap",
            "menu_key", "departure_time", "arrival_time"])
    def test_non_int_count_rejected(self, second_price, field, value, problem):
        """A horizon, capacity entry, menu key or departure or arrival
        time that is not an int, whole-number floats and bools included,
        is named, and the checks that would compare it are skipped, so an
        auction refuses the instance at its gate."""
        instance, bids = second_price
        if field == "horizon":
            instance = replace(instance, horizon=value)
        elif field.endswith("_cap"):
            v1, v2 = instance.vertiports
            instance = replace(instance, vertiports=(v1, replace(v2, **{field: value})))
        else:
            op1, op2 = instance.operators
            (craft,) = op1.fleet
            stay_entry, route = craft.menu
            craft = replace(craft, menu=(stay_entry, replace(route, **{field: value})))
            instance = replace(instance, operators=(replace(op1, fleet=(craft,)), op2))
        assert validate_instance(instance).violations == (problem,)
        with pytest.raises(ValueError, match="invalid instance"):
            run_auction(instance, bids)

    @pytest.mark.parametrize("field, value, problem", [
        ("arrival_cap", None, "vertiport v2: arrival_cap must be a tuple, got None"),
        ("congestion_rows", None, "vertiport v2: congestion_cost must be a tuple, got None"),
        ("parking_cap", 5, "vertiport v2: parking_cap must be a tuple, got 5"),
        ("menu", None, "aircraft (op1, a1): menu must be a tuple, got None"),
    ], ids=["arrival_cap", "congestion_rows", "parking_cap", "menu"])
    def test_mistyped_container_reaches_the_gate(self, second_price, field, value, problem):
        """A capacity table, congestion table or menu that is not a tuple,
        one that cannot be iterated included, is constructed and named as
        the one violation, and an auction refuses the instance at its
        gate."""
        instance, bids = second_price
        (v1, v2), (op1, op2) = instance.vertiports, instance.operators
        if field == "menu":
            (craft,) = op1.fleet
            op1 = replace(op1, fleet=(replace(craft, menu=value),))
        else:
            v2 = replace(v2, **{field: value})
        instance = replace(instance, vertiports=(v1, v2), operators=(op1, op2))
        assert validate_instance(instance).violations == (problem,)
        with pytest.raises(ValueError, match="invalid instance"):
            run_auction(instance, bids)

    @settings(max_examples=200, deadline=None)
    @given(mistyped_instances())
    def test_mistyped_field_reaches_the_gate(self, drawn):
        """An instance with a mistyped id, origin, destination, menu key or
        departure time, an unhashable one included, or a capacity table,
        congestion table or menu that cannot be iterated, is constructed,
        names the value among its violations, and an auction refuses it at
        its gate."""
        instance, bids, problem = drawn
        assert any(problem in v for v in validate_instance(instance).violations)
        with pytest.raises(ValueError, match="invalid instance"):
            run_auction(instance, bids)

    @pytest.mark.parametrize("field, problem", [
        ("menu_key", "aircraft (op1, a1): menu key must be an int, got '1'"),
        ("departure_time", "aircraft (op1, a1): menu key 2 departure time must be an int, "
                           "got '2'"),
        ("aircraft_id", "aircraft (op1, 2): id must be a str, got 2"),
        ("vertiport_id", "vertiport id must be a str, got 5"),
        ("nan_vertiport_id", "vertiport id must be a str, got nan"),
        ("operator_id", "operator id must be a str, got 7"),
        ("only_operator_id", "operator id must be a str, got 7"),
    ])
    def test_mixed_types_are_constructed(self, second_price, field, problem):
        """Ids, menu keys or departure times of two types side by side,
        which no sort can order, still make an instance, whose check
        names the mistyped one; an only operator with an int id too."""
        instance, bids = second_price
        (v1, v2), (op1, op2) = instance.vertiports, instance.operators
        (craft,) = op1.fleet
        stay_entry, route = craft.menu
        if field == "menu_key":
            craft = replace(craft, menu=(stay_entry, replace(route, key="1")))
        elif field == "departure_time":
            craft = replace(craft, menu=(stay_entry, route, RouteOption(
                2, TRANSIT, "2", "v2", 3)))
        elif field == "aircraft_id":
            op1 = replace(op1, fleet=(craft, replace(craft, id=2)))
        elif field == "vertiport_id":
            v2 = replace(v2, id=5)
        elif field == "nan_vertiport_id":  # equal to no id, itself included
            v2 = replace(v2, id=float("nan"))
        elif field == "operator_id":
            op2 = replace(op2, id=7)
        if field in ("menu_key", "departure_time"):
            op1 = replace(op1, fleet=(craft,))
        operators = (replace(op2, id=7),) if field == "only_operator_id" else (op1, op2)
        instance = replace(instance, vertiports=(v1, v2), operators=operators)
        assert problem in validate_instance(instance).violations
        with pytest.raises(ValueError, match="invalid instance"):
            run_auction(instance, bids)

    def test_table_must_start_at_zero(self):
        inst = one_port_instance([(1, 2)], horizon=1)
        assert any("must start at 0" in v
                   for v in validate_instance(inst).violations)

    def test_wrong_table_lengths(self):
        inst = Instance(
            horizon=2,
            congestion_ratio=F(0),
            vertiports=(make_port("v1", (1,), (0, 0), (0, 0),
                                  ((F(0), F(0)),)),),
            operators=(),
        )
        report = validate_instance(inst)
        assert any("parking_cap has length 1" in v for v in report.violations)

    def test_transit_times_must_be_ordered(self):
        inst = Instance(
            horizon=2,
            congestion_ratio=F(0),
            vertiports=(make_port("v1", (1, 1), (1, 1), (1, 1)),),
            operators=(Operator("op1", F(1), (
                Aircraft("a1", "v1", (stay(origin="v1"),
                                      transit(1, 2, "v1", 2))),)),),
        )
        assert any("1 <= depart < arrive" in v
                   for v in validate_instance(inst).violations)

    def test_duplicate_ids_flagged(self):
        inst = Instance(
            horizon=1,
            congestion_ratio=F(0),
            vertiports=(make_port("v1", (0,), (0,), (0,)),
                        make_port("v1", (0,), (0,), (0,))),
            operators=(),
        )
        assert any("duplicate vertiport" in v
                   for v in validate_instance(inst).violations)


@pytest.mark.parametrize("duplicate", ["menu_key", "aircraft_id", "operator_id",
                                       "vertiport_id"])
def test_lookups_return_the_first_of_a_duplicate(second_price, duplicate):
    """On a duplicate menu key, aircraft id, operator id or vertiport id,
    the lookup by it returns the first of the entries given, the check
    names the duplicate, and an auction refuses the instance."""
    instance, bids = second_price
    (v1, v2), (op1, op2) = instance.vertiports, instance.operators
    (craft,) = op1.fleet
    stay_entry, route = craft.menu
    if duplicate == "menu_key":
        craft = replace(craft, menu=(stay_entry, route, transit(1, 1, "v2", 2)))
        instance = replace(instance, operators=(replace(op1, fleet=(craft,)), op2))
        assert instance.operator("op1").aircraft("a1").option(1) is route
        problem = "aircraft (op1, a1): menu keys must be contiguous from 0, got [0, 1, 1]"
    elif duplicate == "aircraft_id":
        op1 = replace(op1, fleet=(craft, replace(craft, origin="v2")))
        instance = replace(instance, operators=(op1, op2))
        assert instance.operator("op1").aircraft("a1") is craft
        problem = "operator op1: duplicate aircraft id 'a1'"
    elif duplicate == "operator_id":
        instance = replace(instance, operators=(op1, replace(op1, weight=F(2)), op2))
        assert instance.operator("op1") is op1
        problem = "duplicate operator id 'op1'"
    else:
        instance = replace(instance, vertiports=(v1, replace(v1, parking_cap=(3, 3, 3)), v2))
        assert instance.vertiport("v1") is v1
        problem = "duplicate vertiport id 'v1'"
    assert problem in validate_instance(instance).violations
    with pytest.raises(ValueError, match="invalid instance"):
        run_auction(instance, bids)


def _reference_congestion_violations(rows):
    """What `validate_instance` reports on `one_port_instance(rows)`,
    found by `Fraction` arithmetic on the rows as given."""
    problems = []
    for t, row in enumerate(rows, start=1):
        if row[0] != 0:
            problems.append(f"vertiport v1: congestion_cost slot {t} must start at 0")
        if any(v < 0 for v in row):
            problems.append(f"vertiport v1: congestion_cost slot {t} has a negative entry")
        for q in range(1, len(row) - 1):
            if row[q + 1] - row[q] < row[q] - row[q - 1]:
                problems.append(f"vertiport v1: congestion_cost not discrete convex "
                                f"at slot {t}, q={q}")
    return problems


_ENTRIES = st.builds(F, st.integers(-3, 12), st.integers(1, 6))


@st.composite
def congestion_rows(draw):
    """1-5 entries with denominators 1-6: free entries, or running sums
    from 0 of increments that are sorted (convex) or not."""
    size = draw(st.integers(1, 5))
    if draw(st.booleans()):
        return [draw(_ENTRIES) for _ in range(size)]
    increments = draw(st.lists(_ENTRIES, min_size=size - 1, max_size=size - 1))
    if draw(st.booleans()):
        increments.sort()
    row = [F(0)]
    for increment in increments:
        row.append(row[-1] + increment)
    return row


class TestIntegerValidation:
    """The congestion checks run on each row brought to integers over its
    lcm; they must report what `Fraction` arithmetic finds."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(congestion_rows(), min_size=1, max_size=3))
    def test_same_violations_as_fraction_reference(self, rows):
        report = validate_instance(one_port_instance(rows))
        assert list(report.violations) == _reference_congestion_violations(rows)

    @pytest.mark.parametrize("row, problem", [
        ((0, F(1, 3), F(2, 3)), None),  # equal increments
        ((0, F(1, 2), F(5, 6)), "not discrete convex at slot 1, q=1"),  # 1/6 drop
        ((0, F(-1, 3), 1), "has a negative entry"),
        ((F(1, 2), 1, F(3, 2)), "must start at 0"),
    ])
    def test_boundary_rows(self, row, problem):
        report = validate_instance(one_port_instance([row]))
        assert list(report.violations) == _reference_congestion_violations(
            [tuple(F(v) for v in row)])
        if problem is None:
            assert report.ok
        else:
            assert len(report.violations) == 1 and problem in report.violations[0]


    @pytest.mark.parametrize("row", [
        ((0, 0, 10), -1),  # a negative denominator
        ((0, 0, 10), 0),
        ((0, 0, 10), 1.0),
        ((0, 0.0, 10), 1),  # a float numerator
        ((0, True, 10), 1),
        (0, 0, 10),  # a bare row of costs, not a pair
        (5, 1),  # numerators that are not a tuple
    ])
    def test_malformed_row_reaches_the_gate(self, reluctant_movers, row):
        """A row built by hand, not by `congestion_row`, that is not a pair
        of `int` numerators and a positive `int` denominator is named once
        per slot, with no other check of that row, and an auction refuses
        it at its gate; the instance is still constructed."""
        instance, bids = reluctant_movers
        v1, v2 = instance.vertiports
        port = replace(v1, congestion_rows=(v1.congestion_rows[0], row, row))
        instance = replace(instance, vertiports=(port, v2))
        assert validate_instance(instance).violations == tuple(
            f"vertiport v1: congestion_cost slot {t} must be int numerators over a "
            f"positive int denominator, got {row!r}" for t in (2, 3))
        with pytest.raises(ValueError, match="invalid instance"):
            run_auction(instance, bids)

    def test_row_not_in_lowest_terms_is_valid(self, reluctant_movers):
        """A row whose numerators and denominator share a factor spells the
        same costs, so it validates and clears the same auction."""
        instance, bids = reluctant_movers
        v1, v2 = instance.vertiports
        doubled = tuple((tuple(3 * g for g in numerators), 3 * common)
                        for numerators, common in v1.congestion_rows)
        scaled = replace(instance, vertiports=(replace(v1, congestion_rows=doubled), v2))
        assert validate_instance(scaled).ok
        assert run_auction(scaled, bids) == run_auction(instance, bids)


class TestValidateProfile:
    def test_dense_profile_ok(self, single_mover):
        instance, bids = single_mover
        assert validate_profile(instance, bids).ok

    def test_missing_and_negative_entries(self, single_mover):
        instance, bids = single_mover
        partial = {("op1", "a1", 0): F(-1)}
        report = validate_profile(instance, partial)
        assert any("missing value" in v for v in report.violations)
        assert any("negative value" in v for v in report.violations)

    def test_float_bid_reported(self, second_price):
        instance, bids = second_price
        bids = {**bids, ("op2", "a1", 1): 6.0}
        assert validate_profile(instance, bids, "bids").violations == (
            "bids: value at ('op2', 'a1', 1) must be an int or a Fraction, got 6.0",)

    def test_string_bid_reported(self, second_price):
        """A `str` bid is reported, not compared with 0."""
        instance, bids = second_price
        bids = {**bids, ("op1", "a1", 0): "0"}
        assert validate_profile(instance, bids, "bids").violations == (
            "bids: value at ('op1', 'a1', 0) must be an int or a Fraction, got '0'",)


class TestOccupancy:
    def test_no_aircraft(self, empty_instance):
        assert initial_occupancy(empty_instance, "v1") == 0

    def test_counting(self, second_price):
        instance, _ = second_price
        assert initial_occupancy(instance, "v1") == 2
        assert initial_occupancy(instance, "v2") == 0

    def test_single_aircraft_shape(self, single_mover):
        instance, _ = single_mover
        assert initial_occupancy(instance, "v1") == 1
        assert initial_occupancy(instance, "v2") == 0

    def test_all_stay_keeps_initial(self, second_price):
        instance, _ = second_price
        table = occupancy_table(instance, all_stay_allocation(instance))
        for t in (1, 2, 3):
            assert table[("v1", t)] == 2
            assert table[("v2", t)] == 0

    def test_depart_slot_one_frees_slot_one(self):
        # A departure at slot 1 is subtracted from slot 1 on, as at any slot.
        inst = Instance(
            horizon=3,
            congestion_ratio=F(0),
            vertiports=(
                make_port("v1", (1, 1, 1), (0, 0, 0), (1, 0, 0)),
                make_port("v2", (1, 1, 1), (0, 1, 0), (0, 0, 0)),
            ),
            operators=(Operator("op1", F(1), (
                Aircraft("a1", "v1", (stay(origin="v1"),
                                      transit(1, 1, "v2", 2))),)),),
        )
        table = occupancy_table(inst, {("op1", "a1"): 1})
        assert [table[("v1", t)] for t in (1, 2, 3)] == [0, 0, 0]
        assert [table[("v2", t)] for t in (1, 2, 3)] == [0, 1, 1]

    def test_simultaneous_swap_occupancy(self, exchange):
        instance, _ = exchange
        table = occupancy_table(instance, {("op1", "a1"): 1, ("op2", "b1"): 1})
        for port in ("v1", "v2"):
            assert [table[(port, t)] for t in (1, 2, 3)] == [1, 0, 1]

    def test_table_matches_pointwise(self, exchange):
        # Every cell equals a direct count: origin aircraft, minus those
        # departed by slot t, plus those arrived by slot t.
        instance, _ = exchange
        x = {("op1", "a1"): 1, ("op2", "b1"): 1}
        table = occupancy_table(instance, x)
        assert set(table) == {(port.id, t) for port in instance.vertiports
                              for t in range(1, instance.horizon + 1)}
        for port in instance.vertiports:
            for t in range(1, instance.horizon + 1):
                count = initial_occupancy(instance, port.id)
                for operator, craft in instance.iter_aircraft():
                    entry = craft.option(x[(operator.id, craft.id)])
                    if entry.is_stay:
                        continue
                    count += (entry.destination == port.id
                              and entry.arrive_time <= t)
                    count -= craft.origin == port.id and entry.depart_time <= t
                assert table[(port.id, t)] == count

    def test_slot_out_of_range(self, single_mover):
        instance, _ = single_mover
        table = occupancy_table(instance, all_stay_allocation(instance))
        with pytest.raises(KeyError):
            table[("v1", instance.horizon + 1)]
        with pytest.raises(KeyError):
            table[("v1", 0)]


def _residual(instance, allocation, port_id, t):
    """Parking capacity minus occupancy; negative flags a violation."""
    table = occupancy_table(instance, allocation)
    return instance.vertiport(port_id).parking_cap[t - 1] - table[(port_id, t)]


class TestResidualCapacity:
    def test_subtraction(self, second_price):
        instance, _ = second_price
        x = all_stay_allocation(instance)
        assert _residual(instance, x, "v1", 1) == 0
        assert _residual(instance, x, "v2", 1) == 1

    def test_zero_at_full(self, exchange):
        instance, _ = exchange
        x = all_stay_allocation(instance)
        assert _residual(instance, x, "v1", 2) == 0

    def test_negative_signals_violation(self):
        inst = Instance(
            horizon=2,
            congestion_ratio=F(0),
            vertiports=(
                make_port("v1", (1, 1), (0, 0), (1, 1)),
                make_port("v2", (1, 1), (2, 2), (0, 0),
                          ((F(0), F(0)), (F(0), F(0)))),
            ),
            operators=(Operator("op1", F(1), (
                Aircraft("a1", "v1", (stay(origin="v1"),
                                      transit(1, 1, "v2", 2))),)),
                       Operator("op2", F(1), (
                Aircraft("a1", "v2", (stay(origin="v2"),)),))),
        )
        x = {("op1", "a1"): 1, ("op2", "a1"): 0}
        assert _residual(inst, x, "v2", 2) == -1
        report = is_feasible(inst, x)
        assert "(C3) parking at (v2, 2)" in report.violations


class TestIsFeasible:
    def test_all_stay_feasible(self, second_price):
        instance, _ = second_price
        assert is_feasible(instance, all_stay_allocation(instance)).feasible

    def test_arrival_cap_violation_named(self, second_price):
        instance, _ = second_price
        x = {("op1", "a1"): 1, ("op2", "a1"): 1}
        report = is_feasible(instance, x)
        assert not report.feasible
        assert "(C2) arrival at (v2, 3)" in report.violations

    def test_exchange_feasible_one_sided_not(self, exchange):
        instance, _ = exchange
        assert is_feasible(instance, {("op1", "a1"): 1, ("op2", "b1"): 1}).feasible
        one_sided = is_feasible(instance, {("op1", "a1"): 1, ("op2", "b1"): 0})
        assert not one_sided.feasible
        assert "(C3) parking at (v2, 3)" in one_sided.violations

    def test_non_canonical_rejected(self, exchange):
        instance, _ = exchange
        with pytest.raises(ValueError):
            is_feasible(instance, {("op1", "a1"): 1})

    def test_one_walk_over_the_allocation(self, second_price, monkeypatch):
        """`is_feasible` reads the movements and the occupancies off one
        `movements` call, and still names every (C2) violation before any
        (C3) one: both aircraft landing at v2 at 3 overrun its arrival
        gate and its parking there."""
        calls = []

        def counted(instance, allocation, _movements=model.movements):
            calls.append(allocation)
            return _movements(instance, allocation)

        monkeypatch.setattr(model, "movements", counted)
        instance, _ = second_price
        x = {("op1", "a1"): 1, ("op2", "a1"): 1}
        assert is_feasible(instance, x).violations == (
            "(C2) arrival at (v2, 3)", "(C3) parking at (v2, 3)")
        assert calls == [x]


class TestSocialWelfare:
    def test_empty_instance(self, empty_instance):
        assert social_welfare(empty_instance, {}, {}) == 0

    def test_weighted_value(self, single_mover):
        instance, _ = single_mover
        weighted = Instance(
            horizon=instance.horizon,
            congestion_ratio=instance.congestion_ratio,
            vertiports=instance.vertiports,
            operators=(Operator("op1", F(2), instance.operators[0].fleet),),
        )
        values = {("op1", "a1", 0): F(0), ("op1", "a1", 1): F(5)}
        assert social_welfare(weighted, {("op1", "a1"): 1}, values) == 10

    def test_congestion_only(self):
        # One aircraft parked for two slots at unit congestion each.
        inst = one_port_instance([(0, 1), (0, 1)], n_origin=1, lam=F(1))
        values = {("op1", "a0", 0): F(0)}
        assert social_welfare(inst, {("op1", "a0"): 0}, values) == -2

    def test_additivity_overcounts_congestion(self, second_price):
        instance, bids = second_price
        sized = Instance(
            horizon=instance.horizon,
            congestion_ratio=F(1, 3),
            vertiports=tuple(
                make_port(p.id, p.parking_cap, p.arrival_cap, p.departure_cap,
                          tuple(tuple(F(q * q, 5) for q in range(cap + 1))
                                for cap in p.parking_cap))
                for p in instance.vertiports
            ),
            operators=instance.operators,
        )
        other = {triple: value + F(1, 2) for triple, value in bids.items()}
        combined = {triple: bids[triple] + other[triple] for triple in bids}
        for x in ({("op1", "a1"): 0, ("op2", "a1"): 0},
                  {("op1", "a1"): 1, ("op2", "a1"): 0}):
            lhs = (social_welfare(sized, x, combined)
                   - social_welfare(sized, x, bids)
                   - social_welfare(sized, x, other))
            assert lhs == sized.congestion_ratio * congestion_total(sized, x)

    def test_linear_extension_beyond_cap(self):
        inst = one_port_instance([(0, 1, 3)], horizon=1)
        port = inst.vertiports[0]
        assert port.congestion_at(1, 3) == 5  # last increment 2, extended
        assert port.congestion_at(1, 4) == 7


class TestUtility:
    class Outcome:
        def __init__(self, allocation, payments):
            self.allocation = allocation
            self.payments = payments

    def test_zero_all_round(self, single_mover):
        instance, _ = single_mover
        values = {("op1", "a1", 0): F(0), ("op1", "a1", 1): F(5)}
        outcome = self.Outcome({("op1", "a1"): 0}, {"op1": F(0)})
        assert utility(instance, outcome, "op1", values) == 0

    def test_value_minus_payment(self, single_mover):
        instance, _ = single_mover
        values = {("op1", "a1", 0): F(0), ("op1", "a1", 1): F(7)}
        outcome = self.Outcome({("op1", "a1"): 1}, {"op1": F(3)})
        assert utility(instance, outcome, "op1", values) == 4

    def test_unweighted_by_operator_weight(self, single_mover):
        instance, _ = single_mover
        weighted = Instance(
            horizon=instance.horizon,
            congestion_ratio=instance.congestion_ratio,
            vertiports=instance.vertiports,
            operators=(Operator("op1", F(3), instance.operators[0].fleet),),
        )
        values = {("op1", "a1", 0): F(0), ("op1", "a1", 1): F(7)}
        outcome = self.Outcome({("op1", "a1"): 1}, {"op1": F(0)})
        assert utility(weighted, outcome, "op1", values) == 7

    def test_missing_payment_raises(self, single_mover):
        instance, _ = single_mover
        outcome = self.Outcome({("op1", "a1"): 0}, {})
        with pytest.raises(KeyError):
            utility(instance, outcome, "op1", {})


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_occupancy_conservation(seed):
    """Parked plus airborne aircraft always sum to the fleet size."""
    document = generate(GeneratorConfig(seed=seed))
    instance = document.instance
    total = total_aircraft(instance)
    x = {}
    for operator, craft in instance.iter_aircraft():
        keys = [entry.key for entry in craft.menu]
        x[(operator.id, craft.id)] = keys[seed % len(keys)]
    table = occupancy_table(instance, x)
    for t in range(1, instance.horizon + 1):
        parked = sum(table[(port.id, t)] for port in instance.vertiports)
        airborne = 0
        for operator, craft in instance.iter_aircraft():
            entry = craft.option(x[(operator.id, craft.id)])
            if entry.is_stay:
                continue
            # Absent from all parking between departure (from slot
            # max(depart, 2)) and arrival (exclusive).
            if max(entry.depart_time, 2) <= t < entry.arrive_time:
                airborne += 1
        assert parked + airborne == total


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_all_stay_always_feasible_and_non_negative(seed):
    document = generate(GeneratorConfig(seed=seed))
    instance = document.instance
    assert validate_instance(instance).ok
    x = all_stay_allocation(instance)
    assert is_feasible(instance, x).feasible
    assert min(occupancy_table(instance, x).values()) >= 0


def test_granted_value_sums_one_operator(self=None):
    values = {("op1", "a1", 0): F(2), ("op1", "a1", 1): F(5)}
    inst = Instance(
        horizon=3,
        congestion_ratio=F(0),
        vertiports=(make_port("v1", (1, 1, 1), (0, 0, 0), (0, 0, 0)),),
        operators=(Operator("op1", F(1), (
            Aircraft("a1", "v1", (stay(origin="v1"),
                                  transit(1, 2, "v1", 3))),)),),
    )
    assert granted_value(inst, {("op1", "a1"): 0}, values, "op1") == 2
    assert granted_value(inst, {("op1", "a1"): 1}, values, "op1") == 5
