"""Seeded instance generation."""

import pytest

from conftest import single_slot_config, total_aircraft
from vertiport_auction.generator import GeneratorConfig, generate
from vertiport_auction.model import validate_instance, validate_profile
from vertiport_auction.serialize import render

#: Per config field, a value reaching below its least allowed value, and
#: that least value.
BELOW_LEAST = {
    "vertiports": ((0, 1), 1),
    "operators": ((0, 1), 1),
    "fleet_size": ((-1, 1), 0),
    "transit_routes": ((-1, 1), 0),
    "horizon": ((0, 0), 1),
    "arrival_cap": ((-1, -1), 0),
    "departure_cap": ((-1, 0), 0),
    "extra_parking": ((-2, -2), 0),
    "lambda_range": ((-1, -1), 0),
    "value_denominator": (0, 1),
    "max_value_numerator": (-1, 0),
}


class TestDeterminism:
    def test_same_seed_identical(self):
        a = generate(GeneratorConfig(seed=11))
        b = generate(GeneratorConfig(seed=11))
        assert a == b
        assert render(a) == render(b)

    def test_adjacent_seeds_differ(self):
        assert render(generate(GeneratorConfig(seed=0))) != render(
            generate(GeneratorConfig(seed=1)))


class TestValidity:
    def test_every_instance_validates(self):
        for seed in range(30):
            document = generate(GeneratorConfig(seed=seed))
            assert validate_instance(document.instance).ok, seed
            assert validate_profile(document.instance, document.bids).ok
            assert validate_profile(document.instance, document.valuations).ok

    def test_truthful_by_default(self):
        document = generate(GeneratorConfig(seed=5))
        assert document.bids == document.valuations

    def test_transit_routes_depart_after_slot_one(self):
        for seed in range(30):
            document = generate(GeneratorConfig(seed=seed))
            for _, craft in document.instance.iter_aircraft():
                for entry in craft.menu:
                    if not entry.is_stay:
                        assert 2 <= entry.depart_time < entry.arrive_time
                        assert entry.arrive_time <= document.instance.horizon

    def test_parking_has_slack_for_initial_occupancy(self):
        for seed in range(20):
            instance = generate(GeneratorConfig(seed=seed)).instance
            for port in instance.vertiports:
                occupied = sum(
                    1 for _, craft in instance.iter_aircraft()
                    if craft.origin == port.id
                )
                assert all(cap >= occupied for cap in port.parking_cap)


class TestConfig:
    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="empty range"):
            GeneratorConfig(horizon=(4, 3))

    def test_needs_an_operator(self):
        with pytest.raises(ValueError):
            GeneratorConfig(operators=(0, 0))

    @pytest.mark.parametrize("field", list(BELOW_LEAST))
    def test_field_below_its_least_value_rejected(self, field):
        """Every field but the seed is checked against the least value
        that still draws a valid instance: unchecked, horizon (0, 0),
        arrival_cap (-1, -1), extra_parking (-2, -2) and lambda_range
        (-1, -1) draw instances that fail validation, and
        value_denominator 0 raises ZeroDivisionError."""
        value, least = BELOW_LEAST[field]
        lo = value[0] if isinstance(value, tuple) else value
        with pytest.raises(ValueError, match=f"^{field} must be at least {least}, got {lo}$"):
            GeneratorConfig(**{field: value})

    def test_bounds_respected(self):
        config = GeneratorConfig(seed=0, vertiports=(2, 2), operators=(2, 2),
                                 horizon=(3, 3))
        instance = generate(config).instance
        assert len(instance.vertiports) == 2
        assert len(instance.operators) == 2
        assert instance.horizon == 3


class TestSingleSlotConfig:
    def test_menus_reduce_to_stay_only(self):
        for seed in range(10):
            instance = generate(single_slot_config(seed)).instance
            assert instance.horizon == 1
            for operator in instance.operators:
                assert len(operator.fleet) == 1
                for craft in operator.fleet:
                    assert [entry.kind for entry in craft.menu] == ["stay"]

    def test_caps_are_slack_dominating(self):
        instance = generate(single_slot_config(3)).instance
        for port in instance.vertiports:
            assert all(c >= total_aircraft(instance)
                       for c in port.arrival_cap + port.departure_cap)
