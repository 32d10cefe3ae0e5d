"""Seeded random instance generation.

Instances are constructed so they always pass validation, for every
config `GeneratorConfig` accepts: parking
capacities are drawn at or above the initial occupancy (slack
condition), congestion tables are built from non-decreasing marginal
increments (discrete convexity), and transit routes depart at slot 2 or
later.  Slot-1 departures are valid and solved exactly; routes are still
drawn from slot 2 so seeded corpora and stored reference outputs stay
byte-identical.  Valuations are drawn with a fixed large denominator,
which makes exact welfare ties between distinct allocations vanishingly
unlikely.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .model import (
    STAY,
    TRANSIT,
    Aircraft,
    CongestionRow,
    Instance,
    Operator,
    RouteOption,
    Vertiport,
    congestion_row,
)
from .serialize import InstanceDocument

# Operator weights, drawn uniformly: 1 half the time, 2 and 1/2 a quarter each.
WEIGHT_CHOICES = ("1", "1", "2", "1/2")


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 0
    vertiports: Tuple[int, int] = (2, 3)
    operators: Tuple[int, int] = (2, 3)
    fleet_size: Tuple[int, int] = (1, 2)
    transit_routes: Tuple[int, int] = (1, 2)  # per aircraft, beside the stay
    horizon: Tuple[int, int] = (3, 4)
    arrival_cap: Tuple[int, int] = (0, 2)
    departure_cap: Tuple[int, int] = (0, 2)
    extra_parking: Tuple[int, int] = (0, 2)  # on top of initial occupancy
    value_denominator: int = 997
    max_value_numerator: int = 10_000
    lambda_range: Tuple[int, int] = (0, 2)  # integer part; a random
    # fractional part with the value denominator is added on top

    def __post_init__(self) -> None:
        """Rejects, naming the field, an empty range, a range that reaches
        below 0 (below 1 for the vertiports, operators and horizon), a
        value denominator below 1 and a negative value numerator.  Any of
        them could draw an instance that fails validation, or raise while
        drawing."""
        for name in ("vertiports", "operators", "fleet_size", "transit_routes",
                     "horizon", "arrival_cap", "departure_cap", "extra_parking",
                     "lambda_range", "value_denominator", "max_value_numerator"):
            value = getattr(self, name)
            lo, hi = value if isinstance(value, tuple) else (value, value)
            least = 1 if name in ("vertiports", "operators", "horizon",
                                  "value_denominator") else 0
            if lo > hi:
                raise ValueError(f"empty range for {name}")
            if lo < least:
                raise ValueError(f"{name} must be at least {least}, got {lo}")


def _draw(rng: random.Random, bounds: Tuple[int, int]) -> int:
    return rng.randint(*bounds)


def _congestion_row(rng: random.Random, cap: int, denominator: int) -> CongestionRow:
    """Convex (quadratic) table over 0..cap: the marginal increment starts
    at `base` and grows by `slope` per unit, both over `denominator`."""
    base = rng.randint(0, 200)
    slope = rng.randint(0, 200)
    row = [0]
    increment = base
    for q in range(1, cap + 1):
        row.append(row[-1] + increment)
        increment += slope
    return congestion_row(row, [denominator] * len(row))


def generate(config: GeneratorConfig) -> InstanceDocument:
    """Deterministic-in-seed document with truthful bids attached."""
    rng = random.Random(config.seed)
    h = _draw(rng, config.horizon)
    n_ports = _draw(rng, config.vertiports)
    port_ids = [f"v{i + 1}" for i in range(n_ports)]

    operators: List[Operator] = []
    origins: Dict[str, int] = {pid: 0 for pid in port_ids}
    n_operators = _draw(rng, config.operators)
    for o in range(n_operators):
        fleet: List[Aircraft] = []
        for a in range(_draw(rng, config.fleet_size)):
            origin = rng.choice(port_ids)
            origins[origin] += 1
            menu: List[RouteOption] = [
                RouteOption(key=0, kind=STAY, depart_time=0, destination=origin)
            ]
            # Transit routes depart at slot 2+ (needs at least H = 3).
            if h >= 3:
                for _ in range(_draw(rng, config.transit_routes)):
                    depart = rng.randint(2, h - 1)
                    arrive = rng.randint(depart + 1, h)
                    menu.append(RouteOption(
                        key=len(menu), kind=TRANSIT, depart_time=depart,
                        destination=rng.choice(port_ids), arrive_time=arrive,
                    ))
            fleet.append(Aircraft(id=f"a{a + 1}", origin=origin, menu=tuple(menu)))
        operators.append(Operator(
            id=f"op{o + 1}",
            weight=Fraction(rng.choice(WEIGHT_CHOICES)),
            fleet=tuple(fleet),
        ))

    ports: List[Vertiport] = []
    for pid in port_ids:
        parking = tuple(
            origins[pid] + _draw(rng, config.extra_parking) for _ in range(h)
        )
        ports.append(Vertiport(
            id=pid,
            arrival_cap=tuple(_draw(rng, config.arrival_cap) for _ in range(h)),
            departure_cap=tuple(_draw(rng, config.departure_cap) for _ in range(h)),
            parking_cap=parking,
            congestion_rows=tuple(
                _congestion_row(rng, parking[t], config.value_denominator)
                for t in range(h)
            ),
        ))

    instance = Instance(
        horizon=h,
        congestion_ratio=Fraction(
            rng.randint(*config.lambda_range), 1
        ) + Fraction(rng.randint(0, config.value_denominator - 1),
                     config.value_denominator),
        vertiports=tuple(ports),
        operators=tuple(operators),
    )

    valuations: Dict[Tuple[str, str, int], Fraction] = {}
    for operator, craft in instance.iter_aircraft():
        for entry in craft.menu:
            numerator = (rng.randint(0, config.max_value_numerator // 10)
                         if entry.is_stay
                         else rng.randint(0, config.max_value_numerator))
            valuations[(operator.id, craft.id, entry.key)] = Fraction(
                numerator, config.value_denominator
            )

    return InstanceDocument(
        instance=instance,
        bids=dict(valuations),  # truthful by default
        valuations=valuations,
    )
