"""Domain model for vertiport reservation auctions.

Defines the auction inputs (vertiports with per-slot capacities and
congestion tables, operators with fleets and route menus), allocations,
bid/valuation profiles, and the welfare/feasibility machinery built on
them.  All money-like quantities are exact `fractions.Fraction` values;
nothing in this module uses floating point.

An `Instance` checks itself once, when constructed, and keeps every
condition it breaks: `validate_instance` reports them, and
`graph.compile_template` refuses an instance with any.

Conventions:
- Time slots are 1-based, ``1..horizon``.
- Every aircraft menu contains exactly one "stay" option (departure
  time 0); a canonical allocation assigns every aircraft exactly one
  menu key, with "no route granted" represented by the stay key.
- A departure at slot ``tau`` frees its origin from slot ``tau``; an
  arrival at slot ``t`` counts toward destination parking from slot
  ``t``.  So occupancy at slot ``t`` is the initial occupancy plus the
  arrivals minus the departures at slots ``<= t``, the units the flow
  graph's parking edge leaving ``Park(r, t)`` carries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Tuple

OperatorId = str
AircraftId = str
VertiportId = str
MenuKey = int

#: Menu entry kinds.
STAY = "stay"
TRANSIT = "transit"

#: (operator id, aircraft id, menu key) -> non-negative rational.
Profile = Mapping[Tuple[OperatorId, AircraftId, MenuKey], Fraction]

#: (operator id, aircraft id) -> chosen menu key.  Canonical form.
Allocation = Mapping[Tuple[OperatorId, AircraftId], MenuKey]


def _first_by(items: Iterable, key: Callable) -> Dict:
    """Lookup table keeping each key's first item, as a linear scan would."""
    table: Dict = {}
    for item in items:
        table.setdefault(key(item), item)
    return table


@dataclass(frozen=True)
class RouteOption:
    """One entry of an aircraft's menu.

    For ``kind == STAY`` the departure time is 0 and the destination is
    the aircraft's origin; ``arrive_time`` is unused and stored as 0.
    """

    key: MenuKey
    kind: str
    depart_time: int
    destination: VertiportId
    arrive_time: int = 0

    @property
    def is_stay(self) -> bool:
        return self.kind == STAY


@dataclass(frozen=True)
class Aircraft:
    id: AircraftId
    origin: VertiportId
    menu: Tuple[RouteOption, ...]
    _options: Dict[MenuKey, RouteOption] = field(init=False, compare=False, repr=False)
    _departure_times: Tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "menu", tuple(sorted(self.menu, key=lambda m: m.key)))
        object.__setattr__(self, "_options", _first_by(self.menu, lambda m: m.key))
        object.__setattr__(self, "_departure_times",
                           tuple(sorted({entry.depart_time for entry in self.menu})))

    @property
    def stay_key(self) -> MenuKey:
        for option in self.menu:
            if option.is_stay:
                return option.key
        raise ValueError(f"aircraft {self.id} has no stay entry")

    def option(self, key: MenuKey) -> RouteOption:
        entry = self._options.get(key)
        if entry is None:
            raise KeyError(f"aircraft {self.id} has no menu key {key}")
        return entry

    def departure_times(self) -> Tuple[int, ...]:
        """Deduplicated departure times over the menu, ascending (0 first)."""
        return self._departure_times


@dataclass(frozen=True)
class Operator:
    id: OperatorId
    weight: Fraction
    fleet: Tuple[Aircraft, ...]
    _aircraft: Dict[AircraftId, Aircraft] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "fleet", tuple(sorted(self.fleet, key=lambda a: a.id)))
        object.__setattr__(self, "_aircraft", _first_by(self.fleet, lambda a: a.id))

    def aircraft(self, aircraft_id: AircraftId) -> Aircraft:
        craft = self._aircraft.get(aircraft_id)
        if craft is None:
            raise KeyError(f"operator {self.id} has no aircraft {aircraft_id}")
        return craft


@dataclass(frozen=True)
class Vertiport:
    """A site with per-slot arrival/departure/parking capacities.

    ``congestion_cost[t - 1][q]`` is the cost of ``q`` parked aircraft in
    slot ``t``; each row has length ``parking_cap[t - 1] + 1`` and starts
    at 0.
    """

    id: VertiportId
    arrival_cap: Tuple[int, ...]
    departure_cap: Tuple[int, ...]
    parking_cap: Tuple[int, ...]
    congestion_cost: Tuple[Tuple[Fraction, ...], ...]
    _congestion_rows: Tuple[Tuple[Tuple[int, ...], int], ...] = field(
        init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        rows = []
        for row in self.congestion_cost:
            denominator = lcm(*(v.denominator for v in row))
            rows.append((tuple(v.numerator * (denominator // v.denominator) for v in row),
                         denominator))
        object.__setattr__(self, "_congestion_rows", tuple(rows))

    def congestion_rows(self) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
        """Each slot's congestion row as (integer numerators, their lcm L):
        ``congestion_cost[t - 1][q]`` is ``numerators[q] / L``."""
        return self._congestion_rows

    def congestion_at(self, t: int, occupancy: int) -> Fraction:
        """Congestion cost of `occupancy` parked aircraft in slot `t`.

        Beyond the tabulated range (only reachable by infeasible
        allocations) the table is extended linearly with its last
        increment, keeping welfare total on all canonical allocations.
        """
        table = self.congestion_cost[t - 1]
        if occupancy < len(table):
            return table[occupancy]
        last_increment = table[-1] - table[-2] if len(table) >= 2 else Fraction(0)
        return table[-1] + (occupancy - len(table) + 1) * last_increment


@dataclass(frozen=True)
class Instance:
    """A full auction input.  Immutable; lists are kept sorted by id."""

    horizon: int
    congestion_ratio: Fraction
    vertiports: Tuple[Vertiport, ...]
    operators: Tuple[Operator, ...]
    _vertiports: Dict[VertiportId, Vertiport] = field(init=False, compare=False, repr=False)
    _operators: Dict[OperatorId, Operator] = field(init=False, compare=False, repr=False)
    _violations: Tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "vertiports", tuple(sorted(self.vertiports, key=lambda v: v.id))
        )
        object.__setattr__(
            self, "operators", tuple(sorted(self.operators, key=lambda o: o.id))
        )
        object.__setattr__(self, "_vertiports", _first_by(self.vertiports, lambda v: v.id))
        object.__setattr__(self, "_operators", _first_by(self.operators, lambda o: o.id))
        object.__setattr__(self, "_violations", _find_violations(self))

    def vertiport(self, vertiport_id: VertiportId) -> Vertiport:
        port = self._vertiports.get(vertiport_id)
        if port is None:
            raise KeyError(f"unknown vertiport {vertiport_id!r}")
        return port

    def operator(self, operator_id: OperatorId) -> Operator:
        operator = self._operators.get(operator_id)
        if operator is None:
            raise KeyError(f"unknown operator {operator_id!r}")
        return operator

    def iter_aircraft(self) -> Iterator[Tuple[Operator, Aircraft]]:
        """All aircraft in canonical (operator id, aircraft id) order."""
        for operator in self.operators:
            for craft in operator.fleet:
                yield operator, craft

    def route(self, operator_id: OperatorId, aircraft_id: AircraftId,
              key: MenuKey) -> RouteOption:
        return self.operator(operator_id).aircraft(aircraft_id).option(key)


@dataclass(frozen=True)
class ValidationReport:
    violations: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: Tuple[str, ...]


def validate_instance(instance: Instance) -> ValidationReport:
    """Every structural invariant `instance` breaks, as found once when it
    was constructed; an empty report means admissible."""
    return ValidationReport(instance._violations)


def _find_violations(instance: Instance) -> Tuple[str, ...]:
    problems: List[str] = []
    h = instance.horizon
    if h < 1:
        problems.append(f"horizon must be >= 1, got {h}")
    if instance.congestion_ratio < 0:
        problems.append(f"lambda must be non-negative, got {instance.congestion_ratio}")

    seen_ports = set()
    for port in instance.vertiports:
        if port.id in seen_ports:
            problems.append(f"duplicate vertiport id {port.id!r}")
        seen_ports.add(port.id)
        for name, table in (
            ("arrival_cap", port.arrival_cap),
            ("departure_cap", port.departure_cap),
            ("parking_cap", port.parking_cap),
        ):
            if len(table) != h:
                problems.append(
                    f"vertiport {port.id}: {name} has length {len(table)}, expected {h}"
                )
            if any(c < 0 for c in table):
                problems.append(f"vertiport {port.id}: {name} has a negative entry")
        if len(port.congestion_cost) != h:
            problems.append(
                f"vertiport {port.id}: congestion_cost has {len(port.congestion_cost)} "
                f"slots, expected {h}"
            )
        for t, (scaled, _) in enumerate(port.congestion_rows(), start=1):
            cap = port.parking_cap[t - 1] if t - 1 < len(port.parking_cap) else None
            if cap is not None and len(scaled) != cap + 1:
                problems.append(
                    f"vertiport {port.id}: congestion_cost slot {t} has {len(scaled)} "
                    f"entries, expected parking_cap+1 = {cap + 1}"
                )
            if scaled and scaled[0] != 0:
                problems.append(
                    f"vertiport {port.id}: congestion_cost slot {t} must start at 0"
                )
            if any(v < 0 for v in scaled):
                problems.append(
                    f"vertiport {port.id}: congestion_cost slot {t} has a negative entry"
                )
            for q in range(1, len(scaled) - 1):
                if scaled[q + 1] - scaled[q] < scaled[q] - scaled[q - 1]:
                    problems.append(
                        f"vertiport {port.id}: congestion_cost not discrete convex "
                        f"at slot {t}, q={q}"
                    )

    seen_operators = set()
    for operator in instance.operators:
        if operator.id in seen_operators:
            problems.append(f"duplicate operator id {operator.id!r}")
        seen_operators.add(operator.id)
        if operator.weight <= 0:
            problems.append(
                f"operator {operator.id}: weight must be positive, got {operator.weight}"
            )
        seen_craft = set()
        for craft in operator.fleet:
            label = f"aircraft ({operator.id}, {craft.id})"
            if craft.id in seen_craft:
                problems.append(f"operator {operator.id}: duplicate aircraft id {craft.id!r}")
            seen_craft.add(craft.id)
            if craft.origin not in seen_ports:
                problems.append(f"{label}: unknown origin vertiport {craft.origin!r}")
            keys = [entry.key for entry in craft.menu]
            if keys != list(range(len(keys))):
                problems.append(f"{label}: menu keys must be contiguous from 0, got {keys}")
            stay_entries = [entry for entry in craft.menu if entry.is_stay]
            if len(stay_entries) != 1:
                problems.append(
                    f"{label}: menu must contain exactly one stay entry, "
                    f"found {len(stay_entries)}"
                )
            for entry in craft.menu:
                if entry.kind not in (STAY, TRANSIT):
                    problems.append(f"{label}: menu key {entry.key} has unknown kind "
                                    f"{entry.kind!r}")
                    continue
                if entry.is_stay:
                    if entry.depart_time != 0:
                        problems.append(
                            f"{label}: stay entry must have departure time 0"
                        )
                    if entry.destination != craft.origin:
                        problems.append(
                            f"{label}: stay entry destination must equal origin"
                        )
                else:
                    if not (1 <= entry.depart_time < entry.arrive_time <= h):
                        problems.append(
                            f"{label}: menu key {entry.key} needs "
                            f"1 <= depart < arrive <= {h}, got "
                            f"({entry.depart_time}, {entry.arrive_time})"
                        )
                    if entry.destination not in seen_ports:
                        problems.append(
                            f"{label}: menu key {entry.key} has unknown destination "
                            f"{entry.destination!r}"
                        )

    # Slack condition: initial occupants fit in parking at every slot.
    for port in instance.vertiports:
        occupied = initial_occupancy(instance, port.id)
        for t in range(1, min(h, len(port.parking_cap)) + 1):
            if port.parking_cap[t - 1] - occupied < 0:
                problems.append(
                    f"slack condition violated at vertiport {port.id}, slot {t}: "
                    f"parking_cap {port.parking_cap[t - 1]} < initial occupancy {occupied}"
                )

    return tuple(problems)


def validate_profile(instance: Instance, profile: Profile, name: str = "profile"
                     ) -> ValidationReport:
    """Check a bid/valuation profile is dense and non-negative."""
    problems: List[str] = []
    expected = set()
    for operator, craft in instance.iter_aircraft():
        for entry in craft.menu:
            expected.add((operator.id, craft.id, entry.key))
    for triple in sorted(expected):
        if triple not in profile:
            problems.append(f"{name}: missing value for {triple}")
    for triple, value in profile.items():
        if triple not in expected:
            problems.append(f"{name}: unexpected entry {triple}")
        elif value < 0:
            problems.append(f"{name}: negative value at {triple}")
    return ValidationReport(tuple(problems))


def check_allocation(instance: Instance, allocation: Allocation) -> None:
    """Raise ValueError unless `allocation` is canonical for `instance`."""
    expected = {(op.id, craft.id) for op, craft in instance.iter_aircraft()}
    if set(allocation) != expected:
        raise ValueError("allocation must assign exactly one key per aircraft")
    for operator, craft in instance.iter_aircraft():
        key = allocation[(operator.id, craft.id)]
        craft.option(key)  # raises KeyError on bad key


def initial_occupancy(instance: Instance, vertiport_id: VertiportId) -> int:
    """Number of aircraft whose origin is `vertiport_id`."""
    instance.vertiport(vertiport_id)
    return sum(
        1 for _, craft in instance.iter_aircraft() if craft.origin == vertiport_id
    )


def movements(instance: Instance, allocation: Allocation
              ) -> Tuple[Dict[Tuple[VertiportId, int], int],
                         Dict[Tuple[VertiportId, int], int]]:
    """Granted (arrivals, departures) per (vertiport, slot); stays move nothing."""
    arrivals: Dict[Tuple[VertiportId, int], int] = {}
    departures: Dict[Tuple[VertiportId, int], int] = {}
    for operator, craft in instance.iter_aircraft():
        entry = craft.option(allocation[(operator.id, craft.id)])
        if entry.is_stay:
            continue
        slot = (entry.destination, entry.arrive_time)
        arrivals[slot] = arrivals.get(slot, 0) + 1
        slot = (craft.origin, entry.depart_time)
        departures[slot] = departures.get(slot, 0) + 1
    return arrivals, departures


def occupancy_table(instance: Instance, allocation: Allocation
                    ) -> Dict[Tuple[VertiportId, int], int]:
    """Occupancy at every (vertiport, slot)."""
    arrivals, departures = movements(instance, allocation)
    table: Dict[Tuple[VertiportId, int], int] = {}
    for port in instance.vertiports:
        running = initial_occupancy(instance, port.id)
        for t in range(1, instance.horizon + 1):
            running += arrivals.get((port.id, t), 0)
            running -= departures.get((port.id, t), 0)
            table[(port.id, t)] = running
    return table


def is_feasible(instance: Instance, allocation: Allocation) -> FeasibilityReport:
    """Check the canonical allocation against arrival/departure/parking caps."""
    check_allocation(instance, allocation)
    problems: List[str] = []
    arrivals, departures = movements(instance, allocation)
    for port in instance.vertiports:
        for t in range(1, instance.horizon + 1):
            if arrivals.get((port.id, t), 0) > port.arrival_cap[t - 1]:
                problems.append(f"(C2) arrival at ({port.id}, {t})")
            if departures.get((port.id, t), 0) > port.departure_cap[t - 1]:
                problems.append(f"(C2) departure at ({port.id}, {t})")
    table = occupancy_table(instance, allocation)
    for port in instance.vertiports:
        for t in range(1, instance.horizon + 1):
            if table[(port.id, t)] > port.parking_cap[t - 1]:
                problems.append(f"(C3) parking at ({port.id}, {t})")
    return FeasibilityReport(not problems, tuple(problems))


def congestion_total(instance: Instance, allocation: Allocation) -> Fraction:
    """Sum of per-slot congestion costs over all vertiports."""
    table = occupancy_table(instance, allocation)
    total = Fraction(0)
    for port in instance.vertiports:
        for t in range(1, instance.horizon + 1):
            total += port.congestion_at(t, table[(port.id, t)])
    return total


def social_welfare(instance: Instance, allocation: Allocation,
                   values: Profile) -> Fraction:
    """Weighted granted values minus lambda-scaled congestion cost."""
    check_allocation(instance, allocation)
    total = Fraction(0)
    for operator, craft in instance.iter_aircraft():
        key = allocation[(operator.id, craft.id)]
        total += operator.weight * values[(operator.id, craft.id, key)]
    total -= instance.congestion_ratio * congestion_total(instance, allocation)
    return total


def granted_value(instance: Instance, allocation: Allocation, values: Profile,
                  operator_id: OperatorId) -> Fraction:
    """Unweighted sum of one operator's granted values (stay included)."""
    operator = instance.operator(operator_id)
    total = Fraction(0)
    for craft in operator.fleet:
        key = allocation[(operator_id, craft.id)]
        total += values[(operator_id, craft.id, key)]
    return total


def utility(instance: Instance, outcome, operator_id: OperatorId,
            values: Profile) -> Fraction:
    """Granted value minus payment.  Unweighted by the operator weight.

    `outcome` is any object exposing ``allocation`` and ``payments``
    (see the mechanism module).
    """
    if operator_id not in outcome.payments:
        raise KeyError(f"no payment recorded for operator {operator_id!r}")
    return (
        granted_value(instance, outcome.allocation, values, operator_id)
        - outcome.payments[operator_id]
    )
