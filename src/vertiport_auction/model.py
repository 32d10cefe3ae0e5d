"""Domain model for vertiport reservation auctions.

Defines the auction inputs (vertiports with per-slot capacities and
congestion tables, operators with fleets and route menus), allocations,
bid/valuation profiles, and the welfare/feasibility machinery built on
them.  All money-like quantities are exact: `int` or
`fractions.Fraction` values (`is_rational`; the validators report any
other), except congestion costs, whose one stored form is a row of
integer numerators over one denominator per slot (`CongestionRow`):
`Vertiport.congestion_at` derives one cost as a `Fraction`, and the
flow graph prices the integer rows.  Nothing in this module uses
floating point.

An `Instance` checks itself once, when constructed, and keeps every
condition it breaks: `validate_instance` reports them, and
`graph.compile_template` refuses an instance with any.  The objects are
plain data, kept sorted by id or key (a mistyped one last, named by the
check, never raised on).  A lookup by id or key scans them and returns
the first match; `movements` is the one walk that checks an allocation.

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
from math import gcd, lcm
from operator import attrgetter, lt, sub
from typing import Callable, Dict, Iterator, List, Mapping, Sequence, Tuple

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
_NOT_CANONICAL = "allocation must assign exactly one key per aircraft"


def is_rational(value: object) -> bool:
    """Whether `value` may stand for a lambda, a weight or a bid: an
    `int` that is not a `bool`, or a `Fraction`."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


_ID = attrgetter("id")
_KEY = attrgetter("key")
_KIND = attrgetter("kind")
_DEPARTURE = attrgetter("depart_time")


def _sorted_by(items: Sequence, key: Callable, kind: type) -> Tuple:
    """`items` by ascending `key` of type `kind`, then the others in the
    given order: a sort that never raises on a mistyped key."""
    return tuple(sorted(items, key=lambda item: (0, key(item))
                        if type(key(item)) is kind else (1,)))


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
    _departure_times: Tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        menu = _sorted_by(self.menu, _KEY, int)
        object.__setattr__(self, "menu", menu)
        object.__setattr__(self, "_departure_times", tuple(dict.fromkeys(
            map(_DEPARTURE, _sorted_by(menu, _DEPARTURE, int)))))

    @property
    def stay_key(self) -> MenuKey:
        for option in self.menu:
            if option.is_stay:
                return option.key
        raise ValueError(f"aircraft {self.id} has no stay entry")

    def option(self, key: MenuKey) -> RouteOption:
        for entry in self.menu:
            if entry.key == key:
                return entry
        raise KeyError(f"aircraft {self.id} has no menu key {key}")

    def departure_times(self) -> Tuple[int, ...]:
        """Deduplicated departure times over the menu, ascending (0 first)."""
        return self._departure_times


@dataclass(frozen=True)
class Operator:
    id: OperatorId
    weight: Fraction
    fleet: Tuple[Aircraft, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "fleet", _sorted_by(self.fleet, _ID, str))

    def aircraft(self, aircraft_id: AircraftId) -> Aircraft:
        for craft in self.fleet:
            if craft.id == aircraft_id:
                return craft
        raise KeyError(f"operator {self.id} has no aircraft {aircraft_id}")


#: A slot's congestion costs as integer numerators over one positive
#: denominator L, in lowest terms: no integer above 1 divides L and every
#: numerator, so L is the lcm of the costs' reduced denominators.
CongestionRow = Tuple[Tuple[int, ...], int]


def congestion_row(numerators: Sequence[int], denominators: Sequence[int]
                   ) -> CongestionRow:
    """The row of costs ``numerators[q] / denominators[q]``, denominators
    positive, in its one stored form (`CongestionRow`): equal costs
    spelled over other denominators give the same row."""
    common = lcm(*denominators)
    scaled = [n * (common // d) for n, d in zip(numerators, denominators)]
    divisor = gcd(common, *scaled)
    if divisor != 1:
        scaled = [n // divisor for n in scaled]
    return tuple(scaled), common // divisor


@dataclass(frozen=True)
class Vertiport:
    """A site with per-slot arrival/departure/parking capacities.

    ``congestion_rows[t - 1]`` is slot ``t``'s congestion row, the one
    stored form of its costs (`CongestionRow`): with numerators ``G``
    over ``L``, ``G[q] / L`` is the cost of ``q`` parked aircraft.  Each
    row has length ``parking_cap[t - 1] + 1`` and starts at 0.  One cost
    as a `Fraction` is derived from its row on each read (`congestion_at`).
    """

    id: VertiportId
    arrival_cap: Tuple[int, ...]
    departure_cap: Tuple[int, ...]
    parking_cap: Tuple[int, ...]
    congestion_rows: Tuple[CongestionRow, ...]

    def congestion_at(self, t: int, occupancy: int) -> Fraction:
        """Congestion cost of `occupancy` parked aircraft in slot `t`.

        Beyond the tabulated range (only reachable by infeasible
        allocations) the table is extended linearly with its last
        increment, keeping welfare total on all canonical allocations.
        """
        numerators, common = self.congestion_rows[t - 1]
        if occupancy < len(numerators):
            return Fraction(numerators[occupancy], common)
        last_increment = numerators[-1] - numerators[-2] if len(numerators) >= 2 else 0
        return Fraction(numerators[-1] + (occupancy - len(numerators) + 1) * last_increment,
                        common)


@dataclass(frozen=True)
class Instance:
    """A full auction input.  Immutable; lists are kept sorted by id."""

    horizon: int
    congestion_ratio: Fraction
    vertiports: Tuple[Vertiport, ...]
    operators: Tuple[Operator, ...]
    _violations: Tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertiports", _sorted_by(self.vertiports, _ID, str))
        object.__setattr__(self, "operators", _sorted_by(self.operators, _ID, str))
        object.__setattr__(self, "_violations", _find_violations(self))

    def vertiport(self, vertiport_id: VertiportId) -> Vertiport:
        for port in self.vertiports:
            if port.id == vertiport_id:
                return port
        raise KeyError(f"unknown vertiport {vertiport_id!r}")

    def operator(self, operator_id: OperatorId) -> Operator:
        for operator in self.operators:
            if operator.id == operator_id:
                return operator
        raise KeyError(f"unknown operator {operator_id!r}")

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
    """Every condition `instance` breaks.  The horizon, every capacity,
    menu key and departure and arrival time must be an `int`, not a
    `bool`, and every id a `str` (the tie-break ranks aircraft by id), as
    `serialize.parse` reads them; a check that would compare or add a
    field that is not one is skipped."""
    problems: List[str] = []
    h = instance.horizon
    counted = type(h) is int  # the checks against the horizon run
    if not counted:
        problems.append(f"horizon must be an int, got {h!r}")
    elif h < 1:
        problems.append(f"horizon must be >= 1, got {h}")
    if not is_rational(instance.congestion_ratio):
        problems.append(f"lambda must be an int or a Fraction, "
                        f"got {instance.congestion_ratio!r}")
    elif instance.congestion_ratio < 0:
        problems.append(f"lambda must be non-negative, got {instance.congestion_ratio}")

    seen_ports = set()
    for port in instance.vertiports:
        if type(port.id) is not str:
            problems.append(f"vertiport id must be a str, got {port.id!r}")
        if port.id in seen_ports:
            problems.append(f"duplicate vertiport id {port.id!r}")
        seen_ports.add(port.id)
        for name, table in (
            ("arrival_cap", port.arrival_cap),
            ("departure_cap", port.departure_cap),
            ("parking_cap", port.parking_cap),
        ):
            if counted and len(table) != h:
                problems.append(
                    f"vertiport {port.id}: {name} has length {len(table)}, expected {h}"
                )
            if not set(map(type, table)) <= {int}:  # not every entry an int
                problems.extend(
                    f"vertiport {port.id}: {name} slot {t} must be an int, got {cap!r}"
                    for t, cap in enumerate(table, start=1) if type(cap) is not int
                )
            elif table and min(table) < 0:
                problems.append(f"vertiport {port.id}: {name} has a negative entry")
        if counted and len(port.congestion_rows) != h:
            problems.append(
                f"vertiport {port.id}: congestion_cost has {len(port.congestion_rows)} "
                f"slots, expected {h}"
            )
        caps = port.parking_cap
        for t, (scaled, _) in enumerate(port.congestion_rows, start=1):
            cap = caps[t - 1] if t <= len(caps) else None
            if type(cap) is int and len(scaled) != cap + 1:
                problems.append(
                    f"vertiport {port.id}: congestion_cost slot {t} has {len(scaled)} "
                    f"entries, expected parking_cap+1 = {cap + 1}"
                )
            if scaled and scaled[0] != 0:
                problems.append(
                    f"vertiport {port.id}: congestion_cost slot {t} must start at 0"
                )
            if scaled and min(scaled) < 0:
                problems.append(
                    f"vertiport {port.id}: congestion_cost slot {t} has a negative entry"
                )
            steps = list(map(sub, scaled[1:], scaled))
            if any(map(lt, steps[1:], steps)):  # an increment falls: name each
                problems.extend(
                    f"vertiport {port.id}: congestion_cost not discrete convex "
                    f"at slot {t}, q={q}"
                    for q in range(1, len(steps)) if steps[q] < steps[q - 1]
                )

    seen_operators = set()
    for operator in instance.operators:
        if type(operator.id) is not str:
            problems.append(f"operator id must be a str, got {operator.id!r}")
        if operator.id in seen_operators:
            problems.append(f"duplicate operator id {operator.id!r}")
        seen_operators.add(operator.id)
        if not is_rational(operator.weight):
            problems.append(f"operator {operator.id}: weight must be an int or a "
                            f"Fraction, got {operator.weight!r}")
        elif operator.weight <= 0:
            problems.append(
                f"operator {operator.id}: weight must be positive, got {operator.weight}"
            )
        seen_craft = set()
        for craft in operator.fleet:
            label = f"aircraft ({operator.id}, {craft.id})"
            if type(craft.id) is not str:
                problems.append(f"{label}: id must be a str, got {craft.id!r}")
            if craft.id in seen_craft:
                problems.append(f"operator {operator.id}: duplicate aircraft id {craft.id!r}")
            seen_craft.add(craft.id)
            if craft.origin not in seen_ports:
                problems.append(f"{label}: unknown origin vertiport {craft.origin!r}")
            keys = list(map(_KEY, craft.menu))
            problems.extend(f"{label}: menu key must be an int, got {key!r}"
                            for key in keys if type(key) is not int)
            if keys != list(range(len(keys))):
                problems.append(f"{label}: menu keys must be contiguous from 0, got {keys}")
            stays = list(map(_KIND, craft.menu)).count(STAY)
            if stays != 1:
                problems.append(
                    f"{label}: menu must contain exactly one stay entry, found {stays}"
                )
            for entry in craft.menu:
                if type(entry.depart_time) is not int:
                    problems.append(f"{label}: menu key {entry.key} departure time "
                                    f"must be an int, got {entry.depart_time!r}")
                if entry.kind == STAY:
                    if entry.depart_time != 0:
                        problems.append(
                            f"{label}: stay entry must have departure time 0"
                        )
                    if entry.destination != craft.origin:
                        problems.append(
                            f"{label}: stay entry destination must equal origin"
                        )
                elif entry.kind == TRANSIT:
                    if type(entry.arrive_time) is not int:
                        problems.append(f"{label}: menu key {entry.key} arrival time "
                                        f"must be an int, got {entry.arrive_time!r}")
                    elif counted and type(entry.depart_time) is int and not (
                            1 <= entry.depart_time < entry.arrive_time <= h):
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
                else:
                    problems.append(f"{label}: menu key {entry.key} has unknown kind "
                                    f"{entry.kind!r}")

    # Slack condition: initial occupants fit in parking at every slot.
    origins = [craft.origin for operator in instance.operators for craft in operator.fleet]
    for port in instance.vertiports if counted else ():
        occupied = origins.count(port.id)
        for t, cap in enumerate(port.parking_cap[:h], start=1):
            if type(cap) is int and cap < occupied:
                problems.append(
                    f"slack condition violated at vertiport {port.id}, slot {t}: "
                    f"parking_cap {cap} < initial occupancy {occupied}"
                )

    return tuple(problems)


def validate_profile(instance: Instance, profile: Profile, name: str = "profile"
                     ) -> ValidationReport:
    """Check a bid/valuation profile is dense, rational (`is_rational`)
    and non-negative."""
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
        elif not is_rational(value):
            problems.append(f"{name}: value at {triple} must be an int or a "
                            f"Fraction, got {value!r}")
        elif value < 0:
            problems.append(f"{name}: negative value at {triple}")
    return ValidationReport(tuple(problems))


def pseudo_bids(excluded: OperatorId, bids: Profile
                ) -> Dict[Tuple[OperatorId, AircraftId, MenuKey], Fraction]:
    """Copy of `bids` with every entry of `excluded` (stay included) zeroed."""
    zero = Fraction(0)
    return {
        triple: (zero if triple[0] == excluded else value)
        for triple, value in bids.items()
    }


def initial_occupancy(instance: Instance, vertiport_id: VertiportId) -> int:
    """Number of aircraft whose origin is `vertiport_id`."""
    instance.vertiport(vertiport_id)
    return sum(
        1 for _, craft in instance.iter_aircraft() if craft.origin == vertiport_id
    )


def movements(instance: Instance, allocation: Allocation
              ) -> Tuple[Dict[Tuple[VertiportId, int], int],
                         Dict[Tuple[VertiportId, int], int]]:
    """Granted (arrivals, departures) per (vertiport, slot); stays move
    nothing.  Raises ValueError unless `allocation` assigns exactly the
    instance's aircraft, and KeyError for a key not on the menu."""
    arrivals: Dict[Tuple[VertiportId, int], int] = {}
    departures: Dict[Tuple[VertiportId, int], int] = {}
    walked = 0
    for operator, craft in instance.iter_aircraft():
        walked += 1
        if (operator.id, craft.id) not in allocation:
            raise ValueError(_NOT_CANONICAL)
        entry = craft.option(allocation[(operator.id, craft.id)])
        if entry.is_stay:
            continue
        slot = (entry.destination, entry.arrive_time)
        arrivals[slot] = arrivals.get(slot, 0) + 1
        slot = (craft.origin, entry.depart_time)
        departures[slot] = departures.get(slot, 0) + 1
    if len(allocation) != walked:
        raise ValueError(_NOT_CANONICAL)
    return arrivals, departures


def occupancy_table(instance: Instance, allocation: Allocation
                    ) -> Dict[Tuple[VertiportId, int], int]:
    """Occupancy at every (vertiport, slot)."""
    return _occupancy(instance, *movements(instance, allocation))


def _occupancy(instance: Instance, arrivals: Mapping[Tuple[VertiportId, int], int],
               departures: Mapping[Tuple[VertiportId, int], int]
               ) -> Dict[Tuple[VertiportId, int], int]:
    """Occupancy at every (vertiport, slot) under these movements."""
    table: Dict[Tuple[VertiportId, int], int] = {}
    for port in instance.vertiports:
        running = initial_occupancy(instance, port.id)
        for t in range(1, instance.horizon + 1):
            running += arrivals.get((port.id, t), 0)
            running -= departures.get((port.id, t), 0)
            table[(port.id, t)] = running
    return table


def is_feasible(instance: Instance, allocation: Allocation) -> FeasibilityReport:
    """Check the canonical allocation against arrival/departure/parking caps,
    every (C2) violation before any (C3) one, from one `movements` walk."""
    problems: List[str] = []
    arrivals, departures = movements(instance, allocation)
    for port in instance.vertiports:
        for t in range(1, instance.horizon + 1):
            if arrivals.get((port.id, t), 0) > port.arrival_cap[t - 1]:
                problems.append(f"(C2) arrival at ({port.id}, {t})")
            if departures.get((port.id, t), 0) > port.departure_cap[t - 1]:
                problems.append(f"(C2) departure at ({port.id}, {t})")
    table = _occupancy(instance, arrivals, departures)
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
    """Weighted granted values minus lambda-scaled congestion cost; the
    congestion term comes first, so `movements` checks `allocation`."""
    congestion = instance.congestion_ratio * congestion_total(instance, allocation)
    total = Fraction(0)
    for operator, craft in instance.iter_aircraft():
        key = allocation[(operator.id, craft.id)]
        total += operator.weight * values[(operator.id, craft.id, key)]
    return total - congestion


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
