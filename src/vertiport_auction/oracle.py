"""Brute-force reference implementation.

Enumerates the feasible set outright and maximizes welfare by
exhaustion.  Deliberately shares nothing with the flow-graph or solver
modules beyond the domain types and the social-welfare evaluation: its
feasibility check re-derives the occupancy timeline from scratch, so it
can serve as an independent ground truth for the optimizer and the
payment rule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, Optional, Tuple

from .model import (
    Allocation,
    Instance,
    OperatorId,
    Profile,
    social_welfare,
)


@dataclass(frozen=True)
class EnumerationBudget:
    """Cap on the candidate space (product of menu sizes)."""

    max_allocations: int = 2_000_000

    def __post_init__(self) -> None:
        if self.max_allocations <= 0:
            raise ValueError("budget must be positive")


class BudgetExceededError(RuntimeError):
    pass


def candidate_count(instance: Instance) -> int:
    count = 1
    for _, craft in instance.iter_aircraft():
        count *= len(craft.menu)
    return count


def _check_budget(instance: Instance, budget: EnumerationBudget) -> None:
    count = candidate_count(instance)
    if count > budget.max_allocations:
        raise BudgetExceededError(
            f"candidate space {count} exceeds budget {budget.max_allocations}"
        )


def _brute_feasible(instance: Instance, allocation: Allocation) -> bool:
    """First-principles (C1)-(C3) check via a simulated timeline."""
    h = instance.horizon
    arrivals: Dict[Tuple[str, int], int] = {}
    departures: Dict[Tuple[str, int], int] = {}
    occupancy: Dict[str, int] = {port.id: 0 for port in instance.vertiports}
    moves = []
    for operator, craft in instance.iter_aircraft():
        occupancy[craft.origin] += 1
        entry = craft.option(allocation[(operator.id, craft.id)])
        if not entry.is_stay:
            moves.append((craft.origin, entry.depart_time,
                          entry.destination, entry.arrive_time))
    for origin, d, destination, a in moves:
        departures[(origin, d)] = departures.get((origin, d), 0) + 1
        arrivals[(destination, a)] = arrivals.get((destination, a), 0) + 1
    for port in instance.vertiports:
        for t in range(1, h + 1):
            if arrivals.get((port.id, t), 0) > port.arrival_cap[t - 1]:
                return False
            if departures.get((port.id, t), 0) > port.departure_cap[t - 1]:
                return False
    # Timeline: a departure at slot tau frees its spot from slot tau, an
    # arrival at slot t fills one from slot t.
    for t in range(1, h + 1):
        for port in instance.vertiports:
            occupancy[port.id] += arrivals.get((port.id, t), 0)
            occupancy[port.id] -= departures.get((port.id, t), 0)
            if occupancy[port.id] > port.parking_cap[t - 1]:
                return False
    return True


def enumerate_feasible(instance: Instance,
                       budget: EnumerationBudget = EnumerationBudget()
                       ) -> Iterator[Allocation]:
    """All feasible canonical allocations, lexicographic in menu keys."""
    _check_budget(instance, budget)
    pairs = [(op.id, craft.id) for op, craft in instance.iter_aircraft()]
    menus = [
        [entry.key for entry in craft.menu]
        for _, craft in instance.iter_aircraft()
    ]
    for combo in itertools.product(*menus):
        allocation = dict(zip(pairs, combo))
        if _brute_feasible(instance, allocation):
            yield allocation


def _tie_key(instance: Instance, allocation: Allocation
             ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(departure-time vector, menu-key vector) in canonical aircraft
    order; matches the solver's documented tie-break.
    """
    taus = []
    keys = []
    for operator, craft in instance.iter_aircraft():
        key = allocation[(operator.id, craft.id)]
        taus.append(craft.option(key).depart_time)
        keys.append(key)
    return tuple(taus), tuple(keys)


def oracle_optimal(instance: Instance, bids: Profile,
                   budget: EnumerationBudget = EnumerationBudget()
                   ) -> Tuple[Allocation, Fraction]:
    """Exhaustive welfare argmax with the solver's tie-break."""
    best_allocation: Optional[Allocation] = None
    best_welfare: Optional[Fraction] = None
    best_key = None
    for allocation in enumerate_feasible(instance, budget):
        welfare = social_welfare(instance, allocation, bids)
        key = _tie_key(instance, allocation)
        if (best_welfare is None or welfare > best_welfare
                or (welfare == best_welfare and key < best_key)):
            best_allocation = allocation
            best_welfare = welfare
            best_key = key
    if best_allocation is None:
        raise RuntimeError("no feasible allocation (invalid instance?)")
    return best_allocation, best_welfare


def _remaining(instance: Instance, allocation: Allocation, bids: Profile,
               operator_id: OperatorId) -> Fraction:
    """Remaining welfare, recomputed here from the welfare functional."""
    own = Fraction(0)
    operator = instance.operator(operator_id)
    for craft in operator.fleet:
        key = allocation[(operator_id, craft.id)]
        own += operator.weight * bids[(operator_id, craft.id, key)]
    return social_welfare(instance, allocation, bids) - own


def oracle_payment(instance: Instance, bids: Profile, operator_id: OperatorId,
                   budget: EnumerationBudget = EnumerationBudget()) -> Fraction:
    """Externality payment computed entirely by exhaustion."""
    operator = instance.operator(operator_id)
    zeroed = {
        triple: (Fraction(0) if triple[0] == operator_id else value)
        for triple, value in bids.items()
    }
    inner_best: Optional[Fraction] = None
    for allocation in enumerate_feasible(instance, budget):
        value = _remaining(instance, allocation, zeroed, operator_id)
        if inner_best is None or value > inner_best:
            inner_best = value
    cleared, _ = oracle_optimal(instance, bids, budget)
    actual = _remaining(instance, cleared, bids, operator_id)
    return (inner_best - actual) / operator.weight
