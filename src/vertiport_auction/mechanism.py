"""The reservation auction: allocation rule, externality payments, outcome.

Each operator pays, scaled by its weight, the difference between the
best remaining welfare the others could achieve if that operator's bids
were zeroed out (its aircraft stay in the instance and can be relocated
for free, which is what makes the exchange setting priceable) and the
remaining welfare they actually get under the cleared allocation.

An auction compiles its instance's graph template and prices the
clearing profile on it once: one compile, one pricing, |F|+1 solves.
Each counterfactual is derived from the clearing graph at its gain unit
(`graph.counterfactual_graph`), so every row but the zeroed operator's
route rows is the clearing graph's own, and its search starts its root
from the cleared root's solved state as it is, not cold: the flow
kernel (see `flow`) sets up and repairs only those route edges, which
leaves few imbalances to route.  The search itself, and so every
result, is that of a cold solve of a fresh build of the pseudo-bids.

Bids are checked once, where they are read: `price_graph` raises
``invalid bids: ...`` for a profile that misses a menu entry, names an
unknown one, or holds a negative bid or one that is not an `int` or a
`Fraction`, so the clearing pricing rejects such a profile before any
solve.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Tuple

from .graph import AuxGraph, compile_template, counterfactual_graph, price_graph
# Not called here, but kept module globals: perfbench/tracing.py wraps
# mechanism.build_graph, mechanism.validate_instance and
# mechanism.validate_profile by name.
from .graph import build_graph  # noqa: F401
from .model import validate_instance, validate_profile  # noqa: F401
from .model import Allocation, Instance, OperatorId, Profile, granted_value
from .solver import SolveResult, solve

#: Correct payment rule.
RULE_EXTERNALITY = "externality"
#: Deliberately broken rule that skips the pseudo-bid zeroing.  Kept as a
#: negative control: the incentive-compatibility suite must reject it.
RULE_NO_ZEROING = "no-zeroing"


@dataclass(frozen=True)
class MechanismOutcome:
    allocation: Allocation
    payments: Mapping[OperatorId, Fraction]
    cleared_welfare: Fraction


def payment(clearing: AuxGraph, operator_id: OperatorId, cleared: SolveResult,
            rule: str = RULE_EXTERNALITY) -> Fraction:
    """Externality charged to `operator_id` given `cleared`, the solve of
    the clearing graph `clearing`.  The counterfactual is derived from
    `clearing` (`graph.counterfactual_graph`), or is `clearing` itself
    under `RULE_NO_ZEROING`; its solve starts from `cleared` (see
    `solve`), whose gain unit it shares."""
    instance = clearing.instance
    operator = instance.operator(operator_id)
    if rule == RULE_EXTERNALITY:
        counterfactual = counterfactual_graph(clearing, operator_id)
    elif rule == RULE_NO_ZEROING:
        counterfactual = clearing
    else:
        raise ValueError(f"unknown payment rule {rule!r}")
    inner = solve(counterfactual, start=cleared)
    # A solve's objective is its allocation's welfare under the bids it saw.
    inner_value = inner.objective - operator.weight * granted_value(
        instance, inner.allocation, counterfactual.bids, operator_id)
    actual = cleared.objective - operator.weight * granted_value(
        instance, cleared.allocation, clearing.bids, operator_id)
    return (inner_value - actual) / operator.weight


def run_auction(instance: Instance, bids: Profile,
                rule: str = RULE_EXTERNALITY) -> MechanismOutcome:
    """Clear the auction and price every operator: one template, one
    pricing, |F|+1 solver runs.  Raises ValueError for an invalid
    instance (`compile_template`'s), then for invalid bids
    (`price_graph`'s)."""
    clearing = price_graph(compile_template(instance), bids)
    cleared = solve(clearing)
    payments = {
        operator.id: payment(clearing, operator.id, cleared, rule=rule)
        for operator in instance.operators
    }
    return MechanismOutcome(
        allocation=cleared.allocation,
        payments=payments,
        cleared_welfare=cleared.objective,
    )


def sample_misreports(instance: Instance, bids: Profile, operator_id: OperatorId,
                      count: int, seed: int) -> List[Dict[Tuple[str, str, int], Fraction]]:
    """Seeded misreport profiles for one operator, others untouched.

    The first two are the adversarial classics (zero everything, double
    everything); the rest mix per-entry scaling by {0, 1/2, 1, 2} with
    small rational shifts, clamped at zero.
    """
    rng = random.Random(f"{seed}:{operator_id}")
    own_triples = [triple for triple in sorted(bids) if triple[0] == operator_id]
    misreports: List[Dict[Tuple[str, str, int], Fraction]] = []
    for index in range(count):
        profile = dict(bids)
        if index == 0:
            for triple in own_triples:
                profile[triple] = Fraction(0)
        elif index == 1:
            for triple in own_triples:
                profile[triple] = 2 * profile[triple]
        else:
            for triple in own_triples:
                factor = rng.choice(
                    [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
                )
                shift = Fraction(rng.randint(-3, 3), 7)
                profile[triple] = max(Fraction(0), factor * profile[triple] + shift)
        misreports.append(profile)
    return misreports
