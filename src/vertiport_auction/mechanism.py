"""The reservation auction: allocation rule, externality payments, outcome.

Each operator pays, scaled by its weight, the difference between the
best remaining welfare the others could achieve if that operator's bids
were zeroed out (its aircraft stay in the instance and can be relocated
for free, which is what makes the exchange setting priceable) and the
remaining welfare they actually get under the cleared allocation.

An auction compiles its instance's graph template once and prices the
clearing profile and every counterfactual profile on it (see
`graph.GraphTemplate`): |F|+1 pricings and solves, one compile.  Every
counterfactual's search starts its root from the cleared root's solved
state, not cold: only the zeroed operator's route costs differ, so the
flow kernel's repair of that start (see `flow`) leaves few imbalances
to route.  When zeroing the operator's bids leaves the gain unit as it
was, as it mostly does, every row but the zeroed operator's route rows
equals the cleared graph's, and the counterfactual gets the cleared
root as it is, so the kernel sets up and repairs only those route
edges; otherwise the root's potentials are converted to the new unit
and every edge is set up and repaired.
The search itself, and so every result, is that of a cold solve.

Bids are checked once, where they are read: `price_graph` raises
``invalid bids: ...`` for a profile that misses a menu entry, names an
unknown one or holds a negative bid, so the clearing pricing rejects
such a profile before any solve.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Tuple

from .graph import GraphTemplate, compile_template, price_graph
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


def pseudo_bids(excluded: OperatorId, bids: Profile) -> Dict[Tuple[str, str, int], Fraction]:
    """Copy of `bids` with every entry of `excluded` (stay included) zeroed."""
    zero = Fraction(0)
    return {
        triple: (zero if triple[0] == excluded else value)
        for triple, value in bids.items()
    }


def payment(template: GraphTemplate, bids: Profile, operator_id: OperatorId,
            cleared: SolveResult, strategy: str = "bnb",
            rule: str = RULE_EXTERNALITY) -> Fraction:
    """Externality charged to `operator_id` given the cleared solve, its
    counterfactual priced on the template of the auction's instance.

    The counterfactual's root starts from the cleared root (bnb; see
    `solve`): zeroing bids only drops weight denominators, so the
    counterfactual's gain unit S' * P divides the cleared one's, and
    mostly equals it."""
    instance = template.instance
    operator = instance.operator(operator_id)
    if rule == RULE_EXTERNALITY:
        counterfactual_bids = pseudo_bids(operator_id, bids)
    elif rule == RULE_NO_ZEROING:
        counterfactual_bids = dict(bids)
    else:
        raise ValueError(f"unknown payment rule {rule!r}")
    inner = solve(price_graph(template, counterfactual_bids), strategy=strategy,
                  start=cleared)
    # A solve's objective is its allocation's welfare under the bids it saw.
    inner_value = inner.objective - operator.weight * granted_value(
        instance, inner.allocation, counterfactual_bids, operator_id)
    actual = cleared.objective - operator.weight * granted_value(
        instance, cleared.allocation, bids, operator_id)
    return (inner_value - actual) / operator.weight


def run_auction(instance: Instance, bids: Profile, strategy: str = "bnb",
                rule: str = RULE_EXTERNALITY) -> MechanismOutcome:
    """Clear the auction and price every operator: one template, |F|+1
    pricings and solver runs.  Raises ValueError for an invalid instance
    (`compile_template`'s), then for invalid bids (`price_graph`'s)."""
    template = compile_template(instance)
    cleared = solve(price_graph(template, bids), strategy=strategy)
    payments = {
        operator.id: payment(template, bids, operator.id, cleared,
                             strategy=strategy, rule=rule)
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
