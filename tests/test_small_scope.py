"""Small-scope exhaustive check: on every instance of a bounded scope, the
solver's two strategies agree with the brute-force oracle on allocation
and objective, and the auction charges every operator the oracle's
payment.

The generator corpora and the Hypothesis strategy sample the input
space; this covers one corner of it completely (the small-scope
hypothesis: Jackson, *Software Abstractions*, 2006).  The scope:

- horizon 1 or 2; one vertiport (v1) or two (v1, v2); lambda 0 or 1,
  every congestion row q(q+1)/2 (0, 1, 3), operator weights 1 (a
  second pass gives op2 weight 1/2 on the two-operator instances);
- no aircraft, one, two of one operator, or one each of two operators;
- each aircraft has a stay (menu key 0) and, at horizon 2, at most one
  route, departing at slot 1 and arriving at slot 2: with one
  vertiport, back to v1, stay and route bids in {0, 1}; with two, to
  the other vertiport, stay bid 0 and route bid in {0, 1}, the first
  aircraft based at v1 (swapping the vertiports maps the rest onto it);
- caps in {0, 1, 2}, counted up to equivalence: a vertiport's departure
  cap at slot 1 runs over 0 .. min(2, aircraft that can leave it), its
  arrival cap at slot 2 over 0 .. min(2, routes that reach it), and, if
  a route reaches it, its parking cap at slot 2 over its initial
  occupancy .. 2 (the least the slack condition allows); every other
  cap is 2.  A gate cap above what its users can fill, a gate no route
  uses (the graph lays out no gate there) and parking at slot 1 or where
  nothing arrives (occupancy there never exceeds the initial one)
  change no feasible set and no welfare.
"""

import itertools
from dataclasses import replace
from fractions import Fraction

from conftest import assert_matches_oracle, checked_solves, fraction_rows, stay, transit
from vertiport_auction.graph import build_graph
from vertiport_auction.model import (
    Aircraft,
    Instance,
    Operator,
    Vertiport,
    pseudo_bids,
    validate_instance,
)

#: Instances in the scope; a change to the scope changes this count.
SCOPE_SIZE = 2788
CONGESTION = tuple(Fraction(q * (q + 1), 2) for q in range(3))


def _aircraft_choices(horizon, ports, first):
    """(origin, route destination or None, stay bid, route bid) of one
    aircraft; `first` pins a two-vertiport fleet's first aircraft to v1."""
    origins = ports[:1] if first and len(ports) == 2 else ports
    for origin in origins:
        stay_bids = (0, 1) if len(ports) == 1 else (0,)
        for stay_bid in stay_bids:
            yield origin, None, stay_bid, None
        if horizon == 2:
            (destination,) = [p for p in ports if p != origin] or ports
            for stay_bid, route_bid in itertools.product(stay_bids, (0, 1)):
                yield origin, destination, stay_bid, route_bid


def _fleets(horizon, ports):
    """Each fleet as ((operator id, aircraft choice), ...)."""
    yield ()
    for first in _aircraft_choices(horizon, ports, True):
        yield (("op1", first),)
        for second in _aircraft_choices(horizon, ports, False):
            yield ("op1", first), ("op1", second)
            yield ("op1", first), ("op2", second)


def _caps(horizon, ports, fleet):
    """Every cap assignment of the scope for `fleet`, as {(port, kind):
    per-slot caps}."""
    choices = {}
    for port in ports:
        based = sum(origin == port for _, (origin, *_) in fleet)
        leaving = sum(origin == port and to is not None
                      for _, (origin, to, *_) in fleet)
        arriving = sum(to == port for _, (_, to, *_) in fleet)
        departure = range(min(2, leaving) + 1) if leaving else (2,)
        arrival = range(min(2, arriving) + 1) if arriving else (2,)
        parking = range(based, 3) if arriving else (2,)
        choices[port, "departure"] = [(c, 2)[:horizon] for c in departure]
        choices[port, "arrival"] = [(2, c)[-horizon:] for c in arrival]
        choices[port, "parking"] = [(2, c)[-horizon:] for c in parking]
    keys = list(choices)
    for combo in itertools.product(*(choices[key] for key in keys)):
        yield dict(zip(keys, combo))


def small_scope():
    """Every (instance, bids) of the scope, in a fixed order."""
    for horizon, ports, lam in itertools.product(
            (1, 2), (("v1",), ("v1", "v2")), (0, 1)):
        for fleet in _fleets(horizon, ports):
            for caps in _caps(horizon, ports, fleet):
                yield _instance(horizon, ports, lam, fleet, caps)


def _instance(horizon, ports, lam, fleet, caps):
    vertiports = tuple(
        Vertiport(port, caps[port, "arrival"], caps[port, "departure"],
                  caps[port, "parking"],
                  fraction_rows(CONGESTION[:cap + 1] for cap in caps[port, "parking"]))
        for port in ports)
    crafts, bids = {}, {}
    for index, (operator_id, (origin, to, stay_bid, route_bid)) in enumerate(fleet):
        craft_id = f"a{index}"
        menu = [stay(origin=origin)]
        bids[operator_id, craft_id, 0] = Fraction(stay_bid)
        if to is not None:
            menu.append(transit(1, 1, to, 2))
            bids[operator_id, craft_id, 1] = Fraction(route_bid)
        crafts.setdefault(operator_id, []).append(Aircraft(craft_id, origin, tuple(menu)))
    operators = tuple(Operator(operator_id, Fraction(1), tuple(fleet_of))
                      for operator_id, fleet_of in crafts.items())
    return Instance(horizon, Fraction(lam), vertiports, operators), bids


def test_every_instance_of_the_small_scope_matches_the_oracle():
    """Every flow solve on the way, each node of both strategies and of
    the auction, is certified and carries its own residual form and gain
    (`checked_solves`)."""
    count = 0
    with checked_solves() as checked:
        for instance, bids in small_scope():
            assert validate_instance(instance).ok
            assert_matches_oracle(instance, bids)
            count += 1
    print(f"small scope: {count} instances agree with the oracle, "
          f"{len(checked)} flow solves checked")
    assert count == SCOPE_SIZE
    assert len(checked) > 3 * SCOPE_SIZE


def test_two_operator_instances_with_a_half_weight_match_the_oracle():
    """Every two-operator instance of the scope (1,328 of the 2,788) with
    op2's weight set to 1/2.  In 580 of them a fresh build of op2's
    pseudo-bids has a smaller gain unit than the clearing graph; the
    auction's counterfactual keeps the clearing unit, a common multiple
    of the smaller one's S, and must still pay what the oracle does.
    Every flow solve is checked as in the whole scope (`checked_solves`)."""
    count = rescaled = 0
    with checked_solves() as checked:
        for instance, bids in small_scope():
            if len(instance.operators) < 2:
                continue
            op1, op2 = instance.operators
            instance = replace(instance, operators=(op1, replace(op2, weight=Fraction(1, 2))))
            assert_matches_oracle(instance, bids)
            rescaled += (build_graph(instance, pseudo_bids("op2", bids)).unit
                         != build_graph(instance, bids).unit)
            count += 1
    assert (count, rescaled) == (1328, 580)
    assert len(checked) > 3 * count
