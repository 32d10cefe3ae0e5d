"""The benchmark's three workloads: corpora, requests and output checks.

Each workload is a fixed corpus of generator seeds.  Every document is
made by ``generator.generate`` and handed to the program only as JSON
text from ``serialize.render``.  A request starts at ``serialize.parse``
and ends when the library returns; checking happens outside that window.

The library is always called through module attributes
(``serialize.parse``, ``model.validate_instance`` ...) so that the
traced run can wrap those attributes without editing ``src/``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Mapping, Optional, Tuple

from vertiport_auction import graph, mechanism, model, serialize, solver
from vertiport_auction.generator import GeneratorConfig, generate
from vertiport_auction.serialize import InstanceDocument

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Misreports drawn per operator on ic-sweep, and their seed: the shape
#: of acceptance criterion 4.
MISREPORTS_PER_OPERATOR = 20
MISREPORT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    config: GeneratorConfig  # seed is replaced per document
    seeds: Tuple[int, ...]
    kind: str  # "solve" or "auction"
    misreports: bool = False


WORKLOADS: Dict[str, Workload] = {
    # 9-10 aircraft: thousands of flow solves per built graph.
    "solve-large": Workload(
        name="solve-large",
        config=GeneratorConfig(vertiports=(3, 3), operators=(2, 2),
                               fleet_size=(4, 5), transit_routes=(2, 2),
                               horizon=(4, 4)),
        seeds=tuple(range(4)),
        kind="solve",
    ),
    # 3 operators x 2 aircraft: |F|+1 = 4 solves per auction.
    "auction-mid": Workload(
        name="auction-mid",
        config=GeneratorConfig(vertiports=(3, 3), operators=(3, 3),
                               fleet_size=(2, 2), transit_routes=(2, 2),
                               horizon=(4, 4)),
        seeds=tuple(range(8)),
        kind="auction",
    ),
    # The acceptance-corpus distribution: tiny graphs, many auctions.
    "ic-sweep": Workload(
        name="ic-sweep",
        config=GeneratorConfig(vertiports=(2, 3), operators=(2, 2),
                               fleet_size=(1, 2), transit_routes=(1, 2),
                               horizon=(3, 4)),
        seeds=tuple(range(6)),
        kind="auction",
        misreports=True,
    ),
}

#: Tiny document for warm-up: every layer runs once before timing.
WARMUP_CONFIG = GeneratorConfig(seed=7, vertiports=(2, 3), operators=(2, 2),
                                fleet_size=(1, 2), transit_routes=(1, 2),
                                horizon=(3, 4))


@dataclass(frozen=True)
class Request:
    """One closed-loop request: an id and the document text it parses.

    ``valuations`` are the true values behind the bids, used only by the
    IR/IC checks; ``liar`` names the operator whose bids are misreported.
    """

    rid: str
    text: str
    valuations: Optional[Mapping] = None
    liar: Optional[str] = None


@dataclass(frozen=True)
class Expected:
    """What a request's output is checked against."""

    output: dict  # committed reference output
    honest_utility: Optional[Fraction] = None  # liar's truthful utility


def build_requests(workload: Workload) -> List[List[Request]]:
    """Requests grouped by document, in corpus order."""
    groups = []
    for seed in workload.seeds:
        document = generate(replace(workload.config, seed=seed))
        rid = f"g{seed}"
        group = [Request(rid, serialize.render(document), document.valuations)]
        if workload.misreports:
            for operator in document.instance.operators:
                profiles = mechanism.sample_misreports(
                    document.instance, document.valuations, operator.id,
                    MISREPORTS_PER_OPERATOR, seed=MISREPORT_SEED)
                for index, profile in enumerate(profiles):
                    text = serialize.render(
                        InstanceDocument(document.instance, bids=profile))
                    group.append(Request(f"{rid}/{operator.id}/m{index}",
                                         text, document.valuations,
                                         operator.id))
        groups.append(group)
    return groups


def run_request(kind: str, text: str):
    """parse -> validate_instance -> solve(bnb) on the built graph, or
    run_auction (|F|+1 solves), by the workload's kind."""
    document = serialize.parse(text)
    report = model.validate_instance(document.instance)
    if not report.ok:
        raise ValueError(f"invalid instance: {report.violations}")
    if kind == "solve":
        return document, solver.solve(
            graph.build_graph(document.instance, document.bids), "bnb")
    return document, mechanism.run_auction(document.instance, document.bids)


def _rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def render_output(kind: str, document: InstanceDocument, result) -> dict:
    """Canonical, exactly comparable form of a request's output."""
    instance = document.instance
    allocation = {
        f"{operator.id}/{craft.id}": result.allocation[(operator.id, craft.id)]
        for operator, craft in instance.iter_aircraft()
    }
    if kind == "solve":
        return {"objective": _rational(result.objective),
                "allocation": allocation}
    return {
        "welfare": _rational(result.cleared_welfare),
        "allocation": allocation,
        "payments": {op: _rational(result.payments[op])
                     for op in sorted(result.payments)},
    }


def check(kind: str, request: Request, document: InstanceDocument, result,
          expected: Expected) -> List[str]:
    """Every problem with one request's output; empty when it is right.

    Exact comparison against the committed reference, feasibility, the
    objective against the welfare functional, and individual
    rationality (truthful auction) or incentive compatibility (misreport).
    """
    problems = []
    instance = document.instance
    if render_output(kind, document, result) != expected.output:
        problems.append("output differs from the committed reference")
    if not model.is_feasible(instance, result.allocation).feasible:
        problems.append("allocation infeasible")
    objective = result.objective if kind == "solve" else result.cleared_welfare
    if objective != model.social_welfare(instance, result.allocation,
                                         document.bids):
        problems.append("objective differs from social_welfare")
    if kind == "auction" and request.liar is None:
        for operator in instance.operators:
            if model.utility(instance, result, operator.id,
                             request.valuations) < 0:
                problems.append(f"IR violated for {operator.id}")
    if request.liar is not None:
        lied = model.utility(instance, result, request.liar, request.valuations)
        if lied > expected.honest_utility:
            problems.append(f"IC violated for {request.liar}")
    return problems


# --- committed reference --------------------------------------------------

class StaleReference(RuntimeError):
    """The generated inputs no longer match the committed reference."""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def reference_path(workload: Workload) -> Path:
    return REFERENCE_DIR / f"{workload.name}.json"


def _outcome(output: dict) -> SimpleNamespace:
    """A committed auction output in the shape ``model.utility`` reads."""
    allocation = {tuple(pair.split("/")): key
                  for pair, key in output["allocation"].items()}
    payments = {op: Fraction(v) for op, v in output["payments"].items()}
    return SimpleNamespace(allocation=allocation, payments=payments)


def expectations(workload: Workload, groups: List[List[Request]]
                 ) -> Dict[str, Expected]:
    """Reference outputs by request id, from the committed file.

    Raises StaleReference when a generated document differs from the one
    the reference was made from.
    """
    data = json.loads(reference_path(workload).read_text())
    inputs, outputs = data["inputs"], data["outputs"]
    found: Dict[str, Expected] = {}
    for group in groups:
        truthful = group[0]
        instance = serialize.parse(truthful.text).instance
        for request in group:
            if inputs.get(request.rid) != digest(request.text):
                raise StaleReference(f"{workload.name}: input {request.rid} "
                                     "differs from the committed reference")
            honest = None
            if request.liar is not None:
                honest = model.utility(
                    instance, _outcome(outputs[truthful.rid]),
                    request.liar, request.valuations)
            found[request.rid] = Expected(outputs[request.rid], honest)
    return found
