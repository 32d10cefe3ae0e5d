"""Command-line surface.

Subcommands: validate, solve, auction, oracle-check, gen, properties.
Exit codes: 0 success, 1 validation failure (of a document or of the
command line), 2 solver/oracle mismatch or property violation, 3 I/O
error, 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from typing import Optional

from . import __version__
from .generator import GeneratorConfig, generate
from .graph import build_graph
from .mechanism import (
    RULE_EXTERNALITY,
    RULE_NO_ZEROING,
    run_auction,
    sample_misreports,
)
from .model import (
    Allocation,
    Instance,
    Profile,
    utility,
    validate_instance,
    validate_profile,
)
from .oracle import (
    BudgetExceededError,
    EnumerationBudget,
    oracle_optimal,
    oracle_payment,
)
from .serialize import DocumentError, InstanceDocument, parse, render, render_rational
from .solver import solve

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MISMATCH = 2
EXIT_IO = 3
EXIT_BUDGET = 4


def _approx(value: Fraction) -> str:
    return f"{value} (~{float(value):.6f})"


def _print_allocation(instance: Instance, allocation: Allocation) -> None:
    """One line per aircraft: `stay` or `route k (depart->dest@arrive)`."""
    for (i, j), key in sorted(allocation.items()):
        entry = instance.operator(i).aircraft(j).option(key)
        label = "stay" if entry.is_stay else (
            f"route {key} ({entry.depart_time}->{entry.destination}"
            f"@{entry.arrive_time})")
        print(f"  {i}/{j}: {label}")


def _load(path: str) -> InstanceDocument:
    """The parsed document, validated; exits with the documented code if
    it cannot be read, parsed or validated."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SystemExit(_fail(EXIT_IO, f"cannot read {path}: {exc}"))
    except UnicodeDecodeError as exc:
        raise SystemExit(_fail(EXIT_INVALID, f"invalid document: $: not UTF-8 text: {exc}"))
    try:
        document = parse(text)
    except DocumentError as exc:
        raise SystemExit(_fail(EXIT_INVALID, f"invalid document: {exc}"))
    _validate(document)
    return document


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _validate(document: InstanceDocument) -> None:
    instance = document.instance
    reports = [validate_instance(instance)]
    for name, profile in (("bids", document.bids), ("valuations", document.valuations)):
        if profile is not None:
            reports.append(validate_profile(instance, profile, name))
    for report in reports:
        if not report.ok:
            for violation in report.violations:
                print(f"violation: {violation}", file=sys.stderr)
            raise SystemExit(EXIT_INVALID)


def _bids_or_fail(document: InstanceDocument) -> Profile:
    if document.bids is not None:
        return document.bids
    if document.valuations is not None:
        return document.valuations  # truthful by default
    raise SystemExit(_fail(EXIT_INVALID, "document has neither bids nor valuations"))


def cmd_validate(args: argparse.Namespace) -> int:
    document = _load(args.file)
    print("ok")
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    document = _load(args.file)
    bids = _bids_or_fail(document)
    result = solve(build_graph(document.instance, bids))
    if args.out == "json":
        payload = {
            "objective": render_rational(result.objective),
            "allocation": {
                f"{i}/{j}": key for (i, j), key in sorted(result.allocation.items())
            },
            "stats": asdict(result.stats),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"objective: {_approx(result.objective)}")
        _print_allocation(document.instance, result.allocation)
        print(f"stats: {result.stats.nodes_explored} nodes, "
              f"{result.stats.bound_solves} flow solves, "
              f"{result.stats.pruned_completion} ended by completion, "
              f"{result.stats.wall_time:.3f}s")
    return EXIT_OK


def cmd_auction(args: argparse.Namespace) -> int:
    document = _load(args.file)
    bids = _bids_or_fail(document)
    outcome = run_auction(document.instance, bids)
    print(f"cleared welfare: {_approx(outcome.cleared_welfare)}")
    _print_allocation(document.instance, outcome.allocation)
    for operator in document.instance.operators:
        line = f"payment {operator.id}: {_approx(outcome.payments[operator.id])}"
        if document.valuations is not None:
            line += (f"  utility: "
                     f"{_approx(utility(document.instance, outcome, operator.id, document.valuations))}")
        print(line)
    return EXIT_OK


def cmd_oracle_check(args: argparse.Namespace) -> int:
    try:
        budget = EnumerationBudget(args.budget)
    except ValueError as exc:
        return _fail(EXIT_INVALID, f"--budget {args.budget}: {exc}")
    document = _load(args.file)
    bids = _bids_or_fail(document)
    instance = document.instance
    _, oracle_welfare = oracle_optimal(instance, bids, budget)
    outcome = run_auction(instance, bids)
    ok = True
    if outcome.cleared_welfare != oracle_welfare:
        ok = False
        print(f"objective mismatch: solver {outcome.cleared_welfare} "
              f"!= oracle {oracle_welfare}")
    else:
        print(f"objective match: {_approx(outcome.cleared_welfare)}")
    for operator in instance.operators:
        expected = oracle_payment(instance, bids, operator.id, budget)
        actual = outcome.payments[operator.id]
        if actual != expected:
            ok = False
            print(f"payment mismatch for {operator.id}: mechanism {actual} "
                  f"!= oracle {expected}")
        else:
            print(f"payment match {operator.id}: {_approx(actual)}")
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_gen(args: argparse.Namespace) -> int:
    sizes = {}
    for name in ("vertiports", "operators", "horizon"):
        value = getattr(args, name)
        if value is None:
            continue
        if value < 1:
            return _fail(EXIT_INVALID, f"--{name} must be at least 1, got {value}")
        sizes[name] = (value, value)
    document = generate(GeneratorConfig(seed=args.seed, **sizes))
    text = render(document)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            return _fail(EXIT_IO, f"cannot write {args.out}: {exc}")
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_properties(args: argparse.Namespace) -> int:
    if args.misreports < 0:
        return _fail(EXIT_INVALID,
                     f"--misreports must be at least 0, got {args.misreports}")
    document = _load(args.file)
    if document.valuations is None:
        return _fail(EXIT_INVALID, "properties check needs a valuations section")
    instance = document.instance
    values = document.valuations
    rule = RULE_NO_ZEROING if args.mutated_payment else RULE_EXTERNALITY
    violations = 0

    truthful = run_auction(instance, values, rule=rule)
    truthful_utility = {operator.id: utility(instance, truthful, operator.id, values)
                        for operator in instance.operators}
    for operator_id, gain in truthful_utility.items():
        if gain < 0:
            violations += 1
            print(f"IR violation: operator {operator_id} has truthful utility {gain}")

    for operator in instance.operators:
        for misreport in sample_misreports(instance, values, operator.id,
                                           args.misreports, args.seed):
            outcome = run_auction(instance, misreport, rule=rule)
            lied_utility = utility(instance, outcome, operator.id, values)
            if lied_utility > truthful_utility[operator.id]:
                violations += 1
                print(f"IC violation: operator {operator.id} gains "
                      f"{lied_utility - truthful_utility[operator.id]} by misreporting")
    if violations:
        print(f"{violations} violation(s)")
        return EXIT_MISMATCH
    print("no IC/IR violations")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vertiport-auction",
        description="Incentive-compatible vertiport reservation auctions.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a document's invariants")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="welfare-maximizing allocation")
    p.add_argument("file")
    p.add_argument("--out", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("auction", help="allocation, payments and utilities")
    p.add_argument("file")
    p.set_defaults(func=cmd_auction)

    p = sub.add_parser("oracle-check",
                       help="compare solver and payments against brute force")
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=2_000_000)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("gen", help="generate a seeded random document")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vertiports", type=int)
    p.add_argument("--operators", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("properties", help="sampled IC/IR suite")
    p.add_argument("file")
    p.add_argument("--misreports", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mutated-payment", action="store_true",
                   help="negative control: use the broken no-zeroing rule")
    p.set_defaults(func=cmd_properties)

    return parser


def main(argv: Optional[list] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help and --version exit 0, usage errors 2
        if exc.code:
            return EXIT_INVALID
        raise
    try:
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_IO
    except BudgetExceededError as exc:
        return _fail(EXIT_BUDGET, f"budget exceeded: {exc}")


if __name__ == "__main__":
    sys.exit(main())
