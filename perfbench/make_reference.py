"""Write the committed reference outputs, cross-checked by the oracle.

    python3 perfbench/make_reference.py [workload ...]

For every request of each workload's corpus this records a digest of the
input document and the exact output (objective or welfare, allocation,
payments).  Before anything is written, every output is compared with
the brute-force oracle: ``oracle_optimal`` for the objective and the
tie-broken allocation, ``oracle_payment`` for each payment.  Any
disagreement, or an instance beyond the oracle's enumeration budget,
stops the script with a non-zero exit and writes nothing.

Run it only when the corpus or the library's documented outputs change
on purpose; the benchmark refuses a stale reference.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from vertiport_auction import oracle  # noqa: E402


def oracle_problems(kind: str, document, result) -> list:
    """Where the library's output disagrees with exhaustive enumeration."""
    instance, bids = document.instance, document.bids
    allocation, welfare = oracle.oracle_optimal(instance, bids)
    objective = result.objective if kind == "solve" else result.cleared_welfare
    problems = []
    if objective != welfare:
        problems.append(f"objective {objective} != oracle {welfare}")
    if dict(result.allocation) != allocation:
        problems.append("allocation differs from the oracle's")
    if kind == "auction":
        for operator in instance.operators:
            expected = oracle.oracle_payment(instance, bids, operator.id)
            if result.payments[operator.id] != expected:
                problems.append(f"payment of {operator.id} "
                                f"{result.payments[operator.id]} != {expected}")
    return problems


def make(workload: workloads.Workload) -> dict:
    inputs, outputs = {}, {}
    began = time.perf_counter()
    for group in workloads.build_requests(workload):
        for request in group:
            document, result = workloads.run_request(workload.kind,
                                                     request.text)
            problems = oracle_problems(workload.kind, document, result)
            if problems:
                sys.exit(f"{workload.name} {request.rid}: {'; '.join(problems)}")
            inputs[request.rid] = workloads.digest(request.text)
            outputs[request.rid] = workloads.render_output(
                workload.kind, document, result)
    print(f"{workload.name}: {len(outputs)} outputs agree with the oracle "
          f"({time.perf_counter() - began:.1f} s)")
    return {
        "workload": workload.name,
        "oracle_checked": len(outputs),
        "inputs": inputs,
        "outputs": outputs,
    }


def main(names) -> int:
    for name in names or sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        data = make(workload)
        path = workloads.reference_path(workload)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
