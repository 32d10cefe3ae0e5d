"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ic-sweep --seed 0 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``.
Requests run in one process and one thread, as a closed loop: the next
request is issued when the previous one returns.

The run is made of whole passes over the workload's fixed corpus, each
pass in an order drawn from ``--seed``; passes are added while one more
ends the run nearer to ``--seconds`` than stopping.  Whole passes make
every run do the same work, so runs with different seeds are comparable.

Set-up is importing the library, generating and rendering the corpus,
loading the committed reference and one warm-up request.  It is timed
cold, from before the library is imported, ``COLD_SETUPS`` times in
fresh child processes started with ``--setup-only``, one after the
other; ``setup_s`` is the median.

Times are reported at a fixed reference host speed.  The host's speed
drifts by tens of percent over minutes, more than a program change a
benchmark must resolve, so a fixed probe (``probe.py``, in a child
process) is timed between requests, once per ``PROBE_EVERY_S`` seconds
of request time, and around every cold set-up.  Each request's latency
and each set-up time is divided by the host's slowdown at that moment:
the median of the ``PROBE_NEAREST`` probes nearest to it in time, over
``PROBE_REFERENCE_S``.  The measured values are on the diagnostics line.
The run and its child processes are pinned to one CPU, so that the
probe measures the CPU the requests run on: on a shared host the
CPUs' speeds drift apart.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics from the
traced ones, plus the tracing overhead between the two; its spans are
written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds diagnostics that are not metrics.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # before the library is imported

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
COLD_SETUPS = 5
DRIFT_TERMS = 40_000
PROBE_EVERY_S = 1.0
PROBE_NEAREST = 15
#: Median probe seconds on the host the benchmark was defined on (2
#: vCPUs of a shared Intel Xeon virtual machine, Python 3.11.7).  It
#: fixes the unit of every reported time; changing it rescales them all.
PROBE_REFERENCE_S = 0.0295

sys.path.insert(0, str(SRC))
import vertiport_auction  # noqa: E402

if Path(vertiport_auction.__file__).resolve().parent.parent != SRC:
    sys.exit(f"vertiport_auction was not imported from {SRC}")

import tracing  # noqa: E402
import workloads  # noqa: E402
from vertiport_auction import generator, serialize  # noqa: E402


def drift_probe() -> float:
    """Seconds for a fixed pure-Python Fraction loop: host speed, not code."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, DRIFT_TERMS + 1):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


class HostProbe:
    """The probe child process and the probe times it reported.

    Nothing else runs while it probes.
    """

    def __init__(self):
        self.child = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.samples = []  # (perf_counter when taken, probe seconds)
        self.owed = 0.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.child.stdin.close()  # the child stops at the end of its input
        try:
            self.child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.child.kill()
            self.child.wait()
        self.child.stdout.close()

    def run(self) -> None:
        taken = time.perf_counter()
        self.child.stdin.write("\n")
        self.child.stdin.flush()
        line = self.child.stdout.readline()
        if not line:
            sys.exit("host probe exited early")
        self.samples.append((taken, float(line)))

    def after(self, request_seconds: float) -> None:
        """Probe once per ``PROBE_EVERY_S`` of request time."""
        self.owed += request_seconds
        while self.owed >= PROBE_EVERY_S:
            self.owed -= PROBE_EVERY_S
            self.run()

    def slowdown(self, at: float) -> float:
        """The host's slowdown against the reference around time ``at``."""
        nearest = sorted(self.samples, key=lambda s: abs(s[0] - at))
        return (statistics.median(s for _, s in nearest[:PROBE_NEAREST])
                / PROBE_REFERENCE_S)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the cold set-up seconds")
    return parser.parse_args(argv)


class Loop:
    """The closed loop over one workload's corpus, with its tallies."""

    def __init__(self, workload, seed, tracer):
        self.workload = workload
        self.probe = None  # the HostProbe, while the run is measured
        self.warmup_text = serialize.render(
            generator.generate(workloads.WARMUP_CONFIG))
        self.groups = self.expected = None
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.latencies = {False: [], True: []}  # seconds, by traced
        self.midpoints = {False: [], True: []}  # perf_counter, by traced
        self.attempted = 0
        self.failed = 0
        self.problems = []  # (request id or "trace", [problem, ...])

    def set_up(self) -> None:
        """Build the corpus, load its reference, warm up."""
        self.groups = workloads.build_requests(self.workload)
        self.expected = workloads.expectations(self.workload, self.groups)
        workloads.run_request(self.workload.kind, self.warmup_text)

    def run_pass(self, traced: bool) -> None:
        kind = self.workload.kind
        order = list(range(len(self.groups)))
        self.rng.shuffle(order)
        for index in order:
            for request in self.groups[index]:
                self.attempted += 1
                began = time.perf_counter()
                try:
                    if traced:
                        with self.tracer.request(request.rid) as root:
                            document, result = workloads.run_request(
                                kind, request.text)
                        latency = time.perf_counter() - began
                        root[tracing.A] = latency
                    else:
                        document, result = workloads.run_request(
                            kind, request.text)
                        latency = time.perf_counter() - began
                    self.latencies[traced].append(latency)
                    self.midpoints[traced].append(began + latency / 2)
                    self.probe.after(latency)
                    problems = workloads.check(
                        kind, request, document, result,
                        self.expected[request.rid])
                except Exception as exc:  # a failed request, not a crash
                    problems = [f"{type(exc).__name__}: {exc}"]
                if problems:
                    self.failed += 1
                    self.problems.append((request.rid, problems))


def per_layer(tracer, loop, diagnostics) -> dict:
    """Per-layer metrics from the traced passes; checks exact work counts."""
    try:
        records = tracing.per_request(tracer.spans)
    except tracing.AccountingError as exc:
        loop.problems.append(("trace", [str(exc)]))
        return {}
    counts = {}
    for record in records:
        work = tracing.work_counts(record)
        if counts.setdefault(record["rid"], work) != work:
            loop.problems.append(("trace", [f"{record['rid']}: work counts "
                                            "differ between passes"]))
    diagnostics["work_digest"] = hashlib.sha256(
        repr(sorted(counts.items())).encode()).hexdigest()[:16]
    solves = sum(r[f"calls.{tracing.SOLVE}"] for r in records)
    flows = sum(r[f"calls.{kind}"] for r in records
                for kind in (tracing.LEAF, tracing.PIN, tracing.BOUND))
    reported = sum(r["stats_fixed_delta_solves"] for r in records)
    diagnostics["flow_solves_missing_from_stats_per_solve"] = (
        (flows - reported) / solves if solves else 0.0)
    metrics = tracing.layer_metrics(records)
    traced, untraced = loop.latencies[True], loop.latencies[False]
    overhead = (statistics.fmean(traced) / statistics.fmean(untraced) - 1
                if traced and untraced else 0.0)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def cold_setups(args, probe) -> list:
    """(seconds, perf_counter midpoint) of each cold set-up, each in a
    fresh child process, with a probe before and after each."""
    setups = []
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-only"]
    for _ in range(COLD_SETUPS):
        probe.run()
        began = time.perf_counter()
        child = subprocess.run(command, capture_output=True, text=True,
                               timeout=120)
        if child.returncode != 0:
            sys.exit(f"cold set-up failed: {child.stderr.strip()}")
        setups.append((float(child.stdout.strip().splitlines()[-1]),
                       (began + time.perf_counter()) / 2))
    probe.run()
    return setups


def write_spans(spans, workload: str, seed: int) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    if not args.setup_only:  # set-up children inherit the parent's CPU
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tracer = tracing.Tracer()
    loop = Loop(workload, args.seed, tracer)
    try:
        loop.set_up()
    except (OSError, workloads.StaleReference) as exc:
        sys.exit(f"reference unusable: {exc}")
    own_setup = time.perf_counter() - STARTED
    if args.setup_only:
        print(own_setup)
        return 0
    with HostProbe() as loop.probe:
        setups = ([(own_setup, None)] if args.trace
                  else cold_setups(args, loop.probe))
        return timed_run(args, loop, tracer, setups)


def timed_run(args, loop, tracer, setups) -> int:
    workload = loop.workload
    probe = loop.probe
    probe.run()
    drift_start = drift_probe()

    # A run keeps adding passes while one more would end it nearer to
    # --seconds than stopping now.
    passes = 0
    began = time.perf_counter()
    while True:
        loop.run_pass(traced=False)
        if args.trace:
            with tracer.installed():
                loop.run_pass(traced=True)
        passes += 1
        elapsed = time.perf_counter() - began
        if elapsed + elapsed / passes / 2 >= args.seconds:
            break
    drift_end = drift_probe()

    untraced = loop.latencies[False]
    probes = [seconds for _, seconds in probe.samples]
    scaled = [latency / probe.slowdown(at) for latency, at
              in zip(untraced, loop.midpoints[False])]
    rps = len(untraced) / sum(untraced)
    p50_ms = statistics.median(untraced) * 1000
    setup_s = statistics.median(seconds for seconds, _ in setups)
    diagnostics = {
        "workload": workload.name,
        "seed": args.seed,
        "passes_untraced": passes,
        "passes_traced": passes if args.trace else 0,
        "requests_per_pass": sum(len(g) for g in loop.groups),
        "wall_s": elapsed,
        "drift_probe_start_s": drift_start,
        "drift_probe_end_s": drift_end,
        "failed_ratio": loop.failed / loop.attempted,
        "setup_cold_s": [seconds for seconds, _ in setups],
        "host_probes": len(probes),
        "host_probe_quartiles_s": statistics.quantiles(probes, n=4),
        "host_slowdown": statistics.median(probes) / PROBE_REFERENCE_S,
        "measured": {"requests_per_s": rps, "latency_p50_ms": p50_ms,
                     "setup_s": setup_s},
    }
    if len(untraced) >= 100:
        diagnostics["latency_p90_ms"] = (
            statistics.quantiles(untraced, n=10)[8] * 1000)
    if args.trace:
        metrics = per_layer(tracer, loop, diagnostics)
        write_spans(tracer.spans, workload.name, args.seed)
    else:
        metrics = {
            "requests_per_s": (len(scaled) / sum(scaled), "1/s"),
            "latency_p50_ms": (statistics.median(scaled) * 1000, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
            "setup_s": (statistics.median(seconds / probe.slowdown(at)
                                          for seconds, at in setups), "s"),
        }

    for rid, problems in loop.problems[:20]:
        print(f"FAILED {rid}: {'; '.join(problems)}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:16.6f} {unit}")
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({
        "correct": not loop.problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
