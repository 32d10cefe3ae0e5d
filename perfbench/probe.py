"""Host-speed probe: a fixed piece of work, timed on request.

    python3 perfbench/probe.py

``run.py`` starts this as a child process and blocks while it probes:
for every line read from standard input it does the work once and
prints the seconds it took.  It stops at the end of its input.

The work never touches the library, so its time moves only with the
speed of the host, which on a shared machine drifts by tens of percent
over minutes.  It mixes the two kinds of work a request does: pointer
chasing through memory far larger than the CPU caches, and
``networkx.network_simplex`` on a small fixed graph built the way the
solver builds its flow graphs.  On its own, either kind tracked the
requests' drift worse than the mix did.  It runs in its own process so
that its 32 MB array does not count in the benchmark's ``peak_rss_mb``.
"""

from __future__ import annotations

import random
import sys
import time
from array import array

import networkx as nx

CHAIN_BITS = 22  # 4M entries, 32 MB
CHAIN_STEPS = 45_000
FLOW_SOLVES = 3  # about half the probe's time
FLOW_NODES, FLOW_EDGES = 40, 126  # the size of a solve-large flow graph


def make_chain() -> array:
    """``chain[j]`` is the next index of one cycle through every index.

    ``j -> (a*j + c) mod 2**k`` with ``c`` odd and ``a - 1`` divisible
    by 4 visits every index once (Hull-Dobell), in an order that jumps
    far each step, so nearly every step misses the caches.
    """
    mask = (1 << CHAIN_BITS) - 1
    return array("q", ((1103515245 * j + 12345) & mask
                       for j in range(1 << CHAIN_BITS)))


def make_edges() -> list:
    rng = random.Random(1)
    return [(*rng.sample(range(FLOW_NODES), 2), rng.randint(1, 3),
             rng.randint(-50, 50)) for _ in range(FLOW_EDGES)]


def probe(chain: array, edges: list) -> None:
    j = 0
    for _ in range(CHAIN_STEPS):
        j = chain[j]
    for _ in range(FLOW_SOLVES):
        g = nx.MultiDiGraph()
        for v in range(FLOW_NODES):
            g.add_node(v, demand=0)
        g.nodes[0]["demand"], g.nodes[FLOW_NODES - 1]["demand"] = -3, 3
        for key, (tail, head, capacity, weight) in enumerate(edges):
            g.add_edge(tail, head, key=key, capacity=capacity, weight=weight)
        nx.network_simplex(g)


def main() -> int:
    chain, edges = make_chain(), make_edges()
    probe(chain, edges)  # warm-up
    for _ in sys.stdin:
        began = time.perf_counter()
        probe(chain, edges)
        print(time.perf_counter() - began, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
