"""Host-speed probe: fixed pure-Python work that uses no gaslab code.

The benchmark host is a few vCPUs of a shared machine. Its speed for
pure-Python work flips between two levels 1.6-1.9x apart, often within
tens of milliseconds, and the share of time spent at each level drifts
over minutes; the cause is outside the guest (presumably other work on
the same physical core). CPU time reads the same as wall time, so this
is not steal time, and a timed block loop measures the flips as much as
the program: on a 2-vCPU Xeon host, the quartiles of 10 runs of
`compute` spread by 0.14-0.20 of their median in blocks/s.

So the untraced repeats run this probe after a block ends, once every
`EVERY_NS` of loop time, and scale each block by the host's speed at
that moment: a block's adjusted time is its measured time x
`NOMINAL_NS` / the mean time of the probes just before and just after
it. A block of 2 ms or more has a probe on each side of its own; shorter
blocks share them. The probe calls nothing in gaslab: a change to the
program moves the adjusted figures and leaves the probe alone.
"""

from __future__ import annotations

import time
from bisect import bisect_right

M64 = (1 << 64) - 1
ROUNDS = 1_000
# A fixed scale, near the probe's median time on a 2-vCPU Xeon host
# (CPython 3.11), so adjusted figures are near the raw ones there.
NOMINAL_NS = 600_000
# Loop time after a probe before the next one.
EVERY_NS = 2_000_000


def probe_ns() -> int:
    """Time one fixed batch of integer, dict, list and bytes work."""
    start = time.perf_counter_ns()
    acc, table, parts = 0, {}, []
    for i in range(ROUNDS):
        acc = ((acc << 7 | acc >> 57) ^ (i * 0x9E3779B97F4A7C15)) & M64
        key = acc & 1023
        table[key] = table.get(key ^ 1, 0) + 1
        if not i & 15:
            parts.append(acc.to_bytes(8, "big"))
    b"".join(parts)
    return time.perf_counter_ns() - start


def block_factors(probes: list[list[int]], blocks: int) -> list[float]:
    """Host-speed factor (probe time / nominal) for every block.

    `probes` holds (blocks done before the probe, probe ns, ...) in loop
    order. Block i takes the mean of the last probe before it and the
    first probe after it.
    """
    at = [probe[0] for probe in probes]
    factors = []
    for i in range(blocks):
        j = bisect_right(at, i)
        near = [probe[1] for probe in probes[max(0, j - 1):j + 1]]
        factors.append(sum(near) / len(near) / NOMINAL_NS)
    return factors
