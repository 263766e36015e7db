"""Work counters and the timing sources built on them.

`Work` is the run's one set of work counters: trie node reads and writes
(with written bytes), key hashes, instructions, memory words, commits and
spans. The run's `NodeStore` owns it, and every layer increments it at the
point where the work happens, whichever clock the run uses, so wall runs
keep the same counts as virtual ones.

Any clock's `now_ns` must return an int in the signed 64-bit range: the
native interpreter loop reads it as one (a non-int raises TypeError, a
larger int OverflowError), and an instruction's sample time is the
difference of two readings. Two interchangeable clocks drive all span and
instruction timing:

* `WallClock` reads the OS monotonic clock; it is what the measurement
  study runs on.
* `VirtualClock` reads a weighted sum of a `Work`'s counts. Runs under it
  are bit-reproducible, which is what the CLI's determinism guarantee
  rests on; the depth-dependent node-read charges keep the state-growth
  slowdown visible even in virtual time.

Tick weights are arbitrary "virtual nanoseconds"; only their relative
ordering matters (deep lookups must dominate per-instruction overhead).
"""

from __future__ import annotations

import time

TICKS_NODE_READ = 8_000
TICKS_NODE_WRITE_BASE = 9_000
TICKS_NODE_WRITE_PER_BYTE = 30
TICKS_KEY_HASH = 3_000
TICKS_INSTRUCTION = 400
TICKS_MEMORY_WORD = 40
TICKS_COMMIT = 1_500
TICKS_SPAN = 200


class Work:
    """Counts of the work a run has done; plain ints, incremented in place."""

    __slots__ = ("node_reads", "node_writes", "node_write_bytes",
                 "key_hashes", "instructions", "memory_words", "commits",
                 "spans")

    def __init__(self) -> None:
        self.node_reads = 0
        self.node_writes = 0
        self.node_write_bytes = 0
        self.key_hashes = 0
        self.instructions = 0
        self.memory_words = 0
        self.commits = 0
        self.spans = 0


class WallClock:
    """Monotonic wall clock: `now_ns` is the bare `time.perf_counter_ns`,
    no Python frame. The native interpreter loop recognizes it and reads
    the same counter in C, with no call, around each instruction; its
    sample time is the difference of the two int64 readings, as under any
    clock. A wrapped or replaced `now_ns` is called like any other
    clock's."""

    now_ns = staticmethod(time.perf_counter_ns)


class VirtualClock:
    """Clock whose 'now' is the weighted total of the work done so far."""

    def __init__(self, work: Work) -> None:
        self.work = work

    def now_ns(self) -> int:
        w = self.work
        return (TICKS_NODE_READ * w.node_reads
                + TICKS_NODE_WRITE_BASE * w.node_writes
                + TICKS_NODE_WRITE_PER_BYTE * w.node_write_bytes
                + TICKS_KEY_HASH * w.key_hashes
                + TICKS_INSTRUCTION * w.instructions
                + TICKS_MEMORY_WORD * w.memory_words
                + TICKS_COMMIT * w.commits
                + TICKS_SPAN * w.spans)
