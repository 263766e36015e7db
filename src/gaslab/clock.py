"""Timing sources for instrumentation.

Two interchangeable clocks drive all span and instruction timing:

* `WallClock` reads the OS monotonic clock; it is what the measurement
  study runs on.
* `VirtualClock` reads a deterministic `WorkMeter` that components tick as
  they do work (trie node reads/writes, key hashing, instruction bodies).
  Runs under it are bit-reproducible, which is what the CLI's determinism
  guarantee and the CI smoke tests rely on; the depth-dependent node-read
  charges keep the state-growth slowdown visible even in virtual time.

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


class WorkMeter:
    """Deterministic work accumulator; the time source of `VirtualClock`."""

    __slots__ = ("ticks",)

    def __init__(self) -> None:
        self.ticks = 0

    def node_read(self) -> None:
        self.ticks += TICKS_NODE_READ

    def node_write(self, size: int) -> None:
        self.ticks += TICKS_NODE_WRITE_BASE + TICKS_NODE_WRITE_PER_BYTE * size

    def key_hash(self) -> None:
        self.ticks += TICKS_KEY_HASH

    def instruction(self) -> None:
        self.ticks += TICKS_INSTRUCTION

    def memory_words(self, words: int) -> None:
        self.ticks += TICKS_MEMORY_WORD * words

    def commit(self) -> None:
        self.ticks += TICKS_COMMIT

    def span_overhead(self) -> None:
        self.ticks += TICKS_SPAN


class WallClock:
    """Monotonic wall clock; `meter` is None so components skip tick hooks."""

    meter = None

    @staticmethod
    def now_ns() -> int:
        return time.perf_counter_ns()


class VirtualClock:
    """Clock whose 'now' is the total deterministic work done so far."""

    def __init__(self, meter: WorkMeter | None = None) -> None:
        self.meter = meter if meter is not None else WorkMeter()

    def now_ns(self) -> int:
        return self.meter.ticks
