"""The interpreter's two dispatch loops.

Every test of `test_machine` runs there on the loop that the import bound,
which is the native module's `interpret` whenever that builds, and again
here on `_loop_python`, the no-compiler path. The differential test then
runs both loops over the same programs and compares everything they leave
behind.
"""

import random

import pytest
from test_machine import *  # noqa: F401,F403 -- collected again here
from test_machine import GOLDEN_LIBRARIES, SCHED, random_byte_program

from gaslab import native
from gaslab.chain import execute_transaction
from gaslab.clock import VirtualClock
from gaslab.evm import machine as machine_module
from gaslab.evm.machine import (CALL_DEPTH_LIMIT, STACK_LIMIT, Machine,
                                store_code)
from gaslab.evm.opcodes import Opcode
from gaslab.evm.schedule import GasSchedule, default_schedule
from gaslab.metrics import SampleSink
from gaslab.trie import MerklePatriciaTrie

BOUND_LOOP = machine_module._loop


@pytest.fixture(autouse=True)
def python_loop(monkeypatch):
    monkeypatch.setattr(machine_module, "_loop", machine_module._loop_python)


def test_the_native_build_binds_the_c_loop():
    if native.module is None:
        assert BOUND_LOOP is machine_module._loop_python
    else:
        assert BOUND_LOOP.func is native.module.interpret


# A library that calls itself until the depth limit skips the call.
SELF_CALL = 7
DIFFERENTIAL_LIBRARIES = {
    **GOLDEN_LIBRARIES,
    SELF_CALL: bytes([Opcode.PUSH1, 1, Opcode.PUSH1, SELF_CALL,
                      Opcode.CALLCODE, Opcode.ADD, Opcode.STOP]),
}

FILL = bytes([Opcode.PUSH1, 1]) * STACK_LIMIT

EDGE_PROGRAMS = [
    # every PUSH width, cut off by the end after each possible byte count
    *(bytes([Opcode.PUSH1 + width - 1]) + bytes(range(1, 1 + kept))
      for width in range(1, 33) for kept in range(width)),
    # a full stack: one more item faults; a pop or a swap does not
    FILL, FILL + bytes([Opcode.PUSH1, 1]), FILL + bytes([Opcode.DUP1]),
    FILL + bytes([Opcode.PC]), FILL + bytes([Opcode.ADD, Opcode.DUP1]),
    FILL + bytes([Opcode.SWAP1, Opcode.POP, Opcode.PUSH32]),
    # bad jumps: past the end, onto a non-JUMPDEST, into a PUSH immediate
    bytes([Opcode.PUSH2, 0xFF, 0xFF, Opcode.JUMP]),
    bytes([Opcode.PUSH1, 1, Opcode.PUSH1, 0, Opcode.JUMPI]),
    bytes([Opcode.PUSH1, 1, Opcode.PUSH1, 4, Opcode.JUMPI, Opcode.PUSH1,
           Opcode.JUMPDEST]),
    bytes([Opcode.PUSH32]) + b"\xff" * 32 + bytes([Opcode.JUMP]),
    # CALLCODE down to the depth limit, and into a missing id
    bytes([Opcode.PUSH1, SELF_CALL, Opcode.CALLCODE, Opcode.STOP]),
    bytes([Opcode.PUSH1, 0x77, Opcode.CALLCODE, Opcode.STOP]),
]

GAS_LIMITS = [40, 400, 4_000, 40_000, 400_000]

# Costs past 64 bits, and a polynomial that overflows to math.inf.
WIDE_SCHEDULE = GasSchedule.parse(
    default_schedule().format()
    .replace("ADD = 3", f"ADD = {2 ** 70}")
    .replace("SLOAD = 200", "SLOAD = poly:1e308,1e308"))


def differential_programs(n_random=2000, seed=34):
    """(code, gas, schedule) for each run: the random batch, at a random
    limit, then the edge cases at every limit."""
    rng = random.Random(seed)
    runs = [(random_byte_program(rng), rng.choice(GAS_LIMITS), SCHED)
            for _ in range(n_random)]
    runs += [(code, gas, SCHED) for code in EDGE_PROGRAMS
             for gas in GAS_LIMITS]
    runs += [(code, gas, WIDE_SCHEDULE)
             for code in [random_byte_program(rng) for _ in range(50)]
             for gas in (2 ** 80, 2 ** 71, 40_000)]
    return runs


def run_both_ways(loop, runs):
    """Every run twice under `loop`: as a bare `Machine`, for its final
    state and samples, and as a transaction, for its receipt and commit."""
    machine_module._loop = loop
    trie = MerklePatriciaTrie()
    for code_id, code in DIFFERENTIAL_LIBRARIES.items():
        store_code(trie, code_id, code)
    work = trie.store.work
    clock = VirtualClock(work)
    seen = []
    for height, (code, gas, schedule) in enumerate(runs):
        sink = SampleSink()
        m = Machine(code, trie, gas, height, schedule, clock=clock,
                    sink=sink)
        status = m.run()
        seen.append((status, m.pc, m.stack, bytes(m.memory), m.memory_words,
                     m.gas, m.return_data, m.storage_buffer, sink.counts,
                     sink.gas, sink.times, work.instructions))
        sink = SampleSink()
        receipt = execute_transaction(code, trie, schedule.intrinsic_gas + gas,
                                      height, schedule, clock=clock,
                                      sink=sink)
        seen.append((receipt, sink.counts, sink.gas, sink.times,
                     sink.close_window(1).categories, trie.root_hash()))
    return seen


@pytest.mark.skipif(native.module is None, reason="no native build")
def test_both_loops_leave_the_same_state_samples_and_receipts():
    runs = differential_programs()
    python = run_both_ways(machine_module._loop_python, runs)
    c = run_both_ways(BOUND_LOOP, runs)
    assert len(c) == len(python) == 2 * len(runs)
    for run, expected, got in zip([run for run in runs for _ in "mt"],
                                  python, c):
        assert got == expected, run
    # the batch reaches every status, a full stack and the depth limit
    machines = python[::2]
    assert len({seen[0] for seen in machines}) == 4
    assert STACK_LIMIT in {len(seen[2]) for seen in machines}
    assert CALL_DEPTH_LIMIT in {seen[8][Opcode.CALLCODE]
                                for seen in machines}


class FailingClock:
    """Counts its reads, and raises at read `fail_at`."""

    def __init__(self, fail_at):
        self.calls = 0
        self.fail_at = fail_at

    def now_ns(self):
        self.calls += 1
        if self.calls == self.fail_at:
            raise RuntimeError("clock failed")
        return self.calls


@pytest.mark.skipif(native.module is None, reason="no native build")
@pytest.mark.parametrize("fail_at", range(1, 9))
def test_other_exceptions_propagate_without_a_sample(fail_at):
    """Two reads for each of 4 instructions: the error passes through
    either loop unchanged, and both leave the same samples and state."""
    code = bytes([Opcode.PUSH1, 1, Opcode.PUSH1, 2, Opcode.ADD, Opcode.STOP])
    seen = []
    for loop in (machine_module._loop_python, BOUND_LOOP):
        machine_module._loop = loop
        sink = SampleSink()
        m = Machine(code, MerklePatriciaTrie(), 100, 0, SCHED,
                    clock=FailingClock(fail_at), sink=sink)
        with pytest.raises(RuntimeError, match="clock failed"):
            m.run()
        seen.append((sink.counts, sink.gas, sink.times, m.status, m.pc,
                     m.stack, m.work.instructions))
    assert seen[0] == seen[1]
    assert sum(seen[0][0]) == (fail_at - 1) // 2
