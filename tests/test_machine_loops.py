"""The interpreter's two dispatch loops.

Every test of `test_machine` runs there on the loop that the import bound,
which is the native module's `interpret` whenever that builds, and again
here on `_loop_python`, the no-compiler path. The differential test then
runs both loops over the same programs and compares everything they leave
behind.
"""

import itertools
import random
import time
from array import array

import pytest
from test_machine import *  # noqa: F401,F403 -- collected again here
from test_machine import GOLDEN_LIBRARIES, SCHED, random_byte_program

from gaslab import native
from gaslab.chain import execute_transaction
from gaslab.clock import VirtualClock, WallClock
from gaslab.evm import machine as machine_module
from gaslab.evm.machine import (CALL_DEPTH_LIMIT, STACK_LIMIT, Machine,
                                TxStatus, store_code)
from gaslab.evm.opcodes import ARITY, Opcode
from gaslab.evm.schedule import GasSchedule, PolynomialRule, default_schedule
from gaslab.metrics import COUNTER_MAX, SampleSink
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

# Costs that a schedule reaches and no gas pays: ADD past 2**63 - 1,
# SLOAD past it at height 0 and math.inf past float range from height 2,
# and MSTORE 9223372036854774784, 1023 below 2**63 - 1, so that only its
# memory expansion takes it past.
UNAFFORDABLE_SCHEDULE = GasSchedule.parse(
    default_schedule().format()
    .replace("ADD = 3", "ADD = poly:1e30")
    .replace("SLOAD = 200", "SLOAD = poly:1e308,1e308")
    .replace("MSTORE = 3 +mem", "MSTORE = poly:9.223372036854775e18 +mem"))
UNAFFORDABLE_GAS = [2 ** 63 - 1, 2 ** 62, 40_000]


def differential_programs(n_random=2000, seed=34):
    """(code, gas, schedule) for each run: the random batch, at a random
    limit, then the edge cases at every limit."""
    rng = random.Random(seed)
    runs = [(random_byte_program(rng), rng.choice(GAS_LIMITS), SCHED)
            for _ in range(n_random)]
    runs += [(code, gas, SCHED) for code in EDGE_PROGRAMS
             for gas in GAS_LIMITS]
    runs += [(code, gas, UNAFFORDABLE_SCHEDULE)
             for code in [random_byte_program(rng) for _ in range(50)]
             for gas in UNAFFORDABLE_GAS]
    return runs


def run_both_ways(loop, runs, wall=False):
    """Every run twice under `loop`: as a bare `Machine`, for its final
    state and samples, and as a transaction, for its receipt and commit.
    Gives what the runs leave apart from times, and for each run its
    (counts, times, spans): the transaction's spans, or for the bare
    `Machine` an EVM span read around its `run`."""
    machine_module._loop = loop
    trie = MerklePatriciaTrie()
    for code_id, code in DIFFERENTIAL_LIBRARIES.items():
        store_code(trie, code_id, code)
    work = trie.store.work
    clock = WallClock if wall else VirtualClock(work)
    seen, timed = [], []
    for height, (code, gas, schedule) in enumerate(runs):
        sink = SampleSink()
        m = Machine(code, trie, gas, height, schedule, clock=clock,
                    sink=sink)
        start = clock.now_ns()
        status = m.run()
        span = clock.now_ns() - start
        seen.append((status, m.pc, m.stack, bytes(m.memory), m.memory_words,
                     m.gas, m.return_data, m.storage_buffer, sink.counts,
                     sink.gas, work.instructions))
        timed.append((sink.counts, sink.times, {"EVM": span}))
        sink = SampleSink()
        receipt = execute_transaction(
            code, trie, schedule.intrinsic_gas + gas, height, schedule,
            clock=clock, sink=sink)
        seen.append((receipt, sink.counts, sink.gas, trie.root_hash()))
        timed.append((sink.counts, sink.times,
                      sink.close_window(1).categories))
    return seen, timed


def assert_same_runs(runs, python, c):
    assert len(c) == len(python) == 2 * len(runs)
    for run, expected, got in zip([run for run in runs for _ in "mt"],
                                  python, c):
        assert got == expected, run


@pytest.mark.skipif(native.module is None, reason="no native build")
def test_both_loops_leave_the_same_state_samples_and_receipts():
    runs = differential_programs()
    python = run_both_ways(machine_module._loop_python, runs)
    c = run_both_ways(BOUND_LOOP, runs)
    assert_same_runs(runs, list(zip(*python)), list(zip(*c)))
    # the batch reaches every status, a full stack and the depth limit
    machines = python[0][::2]
    assert len({seen[0] for seen in machines}) == 4
    assert STACK_LIMIT in {len(seen[2]) for seen in machines}
    assert CALL_DEPTH_LIMIT in {seen[8][Opcode.CALLCODE]
                                for seen in machines}


@pytest.mark.skipif(native.module is None, reason="no native build")
def test_both_loops_agree_on_the_wall_clock():
    """The C loop reads WallClock's counter itself and counts instructions
    in a local. All but the times matches the Python loop; a time is
    never negative, 0 where nothing ran, and a run's times sum to no more
    than its EVM span, where it has one: a transaction that raised
    records none."""
    runs = differential_programs()
    python, python_timed = run_both_ways(machine_module._loop_python, runs,
                                         wall=True)
    c, c_timed = run_both_ways(BOUND_LOOP, runs, wall=True)
    assert_same_runs(runs, python, c)
    for run, (_, _, python_spans), (counts, times, spans) in zip(
            [run for run in runs for _ in "mt"], python_timed, c_timed):
        assert spans.keys() == python_spans.keys(), run
        assert all(t >= 0 and (n or t == 0)
                   for n, t in zip(counts, times)), run
        if "EVM" in spans:
            assert sum(times) <= spans["EVM"], run


# The bytes whose effects the C loop runs itself instead of calling their
# Python handlers (PUSH1-32 aside), and the operands they are checked on.
C_EFFECTS = [Opcode.STOP, Opcode.ADD, Opcode.MUL, Opcode.SUB, Opcode.DIV,
             Opcode.LT, Opcode.GT, Opcode.EQ, Opcode.ISZERO, Opcode.AND,
             Opcode.OR, Opcode.XOR, Opcode.NOT, Opcode.POP, Opcode.PC,
             Opcode.JUMPDEST, *(Opcode(Opcode.DUP1 + k) for k in range(16)),
             *(Opcode(Opcode.SWAP1 + k) for k in range(16))]
OPERANDS = [0, 1, 2 ** 255, 2 ** 256 - 1]

# Every C_EFFECTS cost as a polynomial: each goes through _dynamic_cost,
# and STOP costs 1 (a polynomial costs at least 1), so it can run out of gas.
DYNAMIC_SCHEDULE = GasSchedule(
    {**SCHED.rules,
     **{op: PolynomialRule((float(SCHED.rules[op].cost),))
        for op in C_EFFECTS}},
    SCHED.intrinsic_gas)


def push32(value):
    return bytes([Opcode.PUSH32]) + value.to_bytes(32, "big")


def c_effect_programs():
    """(code, gas, stack, schedule) for each bare run: each C_EFFECTS byte
    on every choice of OPERANDS, each DUPk and SWAPk on 17 distinct items,
    each byte on a stack one short of its need, at its need, at its room
    and one past its room, and each byte with just enough gas and one
    gas short, under both schedules."""
    runs = []
    for op in C_EFFECTS:
        need, out = ARITY[op]
        room = STACK_LIMIT + need - out
        if need <= 2:
            for operands in itertools.product(OPERANDS, repeat=need):
                # the first operand is pushed last: it is the top
                code = b"".join(map(push32, reversed(operands)))
                runs.append((code + bytes([op]), 10_000, [], SCHED))
        else:
            runs.append((bytes([op]), 10_000, list(range(1, 18)), SCHED))
        for depth in sorted({max(need - 1, 0), need, room, room + 1}):
            runs.append((bytes([op]), 10_000, list(range(depth)), SCHED))
        code = bytes([Opcode.PUSH1, 1]) * need + bytes([op])
        for schedule in (SCHED, DYNAMIC_SCHEDULE):
            paid = (need * SCHED.by_byte[Opcode.PUSH1]
                    + schedule.rules[op].base_cost(0))
            runs += [(code, gas, [], schedule) for gas in (paid - 1, paid)
                     if gas >= 0]
    return runs


def run_bare(loop, runs):
    """Each run as a bare `Machine` under `loop` and the virtual clock: its
    final state, samples and the work count."""
    machine_module._loop = loop
    trie = MerklePatriciaTrie()
    clock = VirtualClock(trie.store.work)
    seen = []
    for code, gas, stack, schedule in runs:
        sink = SampleSink()
        m = Machine(code, trie, gas, 0, schedule, clock=clock, sink=sink)
        m.stack = list(stack)
        status = m.run()
        seen.append((status, m.pc, m.stack, m.gas, sink.counts, sink.gas,
                     sink.times, trie.store.work.instructions))
    return seen


def test_the_c_effect_batch_runs_every_byte_the_c_loop_runs():
    seen = run_bare(machine_module._loop_python, c_effect_programs())
    counts = [sum(column) for column in zip(*(run[4] for run in seen))]
    assert [op.name for op in C_EFFECTS if not counts[op]] == []
    assert {run[0] for run in seen} == {TxStatus.SUCCESS, TxStatus.OUT_OF_GAS,
                                         TxStatus.STACK_ERROR}


@pytest.mark.skipif(native.module is None, reason="no native build")
def test_both_loops_agree_on_every_byte_the_c_loop_runs():
    runs = c_effect_programs()
    python = run_bare(machine_module._loop_python, runs)
    c = run_bare(BOUND_LOOP, runs)
    assert len(c) == len(python) == len(runs)
    for run, expected, got in zip(runs, python, c):
        assert got == expected, run[:2] + run[3:]


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
                     m.gas, m.stack, m.work.instructions))
    assert seen[0] == seen[1]
    assert sum(seen[0][0]) == (fail_at - 1) // 2


def wall_run(loop, code, gas=10_000, library=b""):
    """`code` as a bare `Machine` under `loop` and the wall clock, with
    `library` stored under code id 1: its status or the exception it
    raised, and the samples but times, the instruction count and the times
    it leaves."""
    machine_module._loop = loop
    trie = MerklePatriciaTrie()
    store_code(trie, 1, library)
    sink = SampleSink()
    m = Machine(code, trie, gas, 0, SCHED, clock=WallClock, sink=sink)
    try:
        outcome = m.run()
    except RuntimeError as error:
        outcome = str(error)
    return (outcome, sink.counts, sink.gas, m.work.instructions), sink.times


def fail(m):
    raise RuntimeError("handler failed")


@pytest.fixture
def set_handler():
    """Swap one opcode's handler in the table both loops read."""
    operations = machine_module._OPERATIONS
    saved = list(operations)

    def set_handler(opcode, handler):
        need, room, width, _ = operations[opcode]
        operations[opcode] = (need, room, width, handler)

    yield set_handler
    operations[:] = saved


@pytest.mark.skipif(native.module is None, reason="no native build")
@pytest.mark.parametrize("in_child", [False, True])
def test_wall_path_keeps_the_samples_of_a_run_a_handler_ends(set_handler,
                                                             in_child):
    """A handler raises after three instructions; in the child case, a
    child's, after the caller's CALLCODE and the child's three. Both runs
    leave their finished instructions' samples, as the Python loop does."""
    set_handler(Opcode.MSTORE, fail)
    program = bytes([Opcode.PUSH1, 1, Opcode.PUSH1, 2, Opcode.ADD,
                     Opcode.PUSH1, 3, Opcode.MSTORE, Opcode.STOP])
    code = bytes([Opcode.PUSH1, 1, Opcode.CALLCODE]) if in_child else program
    python, _ = wall_run(machine_module._loop_python, code, library=program)
    c, c_times = wall_run(BOUND_LOOP, code, library=program)
    assert c == python
    assert c[0] == "handler failed"
    assert c[3] == 4 + 2 * in_child
    assert all(t >= 0 and (n or t == 0) for n, t in zip(c[1], c_times))


@pytest.mark.skipif(native.module is None, reason="no native build")
@pytest.mark.parametrize("totals", [
    [0] * 256, array("q", [0]) * 255, array("Q", [0]) * 256, bytes(2048)],
    ids=["list", "short", "unsigned", "read-only"])
def test_the_c_loop_takes_only_int64_windows(totals):
    """The C loop adds into the sink's totals through their buffers: any
    but a writable array('q') of 256 items raises TypeError before the
    first instruction."""
    sink = SampleSink()
    sink.gas = totals
    m = Machine(bytes([Opcode.PUSH1, 1, Opcode.STOP]), MerklePatriciaTrie(),
                100, 0, SCHED, sink=sink)
    machine_module._loop = BOUND_LOOP
    with pytest.raises(TypeError, match="sink.gas is not"):
        m.run()
    assert (m.pc, m.gas, m.stack, sum(sink.counts)) == (0, 100, [], 0)


@pytest.mark.skipif(native.module is None, reason="no native build")
@pytest.mark.parametrize("opcode", [Opcode.ADD, Opcode.NOT, Opcode.POP,
                                    Opcode.DUP16, Opcode.SWAP16])
def test_a_table_that_lowers_a_need_raises_index_error(opcode):
    """The C loop runs these effects itself, so it checks the stack it
    reads against the opcode's own need, not only the table's: a table
    entry that takes 0 items gives the IndexError that the handler's pop or
    index gives under the Python loop, not a read past the stack."""
    operations = machine_module._OPERATIONS
    saved = operations[opcode]
    operations[opcode] = (0, STACK_LIMIT, 0, saved[3])
    try:
        for loop in (machine_module._loop_python, BOUND_LOOP):
            machine_module._loop = loop
            m = Machine(bytes([opcode]), MerklePatriciaTrie(), 100, 0, SCHED)
            with pytest.raises(IndexError):
                m.run()
            assert (m.pc, m.gas, m.stack) == (
                1, 100 - SCHED.by_byte[opcode], [])
    finally:
        operations[opcode] = saved


@pytest.mark.skipif(native.module is None, reason="no native build")
def test_wall_path_keeps_the_samples_of_a_run_out_of_gas():
    code = bytes([Opcode.PUSH1, 1, Opcode.PUSH1, 2, Opcode.ADD]) * 4
    python, _ = wall_run(machine_module._loop_python, code, gas=20)
    c, c_times = wall_run(BOUND_LOOP, code, gas=20)
    assert c == python
    assert c[0] is TxStatus.OUT_OF_GAS
    assert c[3] == 6   # 9 gas a PUSH1, PUSH1, ADD; then 2 PUSH1s
    assert all(t >= 0 and (n or t == 0) for n, t in zip(c[1], c_times))


@pytest.mark.parametrize("loop", [machine_module._loop_python, BOUND_LOOP],
                         ids=["python", "bound"])
def test_a_2_ms_instruction_samples_at_least_2_ms(set_handler, loop):
    """MSTORE busy-waits 2 ms on time.perf_counter_ns: its sample must
    read at least that and stay inside the EVM span, so the loop reads the
    clock that WallClock names, in nanoseconds."""
    def busy(m):
        until = time.perf_counter_ns() + 2_000_000
        while time.perf_counter_ns() < until:
            pass

    set_handler(Opcode.MSTORE, busy)
    machine_module._loop = loop
    sink = SampleSink()
    receipt = execute_transaction(
        bytes([Opcode.PUSH1, 0, Opcode.PUSH1, 0, Opcode.MSTORE, Opcode.STOP]),
        MerklePatriciaTrie(), 30_000, 0, SCHED, clock=WallClock, sink=sink)
    assert receipt.status is TxStatus.SUCCESS
    sampled = sink.times[Opcode.MSTORE]
    assert 2_000_000 <= sampled <= sink.close_window(1).categories["EVM"]


@pytest.mark.parametrize("loop", [machine_module._loop_python, BOUND_LOOP],
                         ids=["python", "bound"])
def test_an_sload_reads_the_samples_of_the_instructions_before_it(loop):
    """Each loop adds a sample into the sink's window as its instruction
    ends, not as the run exits: a trie `get` inside SLOAD already reads
    the three PUSH1 samples and ADD's (count, gas, virtual time)."""
    class PeekingTrie(MerklePatriciaTrie):
        def get(self, key):
            seen.append((sink.counts[Opcode.PUSH1], sink.counts[Opcode.ADD],
                         sink.gas[Opcode.ADD], sink.times[Opcode.ADD]))
            return super().get(key)

    seen = []
    machine_module._loop = loop
    trie = PeekingTrie()
    sink = SampleSink()
    m = Machine(bytes([Opcode.PUSH1, 1, Opcode.PUSH1, 2, Opcode.ADD,
                       Opcode.PUSH1, 0, Opcode.SLOAD, Opcode.STOP]),
                trie, 10_000, 0, SCHED, clock=VirtualClock(trie.store.work),
                sink=sink)
    assert m.run() is TxStatus.SUCCESS
    assert seen == [(3, 1, SCHED.by_byte[Opcode.ADD], 400)]


LOOPS = pytest.mark.parametrize(
    "loop", [machine_module._loop_python, BOUND_LOOP], ids=["python", "bound"])

# A program whose two PUSH1s and ADD cost exactly 2**63 - 1 in all, the
# most gas a Machine takes.
INT64_SCHEDULE = GasSchedule.parse(
    default_schedule().format()
    .replace("PUSH1 = 3", f"PUSH1 = {2 ** 61}")
    .replace("ADD = 3", f"ADD = {2 ** 62 - 1}"))
ADD_TWO = bytes([Opcode.PUSH1, 1, Opcode.PUSH1, 2, Opcode.ADD, Opcode.STOP])


@LOOPS
@pytest.mark.parametrize("schedule, gas, status, left", [
    (SCHED, 9, TxStatus.SUCCESS, 0),
    (SCHED, 8, TxStatus.OUT_OF_GAS, 0),
    (SCHED, 2 ** 63 - 1, TxStatus.SUCCESS, 2 ** 63 - 10),
    (SCHED, 2 ** 63, ValueError, None),
    (INT64_SCHEDULE, 2 ** 63 - 1, TxStatus.SUCCESS, 0),
    (INT64_SCHEDULE, 2 ** 63 - 2, TxStatus.OUT_OF_GAS, 0),
    (INT64_SCHEDULE, 2 ** 63, ValueError, None),
], ids=["cost-is-gas", "cost-above-gas", "gas-2^63-1", "gas-2^63",
        "int64-cost-is-gas", "int64-cost-above-gas", "int64-costs-gas-2^63"])
def test_a_cost_equal_to_the_gas_is_charged_and_one_more_halts(
        loop, schedule, gas, status, left):
    """The last instruction (STOP at cost 0, or ADD) costs exactly the gas
    left, or one more than it, up to gas 2**63 - 1; a gas of 2**63 is
    refused before any instruction runs."""
    machine_module._loop = loop
    sink = SampleSink()
    if status is ValueError:
        with pytest.raises(ValueError, match=f"gas {gas} is not in"):
            Machine(ADD_TWO, MerklePatriciaTrie(), gas, 0, schedule,
                    sink=sink)
        assert (sum(sink.counts), sum(sink.gas)) == (0, 0)
        return
    m = Machine(ADD_TWO, MerklePatriciaTrie(), gas, 0, schedule, sink=sink)
    assert m.run() is status
    assert type(m.gas) is int and m.gas == left
    ran = [Opcode.PUSH1, Opcode.PUSH1] + (
        [Opcode.ADD, Opcode.STOP] if status is TxStatus.SUCCESS else [])
    assert sum(sink.counts) == len(ran)
    assert sum(sink.gas) == sum(schedule.by_byte[op] for op in ran)


@LOOPS
@pytest.mark.parametrize("gas", [-1, 2 ** 63, 2 ** 63 + 700, 2 ** 80],
                         ids=["-1", "2^63", "2^63+700", "2^80"])
def test_a_gas_outside_the_int64_range_is_refused(loop, gas):
    """Gas is one int64 domain: a Machine refuses any other gas before
    either loop runs, so no sample is taken."""
    machine_module._loop = loop
    sink = SampleSink()
    with pytest.raises(ValueError, match=f"gas {gas} is not in"):
        Machine(ADD_TWO, MerklePatriciaTrie(), gas, 0, SCHED, sink=sink)
    assert (sum(sink.counts), sum(sink.gas)) == (0, 0)


@LOOPS
@pytest.mark.parametrize("gas", UNAFFORDABLE_GAS,
                         ids=["2^63-1", "2^62", "40000"])
@pytest.mark.parametrize("code, height, halts, ran", [
    (ADD_TWO, 0, Opcode.ADD, 2),
    (bytes([Opcode.PUSH1, 0, Opcode.SLOAD]), 0, Opcode.SLOAD, 1),
    (bytes([Opcode.PUSH1, 0, Opcode.SLOAD]), 2, Opcode.SLOAD, 1),
    (bytes([Opcode.PUSH1, 7, Opcode.PUSH2, 0x27, 0x10, Opcode.MSTORE]), 0,
     Opcode.MSTORE, 2),
], ids=["ADD", "SLOAD", "SLOAD-inf", "MSTORE-10000"])
def test_a_cost_past_the_int64_range_halts_out_of_gas(loop, gas, code,
                                                      height, halts, ran):
    """A cost past 2**63 - 1 is more than any gas: ADD's, SLOAD's (an int
    at height 0, math.inf at height 2) and MSTORE's, whose base cost fits
    and whose memory expansion of 1134 gas at offset 10,000 does not. The
    run halts out of gas with no sample for the halting opcode and no
    memory grown, on either loop."""
    machine_module._loop = loop
    sink = SampleSink()
    m = Machine(code, MerklePatriciaTrie(), gas, height,
                UNAFFORDABLE_SCHEDULE, sink=sink)
    assert m.run() is TxStatus.OUT_OF_GAS
    assert m.gas == 0
    assert (sink.counts[halts], sink.gas[halts]) == (0, 0)
    assert (m.memory_words, m.memory) == (0, bytearray())
    assert sum(sink.counts) == ran


def test_a_window_total_past_int64_raises_overflow_error():
    """Each transaction's ADD costs 2**62, within its own gas; the second
    takes the shared window's ADD gas total past 2**63 - 1, so its run
    raises OverflowError after its count is added. Both loops leave the
    same sink."""
    schedule = GasSchedule.parse(default_schedule().format()
                                 .replace("ADD = 3", f"ADD = {2 ** 62}"))
    gas_limit = schedule.intrinsic_gas + 2 ** 62 + 6
    seen = []
    for loop in (machine_module._loop_python, BOUND_LOOP):
        machine_module._loop = loop
        trie = MerklePatriciaTrie()
        clock = VirtualClock(trie.store.work)
        sink = SampleSink()
        execute_transaction(ADD_TWO, trie, gas_limit, 0, schedule,
                            clock=clock, sink=sink)
        with pytest.raises(OverflowError):
            execute_transaction(ADD_TWO, trie, gas_limit, 1, schedule,
                                clock=clock, sink=sink)
        seen.append((sink.counts, sink.gas, sink.times,
                     sink.close_window(1).categories))
    assert seen[0] == seen[1]
    counts, gas, times, _ = seen[0]
    assert (counts[Opcode.ADD], gas[Opcode.ADD]) == (2, 2 ** 62)
    assert (counts[Opcode.PUSH1], gas[Opcode.PUSH1]) == (4, 12)
    assert counts[Opcode.STOP] == 1


def recording_run(loop, gas, set_handler, code, library=b""):
    """`code` under `loop` on a `Machine` whose `_dynamic_cost`, and the
    MSTORE and SLOAD handlers, record the gas they read: (what was read,
    status, the gas left)."""
    seen = []

    class Recording(Machine):
        def _dynamic_cost(self, byte, rule):
            seen.append(("cost", self.depth, Opcode(byte).name, self.gas))
            return super()._dynamic_cost(byte, rule)

    for opcode in (Opcode.MSTORE, Opcode.SLOAD):
        def record(m, handler=machine_module._OPERATIONS[opcode][3],
                   name=opcode.name):
            seen.append(("handler", m.depth, name, m.gas))
            return handler(m)
        set_handler(opcode, record)
    machine_module._loop = loop
    trie = MerklePatriciaTrie()
    store_code(trie, 1, library)
    m = Recording(code, trie, gas, 0, SCHED)
    status = m.run()
    return seen, status, m.gas


@LOOPS
@pytest.mark.parametrize("gas", [221, 2 ** 63 - 1, 2 ** 63])
def test_python_code_reads_the_gas_left_mid_run(loop, gas, set_handler):
    """`_dynamic_cost` reads the gas before MSTORE's charge, and each
    handler the gas after its own instruction's charge. A gas of 2**63 is
    refused before any of them reads it."""
    code = bytes([Opcode.PUSH1, 7, Opcode.PUSH1, 0, Opcode.MSTORE,
                  Opcode.PUSH1, 1, Opcode.PUSH1, 2, Opcode.ADD,
                  Opcode.SLOAD, Opcode.STOP])
    if gas > COUNTER_MAX:
        with pytest.raises(ValueError, match=f"gas {gas} is not in"):
            recording_run(loop, gas, set_handler, code)
        return
    seen, status, left = recording_run(loop, gas, set_handler, code)
    assert seen == [("cost", 0, "MSTORE", gas - 6),
                    ("handler", 0, "MSTORE", gas - 12),
                    ("handler", 0, "SLOAD", gas - 221)]
    assert (status, left) == (TxStatus.SUCCESS, gas - 221)


@LOOPS
@pytest.mark.parametrize("gas", [2 ** 63 - 1, 10_000])
def test_a_callcode_child_takes_and_returns_the_gas(loop, gas, set_handler):
    """The child starts with all the gas left after CALLCODE's charge
    (gas - 703) and hands back what it did not use. The child is a plain
    `Machine`, so only its MSTORE handler records."""
    library = bytes([Opcode.PUSH1, 5, Opcode.PUSH1, 0, Opcode.MSTORE,
                     Opcode.STOP])
    code = bytes([Opcode.PUSH1, 1, Opcode.CALLCODE, Opcode.PUSH1, 9,
                  Opcode.PUSH1, 32, Opcode.MSTORE, Opcode.STOP])
    seen, status, left = recording_run(loop, gas, set_handler, code,
                                       library)
    assert seen == [("handler", 1, "MSTORE", gas - 715),
                    ("cost", 0, "MSTORE", gas - 721),
                    ("handler", 0, "MSTORE", gas - 730)]
    assert (status, left) == (TxStatus.SUCCESS, gas - 730)


def push_immediates():
    """Each PUSH1-32 immediate with leading zero bytes and with every byte
    0xFF, cut off by the end of the code after each byte count."""
    for width in range(1, 33):
        zeros = width // 2
        for immediate in (bytes(zeros) + bytes(range(1, width - zeros + 1)),
                          b"\xff" * width):
            for kept in range(width + 1):
                yield width, immediate[:kept]


@LOOPS
def test_a_push_reads_its_immediate_big_endian_zero_padded(loop):
    machine_module._loop = loop
    for width, kept in push_immediates():
        code = bytes([Opcode.PUSH1 + width - 1]) + kept
        m = Machine(code, MerklePatriciaTrie(), 100, 0, SCHED)
        assert m.run() is TxStatus.SUCCESS
        expected = int.from_bytes(kept + bytes(width - len(kept)), "big")
        assert (m.stack, m.gas) == ([expected], 97), code
