"""Interpreter semantics, gas metering, and sampling."""

import hashlib
import random

import pytest
from _synth import sample_gas_total, transaction_samples

from gaslab.chain import IntrinsicGasError, execute_transaction
from gaslab.clock import VirtualClock
from gaslab.evm import machine as machine_module
from gaslab.evm.machine import (STACK_LIMIT, Machine, TxStatus, storage_key,
                                store_code, write_slot)
from gaslab.evm.opcodes import ARITY, Opcode, push_for
from gaslab.evm.schedule import GasSchedule, default_schedule
from gaslab.trie import MerklePatriciaTrie
from gaslab.workload import WorkloadGenerator, WorkloadSpec

SCHED = default_schedule()


def status_case(*values):
    """pytest.param(*values) with an id that names each TxStatus string by
    its constant ("TxStatus.SUCCESS"), so these cases keep their ids."""
    names = {status: f"TxStatus.{name}"
             for name, status in vars(TxStatus).items() if name.isupper()}
    return pytest.param(*values, id="-".join(
        value.decode("latin-1") if isinstance(value, bytes)
        else names.get(value, str(value)) for value in values))


def run(code, trie=None, gas_limit=200_000, height=0, schedule=SCHED,
        **kwargs):
    return execute_transaction(code, trie or MerklePatriciaTrie(), gas_limit,
                               height, schedule, **kwargs)


def run_sampled(code, trie=None, gas_limit=200_000, height=0,
                schedule=SCHED, **kwargs):
    """`run` into a fresh sink: the receipt and the transaction's samples."""
    return transaction_samples(code, trie or MerklePatriciaTrie(), gas_limit,
                               height, schedule, **kwargs)


def returned_word(receipt):
    return int.from_bytes(receipt.return_data, "big")


def with_return(code):
    """Append MSTORE of the top of stack and a 32-byte RETURN."""
    return code + bytes([Opcode.PUSH1, 0, Opcode.MSTORE, Opcode.PUSH1, 32,
                         Opcode.PUSH1, 0, Opcode.RETURN])


# ---------------------------------------------------------------------------
# single-instruction behavior
# ---------------------------------------------------------------------------

def test_push_step_sample_and_stack():
    code = bytes([Opcode.PUSH1, 0x2A])
    machine = Machine(code, MerklePatriciaTrie(), gas=100, block_height=0,
                      schedule=SCHED)
    assert machine.run() is TxStatus.SUCCESS
    assert machine.stack == [0x2A]
    assert machine.gas == 97
    count, gas, duration_ns = run_sampled(code)[1]["PUSH1"]
    assert (count, gas) == (1, 3)
    assert duration_ns >= 0


def test_add_on_stack():
    machine = Machine(bytes([Opcode.ADD]), MerklePatriciaTrie(), gas=100,
                      block_height=0, schedule=SCHED)
    machine.stack = [2, 3]
    machine.run()
    assert machine.stack == [5]


def test_step_out_of_gas_boundary():
    # instruction cost exceeds remaining gas by one
    machine = Machine(bytes([Opcode.PUSH1, 1]), MerklePatriciaTrie(), gas=2,
                      block_height=0, schedule=SCHED)
    assert machine.run() is TxStatus.OUT_OF_GAS
    assert machine.gas == 0


# ---------------------------------------------------------------------------
# transaction-level behavior
# ---------------------------------------------------------------------------

def test_empty_code_costs_exactly_intrinsic_gas():
    receipt, samples = run_sampled(b"", gas_limit=21_000)
    assert receipt.status is TxStatus.SUCCESS
    assert receipt.gas_used == 21_000
    assert receipt.instructions == 0
    assert samples == {}


def test_k_pushes_exhaust_limit_exactly():
    k = 14
    code = bytes([Opcode.PUSH1, 1]) * k  # runs off the end: implicit stop
    receipt = run(code, gas_limit=21_000 + 3 * k)
    assert receipt.status is TxStatus.SUCCESS
    assert receipt.gas_used == 21_000 + 3 * k


def test_gas_limit_below_intrinsic_rejected_without_execution():
    trie = MerklePatriciaTrie()
    root = trie.root_hash()
    with pytest.raises(IntrinsicGasError):
        run(bytes([Opcode.PUSH1, 1]), trie=trie, gas_limit=20_999)
    assert trie.root_hash() == root


def test_sstore_then_sload_reads_the_write():
    trie = MerklePatriciaTrie()
    code = with_return(bytes([
        Opcode.PUSH1, 0xAB, Opcode.PUSH1, 7, Opcode.SSTORE,   # slot7 = 0xAB
        Opcode.PUSH1, 7, Opcode.SLOAD,                         # load it back
    ]))
    receipt = run(code, trie=trie)
    assert receipt.status is TxStatus.SUCCESS
    assert returned_word(receipt) == 0xAB
    assert trie.get(storage_key(7)) == b"\xab"


def test_sstore_tiers_set_vs_reset():
    trie = MerklePatriciaTrie()
    _, set_samples = run_sampled(
        bytes([Opcode.PUSH1, 1, Opcode.PUSH1, 5, Opcode.SSTORE]), trie=trie)
    assert set_samples["SSTORE"][1] == 20_000
    _, reset_samples = run_sampled(
        bytes([Opcode.PUSH1, 2, Opcode.PUSH1, 5, Opcode.SSTORE]), trie=trie)
    assert reset_samples["SSTORE"][1] == 5_000


def test_sstore_zero_deletes_and_restores_root():
    trie = MerklePatriciaTrie()
    before = trie.root_hash()
    run(bytes([Opcode.PUSH1, 9, Opcode.PUSH1, 3, Opcode.SSTORE]), trie=trie)
    assert trie.root_hash() != before
    run(bytes([Opcode.PUSH1, 0, Opcode.PUSH1, 3, Opcode.SSTORE]), trie=trie)
    assert trie.root_hash() == before


def test_sstore_zero_removes_an_existing_key():
    trie, without = MerklePatriciaTrie(), MerklePatriciaTrie()
    for slot, value in [(1, 7), (2, 9)]:
        write_slot(trie, slot, value)
    write_slot(without, 1, 7)
    receipt = run(bytes([Opcode.PUSH1, 0, Opcode.PUSH1, 2, Opcode.SSTORE]),
                  trie=trie)
    assert receipt.status is TxStatus.SUCCESS
    assert trie.key_count == without.key_count == 1
    assert trie.get(storage_key(2)) is None
    assert trie.root_hash() == without.root_hash()


def test_committed_transaction_leaves_nothing_dirty():
    trie = MerklePatriciaTrie()
    code = bytes([Opcode.PUSH1, 1, Opcode.PUSH1, 5, Opcode.SSTORE,
                  Opcode.PUSH1, 2, Opcode.PUSH1, 6, Opcode.SSTORE])
    receipt = run(code, trie=trie)
    assert receipt.status is TxStatus.SUCCESS
    nodes, writes = len(trie.store), trie.store.work.node_writes
    assert nodes > 0
    trie.root_hash()  # the transaction already hashed its writes
    assert (len(trie.store), trie.store.work.node_writes) == (nodes, writes)


def test_failed_transaction_commits_nothing():
    trie = MerklePatriciaTrie()
    before = trie.root_hash()
    code = bytes([Opcode.PUSH1, 1, Opcode.PUSH1, 5, Opcode.SSTORE,
                  Opcode.ADD])  # stack underflow after the store
    receipt = run(code, trie=trie)
    assert receipt.status is TxStatus.STACK_ERROR
    assert trie.root_hash() == before


@pytest.mark.parametrize("code,expected", [
    (bytes([Opcode.PUSH1, 2, Opcode.PUSH1, 3, Opcode.SUB]), 1),       # 3-2
    (bytes([Opcode.PUSH1, 2, Opcode.PUSH1, 7, Opcode.DIV]), 3),       # 7//2
    (bytes([Opcode.PUSH1, 0, Opcode.PUSH1, 7, Opcode.DIV]), 0),       # /0
    (bytes([Opcode.PUSH1, 9, Opcode.PUSH1, 3, Opcode.LT]), 1),        # 3<9
    (bytes([Opcode.PUSH1, 9, Opcode.PUSH1, 3, Opcode.GT]), 0),
    (bytes([Opcode.PUSH1, 5, Opcode.PUSH1, 5, Opcode.EQ]), 1),
    (bytes([Opcode.PUSH1, 0, Opcode.ISZERO]), 1),
    (bytes([Opcode.PUSH1, 0b1100, Opcode.PUSH1, 0b1010, Opcode.AND]), 0b1000),
    (bytes([Opcode.PUSH1, 0b1100, Opcode.PUSH1, 0b1010, Opcode.OR]), 0b1110),
    (bytes([Opcode.PUSH1, 0b1100, Opcode.PUSH1, 0b1010, Opcode.XOR]), 0b0110),
])
def test_alu_semantics(code, expected):
    assert returned_word(run(with_return(code))) == expected


def test_arithmetic_wraps_modulo_2_256():
    code = with_return(bytes(
        [Opcode.PUSH1, 0, Opcode.NOT,          # 2^256 - 1
         Opcode.PUSH1, 1, Opcode.ADD]))        # +1 wraps to 0
    assert returned_word(run(code)) == 0
    code = with_return(bytes(
        [Opcode.PUSH1, 1, Opcode.PUSH1, 0, Opcode.SUB]))  # 0 - 1 wraps
    assert returned_word(run(code)) == (1 << 256) - 1


def test_push_immediate_is_zero_padded_past_code_end():
    receipt = run(with_return(bytes([Opcode.PUSH1, 7])[:1]) if False else
                  bytes([Opcode.PUSH4, 0xAA]))  # immediate truncated by EOF
    assert receipt.status is TxStatus.SUCCESS


def test_dup_swap_pc():
    code = with_return(bytes([Opcode.PUSH1, 4, Opcode.PUSH1, 9,
                              Opcode.SWAP1, Opcode.POP]))  # leaves 9... swap->[9,4], pop->9
    assert returned_word(run(code)) == 9
    code = with_return(bytes([Opcode.PUSH1, 6, Opcode.DUP1, Opcode.ADD]))
    assert returned_word(run(code)) == 12
    code = with_return(bytes([Opcode.PUSH1, 1, Opcode.POP, Opcode.PC]))
    assert returned_word(run(code)) == 3  # PC pushes its own offset


def test_jump_and_jumpi():
    # JUMP over an SSTORE to a JUMPDEST
    code = bytes([
        Opcode.PUSH1, 7, Opcode.JUMP,                      # 0..2
        Opcode.PUSH1, 1, Opcode.PUSH1, 1,                  # 3..6 (skipped)
        Opcode.JUMPDEST,                                   # 7
        Opcode.PUSH1, 42,                                  # 8..9
    ])
    receipt = run(with_return(code))
    assert returned_word(receipt) == 42

    # JUMPI taken and not taken
    code = with_return(bytes([
        Opcode.PUSH1, 1, Opcode.PUSH1, 8, Opcode.JUMPI,    # taken -> 8
        Opcode.PUSH1, 99, Opcode.POP,                       # skipped
        Opcode.JUMPDEST, Opcode.PUSH1, 5,
    ]))
    assert returned_word(run(code)) == 5


def test_jump_to_non_jumpdest_is_invalid():
    receipt = run(bytes([Opcode.PUSH1, 3, Opcode.JUMP, Opcode.PUSH1, 1]),
                  gas_limit=50_000)
    assert receipt.status is TxStatus.INVALID_OP
    assert receipt.gas_used == 50_000


def test_jumpdest_inside_push_immediate_is_invalid_target():
    # PUSH2 0x5B00 embeds a 0x5B byte at offset 1 of the immediate
    code = bytes([Opcode.PUSH1, 2, Opcode.JUMP, 0x5B, Opcode.STOP])
    # offset 2 is the JUMP itself; offset 3 is a real JUMPDEST byte though:
    receipt = run(bytes([Opcode.PUSH2, 0x5B, 0x00, Opcode.PUSH1, 1,
                         Opcode.JUMP]), gas_limit=50_000)
    assert receipt.status is TxStatus.INVALID_OP


def test_stack_overflow_halts():
    machine = Machine(bytes([Opcode.PUSH1, 1]), MerklePatriciaTrie(),
                      gas=10_000, block_height=0, schedule=SCHED)
    machine.stack = [0] * 1024
    assert machine.run() is TxStatus.STACK_ERROR


def test_invalid_opcode_consumes_all_gas():
    receipt = run(bytes([0xFE]), gas_limit=33_000)
    assert receipt.status is TxStatus.INVALID_OP
    assert receipt.gas_used == 33_000


# ---------------------------------------------------------------------------
# the static per-byte operation table
# ---------------------------------------------------------------------------

UNDEFINED_BYTES = [b for b in range(256) if b not in set(Opcode)]


def run_at_depth(byte, depth):
    """Run one instruction on a stack already `depth` zeros deep."""
    machine = Machine(bytes([byte]), MerklePatriciaTrie(), gas=100_000,
                      block_height=0, schedule=SCHED)
    machine.stack = [0] * depth
    return machine.run()


def test_operation_table_agrees_with_arity_and_handlers():
    widths = []
    for byte, operation in enumerate(machine_module._OPERATIONS):
        if byte in UNDEFINED_BYTES:
            assert operation is None
            continue
        op = Opcode(byte)
        need, room, width, handler = operation
        assert (need, room) == (ARITY[op][0],
                                STACK_LIMIT + ARITY[op][0] - ARITY[op][1])
        if op.name.startswith("PUSH"):
            assert handler is None
            widths.append(width)
        else:
            assert width == 0 and callable(handler)
    assert widths == list(range(1, 33))


@pytest.mark.parametrize("depth", [0, STACK_LIMIT])
def test_undefined_bytes_halt_before_any_stack_check(depth):
    for byte in UNDEFINED_BYTES:
        assert run_at_depth(byte, depth) is TxStatus.INVALID_OP


@pytest.mark.parametrize("depth", [STACK_LIMIT - 1, STACK_LIMIT])
def test_stack_room_matches_the_overflow_rule(depth):
    for op, (need, out) in ARITY.items():
        overflows = depth - need + out > STACK_LIMIT
        status = run_at_depth(op, depth)
        assert (status is TxStatus.STACK_ERROR) == overflows, op.name


def test_schedules_in_turn_each_charge_their_own_costs():
    poly = GasSchedule.parse(default_schedule().format().replace(
        "SLOAD = 200", "SLOAD = poly:100.0,0.5"))
    code = bytes([Opcode.PUSH1, 0, Opcode.SLOAD, Opcode.POP, Opcode.STOP])
    trie = MerklePatriciaTrie()
    for schedule, charged in [(SCHED, 200), (poly, 600), (SCHED, 200),
                              (poly, 600)]:
        receipt, samples = run_sampled(code, trie=trie, height=1000,
                                       schedule=schedule)
        assert samples["SLOAD"][1] == charged
        assert receipt.gas_used == 21_000 + 3 + charged + 2


def test_mstore_mload_and_memory_expansion_charges():
    # storing at offset 0 costs 3 + C(1); loading far away re-expands
    code = with_return(bytes([
        Opcode.PUSH1, 0x11, Opcode.PUSH1, 0, Opcode.MSTORE,
        Opcode.PUSH1, 0, Opcode.MLOAD,
    ]))
    receipt, samples = run_sampled(code)
    assert returned_word(receipt) == 0x11
    # first MSTORE expands 0 -> 1 word (3 + 3); the return-path MSTORE
    # writes into already-paid memory (3 + 0)
    assert samples["MSTORE"][:2] == [2, (3 + 3) + 3]

    code = bytes([Opcode.PUSH1, 0x11, Opcode.PUSH2, 0x10, 0x00,
                  Opcode.MSTORE])  # offset 4096 -> 129 words
    _, samples = run_sampled(code)
    words = (4096 + 32 + 31) // 32
    expected = 3 + 3 * words + words * words // 512
    assert samples["MSTORE"][1] == expected


@pytest.mark.parametrize("offset", [10 ** 6, 2 ** 255 - 1])
def test_zero_size_return_touches_no_memory(offset):
    code = bytes([Opcode.PUSH1, 0, Opcode.PUSH32]) + offset.to_bytes(32, "big")
    machine = Machine(code + bytes([Opcode.RETURN]), MerklePatriciaTrie(),
                      gas=100, block_height=0, schedule=SCHED)
    assert machine.run() is TxStatus.SUCCESS
    assert machine.return_data == b""
    assert len(machine.memory) == 0 and machine.memory_words == 0
    assert machine.gas == 100 - 3 - 3  # two pushes; RETURN costs 0 + C(0)


def push(value):
    op, immediate = push_for(value)
    return bytes([op]) + immediate


def mstore(offset):
    return push(0x11) + push(offset) + bytes([Opcode.MSTORE])


def mload(offset):
    return push(offset) + bytes([Opcode.MLOAD, Opcode.POP])


def ret(offset, size):
    return push(size) + push(offset) + bytes([Opcode.RETURN])


# program, gas, status, words held after the run, words counted in the
# run's work (every expansion priced, paid or not)
MEMORY_CASES = [
    (mstore(0) + mload(64) + ret(3906, 0), 1_000, TxStatus.SUCCESS, 3, 3),
    (ret(0, 200), 100, TxStatus.SUCCESS, 7, 7),
    (mstore(32) + ret(0, 64) + mstore(0), 1_000, TxStatus.SUCCESS, 2, 2),
    # MLOAD at 0 costs 3 + C(1) = 6 after the push: affordable to the last
    # gas, then not
    (push(0) + bytes([Opcode.MLOAD]), 3 + 6, TxStatus.SUCCESS, 1, 1),
    (push(0) + bytes([Opcode.MLOAD]), 3 + 5, TxStatus.OUT_OF_GAS, 0, 1),
    # an expansion to 2049 words that the gas left cannot pay
    (mstore(0) + mload(0x10000), 1_000, TxStatus.OUT_OF_GAS, 1, 2049),
    # 4 GiB less 32 bytes: priced, never allocated
    (mload(0xFFFFFFC0), 10 ** 6, TxStatus.OUT_OF_GAS, 0, 0x7FFFFFF),
    # past the 2^32 bound: halts before it is priced
    (mload(0xFFFFFFF0), 10 ** 6, TxStatus.OUT_OF_GAS, 0, 0),
]


@pytest.mark.parametrize("code,gas,status,words,counted",
                         [status_case(*case) for case in MEMORY_CASES])
def test_memory_grows_only_when_its_expansion_is_paid(code, gas, status,
                                                      words, counted):
    trie = MerklePatriciaTrie()
    machine = Machine(code, trie, gas=gas, block_height=0, schedule=SCHED)
    assert machine.run() is status
    assert machine.memory_words == words
    assert len(machine.memory) == 32 * words
    assert trie.store.work.memory_words == counted


def test_memory_holds_exactly_its_paid_words_on_random_programs():
    rng = random.Random(11)
    trie = MerklePatriciaTrie()
    for _ in range(400):
        code = random_byte_program(rng)
        machine = Machine(code, trie, gas=rng.choice([40, 400, 4_000]),
                          block_height=0, schedule=SCHED)
        machine.run()
        assert len(machine.memory) == 32 * machine.memory_words


# ---------------------------------------------------------------------------
# CALLCODE-lite
# ---------------------------------------------------------------------------

def make_trie_with_library():
    trie = MerklePatriciaTrie()
    store_code(trie, 1, bytes([Opcode.PUSH1, 0x5A, Opcode.PUSH1, 2,
                               Opcode.SSTORE, Opcode.STOP]))
    return trie


def test_callcode_runs_callee_in_caller_storage():
    trie = make_trie_with_library()
    code = bytes([Opcode.PUSH1, 1, Opcode.CALLCODE, Opcode.STOP])
    receipt, samples = run_sampled(code, trie=trie)
    assert receipt.status is TxStatus.SUCCESS
    assert trie.get(storage_key(2)) == b"\x5a"
    # callee instructions are sampled individually, CALLCODE charges G_call
    assert samples["CALLCODE"][:2] == [1, 700]
    assert samples["SSTORE"][0] == 1
    assert receipt.gas_used == 21_000 + sample_gas_total(samples)


def test_callcode_missing_code_pushes_failure():
    code = with_return(bytes([Opcode.PUSH1, 9, Opcode.CALLCODE]))
    receipt = run(code, trie=MerklePatriciaTrie())
    assert receipt.status is TxStatus.SUCCESS
    assert returned_word(receipt) == 0


def test_callcode_success_pushes_one():
    trie = make_trie_with_library()
    code = with_return(bytes([Opcode.PUSH1, 1, Opcode.CALLCODE]))
    assert returned_word(run(code, trie=trie)) == 1


def test_callcode_depth_limit_fails_cleanly():
    trie = MerklePatriciaTrie()
    # code id 0 calls itself forever; depth bound turns the deepest call
    # into a pushed 0 and the recursion unwinds successfully
    store_code(trie, 0, bytes([Opcode.PUSH1, 0, Opcode.CALLCODE,
                               Opcode.POP, Opcode.STOP]))
    code = bytes([Opcode.PUSH1, 0, Opcode.CALLCODE, Opcode.POP, Opcode.STOP])
    receipt, samples = run_sampled(code, trie=trie, gas_limit=500_000)
    assert receipt.status is TxStatus.SUCCESS
    assert samples["CALLCODE"][0] == 16


def test_callcode_child_out_of_gas_fails_transaction():
    trie = MerklePatriciaTrie()
    store_code(trie, 1, bytes([Opcode.PUSH1, 1, Opcode.PUSH1, 1,
                               Opcode.SSTORE, Opcode.STOP]))
    code = bytes([Opcode.PUSH1, 1, Opcode.CALLCODE, Opcode.STOP])
    receipt = run(code, trie=trie, gas_limit=21_000 + 3 + 700 + 100)
    assert receipt.status is TxStatus.OUT_OF_GAS
    assert receipt.gas_used == 21_000 + 803


# ---------------------------------------------------------------------------
# metering completeness and determinism
# ---------------------------------------------------------------------------

def random_program_receipts(n_programs, seed):
    """Valid random programs via the workload assembler, on a shared trie:
    each transaction's receipt and samples."""
    spec = WorkloadSpec(
        transactions_per_block=1, program_length=10,
        mix={"SLOAD": 0.2, "SSTORE": 0.15, "ADD": 0.1, "MUL": 0.05,
             "PUSH1": 0.1, "MSTORE": 0.1, "MLOAD": 0.05, "ISZERO": 0.05,
             "DUP1": 0.05, "SWAP1": 0.05, "CALLCODE": 0.05, "PC": 0.05},
        fresh_key_rate=0.5, seed=seed, initial_keys=8)
    generator = WorkloadGenerator(spec, SCHED)
    trie = MerklePatriciaTrie()
    generator.write_genesis(trie)
    receipts = []
    for height in range(n_programs):
        block = generator.generate_block(height)
        for tx in block.transactions:
            receipts.append(transaction_samples(
                tx.code, trie, tx.gas_limit, height, SCHED))
    return receipts


def test_metering_completeness_on_randomized_programs():
    receipts = random_program_receipts(150, seed=21)
    assert all(r.status is TxStatus.SUCCESS for r, _ in receipts)
    for receipt, samples in receipts:
        assert receipt.gas_used == 21_000 + sample_gas_total(samples)
        assert receipt.instructions == sum(s[0] for s in samples.values())


def test_gas_used_never_decreases_as_the_program_grows():
    code = bytes([Opcode.PUSH1, 1, Opcode.PUSH1, 2, Opcode.ADD,
                  Opcode.POP, Opcode.STOP])
    boundaries = [0, 2, 4, 5, 6, 7]   # the offset of each instruction
    used = []
    for end in boundaries:
        receipt = run(code[:end], gas_limit=22_000)
        assert receipt.status is TxStatus.SUCCESS
        used.append(receipt.gas_used)
    assert used == sorted(used)
    assert used[0] == 21_000 and used[-1] == 21_000 + 3 + 3 + 3 + 2 + 0


class CountingClock:
    def __init__(self):
        self.calls = 0

    def now_ns(self):
        self.calls += 1
        return self.calls


@pytest.mark.parametrize("code,status,fixed", [
    # tx start, EVM start and end, TX end, DB start and end of the commit
    status_case(bytes([Opcode.PUSH1, 1, Opcode.PUSH1, 2, Opcode.ADD,
                       Opcode.STOP]), TxStatus.SUCCESS, 6),
    # tx start, EVM start and end, TX end, and the start read of the
    # halting ADD; a failed transaction commits nothing
    status_case(bytes([Opcode.PUSH1, 1, Opcode.PUSH1, 2, Opcode.ADD,
                       Opcode.ADD]), TxStatus.STACK_ERROR, 5),
])
def test_two_clock_reads_per_executed_instruction(code, status, fixed):
    clock = CountingClock()
    receipt = run(code, clock=clock)
    assert receipt.status is status
    assert clock.calls == 2 * receipt.instructions + fixed


def test_jumpdest_scan_runs_only_on_the_first_jump(monkeypatch):
    class Scanned(Exception):
        pass

    def scan(code):
        raise Scanned

    monkeypatch.setattr(machine_module, "_scan_jumpdests", scan)
    assert run(bytes([Opcode.PUSH1, 1, Opcode.PUSH1, 2, Opcode.ADD,
                      Opcode.STOP])).status is TxStatus.SUCCESS
    with pytest.raises(Scanned):
        run(bytes([Opcode.PUSH1, 3, Opcode.JUMP, Opcode.JUMPDEST]))


@pytest.mark.parametrize("library,status", [
    # the child's own JUMPDEST at 5 is a target; offset 5 of the caller
    # is a PUSH1
    status_case(bytes([Opcode.PUSH1, 5, Opcode.JUMP, 0xFE, 0xFE,
                       Opcode.JUMPDEST, Opcode.STOP]), TxStatus.SUCCESS),
    # offset 4 is a JUMPDEST in the caller but not in the child
    status_case(bytes([Opcode.PUSH1, 4, Opcode.JUMP, 0xFE, 0xFE,
                       Opcode.JUMPDEST]), TxStatus.INVALID_OP),
])
def test_callcode_child_jumps_within_its_own_code(library, status):
    trie = MerklePatriciaTrie()
    store_code(trie, 1, library)
    code = bytes([Opcode.PUSH1, 4, Opcode.JUMP, 0xFE, Opcode.JUMPDEST,
                  Opcode.PUSH1, 1, Opcode.CALLCODE, Opcode.STOP])
    receipt = run(code, trie=trie)
    assert receipt.status is status


# Library code stored under small code ids, so that random CALLCODEs reach
# it; ids 1 and 2 jump within their own code.
GOLDEN_LIBRARIES = {
    0: bytes([Opcode.PUSH1, 0x5A, Opcode.PUSH1, 2, Opcode.SSTORE,
              Opcode.STOP]),
    1: bytes([Opcode.PUSH1, 4, Opcode.JUMP, 0xFE, Opcode.JUMPDEST,
              Opcode.PUSH1, 3, Opcode.SLOAD, Opcode.STOP]),
    2: bytes([Opcode.PUSH1, 1, Opcode.PUSH1, 6, Opcode.JUMPI, 0xFE,
              Opcode.JUMPDEST, Opcode.PUSH1, 2, Opcode.CALLCODE,
              Opcode.STOP]),
    3: bytes([Opcode.PUSH1, 9, Opcode.JUMP]),   # not a JUMPDEST: halts
}

# Hand-written programs that pin the jump and call cases the random batch
# may miss.
GOLDEN_FIXED = [
    # taken JUMP over an invalid byte
    bytes([Opcode.PUSH1, 4, Opcode.JUMP, 0xFE, Opcode.JUMPDEST,
           Opcode.PUSH1, 1, Opcode.STOP]),
    # taken JUMP to a JUMPDEST in the last byte
    bytes([Opcode.PUSH1, 3, Opcode.JUMP, Opcode.JUMPDEST]),
    # untaken JUMPI falls through, taken JUMPI lands on a JUMPDEST
    bytes([Opcode.PUSH1, 0, Opcode.PUSH1, 0xFF, Opcode.JUMPI,
           Opcode.PUSH1, 1, Opcode.PUSH1, 12, Opcode.JUMPI, 0xFE, 0xFE,
           Opcode.JUMPDEST, Opcode.STOP]),
    # a 0x5B byte inside a PUSH immediate is not a jump target
    bytes([Opcode.PUSH2, 0x5B, 0x00, Opcode.PUSH1, 1, Opcode.JUMP]),
    # CALLCODE into each library
    bytes([Opcode.PUSH1, 0, Opcode.CALLCODE, Opcode.PUSH1, 1,
           Opcode.CALLCODE, Opcode.PUSH1, 2, Opcode.CALLCODE,
           Opcode.ADD, Opcode.ADD]),
    bytes([Opcode.PUSH1, 3, Opcode.CALLCODE, Opcode.STOP]),
]

GOLDEN_ALPHABET = [
    Opcode.STOP, Opcode.ADD, Opcode.MUL, Opcode.SUB, Opcode.DIV, Opcode.LT,
    Opcode.GT, Opcode.EQ, Opcode.ISZERO, Opcode.AND, Opcode.OR, Opcode.XOR,
    Opcode.NOT, Opcode.POP, Opcode.PC, Opcode.JUMPDEST, Opcode.JUMP,
    Opcode.JUMPI, Opcode.MLOAD, Opcode.MSTORE, Opcode.SLOAD, Opcode.SSTORE,
    Opcode.RETURN, Opcode.CALLCODE, Opcode.DUP1, Opcode.DUP2, Opcode.SWAP1,
    Opcode.JUMPDEST, Opcode.JUMPDEST,   # weighted, so random jumps land
]


def random_byte_program(rng):
    """A short program: a few small PUSH1s to fill the stack, then mostly
    PUSH1s and implemented opcodes, with uniformly random bytes mixed in
    (undefined opcodes, wide PUSHes)."""
    length = rng.randrange(4, 60)
    code = bytearray()
    for _ in range(rng.randrange(8)):
        code += bytes([Opcode.PUSH1, rng.randrange(length)])
    while len(code) < length:
        roll = rng.random()
        if roll < 0.1:
            code.append(rng.randrange(256))
        elif roll < 0.45:
            code += bytes([Opcode.PUSH1, rng.randrange(length)])
        else:
            code.append(rng.choice(GOLDEN_ALPHABET))
    return bytes(code)


def golden_receipts(seed=20, n_random=1000):
    trie = MerklePatriciaTrie()
    for code_id, code in GOLDEN_LIBRARIES.items():
        store_code(trie, code_id, code)
    trie.root_hash()
    clock = VirtualClock(trie.store.work)
    rng = random.Random(seed)
    programs = GOLDEN_FIXED + [random_byte_program(rng)
                               for _ in range(n_random)]
    receipts = []
    for height, code in enumerate(programs):
        gas_limit = 21_000 + rng.choice([40, 400, 4_000, 40_000])
        receipts.append(transaction_samples(code, trie, gas_limit, height,
                                            SCHED, clock=clock))
    return receipts, trie.root_hash()


def receipts_digest(receipts, root):
    h = hashlib.sha256()
    for r, samples in receipts:
        samples = sorted((name, *s) for name, s in samples.items())
        h.update(repr((r.status, r.gas_used, r.return_data.hex(),
                       r.instructions, samples)).encode() + b"\n")
    h.update(root)
    return h.hexdigest()


# sha256 of the golden batch under the virtual clock. The virtual sample
# times pin the work done inside each instruction's timed region.
INTERPRETER_GOLDEN = (
    "a36130b9544a5c8c7384c609007b4443ff2407891f0703770cec67aa726a4af5")


def test_interpreter_matches_golden_receipts():
    receipts, root = golden_receipts()
    statuses = {r.status for r, _ in receipts}
    assert statuses == {TxStatus.SUCCESS, TxStatus.OUT_OF_GAS,
                        TxStatus.INVALID_OP, TxStatus.STACK_ERROR}
    sampled = set().union(*(samples for _, samples in receipts))
    assert {"JUMP", "JUMPI", "CALLCODE", "SSTORE", "SLOAD",
            "RETURN"} <= sampled
    assert receipts_digest(receipts, root) == INTERPRETER_GOLDEN


def charged_and_sampled(code, trie, **kwargs):
    """Instructions the work counter counted, the receipt, and the sampled
    instruction count."""
    before = trie.store.work.instructions
    receipt, samples = run_sampled(code, trie=trie, **kwargs)
    return (trie.store.work.instructions - before, receipt,
            sum(s[0] for s in samples.values()))


def test_receipt_instructions_match_the_work_count():
    """Samples count sampled instructions, child calls included, and the
    work counters, which the receipt reports, count completed ones: the two
    agree, also for a JUMP or JUMPI whose target check halts after its
    charge."""
    trie = MerklePatriciaTrie()
    for code_id, code in GOLDEN_LIBRARIES.items():
        store_code(trie, code_id, code)
    rng = random.Random(3)
    programs = GOLDEN_FIXED + [random_byte_program(rng) for _ in range(300)]
    for height, code in enumerate(programs):
        charged, receipt, sampled = charged_and_sampled(
            code, trie, height=height,
            gas_limit=21_000 + rng.choice([40, 400, 1_000, 4_000]))
        assert charged == receipt.instructions == sampled
    # library 0 runs 4 instructions; library 3 runs 1, then its JUMP halts
    call = bytes([Opcode.PUSH1, 0, Opcode.CALLCODE])
    for code, gas, status, sampled, charged in [
            (call + bytes([Opcode.STOP]), 200_000, TxStatus.SUCCESS, 7, 7),
            (call, 21_000 + 1_000, TxStatus.OUT_OF_GAS, 4, 4),
            (call + bytes([Opcode.ADD]), 200_000, TxStatus.STACK_ERROR, 6, 6),
            (call + bytes([0xFE]), 200_000, TxStatus.INVALID_OP, 6, 6),
            (bytes([Opcode.PUSH1, 9, Opcode.JUMP]), 200_000,
             TxStatus.INVALID_OP, 1, 1),
            (bytes([Opcode.PUSH1, 3, Opcode.CALLCODE, Opcode.STOP]), 200_000,
             TxStatus.INVALID_OP, 3, 3)]:
        work, receipt, count = charged_and_sampled(code, trie, gas_limit=gas)
        assert receipt.status is status
        assert (count, work) == (sampled, charged)
        assert receipt.instructions == work


def test_static_behavior_deterministic_across_runs():
    spec_receipts = random_program_receipts(40, seed=5)
    again = random_program_receipts(40, seed=5)
    for (a, a_samples), (b, b_samples) in zip(spec_receipts, again):
        assert a.status == b.status
        assert a.gas_used == b.gas_used
        assert a.return_data == b.return_data
        assert {k: v[:2] for k, v in a_samples.items()} == \
               {k: v[:2] for k, v in b_samples.items()}


def test_fixture_program_gas_matches_hand_sum():
    # PUSH1 x2 (3+3) + SSTORE fresh (20000) + PUSH1 (3) + SLOAD (200)
    # + POP (2) + PC (2) + JUMPDEST (1) + STOP (0) = 20214
    code = bytes([
        Opcode.PUSH1, 0x01, Opcode.PUSH1, 0x40, Opcode.SSTORE,
        Opcode.PUSH1, 0x40, Opcode.SLOAD, Opcode.POP,
        Opcode.PC, Opcode.POP,
        Opcode.JUMPDEST,
        Opcode.STOP,
    ])
    hand_sum = 3 + 3 + 20_000 + 3 + 200 + 2 + 2 + 2 + 1 + 0
    receipt = run(code)
    assert receipt.gas_used == 21_000 + hand_sum


def test_block_height_polynomial_schedule():
    text = default_schedule().format().replace(
        "SLOAD = 200", "SLOAD = poly:100.0,0.5")
    sched = GasSchedule.parse(text)
    code = bytes([Opcode.PUSH1, 0, Opcode.SLOAD, Opcode.POP, Opcode.STOP])
    _, low = run_sampled(code, height=0, schedule=sched)
    _, high = run_sampled(code, height=1000, schedule=sched)
    assert low["SLOAD"][1] == 100
    assert high["SLOAD"][1] == 600


def test_polynomial_past_float_range_halts_out_of_gas():
    sched = GasSchedule.parse(default_schedule().format().replace(
        "SLOAD = 200", "SLOAD = poly:1e308,1e308"))
    code = bytes([Opcode.PUSH1, 0, Opcode.SLOAD, Opcode.POP, Opcode.STOP])
    receipt, samples = run_sampled(code, height=2, schedule=sched)
    assert receipt.status is TxStatus.OUT_OF_GAS
    assert receipt.gas_used == 200_000
    assert "SLOAD" not in samples


def test_virtual_clock_gives_deterministic_durations():
    def durations():
        trie = MerklePatriciaTrie()
        clock = VirtualClock(trie.store.work)
        code = bytes([Opcode.PUSH1, 3, Opcode.PUSH1, 9, Opcode.SSTORE,
                      Opcode.PUSH1, 9, Opcode.SLOAD, Opcode.POP, Opcode.STOP])
        return transaction_samples(code, trie, 100_000, 0, SCHED,
                                   clock=clock)[1]
    assert durations() == durations()
