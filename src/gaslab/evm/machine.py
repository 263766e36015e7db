"""Stack-machine interpreter with per-instruction gas metering and timing.

Each transaction runs in its own executive: a `Machine` holding the
program counter, a 256-bit word stack (max depth 1024), byte-addressed
memory, the remaining gas, and a storage view over the world trie. Writes
are buffered in the executive; `gaslab.chain` lands them in the trie when a
transaction succeeds, each through `write_slot`, the one slot-value codec
(minimal big-endian bytes; zero is the empty value, which deletes the key).

Metering contract: the gas for an instruction is deducted before its effect
is applied. The dispatch loop, with decode, checks, charge and sample
bookkeeping inline, is `_loop`: the native module's `interpret`
(`gaslab.native`) when that builds, else `_loop_python`, which is also the
reference for the C loop: the same state, receipts and sample totals.
`_loop_python` calls a Python handler for every effect but PUSH, and those
handlers define each instruction's semantics. The C loop, like the jump
tables of compiled clients, runs STOP and the effects that need only the
stack or the loop's own pc itself: ADD, MUL, SUB, DIV, LT, GT, EQ, ISZERO,
AND, OR, XOR, NOT, POP, PC, JUMPDEST, DUP1-16 and SWAP1-16, on Python ints
as their handlers compute them. It calls the same handlers for every other
effect. Both loops put `pc` and `gas` on the machine before each handler
and each `_dynamic_cost` call, and whatever path a run exits by, the C loop
leaves the `pc` and `gas` that `_loop_python` leaves. Between those points
the C loop meters gas in a C int64, as geth's `uint64` and EVMC's
`int64_t` gas fields do, while the gas is an int in [0, 2^63) and the
cost one too; any other gas or cost (a 2^70 constant, `math.inf` from an
overflowing polynomial) is compared and subtracted as a Python object.
`Machine.run` only turns a `_Halt` into the final status. As in geth's
jump table, one static table gives each opcode byte one entry, `(need,
room, push_width, handler)`: the stack must hold `need` to `room =
STACK_LIMIT + need - out` items, and an undefined byte has no entry, so it
halts before any stack check. PUSH1-32 run inline, zero-padding an
immediate cut off by the end of the code. Cost comes from the schedule's
per-byte table, `GasSchedule.by_byte`. MLOAD, MSTORE and RETURN size
their memory once, in the cost step: it adds the expansion to the rule's
cost and, only if the whole charge is affordable, grows `memory`, so the
handlers read and write memory that is already there. The timed region,
between two clock reads, covers decode, the stack check, dynamic cost
evaluation, the charge and the effect, an inline PUSH's included; only the
loop itself and sample bookkeeping stay outside, so the summed instruction
times track the interpreter-level span closely. Exceptional halts (out of
gas, invalid opcode or jump target, stack faults) consume all remaining
gas. Samples, and the instruction count in the run's work counters, cover
successful instructions only.

Every run samples into a `SampleSink`, and `gaslab.chain` records every
span there. Both loops sample the same way: as each instruction ends, its
count, gas and time are added, in that order, into the sink's open
window, three signed 64-bit arrays indexed by opcode byte, so a total past
2^63 - 1 raises OverflowError in either loop. The C loop writes those
arrays through their buffers. Under `WallClock` it also reads the clock
itself and adds the run's instruction count to the work counters as the
run exits; under any other clock it calls `now_ns` and counts each
instruction as it ends, since `VirtualClock` reads that count. A caller
that gives no sink gets a fresh one, so there is one path for every run.

JUMPDEST analysis runs on first use, as in geth: the first JUMP or JUMPI
that checks a destination scans the code, inside that instruction's timed
region, and the executive keeps the result. A transaction that never jumps
never scans.

CALLCODE is implemented in a lite form: it pops a code id, loads the code
stored under that id in the world trie, and runs it in a child executive
that shares the caller's storage buffer and sink and receives all
remaining gas. Its own sample covers code resolution and child setup; the
child's instructions are sampled individually, so no gas or time is
double-counted. A child that halts exceptionally fails the whole
transaction (all gas was forwarded, so nothing usable survives anyway);
beyond the depth limit the call is skipped and pushes failure.
"""

from __future__ import annotations

from functools import cached_property, partial
from typing import Optional

from .. import native
from ..clock import WallClock
from ..metrics import SampleSink
from ..trie import MerklePatriciaTrie
from .opcodes import ARITY, MEMORY_OPCODES, Opcode
from .schedule import GasSchedule, SstoreRule, memory_expansion_cost

WORD_MASK = (1 << 256) - 1
STACK_LIMIT = 1024
CALL_DEPTH_LIMIT = 16

STORAGE_PREFIX = b"slot:"
CODE_PREFIX = b"code:"


class TxStatus:
    """A run's final status: plain strings, each its receipts.csv name."""

    SUCCESS = "success"
    OUT_OF_GAS = "out-of-gas"
    INVALID_OP = "invalid-op"      # undefined opcode or bad jump target
    STACK_ERROR = "stack-error"


def storage_key(slot: int) -> bytes:
    return STORAGE_PREFIX + slot.to_bytes(32, "big")


def code_key(code_id: int) -> bytes:
    return CODE_PREFIX + code_id.to_bytes(32, "big")


def store_code(trie: MerklePatriciaTrie, code_id: int, code: bytes) -> None:
    trie.insert(code_key(code_id), code)


def write_slot(trie: MerklePatriciaTrie, slot: int, value: int) -> None:
    """Store a slot value as minimal big-endian bytes; 0 is b"", a delete."""
    trie.insert(storage_key(slot),
                value.to_bytes((value.bit_length() + 7) // 8, "big"))


class _Halt(Exception):
    def __init__(self, status: str):
        self.status = status


class Machine:
    """One executive: volatile state plus a storage view over the trie."""

    def __init__(self, code: bytes, trie: MerklePatriciaTrie, gas: int,
                 block_height: int, schedule: GasSchedule,
                 clock=WallClock, storage_buffer: Optional[dict] = None,
                 depth: int = 0, sink: Optional[SampleSink] = None):
        self.code = code
        self.trie = trie
        self.gas = gas
        self.block_height = block_height
        self.schedule = schedule
        self.clock = clock
        self.work = trie.store.work
        self.depth = depth
        self.pc = 0
        self.stack: list[int] = []
        self.memory = bytearray()
        self.memory_words = 0
        self.storage_buffer: dict[int, int] = (
            storage_buffer if storage_buffer is not None else {})
        self.return_data = b""
        self.status: Optional[str] = None   # a TxStatus string once halted
        # one sink for the whole call tree; its open window takes the samples
        self.sink = sink if sink is not None else SampleSink()

    @cached_property
    def jumpdests(self) -> frozenset[int]:
        return _scan_jumpdests(self.code)

    # -- storage view -----------------------------------------------------

    def storage_read(self, slot: int) -> int:
        if slot in self.storage_buffer:
            return self.storage_buffer[slot]
        raw = self.trie.get(storage_key(slot))
        return int.from_bytes(raw, "big") if raw else 0

    # -- execution ----------------------------------------------------------

    def run(self) -> str:
        """Execute instructions until a halt, sampling each one."""
        try:
            _loop(self)
        except _Halt as halt:
            self.status = halt.status
            self.gas = 0  # exceptional halts consume the remaining gas
        return self.status

    # -- gas ---------------------------------------------------------------

    def _dynamic_cost(self, byte: int, rule) -> int:
        if isinstance(rule, SstoreRule):
            slot, value = self.stack[-1], self.stack[-2]
            current = self.storage_read(slot)
            return rule.set_cost if current == 0 and value != 0 else rule.reset_cost
        cost = rule.base_cost(self.block_height)
        if byte not in MEMORY_OPCODES:
            return cost
        offset = self.stack[-1]
        size = 32 if byte != Opcode.RETURN else self.stack[-2]
        if size == 0:   # a zero-size access touches no memory
            return cost
        end = offset + size
        if end > 2 ** 32:   # desk-scale sanity bound
            raise _Halt(TxStatus.OUT_OF_GAS)
        words, new_words = self.memory_words, (end + 31) // 32
        if new_words > words:
            cost += memory_expansion_cost(words, new_words)
            self.work.memory_words += new_words - words
            if cost <= self.gas:   # grow only memory that is paid for
                self.memory.extend(bytes(32 * (new_words - words)))
                self.memory_words = new_words
        return cost

    # -- CALLCODE-lite -------------------------------------------------------

    def _spawn_child(self, code_id: int) -> Optional["Machine"]:
        if self.depth + 1 >= CALL_DEPTH_LIMIT:
            self.stack.append(0)
            return None
        code = self.trie.get(code_key(code_id))
        if code is None:
            self.stack.append(0)
            return None
        return Machine(code, self.trie, self.gas, self.block_height,
                       self.schedule, clock=self.clock,
                       storage_buffer=self.storage_buffer,
                       depth=self.depth + 1, sink=self.sink)


def _loop_python(m: Machine) -> None:
    """Hot path: the dispatch loop without the native module, and the
    reference that `_native.interpret` must match."""
    code = m.code
    end = len(code)
    pc = m.pc
    stack = m.stack
    rules = m.schedule.by_byte
    work = m.work
    now_ns = m.clock.now_ns
    sink = m.sink
    counts, gas_totals, times = sink.counts, sink.gas, sink.times
    while m.status is None:
        if pc >= end:   # running off the end stops
            m.status = TxStatus.SUCCESS
            break
        start = now_ns()
        byte = code[pc]
        operation = _OPERATIONS[byte]
        if operation is None:
            raise _Halt(TxStatus.INVALID_OP)
        need, room, width, handler = operation
        if not need <= len(stack) <= room:
            raise _Halt(TxStatus.STACK_ERROR)
        rule = rules[byte]
        if type(rule) is int:
            cost = rule
        else:
            m.pc = pc
            cost = m._dynamic_cost(byte, rule)
        if cost > m.gas:
            raise _Halt(TxStatus.OUT_OF_GAS)
        m.gas -= cost
        if width:
            pc += 1
            stop = pc + width
            value = int.from_bytes(code[pc:stop], "big")
            if stop > end:   # cut off by the end: zero-padded
                value <<= 8 * (stop - end)
            stack.append(value)
            pc = stop
            child = None
        else:
            m.pc = pc + 1
            child = handler(m)
            pc = m.pc
        work.instructions += 1   # after the effect, which may halt
        duration = now_ns() - start

        counts[byte] += 1
        gas_totals[byte] += cost
        times[byte] += duration
        if child is not None:
            status = child.run()  # child samples land in the sink
            m.gas = child.gas
            if status is not TxStatus.SUCCESS:
                raise _Halt(status)
            stack.append(1)


def _scan_jumpdests(code: bytes) -> frozenset[int]:
    """Positions of JUMPDEST bytes that are not inside PUSH immediates."""
    dests = set()
    i = 0
    while i < len(code):
        byte = code[i]
        if byte == Opcode.JUMPDEST:
            dests.add(i)
        if Opcode.PUSH1 <= byte <= Opcode.PUSH32:
            i += byte - Opcode.PUSH1 + 1
        i += 1
    return frozenset(dests)


# ---------------------------------------------------------------------------
# instruction effects, dispatched by opcode byte
#
# Handlers run with pc already advanced past the opcode byte. The first
# operand popped is the top of stack. Only CALLCODE returns a value (the
# child executive). PUSH has no handler: the loop runs it inline.
# ---------------------------------------------------------------------------

def _op_stop(m: Machine):
    m.status = TxStatus.SUCCESS


def _op_add(m: Machine):
    s = m.stack
    a, b = s.pop(), s.pop()
    s.append((a + b) & WORD_MASK)


def _op_mul(m: Machine):
    s = m.stack
    a, b = s.pop(), s.pop()
    s.append((a * b) & WORD_MASK)


def _op_sub(m: Machine):
    s = m.stack
    a, b = s.pop(), s.pop()
    s.append((a - b) & WORD_MASK)


def _op_div(m: Machine):
    s = m.stack
    a, b = s.pop(), s.pop()
    s.append(a // b if b else 0)


def _op_lt(m: Machine):
    s = m.stack
    a, b = s.pop(), s.pop()
    s.append(1 if a < b else 0)


def _op_gt(m: Machine):
    s = m.stack
    a, b = s.pop(), s.pop()
    s.append(1 if a > b else 0)


def _op_eq(m: Machine):
    s = m.stack
    a, b = s.pop(), s.pop()
    s.append(1 if a == b else 0)


def _op_iszero(m: Machine):
    s = m.stack
    s.append(1 if s.pop() == 0 else 0)


def _op_and(m: Machine):
    s = m.stack
    a, b = s.pop(), s.pop()
    s.append(a & b)


def _op_or(m: Machine):
    s = m.stack
    a, b = s.pop(), s.pop()
    s.append(a | b)


def _op_xor(m: Machine):
    s = m.stack
    a, b = s.pop(), s.pop()
    s.append(a ^ b)


def _op_not(m: Machine):
    s = m.stack
    s.append(s.pop() ^ WORD_MASK)


def _op_pop(m: Machine):
    m.stack.pop()


def _op_pc(m: Machine):
    m.stack.append(m.pc - 1)


def _op_jumpdest(m: Machine):
    pass


def _op_jump(m: Machine):
    dest = m.stack.pop()
    if dest not in m.jumpdests:
        raise _Halt(TxStatus.INVALID_OP)
    m.pc = dest


def _op_jumpi(m: Machine):
    s = m.stack
    dest, cond = s.pop(), s.pop()
    if cond:
        if dest not in m.jumpdests:
            raise _Halt(TxStatus.INVALID_OP)
        m.pc = dest


def _op_mload(m: Machine):
    offset = m.stack.pop()
    m.stack.append(int.from_bytes(m.memory[offset:offset + 32], "big"))


def _op_mstore(m: Machine):
    s = m.stack
    offset, value = s.pop(), s.pop()
    m.memory[offset:offset + 32] = value.to_bytes(32, "big")


def _op_sload(m: Machine):
    s = m.stack
    s.append(m.storage_read(s.pop()))


def _op_sstore(m: Machine):
    s = m.stack
    slot = s.pop()
    m.storage_buffer[slot] = s.pop()


def _op_return(m: Machine):
    s = m.stack
    offset, size = s.pop(), s.pop()
    m.return_data = bytes(m.memory[offset:offset + size])
    m.status = TxStatus.SUCCESS


def _op_callcode(m: Machine):
    return m._spawn_child(m.stack.pop())


def _make_dup(k: int):
    def _op_dup(m: Machine):
        m.stack.append(m.stack[-k])
    return _op_dup


def _make_swap(k: int):
    def _op_swap(m: Machine):
        s = m.stack
        s[-1], s[-k - 1] = s[-k - 1], s[-1]
    return _op_swap


def _build_operations() -> list:
    """One entry per opcode byte, None where the byte is undefined."""
    handlers = {
        Opcode.STOP: _op_stop, Opcode.ADD: _op_add, Opcode.MUL: _op_mul,
        Opcode.SUB: _op_sub, Opcode.DIV: _op_div, Opcode.LT: _op_lt,
        Opcode.GT: _op_gt, Opcode.EQ: _op_eq, Opcode.ISZERO: _op_iszero,
        Opcode.AND: _op_and, Opcode.OR: _op_or, Opcode.XOR: _op_xor,
        Opcode.NOT: _op_not, Opcode.POP: _op_pop, Opcode.PC: _op_pc,
        Opcode.JUMPDEST: _op_jumpdest, Opcode.JUMP: _op_jump,
        Opcode.JUMPI: _op_jumpi, Opcode.MLOAD: _op_mload,
        Opcode.MSTORE: _op_mstore, Opcode.SLOAD: _op_sload,
        Opcode.SSTORE: _op_sstore, Opcode.RETURN: _op_return,
        Opcode.CALLCODE: _op_callcode,
    }
    for k in range(1, 17):
        handlers[Opcode.DUP1 + k - 1] = _make_dup(k)
        handlers[Opcode.SWAP1 + k - 1] = _make_swap(k)
    table: list = [None] * 256
    for op, (need, out) in ARITY.items():
        width = op - Opcode.PUSH1 + 1 if Opcode.PUSH1 <= op <= Opcode.PUSH32 \
            else 0
        table[op] = (need, STACK_LIMIT + need - out, width, handlers.get(op))
    return table


_OPERATIONS = _build_operations()

_loop = (_loop_python if native.module is None
         else partial(native.module.interpret, _OPERATIONS, _Halt,
                      (TxStatus.SUCCESS, TxStatus.INVALID_OP,
                       TxStatus.STACK_ERROR, TxStatus.OUT_OF_GAS)))

