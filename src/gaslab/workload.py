"""Synthetic transaction workloads that grow world state block by block.

A `WorkloadSpec` describes blocks statistically: transactions per block, a
frequency mix over featured opcodes, the featured-op count per program, and
the fresh-key rate that controls how often a storage write targets a brand
new slot (state growth) instead of an existing one.

Programs are assembled from self-contained snippets: each featured opcode
is emitted together with the PUSH/POP scaffolding it needs, so the stack is
empty between snippets and generated programs always execute successfully
given an adequate gas limit. The scaffolding instructions execute and get
sampled like any others; the mix frequencies therefore steer, but do not
equal, the executed opcode distribution.

Storage slots are integer-indexed. The generator keeps an exact pool
counter: writes either append the next unused index (fresh) or overwrite a
uniformly chosen existing one, so the trie's key count under a fresh-key
rate of 1 grows by exactly the number of storage writes, and not at all
under a rate of 0. Block content is a pure function of (spec, height, seed,
pool state), and pool state is itself deterministic, so whole-chain replay
is bit-reproducible.

Each block's programs come from one assembler call over a Mersenne
Twister seeded with `(seed << 32) ^ height`, and its draws are CPython's:
every bounded draw follows `randrange`/`choice` exactly (with `k =
n.bit_length()`, redraw `getrandbits(k)` until the result is below `n`,
as `Random._randbelow_with_getrandbits` does), so it skips their argument
handling but consumes the same words and yields the same values. Two
assemblers make these draws. `assemble` in the native extension
(`gaslab.native`) runs the twister in C, bit for bit as `random.Random`;
`_assemble_python` below makes them on a `random.Random` and runs when the
extension did not build. They emit the same bytes, except that the C one
raises OverflowError once the storage pool would reach 2**64 slots, which
only a test can reach: genesis would first write that many.
`tests/test_workload.py` pins both against `randrange` and `choice`, and
against a reference assembler that calls them directly.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, fields
from pathlib import Path

from . import native
from .evm.opcodes import Opcode, push_for
from .evm.schedule import GasSchedule
from .metrics import COUNTER_MAX
from .trie import MerklePatriciaTrie
from .evm.machine import store_code, write_slot

DEFAULT_GAS_PRICE_WEI = 20_000_000_000  # 20 gwei

# Library programs deployed at genesis, callable through CALLCODE.
CODE_LIBRARY: dict[int, bytes] = {
    0: bytes([Opcode.PUSH1, 2, Opcode.PUSH1, 3, Opcode.ADD,
              Opcode.POP, Opcode.STOP]),
    1: bytes([Opcode.PUSH1, 7, Opcode.PUSH1, 0, Opcode.MSTORE, Opcode.STOP]),
    2: bytes([Opcode.PUSH4, 0, 0, 0, 0, Opcode.SLOAD,
              Opcode.POP, Opcode.STOP]),
}

# How a snippet's bytes follow its operands: a constant tail, one of a
# tuple of tails picked uniformly, or a slot push (read or write) and a tail.
# `_native.c` reads the same numbers.
_TAIL, _PICK, _READ, _WRITE = range(4)


def _ops(*names: str) -> bytes:
    return bytes(Opcode[name] for name in names)


def _snippet_table() -> dict[str, tuple[int, int, object]]:
    """Featured opcode -> (literal operands, kind, tail or tuple of tails).

    Operand scaffolding uses PUSH2..PUSH32 so that PUSH1 counts stay at the
    featured rate (keeps its per-window mean from being swamped by scaffold
    samples). Memory offsets stay in bounded scratch memory (0..224).
    """
    table = {op: (2, _TAIL, _ops(op, "POP"))
             for op in ("ADD", "MUL", "SUB", "DIV", "LT", "GT", "EQ",
                        "AND", "OR", "XOR")}
    table.update({op: (1, _TAIL, _ops(op, "POP"))
                  for op in ("ISZERO", "NOT")})
    offsets = range(0, 256, 32)
    table.update(
        PUSH1=(0, _PICK, tuple(bytes([Opcode.PUSH1, value, Opcode.POP])
                               for value in range(1, 256))),
        POP=(1, _TAIL, _ops("POP")),
        PC=(0, _TAIL, _ops("PC", "POP")),
        JUMPDEST=(0, _TAIL, _ops("JUMPDEST")),
        MLOAD=(0, _PICK, tuple(bytes([Opcode.PUSH2, 0, offset,
                                      Opcode.MLOAD, Opcode.POP])
                               for offset in offsets)),
        MSTORE=(1, _PICK, tuple(bytes([Opcode.PUSH2, 0, offset,
                                       Opcode.MSTORE])
                                for offset in offsets)),
        SLOAD=(0, _READ, _ops("SLOAD", "POP")),
        SSTORE=(1, _WRITE, _ops("SSTORE")),
        DUP1=(1, _TAIL, _ops("DUP1", "POP", "POP")),
        SWAP1=(2, _TAIL, _ops("SWAP1", "POP", "POP")),
        CALLCODE=(0, _PICK, tuple(bytes([Opcode.PUSH1, lib_id,
                                         Opcode.CALLCODE, Opcode.POP])
                                  for lib_id in sorted(CODE_LIBRARY))),
    )
    return table


_SNIPPETS = _snippet_table()
SUPPORTED_FEATURED_OPS = sorted(_SNIPPETS)

# A literal operand is a nonzero value of random width w in 2..32 bytes:
# w = 2 + randrange(31), then randrange(256**(w-1), 256**w). Indexed by
# w - 2: (bits to draw, span of the value range, PUSHw opcode byte followed
# by the range's low bound, encoded size). Word width varies the way real
# contract operands do, which also gives arithmetic opcodes their natural
# cost spread. Width 1 is reserved so scaffolding never inflates PUSH1
# counts.
_OPERANDS = tuple(
    (8 * width, 255 << 8 * (width - 1),
     (Opcode.PUSH1 + width - 1) << 8 * width | 1 << 8 * (width - 1),
     width + 1)
    for width in range(2, 33))

_PUSH4_WORD = Opcode.PUSH4 << 32
_STOP = _ops("STOP")


def _below(getrandbits, n: int) -> int:
    """`randrange(n)` for n >= 1, drawing exactly as CPython does."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _push_slot(slot: int) -> bytes:
    """Fixed-width slot-index push so the companion mix stays stable."""
    if slot >> 32:
        op, imm = push_for(slot)
        return bytes([op]) + imm
    return (_PUSH4_WORD | slot).to_bytes(5, "big")


class WorkloadError(ValueError):
    """Invalid workload description."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    return _is_int(value)


@dataclass(frozen=True)
class WorkloadSpec:
    transactions_per_block: int
    program_length: int              # featured opcodes per program
    mix: dict[str, float]            # featured opcode -> frequency
    fresh_key_rate: float
    seed: int
    initial_keys: int = 64
    # Checked on load but read by nothing: fees are priced by `economics
    # --gas-price`. Kept because shipped workload files carry the field.
    gas_price_wei: int = DEFAULT_GAS_PRICE_WEI

    def __post_init__(self):
        for name in ("transactions_per_block", "program_length", "seed",
                     "initial_keys", "gas_price_wei"):
            value = getattr(self, name)
            if not _is_int(value):
                raise WorkloadError(
                    f"{name} must be an integer, got {value!r}")
        if self.transactions_per_block < 0:
            raise WorkloadError("transactions_per_block must be >= 0")
        if self.program_length < 1:
            raise WorkloadError("program_length must be >= 1")
        if not (_is_real(self.fresh_key_rate)
                and 0.0 <= self.fresh_key_rate <= 1.0):
            raise WorkloadError("fresh_key_rate must be in [0, 1]")
        if self.initial_keys < 0:
            raise WorkloadError("initial_keys must be >= 0")
        if self.gas_price_wei < 0:
            raise WorkloadError("gas_price_wei must be >= 0")
        if not isinstance(self.mix, dict):
            raise WorkloadError(
                "mix must map featured opcodes to frequencies, "
                f"got {self.mix!r}")
        if not self.mix:
            raise WorkloadError("mix must not be empty")
        for op, freq in self.mix.items():
            if op not in _SNIPPETS:
                raise WorkloadError(f"unsupported featured opcode {op!r}")
            if not (_is_real(freq) and 0 <= freq <= 1):
                raise WorkloadError(
                    f"frequency for {op} must be in [0, 1], got {freq!r}")
        total = sum(self.mix.values())
        if abs(total - 1.0) > 1e-9:
            raise WorkloadError(f"mix frequencies sum to {total}, expected 1")


def load_workload(path: str | Path) -> WorkloadSpec:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise WorkloadError(f"cannot read workload spec: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an overlong integer
        raise WorkloadError(f"workload spec is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise WorkloadError("workload spec must be a JSON object")
    unknown = set(raw) - {field.name for field in fields(WorkloadSpec)}
    if unknown:
        raise WorkloadError(f"unknown workload fields: {sorted(unknown)}")
    try:
        return WorkloadSpec(**raw)
    except TypeError as exc:
        raise WorkloadError(f"incomplete workload spec: {exc}") from exc


@dataclass
class Transaction:
    code: bytes
    gas_limit: int


@dataclass
class Block:
    height: int
    transactions: list[Transaction]


class WorkloadGenerator:
    """Sequential block generator with exact storage-pool bookkeeping."""

    def __init__(self, spec: WorkloadSpec, schedule: GasSchedule):
        self.spec = spec
        self.pool_size = spec.initial_keys
        self.next_height = 0
        # A featured op is the first in sorted order whose cumulative
        # frequency exceeds a `random()` draw, else the last one; the
        # repeated last entry takes bisect's past-the-end index.
        mix_ops = sorted(spec.mix)
        self._cumulative = []
        acc = 0.0
        for op in mix_ops:
            acc += spec.mix[op]
            self._cumulative.append(acc)
        self._snippets = [_SNIPPETS[op] for op in mix_ops + mix_ops[-1:]]
        # Generous bound: worst featured op is an SSTORE set (20000) plus
        # a few gas of scaffolding; never triggers out-of-gas organically.
        self._gas_limit = (schedule.intrinsic_gas
                           + spec.program_length * 21_000 + 2_000)
        if self._gas_limit > COUNTER_MAX:   # receipts.csv could not hold it
            raise WorkloadError(
                f"gas limit {self._gas_limit} is above 2^63 - 1: lower the "
                f"schedule's intrinsic gas or the program length")

    def write_genesis(self, trie: MerklePatriciaTrie) -> None:
        """Prefill initial storage slots, deploy the code library, commit."""
        for slot in range(self.spec.initial_keys):
            write_slot(trie, slot, (slot % 255) + 1)
        for code_id, code in CODE_LIBRARY.items():
            store_code(trie, code_id, code)
        trie.root_hash()  # hash genesis once, inside genesis

    def generate_block(self, height: int) -> Block:
        if height != self.next_height:
            raise WorkloadError(
                f"blocks must be generated in order; expected height "
                f"{self.next_height}, got {height}")
        self.next_height += 1
        spec = self.spec
        codes, self.pool_size = _assemble(
            (spec.seed << 32) ^ height, self._snippets, self._cumulative,
            spec.transactions_per_block, spec.program_length,
            spec.fresh_key_rate, self.pool_size)
        return Block(height=height,
                     transactions=[Transaction(code, self._gas_limit)
                                   for code in codes])


def _assemble_python(seed: int, snippets: list, cumulative: list[float],
                     transactions: int, length: int, fresh_key_rate: float,
                     pool: int) -> tuple[list[bytes], int]:
    """One block's programs and the pool size after them.

    `snippets[bisect_right(cumulative, random())]` picks each snippet, so
    `snippets` has one entry past the last bound. The reference for the C
    assembler, which must draw and emit exactly the same.
    """
    rng = random.Random(seed)
    getrandbits, draw = rng.getrandbits, rng.random
    codes = []
    for _ in range(transactions):
        parts = []
        append = parts.append
        for _ in range(length):
            operands, kind, tail = snippets[bisect_right(cumulative, draw())]
            for _ in range(operands):
                w = getrandbits(5)
                while w >= 31:
                    w = getrandbits(5)
                bits, span, base, size = _OPERANDS[w]
                r = getrandbits(bits)
                while r >= span:
                    r = getrandbits(bits)
                append((base + r).to_bytes(size, "big"))
            if kind == _TAIL:
                append(tail)
            elif kind == _PICK:
                append(tail[_below(getrandbits, len(tail))])
            elif kind == _READ:
                slot = _below(getrandbits, pool) if pool else 0
                append(_push_slot(slot))
                append(tail)
            else:
                # An empty pool makes no draw; `or` skips `draw()`.
                if pool == 0 or draw() < fresh_key_rate:
                    slot = pool
                    pool += 1
                else:
                    slot = _below(getrandbits, pool)
                append(_push_slot(slot))
                append(tail)
        append(_STOP)
        codes.append(b"".join(parts))
    return codes, pool


_assemble = (_assemble_python if native.module is None
             else native.module.assemble)
