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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import random

from .evm.opcodes import Opcode, push_for
from .evm.schedule import GasSchedule
from .trie import MerklePatriciaTrie
from .evm.machine import storage_key, store_code

DEFAULT_GAS_PRICE_WEI = 20_000_000_000  # 20 gwei

_BINARY_OPS = {"ADD", "MUL", "SUB", "DIV", "LT", "GT", "EQ", "AND", "OR", "XOR"}
_UNARY_OPS = {"ISZERO", "NOT"}

SUPPORTED_FEATURED_OPS = sorted(
    _BINARY_OPS | _UNARY_OPS
    | {"PUSH1", "POP", "PC", "JUMPDEST", "MLOAD", "MSTORE",
       "SLOAD", "SSTORE", "DUP1", "SWAP1", "CALLCODE"})

# Library programs deployed at genesis, callable through CALLCODE.
CODE_LIBRARY: dict[int, bytes] = {
    0: bytes([Opcode.PUSH1, 2, Opcode.PUSH1, 3, Opcode.ADD,
              Opcode.POP, Opcode.STOP]),
    1: bytes([Opcode.PUSH1, 7, Opcode.PUSH1, 0, Opcode.MSTORE, Opcode.STOP]),
    2: bytes([Opcode.PUSH4, 0, 0, 0, 0, Opcode.SLOAD,
              Opcode.POP, Opcode.STOP]),
}

_MEMORY_OFFSETS = tuple(range(0, 256, 32))  # bounded scratch memory


class WorkloadError(ValueError):
    """Invalid workload description."""


@dataclass(frozen=True)
class WorkloadSpec:
    transactions_per_block: int
    program_length: int              # featured opcodes per program
    mix: dict[str, float]            # featured opcode -> frequency
    fresh_key_rate: float
    seed: int
    initial_keys: int = 64
    gas_price_wei: int = DEFAULT_GAS_PRICE_WEI

    def __post_init__(self):
        if self.transactions_per_block < 0:
            raise WorkloadError("transactions_per_block must be >= 0")
        if self.program_length < 1:
            raise WorkloadError("program_length must be >= 1")
        if not 0.0 <= self.fresh_key_rate <= 1.0:
            raise WorkloadError("fresh_key_rate must be in [0, 1]")
        if self.initial_keys < 0:
            raise WorkloadError("initial_keys must be >= 0")
        if not self.mix:
            raise WorkloadError("mix must not be empty")
        for op, freq in self.mix.items():
            if op not in SUPPORTED_FEATURED_OPS:
                raise WorkloadError(f"unsupported featured opcode {op!r}")
            if freq < 0:
                raise WorkloadError(f"negative frequency for {op}")
        total = sum(self.mix.values())
        if abs(total - 1.0) > 1e-9:
            raise WorkloadError(f"mix frequencies sum to {total}, expected 1")


def load_workload(path: str | Path) -> WorkloadSpec:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise WorkloadError(f"cannot read workload spec: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise WorkloadError(f"workload spec is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise WorkloadError("workload spec must be a JSON object")
    known = {"transactions_per_block", "program_length", "mix",
             "fresh_key_rate", "seed", "initial_keys", "gas_price_wei"}
    unknown = set(raw) - known
    if unknown:
        raise WorkloadError(f"unknown workload fields: {sorted(unknown)}")
    try:
        return WorkloadSpec(**raw)
    except TypeError as exc:
        raise WorkloadError(f"incomplete workload spec: {exc}") from exc


def save_workload(spec: WorkloadSpec, path: str | Path) -> None:
    doc = {
        "transactions_per_block": spec.transactions_per_block,
        "program_length": spec.program_length,
        "mix": dict(sorted(spec.mix.items())),
        "fresh_key_rate": spec.fresh_key_rate,
        "seed": spec.seed,
        "initial_keys": spec.initial_keys,
        "gas_price_wei": spec.gas_price_wei,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


@dataclass
class Transaction:
    code: bytes
    gas_limit: int
    gas_price: int


@dataclass
class Block:
    height: int
    transactions: list[Transaction]
    parent_root: bytes | None = None
    post_root: bytes | None = None


class WorkloadGenerator:
    """Sequential block generator with exact storage-pool bookkeeping."""

    def __init__(self, spec: WorkloadSpec, schedule: GasSchedule):
        self.spec = spec
        self.schedule = schedule
        self.pool_size = spec.initial_keys
        self.next_height = 0
        self._mix_ops = sorted(spec.mix)
        self._cumulative = []
        acc = 0.0
        for op in self._mix_ops:
            acc += spec.mix[op]
            self._cumulative.append(acc)
        # Generous bound: worst featured op is an SSTORE set (20000) plus
        # a few gas of scaffolding; never triggers out-of-gas organically.
        self._gas_limit = (schedule.intrinsic_gas
                           + spec.program_length * 21_000 + 2_000)

    def write_genesis(self, trie: MerklePatriciaTrie) -> None:
        """Prefill initial storage slots, deploy the code library, commit."""
        for slot in range(self.spec.initial_keys):
            value = (slot % 255) + 1
            trie.insert(storage_key(slot),
                        value.to_bytes((value.bit_length() + 7) // 8, "big"))
        for code_id, code in CODE_LIBRARY.items():
            store_code(trie, code_id, code)
        trie.root_hash()  # hash genesis once, inside genesis

    def generate_block(self, height: int) -> Block:
        if height != self.next_height:
            raise WorkloadError(
                f"blocks must be generated in order; expected height "
                f"{self.next_height}, got {height}")
        self.next_height += 1
        rng = random.Random((self.spec.seed << 32) ^ height)
        txs = [Transaction(self._assemble_program(rng), self._gas_limit,
                           self.spec.gas_price_wei)
               for _ in range(self.spec.transactions_per_block)]
        return Block(height=height, transactions=txs)

    # -- program assembly --------------------------------------------------

    def _draw_op(self, rng: random.Random) -> str:
        x = rng.random()
        for op, bound in zip(self._mix_ops, self._cumulative):
            if x < bound:
                return op
        return self._mix_ops[-1]

    def _read_slot(self, rng: random.Random) -> int:
        if self.pool_size == 0:
            return 0
        return rng.randrange(self.pool_size)

    def _write_slot(self, rng: random.Random) -> int:
        fresh = (self.pool_size == 0
                 or rng.random() < self.spec.fresh_key_rate)
        if fresh:
            slot = self.pool_size
            self.pool_size += 1
            return slot
        return rng.randrange(self.pool_size)

    def _assemble_program(self, rng: random.Random) -> bytes:
        parts = []
        for _ in range(self.spec.program_length):
            parts.append(self._snippet(self._draw_op(rng), rng))
        parts.append(bytes([Opcode.STOP]))
        return b"".join(parts)

    def _snippet(self, featured: str, rng: random.Random) -> bytes:
        # Operand scaffolding uses PUSH2 so that PUSH1 counts stay at the
        # featured rate (keeps its per-window mean from being swamped by
        # scaffold samples).
        if featured in _BINARY_OPS:
            return (_operand(rng) + _operand(rng)
                    + bytes([Opcode[featured], Opcode.POP]))
        if featured in _UNARY_OPS:
            return _operand(rng) + bytes([Opcode[featured], Opcode.POP])
        if featured == "PUSH1":
            return bytes([Opcode.PUSH1, rng.randrange(1, 256), Opcode.POP])
        if featured == "POP":
            return _operand(rng) + bytes([Opcode.POP])
        if featured == "PC":
            return bytes([Opcode.PC, Opcode.POP])
        if featured == "JUMPDEST":
            return bytes([Opcode.JUMPDEST])
        if featured == "MLOAD":
            return bytes([Opcode.PUSH2, 0, rng.choice(_MEMORY_OFFSETS),
                          Opcode.MLOAD, Opcode.POP])
        if featured == "MSTORE":
            return (_operand(rng)
                    + bytes([Opcode.PUSH2, 0, rng.choice(_MEMORY_OFFSETS),
                             Opcode.MSTORE]))
        if featured == "SLOAD":
            return (_push4(self._read_slot(rng))
                    + bytes([Opcode.SLOAD, Opcode.POP]))
        if featured == "SSTORE":
            return (_operand(rng)
                    + _push4(self._write_slot(rng))
                    + bytes([Opcode.SSTORE]))
        if featured == "DUP1":
            return _operand(rng) + bytes([Opcode.DUP1, Opcode.POP, Opcode.POP])
        if featured == "SWAP1":
            return (_operand(rng) + _operand(rng)
                    + bytes([Opcode.SWAP1, Opcode.POP, Opcode.POP]))
        if featured == "CALLCODE":
            lib_id = rng.choice(sorted(CODE_LIBRARY))
            return bytes([Opcode.PUSH1, lib_id, Opcode.CALLCODE, Opcode.POP])
        raise WorkloadError(f"unsupported featured opcode {featured!r}")


def _operand(rng: random.Random) -> bytes:
    """A nonzero literal operand of random width (2..32 bytes).

    Word width varies the way real contract operands do, which also gives
    arithmetic opcodes their natural cost spread. Width 1 is reserved so
    scaffolding never inflates PUSH1 counts.
    """
    width = rng.randrange(2, 33)
    value = rng.randrange(1 << (8 * (width - 1)), 1 << (8 * width))
    return bytes([Opcode.PUSH1 + width - 1]) + value.to_bytes(width, "big")


def _push4(value: int) -> bytes:
    """Fixed-width slot-index push so the companion mix stays stable."""
    if value >> 32:
        op, imm = push_for(value)
        return bytes([op]) + imm
    return bytes([Opcode.PUSH4]) + value.to_bytes(4, "big")
