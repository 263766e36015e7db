"""Opcode numbering and static metadata for the implemented EVM subset."""

from __future__ import annotations

import enum


class Opcode(enum.IntEnum):
    STOP = 0x00
    ADD = 0x01
    MUL = 0x02
    SUB = 0x03
    DIV = 0x04
    LT = 0x10
    GT = 0x11
    EQ = 0x14
    ISZERO = 0x15
    AND = 0x16
    OR = 0x17
    XOR = 0x18
    NOT = 0x19
    POP = 0x50
    MLOAD = 0x51
    MSTORE = 0x52
    SLOAD = 0x54
    SSTORE = 0x55
    JUMP = 0x56
    JUMPI = 0x57
    PC = 0x58
    JUMPDEST = 0x5B
    PUSH1 = 0x60; PUSH2 = 0x61; PUSH3 = 0x62; PUSH4 = 0x63
    PUSH5 = 0x64; PUSH6 = 0x65; PUSH7 = 0x66; PUSH8 = 0x67
    PUSH9 = 0x68; PUSH10 = 0x69; PUSH11 = 0x6A; PUSH12 = 0x6B
    PUSH13 = 0x6C; PUSH14 = 0x6D; PUSH15 = 0x6E; PUSH16 = 0x6F
    PUSH17 = 0x70; PUSH18 = 0x71; PUSH19 = 0x72; PUSH20 = 0x73
    PUSH21 = 0x74; PUSH22 = 0x75; PUSH23 = 0x76; PUSH24 = 0x77
    PUSH25 = 0x78; PUSH26 = 0x79; PUSH27 = 0x7A; PUSH28 = 0x7B
    PUSH29 = 0x7C; PUSH30 = 0x7D; PUSH31 = 0x7E; PUSH32 = 0x7F
    DUP1 = 0x80; DUP2 = 0x81; DUP3 = 0x82; DUP4 = 0x83
    DUP5 = 0x84; DUP6 = 0x85; DUP7 = 0x86; DUP8 = 0x87
    DUP9 = 0x88; DUP10 = 0x89; DUP11 = 0x8A; DUP12 = 0x8B
    DUP13 = 0x8C; DUP14 = 0x8D; DUP15 = 0x8E; DUP16 = 0x8F
    SWAP1 = 0x90; SWAP2 = 0x91; SWAP3 = 0x92; SWAP4 = 0x93
    SWAP5 = 0x94; SWAP6 = 0x95; SWAP7 = 0x96; SWAP8 = 0x97
    SWAP9 = 0x98; SWAP10 = 0x99; SWAP11 = 0x9A; SWAP12 = 0x9B
    SWAP13 = 0x9C; SWAP14 = 0x9D; SWAP15 = 0x9E; SWAP16 = 0x9F
    CALLCODE = 0xF2
    RETURN = 0xF3


ALL_OPCODES: tuple[Opcode, ...] = tuple(Opcode)

# Opcodes that end execution; these may legally carry a zero gas cost.
TERMINAL_OPCODES = frozenset({Opcode.STOP, Opcode.RETURN})

# Opcodes that touch memory; exactly these carry the ``+mem`` expansion charge.
MEMORY_OPCODES = frozenset({Opcode.MLOAD, Opcode.MSTORE, Opcode.RETURN})

# (stack items consumed, stack items produced)
_BASE_ARITY: dict[Opcode, tuple[int, int]] = {
    Opcode.STOP: (0, 0),
    Opcode.ADD: (2, 1), Opcode.MUL: (2, 1), Opcode.SUB: (2, 1),
    Opcode.DIV: (2, 1), Opcode.LT: (2, 1), Opcode.GT: (2, 1),
    Opcode.EQ: (2, 1), Opcode.ISZERO: (1, 1), Opcode.AND: (2, 1),
    Opcode.OR: (2, 1), Opcode.XOR: (2, 1), Opcode.NOT: (1, 1),
    Opcode.POP: (1, 0),
    Opcode.MLOAD: (1, 1), Opcode.MSTORE: (2, 0),
    Opcode.SLOAD: (1, 1), Opcode.SSTORE: (2, 0),
    Opcode.JUMP: (1, 0), Opcode.JUMPI: (2, 0),
    Opcode.PC: (0, 1), Opcode.JUMPDEST: (0, 0),
    Opcode.CALLCODE: (1, 1),  # lite form: pops code id, pushes status
    Opcode.RETURN: (2, 0),
}


def _arity_table() -> dict[Opcode, tuple[int, int]]:
    table = dict(_BASE_ARITY)
    for k in range(1, 33):
        table[Opcode[f"PUSH{k}"]] = (0, 1)
    for k in range(1, 17):
        table[Opcode[f"DUP{k}"]] = (k, k + 1)
        table[Opcode[f"SWAP{k}"]] = (k + 1, k + 1)
    return table


ARITY: dict[Opcode, tuple[int, int]] = _arity_table()

_BY_NAME = {op.name: op for op in Opcode}
_NAMES = {op.value: op.name for op in Opcode}

# Each byte's opcode name; None where the byte is undefined.
NAME_BY_BYTE: tuple[str | None, ...] = tuple(
    _NAMES.get(byte) for byte in range(256))


def from_name(name: str) -> Opcode | None:
    return _BY_NAME.get(name)


def push_for(value: int) -> tuple[Opcode, bytes]:
    """Smallest PUSH opcode and immediate encoding a non-negative value."""
    width = max(1, (value.bit_length() + 7) // 8)
    return Opcode(Opcode.PUSH1 + width - 1), value.to_bytes(width, "big")
