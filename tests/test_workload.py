import dataclasses
import hashlib
import json
import math
import random

import pytest

from gaslab import native, workload
from gaslab.evm.opcodes import Opcode, push_for
from gaslab.evm.schedule import default_schedule
from gaslab.workload import (CODE_LIBRARY, SUPPORTED_FEATURED_OPS,
                             WorkloadError, WorkloadGenerator, WorkloadSpec,
                             _READ, _TAIL, _WRITE, _assemble_python, _below,
                             load_workload)

SCHED = default_schedule()

# The Python assembler, and the C one where the native module built
# (test_keccak.py checks that it builds wherever `cc` runs).
ASSEMBLERS = [_assemble_python]
if native.module is not None:
    ASSEMBLERS.append(native.module.assemble)
needs_native = pytest.mark.skipif(native.module is None,
                                  reason="native module not built")


def spec_with(**overrides):
    base = dict(transactions_per_block=2, program_length=6,
                mix={"SLOAD": 0.5, "SSTORE": 0.25, "ADD": 0.25},
                fresh_key_rate=0.5, seed=11)
    base.update(overrides)
    return WorkloadSpec(**base)


def test_mix_must_sum_to_one():
    with pytest.raises(WorkloadError, match="sum"):
        spec_with(mix={"ADD": 0.4, "SLOAD": 0.4})


def test_rate_must_be_a_probability():
    with pytest.raises(WorkloadError):
        spec_with(fresh_key_rate=1.5)


def test_unsupported_featured_opcode_rejected():
    with pytest.raises(WorkloadError, match="JUMP"):
        spec_with(mix={"JUMP": 1.0})


def test_json_round_trip(tmp_path):
    spec = spec_with()
    path = tmp_path / "w.json"
    path.write_text(json.dumps(dataclasses.asdict(spec)))
    assert load_workload(path) == spec


def test_load_rejects_unknown_fields(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"transactions_per_block": 1, "bogus": 2}))
    with pytest.raises(WorkloadError, match="bogus"):
        load_workload(path)


def test_load_rejects_non_json(tmp_path):
    path = tmp_path / "w.json"
    path.write_text("{nope")
    with pytest.raises(WorkloadError, match="JSON"):
        load_workload(path)


def test_same_spec_height_seed_gives_identical_blocks():
    spec = spec_with()
    gen_a, gen_b = WorkloadGenerator(spec, SCHED), WorkloadGenerator(spec, SCHED)
    for height in range(12):
        block_a, block_b = gen_a.generate_block(height), gen_b.generate_block(height)
        assert [t.code for t in block_a.transactions] == \
               [t.code for t in block_b.transactions]
        assert [t.gas_limit for t in block_a.transactions] == \
               [t.gas_limit for t in block_b.transactions]


def test_different_seed_changes_blocks():
    gen_a = WorkloadGenerator(spec_with(seed=1), SCHED)
    gen_b = WorkloadGenerator(spec_with(seed=2), SCHED)
    codes_a = [t.code for t in gen_a.generate_block(0).transactions]
    codes_b = [t.code for t in gen_b.generate_block(0).transactions]
    assert codes_a != codes_b


def test_blocks_must_be_generated_in_order():
    generator = WorkloadGenerator(spec_with(), SCHED)
    generator.generate_block(0)
    with pytest.raises(WorkloadError, match="order"):
        generator.generate_block(5)


def test_fresh_rate_one_appends_distinct_slots():
    spec = spec_with(transactions_per_block=1, program_length=4,
                     mix={"SSTORE": 1.0}, fresh_key_rate=1.0, initial_keys=3)
    generator = WorkloadGenerator(spec, SCHED)
    for height in range(5):
        generator.generate_block(height)
    # 5 blocks x 4 writes, all fresh, appended after the 3 genesis slots
    assert generator.pool_size == 3 + 20


def test_fresh_rate_zero_keeps_pool_constant():
    spec = spec_with(transactions_per_block=1, program_length=4,
                     mix={"SSTORE": 1.0}, fresh_key_rate=0.0, initial_keys=3)
    generator = WorkloadGenerator(spec, SCHED)
    for height in range(5):
        generator.generate_block(height)
    assert generator.pool_size == 3


def test_genesis_prefills_slots_and_library():
    from gaslab.evm.machine import code_key, storage_key
    from gaslab.trie import MerklePatriciaTrie
    spec = spec_with(initial_keys=5)
    trie = MerklePatriciaTrie()
    WorkloadGenerator(spec, SCHED).write_genesis(trie)
    for slot in range(5):
        assert trie.get(storage_key(slot)) is not None
    for code_id in CODE_LIBRARY:
        assert trie.get(code_key(code_id)) == CODE_LIBRARY[code_id]
    assert trie.key_count == 5 + len(CODE_LIBRARY)


def test_generated_programs_end_with_stop():
    generator = WorkloadGenerator(spec_with(), SCHED)
    block = generator.generate_block(0)
    for tx in block.transactions:
        assert tx.code[-1] == 0x00


# -- exact draws -------------------------------------------------------------

def _draw_sizes():
    sizes = {1, 2, 31, 255, 256}
    for k in range(1, 32):
        sizes |= {2 ** k - 1, 2 ** k + 1, 255 * 2 ** (8 * k)}
    sizes |= {64, 128, 250, 4096, 4097, 5000, 123_457}  # pool sizes
    return sorted(sizes)


@pytest.mark.parametrize("n", _draw_sizes())
def test_below_draws_exactly_as_randrange_and_choice(n):
    for seed in range(40):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert _below(ours.getrandbits, n) == theirs.randrange(n)
        assert ours.getstate() == theirs.getstate()
        low = n * 3 + 1
        assert (low + _below(ours.getrandbits, n)
                == theirs.randrange(low, low + n))
        assert ours.getstate() == theirs.getstate()
        if n <= 4096:
            seq = range(7, 7 + n)
            assert seq[_below(ours.getrandbits, n)] == theirs.choice(seq)
            assert ours.getstate() == theirs.getstate()


class ReferenceGenerator:
    """A snippet-by-snippet assembler that calls `randrange` and `choice`
    directly: the oracle for `WorkloadGenerator`'s own draws."""

    BINARY = {"ADD", "MUL", "SUB", "DIV", "LT", "GT", "EQ", "AND", "OR", "XOR"}

    def __init__(self, spec):
        self.spec, self.pool_size = spec, spec.initial_keys
        self.ops = sorted(spec.mix)
        self.bounds, acc = [], 0.0
        for op in self.ops:
            acc += spec.mix[op]
            self.bounds.append(acc)

    def block_codes(self, height):
        rng = random.Random((self.spec.seed << 32) ^ height)
        return [self.program(rng)
                for _ in range(self.spec.transactions_per_block)]

    def program(self, rng):
        parts = []
        for _ in range(self.spec.program_length):
            x = rng.random()
            op = next((op for op, bound in zip(self.ops, self.bounds)
                       if x < bound), self.ops[-1])
            parts.append(self.snippet(op, rng))
        return b"".join(parts) + bytes([Opcode.STOP])

    def snippet(self, op, rng):
        code = Opcode[op]
        if op in self.BINARY:
            return operand(rng) + operand(rng) + bytes([code, Opcode.POP])
        if op in ("ISZERO", "NOT"):
            return operand(rng) + bytes([code, Opcode.POP])
        if op == "PUSH1":
            return bytes([code, rng.randrange(1, 256), Opcode.POP])
        if op == "POP":
            return operand(rng) + bytes([code])
        if op == "PC":
            return bytes([code, Opcode.POP])
        if op == "JUMPDEST":
            return bytes([code])
        if op == "MLOAD":
            return bytes([Opcode.PUSH2, 0, rng.choice(range(0, 256, 32)),
                          code, Opcode.POP])
        if op == "MSTORE":
            return operand(rng) + bytes(
                [Opcode.PUSH2, 0, rng.choice(range(0, 256, 32)), code])
        if op == "SLOAD":
            slot = rng.randrange(self.pool_size) if self.pool_size else 0
            return push4(slot) + bytes([code, Opcode.POP])
        if op == "SSTORE":
            value = operand(rng)
            if self.pool_size == 0 or rng.random() < self.spec.fresh_key_rate:
                slot, self.pool_size = self.pool_size, self.pool_size + 1
            else:
                slot = rng.randrange(self.pool_size)
            return value + push4(slot) + bytes([code])
        if op == "DUP1":
            return operand(rng) + bytes([code, Opcode.POP, Opcode.POP])
        if op == "SWAP1":
            return (operand(rng) + operand(rng)
                    + bytes([code, Opcode.POP, Opcode.POP]))
        assert op == "CALLCODE"
        return bytes([Opcode.PUSH1, rng.choice(sorted(CODE_LIBRARY)), code,
                      Opcode.POP])


def operand(rng):
    width = rng.randrange(2, 33)
    value = rng.randrange(1 << (8 * (width - 1)), 1 << (8 * width))
    return bytes([Opcode.PUSH1 + width - 1]) + value.to_bytes(width, "big")


def push4(slot):
    if slot >> 32:
        op, imm = push_for(slot)
        return bytes([op]) + imm
    return bytes([Opcode.PUSH4]) + slot.to_bytes(4, "big")


def _uniform_mix():
    share = 1 / len(SUPPORTED_FEATURED_OPS)
    return {op: share for op in SUPPORTED_FEATURED_OPS}


def _random_spec(case):
    rng = random.Random(case)
    ops = rng.sample(SUPPORTED_FEATURED_OPS, rng.randint(1, 6))
    weights = [rng.choice([0, 1, 2, 5]) for _ in ops]
    weights[-1] = weights[-1] or 1
    mix = {op: w / sum(weights) for op, w in zip(ops, weights)}
    mix[ops[0]] += 1.0 - sum(mix.values())
    return WorkloadSpec(
        transactions_per_block=rng.randint(0, 3),
        program_length=rng.randint(1, 12), mix=mix,
        fresh_key_rate=rng.choice([0.0, 0.3, 1.0]),
        seed=rng.randrange(-2 ** 40, 2 ** 40),
        initial_keys=rng.choice([0, 1, 7, 256]))


# Beside the 40 random specs: the PUSH4-to-PUSH5 switch at 2**32 slots,
# pools of 0 and 1, no transactions, programs long enough that the C
# assembler's buffer must grow, and reads of 64-bit pool draws.
EDGE_SPECS = {
    "push5": dict(initial_keys=2 ** 32 - 2, fresh_key_rate=1.0),
    "no keys": dict(initial_keys=0, fresh_key_rate=0.0),
    "one key": dict(initial_keys=1, fresh_key_rate=0.0),
    "no transactions": dict(transactions_per_block=0),
    "long programs": dict(transactions_per_block=1, program_length=5000,
                          mix=_uniform_mix()),
    "pool 2**64-2": dict(initial_keys=2 ** 64 - 2, fresh_key_rate=0.0),
}


@pytest.mark.parametrize("case", [*range(40), *EDGE_SPECS])
def test_generator_matches_reference_assembler(case, monkeypatch):
    if case in EDGE_SPECS:
        spec = spec_with(**EDGE_SPECS[case])
    else:
        spec = _random_spec(case)
    if case == 0:
        spec = dataclasses.replace(spec, mix=_uniform_mix(), initial_keys=0,
                                   transactions_per_block=2)
    heights = 5 if spec.program_length > 100 else 60
    for assembler in ASSEMBLERS:
        monkeypatch.setattr(workload, "_assemble", assembler)
        generator = WorkloadGenerator(spec, SCHED)
        reference = ReferenceGenerator(spec)
        for height in range(heights):
            block = generator.generate_block(height)
            codes = [tx.code for tx in block.transactions]
            assert codes == reference.block_codes(height), \
                (assembler, spec, height)
            assert generator.pool_size == reference.pool_size


@needs_native
def test_c_assembler_refuses_a_pool_of_2_64_slots():
    table = [(0, _WRITE, b"")] * 2
    assemble = native.module.assemble
    with pytest.raises(OverflowError, match=r"below 2\*\*64"):
        assemble(5, table, [1.0], 1, 1, 1.0, 2 ** 64)
    assert assemble(5, table, [1.0], 1, 1, 1.0, 2 ** 64 - 2)[1] == \
        2 ** 64 - 1
    # A fresh write would take the pool from 2**64 - 1 to 2**64.
    with pytest.raises(OverflowError, match=r"below 2\*\*64"):
        assemble(5, table, [1.0], 1, 1, 1.0, 2 ** 64 - 1)
    assert _assemble_python(5, table, [1.0], 1, 1, 1.0, 2 ** 64 - 1)[1] == \
        2 ** 64


def _draws_in_c_and_python(seed, snippets, cumulative, length, pool=0):
    """One program from each assembler over one crafted snippet table."""
    args = (seed, snippets, cumulative, 1, length, 0.0, pool)
    (ours,), _ = native.module.assemble(*args)
    (theirs,), _ = _assemble_python(*args)
    return ours, theirs


@needs_native
@pytest.mark.parametrize("seed", [0, 1, -1, 2 ** 32 - 1, 2 ** 32, -2 ** 40,
                                  2 ** 64, 3 ** 189])
def test_c_twister_draws_as_random_random(seed):
    # getrandbits(k) for k = 1..64: a read from a pool of 2**k - 1 slots
    # draws it, again only after 2**k - 1.
    reads = [(0, _READ, b"")] * 2
    for k in range(1, 65):
        ours, theirs = _draws_in_c_and_python(seed, reads, [1.0], 50,
                                              2 ** k - 1)
        assert ours == theirs, k

    # getrandbits(8w) for w = 2..32: one literal operand a snippet.
    operands = [(1, _TAIL, b"")] * 2
    ours, theirs = _draws_in_c_and_python(seed, operands, [1.0], 400)
    assert ours == theirs
    widths, at = set(), 0
    while theirs[at] != Opcode.STOP:
        widths.add(theirs[at] - Opcode.PUSH1 + 1)
        at += theirs[at] - Opcode.PUSH1 + 2
    assert widths == set(range(2, 33))

    # random(): bounds at each expected draw and the next float above it,
    # so a snippet's index names the draw exactly.
    rng = random.Random(seed)
    expected = [rng.random() for _ in range(300)]
    bounds = sorted({*expected, *(math.nextafter(x, 1) for x in expected)})
    picks = [(0, _TAIL, i.to_bytes(2, "big"))
             for i in range(len(bounds) + 1)]
    ours, theirs = _draws_in_c_and_python(seed, picks, bounds, 300)
    assert ours == theirs
    assert theirs[:-1] == b"".join(
        (bounds.index(x) + 1).to_bytes(2, "big") for x in expected)


# sha256 of every program's code over 2000 blocks and the final pool size,
# recorded with an assembler that called `randrange` and `choice`. Keys 0
# starts on the branches that make no draw.
ALL_OPS_GOLDEN = {
    8: ("3e521fc27af5fa556dcd56a0fc33b1e2e52734f12020e473cc3627058a82fc8b",
        680),
    0: ("6549ae4afa8ee164098a604b21ecdbbee6ddd4d12e1208c7a6cbb85cbe643fca",
        677),
}


@pytest.mark.parametrize("initial_keys", sorted(ALL_OPS_GOLDEN))
def test_all_featured_ops_generate_golden_bytes(initial_keys, monkeypatch):
    spec = WorkloadSpec(transactions_per_block=2, program_length=8,
                        mix=_uniform_mix(), fresh_key_rate=0.5, seed=11,
                        initial_keys=initial_keys)
    for assembler in ASSEMBLERS:
        monkeypatch.setattr(workload, "_assemble", assembler)
        generator = WorkloadGenerator(spec, SCHED)
        digest = hashlib.sha256()
        for height in range(2000):
            for tx in generator.generate_block(height).transactions:
                digest.update(tx.code)
        assert (digest.hexdigest(), generator.pool_size) == \
            ALL_OPS_GOLDEN[initial_keys], assembler
