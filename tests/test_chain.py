"""Chain driver invariants: determinism, containment, conservation."""

import dataclasses
from importlib import resources

import pytest

from gaslab.chain import (Chain, VerificationError, execute_transaction,
                          run_chain, verify_block)
from gaslab.clock import WallClock, Work
from gaslab.evm.machine import TxStatus, store_code
from gaslab.evm.schedule import default_schedule
from gaslab.metrics import MacroCategory, SampleSink
from gaslab.model.classify import classify_opcode, opcode_table
from gaslab.trie import MerklePatriciaTrie
from gaslab.workload import Block, Transaction, WorkloadSpec, load_workload

SCHED = default_schedule()

MIXED = WorkloadSpec(
    transactions_per_block=2, program_length=8,
    mix={"SLOAD": 0.4, "SSTORE": 0.2, "ADD": 0.2, "PUSH1": 0.2},
    fresh_key_rate=0.5, seed=7, initial_keys=16)


def virtual_run(spec, blocks, window, **kwargs):
    return run_chain(spec, blocks, SCHED, window_size=window, virtual=True,
                     **kwargs)


def test_replay_determinism_static_behavior():
    rep_a = virtual_run(MIXED, 40, 10)
    rep_b = virtual_run(MIXED, 40, 10)
    assert rep_a.final_root == rep_b.final_root
    assert rep_a.receipts == rep_b.receipts
    for wa, wb in zip(rep_a.windows, rep_b.windows):
        assert wa.instructions == wb.instructions
        assert wa.categories == wb.categories


def shipped(name):
    return load_workload(resources.files("gaslab").joinpath(
        "data", "workloads", name))


def test_work_counts_do_not_depend_on_the_clock():
    spec = shipped("mixed_fig8.json")
    counts = {}
    for virtual in (False, True):
        chain = Chain(spec, SCHED, virtual=virtual)
        assert (chain.clock is WallClock) is not virtual
        for height in range(30):
            chain.step(height)
        work = chain.trie.store.work
        counts[virtual] = {name: getattr(work, name)
                           for name in Work.__slots__}
    assert counts[False] == counts[True]
    assert all(counts[True].values()), counts[True]


def test_all_transactions_succeed_and_windows_cover_run():
    report = virtual_run(MIXED, 40, 10)
    assert len(report.windows) == 4
    assert [w.start for w in report.windows] == [0, 10, 20, 30]
    assert all(r.status == "success" for r in report.receipts)
    assert len(report.receipts) == 80


def test_category_containment_per_window():
    report = virtual_run(MIXED, 30, 10)
    for window in report.windows:
        cats = window.categories
        assert cats["EVM"] <= cats["TX"] <= cats["Import"] <= cats["Total"]


def test_gas_conservation():
    report = virtual_run(MIXED, 30, 10)
    micro_gas = sum(w.instruction_gas_total() for w in report.windows)
    receipt_gas = sum(r.gas_used for r in report.receipts)
    intrinsic = SCHED.intrinsic_gas * len(report.receipts)
    assert micro_gas == receipt_gas - intrinsic


def test_state_growth_exact_for_deterministic_workloads():
    spec = WorkloadSpec(transactions_per_block=1, program_length=3,
                        mix={"SSTORE": 1.0}, fresh_key_rate=1.0, seed=1,
                        initial_keys=4)
    report = virtual_run(spec, 12, 6)
    assert report.final_keys - report.initial_keys == 12 * 3

    frozen = WorkloadSpec(transactions_per_block=1, program_length=3,
                          mix={"SSTORE": 1.0}, fresh_key_rate=0.0, seed=1,
                          initial_keys=4)
    report = virtual_run(frozen, 12, 6)
    assert report.final_keys == report.initial_keys


def test_zero_transactions_per_block():
    spec = WorkloadSpec(transactions_per_block=0, program_length=1,
                        mix={"ADD": 1.0}, fresh_key_rate=0.0, seed=1)
    report = virtual_run(spec, 10, 5)
    for window in report.windows:
        assert window.categories.get("EVM", 0) == 0
        assert window.categories["DB"] > 0  # per-block empty finalize
        assert window.instructions == {}
    assert report.receipts == []


def test_pure_add_workload_is_flat_under_virtual_clock():
    spec = WorkloadSpec(transactions_per_block=1, program_length=10,
                        mix={"ADD": 1.0}, fresh_key_rate=0.0, seed=3,
                        initial_keys=4)
    report = virtual_run(spec, 60, 10)
    r, label = classify_opcode(opcode_table(report.windows)["ADD"])
    assert label == "independent"
    assert abs(r) < 1e-9  # constant virtual cost: zero variance


def test_sload_slowdown_reproduces_under_virtual_clock():
    spec = WorkloadSpec(transactions_per_block=1, program_length=10,
                        mix={"SLOAD": 0.5, "SSTORE": 0.3, "PUSH1": 0.2},
                        fresh_key_rate=0.8, seed=5, initial_keys=16)
    report = virtual_run(spec, 400, 40)
    r, label = classify_opcode(opcode_table(report.windows)["SLOAD"])
    assert label == "dependent"
    assert r > 0.7


def test_macro_micro_consistency_virtual_is_exact():
    report = virtual_run(MIXED, 30, 10)
    for window in report.windows:
        assert window.categories["EVM"] == window.instruction_time_total()


def test_out_of_gas_transactions_recorded_not_aborting():
    # hand-build blocks whose second tx always runs out of gas
    spec = WorkloadSpec(transactions_per_block=1, program_length=2,
                        mix={"ADD": 1.0}, fresh_key_rate=0.0, seed=2)
    chain = Chain(spec, SCHED, virtual=True)
    generate_block = chain.generator.generate_block

    def starved_block(height):
        block = generate_block(height)
        block.transactions.append(Transaction(
            code=bytes([0x60, 1, 0x60, 2, 0x01, 0x00]),
            gas_limit=SCHED.intrinsic_gas + 3))
        return block

    chain.generator.generate_block = starved_block
    for height in range(6):
        chain.step(height)

    statuses = [r.status for r in chain.receipts]
    assert statuses.count("out-of-gas") == 6
    assert statuses.count("success") == 6
    for row in chain.receipts:
        if row.status == "out-of-gas":
            assert row.gas_used == row.gas_limit


# PUSH1 1, PUSH1 255, SSTORE, PUSH1 0, STOP with gas for all but the last
# PUSH1: the transaction buffers a write to the empty slot 255, then runs
# out of gas.
STARVED_CODE = bytes([0x60, 1, 0x60, 255, 0x55, 0x60, 0, 0x00])
STARVED_LIMIT = SCHED.intrinsic_gas + 3 + 3 + SCHED.by_byte[0x55].set_cost + 2


def test_failed_transaction_records_no_commit():
    trie = MerklePatriciaTrie()
    store_code(trie, 1, b"\x00")
    root, work = trie.root_hash(), trie.store.work
    commits = work.commits
    spans = []
    sink = SampleSink()
    sink.record_span = lambda category, ns: spans.append(category)
    receipt = execute_transaction(STARVED_CODE, trie, STARVED_LIMIT, 0, SCHED,
                                  sink=sink)
    assert receipt.status is TxStatus.OUT_OF_GAS
    assert receipt.gas_used == STARVED_LIMIT
    assert receipt.instructions == 3
    assert spans == [MacroCategory.EVM, MacroCategory.TX]
    assert work.commits == commits
    assert trie.root_hash() == root


def test_block_of_one_failed_transaction_commits_only_its_finalize():
    spec = WorkloadSpec(transactions_per_block=1, program_length=2,
                        mix={"ADD": 1.0}, fresh_key_rate=0.0, seed=2)
    chain = Chain(spec, SCHED, virtual=True)
    generate_block = chain.generator.generate_block

    def starved_block(height):
        block = generate_block(height)
        block.transactions = [Transaction(STARVED_CODE, STARVED_LIMIT)]
        return block

    chain.generator.generate_block = starved_block
    work = chain.trie.store.work
    commits = work.commits
    chain.step(0)
    assert [r.status for r in chain.receipts] == ["out-of-gas"]
    assert work.commits == commits + 1


def test_verify_block_rejects_bad_height_and_gas_limit():
    with pytest.raises(VerificationError, match="height"):
        verify_block(Block(height=3, transactions=[]), 0, SCHED)
    starved = Block(height=0, transactions=[
        Transaction(b"\x00", SCHED.intrinsic_gas - 1)])
    with pytest.raises(VerificationError, match="intrinsic"):
        verify_block(starved, 0, SCHED)


def test_blocks_link_parent_to_post_roots():
    report = virtual_run(MIXED, 5, 5)
    assert report.final_root is not None


def test_interleaved_chains_each_match_a_solo_run():
    # Two chains that differ only in state size, stepped alternately with
    # the order reversed each round, as a cross-sectional run steps them.
    specs = [dataclasses.replace(shipped("sload_heavy.json"),
                                 initial_keys=keys) for keys in (250, 2048)]
    blocks, window = 120, 40
    chains = [Chain(spec, SCHED, virtual=True) for spec in specs]
    for height in range(blocks):
        for chain in chains if height % 2 else chains[::-1]:
            if height and height % window == 0:
                chain.sink.close_window(height)
            chain.step(height)
    for chain, spec in zip(chains, specs):
        chain.sink.close_window(blocks)
        assert chain.clock.work is chain.trie.store.work
        solo = virtual_run(spec, blocks, window)
        assert chain.initial_keys == solo.initial_keys
        assert chain.sink.archive == solo.windows
        assert chain.receipts == solo.receipts
        assert chain.trie.root_hash() == solo.final_root
    assert chains[0].initial_keys < chains[1].initial_keys
    assert chains[0].sink.archive != chains[1].sink.archive
