"""Synthetic chain driver: generate, verify, and import blocks in order.

A `Chain` owns one chain's state and `Chain.step` runs one block: a
structural verification (height continuity, gas limits; signatures and
proof of work are out of scope), then a strictly serialized import that
applies every transaction with `execute_transaction` (the interpreter,
`gaslab.evm.machine`, only interprets) and ends with a finalize.
`run_chain` steps one chain through a run. Spans land in the macro
categories of `gaslab.metrics`: Total wraps verify plus import, TX each
transaction's execution, EVM the interpreter loop inside it, and DB each
`_commit` (one per successful transaction plus a per-block finalize).

Timing runs on a wall or virtual clock (see `gaslab.clock`); everything
else — gas totals, roots, receipts — is identical across clocks and runs,
which is what the replay-determinism guarantee rests on.
"""

from __future__ import annotations

import gc
from pathlib import Path
from typing import NamedTuple, Optional

from .clock import VirtualClock, WallClock
from .evm.machine import Machine, TxStatus, write_slot
from .evm.schedule import GasSchedule
from .metrics import (MacroCategory, SampleSink, WindowAggregate, _counter,
                      read_table)
from .trie import MerklePatriciaTrie
from .workload import Block, WorkloadGenerator, WorkloadSpec


class VerificationError(ValueError):
    """Block failed the structural verification check."""


RECEIPTS_HEADER = "height,tx_index,status,gas_used,gas_limit,instructions"


class ReceiptRow(NamedTuple):
    height: int
    tx_index: int
    status: str          # a TxStatus string
    gas_used: int
    gas_limit: int
    instructions: int


_STATUSES = frozenset(value for name, value in vars(TxStatus).items()
                      if name.isupper())


def _receipt_row(fields: list[str]) -> ReceiptRow:
    height, tx_index, status, gas_used, gas_limit, instructions = fields
    if status not in _STATUSES:
        raise ValueError(f"unknown status {status!r}")
    return ReceiptRow(_counter(height), _counter(tx_index), status,
                      _counter(gas_used), _counter(gas_limit),
                      _counter(instructions))


def read_receipts(path: str | Path) -> list[ReceiptRow]:
    """Rows of a receipts table as `simulate` writes it; a row whose status
    is not a TxStatus string, or whose number is not a counter (see
    `gaslab.metrics`), raises CsvFormatError naming its line."""
    return read_table(path, RECEIPTS_HEADER, _receipt_row)


class ChainRunReport(NamedTuple):
    windows: list[WindowAggregate]
    receipts: list[ReceiptRow]
    final_root: bytes
    initial_keys: int
    final_keys: int


class IntrinsicGasError(ValueError):
    """Gas limit below the intrinsic transaction charge; not executed."""


class TxReceipt(NamedTuple):
    status: str          # a TxStatus string
    gas_used: int
    return_data: bytes
    instructions: int   # instructions completed, child calls included


def _commit(trie: MerklePatriciaTrie, clock, sink: SampleSink,
            writes: dict[int, int]) -> None:
    """Write `writes` in slot order and hash them inside one DB span, so
    that no commit lands in a later transaction's SLOAD or SSTORE timing."""
    start = clock.now_ns()
    trie.store.work.commits += 1
    for slot in sorted(writes):
        write_slot(trie, slot, writes[slot])
    trie.root_hash()
    end = clock.now_ns()
    sink.record_span(MacroCategory.DB, end - start)


def execute_transaction(code: bytes, trie: MerklePatriciaTrie, gas_limit: int,
                        block_height: int, schedule: GasSchedule,
                        clock=WallClock,
                        sink: Optional[SampleSink] = None) -> TxReceipt:
    """Run one transaction against the world trie: charge the intrinsic
    gas (a limit below it is rejected without execution), interpret the
    code in a `Machine`, and commit its buffered writes only on success.
    `sink` (a fresh `SampleSink` when none is given) gets the TX, EVM and
    DB spans and, from the interpreter, each instruction's (count, gas,
    time) sample, which excludes the intrinsic charge. The receipt's
    instruction count is the change in the run's work counter.
    """
    if gas_limit < schedule.intrinsic_gas:
        raise IntrinsicGasError(
            f"gas limit {gas_limit} below intrinsic {schedule.intrinsic_gas}")

    work = trie.store.work
    instructions_before = work.instructions
    tx_start = clock.now_ns()
    machine = Machine(code, trie, gas_limit - schedule.intrinsic_gas,
                      block_height, schedule, clock=clock, sink=sink)
    sink = machine.sink
    evm_start = clock.now_ns()
    status = machine.run()
    evm_end = clock.now_ns()
    sink.record_span(MacroCategory.EVM, evm_end - evm_start)
    tx_end = clock.now_ns()
    sink.record_span(MacroCategory.TX, tx_end - tx_start)
    if status is TxStatus.SUCCESS:
        _commit(trie, clock, sink, machine.storage_buffer)
    return TxReceipt(status, gas_limit - machine.gas, machine.return_data,
                     work.instructions - instructions_before)


def verify_block(block: Block, expected_height: int,
                 schedule: GasSchedule) -> None:
    if block.height != expected_height:
        raise VerificationError(
            f"expected height {expected_height}, got {block.height}")
    for i, tx in enumerate(block.transactions):
        if tx.gas_limit < schedule.intrinsic_gas:
            raise VerificationError(
                f"tx {i}: gas limit {tx.gas_limit} below intrinsic")


class Chain:
    """One chain's state, genesis written: its trie and node store, clock,
    block generator, sample sink and receipts. Under `virtual` the clock is
    a `VirtualClock` over this chain's own `trie.store.work`, so chains
    stepped in turn in one process each time only their own work."""

    def __init__(self, spec: WorkloadSpec, schedule: GasSchedule,
                 virtual: bool = False,
                 sink: Optional[SampleSink] = None) -> None:
        self.schedule = schedule
        self.trie = MerklePatriciaTrie()
        self.clock = (VirtualClock(self.trie.store.work) if virtual
                      else WallClock)
        self.generator = WorkloadGenerator(spec, schedule)
        self.generator.write_genesis(self.trie)
        self.initial_keys = self.trie.key_count
        self.sink = SampleSink(0) if sink is None else sink
        self.receipts: list[ReceiptRow] = []

    def step(self, height: int) -> None:
        """Generate, verify and import the block at height."""
        clock, trie, schedule, sink = (self.clock, self.trie, self.schedule,
                                       self.sink)
        now_ns, record_span = clock.now_ns, sink.record_span
        work, append = trie.store.work, self.receipts.append
        block = self.generator.generate_block(height)

        total_start = now_ns()
        verify_start = now_ns()
        verify_block(block, height, schedule)
        work.spans += 1
        verify_end = now_ns()
        record_span(MacroCategory.VERIFY, verify_end - verify_start)

        import_start = now_ns()
        for tx_index, tx in enumerate(block.transactions):
            receipt = execute_transaction(
                tx.code, trie, tx.gas_limit, height, schedule,
                clock=clock, sink=sink)
            append(ReceiptRow(
                height, tx_index, receipt.status, receipt.gas_used,
                tx.gas_limit, receipt.instructions))

        _commit(trie, clock, sink, {})  # the block finalize writes nothing

        now = now_ns()
        record_span(MacroCategory.IMPORT, now - import_start)
        record_span(MacroCategory.TOTAL, now - total_start)


def run_chain(spec: WorkloadSpec, num_blocks: int, schedule: GasSchedule,
              window_size: int = 500, virtual: bool = False,
              sink: Optional[SampleSink] = None) -> ChainRunReport:
    """Drive num_blocks synthetic blocks through one `Chain`, closing a
    sample window every window_size blocks."""
    if num_blocks < 1:
        raise ValueError("num_blocks must be >= 1")
    if window_size < 1:
        raise ValueError("window_size must be >= 1")
    chain = Chain(spec, schedule, virtual, sink)
    step, close_window = chain.step, chain.sink.close_window

    # The cyclic collector's full passes scan the whole heap, which grows
    # with the node store; those pauses land inside instruction timings and
    # masquerade as height-dependent slowdown of every opcode. Block
    # execution allocates acyclically, so reference counting suffices for
    # the duration of the run.
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for height in range(num_blocks):
            if height and height % window_size == 0:
                close_window(height)
            step(height)
        close_window(num_blocks)
    finally:
        if gc_was_enabled:
            gc.enable()

    return ChainRunReport(
        windows=list(chain.sink.archive), receipts=chain.receipts,
        final_root=chain.trie.root_hash(), initial_keys=chain.initial_keys,
        final_keys=chain.trie.key_count)
