"""Synthetic chain driver: generate, verify, and import blocks in order.

Each block goes through a structural verification (height continuity, gas
limits) and a strictly serialized import that executes every transaction
against the world trie and commits storage writes. Spans land in the macro categories of the instrumentation module:
Total wraps verify plus import, TX wraps each transaction's execution, EVM
the interpreter loop inside it, and DB the storage commits (per transaction
plus a per-block finalize). Verification is structural only — signature and
proof-of-work checking live outside this laboratory's scope.

Timing runs on a wall or virtual clock (see `gaslab.clock`); everything
else — gas totals, roots, receipts — is identical across clocks and runs,
which is what the replay-determinism guarantee rests on.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional

from .clock import VirtualClock, WallClock
from .evm.machine import TxStatus, execute_transaction
from .evm.schedule import GasSchedule
from .metrics import (MacroCategory, SampleSink, WindowAggregate, _counter,
                      read_table)
from .trie import MerklePatriciaTrie, NodeStore
from .workload import Block, WorkloadGenerator, WorkloadSpec


class VerificationError(ValueError):
    """Block failed the structural verification check."""


RECEIPTS_HEADER = "height,tx_index,status,gas_used,gas_limit,instructions"


class ReceiptRow(NamedTuple):
    height: int
    tx_index: int
    status: str          # a TxStatus value
    gas_used: int
    gas_limit: int
    instructions: int


_STATUSES = frozenset(status.value for status in TxStatus)


def _receipt_row(fields: list[str]) -> ReceiptRow:
    height, tx_index, status, gas_used, gas_limit, instructions = fields
    if status not in _STATUSES:
        raise ValueError(f"unknown status {status!r}")
    return ReceiptRow(_counter(height), _counter(tx_index), status,
                      _counter(gas_used), _counter(gas_limit),
                      _counter(instructions))


def read_receipts(path: str | Path) -> list[ReceiptRow]:
    """Rows of a receipts table as `simulate` writes it; a row whose status
    is not a TxStatus value, or whose number is not a counter (see
    `gaslab.metrics`), raises CsvFormatError naming its line."""
    return read_table(path, RECEIPTS_HEADER, _receipt_row)


@dataclass
class ChainRunReport:
    windows: list[WindowAggregate]
    receipts: list[ReceiptRow]
    final_root: bytes
    initial_keys: int
    final_keys: int
    num_blocks: int
    window_size: int
    clock_mode: str


def verify_block(block: Block, expected_height: int,
                 schedule: GasSchedule) -> None:
    if block.height != expected_height:
        raise VerificationError(
            f"expected height {expected_height}, got {block.height}")
    for i, tx in enumerate(block.transactions):
        if tx.gas_limit < schedule.intrinsic_gas:
            raise VerificationError(
                f"tx {i}: gas limit {tx.gas_limit} below intrinsic")


def run_chain(spec: WorkloadSpec, num_blocks: int, schedule: GasSchedule,
              window_size: int = 500, virtual: bool = False,
              sink: Optional[SampleSink] = None) -> ChainRunReport:
    """Drive num_blocks synthetic blocks through the interpreter and trie.

    Timing runs on the wall clock, or with `virtual` on a `VirtualClock`
    over the run's own work counters (`store.work`).
    """
    if num_blocks < 1:
        raise ValueError("num_blocks must be >= 1")
    if window_size < 1:
        raise ValueError("window_size must be >= 1")

    store = NodeStore()
    clock = VirtualClock(store.work) if virtual else WallClock
    trie = MerklePatriciaTrie(store=store)
    generator = WorkloadGenerator(spec, schedule)
    generator.write_genesis(trie)
    initial_keys = trie.key_count

    if sink is None:
        sink = SampleSink(0)
    receipts: list[ReceiptRow] = []

    # The cyclic collector's full passes scan the whole heap, which grows
    # with the node store; those pauses land inside instruction timings and
    # masquerade as height-dependent slowdown of every opcode. Block
    # execution allocates acyclically, so reference counting suffices for
    # the duration of the run.
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        _run_blocks(num_blocks, schedule, window_size, clock, trie,
                    generator, sink, receipts)
    finally:
        if gc_was_enabled:
            gc.enable()

    return ChainRunReport(
        windows=list(sink.archive),
        receipts=receipts,
        final_root=trie.root_hash(),
        initial_keys=initial_keys,
        final_keys=trie.key_count,
        num_blocks=num_blocks,
        window_size=window_size,
        clock_mode="virtual" if virtual else "wall",
    )


def _run_blocks(num_blocks, schedule, window_size, clock, trie, generator,
                sink, receipts):
    work = trie.store.work
    for height in range(num_blocks):
        if height and height % window_size == 0:
            sink.close_window(height)

        block = generator.generate_block(height)

        total_start = clock.now_ns()
        verify_start = clock.now_ns()
        verify_block(block, height, schedule)
        work.spans += 1
        sink.record_span(MacroCategory.VERIFY, clock.now_ns() - verify_start)

        import_start = clock.now_ns()
        for tx_index, tx in enumerate(block.transactions):
            receipt = execute_transaction(
                tx.code, trie, tx.gas_limit, height, schedule,
                clock=clock, sink=sink)
            receipts.append(ReceiptRow(
                height, tx_index, receipt.status.value, receipt.gas_used,
                tx.gas_limit, receipt.instructions))

        finalize_start = clock.now_ns()
        work.commits += 1
        trie.root_hash()  # commit the block's writes inside the DB span
        sink.record_span(MacroCategory.DB, clock.now_ns() - finalize_start)

        now = clock.now_ns()
        sink.record_span(MacroCategory.IMPORT, now - import_start)
        sink.record_span(MacroCategory.TOTAL, now - total_start)

    sink.close_window(num_blocks)
