"""gaslab: a desk-scale EVM gas-cost laboratory.

A gas-metered stack-machine interpreter over a Merkle-Patricia state trie,
a synthetic chain driver that grows world state with block height, windowed
macro/micro instrumentation, and an analysis toolkit that classifies
height-dependent instructions, fits per-opcode time models, and derives a
repriced gas schedule with constant time-per-gas.
"""

from .chain import ChainRunReport, run_chain
from .clock import VirtualClock, WallClock, Work
from .evm.machine import (IntrinsicGasError, Machine, TxReceipt, TxStatus,
                          execute_transaction)
from .evm.opcodes import Opcode
from .evm.schedule import GasSchedule, default_schedule
from .keccak import keccak_256
from .metrics import (MacroCategory, SampleSink, WindowAggregate,
                      read_windows, write_macro_csv, write_micro_csv)
from .trie import MerklePatriciaTrie, NodeStore
from .workload import WorkloadSpec, load_workload

__version__ = "0.1.0"

__all__ = [
    "ChainRunReport", "GasSchedule", "IntrinsicGasError", "Machine",
    "MacroCategory", "MerklePatriciaTrie", "NodeStore", "Opcode",
    "SampleSink", "TxReceipt", "TxStatus", "VirtualClock", "WallClock",
    "WindowAggregate", "Work", "WorkloadSpec", "default_schedule",
    "execute_transaction", "keccak_256", "load_workload", "read_windows",
    "run_chain", "write_macro_csv", "write_micro_csv",
]
