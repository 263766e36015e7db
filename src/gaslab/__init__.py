"""gaslab: a desk-scale EVM gas-cost laboratory.

A gas-metered stack-machine interpreter over a Merkle-Patricia state trie,
a synthetic chain driver that grows world state with block height, windowed
macro/micro instrumentation, and an analysis toolkit that classifies
height-dependent instructions, fits per-opcode time models, and derives a
repriced gas schedule with constant time-per-gas.

Importing the package loads none of its modules; import each name from the
module that defines it. The five names below load their module on first use.
"""

from importlib import import_module

_HOMES = {"MacroCategory": "metrics", "SampleSink": "metrics",
          "default_schedule": "evm.schedule", "load_workload": "workload",
          "run_chain": "chain"}


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
