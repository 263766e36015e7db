"""Shared test helpers: synthetic windows and series for fitting tests,
and one transaction's samples read back through a sink."""

import random

from gaslab.chain import execute_transaction
from gaslab.metrics import InstructionStat, SampleSink, WindowAggregate
from gaslab.model.classify import opcode_table


def synth_windows(coeffs, n_windows, step, sigma, seed, opcode="OP",
                  count=1000):
    """Windows whose per-window mean time follows a noisy polynomial."""
    rng = random.Random(seed)
    windows = []
    for i in range(n_windows):
        height = i * step
        mean = sum(c * height ** p for p, c in enumerate(coeffs))
        mean = max(1.0, mean + rng.gauss(0.0, sigma))
        windows.append(WindowAggregate(
            height,
            {opcode: InstructionStat(count, count * 3,
                                     int(round(mean * count)))}, {}))
    return windows


def synth_series(*args, opcode="OP", **kwargs):
    """`synth_windows`' opcode as one `opcode_table` series."""
    return opcode_table(synth_windows(*args, opcode=opcode, **kwargs))[opcode]


def transaction_samples(code, trie, gas_limit, height, schedule, **kwargs):
    """Run one transaction into a fresh `SampleSink`.

    Returns the receipt and the sink's closed window as {opcode name:
    [count, gas, time ns]}: the transaction's own samples, child calls
    included.
    """
    sink = SampleSink()
    receipt = execute_transaction(code, trie, gas_limit, height, schedule,
                                  sink=sink, **kwargs)
    window = sink.close_window(1)
    return receipt, {name: list(stat)
                     for name, stat in window.instructions.items()}


def sample_gas_total(samples):
    """Gas charged across a transaction's samples, child calls included."""
    return sum(s[1] for s in samples.values())
