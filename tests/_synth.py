"""Shared test helpers: synthetic windows for fitting tests, receipt sums."""

import random

from gaslab.metrics import InstructionStat, WindowAggregate


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


def sample_gas_total(receipt):
    """Gas charged across a receipt's opcode samples, child calls included."""
    return sum(s[1] for s in receipt.samples.values())
