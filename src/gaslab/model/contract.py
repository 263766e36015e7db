"""The standard-contract execution model.

A standard contract is a hypothetical program summarizing a whole run: its
average instruction count per invocation and the normalized frequency of
each opcode. Combined with per-opcode time and gas predictions it yields
the average program time, gas, and time-per-gas at any block-height. The
model is additive: instructions contribute independently, with no
inter-instruction effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Mapping

from .base import (InsufficientDataError, MissingModelError, ScalarModel,
                   UndefinedRatioError)

_FREQ_TOLERANCE = 1e-9


@dataclass(frozen=True)
class StandardContract:
    length: float                    # average instructions per invocation
    frequencies: dict[str, float]    # opcode -> normalized frequency

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError("contract length must be positive")
        total = 0.0
        for op, freq in self.frequencies.items():
            if freq < 0:
                raise ValueError(f"negative frequency for {op}")
            total += freq
        if abs(total - 1.0) > _FREQ_TOLERANCE:
            raise ValueError(f"frequencies sum to {total!r}, expected 1")

    @classmethod
    def from_counts(cls, length: float,
                    counts: Mapping[str, int]) -> "StandardContract":
        total = sum(counts.values())
        if total <= 0:
            raise InsufficientDataError("no instruction counts")
        return cls(length, {op: c / total for op, c in counts.items() if c})


def _weighted_sum(n: float, models: Mapping[str, ScalarModel],
                  contract: StandardContract, what: str) -> float:
    acc = 0.0
    for op, freq in contract.frequencies.items():
        if freq == 0:
            continue
        model = models.get(op)
        if model is None:
            raise MissingModelError(f"no {what} model for opcode {op}")
        acc += model.evaluate(n) * freq
    return contract.length * acc


def avg_prog_time(n: float, time_models: Mapping[str, ScalarModel],
                  contract: StandardContract) -> float:
    """Average execution time of the standard contract at block-height n."""
    return _weighted_sum(n, time_models, contract, "time")


def avg_prog_gas(n: float, gas_models: Mapping[str, ScalarModel],
                 contract: StandardContract) -> float:
    """Average gas cost of the standard contract at block-height n."""
    return _weighted_sum(n, gas_models, contract, "gas")


def avg_prog_tpg(n: float, time_models: Mapping[str, ScalarModel],
                 gas_models: Mapping[str, ScalarModel],
                 contract: StandardContract) -> float:
    """Average time per unit gas at block-height n."""
    gas = avg_prog_gas(n, gas_models, contract)
    if gas == 0:
        raise UndefinedRatioError("average program gas is zero")
    return avg_prog_time(n, time_models, contract) / gas


def dependent_time_share(n: float, time_models: Mapping[str, ScalarModel],
                         dependent: Collection[str],
                         contract: StandardContract) -> float:
    """Fraction of standard-contract time spent in the dependent opcodes."""
    total = avg_prog_time(n, time_models, contract)
    if total == 0:
        raise UndefinedRatioError("average program time is zero")
    dependent_time = 0.0
    for op, freq in contract.frequencies.items():
        if freq != 0 and op in dependent:
            dependent_time += time_models[op].evaluate(n) * freq
    return contract.length * dependent_time / total
