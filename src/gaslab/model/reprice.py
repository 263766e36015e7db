"""Repricing: derive a gas model with constant time-per-gas.

Given per-opcode time predictions t_i(n) and a target constant C (time per
unit gas), the proposed gas model is g_i(n) = t_i(n) / C. In real
arithmetic this makes the standard contract's time-per-gas exactly C at
every height; materializing the model into an integer schedule (round half
up, floor 1) keeps it there within rounding error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..evm.opcodes import from_name
from ..evm.schedule import (ConstantRule, GasSchedule, default_schedule,
                             round_gas)
from ..metrics import WindowAggregate
from .base import InvalidConstantError, ScalarModel

DEFAULT_TIME_PER_GAS = 5.0  # observed time per unit gas in early blocks


@dataclass(frozen=True)
class GasModel:
    """Per-opcode gas predictions plus the target constant they encode."""

    models: dict[str, ScalarModel]
    target_tpg: float

    def materialized_cost(self, opcode: str, n: float) -> int:
        """Integer gas at height n: round half up, never below 1."""
        return round_gas(self.models[opcode].evaluate(n))


def propose_gas_model(time_models: Mapping[str, ScalarModel],
                      target_tpg: float = DEFAULT_TIME_PER_GAS) -> GasModel:
    """g_i(n) = t_i(n) / C for every modeled opcode."""
    if target_tpg <= 0:
        raise InvalidConstantError(
            f"target time-per-gas must be positive, got {target_tpg}")
    return GasModel(
        models={op: model.scale(1.0 / target_tpg)
                for op, model in time_models.items()},
        target_tpg=target_tpg,
    )


def current_gas_model(windows: list[WindowAggregate]) -> dict[str, ScalarModel]:
    """Constant per-opcode gas from measured means (the schedule in force).

    State-dependent rules (SSTORE tiers, memory expansion) show up here as
    their observed average, which is how a constant-cost view of the
    current schedule is obtained from logs.
    """
    totals: dict[str, list[int]] = {}
    for window in windows:
        for op, stat in window.instructions.items():
            if stat.count == 0:
                continue
            entry = totals.setdefault(op, [0, 0])
            entry[0] += stat.count
            entry[1] += stat.gas
    return {op: ScalarModel(kind="constant", coefficients=(gas / count,),
                            min_observed=gas / count)
            for op, (count, gas) in totals.items()}


def materialize_schedule(gas_model: GasModel, height: int,
                         base: Optional[GasSchedule] = None) -> GasSchedule:
    """Concrete integer schedule at one height.

    Modeled opcodes take their repriced constant; opcodes absent from the
    model keep the base schedule's rule (the default schedule if no base is
    given). SSTORE's tier rule collapses to the modeled scalar. A ``+mem``
    rule stays ``+mem``, so memory expansion is still charged and bounded.
    """
    if base is None:
        base = default_schedule()
    rules = dict(base.rules)
    for name, model in gas_model.models.items():
        op = from_name(name)
        if op is None:
            continue
        plus_memory = getattr(rules[op], "plus_memory", False)
        rules[op] = ConstantRule(gas_model.materialized_cost(name, height),
                                 plus_memory)
    return GasSchedule(rules, base.intrinsic_gas)
