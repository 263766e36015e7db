"""Repricing: derive a gas model with constant time-per-gas.

Given per-opcode time predictions t_i(n) and a target constant C (time per
unit gas), the proposed gas model is g_i(n) = t_i(n) / C. In real
arithmetic this makes the standard contract's time-per-gas exactly C at
every height; materializing the model into an integer schedule (round half
up, floor 1) keeps it there within rounding error.

A gas model is a plain ``dict`` from opcode name to `ScalarModel`, the same
shape as the time models; `ScalarModel.evaluate` clamps a negative
prediction to the training floor, so a model evaluated past its training
range never yields a negative cost.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

from ..evm.opcodes import from_name
from ..evm.schedule import (ConstantRule, GasSchedule, ScheduleError,
                             default_schedule, round_gas)
from ..metrics import WindowAggregate
from .base import InvalidConstantError, ScalarModel

DEFAULT_TIME_PER_GAS = 5.0  # observed time per unit gas in early blocks


def propose_gas_model(time_models: Mapping[str, ScalarModel],
                      target_tpg: float = DEFAULT_TIME_PER_GAS
                      ) -> dict[str, ScalarModel]:
    """g_i(n) = t_i(n) / C for every modeled opcode; C must be finite."""
    if not 0 < target_tpg < math.inf:
        raise InvalidConstantError(
            f"target time-per-gas must be finite and positive, "
            f"got {target_tpg}")
    return {op: model.scale(1.0 / target_tpg)
            for op, model in time_models.items()}


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


def materialize_schedule(gas_models: Mapping[str, ScalarModel], height: int,
                         base: Optional[GasSchedule] = None) -> GasSchedule:
    """Concrete integer schedule at one height.

    Modeled opcodes take `round_gas` of their gas at that height (round
    half up, never below 1); opcodes absent from the model keep the base
    schedule's rule (the default schedule if no base is given). SSTORE's
    tier rule collapses to the modeled scalar. MLOAD, MSTORE and RETURN
    still charge memory expansion, which belongs to the opcode. A gas that
    is not finite at `height` raises ScheduleError.
    """
    if base is None:
        base = default_schedule()
    rules = dict(base.rules)
    for name, model in gas_models.items():
        op = from_name(name)
        if op is None:
            continue
        gas = model.evaluate(height)
        if not math.isfinite(gas):
            raise ScheduleError(
                f"{name}: gas at height {height} is not finite ({gas})")
        rules[op] = ConstantRule(round_gas(gas))
    return GasSchedule(rules, base.intrinsic_gas)
