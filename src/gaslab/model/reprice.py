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
from .base import InvalidConstantError, ScalarModel
from .classify import OpcodeSeries

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


def current_gas_model(table: Mapping[str, OpcodeSeries]
                      ) -> dict[str, ScalarModel]:
    """Constant per-opcode gas from measured means (the schedule in force),
    over an `opcode_table`'s run totals.

    State-dependent rules (SSTORE tiers, memory expansion) show up here as
    their observed average, which is how a constant-cost view of the
    current schedule is obtained from logs.
    """
    means = {op: series.total.gas / series.total.count
             for op, series in table.items() if series.total.count}
    return {op: ScalarModel(kind="constant", coefficients=(mean,),
                            min_observed=mean)
            for op, mean in means.items()}


def integer_gas(name: str, model: ScalarModel, height: int) -> int:
    """`round_gas` of the model's gas at height (round half up, never
    below 1); a gas that is not finite raises ScheduleError."""
    gas = model.evaluate(height)
    if not math.isfinite(gas):
        raise ScheduleError(
            f"{name}: gas at height {height} is not finite ({gas})")
    return round_gas(gas)


def materialize_schedule(gas_models: Mapping[str, ScalarModel], height: int,
                         base: Optional[GasSchedule] = None) -> GasSchedule:
    """Concrete integer schedule at one height.

    Modeled opcodes take their `integer_gas` at that height; opcodes
    absent from the model keep the base schedule's rule (the default
    schedule if no base is given). SSTORE's tier rule collapses to the
    modeled scalar. MLOAD, MSTORE and RETURN still charge memory
    expansion, which belongs to the opcode.
    """
    if base is None:
        base = default_schedule()
    rules = dict(base.rules)
    for name, model in gas_models.items():
        op = from_name(name)
        if op is None:
            continue
        rules[op] = ConstantRule(integer_gas(name, model, height))
    return GasSchedule(rules, base.intrinsic_gas)
