"""Repricing closure: g = t / C makes time-per-gas exactly C."""

import random

import pytest
from _synth import transaction_samples
from hypothesis import given, settings, strategies as st

from gaslab.evm.machine import TxStatus
from gaslab.evm.opcodes import MEMORY_OPCODES, Opcode
from gaslab.evm.schedule import ConstantRule, default_schedule, round_gas
from gaslab.trie import MerklePatriciaTrie
from gaslab.metrics import InstructionStat, WindowAggregate
from gaslab.model.base import InvalidConstantError, ScalarModel
from gaslab.model.classify import opcode_table
from gaslab.model.contract import StandardContract, avg_prog_tpg
from gaslab.model.reprice import (current_gas_model, materialize_schedule,
                                  propose_gas_model)


def test_linear_time_model_reprices_linearly():
    time_models = {"SLOAD": ScalarModel("polynomial", (100.0, 50.0))}
    gas = propose_gas_model(time_models, 5.0)
    model = gas["SLOAD"]
    assert model.coefficients == (20.0, 10.0)  # (100 + 50n)/5 = 20 + 10n
    assert model.evaluate(0) == pytest.approx(20.0)
    assert model.evaluate(10) == pytest.approx(120.0)


def test_constant_time_model_reprices_to_constant():
    gas = propose_gas_model({"ADD": ScalarModel("constant", (400.0,))}, 5.0)
    assert gas["ADD"].evaluate(123456) == pytest.approx(80.0)


def test_invalid_constant_rejected():
    with pytest.raises(InvalidConstantError):
        propose_gas_model({}, 0.0)
    with pytest.raises(InvalidConstantError):
        propose_gas_model({}, -3.0)


def random_models_and_contract(rng):
    ops = [f"OP{i}" for i in range(rng.randrange(1, 6))]
    models = {}
    for op in ops:
        if rng.random() < 0.4:
            models[op] = ScalarModel("constant", (rng.uniform(5, 5000),))
        else:
            degree = rng.randrange(1, 4)
            coeffs = tuple(rng.uniform(0.05, 40) / 10 ** (3 * p)
                           for p in range(degree + 1))
            models[op] = ScalarModel("polynomial", coeffs, min_observed=0.0)
    weights = [rng.random() + 1e-3 for _ in ops]
    total = sum(weights)
    contract = StandardContract(rng.uniform(1, 400),
                                {op: w / total
                                 for op, w in zip(ops, weights)})
    return models, contract


def test_closure_tpg_equals_target_within_1e_9():
    rng = random.Random(77)
    for _ in range(100):
        models, contract = random_models_and_contract(rng)
        target = rng.uniform(0.2, 50)
        proposed = propose_gas_model(models, target)
        n = rng.uniform(0, 8e6)
        tpg = avg_prog_tpg(n, models, proposed, contract)
        assert abs(tpg - target) / target < 1e-9


def test_closure_survives_integerization_within_5_percent():
    rng = random.Random(78)
    for _ in range(100):
        models, contract = random_models_and_contract(rng)
        # keep integerization error small relative to typical costs
        target = rng.uniform(0.2, 2.0)
        proposed = propose_gas_model(models, target)
        n = float(rng.randrange(0, 8_000_000))
        time_total = 0.0
        int_gas_total = 0.0
        for op, freq in contract.frequencies.items():
            time_total += models[op].evaluate(n) * freq
            int_gas_total += round_gas(proposed[op].evaluate(n)) * freq
        tpg = time_total / int_gas_total
        assert abs(tpg - target) / target < 0.05


def test_scale_equivariance_of_proposed_gas():
    models = {"A": ScalarModel("polynomial", (10.0, 1.0)),
              "B": ScalarModel("constant", (500.0,))}
    proposed = propose_gas_model(models, 5.0)
    scaled = propose_gas_model({op: m.scale(3.0)
                                for op, m in models.items()}, 5.0)
    for op in models:
        for n in (0, 100, 10_000):
            assert scaled[op].evaluate(n) == pytest.approx(
                3.0 * proposed[op].evaluate(n))


def test_materialized_cost_floors_at_one():
    gas = propose_gas_model({"ADD": ScalarModel("constant", (0.4,))}, 5.0)
    assert materialize_schedule(gas, 0).rules[Opcode.ADD] == ConstantRule(1)


def test_materialize_schedule_rounds_half_up_and_keeps_base():
    time_models = {"SLOAD": ScalarModel("polynomial", (100.0, 50.0)),
                   "ADD": ScalarModel("constant", (12.4,))}
    schedule = materialize_schedule(propose_gas_model(time_models, 5.0), 10)
    assert schedule.rules[Opcode.SLOAD] == ConstantRule(120)
    assert schedule.rules[Opcode.ADD] == ConstantRule(2)  # 2.48 -> 2
    # unmodeled opcodes keep the default schedule's rule
    assert schedule.rules[Opcode.MUL] == default_schedule().rules[Opcode.MUL]
    assert schedule.intrinsic_gas == 21_000


MEM_OPS = sorted(MEMORY_OPCODES)


def _push(value):
    return bytes([Opcode.PUSH32]) + value.to_bytes(32, "big")


def _memory_program(op, offset, size):
    """Push operands and run op once at offset (RETURN: with size)."""
    if op is Opcode.MLOAD:
        return _push(offset) + bytes([op])
    if op is Opcode.MSTORE:
        return _push(7) + _push(offset) + bytes([op])
    return _push(size) + _push(offset) + bytes([op])


def _expansion_charged(op, schedule, offset, size):
    """Status and the gas op was charged beyond its base cost."""
    receipt, samples = transaction_samples(
        _memory_program(op, offset, size), MerklePatriciaTrie(), 3_000_000,
        0, schedule)
    charged = samples.get(op.name, [0, 0])[1]
    return receipt.status, charged - schedule.rules[op].cost


@given(st.dictionaries(st.sampled_from(MEM_OPS + [Opcode.ADD, Opcode.SLOAD]),
                       st.floats(0.0, 5e4), min_size=1),
       st.integers(0, 10 ** 6), st.integers(0, 2 ** 20),
       st.integers(0, 4096))
@settings(max_examples=60, deadline=None)
def test_materialized_schedule_charges_memory_expansion(costs, height,
                                                        offset, size):
    time_models = {op.name: ScalarModel("constant", (cost,))
                   for op, cost in costs.items()}
    schedule = materialize_schedule(propose_gas_model(time_models, 5.0),
                                    height)
    lines = schedule.format().splitlines()
    for op in MEM_OPS:
        assert f"{op.name} = {schedule.rules[op].cost} +mem" in lines
        assert (_expansion_charged(op, schedule, offset, size)
                == _expansion_charged(op, default_schedule(), offset, size))


def test_materialized_schedule_keeps_the_memory_bound():
    time_models = {op.name: ScalarModel("constant", (15.0,))
                   for op in MEM_OPS}
    schedule = materialize_schedule(propose_gas_model(time_models, 5.0), 0)
    for op in MEM_OPS:
        status, _ = _expansion_charged(op, schedule, 2 ** 40, 32)
        assert status is TxStatus.OUT_OF_GAS


def test_current_gas_model_uses_measured_means():
    windows = [
        WindowAggregate(0, {"SSTORE": InstructionStat(2, 25_000, 100)}, {}),
        WindowAggregate(1, {"SSTORE": InstructionStat(2, 10_000, 100)}, {}),
    ]
    models = current_gas_model(opcode_table(windows))
    assert models["SSTORE"].evaluate(0) == pytest.approx(35_000 / 4)
