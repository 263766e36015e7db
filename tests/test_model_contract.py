import random

import pytest

from gaslab.model.base import (MissingModelError, ScalarModel,
                               UndefinedRatioError)
from gaslab.model.contract import (StandardContract, avg_prog_gas,
                                   avg_prog_time, avg_prog_tpg,
                                   dependent_time_share)


def constant(value):
    return ScalarModel("constant", (value,))


def test_frequencies_must_normalize():
    with pytest.raises(ValueError, match="sum"):
        StandardContract(2.0, {"ADD": 0.5, "MUL": 0.4})
    with pytest.raises(ValueError, match="positive"):
        StandardContract(0.0, {"ADD": 1.0})
    with pytest.raises(ValueError, match="negative"):
        StandardContract(1.0, {"ADD": 1.5, "MUL": -0.5})


def test_one_hot_contract_returns_the_single_model_value():
    contract = StandardContract(1.0, {"ADD": 1.0})
    assert avg_prog_time(0, {"ADD": constant(7.5)}, contract) == 7.5


def test_two_opcode_arithmetic():
    contract = StandardContract(10.0, {"A": 0.5, "B": 0.5})
    models = {"A": constant(2.0), "B": constant(4.0)}
    assert avg_prog_time(123, models, contract) == pytest.approx(30.0)
    assert avg_prog_gas(123, models, contract) == pytest.approx(30.0)


def test_missing_model_raises():
    contract = StandardContract(1.0, {"ADD": 0.5, "MUL": 0.5})
    with pytest.raises(MissingModelError, match="MUL"):
        avg_prog_time(0, {"ADD": constant(1.0)}, contract)


def test_zero_frequency_opcodes_need_no_model():
    contract = StandardContract(1.0, {"ADD": 1.0, "MUL": 0.0})
    assert avg_prog_time(0, {"ADD": constant(3.0)}, contract) == 3.0


def test_tpg_simple_ratio():
    contract = StandardContract(10.0, {"A": 0.5, "B": 0.5})
    times = {"A": constant(2.0), "B": constant(4.0)}   # avg time 30
    gases = {"A": constant(0.4), "B": constant(0.8)}    # avg gas 6
    assert avg_prog_tpg(0, times, gases, contract) == pytest.approx(5.0)


def test_tpg_identity_when_time_is_scaled_gas():
    rng = random.Random(4)
    for _ in range(20):
        ops = [f"OP{i}" for i in range(rng.randrange(1, 5))]
        target = rng.uniform(0.1, 50)
        gases = {op: constant(rng.uniform(1, 1000)) for op in ops}
        times = {op: g.scale(target) for op, g in gases.items()}
        raw = [rng.random() + 0.01 for _ in ops]
        total = sum(raw)
        contract = StandardContract(
            rng.uniform(1, 100), {op: r / total for op, r in zip(ops, raw)})
        n = rng.uniform(0, 1e7)
        assert avg_prog_tpg(n, times, gases, contract) == pytest.approx(
            target, rel=1e-12)


def test_tpg_zero_gas_is_undefined():
    contract = StandardContract(1.0, {"A": 1.0})
    with pytest.raises(UndefinedRatioError):
        avg_prog_tpg(0, {"A": constant(1.0)}, {"A": constant(0.0)}, contract)


def test_scale_equivariance():
    # scaling all times by s scales avg_prog_time by s
    contract = StandardContract(3.0, {"A": 0.25, "B": 0.75})
    times = {"A": ScalarModel("polynomial", (1.0, 2.0)), "B": constant(5.0)}
    scaled = {op: m.scale(7.0) for op, m in times.items()}
    for n in (0, 10, 1000):
        assert avg_prog_time(n, scaled, contract) == pytest.approx(
            7.0 * avg_prog_time(n, times, contract))


def test_dependent_time_share_bounds():
    contract = StandardContract(2.0, {"A": 0.5, "B": 0.5})
    models = {"A": constant(10.0), "B": constant(30.0)}
    none_dep = dependent_time_share(0, models, [], contract)
    all_dep = dependent_time_share(0, models, ["A", "B"], contract)
    only_b = dependent_time_share(0, models, ["B"], contract)
    # a dependent opcode outside the contract adds no time
    assert dependent_time_share(0, models, ["B", "Z"], contract) == only_b
    assert none_dep == 0.0
    assert all_dep == 1.0
    assert only_b == pytest.approx(30.0 / 40.0)

