import math
from importlib import resources

import pytest

from gaslab.evm.opcodes import ALL_OPCODES, Opcode
from gaslab.evm.schedule import (ConstantRule, GasSchedule, PolynomialRule,
                                 ScheduleError, SstoreRule, default_schedule,
                                 memory_expansion_cost)


def test_default_schedule_spot_values():
    sched = default_schedule()
    assert sched.intrinsic_gas == 21000
    assert sched.rules[Opcode.ADD] == ConstantRule(3)
    assert sched.rules[Opcode.MUL] == ConstantRule(5)
    assert sched.rules[Opcode.POP] == ConstantRule(2)
    assert sched.rules[Opcode.SLOAD] == ConstantRule(200)
    assert sched.rules[Opcode.SSTORE] == SstoreRule(20000, 5000)
    assert sched.rules[Opcode.JUMP] == ConstantRule(8)
    assert sched.rules[Opcode.JUMPI] == ConstantRule(10)
    assert sched.rules[Opcode.JUMPDEST] == ConstantRule(1)
    assert sched.rules[Opcode.CALLCODE] == ConstantRule(700)
    assert sched.rules[Opcode.MSTORE] == ConstantRule(3)
    assert "MSTORE = 3 +mem" in sched.format().splitlines()
    assert sched.rules[Opcode.STOP] == ConstantRule(0)
    for k in range(1, 33):
        assert sched.rules[Opcode[f"PUSH{k}"]].cost == 3


def test_every_implemented_opcode_has_a_rule():
    sched = default_schedule()
    for op in ALL_OPCODES:
        assert sched.rules[op] is not None


def test_missing_opcode_is_startup_error():
    text = default_schedule().format()
    # drop the SLOAD line entirely
    text = "\n".join(l for l in text.splitlines()
                     if not l.startswith("SLOAD"))
    with pytest.raises(ScheduleError, match="SLOAD"):
        GasSchedule.parse(text)


def test_config_round_trip(tmp_path):
    sched = default_schedule()
    path = tmp_path / "sched.cfg"
    path.write_text(sched.format())
    loaded = GasSchedule.load(path)
    assert loaded.rules == sched.rules
    assert loaded.intrinsic_gas == sched.intrinsic_gas


def test_family_entry_with_individual_override():
    # format() expands families, so strip the PUSHn lines before overriding
    base = "\n".join(l for l in default_schedule().format().splitlines()
                     if not l.startswith("PUSH"))
    sched = GasSchedule.parse(base + "\nPUSH = 7\nPUSH1 = 9\n")
    assert sched.rules[Opcode.PUSH1].cost == 9
    assert sched.rules[Opcode.PUSH2].cost == 7


def test_zero_cost_rejected_for_non_terminal_opcodes():
    text = default_schedule().format().replace("ADD = 3", "ADD = 0")
    with pytest.raises(ScheduleError, match="ADD"):
        GasSchedule.parse(text)


def test_zero_cost_allowed_for_terminal_opcodes():
    sched = default_schedule()
    assert sched.rules[Opcode.STOP].cost == 0
    assert sched.rules[Opcode.RETURN].cost == 0


def test_polynomial_rule_floors_at_one():
    rule = PolynomialRule((0.2, 0.0))
    assert rule.base_cost(0) == 1
    assert rule.base_cost(10 ** 7) == 1
    growing = PolynomialRule((10.0, 0.5))
    assert growing.base_cost(100) == 60
    # round half up
    assert PolynomialRule((2.5,)).base_cost(0) == 3


def test_polynomial_rule_zero_high_coefficients_stay_finite():
    # h**1100 overflows a float, and 0 * inf would be NaN.
    padded = PolynomialRule((5.0,) + (0.0,) * 1100)
    assert [padded.base_cost(h) for h in (1, 2, 10 ** 6)] == [5, 5, 5]
    assert PolynomialRule((5.0, 0.0, 1.0)).base_cost(10 ** 200) == math.inf


def test_polynomial_schedule_parses():
    text = default_schedule().format().replace(
        "SLOAD = 200", "SLOAD = poly:200.0,0.004")
    sched = GasSchedule.parse(text)
    rule = sched.rules[Opcode.SLOAD]
    assert isinstance(rule, PolynomialRule)
    assert rule.base_cost(0) == 200
    assert rule.base_cost(1_000_000) == 4200
    # and it survives the config round trip
    again = GasSchedule.parse(sched.format())
    assert again.rules[Opcode.SLOAD] == rule


def test_bad_rule_reports_line():
    with pytest.raises(ScheduleError, match="line"):
        GasSchedule.parse("ADD = banana\n")
    with pytest.raises(ScheduleError, match="unknown opcode"):
        GasSchedule.parse("FROB = 3\n")
    with pytest.raises(ScheduleError, match="line 2: bad intrinsic"):
        GasSchedule.parse("ADD = 3\nintrinsic = x\n")


@pytest.mark.parametrize("line, opcode", [
    ("MSTORE = 3", "MSTORE"),               # +mem missing
    ("MLOAD = poly:3,0.001", "MLOAD"),
    ("RETURN = 0", "RETURN"),
    ("POP = 2 +mem", "POP"),                # +mem on a non-memory opcode
    ("SLOAD = poly:200,0.001 +mem", "SLOAD"),
    ("POP = sstore:1,2", "POP"),            # tiers on a non-SSTORE opcode
    ("PUSH = sstore:1,2", "PUSH1"),
    ("MSTORE = sstore:1,2", "MSTORE"),
    ("SSTORE = sstore:20000,5000 +mem", "SSTORE"),
])
def test_rule_must_fit_its_opcode(line, opcode):
    default = resources.files("gaslab").joinpath(
        "data/gas_schedule_default.cfg").read_text()
    with pytest.raises(ScheduleError, match=opcode):
        GasSchedule.parse(default + line + "\n")


def test_memory_expansion_quadratic_against_closed_form():
    # independent oracle: C(a) = 3a + floor(a^2/512), charge = C(new) - C(old)
    def closed_form(words):
        return 3 * words + words * words // 512

    for old, new in [(0, 1), (0, 32), (1, 1), (4, 100), (100, 5000), (7, 3)]:
        expected = max(0, closed_form(new) - closed_form(old))
        if new <= old:
            expected = 0
        assert memory_expansion_cost(old, new) == expected
