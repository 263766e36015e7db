"""Gas schedules: per-opcode cost rules and their on-disk config format.

A rule is one of:

* a constant cost;
* SSTORE's two-tier rule (set a zero slot vs write a non-zero slot);
* a polynomial in block-height, used by repriced schedules. Polynomial
  costs are evaluated by Horner's rule, rounded half-up and floored at 1;
  coefficients must be finite, so at a height >= 0 the value is never NaN,
  and a value past float range at some height is a cost no transaction
  can pay there, so the instruction halts out of gas.

Config files are line-oriented ``NAME = rule`` text. Family names PUSH,
DUP and SWAP assign every member opcode at once; an individual entry
overrides its family. Example::

    intrinsic = 21000
    ADD = 3
    MSTORE = 3 +mem
    SSTORE = sstore:20000,5000
    SLOAD = poly:200,0.0015

On load, every implemented opcode must end up with a rule, and every
non-terminal opcode must cost at least one gas at any height (keeps all
executions finite); STOP and RETURN may cost zero. Each rule must fit its
opcode: only SSTORE may take the ``sstore:`` tier rule, and the rules of
MLOAD, MSTORE and RETURN, and of no other opcode, carry ``+mem``. The
marker is part of the file format only: those three opcodes always add the
quadratic memory-expansion delta to their rule's cost. A constant, either
``sstore:`` tier and ``intrinsic`` must be at most ``COUNTER_MAX``
(2^63 - 1), the bound of every gas limit and counter, so gas is one int64
domain; a polynomial's cost past it at some height is, like ``math.inf``,
more than any gas, and the instruction halts out of gas there. A file's
errors name their line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from ..metrics import COUNTER_MAX
from .opcodes import (ALL_OPCODES, MEMORY_OPCODES, Opcode, TERMINAL_OPCODES,
                      from_name)

INTRINSIC_GAS_DEFAULT = 21_000


class ScheduleError(ValueError):
    """Bad schedule config: syntax, missing opcode, or invalid cost."""


def round_gas(value: float) -> int:
    """Integer gas for a real-valued cost: round half up, never below 1."""
    return max(1, int(value + 0.5))


@dataclass(frozen=True)
class ConstantRule:
    cost: int

    def base_cost(self, block_height: int) -> int:
        return self.cost

    def format(self) -> str:
        return str(self.cost)


@dataclass(frozen=True)
class SstoreRule:
    set_cost: int
    reset_cost: int

    def format(self) -> str:
        return f"sstore:{self.set_cost},{self.reset_cost}"


@dataclass(frozen=True)
class PolynomialRule:
    """Cost = round-half-up of a polynomial in block-height, min 1,
    evaluated by Horner's rule; a value that is not finite costs
    `math.inf`, more than any budget."""

    coefficients: tuple[float, ...]  # ascending powers

    def base_cost(self, block_height: int) -> int | float:
        value = 0.0
        for coeff in reversed(self.coefficients):
            value = value * block_height + coeff
        return round_gas(value) if math.isfinite(value) else math.inf

    def format(self) -> str:
        return "poly:" + ",".join(repr(c) for c in self.coefficients)


GasRule = ConstantRule | SstoreRule | PolynomialRule


class GasSchedule:
    """Complete cost assignment for the implemented opcode set."""

    def __init__(self, rules: dict[Opcode, GasRule],
                 intrinsic_gas: int = INTRINSIC_GAS_DEFAULT):
        missing = [op.name for op in ALL_OPCODES if op not in rules]
        if missing:
            raise ScheduleError(f"schedule missing opcodes: {', '.join(missing)}")
        _validate_intrinsic(intrinsic_gas)
        for op, rule in rules.items():
            _validate_rule(op, rule)
        self.rules = dict(rules)
        self.intrinsic_gas = intrinsic_gas
        # The interpreter's per-byte cost table: a plain int for a constant
        # cost, the rule for a dynamic one, None for an unimplemented byte.
        self.by_byte: list = [None] * 256
        for op, rule in self.rules.items():
            self.by_byte[op] = (rule.cost if isinstance(rule, ConstantRule)
                                and op not in MEMORY_OPCODES else rule)

    # -- config round-trip ----------------------------------------------

    def format(self) -> str:
        lines = [f"intrinsic = {self.intrinsic_gas}"]
        for op in ALL_OPCODES:
            mem = " +mem" if op in MEMORY_OPCODES else ""
            lines.append(f"{op.name} = {self.rules[op].format()}{mem}")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "GasSchedule":
        family: dict[str, GasRule] = {}
        individual: dict[Opcode, GasRule] = {}
        intrinsic = INTRINSIC_GAS_DEFAULT
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ScheduleError(f"line {line_no}: expected NAME = rule")
            name, _, value = line.partition("=")
            name, value = name.strip(), value.strip()
            if name == "intrinsic":
                try:
                    intrinsic = int(value)
                except ValueError:
                    raise ScheduleError(f"line {line_no}: bad intrinsic gas: "
                                        f"{value!r}") from None
                _on_line(line_no, _validate_intrinsic, intrinsic)
                continue
            plus_memory = value.endswith("+mem")
            rule = _parse_rule(name, value.removesuffix("+mem").strip(),
                               line_no)
            op = None   # a family has no memory opcode
            if name in ("PUSH", "DUP", "SWAP"):
                family[name] = rule
                members = _family(name)
            else:
                op = from_name(name)
                if op is None:
                    raise ScheduleError(f"line {line_no}: unknown opcode {name!r}")
                individual[op] = rule
                members = [op]
            if plus_memory != (op in MEMORY_OPCODES):
                raise ScheduleError(
                    f"line {line_no}: {name}: +mem is required"
                    if op in MEMORY_OPCODES else
                    f"line {line_no}: {name}: +mem applies to MLOAD, MSTORE "
                    f"and RETURN only")
            for member in members:
                _on_line(line_no, _validate_rule, member, rule)
        rules: dict[Opcode, GasRule] = {}
        for prefix, rule in family.items():
            rules.update(dict.fromkeys(_family(prefix), rule))
        rules.update(individual)
        return cls(rules, intrinsic)

    @classmethod
    def load(cls, path: str | Path) -> "GasSchedule":
        try:
            text = Path(path).read_text()
        except UnicodeDecodeError as exc:
            raise ScheduleError(
                f"{path}: not UTF-8 text at byte {exc.start}") from None
        return cls.parse(text)


def _parse_rule(name: str, value: str, line_no: int) -> GasRule:
    try:
        if value.startswith("sstore:"):
            set_cost, reset_cost = value[len("sstore:"):].split(",")
            return SstoreRule(int(set_cost), int(reset_cost))
        if value.startswith("poly:"):
            coeffs = tuple(float(c) for c in value[len("poly:"):].split(","))
            if not all(map(math.isfinite, coeffs)):
                raise ValueError("non-finite coefficient")
            return PolynomialRule(coeffs)
        return ConstantRule(int(value))
    except (ValueError, TypeError):
        raise ScheduleError(f"line {line_no}: bad rule for {name}: {value!r}") from None


def _family(prefix: str) -> list[Opcode]:
    """The opcodes that a family name (PUSH, DUP or SWAP) sets."""
    return [op for op in ALL_OPCODES
            if op.name.startswith(prefix) and op.name[len(prefix):].isdigit()]


def _on_line(line_no: int, check, *args) -> None:
    """check(*args), naming the config line in its ScheduleError."""
    try:
        check(*args)
    except ScheduleError as exc:
        raise ScheduleError(f"line {line_no}: {exc}") from None


def _validate_intrinsic(gas: int) -> None:
    if not 0 <= gas <= COUNTER_MAX:
        raise ScheduleError(
            f"intrinsic gas {gas} is not in [0, {COUNTER_MAX}]")


def _validate_rule(op: Opcode, rule: GasRule) -> None:
    if isinstance(rule, SstoreRule) and op is not Opcode.SSTORE:
        raise ScheduleError(f"{op.name}: sstore: tiers apply to SSTORE only")
    if isinstance(rule, ConstantRule):
        minimum = 0 if op in TERMINAL_OPCODES else 1
        if rule.cost < minimum:
            raise ScheduleError(
                f"{op.name}: cost {rule.cost} below minimum {minimum}")
        if rule.cost > COUNTER_MAX:
            raise ScheduleError(
                f"{op.name}: cost {rule.cost} above {COUNTER_MAX}")
    elif isinstance(rule, SstoreRule):
        if rule.set_cost < 1 or rule.reset_cost < 1:
            raise ScheduleError(f"{op.name}: SSTORE tiers must be >= 1")
        if max(rule.set_cost, rule.reset_cost) > COUNTER_MAX:
            raise ScheduleError(
                f"{op.name}: SSTORE tiers must be <= {COUNTER_MAX}")
    elif isinstance(rule, PolynomialRule):
        if not rule.coefficients:
            raise ScheduleError(f"{op.name}: empty polynomial")
        # base_cost floors at 1, so any evaluation satisfies the minimum.


def default_schedule() -> GasSchedule:
    """The checked-in post-EIP-150 constant schedule."""
    text = resources.files("gaslab").joinpath(
        "data/gas_schedule_default.cfg").read_text()
    return GasSchedule.parse(text)


def memory_expansion_cost(old_words: int, new_words: int) -> int:
    """Yellow-Paper quadratic memory charge delta: C(a) = 3a + a^2 / 512."""
    if new_words <= old_words:
        return 0
    new_cost = 3 * new_words + new_words * new_words // 512
    old_cost = 3 * old_words + old_words * old_words // 512
    return new_cost - old_cost
