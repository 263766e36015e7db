"""Macroscopic and microscopic instrumentation with windowed aggregation.

Macro spans are category-level wall times (Total/Verify/Import/DB/TX/EVM);
micro samples are per-opcode (count, gas, time) triples. Samples accumulate
into the window that owns the current block-height range; closed windows are
immutable and archived.

One thread records: the chain driver runs blocks in order and closes a
window between blocks, so the open window is two plain dicts that
`close_window` freezes and replaces.

On-disk CSV formats (the interchange boundary for analysis):

    micro: window_start,opcode,count,total_gas,total_time_ns
    macro: window_start,category,total_time_ns

Lines starting with '#' are treated as comments so fixture files can carry
their provenance inline. All times are integer nanoseconds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple

MICRO_HEADER = "window_start,opcode,count,total_gas,total_time_ns"
MACRO_HEADER = "window_start,category,total_time_ns"


class MacroCategory(enum.Enum):
    TOTAL = "Total"
    VERIFY = "Verify"
    IMPORT = "Import"
    DB = "DB"
    TX = "TX"
    EVM = "EVM"


class InstructionStat(NamedTuple):
    count: int
    gas: int
    time_ns: int


class CsvFormatError(ValueError):
    """Malformed instrumentation CSV; carries the offending line number."""

    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


@dataclass(frozen=True)
class WindowAggregate:
    """Immutable per-window totals."""

    start: int
    instructions: dict[str, InstructionStat] = field(default_factory=dict)
    categories: dict[str, int] = field(default_factory=dict)

    def instruction_time_total(self) -> int:
        return sum(s.time_ns for s in self.instructions.values())

    def instruction_gas_total(self) -> int:
        return sum(s.gas for s in self.instructions.values())


class SampleSink:
    """Windowed collector for macro spans and micro instruction samples."""

    def __init__(self, window_start: int = 0):
        self._window_start = window_start
        self._instructions: dict[str, list[int]] = {}
        self._categories: dict[str, int] = {}
        self.archive: list[WindowAggregate] = []

    def record_span(self, category: MacroCategory, duration_ns: int) -> None:
        categories = self._categories
        name = category.value
        categories[name] = categories.get(name, 0) + duration_ns

    def record_instruction_totals(self, opcode: str, count: int, gas: int,
                                  duration_ns: int) -> None:
        """Merge a pre-aggregated (count, gas, time) triple, e.g. a receipt."""
        if count == 0:
            return
        stat = self._instructions.get(opcode)
        if stat is None:
            self._instructions[opcode] = [count, gas, duration_ns]
        else:
            stat[0] += count
            stat[1] += gas
            stat[2] += duration_ns

    def close_window(self, next_start: int) -> WindowAggregate:
        """Freeze and archive the current window; open one at next_start."""
        if next_start <= self._window_start:
            raise ValueError(
                f"next_start {next_start} must exceed current window "
                f"start {self._window_start}")
        aggregate = WindowAggregate(
            self._window_start,
            {op: InstructionStat(*stat)
             for op, stat in self._instructions.items()},
            self._categories)
        self.archive.append(aggregate)
        self._window_start = next_start
        self._instructions = {}
        self._categories = {}
        return aggregate

    @property
    def window_start(self) -> int:
        return self._window_start


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

def write_micro_csv(windows: Iterable[WindowAggregate], path: str | Path) -> None:
    lines = [MICRO_HEADER]
    for window in windows:
        for op in sorted(window.instructions):
            stat = window.instructions[op]
            if stat.count == 0:
                continue
            lines.append(f"{window.start},{op},{stat.count},{stat.gas},{stat.time_ns}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_macro_csv(windows: Iterable[WindowAggregate], path: str | Path) -> None:
    lines = [MACRO_HEADER]
    for window in windows:
        for name in sorted(window.categories):
            lines.append(f"{window.start},{name},{window.categories[name]}")
    Path(path).write_text("\n".join(lines) + "\n")


def _data_lines(path: Path) -> Iterable[tuple[int, str]]:
    for line_no, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield line_no, line


def read_micro_csv(path: str | Path) -> list[WindowAggregate]:
    """Parse a micro CSV back into per-window aggregates, sorted by start."""
    path = Path(path)
    per_window: dict[int, dict[str, InstructionStat]] = {}
    saw_header = False
    for line_no, line in _data_lines(path):
        if not saw_header:
            if line != MICRO_HEADER:
                raise CsvFormatError(str(path), line_no,
                                     f"expected header {MICRO_HEADER!r}")
            saw_header = True
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise CsvFormatError(str(path), line_no,
                                 f"expected 5 fields, got {len(parts)}")
        try:
            start = int(parts[0])
            stat = InstructionStat(int(parts[2]), int(parts[3]), int(parts[4]))
        except ValueError as exc:
            raise CsvFormatError(str(path), line_no, str(exc)) from None
        if stat.count < 0 or stat.gas < 0 or stat.time_ns < 0:
            raise CsvFormatError(str(path), line_no, "negative counter")
        per_window.setdefault(start, {})[parts[1]] = stat
    if not saw_header:
        raise CsvFormatError(str(path), 1, "missing header")
    if not per_window:
        raise CsvFormatError(str(path), 1, "no data rows")
    return [WindowAggregate(start, instrs, {})
            for start, instrs in sorted(per_window.items())]


def read_macro_csv(path: str | Path) -> list[WindowAggregate]:
    path = Path(path)
    known = {c.value for c in MacroCategory}
    per_window: dict[int, dict[str, int]] = {}
    saw_header = False
    for line_no, line in _data_lines(path):
        if not saw_header:
            if line != MACRO_HEADER:
                raise CsvFormatError(str(path), line_no,
                                     f"expected header {MACRO_HEADER!r}")
            saw_header = True
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise CsvFormatError(str(path), line_no,
                                 f"expected 3 fields, got {len(parts)}")
        if parts[1] not in known:
            raise CsvFormatError(str(path), line_no,
                                 f"unknown category {parts[1]!r}")
        try:
            start, total = int(parts[0]), int(parts[2])
        except ValueError as exc:
            raise CsvFormatError(str(path), line_no, str(exc)) from None
        per_window.setdefault(start, {})[parts[1]] = total
    if not saw_header:
        raise CsvFormatError(str(path), 1, "missing header")
    if not per_window:
        raise CsvFormatError(str(path), 1, "no data rows")
    return [WindowAggregate(start, {}, cats)
            for start, cats in sorted(per_window.items())]


def merge_windows(micro: Iterable[WindowAggregate],
                  macro: Iterable[WindowAggregate]) -> list[WindowAggregate]:
    """Join micro and macro aggregates on window start height."""
    merged: dict[int, WindowAggregate] = {
        w.start: WindowAggregate(w.start, dict(w.instructions), {})
        for w in micro}
    for w in macro:
        base = merged.get(w.start)
        if base is None:
            merged[w.start] = WindowAggregate(w.start, {}, dict(w.categories))
        else:
            base.categories.update(w.categories)
    return [merged[start] for start in sorted(merged)]
