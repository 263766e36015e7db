"""Macroscopic and microscopic instrumentation with windowed aggregation.

Macro spans are category-level wall times (Total/Verify/Import/DB/TX/EVM);
micro samples are per-opcode (count, gas, time) triples. Samples accumulate
into the window that owns the current block-height range; closed windows are
immutable and archived.

One thread records: the chain driver runs blocks in order and closes a
window between blocks. The open window is a dict of span totals and three
`array('q')`s of 256 signed 64-bit totals indexed by opcode byte
(`counts`, `gas`, `times`), so each total has the `COUNTER_MAX` bound the
tables hold, and one past it raises OverflowError. Either interpreter loop
adds each instruction's sample into those arrays as the instruction ends,
so no sample exists per transaction. `close_window` names the bytes that
ran once per window, through `evm.opcodes.NAME_BY_BYTE`, freezes the
window and opens fresh arrays. `record_instruction_totals` merges totals
that are already aggregated by opcode name into the same arrays.

This module owns the table format of every CSV that gaslab reads or
writes (the interchange boundary for analysis): `read_table` and
`write_table` are the only code that splits or joins table lines. A table
is an exact header line, then rows with the header's field count; blank
lines and lines starting with '#' are skipped, so fixture files can carry
their provenance inline. A malformed table raises `CsvFormatError` naming
`path:line`. It owns the text of every JSON document gaslab writes too:
`json_text`. Files are written atomically (temp name, then rename).

    micro: window_start,opcode,count,total_gas,total_time_ns
    macro: window_start,category,total_time_ns

All times are integer nanoseconds. Every number in these two tables is a
non-negative counter that fits a signed 64-bit integer (`COUNTER_MAX`).
`read_windows` reads both tables back into one window list, joined on
window_start, so analysis sees the windows `SampleSink` archived.
"""

from __future__ import annotations

import json
import os
import tempfile
from array import array
from dataclasses import dataclass, field
from itertools import compress
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, TypeVar

from .evm.opcodes import NAME_BY_BYTE, from_name

MICRO_HEADER = "window_start,opcode,count,total_gas,total_time_ns"
MACRO_HEADER = "window_start,category,total_time_ns"
COUNTER_MAX = 2 ** 63 - 1   # every counter fits a signed 64-bit integer

T = TypeVar("T")


class MacroCategory:
    """The span categories: plain strings, each its own macro.csv name."""

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
    """Malformed table; carries the offending line number."""

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
    """Windowed collector for macro spans and micro instruction samples.

    `counts`, `gas` and `times` hold the open window's per-opcode-byte
    totals, each an `array('q')` of 256 items; the interpreter adds into
    them directly as each instruction ends (see `gaslab.evm.machine`), and
    `gaslab.chain` records the spans.
    A span's category is a `MacroCategory` string, its macro.csv name.
    """

    def __init__(self, window_start: int = 0):
        self.archive: list[WindowAggregate] = []
        self._open(window_start)

    def _open(self, window_start: int) -> None:
        self._window_start = window_start
        self.counts = array("q", [0]) * 256
        self.gas = array("q", [0]) * 256
        self.times = array("q", [0]) * 256
        self._categories: dict[str, int] = {}

    def record_span(self, category: str, duration_ns: int) -> None:
        categories = self._categories
        categories[category] = categories.get(category, 0) + duration_ns

    def record_instruction_totals(self, samples: dict[str, list[int]]) -> None:
        """Merge pre-aggregated samples, opcode name -> [count, gas, time
        ns], into the open window. Names with a zero count are ignored; an
        unknown name with a non-zero count raises ValueError, and then
        nothing is merged. A total past `COUNTER_MAX` raises
        OverflowError."""
        merged = []
        for name, (count, gas, duration_ns) in samples.items():
            if count == 0:
                continue
            opcode = from_name(name)
            if opcode is None:
                raise ValueError(f"unknown opcode {name!r}")
            merged.append((opcode, count, gas, duration_ns))
        counts, gas_totals, times = self.counts, self.gas, self.times
        for byte, count, gas, duration_ns in merged:
            counts[byte] += count
            gas_totals[byte] += gas
            times[byte] += duration_ns

    def close_window(self, next_start: int) -> WindowAggregate:
        """Freeze and archive the current window; open one at next_start."""
        if next_start <= self._window_start:
            raise ValueError(
                f"next_start {next_start} must exceed current window "
                f"start {self._window_start}")
        counts, gas, times = self.counts, self.gas, self.times
        aggregate = WindowAggregate(
            self._window_start,
            {NAME_BY_BYTE[byte]: InstructionStat(
                counts[byte], gas[byte], times[byte])
             for byte in compress(range(256), counts)},
            self._categories)
        self.archive.append(aggregate)
        self._open(next_start)
        return aggregate


# ---------------------------------------------------------------------------
# Tables: one reader and one writer for every CSV gaslab reads or writes
# ---------------------------------------------------------------------------

def atomic_write_text(path: str | Path, text: str) -> None:
    """Write to a temp name in the target directory, then rename into place."""
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fp:
            fp.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def json_text(doc: object) -> str:
    """The text of every JSON document gaslab writes: keys sorted,
    two-space indent, one trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_table(path: str | Path, header: str,
                rows: Iterable[Iterable[object]]) -> None:
    """Write header and rows atomically; cells print with str(), None as ''."""
    lines = [header]
    lines += [",".join("" if cell is None else str(cell) for cell in row)
              for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_table(path: str | Path, header: str,
               parse_row: Callable[[list[str]], T]) -> list[T]:
    """Parse every data row of a table at path with parse_row.

    Blank lines and '#' lines are skipped. The first other line must equal
    header, every later line must have the header's field count, and there
    must be at least one data row. A ValueError from parse_row, or a byte
    that is not UTF-8, becomes a CsvFormatError naming its line.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        line_no = exc.object.count(b"\n", 0, exc.start) + 1
        raise CsvFormatError(str(path), line_no, "not UTF-8 text") from None
    width = header.count(",") + 1
    rows: list[T] = []
    header_line = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_line:
            if line != header:
                raise CsvFormatError(str(path), line_no,
                                     f"expected header {header!r}")
            header_line = line_no
            continue
        fields = line.split(",")
        if len(fields) != width:
            raise CsvFormatError(str(path), line_no,
                                 f"expected {width} fields, got {len(fields)}")
        try:
            rows.append(parse_row(fields))
        except ValueError as exc:
            raise CsvFormatError(str(path), line_no, str(exc)) from None
    if not header_line:
        raise CsvFormatError(str(path), 1, "missing header")
    if not rows:
        raise CsvFormatError(str(path), header_line, "no data rows")
    return rows


def write_micro_csv(windows: Iterable[WindowAggregate], path: str | Path) -> None:
    write_table(path, MICRO_HEADER, (
        (window.start, op, *window.instructions[op])
        for window in windows for op in sorted(window.instructions)
        if window.instructions[op].count))


def write_macro_csv(windows: Iterable[WindowAggregate], path: str | Path) -> None:
    write_table(path, MACRO_HEADER, (
        (window.start, name, window.categories[name])
        for window in windows for name in sorted(window.categories)))


_CATEGORIES = frozenset(value for name, value in vars(MacroCategory).items()
                        if name.isupper())


def _counter(cell: str) -> int:
    value = int(cell)
    if value < 0:
        raise ValueError("negative counter")
    if value > COUNTER_MAX:
        raise ValueError("counter above 2^63 - 1")
    return value


def _micro_row(fields: list[str]) -> tuple[int, str, InstructionStat]:
    return _counter(fields[0]), fields[1], InstructionStat(
        _counter(fields[2]), _counter(fields[3]), _counter(fields[4]))


def _macro_row(fields: list[str]) -> tuple[int, str, int]:
    if fields[1] not in _CATEGORIES:
        raise ValueError(f"unknown category {fields[1]!r}")
    return _counter(fields[0]), fields[1], _counter(fields[2])


def read_windows(micro_path: str | Path,
                 macro_path: str | Path | None = None) -> list[WindowAggregate]:
    """Read a micro table, and optionally a macro table, back into windows.

    The two tables join on window_start: a start found in only one of them
    keeps the other part empty. Windows come back sorted by start. A
    second row for one window's opcode or category is a CsvFormatError.
    """
    windows: dict[int, WindowAggregate] = {}

    def into(part: str, parse_row: Callable[[list[str]], tuple]):
        def parse_and_add(fields: list[str]) -> None:
            start, name, value = parse_row(fields)
            cells = getattr(windows.setdefault(start, WindowAggregate(start)),
                            part)
            if name in cells:
                raise ValueError(f"a second row for {name} in window {start}")
            cells[name] = value
        return parse_and_add

    read_table(micro_path, MICRO_HEADER, into("instructions", _micro_row))
    if macro_path is not None:
        read_table(macro_path, MACRO_HEADER, into("categories", _macro_row))
    return [windows[start] for start in sorted(windows)]
