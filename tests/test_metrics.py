"""Sample sink accumulation, window lifecycle, and CSV round-trips."""

from importlib import resources

import pytest
from _synth import transaction_samples

from gaslab.chain import execute_transaction, run_chain
from gaslab.clock import VirtualClock, WallClock
from gaslab.evm.machine import TxStatus, store_code
from gaslab.evm.opcodes import Opcode
from gaslab.evm.schedule import default_schedule
from gaslab.metrics import (MACRO_HEADER, MICRO_HEADER, CsvFormatError,
                            InstructionStat, MacroCategory, SampleSink,
                            WindowAggregate, read_table, read_windows,
                            write_macro_csv, write_micro_csv, write_table)
from gaslab.report.pipeline import analyze_windows
from gaslab.trie import MerklePatriciaTrie
from gaslab.workload import load_workload

WORKLOADS = resources.files("gaslab").joinpath("data", "workloads")
SCHED = default_schedule()


def test_span_additivity():
    sink = SampleSink()
    sink.record_span(MacroCategory.EVM, 5)
    sink.record_span(MacroCategory.EVM, 5)
    window = sink.close_window(100)
    assert window.categories["EVM"] == 10


def test_span_isolation_between_categories():
    sink = SampleSink()
    sink.record_span(MacroCategory.EVM, 7)
    window = sink.close_window(100)
    assert window.categories.get("DB", 0) == 0
    assert window.categories["EVM"] == 7


def test_instruction_accumulation():
    sink = SampleSink()
    sink.record_instruction_totals({"ADD": [1, 3, 11]})
    sink.record_instruction_totals({"ADD": [1, 3, 9], "SLOAD": [1, 200, 1000]})
    window = sink.close_window(10)
    assert window.instructions["ADD"] == InstructionStat(2, 6, 20)
    assert window.instructions["SLOAD"] == InstructionStat(1, 200, 1000)


def test_close_empty_window_is_all_zero():
    sink = SampleSink()
    window = sink.close_window(500)
    assert window.start == 0
    assert window.instructions == {}
    assert window.categories == {}


def test_two_windows_archive_in_order():
    sink = SampleSink()
    sink.record_instruction_totals({"ADD": [1, 3, 5]})
    sink.close_window(100)
    sink.record_instruction_totals({"MUL": [1, 5, 7]})
    sink.close_window(200)
    assert [w.start for w in sink.archive] == [0, 100]
    assert sink.archive[0].instructions["ADD"].count == 1
    assert "MUL" not in sink.archive[0].instructions
    assert sink.archive[1].instructions["MUL"].count == 1


def test_close_window_requires_increasing_start():
    sink = SampleSink(window_start=100)
    with pytest.raises(ValueError):
        sink.close_window(100)


def test_pre_aggregated_totals_merge():
    sink = SampleSink()
    receipt = {"SLOAD": [4, 800, 4000]}
    sink.record_instruction_totals(receipt)
    sink.record_instruction_totals({"SLOAD": [1, 200, 900],
                                    "NOPE": [0, 0, 0]})  # zero-count ignored
    window = sink.close_window(10)
    assert window.instructions["SLOAD"] == InstructionStat(5, 1000, 4900)
    assert "NOPE" not in window.instructions
    assert receipt == {"SLOAD": [4, 800, 4000]}   # merged, not aliased


def test_unknown_opcode_with_a_count_is_rejected_whole():
    sink = SampleSink()
    with pytest.raises(ValueError, match="NOPE"):
        sink.record_instruction_totals({"ADD": [1, 3, 9], "NOPE": [1, 1, 1]})
    assert sink.close_window(10).instructions == {}


# ---------------------------------------------------------------------------
# Direct window totals against the per-receipt merge
# ---------------------------------------------------------------------------

def merge_receipt_samples(window, samples):
    """Reference merge: one transaction's samples, opcode name -> [count,
    gas, time ns], added into a name-keyed window; zero counts are
    ignored."""
    for opcode, (count, gas, duration_ns) in samples.items():
        if count == 0:
            continue
        stat = window.get(opcode)
        if stat is None:
            window[opcode] = [count, gas, duration_ns]
        else:
            stat[0] += count
            stat[1] += gas
            stat[2] += duration_ns


class RecordingClock:
    """The wall clock, keeping every reading."""

    def __init__(self):
        self.readings = []

    def now_ns(self):
        reading = WallClock.now_ns()
        self.readings.append(reading)
        return reading


class ReplayClock:
    """Gives back another run's readings in order."""

    def __init__(self, readings):
        self.readings = readings
        self.reads = 0

    def now_ns(self):
        self.reads += 1
        return self.readings[self.reads - 1]


def _push(value):
    return bytes([Opcode.PUSH1, value])


# Per block: a CALLCODE whose child stores, jumps and calls a grandchild;
# an SSTORE starved of gas; a JUMP to a non-JUMPDEST; a CALLCODE whose
# child halts on a bad jump; and a plain ADD.
DIFFERENTIAL_LIBRARY = {
    1: bytes([Opcode.PUSH1, 0x5A, Opcode.PUSH1, 2, Opcode.SSTORE,
              Opcode.PUSH1, 9, Opcode.JUMP, 0xFE, Opcode.JUMPDEST,
              Opcode.PUSH1, 2, Opcode.CALLCODE, Opcode.STOP]),
    2: bytes([Opcode.PUSH1, 3, Opcode.SLOAD, Opcode.POP, Opcode.STOP]),
    3: bytes([Opcode.PUSH1, 9, Opcode.JUMP]),
}


def differential_block(height):
    return [
        (_push(1) + bytes([Opcode.CALLCODE, Opcode.POP]) + _push(height)
         + _push(height + 8) + bytes([Opcode.SSTORE, Opcode.STOP]), 200_000),
        (_push(1) + _push(height + 40) + bytes([Opcode.SSTORE]),
         21_000 + 3 + 3 + 100),
        (_push(3) + bytes([Opcode.JUMP]) + _push(1), 50_000),
        (_push(3) + bytes([Opcode.CALLCODE, Opcode.STOP]), 50_000),
        (_push(2) + _push(3) + bytes([Opcode.ADD, Opcode.POP]), 30_000),
    ]


def differential_trie():
    trie = MerklePatriciaTrie()
    for code_id, code in DIFFERENTIAL_LIBRARY.items():
        store_code(trie, code_id, code)
    trie.root_hash()
    return trie


BLOCKS, WINDOW = 7, 3


def direct_windows(clock_for):
    """One sink for the whole run: the interpreter adds into its window."""
    trie = differential_trie()
    clock = clock_for(trie)
    sink = SampleSink()
    statuses = set()
    for height in range(BLOCKS):
        if height and height % WINDOW == 0:
            sink.close_window(height)
        for code, gas in differential_block(height):
            statuses.add(execute_transaction(
                code, trie, gas, height, SCHED, clock=clock,
                sink=sink).status)
    sink.close_window(BLOCKS)
    return ([(w.start, {op: list(stat) for op, stat in w.instructions.items()})
             for w in sink.archive], statuses)


def merged_windows(clock_for):
    """Each transaction into its own sink, merged into the window by name."""
    trie = differential_trie()
    clock = clock_for(trie)
    windows = []
    for height in range(BLOCKS):
        if height % WINDOW == 0:
            windows.append((height, {}))
        for code, gas in differential_block(height):
            _, samples = transaction_samples(code, trie, gas, height, SCHED,
                                             clock=clock)
            merge_receipt_samples(windows[-1][1], samples)
    return windows


def test_direct_window_totals_match_the_per_receipt_merge_virtual():
    direct, statuses = direct_windows(lambda trie: VirtualClock(trie.store.work))
    merged = merged_windows(lambda trie: VirtualClock(trie.store.work))
    assert statuses == {TxStatus.SUCCESS, TxStatus.OUT_OF_GAS,
                        TxStatus.INVALID_OP}
    assert [start for start, _ in direct] == [0, 3, 6]
    assert {"CALLCODE", "SSTORE", "SLOAD", "JUMP", "JUMPDEST"} <= set(
        direct[0][1])
    assert direct == merged


def test_direct_window_totals_match_the_per_receipt_merge_wall():
    recorder = RecordingClock()
    direct, _ = direct_windows(lambda trie: recorder)
    replay = ReplayClock(recorder.readings)
    merged = merged_windows(lambda trie: replay)
    assert replay.reads == len(recorder.readings)
    assert direct == merged


# ---------------------------------------------------------------------------
# CSV round-trips
# ---------------------------------------------------------------------------

def sample_windows():
    return [
        WindowAggregate(0, {"ADD": InstructionStat(10, 30, 111),
                            "SLOAD": InstructionStat(2, 400, 12345)},
                        {"EVM": 999, "Total": 2000}),
        WindowAggregate(500, {"ADD": InstructionStat(7, 21, 90)},
                        {"EVM": 450, "Total": 1100}),
    ]


def test_table_round_trip_keeps_floats_and_empty_cells(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, "n,x,y", [(0, 0.1 + 0.2, None), (1, 2.5e-06, "z")])
    assert path.read_text() == "n,x,y\n0,0.30000000000000004,\n1,2.5e-06,z\n"
    assert not [p for p in tmp_path.iterdir() if p.name != "t.csv"]
    rows = read_table(path, "n,x,y", lambda f: (int(f[0]), float(f[1]), f[2]))
    assert rows == [(0, 0.1 + 0.2, ""), (1, 2.5e-06, "z")]


def test_micro_csv_round_trip(tmp_path):
    path = tmp_path / "micro.csv"
    write_micro_csv(sample_windows(), path)
    assert path.read_text().splitlines()[0] == MICRO_HEADER
    back = read_windows(path)
    assert [w.start for w in back] == [0, 500]
    assert back[0].instructions == sample_windows()[0].instructions
    assert all(w.categories == {} for w in back)


def test_macro_csv_round_trip(tmp_path):
    micro, macro = tmp_path / "micro.csv", tmp_path / "macro.csv"
    write_micro_csv(sample_windows(), micro)
    write_macro_csv(sample_windows(), macro)
    assert macro.read_text().splitlines()[0] == MACRO_HEADER
    back = read_windows(micro, macro)
    assert back[0].categories == {"EVM": 999, "Total": 2000}
    assert back[1].categories == {"EVM": 450, "Total": 1100}
    assert back == sample_windows()


@pytest.mark.parametrize("workload", ["add_only", "mixed_fig8",
                                      "sload_heavy"])
def test_read_windows_gives_back_the_run_windows(tmp_path, workload):
    spec = load_workload(WORKLOADS / f"{workload}.json")
    report = run_chain(spec, 120, default_schedule(), window_size=25,
                       virtual=True)
    write_micro_csv(report.windows, tmp_path / "micro.csv")
    write_macro_csv(report.windows, tmp_path / "macro.csv")
    assert read_windows(tmp_path / "micro.csv",
                        tmp_path / "macro.csv") == report.windows


def test_macro_only_window_counts_only_in_macro_micro(tmp_path):
    micro, macro = tmp_path / "micro.csv", tmp_path / "macro.csv"
    spec = load_workload(WORKLOADS / "sload_heavy.json")
    report = run_chain(spec, 120, default_schedule(), window_size=25,
                       virtual=True)
    write_micro_csv(report.windows, micro)
    write_macro_csv(report.windows, macro)
    with macro.open("a") as fp:
        fp.write("500,EVM,20\n")
    windows = read_windows(micro, macro)
    assert [w.start for w in windows] == [0, 25, 50, 75, 100, 500]
    assert windows[0].instructions == report.windows[0].instructions
    assert windows[0].categories == report.windows[0].categories
    assert windows[-1] == WindowAggregate(500, {}, {"EVM": 20})

    tables = analyze_windows(windows).tables
    _, diffs = tables["macro_micro.csv"]
    assert diffs[-1] == (500, 1.0)
    assert [start for start, _ in diffs[:-1]] == [0, 25, 50, 75, 100]
    for name in ("tpg_curves.csv", "gas_curves.csv"):
        _, rows = tables[name]
        assert [row[0] for row in rows] == [0, 25, 50, 75, 100]


def test_comment_lines_are_ignored(tmp_path):
    path = tmp_path / "micro.csv"
    path.write_text("# provenance note\n" + MICRO_HEADER +
                    "\n0,ADD,1,3,9\n# trailing comment\n")
    windows = read_windows(path)
    assert windows[0].instructions["ADD"] == InstructionStat(1, 3, 9)


@pytest.mark.parametrize("content,fragment", [
    ("bogus header\n0,ADD,1,3,9\n", "expected header"),
    (MICRO_HEADER + "\n0,ADD,1,3\n", "expected 5 fields"),
    (MICRO_HEADER + "\n0,ADD,x,3,9\n", "invalid literal"),
    (MICRO_HEADER + "\n0,ADD,-1,3,9\n", "negative"),
    (MICRO_HEADER + "\n0,ADD,1,3," + "9" * 400 + "\n", "above 2^63 - 1"),
    (MICRO_HEADER + "\n" + "9" * 400 + ",ADD,1,3,9\n", "above 2^63 - 1"),
    (MICRO_HEADER + "\n", "no data rows"),
    ("", "missing header"),
])
def test_micro_csv_errors_carry_line_numbers(tmp_path, content, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(CsvFormatError) as excinfo:
        read_windows(path)
    assert fragment in str(excinfo.value)
    assert excinfo.value.line_no >= 1


def test_macro_csv_rejects_unknown_category(tmp_path):
    micro, path = tmp_path / "micro.csv", tmp_path / "bad.csv"
    write_micro_csv(sample_windows(), micro)
    path.write_text(MACRO_HEADER + "\n0,Bogus,5\n")
    with pytest.raises(CsvFormatError, match="unknown category"):
        read_windows(micro, path)
    path.write_text(MACRO_HEADER + "\n0,Total,5\n0,Total," + "9" * 400 + "\n")
    with pytest.raises(CsvFormatError, match=r"bad.csv:3: counter above"):
        read_windows(micro, path)
    path.write_text(MACRO_HEADER + "\n0,Total,5\n0,EVM,-3\n")
    with pytest.raises(CsvFormatError, match=r"bad.csv:3: negative counter"):
        read_windows(micro, path)


def test_window_aggregate_totals():
    window = sample_windows()[0]
    assert window.instruction_time_total() == 111 + 12345
    assert window.instruction_gas_total() == 30 + 400
