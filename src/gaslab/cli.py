"""Command-line front door.

Subcommands:

* ``simulate``  — run the synthetic chain and write instrumentation CSVs
* ``analyze``   — turn micro/macro CSVs into classification, models, curves
* ``plot``      — render a bundle table as a deterministic SVG chart
* ``economics`` — fee vs infrastructure cost, scalar or per window
* ``schedule materialize`` — emit an integer gas schedule at a height

Exit codes: 0 success, 2 input error, 3 write/IO error. Relative ``--out``
paths resolve under $GASLAB_OUT when that is set. ``simulate``, ``analyze``
and table-mode ``economics`` write a manifest recording inputs, parameters,
and output hashes; rerunning with identical inputs and seeds reproduces
every byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

from .chain import RECEIPTS_HEADER, read_receipts, run_chain
from .evm.schedule import GasSchedule, ScheduleError, default_schedule
from .metrics import (COUNTER_MAX, CsvFormatError, atomic_write_text,
                      json_text, read_table, read_windows, write_macro_csv,
                      write_micro_csv, write_table)
from .model.base import (InsufficientDataError, InvalidConstantError,
                         ModelFileError, UndefinedRatioError)
from .model.classify import DEFAULT_THRESHOLD
from .model.fit import load_models
from .model.reprice import (DEFAULT_TIME_PER_GAS, materialize_schedule,
                            propose_gas_model)
from .native import IMPLEMENTATION as NATIVE_IMPLEMENTATION
from .report.bundle import write_manifest
from .report.economics import (ECONOMICS_HEADER, NonFiniteCostError,
                               economics_table, fee_economics,
                               gas_paid_by_window, price_for, read_price_csv)
from .report.pipeline import (DEP_SHARE_TABLE, GAS_CURVES_TABLE,
                              TPG_CURVES_TABLE, analyze_windows)
from .report.svg import render_line_chart
from .workload import DEFAULT_GAS_PRICE_WEI, WorkloadError, load_workload

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3


class InputError(Exception):
    """User-facing input problem; maps to exit code 2."""


def _out_dir(raw: str) -> Path:
    root = os.environ.get("GASLAB_OUT")
    path = Path(raw)
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


def _load_schedule(path: str | None) -> GasSchedule:
    if path is None:
        return default_schedule()
    return GasSchedule.load(_require_file(path, "schedule file"))


def _require_file(path: str | Path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        problem = "is not a file" if p.exists() else "not found"
        raise InputError(f"{what} {problem}: {path}")
    return p


def _require_counter(flag: str, value: int) -> None:
    """A height, gas or gas price is a counter: 0 to 2^63 - 1."""
    if not 0 <= value <= COUNTER_MAX:
        raise InputError(f"{flag} must be in [0, 2^63 - 1], got {value}")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args: argparse.Namespace) -> int:
    for flag, value in (("--blocks", args.blocks), ("--window", args.window)):
        if value < 1:
            raise InputError(f"{flag} must be >= 1, got {value}")
    spec_path = _require_file(args.workload, "workload spec")
    spec = load_workload(spec_path)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    schedule = _load_schedule(args.schedule)
    report = run_chain(spec, args.blocks, schedule, window_size=args.window,
                       virtual=args.clock == "virtual")

    out = _out_dir(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_micro_csv(report.windows, out / "micro.csv")
    write_macro_csv(report.windows, out / "macro.csv")
    write_table(out / "receipts.csv", RECEIPTS_HEADER, report.receipts)
    summary = {
        "blocks": args.blocks,
        "window_size": args.window,
        "clock": args.clock,
        "seed": spec.seed,
        "final_state_root": report.final_root.hex(),
        "initial_keys": report.initial_keys,
        "final_keys": report.final_keys,
        "transactions": len(report.receipts),
    }
    atomic_write_text(out / "run.json", json_text(summary))
    write_manifest(out, "simulate",
                   params={"blocks": args.blocks, "window": args.window,
                           "seed": spec.seed, "clock": args.clock,
                           "native": NATIVE_IMPLEMENTATION},
                   inputs={"workload": spec_path},
                   outputs=["micro.csv", "macro.csv", "receipts.csv",
                            "run.json"])
    print(f"simulated {args.blocks} blocks "
          f"({len(report.receipts)} transactions) -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _read_receipt_length(path: Path) -> float:
    lengths = [receipt.instructions for receipt in read_receipts(path)
               if receipt.status == "success"]
    if not lengths:
        raise InputError(f"{path}: no successful transactions")
    if not any(lengths):
        raise InputError(f"{path}: successful transactions ran no "
                         "instructions")
    return sum(lengths) / len(lengths)


def cmd_analyze(args: argparse.Namespace) -> int:
    if not 0 < args.threshold <= 1:
        raise InputError(
            f"--threshold must be in (0, 1], got {args.threshold}")
    inputs = {"micro": _require_file(args.micro, "micro CSV")}
    if args.macro:
        inputs["macro"] = _require_file(args.macro, "macro CSV")
    windows = read_windows(inputs["micro"], inputs.get("macro"))
    length = None
    if args.receipts:
        receipts_path = _require_file(args.receipts, "receipts CSV")
        length = _read_receipt_length(receipts_path)
        inputs["receipts"] = receipts_path

    result = analyze_windows(windows, threshold=args.threshold,
                             target_tpg=args.tpg_constant,
                             split_seed=args.split_seed,
                             contract_length=length)

    out = _out_dir(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in result.tables.items():
        write_table(out / name, header, rows)
    for name, text in result.documents.items():
        atomic_write_text(out / name, text)
    write_manifest(out, "analyze",
                   params={"threshold": args.threshold,
                           "tpg_constant": args.tpg_constant,
                           "split_seed": args.split_seed},
                   inputs=inputs,
                   outputs=[*result.tables, *result.documents])
    sampled = sum(1 for w in windows if w.instructions)
    print(f"analysis of {sampled} windows -> {out}")
    dependent = result.classification.dependent_opcodes()
    print(f"dependent opcodes: {', '.join(dependent) or 'none'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

FIGURES = {
    "tpg-observed": (*TPG_CURVES_TABLE, "block height", "time per gas (ns)",
                     [("observed_tpg", "observed")]),
    "tpg-model": (*TPG_CURVES_TABLE, "block height", "time per gas (ns)",
                  [("current_model_tpg", "current schedule"),
                   ("proposed_model_tpg", "proposed schedule")]),
    "gas-model": (*GAS_CURVES_TABLE, "block height", "avg program gas",
                  [("current_model_gas", "current schedule"),
                   ("proposed_model_gas", "proposed schedule")]),
    "dep-share": (*DEP_SHARE_TABLE, "block height", "dependent time share",
                  [("dependent_share", "dependent share")]),
    "fee-vs-infra": ("economics.csv", ECONOMICS_HEADER, "window start", "USD",
                     [("fee_usd", "transaction fees"),
                      ("infra_usd", "infrastructure cost")]),
}


def _plot_row(fields: list[str]) -> list[float | None]:
    """x, then every other cell as a number; an empty cell is None, and a
    non-finite one is a ValueError."""
    row = [float(fields[0])] + [float(cell) if cell else None
                                for cell in fields[1:]]
    if not all(math.isfinite(value) for value in row if value is not None):
        raise ValueError("non-finite cell")
    return row


def cmd_plot(args: argparse.Namespace) -> int:
    if args.figure not in FIGURES:
        raise InputError(
            f"unknown figure {args.figure!r}; available: "
            f"{', '.join(sorted(FIGURES))}")
    table_name, header, x_label, y_label, columns = FIGURES[args.figure]
    bundle = Path(args.bundle)
    table_path = _require_file(bundle / table_name, "bundle table")
    rows = read_table(table_path, header, _plot_row)
    names = header.split(",")
    series = []
    for column, label in columns:
        idx = names.index(column)
        points = [(row[0], row[idx]) for row in rows if row[idx] is not None]
        if points:
            series.append((label, points))
    if not series:
        raise InputError(f"{table_path}: no plottable data")
    svg = render_line_chart(f"{args.figure} ({names[0]})", x_label, y_label,
                            series)
    out_path = (_out_dir(args.out) if args.out
                else bundle / f"{args.figure}.svg")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out_path, svg)
    print(f"wrote {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# economics
# ---------------------------------------------------------------------------

def cmd_economics(args: argparse.Namespace) -> int:
    _require_counter("--gas-price", args.gas_price)
    if args.micro and not args.macro:
        raise InputError("table mode needs --macro: the window wall times "
                         "come from its Total spans")
    prices_path = _require_file(args.prices, "price series")
    prices = read_price_csv(prices_path)

    if args.micro:
        inputs = {"prices": prices_path,
                  "micro": _require_file(args.micro, "micro CSV"),
                  "macro": _require_file(args.macro, "macro CSV")}
        windows = read_windows(inputs["micro"], inputs["macro"])
        gas_paid = None
        if args.receipts:
            inputs["receipts"] = _require_file(args.receipts, "receipts CSV")
            receipts = read_receipts(inputs["receipts"])
            try:
                gas_paid = gas_paid_by_window(
                    receipts, [window.start for window in windows])
            except ValueError as exc:
                raise InputError(f"{inputs['receipts']}: {exc}") from None
        rows = economics_table(windows, prices, args.gas_price, gas_paid)
        out = _out_dir(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_table(out / "economics.csv", ECONOMICS_HEADER, rows)
        write_manifest(out, "economics",
                       params={"gas_price": args.gas_price},
                       inputs=inputs, outputs=["economics.csv"])
        print(f"wrote {out / 'economics.csv'}")
        return EXIT_OK

    if args.receipts:
        raise InputError("--receipts needs table mode (--micro and --macro)")
    if args.gas is None or args.hours is None:
        raise InputError("scalar mode needs --gas and --hours "
                         "(or provide --micro and --macro for table mode)")
    _require_counter("--gas", args.gas)
    if not 0 <= args.hours < math.inf:
        raise InputError("--hours must be finite and >= 0")
    point = price_for(prices, args.window_start)
    econ = fee_economics(args.gas, args.gas_price, point.eth_usd,
                         args.hours, point.infra_usd_per_hour,
                         window_start=args.window_start)
    print(f"fee_usd={econ.fee_usd!r} infra_usd={econ.infra_usd!r} "
          f"ratio={econ.ratio!r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# schedule materialize
# ---------------------------------------------------------------------------

def cmd_schedule_materialize(args: argparse.Namespace) -> int:
    _require_counter("--height", args.height)
    models_path = _require_file(args.models, "time models JSON")
    time_models = load_models(models_path)
    gas_model = propose_gas_model(time_models, args.tpg_constant)
    base = _load_schedule(args.base)
    schedule = materialize_schedule(gas_model, args.height, base)
    out_path = _out_dir(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    header = (f"# Repriced schedule materialized at height {args.height} "
              f"with C={args.tpg_constant}\n")
    atomic_write_text(out_path, header + schedule.format())
    print(f"wrote {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaslab",
        description="Desk-scale EVM gas-cost laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the synthetic chain")
    p.add_argument("--workload", required=True, help="workload spec JSON")
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--window", type=int, default=500,
                   help="aggregation window in blocks (default 500)")
    p.add_argument("--seed", type=int, default=None,
                   help="override the workload seed")
    p.add_argument("--schedule", default=None,
                   help="gas schedule config (default: built-in)")
    p.add_argument("--clock", choices=("wall", "virtual"), default="wall",
                   help="wall time or deterministic virtual time")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="analyze instrumentation CSVs")
    p.add_argument("--micro", required=True)
    p.add_argument("--macro", default=None)
    p.add_argument("--receipts", default=None,
                   help="receipts CSV for the contract length estimate")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                   help="dependence correlation threshold "
                        "(default %(default)s)")
    p.add_argument("--tpg-constant", type=float, default=DEFAULT_TIME_PER_GAS,
                   help="target time per unit gas C (default %(default)s)")
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("plot", help="render a bundle table as SVG")
    p.add_argument("--bundle", required=True)
    p.add_argument("--figure", required=True,
                   help=", ".join(sorted(FIGURES)))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("economics", help="fee vs infrastructure cost")
    p.add_argument("--prices", required=True,
                   help="CSV: window_start,eth_usd,infra_usd_per_hour")
    p.add_argument("--gas-price", type=int, default=DEFAULT_GAS_PRICE_WEI,
                   help="gas price in wei (default %(default)s)")
    p.add_argument("--micro", default=None, help="micro CSV (table mode)")
    p.add_argument("--macro", default=None,
                   help="macro CSV for wall time (table mode)")
    p.add_argument("--receipts", default=None,
                   help="receipts CSV: take each window's gas from the gas "
                        "its transactions paid (table mode)")
    p.add_argument("--gas", type=int, default=None, help="scalar mode: gas")
    p.add_argument("--hours", type=float, default=None,
                   help="scalar mode: wall hours")
    p.add_argument("--window-start", type=int, default=0,
                   help="scalar mode: price point to use")
    p.add_argument("--out", default="economics")
    p.set_defaults(func=cmd_economics)

    p = sub.add_parser("schedule", help="gas schedule tools")
    sched_sub = p.add_subparsers(dest="schedule_command", required=True)
    m = sched_sub.add_parser("materialize",
                             help="integer schedule at a height")
    m.add_argument("--models", required=True, help="time models JSON")
    m.add_argument("--height", type=int, required=True)
    m.add_argument("--tpg-constant", type=float, default=DEFAULT_TIME_PER_GAS,
                   help="target time per unit gas C (default %(default)s)")
    m.add_argument("--base", default=None,
                   help="base schedule for unmodeled opcodes")
    m.add_argument("--out", required=True)
    m.set_defaults(func=cmd_schedule_materialize)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, WorkloadError, CsvFormatError, ScheduleError,
            InsufficientDataError, InvalidConstantError, ModelFileError,
            UndefinedRatioError, NonFiniteCostError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
