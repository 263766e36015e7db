"""End-to-end log analysis: from instrumentation CSVs to the `analyze`
bundle.

Steps: read the windows that carry instruction samples once into the
per-opcode table (`opcode_table`), classify height dependence per opcode,
fit time models (BIC-selected polynomials for dependent opcodes, means for
the rest), estimate the standard contract, derive the current-schedule gas
view and the repriced gas model, then evaluate the time-per-gas and gas
curves once per window. The classification, fits, current gas, contract
counts and time-share ranking all read that table. Macro is validated
against micro timings (relative difference plus chi-square normality) over
every window with an EVM span, so a window found only in the macro table
still counts there.

Every output is built here: `AnalysisResult.tables` maps each CSV's file
name to its header and rows, and `AnalysisResult.documents` maps each JSON
file's name to its text. The summary's Kendall statistics and early-window
time per gas are read from the curve rows.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from scipy import stats

from ..metrics import WindowAggregate, json_text
from ..model.base import InsufficientDataError, ScalarModel
from ..model.classify import (DEFAULT_THRESHOLD, ClassificationResult,
                              classify_bh_dependence, opcode_table)
from ..model.contract import (StandardContract, avg_prog_gas, avg_prog_tpg,
                              dependent_time_share)
from ..model.fit import build_time_models, models_to_json
from ..model.reprice import (DEFAULT_TIME_PER_GAS, current_gas_model,
                             integer_gas, propose_gas_model)
from ..model.validate import chi_square_normality, macro_micro_differences

EXTRAPOLATION_FACTOR = 1.25
DEFAULT_CHI_BINS = 20
EARLY_WINDOWS = 5
TOP_TIME_SHARE = 6

# The bundle's tables, each as (file name, header).
CLASSIFICATION_TABLE = ("classification.csv",
                        "opcode,windows,correlation,label")
DEP_SHARE_TABLE = ("dep_share.csv",
                   "window_start,dependent_share,extrapolated")
GAS_CURVES_TABLE = ("gas_curves.csv",
                    "window_start,current_model_gas,proposed_model_gas")
TPG_CURVES_TABLE = ("tpg_curves.csv",
                    "window_start,observed_tpg,current_model_tpg,"
                    "proposed_model_tpg,proposed_integer_tpg")
TIME_SHARE_TABLE = ("time_share.csv", "window_start,opcode,time_share")
MACRO_MICRO_TABLE = ("macro_micro.csv", "window_start,relative_difference")


@dataclass
class AnalysisResult:
    classification: ClassificationResult
    tables: dict[str, tuple[str, list[tuple]]]   # name -> (header, rows)
    documents: dict[str, str]                    # name -> JSON text


def analyze_windows(windows: Sequence[WindowAggregate],
                    threshold: float = DEFAULT_THRESHOLD,
                    target_tpg: float = DEFAULT_TIME_PER_GAS,
                    split_seed: int = 0,
                    contract_length: Optional[float] = None) -> AnalysisResult:
    """Run the full analysis over windows sorted by start, as
    `read_windows` returns them."""
    micro = [w for w in windows if w.instructions]
    if not micro:
        raise InsufficientDataError("no micro windows to analyze")

    table = opcode_table(micro)
    classification = classify_bh_dependence(table, threshold=threshold)
    time_models = build_time_models(table, classification, seed=split_seed)
    current = current_gas_model(table)
    proposed = propose_gas_model(time_models, target_tpg)
    contract = StandardContract.from_counts(
        contract_length if contract_length is not None else 1.0,
        {op: series.total.count for op, series in table.items()})

    # Fig-8-style execution time shares for the heaviest opcodes of the run.
    top_ops = sorted(table, key=lambda op: (-table[op].total.time_ns, op)
                     )[:TOP_TIME_SHARE]
    tpg_rows, gas_rows, share_rows = [], [], []
    for w in micro:
        n = w.start
        gas = w.instruction_gas_total()
        window_time = w.instruction_time_total()
        # The materialized schedule's integer gas, as constant models.
        integer = {op: ScalarModel("constant", (integer_gas(op, model, n),))
                   for op, model in proposed.items()}
        tpg_rows.append((
            n, window_time / gas if gas > 0 else None,
            avg_prog_tpg(n, time_models, current, contract),
            avg_prog_tpg(n, time_models, proposed, contract),
            avg_prog_tpg(n, time_models, integer, contract)))
        gas_rows.append((n, avg_prog_gas(n, current, contract),
                         avg_prog_gas(n, proposed, contract)))
        if window_time:
            share_rows += [(n, op, w.instructions[op].time_ns / window_time
                            if op in w.instructions else 0.0)
                           for op in top_ops]

    # Fig-9-style dependent share, extended past the training range.
    heights = [w.start for w in micro]
    dependent = classification.dependent_opcodes()
    dep_rows = [(n, dependent_time_share(n, time_models, dependent, contract),
                 0) for n in heights]
    if len(heights) >= 2:
        step = heights[-1] - heights[-2]
        if step > 0:
            n = heights[-1] + step
            limit = int(heights[-1] * EXTRAPOLATION_FACTOR)
            while n <= limit:
                dep_rows.append((n, dependent_time_share(
                    n, time_models, dependent, contract), 1))
                n += step

    # Macro/micro agreement.
    diffs = macro_micro_differences(windows)
    chi_doc: dict[str, object] = {"error": "no macro data"}
    if diffs:
        try:
            chi_doc = asdict(chi_square_normality(
                [d for _, d in diffs], bins=DEFAULT_CHI_BINS))
        except (InsufficientDataError, ValueError) as exc:
            chi_doc = {"error": str(exc)}

    # Columns 1 and 2 of a tpg row: observed and current-model time per gas.
    early = [row[1] for row in tpg_rows[:EARLY_WINDOWS] if row[1] is not None]
    early_tpg = sum(early) / len(early) if early else None
    kendall = {}
    for name, col in (("current_model_tpg", 2), ("observed_tpg", 1)):
        pairs = [(row[0], row[col]) for row in tpg_rows
                 if row[col] is not None]
        if len(pairs) >= 3:
            tau, p = stats.kendalltau([a for a, _ in pairs],
                                      [b for _, b in pairs])
            kendall[f"{name}_tau"] = float(tau)
            kendall[f"{name}_p"] = float(p)

    summary = {
        "threshold": threshold,
        "target_tpg": target_tpg,
        "split_seed": split_seed,
        "dependent_opcodes": dependent,
        "skipped_opcodes": classification.skipped,
        "early_window_observed_tpg": early_tpg,
        "kendall": kendall,
    }

    tables = {name: (header, rows) for (name, header), rows in (
        (CLASSIFICATION_TABLE, [
            (op, len(table[op].heights), classification.correlations[op],
             classification.labels[op])
            for op in sorted(classification.labels)]),
        (DEP_SHARE_TABLE, dep_rows),
        (GAS_CURVES_TABLE, gas_rows),
        (TPG_CURVES_TABLE, tpg_rows),
        (TIME_SHARE_TABLE, share_rows),
        (MACRO_MICRO_TABLE, diffs),
    )}
    documents = {
        "time_models.json": models_to_json(time_models),
        "proposed_gas_models.json": models_to_json(proposed),
        "chi_square.json": json_text(chi_doc),
        "standard_contract.json": json_text(asdict(contract)),
        "summary.json": json_text(summary),
    }
    return AnalysisResult(classification, tables, documents)
