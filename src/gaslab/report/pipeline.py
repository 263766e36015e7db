"""End-to-end log analysis: from instrumentation CSVs to report tables.

Steps: classify height dependence per opcode, fit time models (BIC-selected
polynomials for dependent opcodes, means for the rest), estimate the
standard contract, derive the current-schedule gas view and the repriced
gas model, then evaluate the comparison curves per window. Also validates
macro against micro timings (relative difference plus chi-square normality)
when macro data is present.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from scipy import stats

from ..evm.schedule import round_gas
from ..metrics import WindowAggregate, merge_windows
from ..model import (DEFAULT_TIME_PER_GAS, ChiSquareResult,
                     ClassificationResult, InsufficientDataError,
                     ScalarModel, StandardContract, avg_prog_gas,
                     avg_prog_tpg, build_time_models, chi_square_normality,
                     classify_bh_dependence, current_gas_model,
                     dependent_time_share, macro_micro_differences,
                     propose_gas_model)

EXTRAPOLATION_FACTOR = 1.25
DEFAULT_CHI_BINS = 20
EARLY_WINDOWS = 5
TOP_TIME_SHARE = 6


@dataclass
class AnalysisResult:
    classification: ClassificationResult
    time_models: dict[str, ScalarModel]
    proposed_gas: dict[str, ScalarModel]
    contract: StandardContract
    window_heights: list[int]
    observed_tpg: dict[int, float]
    current_model_tpg: dict[int, float]
    proposed_model_tpg: dict[int, float]
    proposed_integer_tpg: dict[int, float]
    current_model_gas: dict[int, float]
    proposed_model_gas: dict[int, float]
    dep_share: list[tuple[int, float, bool]]   # (height, share, extrapolated)
    time_share_rows: list[tuple[int, str, float]]
    macro_micro: list[tuple[int, float]]
    chi_square: Optional[ChiSquareResult]
    chi_square_error: Optional[str]
    early_tpg: Optional[float]
    kendall: dict[str, float] = field(default_factory=dict)


def _observed_tpg(windows: Sequence[WindowAggregate]) -> dict[int, float]:
    out = {}
    for w in windows:
        gas = w.instruction_gas_total()
        if gas > 0:
            out[w.start] = w.instruction_time_total() / gas
    return out


def analyze_windows(micro: Sequence[WindowAggregate],
                    macro: Sequence[WindowAggregate] = (),
                    threshold: float = 0.7,
                    target_tpg: float = DEFAULT_TIME_PER_GAS,
                    split_seed: int = 0,
                    contract_length: Optional[float] = None) -> AnalysisResult:
    """Run the full analysis over micro (and optionally macro) windows."""
    if not micro:
        raise InsufficientDataError("no micro windows to analyze")

    classification = classify_bh_dependence(micro, threshold=threshold)
    time_models = build_time_models(micro, classification, seed=split_seed)
    current = current_gas_model(micro)
    proposed = propose_gas_model(time_models, target_tpg)

    counts: dict[str, int] = {}
    for w in micro:
        for op, stat in w.instructions.items():
            counts[op] = counts.get(op, 0) + stat.count
    contract = StandardContract.from_counts(
        contract_length if contract_length is not None else 1.0, counts)

    heights = [w.start for w in micro]
    observed = _observed_tpg(micro)
    current_tpg, proposed_tpg, integer_tpg = {}, {}, {}
    current_gas_curve, proposed_gas_curve = {}, {}
    for n in heights:
        # The materialized schedule's integer gas, as constant models.
        integer = {op: ScalarModel("constant", (round_gas(model.evaluate(n)),))
                   for op, model in proposed.items()}
        current_tpg[n] = avg_prog_tpg(n, time_models, current, contract)
        proposed_tpg[n] = avg_prog_tpg(n, time_models, proposed, contract)
        integer_tpg[n] = avg_prog_tpg(n, time_models, integer, contract)
        current_gas_curve[n] = avg_prog_gas(n, current, contract)
        proposed_gas_curve[n] = avg_prog_gas(n, proposed, contract)

    # Fig-9-style dependent share, extended past the training range.
    dependent = classification.dependent_opcodes()
    dep_rows = [(n, dependent_time_share(n, time_models, dependent, contract),
                 False) for n in heights]
    if len(heights) >= 2:
        step = heights[-1] - heights[-2]
        if step > 0:
            n = heights[-1] + step
            limit = int(heights[-1] * EXTRAPOLATION_FACTOR)
            while n <= limit:
                dep_rows.append((n, dependent_time_share(
                    n, time_models, dependent, contract), True))
                n += step

    # Fig-8-style execution time shares for the heaviest opcodes.
    totals: dict[str, int] = {}
    for w in micro:
        for op, stat in w.instructions.items():
            totals[op] = totals.get(op, 0) + stat.time_ns
    top_ops = sorted(totals, key=lambda op: (-totals[op], op))[:TOP_TIME_SHARE]
    share_rows = []
    for w in micro:
        window_total = w.instruction_time_total()
        if window_total == 0:
            continue
        for op in top_ops:
            stat = w.instructions.get(op)
            share_rows.append((w.start, op,
                               (stat.time_ns / window_total) if stat else 0.0))

    # Macro/micro agreement.
    diffs = macro_micro_differences(merge_windows(micro, macro))
    chi_result = None
    chi_error = None
    if diffs:
        try:
            chi_result = chi_square_normality([d for _, d in diffs],
                                              bins=DEFAULT_CHI_BINS)
        except (InsufficientDataError, ValueError) as exc:
            chi_error = str(exc)

    early = [observed[n] for n in heights[:EARLY_WINDOWS] if n in observed]
    early_tpg = sum(early) / len(early) if early else None

    kendall = {}
    if len(heights) >= 3:
        xs = heights
        for name, series in (("current_model_tpg", current_tpg),
                             ("observed_tpg", observed)):
            pairs = [(n, series[n]) for n in xs if n in series]
            if len(pairs) >= 3:
                tau, p = stats.kendalltau([a for a, _ in pairs],
                                          [b for _, b in pairs])
                kendall[f"{name}_tau"] = float(tau)
                kendall[f"{name}_p"] = float(p)

    return AnalysisResult(
        classification=classification,
        time_models=time_models,
        proposed_gas=proposed,
        contract=contract,
        window_heights=heights,
        observed_tpg=observed,
        current_model_tpg=current_tpg,
        proposed_model_tpg=proposed_tpg,
        proposed_integer_tpg=integer_tpg,
        current_model_gas=current_gas_curve,
        proposed_model_gas=proposed_gas_curve,
        dep_share=dep_rows,
        time_share_rows=share_rows,
        macro_micro=diffs,
        chi_square=chi_result,
        chi_square_error=chi_error,
        early_tpg=early_tpg,
        kendall=kendall,
    )

