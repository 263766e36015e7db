"""Cross-validation of macro against micro instrumentation.

The macro EVM category and the summed micro instruction times measure the
same thing from two sides; their per-window relative difference
(macro - micro) / macro should stay small, and across windows the
differences should look like measurement noise — a normal distribution,
checked with a chi-square goodness-of-fit test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import stats

from ..metrics import WindowAggregate
from .base import InsufficientDataError, UndefinedRatioError

MIN_EXPECTED_PER_BIN = 5.0


def relative_difference(macro: float, micro: float) -> float:
    """(macro - micro) / macro."""
    if macro == 0:
        raise UndefinedRatioError("macro time is zero")
    return (macro - micro) / macro


def macro_micro_differences(
        windows: Sequence[WindowAggregate]) -> list[tuple[int, float]]:
    """Per-window relative difference between macro EVM time and micro sum."""
    out = []
    for window in windows:
        macro = window.categories.get("EVM", 0)
        if macro == 0:
            continue
        micro = window.instruction_time_total()
        out.append((window.start, relative_difference(macro, micro)))
    return out


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    dof: int
    critical: float
    accept: bool
    bins: int


def chi_square_decision(statistic: float, dof: int,
                        alpha: float = 0.05) -> ChiSquareResult:
    """Accept/reject given a precomputed statistic and degrees of freedom."""
    if dof < 1:
        raise InsufficientDataError("need at least one degree of freedom")
    critical = float(stats.chi2.ppf(1.0 - alpha, dof))
    return ChiSquareResult(statistic=statistic, dof=dof, critical=critical,
                           accept=statistic < critical, bins=dof + 3)


def chi_square_normality(samples: Sequence[float], bins: int,
                         alpha: float = 0.05) -> ChiSquareResult:
    """Chi-square goodness-of-fit of samples against a fitted normal.

    Binning uses equal-probability bins under the fitted normal, shrunk if
    needed so every bin expects at least five observations; two estimated
    parameters cost two degrees of freedom on top of the usual one.
    """
    data = np.asarray(samples, dtype=float)
    n = len(data)
    if bins < 4:
        raise ValueError("need at least 4 bins for a 1-dof test")
    effective_bins = min(bins, int(n // MIN_EXPECTED_PER_BIN))
    if effective_bins < 4:
        raise InsufficientDataError(
            f"{n} samples support only {max(effective_bins, 0)} bins of "
            f">= {MIN_EXPECTED_PER_BIN:g} expected observations; need 4")
    mean = float(data.mean())
    std = float(data.std(ddof=1))
    if std == 0:
        raise InsufficientDataError("samples have zero variance")

    quantiles = np.linspace(0.0, 1.0, effective_bins + 1)[1:-1]
    edges = stats.norm.ppf(quantiles, loc=mean, scale=std)
    observed = np.histogram(data, bins=np.concatenate(
        ([-np.inf], edges, [np.inf])))[0]
    expected = n / effective_bins
    statistic = float(((observed - expected) ** 2 / expected).sum())
    return chi_square_decision(statistic, effective_bins - 3, alpha)
