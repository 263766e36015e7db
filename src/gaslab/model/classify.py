"""The per-opcode table and block-height dependence classification.

`opcode_table` reads the windows once into each opcode's series, which
classification, fitting and repricing all read.

An opcode is height-dependent when the Pearson correlation between window
start height and its mean execution time per window exceeds the threshold
(0.7 by default). Windows weigh equally regardless of sample count. A
series with zero variance on either axis defines a correlation of 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

from ..metrics import InstructionStat, WindowAggregate
from .base import InsufficientDataError

DEPENDENT = "dependent"
INDEPENDENT = "independent"

DEFAULT_THRESHOLD = 0.7
MIN_WINDOWS = 3


def pearson_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson r; zero variance on either axis yields 0."""
    if len(xs) != len(ys):
        raise ValueError("series lengths differ")
    if not xs:
        raise ValueError("empty series")
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    sxx = sxy = syy = 0.0
    for x, y in zip(xs, ys):
        dx, dy = x - mean_x, y - mean_y
        sxx += dx * dx
        syy += dy * dy
        sxy += dx * dy
    if sxx == 0 or syy == 0:
        return 0.0
    return sxy / math.sqrt(sxx * syy)


class OpcodeSeries(NamedTuple):
    """One opcode over a run: the start heights of the windows that ran
    it, its mean time per execution in each, and its summed stat."""

    heights: list[float]
    means: list[float]
    total: InstructionStat


def opcode_table(windows: Iterable[WindowAggregate]
                 ) -> dict[str, OpcodeSeries]:
    """Every opcode in the windows, in first-seen order, with its series.

    A window where the opcode has a zero count adds to its total only. The
    order matters: the standard contract sums its frequencies in it.
    """
    seen: dict[str, list[tuple[int, InstructionStat]]] = {}
    for window in windows:
        for op, stat in window.instructions.items():
            seen.setdefault(op, []).append((window.start, stat))
    return {op: OpcodeSeries(
        [float(start) for start, stat in rows if stat.count],
        [stat.time_ns / stat.count for _, stat in rows if stat.count],
        InstructionStat(*map(sum, zip(*(stat for _, stat in rows)))))
        for op, rows in seen.items()}


@dataclass
class ClassificationResult:
    correlations: dict[str, float] = field(default_factory=dict)
    labels: dict[str, str] = field(default_factory=dict)
    skipped: dict[str, str] = field(default_factory=dict)

    def dependent_opcodes(self) -> list[str]:
        return sorted(op for op, label in self.labels.items()
                      if label == DEPENDENT)


def classify_opcode(series: OpcodeSeries,
                    threshold: float = DEFAULT_THRESHOLD) -> tuple[float, str]:
    """Correlation and label for one opcode; raises on sparse data."""
    if len(series.heights) < MIN_WINDOWS:
        raise InsufficientDataError(
            f"{len(series.heights)} usable windows, need {MIN_WINDOWS}")
    r = pearson_correlation(series.heights, series.means)
    return r, (DEPENDENT if r > threshold else INDEPENDENT)


def classify_bh_dependence(table: Mapping[str, OpcodeSeries],
                           threshold: float = DEFAULT_THRESHOLD
                           ) -> ClassificationResult:
    """Classify every opcode of an `opcode_table`."""
    result = ClassificationResult()
    for op in sorted(table):
        try:
            r, label = classify_opcode(table[op], threshold)
        except InsufficientDataError as exc:
            result.skipped[op] = f"{op}: {exc}"
            continue
        result.correlations[op] = r
        result.labels[op] = label
    return result
