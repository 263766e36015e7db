"""Block-height dependence classification.

An opcode is height-dependent when the Pearson correlation between window
start height and its mean execution time per window exceeds the threshold
(0.7 by default). Windows weigh equally regardless of sample count. A
series with zero variance on either axis defines a correlation of 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..metrics import WindowAggregate
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


@dataclass
class ClassificationResult:
    threshold: float
    correlations: dict[str, float] = field(default_factory=dict)
    labels: dict[str, str] = field(default_factory=dict)
    windows_used: dict[str, int] = field(default_factory=dict)
    skipped: dict[str, str] = field(default_factory=dict)

    def dependent_opcodes(self) -> list[str]:
        return sorted(op for op, label in self.labels.items()
                      if label == DEPENDENT)


def mean_time_series(windows: Iterable[WindowAggregate],
                     opcode: str) -> tuple[list[float], list[float]]:
    """(window heights, mean time per execution) where count > 0."""
    heights, means = [], []
    for window in windows:
        stat = window.instructions.get(opcode)
        if stat is None or stat.count == 0:
            continue
        heights.append(float(window.start))
        means.append(stat.time_ns / stat.count)
    return heights, means


def classify_opcode(windows: Sequence[WindowAggregate], opcode: str,
                    threshold: float = DEFAULT_THRESHOLD) -> tuple[float, str]:
    """Correlation and label for one opcode; raises on sparse data."""
    heights, means = mean_time_series(windows, opcode)
    if len(heights) < MIN_WINDOWS:
        raise InsufficientDataError(
            f"{opcode}: {len(heights)} usable windows, need {MIN_WINDOWS}")
    r = pearson_correlation(heights, means)
    return r, (DEPENDENT if r > threshold else INDEPENDENT)


def classify_bh_dependence(windows: Sequence[WindowAggregate],
                           threshold: float = DEFAULT_THRESHOLD
                           ) -> ClassificationResult:
    """Classify every opcode observed in the windows."""
    opcodes = sorted({op for w in windows for op in w.instructions})
    result = ClassificationResult(threshold=threshold)
    for op in opcodes:
        heights, _ = mean_time_series(windows, op)
        try:
            r, label = classify_opcode(windows, op, threshold)
        except InsufficientDataError as exc:
            result.skipped[op] = str(exc)
            continue
        result.correlations[op] = r
        result.labels[op] = label
        result.windows_used[op] = len(heights)
    return result
