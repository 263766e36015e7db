"""Shared model types and errors for the cost-model package.

Time and gas models are plain dicts from opcode name to `ScalarModel`.
`ScalarModel.evaluate` is the one evaluator: it clamps a negative
prediction to the model's training floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


class InsufficientDataError(ValueError):
    """Not enough observations to classify, fit, or test."""


class MissingModelError(KeyError):
    """An opcode with nonzero frequency has no time/gas model."""


class UndefinedRatioError(ZeroDivisionError):
    """A ratio against a zero denominator was requested."""


class FitError(ValueError):
    """Degenerate regression input (e.g. all heights equal)."""


class InvalidConstantError(ValueError):
    """The target time-per-gas constant must be positive."""


class ModelFileError(ValueError):
    """A time-models JSON file that does not parse into models."""


@dataclass(frozen=True)
class ScalarModel:
    """Per-opcode prediction, constant or polynomial in block-height.

    Polynomial coefficients are ascending powers of the standardized input
    (n - x_center) / x_scale; hand-built models use center 0 / scale 1 so
    coefficients read directly in block-height. Negative evaluations clamp
    to `min_observed` (the smallest training observation).
    """

    kind: str  # "constant" | "polynomial"
    coefficients: tuple[float, ...]
    x_center: float = 0.0
    x_scale: float = 1.0
    min_observed: Optional[float] = None
    rss: Optional[float] = None
    bic: Optional[float] = None
    train_range: Optional[tuple[float, float]] = None

    def __post_init__(self):
        if self.kind not in ("constant", "polynomial"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if not self.coefficients:
            raise ValueError("model needs at least one coefficient")
        if self.kind == "constant" and len(self.coefficients) != 1:
            raise ValueError("constant models take exactly one coefficient")
        if self.x_scale == 0:
            raise ValueError("x_scale must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, n: float) -> float:
        """Prediction at block-height n; a negative one clamps to the
        training floor max(min_observed, 0), or 0 when that is unknown."""
        if self.kind == "constant":
            value = self.coefficients[0]
        else:
            x = (n - self.x_center) / self.x_scale
            value = 0.0
            for coeff in reversed(self.coefficients):
                value = value * x + coeff
        if value < 0:
            floor = self.min_observed if self.min_observed is not None else 0.0
            return max(floor, 0.0)
        return value

    def scale(self, factor: float) -> "ScalarModel":
        """Model predicting factor * this; fit metadata does not carry over."""
        return ScalarModel(
            kind=self.kind,
            coefficients=tuple(c * factor for c in self.coefficients),
            x_center=self.x_center,
            x_scale=self.x_scale,
            min_observed=(None if self.min_observed is None
                          else self.min_observed * factor),
            train_range=self.train_range,
        )

