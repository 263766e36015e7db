"""Per-opcode time-model fitting with BIC degree selection.

Height-dependent opcodes get a least-squares polynomial (degree 1..3):
observations are the per-window mean times, split 80/20 into training and
validation by a seeded shuffle, and the degree minimizing the Bayesian
information criterion on the validation split wins. The criterion used is
m*ln(RSS/m) + k*ln(m) with m validation points and k coefficients; an
exact fit (RSS = 0) scores negative infinity, and ties break toward the
lower degree. Height-independent opcodes get their mean as a constant
model. Inputs are standardized before fitting so cubic fits at
million-block heights stay well conditioned.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict
from pathlib import Path
from typing import Mapping

import numpy as np

from ..metrics import json_text
from .base import (FitError, InsufficientDataError, ModelFileError,
                   ScalarModel)
from .classify import DEPENDENT, ClassificationResult, OpcodeSeries

MIN_FIT_WINDOWS = 10
DEFAULT_DEGREES = (1, 2, 3)
DEFAULT_SPLIT = 0.8


def bic_score(rss: float, n_points: int, n_coefficients: int) -> float:
    if n_points <= 0:
        raise ValueError("BIC needs at least one point")
    if rss <= 0:
        return float("-inf")
    return n_points * math.log(rss / n_points) + n_coefficients * math.log(n_points)


def _split_indices(n: int, seed: int) -> tuple[list[int], list[int]]:
    indices = list(range(n))
    random.Random(seed).shuffle(indices)
    cut = max(1, min(n - 1, int(round(n * DEFAULT_SPLIT))))
    return sorted(indices[:cut]), sorted(indices[cut:])


def fit_time_model(series: OpcodeSeries, seed: int = 0) -> ScalarModel:
    """Fit and select a polynomial time model for one opcode's series."""
    heights, means = series.heights, series.means
    if len(heights) < MIN_FIT_WINDOWS:
        raise InsufficientDataError(
            f"{len(heights)} usable windows, need {MIN_FIT_WINDOWS}")

    train_idx, val_idx = _split_indices(len(heights), seed)
    xs = np.asarray(heights, dtype=float)
    ys = np.asarray(means, dtype=float)

    center = float(xs[train_idx].mean())
    scale = float(xs[train_idx].std())
    if scale == 0:
        raise FitError("all training heights equal")
    xs_std = (xs - center) / scale

    best: tuple[float, int, tuple[float, ...], float] | None = None
    for degree in DEFAULT_DEGREES:
        if len(train_idx) < degree + 1:
            continue
        try:
            coeffs_desc = np.polyfit(xs_std[train_idx], ys[train_idx], degree)
        except np.linalg.LinAlgError as exc:
            raise FitError(f"singular fit: {exc}") from exc
        if not np.all(np.isfinite(coeffs_desc)):
            raise FitError("non-finite coefficients")
        residuals = ys[val_idx] - np.polyval(coeffs_desc, xs_std[val_idx])
        rss = float(np.dot(residuals, residuals))
        # Residuals at float-noise level are an exact fit; forcing them to
        # zero makes BIC -inf for every exact degree and lets the tie-break
        # pick the lowest one.
        if rss <= 1e-18 * max(1.0, float(np.dot(ys[val_idx], ys[val_idx]))):
            rss = 0.0
        score = bic_score(rss, len(val_idx), degree + 1)
        if best is None or (score, degree) < (best[0], best[1]):
            best = (score, degree, tuple(float(c) for c in coeffs_desc[::-1]),
                    rss)
    if best is None:
        raise InsufficientDataError(
            f"no candidate degree is fittable with "
            f"{len(train_idx)} training windows")

    score, _degree, coefficients, rss = best
    return ScalarModel(
        kind="polynomial",
        coefficients=coefficients,
        x_center=center,
        x_scale=scale,
        min_observed=float(ys.min()),
        rss=rss,
        bic=score,
        train_range=(float(xs.min()), float(xs.max())),
    )


def constant_model(series: OpcodeSeries) -> ScalarModel:
    """Mean-time constant model (used for height-independent opcodes)."""
    heights, means = series.heights, series.means
    if not heights:
        raise InsufficientDataError("no usable windows")
    mean = sum(means) / len(means)
    return ScalarModel(
        kind="constant",
        coefficients=(mean,),
        min_observed=min(means),
        train_range=(min(heights), max(heights)),
    )


def build_time_models(table: Mapping[str, OpcodeSeries],
                      classification: ClassificationResult,
                      seed: int = 0) -> dict[str, ScalarModel]:
    """Models for every opcode of an `opcode_table` that has a usable
    window.

    Dependent opcodes with enough windows get polynomial fits; everything
    else (independent, unclassifiable, or sparse) falls back to a constant.
    """
    models: dict[str, ScalarModel] = {}
    for op in sorted(table):
        series = table[op]
        if (classification.labels.get(op) == DEPENDENT
                and len(series.heights) >= MIN_FIT_WINDOWS):
            models[op] = fit_time_model(series, seed)
        elif series.heights:
            models[op] = constant_model(series)
    return models


# ---------------------------------------------------------------------------
# JSON round-trip for fitted models
# ---------------------------------------------------------------------------

def models_to_json(models: Mapping[str, ScalarModel]) -> str:
    return json_text({op: asdict(model) for op, model in models.items()})


def models_from_json(text: str) -> dict[str, ScalarModel]:
    """Models from `models_to_json` text, each built from its entry's own
    keys, with lists read as tuples. Every number must be finite, except
    `bic`, which is -inf for an exact fit."""
    models = {}
    for op, entry in json.loads(text).items():
        model = models[op] = ScalarModel(**{
            key: tuple(value) if isinstance(value, list) else value
            for key, value in entry.items()})
        optional = (model.min_observed, model.rss, *(model.train_range or ()))
        numbers = (*model.coefficients, model.x_center, model.x_scale,
                   *(value for value in optional if value is not None))
        if not all(map(math.isfinite, numbers)):
            raise ValueError(f"{op}: a model number is not finite")
    return models


def load_models(path: str | Path) -> dict[str, ScalarModel]:
    """Read a `models_to_json` file; one that does not parse, or a model
    entry with a missing or unknown key, is ModelFileError."""
    try:
        return models_from_json(Path(path).read_text())
    except (ValueError, TypeError, AttributeError, OverflowError) as exc:
        raise ModelFileError(f"{path}: {exc}") from None
