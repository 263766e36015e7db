"""Polynomial fitting and BIC model selection.

The Monte-Carlo expectations (selection counts out of 100 seeded trials)
were established with a pre-build calibration run of the same generator
and are asserted as lower bounds here.
"""

import math

import pytest

from _synth import synth_series, synth_windows
from gaslab.metrics import InstructionStat, WindowAggregate
from gaslab.model.base import FitError, InsufficientDataError, ScalarModel
from gaslab.model.classify import classify_bh_dependence, opcode_table
from gaslab.model.fit import (bic_score, build_time_models, constant_model,
                              fit_time_model, models_from_json,
                              models_to_json)


def test_noiseless_linear_selects_degree_one_with_zero_rss():
    series = synth_series((100.0, 5e-4), 40, 100_000, sigma=0.0, seed=1)
    model = fit_time_model(series, seed=0)
    assert model.degree == 1
    assert model.rss == pytest.approx(0.0, abs=1e-12)
    assert model.bic == float("-inf")
    # the fitted line reproduces the generator
    assert model.evaluate(2_000_000) == pytest.approx(100.0 + 5e-4 * 2e6,
                                                      rel=1e-6)


def test_quadratic_with_noise_selected_in_at_least_90_of_100_trials():
    quadratic = (6000.0, 2e-3, 1.2e-9)
    selected = 0
    for trial in range(100):
        series = synth_series(quadratic, 40, 100_000, sigma=800.0,
                              seed=5000 + trial)
        model = fit_time_model(series, seed=trial)
        selected += model.degree == 2
    assert selected >= 90


def test_published_shape_precedent_on_synthetic_fixtures():
    # The study's selections were quadratic for the storage-read opcode,
    # cubic for the storage-write one, linear for the call-type one; series
    # with those shapes reproduce the selections.
    shapes = {
        "SLOAD": ((6000.0, 2e-3, 1.2e-9), 2),
        "SSTORE": ((3500.0, 1e-3, -4e-10, 6e-17), 3),
        "CALLCODE": ((9000.0, 6e-3), 1),
    }
    for opcode, (coeffs, expected_degree) in shapes.items():
        series = synth_series(coeffs, 40, 200_000, sigma=100.0, seed=7,
                              opcode=opcode)
        model = fit_time_model(series, seed=0)
        assert model.degree == expected_degree, opcode


def test_fit_requires_ten_windows():
    series = synth_series((10.0, 1e-3), 9, 1000, 0.0, 1)
    with pytest.raises(InsufficientDataError):
        fit_time_model(series)


def test_fit_rejects_degenerate_heights():
    stat = InstructionStat(10, 30, 1000)
    windows = [WindowAggregate(500, {"OP": stat}, {}) for _ in range(12)]
    with pytest.raises(FitError):
        fit_time_model(opcode_table(windows)["OP"])


def test_bic_score_form():
    # m*ln(RSS/m) + k*ln(m)
    assert bic_score(8.0, 4, 2) == pytest.approx(
        4 * math.log(2.0) + 2 * math.log(4))
    assert bic_score(0.0, 4, 2) == float("-inf")
    with pytest.raises(ValueError):
        bic_score(1.0, 0, 1)


def test_constant_model_is_window_mean():
    model = constant_model(synth_series((50.0,), 12, 1000, 0.0, 1))
    assert model.kind == "constant"
    assert model.evaluate(0) == pytest.approx(50.0)
    assert model.evaluate(10 ** 9) == pytest.approx(50.0)


def test_build_time_models_mixes_kinds():
    dependent = synth_windows((1000.0, 1e-2), 20, 100_000, 0.0, 1,
                              opcode="SLOAD")
    flat = synth_windows((75.0,), 20, 100_000, 0.0, 1, opcode="PUSH1")
    windows = [WindowAggregate(d.start,
                               {**d.instructions, **f.instructions}, {})
               for d, f in zip(dependent, flat)]
    table = opcode_table(windows)
    models = build_time_models(table, classify_bh_dependence(table))
    assert models["SLOAD"].kind == "polynomial"
    assert models["PUSH1"].kind == "constant"


def test_sparse_dependent_opcode_falls_back_to_constant():
    table = opcode_table(synth_windows((10.0, 1e-3), 5, 1000, 0.0, 1))
    classification = classify_bh_dependence(table)
    assert classification.labels["OP"] == "dependent"
    models = build_time_models(table, classification)
    assert models["OP"].kind == "constant"


def test_extrapolation_examples():
    constant = ScalarModel("constant", (42.0,))
    assert constant.evaluate(0) == 42.0
    assert constant.evaluate(10 ** 8) == 42.0

    line = ScalarModel("polynomial", (100.0, 50.0))  # 100 + 50n
    assert line.evaluate(10) == pytest.approx(600.0)

    # 10 - n is -90 at n = 100: it clamps to the training floor
    falling = ScalarModel("polynomial", (10.0, -1.0), min_observed=4.0)
    assert falling.evaluate(5) == 5.0
    assert falling.evaluate(100) == 4.0
    # with no recorded floor, or a negative one, it clamps to 0
    assert ScalarModel("polynomial", (10.0, -1.0)).evaluate(100) == 0.0
    assert ScalarModel("polynomial", (10.0, -1.0),
                       min_observed=-3.0).evaluate(100) == 0.0


def test_scaled_polynomial_evaluates_in_raw_heights():
    series = synth_series((1000.0, 2e-3), 30, 250_000, 0.0, 3)
    model = fit_time_model(series, seed=1)
    assert model.x_scale != 1.0  # fitted in standardized space
    for height in (0, 1_000_000, 7_250_000):
        assert model.evaluate(height) == pytest.approx(
            1000.0 + 2e-3 * height, rel=1e-6)


def test_models_json_round_trip():
    series = synth_series((6000.0, 2e-3, 1.2e-9), 40, 100_000, 800.0, 42)
    models = {
        "SLOAD": fit_time_model(series, seed=1),
        "PUSH1": ScalarModel("constant", (85.4,), min_observed=78.2),
    }
    restored = models_from_json(models_to_json(models))
    assert restored == models

