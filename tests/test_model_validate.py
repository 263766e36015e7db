import numpy as np
import pytest

from gaslab.metrics import InstructionStat, WindowAggregate
from gaslab.model.base import InsufficientDataError, UndefinedRatioError
from gaslab.model.validate import (chi_square_decision, chi_square_normality,
                                   macro_micro_differences,
                                   relative_difference)


def test_relative_difference_examples():
    assert relative_difference(100, 100) == 0.0
    assert relative_difference(100, 90) == pytest.approx(0.10)
    assert relative_difference(100, 110) == pytest.approx(-0.10)
    with pytest.raises(UndefinedRatioError):
        relative_difference(0, 5)


def test_macro_micro_differences_per_window():
    windows = [
        WindowAggregate(0, {"ADD": InstructionStat(1, 3, 90)}, {"EVM": 100}),
        WindowAggregate(5, {"ADD": InstructionStat(1, 3, 100)}, {"EVM": 100}),
        WindowAggregate(10, {}, {}),  # no macro EVM: skipped
    ]
    diffs = macro_micro_differences(windows)
    assert diffs == [(0, pytest.approx(0.10)), (5, pytest.approx(0.0))]


def test_published_decision_fixture():
    # statistic 20.25 at 17 dof is below the 27.59 critical value at 5%
    result = chi_square_decision(20.25, 17, alpha=0.05)
    assert result.critical == pytest.approx(27.59, abs=0.01)
    assert result.accept

    # and a statistic beyond the critical value flips the decision
    assert not chi_square_decision(30.0, 17, alpha=0.05).accept


def test_chi_square_accepts_normal_samples_in_90_of_100_trials():
    accepted = 0
    for trial in range(100):
        rng = np.random.default_rng(200 + trial)
        samples = rng.normal(0.02, 0.01, 400)
        accepted += chi_square_normality(samples, bins=20).accept
    assert accepted >= 90


def test_chi_square_rejects_uniform_samples_in_90_of_100_trials():
    rejected = 0
    for trial in range(100):
        rng = np.random.default_rng(300 + trial)
        samples = rng.uniform(-1.0, 1.0, 400)
        rejected += not chi_square_normality(samples, bins=20).accept
    assert rejected >= 90


def test_chi_square_bin_bookkeeping():
    rng = np.random.default_rng(1)
    samples = rng.normal(0, 1, 400)
    result = chi_square_normality(samples, bins=20, alpha=0.05)
    assert result.bins == 20
    assert result.dof == 17
    assert result.critical == pytest.approx(27.587, abs=0.01)


def test_chi_square_shrinks_bins_for_small_samples():
    rng = np.random.default_rng(2)
    samples = rng.normal(0, 1, 40)  # supports only 8 bins of >= 5 expected
    result = chi_square_normality(samples, bins=20)
    assert result.bins == 8
    assert result.dof == 5


def test_chi_square_insufficient_data():
    rng = np.random.default_rng(3)
    with pytest.raises(InsufficientDataError):
        chi_square_normality(rng.normal(0, 1, 12), bins=20)
    with pytest.raises(InsufficientDataError):
        chi_square_normality([1.0] * 100, bins=20)  # zero variance
    with pytest.raises(ValueError):
        chi_square_normality(rng.normal(0, 1, 100), bins=3)
