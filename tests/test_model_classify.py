"""Height-dependence classification against hand-computed correlations.

The frozen correlation constants below were computed with an exact
rational-arithmetic Pearson implementation (textbook sums formula over
`fractions.Fraction`) applied to the published per-million-block series
before this module was written.
"""

import random

import pytest
from hypothesis import assume, given, strategies as st

from gaslab.metrics import InstructionStat, WindowAggregate
from gaslab.model.base import InsufficientDataError
from gaslab.model.classify import (OpcodeSeries, classify_bh_dependence,
                                   classify_opcode, opcode_table,
                                   pearson_correlation)

# Published mean execution times (ns) per million-block window, 0..8M.
PUBLISHED_SERIES = {
    "SLOAD": [5738, 8367, 8254, 18893, 37951, 51847, 68499, 82265],
    "SSTORE": [3751, 5844, 7025, 9646, 8130, 11512, 18952, 21480],
    "PUSH1": [85.4, 79.2, 92.2, 94.3, 85.9, 79.6, 80.7, 78.2],
    "MSTORE": [158.5, 107.5, 224.1, 214.4, 175.6, 157.7, 149.0, 153.9],
}

# Exact-arithmetic oracle results for the series above vs window heights.
FROZEN_CORRELATIONS = {
    "SLOAD": 0.967178,
    "SSTORE": 0.932822,
    "PUSH1": -0.422839,
    "MSTORE": -0.048933,
}

EXPECTED_LABELS = {
    "SLOAD": "dependent",
    "SSTORE": "dependent",
    "PUSH1": "independent",
    "MSTORE": "independent",
}


def windows_from_series(series: dict[str, list[float]], count=10):
    n = len(next(iter(series.values())))
    windows = []
    for i in range(n):
        instructions = {
            op: InstructionStat(count, count * 3,
                                int(round(values[i] * count)))
            for op, values in series.items()}
        windows.append(WindowAggregate(i * 1_000_000, instructions, {}))
    return windows


def test_published_series_correlations_match_hand_oracle():
    windows = windows_from_series(PUBLISHED_SERIES)
    result = classify_bh_dependence(opcode_table(windows))
    for op, expected_r in FROZEN_CORRELATIONS.items():
        assert result.correlations[op] == pytest.approx(expected_r, abs=1e-6)
        assert result.labels[op] == EXPECTED_LABELS[op]
    assert result.dependent_opcodes() == ["SLOAD", "SSTORE"]


def test_strictly_increasing_series_is_dependent_with_r_one():
    windows = windows_from_series({"OP": [10, 20, 30, 40, 50]})
    r, label = classify_opcode(opcode_table(windows)["OP"])
    assert r == pytest.approx(1.0)
    assert label == "dependent"


def test_constant_series_defines_r_zero_independent():
    windows = windows_from_series({"OP": [42, 42, 42, 42]})
    r, label = classify_opcode(opcode_table(windows)["OP"])
    assert r == 0.0
    assert label == "independent"


def test_fewer_than_three_windows_is_insufficient():
    windows = windows_from_series({"OP": [1, 2]})
    with pytest.raises(InsufficientDataError):
        classify_opcode(opcode_table(windows)["OP"])
    result = classify_bh_dependence(opcode_table(windows))
    assert "OP" in result.skipped
    assert "OP" not in result.labels


def test_threshold_monotonicity():
    table = opcode_table(windows_from_series(PUBLISHED_SERIES))
    for low, high in [(0.5, 0.7), (0.7, 0.95), (0.9, 0.97)]:
        low_result = classify_bh_dependence(table, threshold=low)
        high_result = classify_bh_dependence(table, threshold=high)
        for op, label in high_result.labels.items():
            if label == "dependent":
                assert low_result.labels[op] == "dependent"


def test_windows_with_zero_count_are_excluded():
    windows = windows_from_series({"OP": [10, 20, 30, 40]})
    gap = WindowAggregate(9_000_000, {"OP": InstructionStat(0, 0, 0)}, {})
    r, label = classify_opcode(opcode_table(windows + [gap])["OP"])
    assert r == pytest.approx(1.0)


def test_opcode_table_keeps_first_seen_order_and_run_totals():
    windows = [
        WindowAggregate(0, {"SLOAD": InstructionStat(2, 400, 90)}, {}),
        WindowAggregate(10, {"ADD": InstructionStat(0, 0, 0),
                             "SLOAD": InstructionStat(1, 200, 30)}, {}),
        WindowAggregate(20, {"ADD": InstructionStat(4, 12, 8)}, {}),
    ]
    table = opcode_table(windows)
    assert list(table) == ["SLOAD", "ADD"]
    assert table["SLOAD"] == OpcodeSeries(
        [0.0, 10.0], [45.0, 30.0], InstructionStat(3, 600, 120))
    # a zero-count window adds to the total only
    assert table["ADD"] == OpcodeSeries([20.0], [2.0],
                                        InstructionStat(4, 12, 8))


@given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
                min_size=3, max_size=40),
       st.floats(0.01, 100), st.floats(-1e3, 1e3),
       st.floats(0.01, 100), st.floats(-1e3, 1e3))
def test_pearson_affine_invariance(pairs, ax, bx, ay, by):
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    # near-zero variance makes the ratio numerically meaningless; require
    # a healthy spread on both axes before asserting invariance
    assume(max(xs) - min(xs) > 1e-3 * (1 + max(abs(x) for x in xs)))
    assume(max(ys) - min(ys) > 1e-3 * (1 + max(abs(y) for y in ys)))
    base = pearson_correlation(xs, ys)
    scaled = pearson_correlation([ax * x + bx for x in xs],
                                 [ay * y + by for y in ys])
    assert scaled == pytest.approx(base, abs=1e-6)


def test_pearson_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        pearson_correlation([1, 2], [1, 2, 3])


def test_pearson_hand_example():
    # hand computation: x=[0,1,2], y=[1,3,4]: r = 3/sqrt(2*4.6667) ~= 0.981981
    rng = random.Random(0)
    assert pearson_correlation([0, 1, 2], [1, 3, 4]) == pytest.approx(
        0.9819805060619659)
    xs = [rng.random() for _ in range(50)]
    assert pearson_correlation(xs, xs) == pytest.approx(1.0)
    assert pearson_correlation(xs, [-x for x in xs]) == pytest.approx(-1.0)
