"""Economics arithmetic, SVG determinism, and bundle plumbing."""

import json
import random

import pytest

from gaslab.metrics import InstructionStat, WindowAggregate, atomic_write_text
from gaslab.model.base import UndefinedRatioError
from gaslab.report.bundle import sha256_of, write_manifest
from gaslab.report.economics import (ECONOMICS_HEADER, PricePoint,
                                     economics_table, fee_economics,
                                     read_price_csv)
from gaslab.report.svg import render_line_chart


def test_fee_unit_arithmetic():
    # 21000 gas at 20 gwei is 0.00042 ETH; at 200 USD/ETH that is 0.084 USD
    econ = fee_economics(21_000, 20_000_000_000, 200.0, 1.0, 0.5)
    assert econ.fee_usd == pytest.approx(0.084)
    assert econ.infra_usd == pytest.approx(0.5)
    assert econ.ratio == pytest.approx(0.168)


def test_fee_paper_scale_magnitude():
    # Fixture-scale check: ~10,000 ETH of fees at the ~1400 USD peak against
    # well under an hour of NVMe-instance time gives a ratio beyond 1e7.
    econ = fee_economics(gas_used=166_700_000_000,
                         gas_price_wei=60_000_000_000,
                         eth_usd=1400.0,
                         wall_hours=1540 / 3600,
                         infra_usd_per_hour=0.624)
    assert econ.fee_usd == pytest.approx(14_002_800.0)
    assert econ.infra_usd < 1.0
    assert econ.ratio > 1e7


def test_fee_linearity_in_each_argument():
    rng = random.Random(12)
    for _ in range(25):
        gas = rng.uniform(1, 1e9)
        price = rng.uniform(1, 1e11)
        eth = rng.uniform(0.1, 2000)
        hours = rng.uniform(0.01, 100)
        rate = rng.uniform(0.01, 10)
        base = fee_economics(gas, price, eth, hours, rate)
        assert fee_economics(3 * gas, price, eth, hours, rate).fee_usd == \
            pytest.approx(3 * base.fee_usd)
        assert fee_economics(gas, 3 * price, eth, hours, rate).fee_usd == \
            pytest.approx(3 * base.fee_usd)
        assert fee_economics(gas, price, 3 * eth, hours, rate).fee_usd == \
            pytest.approx(3 * base.fee_usd)
        assert fee_economics(gas, price, eth, 3 * hours, rate).infra_usd == \
            pytest.approx(3 * base.infra_usd)


def test_zero_infra_cost_is_undefined():
    with pytest.raises(UndefinedRatioError):
        fee_economics(1, 1, 1.0, 0.0, 5.0)
    with pytest.raises(ValueError):
        fee_economics(-1, 1, 1.0, 1.0, 5.0)


def test_price_csv_round_trip(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("# note\nwindow_start,eth_usd,infra_usd_per_hour\n"
                    "0,200.0,0.624\n1000,250.0,0.624\n")
    points = read_price_csv(path)
    assert points == [PricePoint(0, 200.0, 0.624),
                      PricePoint(1000, 250.0, 0.624)]


def test_economics_table_matches_scalar_path():
    windows = [WindowAggregate(0, {"SLOAD": InstructionStat(5, 1000, 50)},
                               {"Total": 3_600_000_000_000}),  # 1 hour
               WindowAggregate(50, {"SLOAD": InstructionStat(1, 200, 9)}, {})]
    prices = [PricePoint(0, 200.0, 0.624)]
    rows = economics_table(windows, prices, gas_price_wei=20_000_000_000)
    row = dict(zip(ECONOMICS_HEADER.split(","), rows[0], strict=True))
    scalar = fee_economics(1000, 20_000_000_000, 200.0, 1.0, 0.624)
    assert row["window_start"] == 0 and row["gas"] == 1000
    assert row["fee_usd"] == pytest.approx(scalar.fee_usd)
    assert row["infra_usd"] == pytest.approx(scalar.infra_usd)
    assert row["ratio"] == pytest.approx(scalar.ratio)
    # no wall time for the second window: no infrastructure cost, and an
    # undefined ratio, which is written as an empty cell
    assert rows[1] == (50, 200, pytest.approx(0.0008), 0.0, None)


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

def chart():
    return render_line_chart(
        "demo", "height", "ns",
        [("current", [(0, 10.0), (100, 14.0), (200, 22.0)]),
         ("proposed", [(0, 5.0), (100, 5.0), (200, 5.0)])])


def test_svg_is_deterministic_and_wellformed():
    a, b = chart(), chart()
    assert a == b
    assert a.startswith("<svg ")
    assert a.rstrip().endswith("</svg>")
    assert a.count("<polyline") == 2
    assert "current" in a and "proposed" in a


def test_svg_escapes_labels():
    svg = render_line_chart("a<b&c", "x", "y", [("s", [(0, 1), (1, 2)])])
    assert "a&lt;b&amp;c" in svg


def test_svg_rejects_empty_series():
    with pytest.raises(ValueError):
        render_line_chart("t", "x", "y", [("s", [])])


# ---------------------------------------------------------------------------
# bundle plumbing
# ---------------------------------------------------------------------------

def test_atomic_write_and_manifest(tmp_path):
    out = tmp_path / "bundle"
    out.mkdir()
    atomic_write_text(out / "table.csv", "a,b\n1,2\n")
    assert (out / "table.csv").read_text() == "a,b\n1,2\n"
    assert not [p for p in out.iterdir() if p.name.startswith("table.csv.")]

    source = tmp_path / "input.csv"
    source.write_text("x\n")
    manifest_path = write_manifest(out, "demo", {"seed": 1},
                                   {"input": source}, ["table.csv"])
    doc = json.loads(manifest_path.read_text())
    assert doc["command"] == "demo"
    assert doc["inputs"]["input"]["sha256"] == sha256_of(source)
    assert doc["outputs"]["table.csv"]["sha256"] == sha256_of(out / "table.csv")
    # nothing beside these four keys, so no timestamp
    assert sorted(doc) == ["command", "inputs", "outputs", "parameters"]


def test_manifest_is_deterministic(tmp_path):
    out = tmp_path / "bundle"
    out.mkdir()
    atomic_write_text(out / "t.csv", "a\n")
    source = tmp_path / "in.txt"
    source.write_text("data")
    first = write_manifest(out, "demo", {"z": 1, "a": 2}, {"in": source},
                           ["t.csv"]).read_text()
    second = write_manifest(out, "demo", {"a": 2, "z": 1}, {"in": source},
                            ["t.csv"]).read_text()
    assert first == second
