"""Fee economics: what users pay versus what the computation costs to run.

Fees convert as gas x gas-price (wei) x 1e-18 (wei per ETH) x ETH/USD;
infrastructure cost is wall hours times an hourly machine rate. The hourly
rate is always user-supplied input (price files), never hardcoded.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from ..metrics import WindowAggregate, read_table
from ..model.base import UndefinedRatioError

WEI_PER_ETH = 10 ** 18
NS_PER_HOUR = 3_600_000_000_000

PRICES_HEADER = "window_start,eth_usd,infra_usd_per_hour"
ECONOMICS_HEADER = "window_start,gas,fee_usd,infra_usd,ratio"


@dataclass(frozen=True)
class PricePoint:
    window_start: int
    eth_usd: float
    infra_usd_per_hour: float

    def __post_init__(self):
        if not (0 <= self.eth_usd < math.inf
                and 0 <= self.infra_usd_per_hour < math.inf):
            raise ValueError("prices must be finite and non-negative")


@dataclass(frozen=True)
class FeeEconomics:
    fee_usd: float
    infra_usd: float
    ratio: float


class NonFiniteCostError(ValueError):
    """A fee, infrastructure cost or ratio past float range."""


def _costs(window_start: int, gas_used: float, gas_price_wei: float,
           eth_usd: float, wall_hours: float,
           infra_usd_per_hour: float) -> tuple[float, float, Optional[float]]:
    """Fee and infrastructure cost, both in USD, and the fee's ratio to the
    cost, None when the cost is zero. One that is not finite raises
    NonFiniteCostError naming the window."""
    fee_usd = gas_used * gas_price_wei / WEI_PER_ETH * eth_usd
    infra_usd = wall_hours * infra_usd_per_hour
    ratio = fee_usd / infra_usd if infra_usd else None
    for name, value in (("fee_usd", fee_usd), ("infra_usd", infra_usd),
                        ("ratio", ratio)):
        if value is not None and not math.isfinite(value):
            raise NonFiniteCostError(
                f"window {window_start}: {name} is not finite ({value})")
    return fee_usd, infra_usd, ratio


def fee_economics(gas_used: float, gas_price_wei: float, eth_usd: float,
                  wall_hours: float, infra_usd_per_hour: float,
                  window_start: int = 0) -> FeeEconomics:
    """Scalar fee-vs-infrastructure comparison; `window_start` names the
    window in errors."""
    if min(gas_used, gas_price_wei, eth_usd, wall_hours,
           infra_usd_per_hour) < 0:
        raise ValueError("economics inputs must be non-negative")
    fee_usd, infra_usd, ratio = _costs(window_start, gas_used, gas_price_wei,
                                       eth_usd, wall_hours,
                                       infra_usd_per_hour)
    if ratio is None:
        raise UndefinedRatioError("infrastructure cost is zero")
    return FeeEconomics(fee_usd, infra_usd, ratio)


def _price_row(fields: list[str]) -> PricePoint:
    return PricePoint(int(fields[0]), float(fields[1]), float(fields[2]))


def read_price_csv(path: str | Path) -> list[PricePoint]:
    return sorted(read_table(path, PRICES_HEADER, _price_row),
                  key=lambda p: p.window_start)


def price_for(points: Sequence[PricePoint], window_start: int) -> PricePoint:
    """Latest price point at or before the window (first one otherwise)."""
    chosen = points[0]
    for point in points:
        if point.window_start <= window_start:
            chosen = point
        else:
            break
    return chosen


def gas_paid_by_window(receipts: Iterable,
                       starts: Sequence[int]) -> dict[int, int]:
    """Summed `gas_used` of receipts (`gaslab.chain.ReceiptRow`) per
    window start: a window holds start <= height < next start, and the
    last one every later height. A receipt before the first start raises
    ValueError."""
    paid = dict.fromkeys(starts, 0)
    for receipt in receipts:
        index = bisect_right(starts, receipt.height) - 1
        if index < 0:
            raise ValueError(f"receipt at height {receipt.height} precedes "
                             f"the first window (start {starts[0]})")
        paid[starts[index]] += receipt.gas_used
    return paid


def economics_table(windows: Sequence[WindowAggregate],
                    prices: Sequence[PricePoint],
                    gas_price_wei: int,
                    gas_paid: Optional[Mapping[int, int]] = None
                    ) -> list[tuple]:
    """Per-window fee vs infrastructure cost rows (the Fig-1 style table),
    each in ECONOMICS_HEADER order, for every window with instruction
    samples; the wall time is the window's own Total span, and a window
    without infrastructure cost has an undefined ratio, None, which
    `write_table` writes as an empty cell, and a cost or ratio that is not
    finite raises NonFiniteCostError. A window's gas is its
    instruction gas, or, given `gas_paid` (window start -> gas used, see
    `gas_paid_by_window`), the gas its transactions paid, intrinsic gas
    included.
    """
    rows = []
    for window in windows:
        if not window.instructions:
            continue
        point = price_for(prices, window.start)
        gas = (window.instruction_gas_total() if gas_paid is None
               else gas_paid[window.start])
        rows.append((window.start, gas, *_costs(
            window.start, gas, gas_price_wei, point.eth_usd,
            window.categories.get("Total", 0) / NS_PER_HOUR,
            point.infra_usd_per_hour)))
    return rows
