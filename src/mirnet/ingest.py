"""Price-table loading, log returns, and equal-frequency discretization."""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, InsufficientDataError, ValidationError


@dataclass(frozen=True)
class PriceSeries:
    """Daily closing prices for one instrument on an ordered calendar."""

    ticker: str
    dates: tuple[str, ...]
    prices: np.ndarray

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=float)
        object.__setattr__(self, "prices", prices)
        if len(self.dates) != prices.size:
            raise ValidationError(
                f"{self.ticker}: {len(self.dates)} dates vs {prices.size} prices"
            )
        if prices.size < 2:
            raise InsufficientDataError(
                f"{self.ticker}: need at least 2 price rows, got {prices.size}"
            )
        if not np.all(prices > 0):
            bad = int(np.argmin(prices > 0))
            raise ValidationError(
                f"{self.ticker}: non-positive price {prices[bad]} on {self.dates[bad]}"
            )
        if any(a >= b for a, b in zip(self.dates, self.dates[1:])):
            raise ValidationError(f"{self.ticker}: dates not strictly increasing")


@dataclass(frozen=True)
class ReturnSeries:
    """Log returns ln(p[t+1]/p[t]); one element shorter than the prices."""

    ticker: str
    returns: np.ndarray

    def __post_init__(self):
        returns = np.asarray(self.returns, dtype=float)
        object.__setattr__(self, "returns", returns)
        if not np.all(np.isfinite(returns)):
            raise ValidationError(f"{self.ticker}: non-finite return values")

    def __len__(self) -> int:
        return self.returns.size


@dataclass(frozen=True)
class SymbolSequence:
    """Returns discretized into alphabet {0..alpha-1} with equal-count bins."""

    ticker: str
    alphabet_size: int
    symbols: np.ndarray = field(repr=False)

    def __post_init__(self):
        symbols = np.asarray(self.symbols, dtype=np.int64)
        object.__setattr__(self, "symbols", symbols)
        if self.alphabet_size < 2:
            raise ValidationError(f"alphabet size must be >= 2, got {self.alphabet_size}")
        if symbols.size and (symbols.min() < 0 or symbols.max() >= self.alphabet_size):
            raise ValidationError(
                f"{self.ticker}: symbols outside [0, {self.alphabet_size - 1}]"
            )

    def __len__(self) -> int:
        return self.symbols.size


def load_price_table(
    path,
    *,
    delimiter: str = ",",
    date_column: str = "date",
) -> list[PriceSeries]:
    """Load a delimited price table into one aligned PriceSeries per ticker.

    The file must have a header row naming the date column plus one column
    per ticker. Rows where any price is missing are dropped from all series,
    so every returned series shares an identical trading calendar.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            rows = list(reader)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise FormatError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    repeated = sorted({c for c in header if header.count(c) > 1})
    if repeated:
        raise FormatError(f"{path}: repeated column names {repeated}")
    if date_column not in header:
        raise FormatError(
            f"{path}: header has no '{date_column}' column (columns: {header})"
        )
    date_idx = header.index(date_column)
    tickers = [c for i, c in enumerate(header) if i != date_idx]
    if not tickers:
        raise FormatError(f"{path}: no ticker columns besides '{date_column}'")

    dates: list[str] = []
    columns: dict[str, list[float]] = {t: [] for t in tickers}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise FormatError(
                f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
            )
        cells = [c.strip() for c in row]
        if any(i != date_idx and not c for i, c in enumerate(cells)):
            continue  # missing price: drop the row from the common calendar
        date = cells[date_idx]
        values = {}
        for i, cell in enumerate(cells):
            if i == date_idx:
                continue
            try:
                value = float(cell)
            except ValueError as exc:
                raise FormatError(
                    f"{path}:{lineno}: unparseable price {cell!r} for {header[i]}"
                ) from exc
            if not math.isfinite(value) or value <= 0:
                raise ValidationError(
                    f"non-positive price {cell} for ticker {header[i]} on {date}"
                )
            values[header[i]] = value
        dates.append(date)
        for t in tickers:
            columns[t].append(values[t])

    if len(dates) < 2:
        raise InsufficientDataError(
            f"{path}: only {len(dates)} usable rows after alignment (need >= 2)"
        )
    calendar = tuple(dates)
    return [
        PriceSeries(ticker=t, dates=calendar, prices=np.asarray(columns[t]))
        for t in tickers
    ]


def log_returns(series: PriceSeries) -> ReturnSeries:
    """Log ratios between consecutive closing prices."""
    return ReturnSeries(ticker=series.ticker, returns=np.diff(np.log(series.prices)))


def discretize(series: ReturnSeries, alphabet_size: int) -> SymbolSequence:
    """Map returns into equal-frequency quantile bins.

    The symbol of an observation is determined by its rank: sorted stably
    (earlier observation wins ties), position p of m maps to bin
    p * alpha // m, so bin counts never differ by more than one.
    """
    if alphabet_size < 2:
        raise ValidationError(f"alphabet size must be >= 2, got {alphabet_size}")
    m = len(series)
    if m < alphabet_size:
        raise InsufficientDataError(
            f"{series.ticker}: {m} returns cannot fill {alphabet_size} bins"
        )
    if alphabet_size > int(math.isqrt(m)):
        warnings.warn(
            f"{series.ticker}: alphabet size {alphabet_size} exceeds sqrt of the "
            f"sample size ({m}); symbol statistics will be noisy",
            stacklevel=2,
        )
    order = np.argsort(series.returns, kind="stable")
    ranks = np.empty(m, dtype=np.int64)
    ranks[order] = np.arange(m)
    symbols = ranks * alphabet_size // m
    return SymbolSequence(
        ticker=series.ticker, alphabet_size=alphabet_size, symbols=symbols
    )
