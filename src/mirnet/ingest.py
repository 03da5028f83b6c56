"""Price-table loading, log returns, and equal-frequency discretization."""

from __future__ import annotations

import csv
import math
import operator
import warnings
from collections import Counter
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
        if not isinstance(self.dates, _Calendar):
            object.__setattr__(
                self, "dates", _calendar(self.dates, lambda k: self.ticker)
            )


class _Calendar(tuple):
    """Dates this module has checked to be strictly increasing.

    The series of one price table share one such tuple, so the loader walks
    the calendar once per table instead of once per series.
    """


def _calendar(dates, culprit) -> _Calendar:
    """``dates`` as a ``_Calendar``, or a ValidationError naming ``culprit(k)``
    for the first position k whose date does not follow the one before it."""
    dates = tuple(dates)
    if not all(map(operator.lt, dates, dates[1:])):
        k = next(k for k in range(1, len(dates)) if dates[k - 1] >= dates[k])
        raise ValidationError(
            f"{culprit(k)}: dates not strictly increasing "
            f"({dates[k - 1]!r} then {dates[k]!r})"
        )
    return _Calendar(dates)


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
    per ticker; a ticker may not be empty or hold ``,`` or ``"``, since the
    outputs are comma-delimited whatever the input's delimiter. Rows where
    any price is missing are dropped from all series, so every returned
    series shares an identical trading calendar; one ``UserWarning`` gives
    their count and the first one's ``path:line``. The kept rows, quoted or
    not, are parsed in one pass of numpy's C parser (``np.loadtxt``), dates
    included, and the calendar's order is checked once per table.
    """
    try:
        with open(path) as fh:
            # open() has already turned \r\n and \r into \n; the text itself
            # is not kept next to its lines
            lines = fh.read().split("\n")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    if lines == [""]:
        raise FormatError(f"{path}: empty file")
    header = [c.strip() for c in _cells(lines[0], delimiter)]
    repeated = sorted(c for c, k in Counter(header).items() if k > 1)
    if repeated:
        raise FormatError(f"{path}: repeated column names {repeated}")
    if date_column not in header:
        raise FormatError(
            f"{path}: header has no '{date_column}' column (columns: {header})"
        )
    date_idx = header.index(date_column)
    price_cols = [i for i in range(len(header)) if i != date_idx]
    tickers = [header[i] for i in price_cols]
    if not tickers:
        raise FormatError(f"{path}: no ticker columns besides '{date_column}'")
    for i in price_cols:
        if not header[i] or "," in header[i] or '"' in header[i]:
            raise FormatError(
                f"{path}: column {i + 1}: ticker {header[i]!r} is empty or holds "
                "a comma or a double quote, which the comma-delimited outputs "
                "cannot carry"
            )

    linenos, dates, columns, dropped, width_error = _price_table(
        path, lines, header, price_cols, date_idx, delimiter
    )
    # raised after the prices are parsed: a bad price above the short row
    # comes first in reading order
    if width_error is not None:
        raise width_error
    if dropped:
        warnings.warn(
            f"dropped {len(dropped)} row(s) with a missing price, the first at "
            f"{path}:{dropped[0]}",
            stacklevel=2,
        )
    if len(dates) < 2:
        raise InsufficientDataError(
            f"{path}: only {len(dates)} usable rows after alignment (need >= 2)"
        )
    calendar = _calendar(dates, lambda k: f"{path}:{linenos[k]}")
    return [
        PriceSeries(ticker=t, dates=calendar, prices=columns[j])
        for j, t in enumerate(tickers)
    ]


def _price_table(path, lines, header, price_cols, date_idx, delimiter):
    """The kept lines' numbers, dates and prices (one row per ticker), the
    numbers of the lines dropped for a missing price, and the width error, if
    any. A cell numpy cannot parse raises FormatError, a value that is not a
    finite positive number raises ValidationError; either names the first
    offending cell in reading order."""

    def check(values, dates, row=0, col=0):
        # values: a block of the prices, one row per line, whose first cell
        # is (row, col); dates: the block's dates
        bad = ~(np.isfinite(values) & (values > 0))
        if bad.any():
            r, j = divmod(int(bad.argmax()), bad.shape[1])
            cell = _cells(kept[row + r], delimiter)[price_cols[col + j]].strip()
            raise ValidationError(
                f"{path}:{linenos[row + r]}: non-positive price {cell} for ticker "
                f"{header[price_cols[col + j]]} on {dates[r]}"
            )

    # Every table goes through one _loadtxt pass over every column, which
    # refuses a line of another width. Only when that pass raises or skips a
    # line (loadtxt skips a blank one) does _scan pick the lines to keep, and
    # they go through the same pass.
    body = lines[1:-1] if lines[-1] == "" else lines[1:]
    kept, linenos, dropped, width_error = body, range(2, len(body) + 2), [], None
    table = None
    if any(body):  # loadtxt warns about a body of blank lines
        try:
            dates, table = _loadtxt(body, date_idx, delimiter)
        except ValueError:
            pass
    if table is None or table.shape != (len(body), len(header)):
        kept, linenos, dropped, width_error = _scan(path, lines, header, price_cols, delimiter)
        if not kept:
            return linenos, [], np.empty((len(price_cols), 0)), dropped, width_error
        try:
            dates, table = _loadtxt(kept, date_idx, delimiter)
        except ValueError:
            # Go row by row, then cell by cell in the failing row, so that the
            # error names the first bad cell in reading order.
            for r, line in enumerate(kept):
                try:
                    date, row = _loadtxt([line], date_idx, delimiter)
                except ValueError:
                    cells = _cells(line, delimiter)
                    for j, i in enumerate(price_cols):
                        try:
                            date, value = _loadtxt([line], date_idx, delimiter, [date_idx, i])
                        except ValueError as exc:
                            raise FormatError(
                                f"{path}:{linenos[r]}: unparseable price "
                                f"{cells[i].strip()!r} for {header[i]}"
                            ) from exc
                        check(value[:, 1:], date, r, j)
                    raise
                check(row[:, price_cols], date, r)
            raise
    # the price columns, copied once in the layout of the series; the whole
    # table is freed before the check allocates
    columns = table.T[price_cols]
    del table
    check(columns.T, dates)
    return linenos, dates, columns, dropped, width_error


def _loadtxt(lines, date_idx, delimiter, usecols=None):
    """numpy's C parser over ``lines`` (one row per line, quoted cells
    unquoted) and over every column unless ``usecols`` names some: the date
    cells as the parser unquoted them, stripped, and the float table, whose
    date column reads 0."""
    # filled in place: a list that grew while loadtxt grows its table
    # fragmented the heap and raised peak memory
    dates = [""] * len(lines)
    rows = iter(range(len(lines)))

    def date(cell):
        dates[next(rows)] = cell.strip()
        return 0.0

    table = np.loadtxt(
        lines,
        dtype=float,
        delimiter=delimiter,
        comments=None,
        quotechar='"',
        converters={date_idx: date},
        usecols=usecols,
        ndmin=2,
    )
    del dates[len(table):]  # loadtxt skips blank lines
    return dates, table


def _scan(path, lines, header, price_cols, delimiter):
    """Pick the lines after the header to keep, up to the first one of the
    wrong width: the kept lines with their line numbers, the line numbers of
    the rows dropped for a missing price, and the width error, if any. Blank
    lines are skipped."""
    kept: list[str] = []
    linenos: list[int] = []
    dropped: list[int] = []
    width_error = None
    for lineno, line in enumerate(lines[1:], start=2):
        cells = _cells(line, delimiter)
        if not all(map(str.strip, cells)):
            if not any(map(str.strip, cells)):
                continue  # blank line
            if len(cells) == len(header) and not all(
                cells[i].strip() for i in price_cols
            ):
                dropped.append(lineno)
                continue  # missing price: drop the row from the common calendar
        if len(cells) != len(header):
            width_error = FormatError(
                f"{path}:{lineno}: expected {len(header)} fields, got {len(cells)}"
            )
            break
        kept.append(line)
        linenos.append(lineno)
    return kept, linenos, dropped, width_error


def _cells(line: str, delimiter: str) -> list[str]:
    """The fields of one line, unquoted as ``csv`` does when it holds a quote."""
    if '"' in line:
        return next(csv.reader([line], delimiter=delimiter), [])
    return line.split(delimiter)


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
