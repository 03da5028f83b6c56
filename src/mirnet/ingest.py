"""Price-table loading, log returns, and equal-frequency discretization."""

from __future__ import annotations

import csv
import io
import itertools
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
    their count and the first one's ``path:line``. The rows, quoted or not,
    are parsed straight from the open file in one pass of numpy's C parser
    (``np.loadtxt``), dates included, and the calendar's order is checked
    once per table. Only a table that pass cannot take whole is read again
    line by line, to drop rows and name the culprit by ``path:line``.
    """
    try:
        with open(path) as fh:
            if not fh.seekable():  # a pipe: the line path must read it again
                fh = io.StringIO(fh.read())
            header, date_idx, price_cols = _header(path, fh.readline(), delimiter, date_column)
            table = _direct_table(fh, len(header), price_cols, date_idx, delimiter)
            if table is None:
                fh.seek(0)
                fh.readline()  # past the header
                table = _line_table(path, fh, header, price_cols, date_idx, delimiter)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    calendar, columns = table
    return [
        PriceSeries(ticker=header[i], dates=calendar, prices=columns[j])
        for j, i in enumerate(price_cols)
    ]


def _header(path, line, delimiter, date_column):
    """The column names of the header ``line``, the date column's index and
    the ticker columns' indices; FormatError if the header is unusable."""
    if not line:
        raise FormatError(f"{path}: empty file")
    # open() has already turned \r\n and \r into \n
    header = [c.strip() for c in _cells(line.removesuffix("\n"), delimiter)]
    repeated = sorted(c for c, k in Counter(header).items() if k > 1)
    if repeated:
        raise FormatError(f"{path}: repeated column names {repeated}")
    if date_column not in header:
        raise FormatError(
            f"{path}: header has no '{date_column}' column (columns: {header})"
        )
    date_idx = header.index(date_column)
    price_cols = [i for i in range(len(header)) if i != date_idx]
    if not price_cols:
        raise FormatError(f"{path}: no ticker columns besides '{date_column}'")
    for i in price_cols:
        if not header[i] or "," in header[i] or '"' in header[i]:
            raise FormatError(
                f"{path}: column {i + 1}: ticker {header[i]!r} is empty or holds "
                "a comma or a double quote, which the comma-delimited outputs "
                "cannot carry"
            )
    return header, date_idx, price_cols


def _direct_table(fh, width, price_cols, date_idx, delimiter):
    """The calendar and the prices (one row per ticker) of the rest of ``fh``
    in one ``_loadtxt`` pass, or None when the table needs the line path: the
    pass raises, reads fewer than 2 rows, or reads another number of rows
    than the file has non-empty lines (a quoted cell ran over a line end), a
    price is not finite and positive, or the dates are out of order. Line
    numbers matter only in errors, so this path needs none, and numpy skips
    the empty lines."""
    for first in fh:
        if first != "\n":  # numpy warns about a body of blank lines
            break
    else:
        return None
    lines = 0

    def body():
        nonlocal lines
        for line in itertools.chain([first], fh):
            lines += line != "\n"
            yield line

    try:
        dates, table = _loadtxt(body(), date_idx, delimiter)
    except ValueError:
        return None
    if len(table) != lines or lines < 2 or table.shape[1] != width:
        return None
    # the price columns, copied once in the layout of the series; the whole
    # table is freed before the check allocates
    columns = table.T[price_cols]
    del table
    if not (np.isfinite(columns).all() and (columns > 0).all()):
        return None
    try:
        # a culprit the line path names by its line
        return _calendar(dates, str), columns
    except ValidationError:
        return None


def _line_table(path, lines, header, price_cols, date_idx, delimiter):
    """The calendar and the prices (one row per ticker) of ``lines``, the
    lines after the header, read one by one: rows with a missing price are
    dropped with one warning, and every error names its ``path:line``. A cell
    numpy cannot parse raises FormatError, a value that is not a finite
    positive number raises ValidationError; either names the first offending
    cell in reading order, and both come before a short row below."""

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

    kept, linenos, dropped, width_error = _scan(path, lines, header, price_cols, delimiter)
    dates, columns = [], np.empty((len(price_cols), 0))
    if kept:
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
        columns = table.T[price_cols]
        del table
        check(columns.T, dates)
    if width_error is not None:
        raise width_error
    if dropped:
        warnings.warn(
            f"dropped {len(dropped)} row(s) with a missing price, the first at "
            f"{path}:{dropped[0]}",
            stacklevel=3,
        )
    if len(dates) < 2:
        raise InsufficientDataError(
            f"{path}: only {len(dates)} usable rows after alignment (need >= 2)"
        )
    return _calendar(dates, lambda k: f"{path}:{linenos[k]}"), columns


def _loadtxt(lines, date_idx, delimiter, usecols=None):
    """numpy's C parser over ``lines`` (one row per line, quoted cells
    unquoted, blank lines skipped) and over every column unless ``usecols``
    names some: the date cells as the parser unquoted them, stripped, and the
    float table, whose date column reads 0."""
    dates = []

    def date(cell):
        dates.append(cell.strip())
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
    return dates, table


def _scan(path, lines, header, price_cols, delimiter):
    """Pick the lines to keep from ``lines``, the lines after the header, up
    to the first one of the wrong width: the kept lines with their line
    numbers, the line numbers of the rows dropped for a missing price, and
    the width error, if any. Blank lines are skipped."""
    kept: list[str] = []
    linenos: list[int] = []
    dropped: list[int] = []
    width_error = None
    for lineno, line in enumerate(lines, start=2):
        line = line.removesuffix("\n")
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
