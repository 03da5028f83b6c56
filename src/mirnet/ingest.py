"""Price-table loading, log returns, and equal-frequency discretization."""

from __future__ import annotations

import csv
import datetime
import io
import itertools
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from types import SimpleNamespace

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
        usable = np.isfinite(prices) & (prices > 0)
        if not usable.all():
            bad = int(np.argmin(usable))
            raise ValidationError(
                f"{self.ticker}: non-positive price {prices[bad]} on {self.dates[bad]}"
            )
        if not isinstance(self.dates, _Calendar):
            object.__setattr__(
                self, "dates", _calendar(self.dates, lambda k: self.ticker)
            )


class _Calendar(tuple):
    """Dates this module has checked to be strictly increasing days.

    The series of one price table share one such tuple, so the loader walks
    the calendar once per table instead of once per series.
    """


def _calendar(dates, culprit) -> _Calendar:
    """``dates`` as a ``_Calendar``, or a ValidationError naming ``culprit(k)``
    for the first position k whose date is not a day that exists, written
    ``YYYY-MM-DD``, or does not follow the one before it (such days sort as
    strings in calendar order)."""
    dates = tuple(dates)
    for k, date in enumerate(dates):
        try:
            day = datetime.date.fromisoformat(date).isoformat() == date
        except (TypeError, ValueError):
            day = False
        if not day:
            raise ValidationError(f"{culprit(k)}: date {date!r} is not a day written YYYY-MM-DD")
        if k and dates[k - 1] >= date:
            raise ValidationError(
                f"{culprit(k)}: dates not strictly increasing ({dates[k - 1]!r} then {date!r})"
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

    The delimiter is one character other than ``"``, CR, LF or one a number
    can hold (``check_delimiter``). The file must have a header row naming
    the date column plus one column per ticker; a ticker may not be empty or hold
    ``,``, ``"`` or a line break, since the outputs are comma-delimited
    whatever the input's delimiter. Rows where any price is missing are
    dropped from all series, so every returned series shares an identical
    trading calendar; one ``UserWarning`` gives their count and the first
    one's ``path:line``. The rows, quoted or not, are parsed straight from
    the open file in one pass of numpy's C parser (``np.loadtxt``), dates
    included, and the calendar (``YYYY-MM-DD`` days, strictly increasing) is
    checked once per table. A table that pass refuses takes the
    line path: the file is read again line by line, and the lines it keeps
    stream through the same pass, so that rows are dropped and the culprit
    is named by ``path:line`` without a list of the lines being held.
    """
    check_delimiter(delimiter)
    try:
        with open(path) as fh:
            if not fh.seekable():  # a pipe: the line path must read it again
                fh = io.StringIO(fh.read())
            header, date_idx, price_cols = _header(path, fh.readline(), delimiter, date_column)
            table = _direct_table(fh, len(header), price_cols, date_idx, delimiter)
            if table is not None:
                try:
                    table = _calendar(table[0], str), table[1]
                except ValidationError:  # a culprit the line path names by its line
                    table = None
            if table is None:
                fh.seek(0)
                fh.readline()  # past the header
                table = _line_table(path, fh, header, price_cols, date_idx, delimiter)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    calendar, columns = table
    if len(calendar) < 2:
        raise InsufficientDataError(
            f"{path}: only {len(calendar)} usable rows after alignment (need >= 2)"
        )
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
        if unwritable_ticker(header[i], ","):
            raise FormatError(
                f"{path}: column {i + 1}: ticker {header[i]!r} is empty or holds a comma, "
                "a double quote or a line break, which the comma-delimited outputs cannot carry"
            )
    return header, date_idx, price_cols


def unwritable_ticker(ticker: str, delimiter: str) -> bool:
    """Whether text delimited by ``delimiter`` cannot carry ``ticker``: it is
    empty, or holds the delimiter, a ``"`` or a line break by
    ``str.splitlines``, which splits ``ticker + "."`` in two."""
    return not ticker or delimiter in ticker or '"' in ticker or len(f"{ticker}.".splitlines()) > 1


def check_delimiter(delimiter) -> None:
    """Refuse, with a ValidationError naming it, a delimiter of a price table
    or a distance matrix that is not one character other than ``"``, CR, LF
    and the characters of a number (``0-9 . + - e E``): numpy's parser splits
    on one character and keeps ``"``, CR and LF for quotes and line ends, and
    a price, an ISO date or a distance's ``repr`` would split on the others."""
    if not isinstance(delimiter, str) or len(delimiter) != 1 or delimiter in '"\r\n0123456789.+-eE':
        raise ValidationError(
            f"delimiter: {delimiter!r} is not one character other than '\"', CR, LF, "
            "a digit, '.', '+', '-', 'e' or 'E'"
        )


def _direct_table(lines, width, price_cols, date_idx, delimiter):
    """The dates, unchecked, and the prices (one row per ticker) of
    ``lines`` in one ``_loadtxt`` pass, or None when the pass refuses them:
    it raises, reads another number of rows than ``lines`` has non-empty
    lines (a quoted cell ran over a line end) or rows of another width than
    ``width``, or a price is not finite and positive. numpy skips the empty
    lines, and the pass keeps no line numbers: they matter only in errors."""
    lines = iter(lines)
    for first in lines:
        if first != "\n":  # numpy warns about a body of blank lines
            break
    else:
        return [], np.empty((len(price_cols), 0))
    count = 0

    def body():
        nonlocal count
        for line in itertools.chain([first], lines):
            count += line != "\n"
            yield line

    try:
        dates, table = _loadtxt(body(), date_idx, delimiter)
    except ValueError:
        return None
    if len(table) != count or table.shape[1] != width:
        return None
    # the price columns, copied once in the layout of the series; the whole
    # table is freed before the check allocates
    columns = table.T[price_cols]
    del table
    if not (np.isfinite(columns).all() and (columns > 0).all()):
        return None
    return dates, columns


def _line_table(path, fh, header, price_cols, date_idx, delimiter):
    """The calendar and the prices (one row per ticker) of the rest of
    ``fh``, the lines after the header: ``_scan`` streams the lines it keeps
    through the one ``_direct_table`` pass, rows with a missing price are
    dropped with one warning, and every error names its ``path:line``. Only
    when the pass refuses the kept lines are they read again, each alone, to
    name the first bad cell in reading order: a cell numpy cannot parse
    raises FormatError, a value that is not a finite positive number raises
    ValidationError, and either comes before a short row below."""
    body = fh.tell()
    seen = SimpleNamespace(linenos=[], dropped=[], error=None)

    def table_of(lines):
        return _direct_table(lines, len(header), price_cols, date_idx, delimiter)

    table = table_of(_scan(path, fh, header, price_cols, delimiter, seen))
    if table is None:
        fh.seek(body)
        for line in _scan(path, fh, header, price_cols, delimiter, seen):
            if table_of([line]) is not None:
                continue
            # cell by cell in the line the pass refuses
            lineno, cells = seen.linenos[-1], _cells(line, delimiter)
            for i in price_cols:
                cell = cells[i].strip()
                try:
                    date, value = _loadtxt([line], date_idx, delimiter, [date_idx, i])
                except ValueError as exc:
                    raise FormatError(
                        f"{path}:{lineno}: unparseable price {cell!r} for {header[i]}"
                    ) from exc
                if not (np.isfinite(value[0, 1]) and value[0, 1] > 0):
                    raise ValidationError(
                        f"{path}:{lineno}: non-positive price {cell} for ticker "
                        f"{header[i]} on {date[0]}"
                    )
        raise FormatError(f"{path}: unparseable table, though each of its cells parses")
    if seen.error is not None:
        raise seen.error
    if seen.dropped:
        warnings.warn(
            f"dropped {len(seen.dropped)} row(s) with a missing price, the first at "
            f"{path}:{seen.dropped[0]}",
            stacklevel=3,
        )
    dates, columns = table
    return _calendar(dates, lambda k: f"{path}:{seen.linenos[k]}"), columns


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


def _scan(path, lines, header, price_cols, delimiter, seen):
    """Yield the lines of ``lines``, the lines after the header, that hold a
    row of prices, up to the first one that is not one record of the
    header's width; blank lines are skipped. ``seen`` records the yielded
    lines' numbers (``linenos``), those of the rows dropped for a missing
    price (``dropped``) and the FormatError of the line that ended the scan
    (``error``), which the caller raises after any bad cell above it."""
    for lineno, line in enumerate(lines, start=2):
        line = line.removesuffix("\n")
        cells = _cells(line, delimiter)
        # csv, like numpy, reads on into the next line while a quote is open,
        # so only then is an empty next line not a record of its own
        open_quote = '"' in line and len(list(csv.reader([line, ""], delimiter=delimiter))) == 1
        blank = not any(map(str.strip, cells))
        if blank and not open_quote:
            continue
        if len(cells) != len(header) and not blank:
            error = f"expected {len(header)} fields, got {len(cells)}"
        elif open_quote:
            error = "a quoted cell runs over the line end"
        elif not all(map(str.strip, cells)) and not all(cells[i].strip() for i in price_cols):
            seen.dropped.append(lineno)
            continue  # missing price: drop the row from the common calendar
        else:
            seen.linenos.append(lineno)
            yield line
            continue
        seen.error = FormatError(f"{path}:{lineno}: {error}")
        return


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

    The stable order comes from two plain sorts: one of the returns, whose
    runs of equal values give each return its dense rank d, then one of the
    keys d * m + position, which are unique and so order equal returns by
    position. On numpy's vectorised sorts that beats one stable sort.
    """
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
    order = np.argsort(series.returns)
    ordered = series.returns[order]
    dense = np.zeros(m, dtype=np.int64)
    np.cumsum(ordered[1:] != ordered[:-1], out=dense[1:])
    stable = np.sort(dense * m + order) % m
    symbols = np.empty(m, dtype=np.int64)
    symbols[stable] = np.arange(m) * alphabet_size // m
    return SymbolSequence(
        ticker=series.ticker, alphabet_size=alphabet_size, symbols=symbols
    )
