"""Pairwise distance matrices: correlation baseline and MIR-based metrics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lz
from .errors import (
    AlignmentError,
    DegeneratePairError,
    FormatError,
    UndefinedCorrelationError,
    ValidationError,
)
from .ingest import SymbolSequence, check_delimiter, unwritable_ticker

METHODS = ("correlation", "mir", "mir_prime")
CORR_VARIANTS = ("one_minus_r2", "sqrt")

# MIR distances use the source paper's ratio estimator, not the library
# default: its O(1/log n) bias largely cancels in the normalised distances,
# and its spread at a few thousand returns is several times smaller.
MIR_ESTIMATOR = "paper"


@dataclass
class DistanceMatrix:
    """Symmetric distance matrix over a labelled instrument set.

    Construction checks the values: an n x n array for the n tickers, every
    entry finite, exactly symmetric, and 0 on the diagonal. A failed check
    raises ``ValidationError`` naming the first offending (row ticker, column
    ticker) in row-major order.
    """

    tickers: tuple[str, ...]
    method: str
    values: np.ndarray
    params: dict = field(default_factory=dict)
    # pairs whose raw mutual complexity was negative before clamping
    clamped_pairs: int = 0

    def __post_init__(self):
        values = self.values = np.asarray(self.values, dtype=float)
        names = self.tickers
        if values.shape != (len(names), len(names)):
            raise ValidationError(
                f"distance values have shape {values.shape}, expected "
                f"({len(names)}, {len(names)}) for {len(names)} tickers"
            )
        problems = (
            (~np.isfinite(values), "is not finite"),
            (values != values.T, "differs from its mirror entry"),
            (np.diag(np.diag(values) != 0), "on the diagonal is not 0"),
        )
        for mask, what in problems:
            if mask.any():
                i, j = np.argwhere(mask)[0]
                raise ValidationError(
                    f"({names[i]}, {names[j]}): distance {float(values[i, j])!r} {what}"
                )

    @classmethod
    def from_delimited(cls, text: str, delimiter: str = ",") -> "DistanceMatrix":
        """Read the text ``to_delimited`` writes; the method is ``"imported"``.

        The header row lists the tickers after one empty cell, and each row
        starts with its ticker. A ticker that ``to_delimited`` refuses, a row
        out of place, a ragged row or a cell that is not a number raises
        ``FormatError`` naming it; the values are then checked as on
        construction. A delimiter that ``ingest.check_delimiter`` refuses
        raises ``ValidationError``.
        """
        check_delimiter(delimiter)
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise FormatError("empty distance matrix")
        tickers = tuple(lines[0].split(delimiter)[1:])
        for k, t in enumerate(tickers):
            if unwritable_ticker(t, delimiter):
                raise FormatError(f"column {k + 2}: ticker {t!r} is empty or holds a double "
                                  "quote or a line break, which no delimited output can carry")
        if len(lines) - 1 != len(tickers):
            raise FormatError(
                f"{len(tickers)} tickers in the header but {len(lines) - 1} rows"
            )
        values = np.empty((len(tickers), len(tickers)))
        for i, (ticker, line) in enumerate(zip(tickers, lines[1:])):
            label, *cells = line.split(delimiter)
            if label != ticker:
                raise FormatError(f"row {i + 1} is {label!r}, expected {ticker!r}")
            if len(cells) != len(tickers):
                raise FormatError(
                    f"row {ticker}: {len(cells)} values, expected {len(tickers)}"
                )
            for j, cell in enumerate(cells):
                try:
                    values[i, j] = float(cell)
                except ValueError:
                    raise FormatError(
                        f"({ticker}, {tickers[j]}): {cell!r} is not a number"
                    ) from None
        return cls(tickers=tickers, method="imported", values=values)

    @property
    def n(self) -> int:
        return len(self.tickers)

    @property
    def total_pairs(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def clamp_fraction(self) -> float:
        return self.clamped_pairs / self.total_pairs if self.total_pairs else 0.0

    def to_delimited(self, delimiter: str = ",") -> str:
        """Matrix as delimited text with tickers on both axes; each value is
        written as its ``repr``, so ``from_delimited`` reads back the same bits.

        Each pair's ``repr`` is formatted once and placed at both mirror
        cells; a zero whose mirror has the other sign (the only entries that
        the symmetry check lets differ) then gets its own. A delimiter that
        ``ingest.check_delimiter`` refuses, or a ticker that is empty or holds
        the delimiter, a ``"`` or a line break, raises ``ValidationError``.
        """
        check_delimiter(delimiter)
        for t in self.tickers:
            if unwritable_ticker(t, delimiter):
                raise ValidationError(f"{t!r}: a ticker that is empty or holds the "
                                      "delimiter, a quote or a line break cannot be written")
        values = self.values
        i, j = np.triu_indices(self.n)
        cells = np.empty(values.shape, dtype=object)
        cells[i, j] = cells[j, i] = np.array(list(map(repr, values[i, j].tolist())), dtype=object)
        signs = np.signbit(values)
        for r, c in np.argwhere(signs != signs.T).tolist():
            cells[r, c] = repr(float(values[r, c]))
        lines = [delimiter.join(["", *self.tickers])]
        lines += [delimiter.join([t, *row]) for t, row in zip(self.tickers, cells.tolist())]
        return "\n".join(lines) + "\n"

    def report(self) -> dict:
        """Structured description of the matrix and how it was built."""
        return {
            "method": self.method,
            "params": self.params,
            "tickers": list(self.tickers),
            "n": self.n,
            "independent_pairs": self.total_pairs,
            "clamped_pairs": self.clamped_pairs,
            "clamp_fraction": self.clamp_fraction,
        }


def _name(series, k: int) -> str:
    return getattr(series[k], "ticker", f"series {k}")


def _stacked(series, rows) -> tuple[np.ndarray, np.ndarray]:
    """``rows``, one per series, as one (n, m) array, and which rows are
    constant. A row of another length than the first raises ``AlignmentError``
    naming the pair (a bare array is named by its position)."""
    for k, r in enumerate(rows):
        if len(r) != len(rows[0]):
            raise AlignmentError(
                f"pair ({_name(series, 0)}, {_name(series, k)}): length mismatch: "
                f"{len(rows[0])} vs {len(r)}"
            )
    stack = np.array(rows)
    return stack, (stack == stack[:, :1]).all(axis=1)


def _correlations(series) -> np.ndarray:
    """Pearson correlation of every pair of return series, from one Gram product.

    The returns are stacked once and centred in place; rho[i, j] is
    xd_i . xd_j / sqrt(v_i v_j) with v_i = xd_i . xd_i. Lengths and constant
    series are checked on the stack, before the product, and the errors name
    the pair or the ticker.
    """
    rows = [np.asarray(getattr(s, "returns", s), dtype=float) for s in series]
    xd, constant = _stacked(series, rows)
    if xd.shape[1] < 2:
        raise AlignmentError("correlation needs at least 2 observations")
    if constant.any():
        name = _name(series, constant.argmax())
        raise UndefinedCorrelationError(
            f"{name}: correlation undefined for a constant series"
        )
    xd -= xd.mean(axis=1, keepdims=True)
    v = np.einsum("ij,ij->i", xd, xd)
    return (xd @ xd.T) / np.sqrt(np.outer(v, v))


def _corr_to_distance(rho, variant: str):
    """1 - rho^2, or sqrt(2(1 - rho)) under variant='sqrt'; clipped at 0."""
    if variant not in CORR_VARIANTS:
        raise ValueError(
            f"unknown correlation variant {variant!r}; expected one of {CORR_VARIANTS}"
        )
    if variant == "sqrt":
        return np.sqrt(np.maximum(0.0, 2.0 * (1.0 - rho)))
    return np.maximum(0.0, 1.0 - rho * rho)


def pearson(x, y) -> float:
    """Sample Pearson correlation of two equal-length return series."""
    return float(_correlations((x, y))[0, 1])


def corr_distance(x, y, *, variant: str = "one_minus_r2") -> float:
    """Correlation distance: 1 - rho^2, or sqrt(2(1-rho)) under variant='sqrt'."""
    return float(_corr_to_distance(pearson(x, y), variant))


def _mir_values(series, method, allow_short, min_length):
    """MIR distances of every pair of ``series``, and how many were clamped.

    Checked once per matrix, in order: type, alphabet, lengths, the short
    rule (``lz._check_length``), degenerate pairs. Every rate comes from one
    ``lz.pair_rates`` pass over index pairs (a, b), rows S[a] + alpha * S[b]:
    the self-pairs (k, k) first, which give the marginal rates, then the
    upper triangle. MIR = HR(x) + HR(y) - HR(x,y), clamped at 0 (the count is
    of pairs clamped), gives D = (HR(x,y) - MIR) / HR(x,y) or
    D' = 1 - MIR / max(HR(x), HR(y)), pair by pair in the upper triangle's order.
    """
    if not all(isinstance(s, SymbolSequence) for s in series):
        raise TypeError("MIR distances require discretized SymbolSequence inputs")
    alphas = {s.alphabet_size for s in series}
    if len(alphas) != 1:
        raise AlignmentError(f"mixed alphabet sizes in one matrix: {sorted(alphas)}")
    (alpha,) = alphas
    stack, constant = _stacked(series, [s.symbols for s in series])
    n, m = stack.shape
    lz._check_length(m, min_length, allow_short)
    i, j = np.triu_indices(n, 1)
    degenerate = constant[i] & constant[j]
    if degenerate.any():
        k = degenerate.argmax()
        raise DegeneratePairError(
            f"pair ({series[i[k]].ticker}, {series[j[k]].ticker}): both sequences "
            "constant, MIR distance undefined"
        )
    # the self-pairs come first, not interleaved with the pairs (which measured
    # slower)
    a, b = np.r_[np.arange(n), i], np.r_[np.arange(n), j]
    rates = lz.pair_rates(stack, a, b, alpha, MIR_ESTIMATOR)
    h, hxy = rates[:n], rates[n:]
    raw = h[i] + h[j] - hxy
    mir = np.maximum(raw, 0.0)
    if method == "mir":
        d = (hxy - mir) / hxy
    else:
        d = 1.0 - mir / np.maximum(h[i], h[j])
    return np.clip(d, 0.0, 1.0), int((raw < 0.0).sum())


def mir_distance(
    x,
    y,
    *,
    allow_short: bool = False,
    min_length: int = lz.DEFAULT_MIN_LENGTH,
) -> float:
    """Normalized MIR distance D = (HR(x,y) - MIR) / HR(x,y), in [0, 1].

    MIR is the mutual complexity clamped at zero, so D(x,x) is exactly 0 and
    independent pairs approach 1. The rates come from the paper's estimator
    (``MIR_ESTIMATOR``), whose bias largely cancels in the ratio.
    """
    return float(_mir_values((x, y), "mir", allow_short, min_length)[0][0])


def mir_prime_distance(
    x,
    y,
    *,
    allow_short: bool = False,
    min_length: int = lz.DEFAULT_MIN_LENGTH,
) -> float:
    """Variant distance D' = 1 - MIR / max(HR(x), HR(y)); always <= D.

    Uses the paper's estimator (``MIR_ESTIMATOR``), as ``mir_distance`` does.
    """
    return float(_mir_values((x, y), "mir_prime", allow_short, min_length)[0][0])


def build_matrix(
    series,
    method: str,
    *,
    corr_variant: str = "one_minus_r2",
    allow_short: bool = False,
    min_length: int = lz.DEFAULT_MIN_LENGTH,
) -> DistanceMatrix:
    """Fill the n(n-1)/2 pairwise distances for one method.

    Correlation distances come from one Gram product of the centred returns.
    Both families list their pairs in ``np.triu_indices`` order, and one
    scatter mirrors them, so the matrix is exactly symmetric with a zero
    diagonal. Both check lengths first: a length mismatch raises
    ``AlignmentError`` naming the pair. Then a constant series raises
    ``UndefinedCorrelationError`` naming the ticker, and a pair of constant
    sequences raises ``DegeneratePairError`` naming it. MIR matrices share
    one routine with ``mir_distance`` and ``mir_prime_distance``, use the
    paper's estimator (``MIR_ESTIMATOR``), whose spread at a few thousand
    returns is smaller than the slope's, and count the pairs clamped.
    """
    series = list(series)
    if len(series) < 3:
        raise AlignmentError(f"need at least 3 instruments, got {len(series)}")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    i, j = np.triu_indices(len(series), 1)
    if method == "correlation":
        d = _corr_to_distance(_correlations(series)[i, j], corr_variant)
        params, clamped = {"variant": corr_variant}, 0
    else:
        d, clamped = _mir_values(series, method, allow_short, min_length)
        params = {"alphabet_size": series[0].alphabet_size}
    values = np.zeros((len(series), len(series)))
    values[i, j] = values[j, i] = d
    return DistanceMatrix(
        tickers=tuple(s.ticker for s in series),
        method=method,
        values=values,
        params=params,
        clamped_pairs=clamped,
    )
