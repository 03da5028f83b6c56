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
from .ingest import ReturnSeries, SymbolSequence

METHODS = ("correlation", "mir", "mir_prime")
CORR_VARIANTS = ("one_minus_r2", "sqrt")

# MIR distances use the source paper's ratio estimator, not the library
# default: its O(1/log n) bias largely cancels in the normalised distances,
# and its spread at a few thousand returns is several times smaller.
MIR_ESTIMATOR = "paper"

# joint-sequence symbols per match-length call of a MIR matrix: enough rows to
# spread numpy's per-call overhead; the kernel holds about 200 bytes a symbol,
# and batches past 2**15 symbols ran slower at 2.5k-symbol rows, not faster
JOINT_SYMBOL_BUDGET = 1 << 14


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
    total_pairs: int = 0

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
        starts with its ticker. A row out of place, a ragged row or a cell
        that is not a number raises ``FormatError`` naming it; the values are
        then checked as on construction.
        """
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise FormatError("empty distance matrix")
        tickers = tuple(lines[0].split(delimiter)[1:])
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
    def clamp_fraction(self) -> float:
        return self.clamped_pairs / self.total_pairs if self.total_pairs else 0.0

    def to_delimited(self, delimiter: str = ",") -> str:
        """Matrix as delimited text with tickers on both axes."""
        lines = [delimiter.join(["", *self.tickers])]
        for t, row in zip(self.tickers, self.values):
            lines.append(delimiter.join([t, *(f"{v:.10g}" for v in row)]))
        return "\n".join(lines) + "\n"

    def report(self) -> dict:
        """Structured description of the matrix and how it was built."""
        return {
            "method": self.method,
            "params": self.params,
            "tickers": list(self.tickers),
            "n": self.n,
            "independent_pairs": self.n * (self.n - 1) // 2,
            "clamped_pairs": self.clamped_pairs,
            "clamp_fraction": self.clamp_fraction,
        }


def _returns(x) -> np.ndarray:
    return np.asarray(x.returns if isinstance(x, ReturnSeries) else x, dtype=float)


def _correlations(series) -> np.ndarray:
    """Pearson correlation of every pair of return series, from one Gram product.

    The returns are stacked once and centred in place; rho[i, j] is
    xd_i . xd_j / sqrt(v_i v_j) with v_i = xd_i . xd_i. Lengths and constant
    series are checked once per series, before the product, and the errors
    name the ticker or the pair (a bare array is named by its position).
    """
    names = [getattr(s, "ticker", f"series {k}") for k, s in enumerate(series)]
    rows = [_returns(s) for s in series]
    for name, r in zip(names, rows):
        if r.size != rows[0].size:
            raise AlignmentError(
                f"pair ({names[0]}, {name}): length mismatch: "
                f"{rows[0].size} vs {r.size}"
            )
    if rows[0].size < 2:
        raise AlignmentError("correlation needs at least 2 observations")
    for name, r in zip(names, rows):
        if (r == r[0]).all():
            raise UndefinedCorrelationError(
                f"{name}: correlation undefined for a constant series"
            )
    xd = np.array(rows)
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


def _mir_values(series, method, allow_short, min_length, zero_for_degenerate):
    """MIR distances of every pair of ``series``, and how many were clamped.

    Per series, once: the type, alphabet and length checks, its marginal
    rate, and whether it is constant. Per pair, as arrays: the degenerate mask,
    the joint rates (``JOINT_SYMBOL_BUDGET`` symbols per ``lz.match_lengths``
    call), MIR = HR(x) + HR(y) - HR(x,y) clamped at zero, and D = (HR(x,y) -
    MIR) / HR(x,y) or D' = 1 - MIR / max(HR(x), HR(y)) clipped to [0, 1]. The
    count is of pairs whose MIR was negative before the clamp.
    """
    if not all(isinstance(s, SymbolSequence) for s in series):
        raise TypeError("MIR distances require discretized SymbolSequence inputs")
    alphas = {s.alphabet_size for s in series}
    if len(alphas) != 1:
        raise AlignmentError(f"mixed alphabet sizes in one matrix: {sorted(alphas)}")
    first = series[0]
    for s in series:
        if len(s) != len(first):
            raise AlignmentError(
                f"pair ({first.ticker}, {s.ticker}): length mismatch: "
                f"{len(first)} vs {len(s)}"
            )
    opts = dict(min_length=min_length, allow_short=allow_short, estimator=MIR_ESTIMATOR)
    h = np.array([lz.entropy_rate(s, **opts).value for s in series])
    n = len(series)
    constant = np.array([(s.symbols == s.symbols[:1]).all() for s in series])
    i, j = np.triu_indices(n, 1)
    degenerate = constant[i] & constant[j]
    if degenerate.any() and not zero_for_degenerate:
        k = degenerate.argmax()
        raise DegeneratePairError(
            f"pair ({series[i[k]].ticker}, {series[j[k]].ticker}): both sequences "
            "constant, MIR distance undefined"
        )
    i, j = i[~degenerate], j[~degenerate]
    hxy = np.empty(i.size)
    rows_per_call = max(1, JOINT_SYMBOL_BUDGET // len(first))
    # chunk by chunk: one joint batch alive at a time, not all n(n-1)/2 rows
    for start in range(0, i.size, rows_per_call):
        chunk = slice(start, start + rows_per_call)
        joint = np.array([lz.join(series[a], series[b]).symbols
                          for a, b in zip(i[chunk], j[chunk])])
        hxy[chunk] = lz.ratio_rate(lz.match_lengths(joint))
    raw = h[i] + h[j] - hxy
    mir = np.maximum(raw, 0.0)
    if method == "mir":
        d = (hxy - mir) / hxy
    else:
        d = 1.0 - mir / np.maximum(h[i], h[j])
    values = np.zeros((n, n))
    values[i, j] = values[j, i] = np.clip(d, 0.0, 1.0)
    return values, int((raw < 0.0).sum())


def mir_distance(
    x,
    y,
    *,
    allow_short: bool = False,
    min_length: int = lz.DEFAULT_MIN_LENGTH,
    zero_for_degenerate: bool = False,
) -> float:
    """Normalized MIR distance D = (HR(x,y) - MIR) / HR(x,y), in [0, 1].

    MIR is the mutual complexity clamped at zero, so D(x,x) is exactly 0 and
    independent pairs approach 1. The rates come from the paper's estimator
    (``MIR_ESTIMATOR``), whose bias largely cancels in the ratio.
    """
    values, _ = _mir_values((x, y), "mir", allow_short, min_length, zero_for_degenerate)
    return float(values[0, 1])


def mir_prime_distance(
    x,
    y,
    *,
    allow_short: bool = False,
    min_length: int = lz.DEFAULT_MIN_LENGTH,
    zero_for_degenerate: bool = False,
) -> float:
    """Variant distance D' = 1 - MIR / max(HR(x), HR(y)); always <= D.

    Uses the paper's estimator (``MIR_ESTIMATOR``), as ``mir_distance`` does.
    """
    values, _ = _mir_values(
        (x, y), "mir_prime", allow_short, min_length, zero_for_degenerate
    )
    return float(values[0, 1])


def build_matrix(
    series,
    method: str,
    *,
    corr_variant: str = "one_minus_r2",
    allow_short: bool = False,
    min_length: int = lz.DEFAULT_MIN_LENGTH,
    zero_for_degenerate: bool = False,
) -> DistanceMatrix:
    """Fill the n(n-1)/2 pairwise distances for one method.

    Correlation distances come from one Gram product of the centred returns;
    the upper triangle is mirrored, so the matrix is exactly symmetric with a
    zero diagonal. A constant series raises ``UndefinedCorrelationError``
    naming the ticker, and a length mismatch ``AlignmentError`` naming the
    pair. MIR matrices share one routine with ``mir_distance`` and
    ``mir_prime_distance``; the matrix records how many pairs needed the
    negative-mutual-complexity clamp. Lengths are checked before degeneracy:
    a pair of unequal lengths raises ``AlignmentError`` naming it, even under
    ``zero_for_degenerate``; then a pair of constant sequences raises
    ``DegeneratePairError`` naming it, or is set to 0 under
    ``zero_for_degenerate``. MIR rates use the paper's estimator
    (``MIR_ESTIMATOR``): the distances are the paper's normalised metrics,
    and the slope estimator's larger spread at a few thousand returns would
    reach them undamped.
    """
    series = list(series)
    n = len(series)
    if n < 3:
        raise AlignmentError(f"need at least 3 instruments, got {n}")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "correlation":
        d = _corr_to_distance(_correlations(series), corr_variant)
        values = np.triu(d, 1)
        values += values.T
        params, clamped = {"variant": corr_variant}, 0
    else:
        values, clamped = _mir_values(
            series, method, allow_short, min_length, zero_for_degenerate
        )
        params = {"alphabet_size": series[0].alphabet_size}
    return DistanceMatrix(
        tickers=tuple(s.ticker for s in series),
        method=method,
        values=values,
        params=params,
        clamped_pairs=clamped,
        total_pairs=n * (n - 1) // 2,
    )
