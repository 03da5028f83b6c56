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

# joint-sequence symbols per match-length call in build_matrix: enough rows to
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


def _symbols(x) -> SymbolSequence:
    if not isinstance(x, SymbolSequence):
        raise TypeError("MIR distances require discretized SymbolSequence inputs")
    return x


def _check_aligned(x: SymbolSequence, y: SymbolSequence) -> None:
    if len(x) != len(y):
        raise AlignmentError(
            f"pair ({x.ticker}, {y.ticker}): length mismatch: {len(x)} vs {len(y)}"
        )


def _check_degenerate(x, y, zero_for_degenerate):
    both_constant = all((s.symbols == s.symbols[:1]).all() for s in (x, y))
    if both_constant:
        if zero_for_degenerate:
            return True
        raise DegeneratePairError(
            f"pair ({x.ticker}, {y.ticker}): both sequences constant, "
            "MIR distance undefined"
        )
    return False


def _distance_from_rates(method: str, hx: float, hy: float, hxy: float):
    """One pair's MIR distance from its rate triple, and whether MIR was clamped.

    MIR = HR(x) + HR(y) - HR(x,y) is clamped at zero, then "mir" gives
    D = (HR(x,y) - MIR) / HR(x,y) and "mir_prime" D' = 1 - MIR / max(HR(x),
    HR(y)), clipped to [0, 1].
    """
    raw_mir = hx + hy - hxy
    mir = max(0.0, raw_mir)
    if method == "mir":
        d = (hxy - mir) / hxy
    else:
        d = 1.0 - mir / max(hx, hy)
    return min(1.0, max(0.0, d)), raw_mir < 0.0


def _pair_distance(
    method: str, x, y, allow_short: bool, min_length: int, zero_for_degenerate: bool
) -> float:
    x, y = _symbols(x), _symbols(y)
    if _check_degenerate(x, y, zero_for_degenerate):
        return 0.0
    _check_aligned(x, y)
    opts = dict(
        min_length=min_length, allow_short=allow_short, estimator=MIR_ESTIMATOR
    )
    hx = lz.entropy_rate(x, **opts).value
    hy = lz.entropy_rate(y, **opts).value
    hxy = lz.joint_entropy_rate(x, y, **opts).value
    return _distance_from_rates(method, hx, hy, hxy)[0]


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
    return _pair_distance("mir", x, y, allow_short, min_length, zero_for_degenerate)


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
    return _pair_distance(
        "mir_prime", x, y, allow_short, min_length, zero_for_degenerate
    )


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
    pair. For MIR methods the per-instrument entropy rates are computed once and
    reused across pairs, and the matrix records how many pairs needed the
    negative-mutual-complexity clamp. The joint sequences go to
    ``lz.match_lengths`` as batches of rows, ``JOINT_SYMBOL_BUDGET`` symbols
    at a time; each value equals the per-pair functions' bit for bit. A pair
    of constant sequences raises ``DegeneratePairError`` (or is set to 0 under
    ``zero_for_degenerate``) and a pair of unequal lengths raises
    ``AlignmentError``, each naming the pair. MIR rates use the paper's estimator
    (``MIR_ESTIMATOR``), as the per-pair distance functions do: the distances
    are the paper's normalised metrics, and the slope estimator's larger
    spread at a few thousand returns would reach them undamped.
    """
    series = list(series)
    n = len(series)
    if n < 3:
        raise AlignmentError(f"need at least 3 instruments, got {n}")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    tickers = tuple(s.ticker for s in series)
    clamped = 0
    params: dict = {}

    if method == "correlation":
        params["variant"] = corr_variant
        d = _corr_to_distance(_correlations(series), corr_variant)
        values = np.triu(d, 1)
        values += values.T
    else:
        alphas = {s.alphabet_size for s in series}
        if len(alphas) != 1:
            raise AlignmentError(f"mixed alphabet sizes in one matrix: {sorted(alphas)}")
        params["alphabet_size"] = alphas.pop()
        values = np.zeros((n, n), dtype=float)
        opts = dict(
            min_length=min_length, allow_short=allow_short, estimator=MIR_ESTIMATOR
        )
        marginal = [lz.entropy_rate(s, **opts).value for s in series]
        pairs = []
        for i in range(n):
            for j in range(i + 1, n):
                if not _check_degenerate(series[i], series[j], zero_for_degenerate):
                    _check_aligned(series[i], series[j])
                    pairs.append((i, j))
        rows_per_call = max(1, JOINT_SYMBOL_BUDGET // len(series[0]))
        for start in range(0, len(pairs), rows_per_call):
            chunk = pairs[start : start + rows_per_call]
            joint = np.array([lz.join(series[i], series[j]).symbols for i, j in chunk])
            hxy = lz.ratio_rate(lz.match_lengths(joint)).tolist()
            for (i, j), h in zip(chunk, hxy):
                d, was_clamped = _distance_from_rates(method, marginal[i], marginal[j], h)
                clamped += was_clamped
                values[i, j] = values[j, i] = d

    return DistanceMatrix(
        tickers=tickers,
        method=method,
        values=values,
        params=params,
        clamped_pairs=clamped,
        total_pairs=n * (n - 1) // 2,
    )
