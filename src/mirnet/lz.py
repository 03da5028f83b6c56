"""Entropy-rate and mutual-information-rate estimation from match lengths.

Everything here starts from the match lengths Lambda_t: at position t (counted
from 0), Lambda_t is one plus the length of the longest substring starting at
t that also occurs starting at some earlier position (the occurrence may run
past t, but the substring must stay inside the sequence). For a stationary
ergodic source of entropy rate h they grow like

    Lambda_t ~ log2(t) / h + c,

where the offset c depends on the source and grows with its alphabet. Two
estimators turn match lengths into a rate:

- ``"slope"`` (the default) fits Lambda_t against log2(t) by least squares
  and returns 1 / slope. The offset c drops out of a slope, so the estimate
  is consistent for any stationary ergodic source. A match that runs to the
  end of the sequence (Lambda_t = n - t + 1) is censored: it says only that
  the rest of the sequence repeats earlier content. Censored positions are
  left out of the fit, and once one position is censored every later one is.
  If every position after the first is censored (a constant sequence) the
  rate is 0. If the fit has fewer than two positions or a slope that is not
  positive (very short sequences, or ones with almost no repeats) the growth
  cannot be measured and the ratio below is returned instead, so the estimate
  is always finite and non-negative.
- ``"paper"`` is the ratio n*log2(n) / sum(Lambda_t) of Kontoyiannis et al.
  (IEEE Trans. IT 1998), the estimator of the source paper. With the growth
  law above and L = log2(n) it returns about h*L / (L - 1/ln 2 + c*h), a
  bias of order 1/log n. For uniform sources c*h is about h/2 + 0.83, which
  gives 1.95 bits instead of 2 and 3.69 instead of 4 at n = 1e5. It has a
  much smaller variance than the slope at a few thousand symbols.

Every rate comes from ``pair_rates``: the rate of the pairing x + ax * y of
two rows, or of a self-pair x + ax * x, which recodes x and so rates x
itself. ``mutual_lz`` takes HR(x), HR(y) and HR(x,y) from one call, and
``distance.build_matrix`` every rate of a matrix. The ratio never rates a
pairing below either component, because the joint match lengths are
pointwise at most the component ones; the slope has no such guarantee.

``pair_rates`` hands the kernel its rows in chunks, as 2-D batches of
equal-length rows. ``_suffix_lcp`` takes two numpy steps per batch:

1. Labels and suffix array, by prefix doubling (Manber & Myers, SIAM J.
   Comput. 1993). The first levels pack the 2**k symbols after each position
   into one int64 label by shifts and ORs, with no sort, while the label
   fits in 63 bits. The last packed level is sorted once into dense ranks,
   and each further level sorts the key (rank, rank 2**k further on)
   row-wise, in int32 while n * (n + 2) < 2**31. Every level is kept.
2. The longest common prefix (LCP) of each suffix with the one before it in
   the suffix array, by binary lifting over the kept levels: equal labels or
   ranks at level k mean equal substrings of length 2**k.

Each takes about log2 of the longest repeat in the batch passes over it. The
ratio needs only sum(Lambda_t) = n + sum(LCP): both equal n(n+1)/2 less the
number of distinct substrings, as of the prefixes of the suffix at t, those
no longer than Lambda_t - 1 occur earlier in the sequence and those no longer
than its LCP occur earlier in suffix-array order. ``match_lengths`` goes on
to each Lambda_t by the longest previous factor (Crochemore & Ilie, IPL
2008): the suffix at t matches an earlier one longest at the nearest
earlier-starting suffix on one side of it in the suffix array, for the least
LCP between them. One stack walk over the batch in suffix-array order finds
both sides of every suffix; it is pure Python, and takes half to two
thirds of a slope estimate's time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, InsufficientDataError, ValidationError

DEFAULT_MIN_LENGTH = 500

ESTIMATORS = ("slope", "paper")
DEFAULT_ESTIMATOR = "slope"

# finite-sample overshoot above log2(alphabet) tolerated before flagging
OVERSHOOT_FRACTION = 0.10

# symbols per kernel call of ``pair_rates``: enough rows to spread numpy's
# per-call overhead. At 2.5k-symbol rows the ratio path peaks at about 112
# bytes a symbol (tracemalloc); a 40-series matrix took 0.29 s at this value,
# 0.21 s at 2**13 and 0.35 s at 2**15 (one core, the same kernel)
JOINT_SYMBOL_BUDGET = 1 << 14

# rank levels and sort keys of rows of n symbols are int32 when every key,
# below n * (n + 2), stays under this bound, and int64 otherwise
_INT32_KEYS_BELOW = 1 << 31


@dataclass(frozen=True)
class LzEstimate:
    """Entropy-rate estimate in bits per symbol."""

    value: float
    n: int
    alphabet_size: int

    @property
    def overshoot_flagged(self) -> bool:
        """True when the estimate exceeds log2(alphabet) by more than 10%."""
        cap = np.log2(self.alphabet_size) if self.alphabet_size > 1 else 0.0
        return self.value > cap * (1.0 + OVERSHOOT_FRACTION) + 1e-12


def _padded(rows: np.ndarray) -> np.ndarray:
    """Rows laid end to end with one -1 before the first and after each."""
    b, n = rows.shape
    flat = np.full(1 + b * (n + 1), -1, dtype=rows.dtype)
    flat[1:].reshape(b, n + 1)[:, :n] = rows
    return flat


def _rank_levels(rows: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Labels of every suffix's prefixes, one array per level, row-wise, and
    each row's suffix array.

    Level k labels the substrings of length 2**k starting at each position
    (cut at the end of the row): two positions share a label exactly when
    those substrings are equal, and labels order as the substrings do, a cut
    substring first. Packed levels hold each symbol + 1 in a field of fixed
    width, 0 past the end; symbols outside [0, n) are first replaced by
    their rank among the batch's symbols, so any int64 symbols are fine.
    The last packed level is sorted into dense ranks, and doubling goes on
    until a level's ranks are all distinct; every longest common prefix is
    then shorter than 2**k, and the sort of that last level is the suffix
    array (the positions in rank order), in the ranks' dtype.
    """
    b, n = rows.shape
    if rows.min() < 0 or rows.max() >= n:
        rows = np.unique(rows, return_inverse=True)[1].reshape(b, n)
    width = int(rows.max() + 1).bit_length()
    levels = [rows + 1]
    # level k packs 2**k fields of ``width`` bits; the sign bit stays clear
    while width << len(levels) <= 63:
        h = 1 << (len(levels) - 1)
        label = levels[-1] << (width * h)
        label[:, :-h] |= levels[-1][:, h:]
        levels.append(label)
    # keys below n * (n + 2): rank * (n + 1) plus the next rank + 1
    dtype = np.int32 if n * (n + 2) < _INT32_KEYS_BELOW else np.int64
    row_start = n * np.arange(b)[:, None]
    key = levels.pop()
    while True:
        sa = np.argsort(key, axis=1)
        order = (sa + row_start).ravel()
        sorted_key = key.ravel()[order].reshape(b, n)
        dense = np.zeros((b, n), dtype=dtype)
        np.cumsum(sorted_key[:, 1:] != sorted_key[:, :-1], axis=1, out=dense[:, 1:])
        rank = np.empty((b, n), dtype=dtype)
        rank.ravel()[order] = dense.ravel()
        levels.append(rank)
        if (dense[:, -1] == n - 1).all():
            return levels, sa.astype(dtype, copy=False)
        # (rank, rank 2**k further on) as one key; past the end sorts first
        h = 1 << (len(levels) - 1)
        key = rank * (n + 1)
        key[:, :-h] += rank[:, h:] + 1


def _common_prefix(levels: list[np.ndarray], i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Longest common prefix of suffixes i and j, by binary lifting over ranks.

    ``levels`` are rank levels 0 .. k-1 in ``_padded`` layout, for a
    common prefix shorter than 2**k, and i, j flat indices into them; position
    -1 of a row is a pad that matches nothing.
    """
    lcp = np.zeros_like(i)
    for k in reversed(range(len(levels))):
        lcp += (levels[k][i + lcp] == levels[k][j + lcp]) * (1 << k)
    return lcp


def _suffix_lcp(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's suffix array, and the longest common prefix of each suffix
    with the one before it in that order (0 for the first), both row-wise."""
    b, n = rows.shape
    levels, sa = _rank_levels(rows)
    start = 1 + (n + 1) * np.arange(b)[:, None]
    here = start + sa
    # the pad before each row matches nothing, so the first suffix gets 0
    before = np.hstack([start - 1, here[:, :-1]])
    padded = [_padded(rank) for rank in levels[:-1]]
    return sa, _common_prefix(padded, here.ravel(), before.ravel()).reshape(b, n)


def match_lengths(seq) -> np.ndarray:
    """Per-position match lengths Lambda_i of an integer sequence.

    Lambda at the first position is 1 by convention. For later positions it
    is 1 + the longest common prefix between the suffix starting there and
    any suffix starting earlier, so a match may extend past its own start
    but never past the end of the sequence.

    ``seq`` is one sequence or a 2-D array of equal-length sequences, one per
    row; the result has the same shape. Rows are independent: a batch shares
    the numpy steps of ``_suffix_lcp`` and one stack walk.
    """
    seq = np.asarray(seq, dtype=np.int64)
    if seq.ndim not in (1, 2):
        raise ValueError(f"match lengths need a 1-D or 2-D array, got {seq.ndim}-D")
    n = seq.shape[-1]
    if n < 2:
        raise InsufficientDataError(
            f"match lengths need at least 2 symbols, got {n}"
        )
    rows = seq.reshape(-1, n)
    sa, lcp = _suffix_lcp(rows)
    # the walk of the module docstring, over positions offset by their row's
    # start. The stack holds positions rising from the bottom, each with its
    # LCP with the one below, its nearest earlier-starting suffix on the
    # left. The suffix that pops it is its nearest on the right, and ``low``
    # is their LCP. The -1 at the bottom never pops, and the entry above it
    # holds 0; the -1 after the last suffix pops the rest
    lpf = [0] * seq.size
    stack, links = [-1], [0]
    positions = (sa + n * np.arange(rows.shape[0])[:, None]).ravel().tolist()
    for p, low in zip([*positions, -1], [*lcp.ravel().tolist(), 0]):
        while stack[-1] > p:
            q = stack.pop()
            link = links.pop()
            if link < low:
                lpf[q] = low
                low = link
            else:
                lpf[q] = link
        stack.append(p)
        links.append(low)
    return 1 + np.array(lpf, dtype=np.int64).reshape(seq.shape)


def _check_length(n: int, min_length: int, allow_short: bool) -> None:
    # every public entry point calls this at the same depth, so stacklevel 4
    # names the line that called the entry point
    if n < min_length:
        if not allow_short:
            raise InsufficientDataError(
                f"sequence length {n} is below the minimum {min_length}; "
                "pass allow_short=True to estimate anyway"
            )
        warnings.warn(
            f"entropy-rate estimate on only {n} symbols (minimum {min_length}); "
            "expect substantial finite-sample bias",
            stacklevel=4,
        )


def _ratio_rate(n: int, total):
    """The paper's estimator n*log2(n) / sum(Lambda_t), given that sum."""
    return n * np.log2(n) / total


def _slope_rate(lam: np.ndarray) -> float:
    """1 / slope of the least-squares fit of uncensored Lambda_t on log2(t)."""
    n = lam.size
    t = np.arange(1, n)
    uncensored = lam[1:] < n - t + 1
    if not uncensored.any():
        return 0.0
    x = np.log2(t[uncensored])
    y = lam[1:][uncensored]
    if x.size >= 2:
        # elementwise sums, not BLAS dot products, so the bits do not depend
        # on the BLAS thread count
        xc = x - x.mean()
        slope = float((xc * (y - y.mean())).sum()) / float((xc * xc).sum())
        if slope > 0.0:
            return 1.0 / slope
    return float(_ratio_rate(n, lam.sum()))


def pair_rates(stack: np.ndarray, a, b, alpha: int, estimator: str) -> np.ndarray:
    """Rate of each row ``stack[a] + alpha * stack[b]``, in bits per symbol.

    ``stack`` holds equal-length rows of symbols in [0, alpha). A self-pair
    (k, k) recodes row k injectively and in order, so it rates row k itself.
    The rows are built and measured in chunks of ``JOINT_SYMBOL_BUDGET``
    symbols (at least one row), so one chunk is alive at a time.
    """
    m = stack.shape[1]
    rates = np.empty(len(a))
    rows_per_call = max(1, JOINT_SYMBOL_BUDGET // m)
    for start in range(0, len(a), rows_per_call):
        chunk = slice(start, start + rows_per_call)
        rows = stack[a[chunk]] + alpha * stack[b[chunk]]
        if estimator == "paper":
            # sum(Lambda_t) = m + sum(LCP); see the module docstring
            rates[chunk] = _ratio_rate(m, m + _suffix_lcp(rows)[1].sum(axis=1))
        else:
            rates[chunk] = [_slope_rate(lam) for lam in match_lengths(rows)]
    return rates


def _estimate(seqs, a, b, min_length, allow_short, estimator, alphabet_size=None):
    """``pair_rates`` of the pairs (a, b) of ``seqs``, after every check, with
    the length and each sequence's alphabet: ``alphabet_size`` if given, else
    its own ``alphabet_size``, else its largest symbol + 1. A symbol outside
    the alphabet would collide in the pairing and raises ``ValidationError``."""
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}")
    rows = [np.asarray(getattr(s, "symbols", s), dtype=np.int64) for s in seqs]
    n = rows[0].size
    if rows[-1].size != n:
        raise AlignmentError(f"cannot pair sequences of lengths {n} and {rows[-1].size}")
    if n < 2:
        raise InsufficientDataError("entropy rate needs at least 2 symbols")
    alphabets = []
    for seq, row in zip(seqs, rows):
        own = getattr(seq, "alphabet_size", row.max() + 1)
        alphabet = own if alphabet_size is None else alphabet_size
        outside = np.flatnonzero((row < 0) | (row >= alphabet))
        if outside.size:
            t = outside[0]
            raise ValidationError(
                f"symbol {row[t]} at position {t} is outside [0, {alphabet})"
            )
        alphabets.append(int(alphabet))
    _check_length(n, min_length, allow_short)
    return pair_rates(np.array(rows), a, b, alphabets[0], estimator), n, alphabets


def entropy_rate(
    seq,
    alphabet_size: int | None = None,
    *,
    min_length: int = DEFAULT_MIN_LENGTH,
    allow_short: bool = False,
    estimator: str = DEFAULT_ESTIMATOR,
) -> LzEstimate:
    """Match-length entropy-rate estimate, in bits per symbol.

    ``estimator`` is ``"slope"`` (default) or ``"paper"``; see the module
    docstring. The slope is consistent for any stationary ergodic source, as
    the additive offset of the match lengths cannot shift it, but at a few
    thousand symbols its spread is several times that of the paper's ratio.
    The ratio n*log2(n) / sum(Lambda_t) is biased low by O(1/log n), and the
    bias grows with the alphabet. Raises ``ValueError`` for any other name.
    """
    args = min_length, allow_short, estimator, alphabet_size
    (h,), n, (alphabet,) = _estimate([seq], [0], [0], *args)
    return LzEstimate(value=float(h), n=n, alphabet_size=alphabet)


def joint_entropy_rate(
    x,
    y,
    *,
    min_length: int = DEFAULT_MIN_LENGTH,
    allow_short: bool = False,
    estimator: str = DEFAULT_ESTIMATOR,
) -> LzEstimate:
    """Entropy rate of the product-alphabet pairing x + ax * y of x and y."""
    args = min_length, allow_short, estimator
    (hxy,), n, (ax, ay) = _estimate([x, y], [0], [1], *args)
    return LzEstimate(value=float(hxy), n=n, alphabet_size=ax * ay)


def mutual_lz(
    x,
    y,
    *,
    min_length: int = DEFAULT_MIN_LENGTH,
    allow_short: bool = False,
    estimator: str = DEFAULT_ESTIMATOR,
) -> float:
    """Mutual complexity HR(x) + HR(y) - HR(x,y), unclamped.

    May be transiently negative at finite n; callers that need a
    non-negative rate clamp downstream. ``estimator`` is used for all three
    rates, which come from one ``pair_rates`` pass: (0, 0), (1, 1), (0, 1).
    """
    args = min_length, allow_short, estimator
    (hx, hy, hxy), _, _ = _estimate([x, y], [0, 1, 0], [0, 1, 1], *args)
    return float(hx + hy - hxy)
