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
equal-length rows, and every step is a numpy pass over a batch:

1. Packed labels: each position's label holds the p symbols from it on,
   symbol + 1 per field of fixed width, the first highest and 0 past the
   end of the row, as many as fit in 63 bits (p = 12 for the pairs of a
   4-symbol alphabet, 9 for a 10-symbol one). Labels order as those
   substrings do, and two labels share p - ceil(bitlen(a ^ b) / width)
   leading symbols, one ``searchsorted`` of their XOR.
2. Sort by value and the XOR of neighbours: where sorted neighbours differ,
   that count is the longest common prefix (LCP) of their suffixes, which
   are neighbours in the suffix array too.
3. Refinement of tied rows only: where two neighbours share all p symbols,
   prefix doubling (Manber & Myers, SIAM J. Comput. 1993) ranks the
   substrings of p, 2p, 4p, ... symbols, in int32 while n * (n + 2) < 2**31,
   until the ranks are all distinct. The tied pairs alone are lifted over
   those ranks and finished with one XOR of labels.

The ratio needs only sum(Lambda_t) = n + sum(LCP): both equal n(n+1)/2 less
the number of distinct substrings, as of the prefixes of the suffix at t,
those no longer than Lambda_t - 1 occur earlier in the sequence and those no
longer than its LCP occur earlier in suffix-array order. It takes steps 1
and 2 with a value sort and sends the few rows with a tie to
``_suffix_lcp``, which takes all three with an ``argsort`` and returns the
suffix array too. ``match_lengths`` goes on from there to each Lambda_t by
the longest previous factor (Crochemore & Ilie, IPL 2008): the suffix at t
matches an earlier one longest at the nearest earlier-starting suffix on
one side of it in the suffix array, for the least LCP between them. One
stack walk over the batch in suffix-array order finds both sides of every
suffix; it is pure Python, and takes most of a slope estimate's time.
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
# per-call overhead. At 2.5k-symbol rows the ratio path peaks at about 48
# bytes a symbol, 180 in a chunk of tied rows (tracemalloc). In 4 alternating
# rounds on one core, a 24-series alpha = 4 matrix took 21-31 ms at this
# value, 23-32 ms at 2**13 and 28-38 ms at 2**15, and a 91-series alpha = 10
# one 213-330 ms, 252-368 ms and 211-312 ms: no other value wins at both
JOINT_SYMBOL_BUDGET = 1 << 14

# rank levels and sort keys of rows of n symbols are int32 when every key,
# below n * (n + 2), stays under this bound, and int64 otherwise
_INT32_KEYS_BELOW = 1 << 31

# a label packs as many whole symbol fields as fit in this many bits, and at
# least one, so the sign bit of an int64 stays clear
_LABEL_BITS = 63


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


def _packed(rows: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Each position's label, row-wise, with the field width and the number p
    of symbols a label holds.

    A label packs the p symbols from its position on, each symbol + 1 in a
    field of ``width`` bits, the first in the highest field and 0 past the end
    of the row, so labels order as those substrings do, a cut one first.
    Symbols outside [0, n) are first replaced by their rank among the batch's
    symbols, so any int64 symbols are fine.
    """
    b, n = rows.shape
    if rows.min() < 0 or rows.max() >= n:
        rows = np.unique(rows, return_inverse=True)[1].reshape(b, n)
    width = int(rows.max() + 1).bit_length()
    p = max(1, _LABEL_BITS // width)
    one = rows + 1
    label, span = one, 1
    # p's bits after the top one: each doubles the fields, and a 1 adds one
    for bit in bin(p)[3:]:
        for tail, size in [(label, span)] + [(one, 1)] * int(bit):
            label = label << (width * size)
            label[:, :-span] |= tail[:, span:]
            span += size
    return label, width, p


def _shared(x: np.ndarray, width: int, p: int) -> np.ndarray:
    """Leading symbols two labels share, from their XOR ``x``: p less the
    fields from the highest one that differs down."""
    return p - np.searchsorted(1 << (width * np.arange(p)), x, "right")


def _rank_levels(
    label: np.ndarray, sa: np.ndarray, p: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Dense ranks of the substrings of p * 2**k symbols from each position,
    one (b, n + 1) level per k with a -1 after each row that matches nothing,
    and each row's suffix array.

    ``sa`` is the sort of ``label``. Doubling stops at the first level whose
    ranks are all distinct, so every LCP is shorter than its length; its sort
    is the suffix array, and the levels before it are returned.
    """
    b, n = label.shape
    # keys below n * (n + 2): rank * (n + 1) plus the next rank + 1
    dtype = np.int32 if n * (n + 2) < _INT32_KEYS_BELOW else np.int64
    row_start = (n + 1) * np.arange(b)[:, None]
    levels = []
    key = label
    while True:
        ordered = np.take_along_axis(key, sa, axis=1)
        dense = np.zeros((b, n), dtype=dtype)
        np.cumsum(ordered[:, 1:] != ordered[:, :-1], axis=1, out=dense[:, 1:])
        if (dense[:, -1] == n - 1).all():
            return levels, sa
        rank = np.full((b, n + 1), -1, dtype=dtype)
        rank.ravel()[(sa + row_start).ravel()] = dense.ravel()
        levels.append(rank)
        # (rank, rank h further on) as one key; past the end sorts first
        h = p << (len(levels) - 1)
        key = rank[:, :n] * (n + 1)
        key[:, :-h] += rank[:, h:n] + 1
        sa = np.argsort(key, axis=1)


def _suffix_lcp(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's suffix array, and the longest common prefix of each suffix
    with the one before it in that order (0 for the first), both row-wise."""
    b, n = rows.shape
    label, width, p = _packed(rows)
    sa = np.argsort(label, axis=1)
    ordered = np.take_along_axis(label, sa, axis=1)
    lcp = np.zeros((b, n), dtype=np.int64)
    lcp[:, 1:] = _shared(ordered[:, 1:] ^ ordered[:, :-1], width, p)
    tied = lcp == p
    if tied.any():
        # refining the order permutes suffixes only among equal labels, so
        # the tied pairs stay where they are; lift each over the rank levels,
        # then take the rest from the labels there (0 past the end)
        levels, sa = _rank_levels(label, sa, p)
        r, t = np.nonzero(tied)
        i = (n + 1) * r + sa[r, t]
        j = (n + 1) * r + sa[r, t - 1]
        found = np.zeros_like(i)
        for k in reversed(range(len(levels))):
            rank = levels[k].ravel()
            found += (rank[i + found] == rank[j + found]) * (p << k)
        label = np.pad(label, ((0, 0), (0, 1))).ravel()
        lcp[r, t] = found + _shared(label[i + found] ^ label[j + found], width, p)
    return sa, lcp


def _lcp_sums(rows: np.ndarray) -> np.ndarray:
    """Each row's sum of suffix-array neighbour LCPs, from its labels sorted
    by value; only rows where two neighbours share p symbols go through
    ``_suffix_lcp``."""
    label, width, p = _packed(rows)
    ordered = np.sort(label, axis=1)
    lcp = _shared(ordered[:, 1:] ^ ordered[:, :-1], width, p)
    sums = lcp.sum(axis=1)
    tied = (lcp == p).any(axis=1)
    if tied.any():
        sums[tied] = _suffix_lcp(rows[tied])[1].sum(axis=1)
    return sums


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
            rates[chunk] = _ratio_rate(m, m + _lcp_sums(rows))
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
