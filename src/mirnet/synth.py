"""Synthetic price tables with controlled dependence structure.

Three generation modes:

* ``iid``       - independent instruments (all distances should be large).
* ``factor``    - returns share a common linear factor, so both the
                  correlation distance and the MIR distance shrink.
* ``nonlinear`` - instrument pairs (x, y) with y driven by x**2 plus noise:
                  Pearson correlation with x stays near zero while the
                  symbol streams share substantial information, which is
                  the dependence correlation cannot see.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_field_types

MODES = ("iid", "factor", "nonlinear")

VOLATILITY = 0.01  # daily return scale of the price paths


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one synthetic table. Construction raises
    ``ValidationError`` naming the field for a value of the wrong type
    (``errors.check_field_types``: a bool is no int) or out of range."""

    mode: str
    n_instruments: int = 15
    n_rows: int = 1000
    seed: int = 0
    factor_loading: float = 0.7  # factor mode: weight of the shared factor
    noise_scale: float = 0.1  # nonlinear mode: noise added on top of x**2

    def __post_init__(self):
        check_field_types(self)
        if self.mode not in MODES:
            raise ValidationError(f"unknown synth mode {self.mode!r}; pick from {MODES}")
        if self.n_instruments < 2:
            raise ValidationError("need at least 2 instruments")
        if self.n_rows < 3:
            raise ValidationError("need at least 3 rows")
        if not 0.0 < self.factor_loading < 1.0:
            raise ValidationError("factor_loading must be in (0, 1)")
        if self.noise_scale < 0:
            raise ValidationError("noise_scale must be non-negative")


def generate_returns(spec: SynthSpec) -> tuple[list[str], np.ndarray]:
    """Synthetic return panel, shape (n_rows - 1, n_instruments)."""
    rng = np.random.default_rng(spec.seed)
    n, m = spec.n_instruments, spec.n_rows - 1
    if spec.mode == "iid":
        panel = rng.standard_normal((m, n))
    elif spec.mode == "factor":
        factor = rng.standard_normal((m, 1))
        noise = rng.standard_normal((m, n))
        beta = spec.factor_loading
        panel = beta * factor + np.sqrt(1.0 - beta * beta) * noise
    else:  # nonlinear: odd columns respond to the square of the previous column
        panel = np.empty((m, n))
        for j in range(n):
            if j % 2 == 0:
                panel[:, j] = rng.standard_normal(m)
            else:
                x = panel[:, j - 1]
                panel[:, j] = x * x + spec.noise_scale * rng.standard_normal(m)
    # center each column so price paths do not drift systematically
    panel = panel - panel.mean(axis=0)
    tickers = [f"SYN{j:02d}" for j in range(n)]
    return tickers, panel * VOLATILITY


def generate_price_table(spec: SynthSpec) -> str:
    """Delimited price table (header + ISO dates) built from the returns.

    Each price is written with the digits of ``f"{p:.8f}"``.
    """
    tickers, returns = generate_returns(spec)
    prices = 100.0 * np.exp(np.vstack([np.zeros(len(tickers)), np.cumsum(returns, axis=0)]))
    dates = (np.datetime64("2009-01-01") + np.arange(spec.n_rows)).astype(str)
    finite = np.isfinite(prices)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValidationError(
            f"price of {tickers[col]} on row {row + 1} ({dates[row]}) is not finite"
        )
    return ",".join(["date", *tickers]) + _rows(np.char.encode(dates), prices) + "\n"


_PADDED, _UPPER = 10_000, 20_000  # where the second and third ways start


@functools.cache
def _digit_groups() -> np.ndarray:
    """The ASCII digits of 0000 .. 9999, one uint32 a group, three ways.

    First a units group with its leading zeros blank (0 bytes, which the
    writer drops), then the groups with them, then an upper group with them
    blank, so 0 is blank altogether. Built on first use, not at import.
    """
    group = np.arange(10_000)[:, None]
    digits = (group // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    units = digits * (group >= [1000, 100, 10, 0])
    upper = digits * (group >= [1000, 100, 10, 1])
    return np.concatenate([units, digits, upper]).view(np.uint32).ravel()


def _rows(dates: np.ndarray, prices: np.ndarray) -> str:
    """One line break, date and ``",%.8f"`` per price for each row, as one string.

    The prices times 1e8 are rounded to integers, whose digits are looked up
    4 at a time. The product is within half an ulp of the exact value, so its
    rounding can differ from ``%.8f``'s only where a half-integer lies within
    that error; those cells, and those too large for an exact integer, are
    written by ``%.8f`` itself. Prices are positive or 0.
    """
    rows, cols = prices.shape
    scaled = prices * 1e8
    # an ulp of ``scaled`` is at most scaled / 2**52, which is 1 or more
    # where the integers are no longer exact
    exact = np.abs(scaled - np.floor(scaled) - 0.5) > scaled * 2.0**-52
    whole, fraction = np.divmod(np.rint(np.where(exact, scaled, 0.0)).astype(np.int64), 10**8)
    others = [(r, c, b"%.8f" % prices[r, c]) for r, c in zip(*np.nonzero(~exact))]
    # the whole part's slot, 4 or 8 digits below 2**52 / 1e8, more for others
    width = max([len(str(whole.max(initial=0)))] + [len(text) - 9 for *_, text in others])
    width = -(-width // 4) * 4

    def digits(groups: np.ndarray) -> np.ndarray:
        return _digit_groups().take(groups).view(np.uint8).reshape(rows, cols, 4)

    # a cell per price and one before them for the line break and the date;
    # the 0 bytes left over are dropped at the end
    cells = np.zeros((rows, cols + 1, width + 10), np.uint8)
    cells[:, 0, 0] = ord("\n")
    cells[:, 0, 1 : 1 + dates.itemsize] = dates.view(np.uint8).reshape(rows, -1)
    price = cells[:, 1:]
    price[..., 0] = ord(",")
    if width > 4:
        upper, whole = np.divmod(whole, 10_000)
        price[..., width - 7 : width - 3] = digits(upper + _UPPER)
        # a units group below a nonzero upper one keeps its leading zeros
        whole[upper > 0] += _PADDED
    price[..., width - 3 : width + 1] = digits(whole)
    price[..., width + 1] = ord(".")
    high, low = np.divmod(fraction, 10_000)
    price[..., width + 2 : width + 6] = digits(high + _PADDED)
    price[..., width + 6 :] = digits(low + _PADDED)
    for r, c, text in others:
        price[r, c, width + 10 - len(text) :] = np.frombuffer(text, np.uint8)
    return str(cells[cells != 0].data, "ascii")
