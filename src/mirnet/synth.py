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

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

MODES = ("iid", "factor", "nonlinear")

VOLATILITY = 0.01  # daily return scale of the price paths


@dataclass(frozen=True)
class SynthSpec:
    mode: str
    n_instruments: int = 15
    n_rows: int = 1000
    seed: int = 0
    factor_loading: float = 0.7  # factor mode: weight of the shared factor
    noise_scale: float = 0.1  # nonlinear mode: noise added on top of x**2

    def __post_init__(self):
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
    """Delimited price table (header + ISO dates) built from the returns."""
    tickers, returns = generate_returns(spec)
    prices = 100.0 * np.exp(np.vstack([np.zeros(len(tickers)), np.cumsum(returns, axis=0)]))
    dates = (np.datetime64("2009-01-01") + np.arange(spec.n_rows)).astype(str)
    row = "%s" + ",%.8f" * len(tickers)  # the digits of f"{p:.8f}"
    lines = [",".join(["date", *tickers])]
    lines += [row % (d, *p) for d, p in zip(dates.tolist(), prices.tolist())]
    return "\n".join(lines) + "\n"
