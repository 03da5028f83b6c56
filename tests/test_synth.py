import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirnet import synth
from mirnet.errors import ValidationError
from mirnet.synth import SynthSpec, generate_price_table


@pytest.mark.parametrize(
    "mode, digest",
    [
        ("iid", "405870644f2de858fbadcbe03c08762d68395247f74d54185aaf01e26643d3e5"),
        ("factor", "6ac074f081ae15a962c033cbdc361d5967c9521171f3fdd2fdd4e18890a26186"),
        ("nonlinear", "3d9b58d297f48fd28f02204fade556850ce2094cb39a7a22e4a43f62f50b69c8"),
    ],
)
def test_price_table_bytes_pinned(mode, digest):
    # the benchmark's references and the acceptance tests read tables made
    # here: a change of one byte changes their inputs
    table = generate_price_table(SynthSpec(mode=mode, n_instruments=7, n_rows=120, seed=3))
    assert hashlib.sha256(table.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "n_instruments, n_rows, digest",
    [
        (24, 2501, "a7b704f2ea250ca6b161e9073034e3229e4c78a918f7a4472d88b0b45f879029"),
        (40, 751, "b14f54e9f37a6e7ad6b8c14d3c1e3fb7338422366a0aeee5fbbfb33b5d9e5767"),
        (250, 2501, "3019f239aea7c744dd23d59080383b88d2aae90b9ea3f01ed8876e503a825b05"),
    ],
    ids=["mir_panel", "pmfg_wide", "corr_wide"],
)
def test_bench_shape_tables_pinned(n_instruments, n_rows, digest):
    # the first table of each benchmark workload at seed 1, as the per-row
    # '%.8f' writer made it
    spec = SynthSpec(mode="factor", n_instruments=n_instruments, n_rows=n_rows, seed=1000)
    assert hashlib.sha256(generate_price_table(spec).encode()).hexdigest() == digest


HALF_UNIT = 10**15  # cells at k / 1e8 +- 0.5e-8, up to 1e7

prices = st.one_of(
    st.floats(0.0, 1e4),
    st.builds(
        lambda k, side, nudge: np.nextafter(k / 1e8 + side * 0.5e-8, nudge),
        st.integers(1, HALF_UNIT),
        st.sampled_from([-1, 1]),
        st.sampled_from([0.0, np.inf]),
    ),
    st.floats(1e4, 2**53 / 1e8),
    st.floats(2**53 / 1e8, 1e300),
    st.floats(0.0, 1e-6),
)


@st.composite
def price_blocks(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    values = draw(st.lists(prices, min_size=rows * cols, max_size=rows * cols))
    return np.array(values, dtype=np.float64).reshape(rows, cols)


@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(price_blocks())
def test_writer_matches_percent_format(block):
    dates = np.char.encode(np.array([f"2009-01-{d + 1:02d}" for d in range(len(block))]))
    expected = "".join(
        "\n" + date + "".join(",%.8f" % p for p in row)
        for date, row in zip(dates.astype(str), block.tolist())
    )
    assert synth._rows(dates, block) == expected


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_price_names_ticker_and_row(monkeypatch, value):
    def returns(spec):
        panel = np.zeros((spec.n_rows - 1, spec.n_instruments))
        panel[4, 2] = value
        return [f"SYN{j:02d}" for j in range(spec.n_instruments)], panel

    monkeypatch.setattr(synth, "generate_returns", returns)
    with pytest.raises(ValidationError, match=r"SYN02 on row 6 \(2009-01-06\) is not finite"):
        generate_price_table(SynthSpec(mode="iid", n_instruments=3, n_rows=10))


@pytest.mark.parametrize(
    "fields, culprit",
    [
        ({"mode": "bogus"}, "unknown synth mode 'bogus'"),
        ({"mode": "iid", "n_instruments": 1}, "at least 2 instruments"),
        ({"mode": "iid", "n_rows": 2}, "at least 3 rows"),
        ({"mode": "factor", "factor_loading": 1.0}, "factor_loading must be in (0, 1)"),
        ({"mode": "nonlinear", "noise_scale": -0.1}, "noise_scale must be non-negative"),
    ],
)
def test_spec_refusals_name_the_field(fields, culprit):
    with pytest.raises(ValidationError) as exc:
        SynthSpec(**fields)
    assert culprit in str(exc.value)


@pytest.mark.parametrize(
    "field, value",
    [("seed", True), ("n_rows", 10.5), ("n_instruments", 3.0), ("seed", 1.5),
     ("mode", 1), ("factor_loading", "0.5"), ("noise_scale", False)],
)
def test_mistyped_field_refused_naming_it(field, value):
    # seed=True wrote seed 1's table, and the floats raised numpy TypeErrors
    # from inside generate_returns; a bool is no number here
    with pytest.raises(ValidationError, match=f"^{field}: expected "):
        SynthSpec(**{"mode": "factor", field: value})


def test_float_field_takes_an_int():
    spec = SynthSpec(mode="nonlinear", n_instruments=2, n_rows=10, noise_scale=0)
    assert np.isfinite(synth.generate_returns(spec)[1]).all()
