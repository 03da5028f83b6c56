import hashlib

import pytest

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
