import math

import numpy as np
import pytest

from mirnet.errors import FormatError, InsufficientDataError, ValidationError
from mirnet.ingest import (
    PriceSeries,
    ReturnSeries,
    discretize,
    load_price_table,
    log_returns,
)


def write(tmp_path, text, name="prices.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadPriceTable:
    def test_direct_load(self, tmp_path):
        path = write(
            tmp_path,
            "date,A,B\n2020-01-01,1.0,2.0\n2020-01-02,1.1,2.1\n2020-01-03,1.2,2.2\n",
        )
        series = load_price_table(path)
        assert [s.ticker for s in series] == ["A", "B"]
        assert all(len(s.prices) == 3 for s in series)

    def test_missing_price_drops_row_everywhere(self, tmp_path):
        path = write(
            tmp_path,
            "date,A,B\n2020-01-01,1.0,2.0\n2020-01-02,1.1,\n2020-01-03,1.2,2.2\n",
        )
        series = load_price_table(path)
        assert all(len(s.prices) == 2 for s in series)
        assert series[0].dates == series[1].dates == ("2020-01-01", "2020-01-03")

    def test_negative_price_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "date,A\n2020-01-01,1.0\n2020-01-02,-5.0\n2020-01-03,1.2\n",
        )
        with pytest.raises(ValidationError, match="A.*2020-01-02"):
            load_price_table(path)

    def test_unparseable_price_names_line(self, tmp_path):
        path = write(tmp_path, "date,A\n2020-01-01,1.0\n2020-01-02,oops\n")
        with pytest.raises(FormatError, match=":3"):
            load_price_table(path)

    def test_too_few_rows(self, tmp_path):
        path = write(tmp_path, "date,A\n2020-01-01,1.0\n")
        with pytest.raises(InsufficientDataError):
            load_price_table(path)

    def test_missing_date_column(self, tmp_path):
        path = write(tmp_path, "day,A\n2020-01-01,1.0\n2020-01-02,1.1\n")
        with pytest.raises(FormatError, match="date"):
            load_price_table(path)
        series = load_price_table(path, date_column="day")
        assert len(series) == 1

    def test_repeated_ticker_rejected(self, tmp_path):
        path = write(tmp_path, "date,A,A,B\n2020-01-01,1,2,3\n2020-01-02,1,2,3\n")
        with pytest.raises(FormatError, match=r"prices\.csv: .*'A'") as exc:
            load_price_table(path)
        assert "'B'" not in str(exc.value)

    def test_tab_delimiter(self, tmp_path):
        path = write(tmp_path, "date\tA\n2020-01-01\t1.0\n2020-01-02\t1.1\n")
        series = load_price_table(path, delimiter="\t")
        assert series[0].prices.tolist() == [1.0, 1.1]

    def test_alignment_invariant(self, tmp_path):
        path = write(
            tmp_path,
            "date,A,B,C\n"
            "2020-01-01,1,2,3\n2020-01-02,1,,3\n2020-01-03,1,2,\n2020-01-04,1,2,3\n",
        )
        series = load_price_table(path)
        dates = {s.dates for s in series}
        assert len(dates) == 1


class TestPriceSeriesInvariants:
    def test_dates_strictly_increasing(self):
        with pytest.raises(ValidationError):
            PriceSeries("A", ("2020-01-02", "2020-01-01"), np.array([1.0, 2.0]))

    def test_duplicate_dates_rejected(self):
        with pytest.raises(ValidationError):
            PriceSeries("A", ("2020-01-01", "2020-01-01"), np.array([1.0, 2.0]))


class TestLogReturns:
    def test_constant_prices(self):
        s = PriceSeries("A", ("d1", "d2", "d3"), np.array([5.0, 5.0, 5.0]))
        assert log_returns(s).returns.tolist() == [0.0, 0.0]

    def test_ln_e(self):
        s = PriceSeries("A", ("d1", "d2"), np.array([1.0, math.e]))
        assert log_returns(s).returns == pytest.approx([1.0])

    def test_ten_percent_move(self):
        s = PriceSeries("A", ("d1", "d2"), np.array([100.0, 110.0]))
        # oracle: math.log(1.1)
        assert log_returns(s).returns == pytest.approx([0.09531017980432486])

    def test_length(self):
        s = PriceSeries("A", tuple(f"d{i}" for i in range(10)), np.arange(1.0, 11.0))
        assert len(log_returns(s)) == 9


class TestDiscretize:
    def test_equal_counts_distinct_values(self):
        r = ReturnSeries("A", np.array([0.3, -0.1, 0.7, -0.5, 0.2, 0.9, -0.8, 0.1]))
        sym = discretize(r, 4)
        counts = np.bincount(sym.symbols, minlength=4)
        assert counts.tolist() == [2, 2, 2, 2]

    def test_pi_digits_median_split(self):
        # frozen from the rank oracle: stable ranks of [3,1,4,1,5,9,2,6] are
        # [3,0,4,1,5,7,2,6]; bin = rank * 2 // 8
        r = ReturnSeries("A", np.array([3, 1, 4, 1, 5, 9, 2, 6], dtype=float))
        sym = discretize(r, 2)
        assert sym.symbols.tolist() == [0, 0, 1, 0, 1, 1, 0, 1]
        assert np.bincount(sym.symbols).tolist() == [4, 4]

    def test_constant_input_stable_tiebreak(self):
        r = ReturnSeries("A", np.zeros(4))
        sym = discretize(r, 2)
        assert sym.symbols.tolist() == [0, 0, 1, 1]

    def test_rank_equivariance(self):
        rng = np.random.default_rng(42)
        for transform in (np.exp, lambda v: 2 * v + 1, lambda v: v**3):
            x = rng.standard_normal(200)
            base = discretize(ReturnSeries("A", x), 5).symbols
            mapped = discretize(ReturnSeries("A", transform(x)), 5).symbols
            assert np.array_equal(base, mapped)

    def test_counts_exact_when_divisible(self):
        rng = np.random.default_rng(0)
        for alpha in (2, 4, 10):
            m = alpha * 25
            x = rng.permutation(m).astype(float)
            sym = discretize(ReturnSeries("A", x), alpha)
            assert np.bincount(sym.symbols).tolist() == [m // alpha] * alpha

    def test_warns_above_sqrt_sample_size(self):
        r = ReturnSeries("A", np.arange(50, dtype=float))
        with pytest.warns(UserWarning, match="sqrt"):
            discretize(r, 8)

    def test_alpha_too_large_for_sample(self):
        r = ReturnSeries("A", np.arange(3, dtype=float))
        with pytest.raises(InsufficientDataError):
            discretize(r, 4)

    def test_alpha_below_two(self):
        r = ReturnSeries("A", np.arange(10, dtype=float))
        with pytest.raises(ValidationError):
            discretize(r, 1)

    def test_symbols_within_alphabet(self):
        rng = np.random.default_rng(1)
        sym = discretize(ReturnSeries("A", rng.standard_normal(997)), 10)
        assert sym.symbols.min() >= 0 and sym.symbols.max() <= 9
