import hashlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirnet import lz
from mirnet.distance import (
    DistanceMatrix,
    build_matrix,
    corr_distance,
    mir_distance,
    mir_prime_distance,
    pearson,
)
from mirnet.errors import (
    AlignmentError,
    DegeneratePairError,
    FormatError,
    UndefinedCorrelationError,
    ValidationError,
)
from mirnet.ingest import (
    ReturnSeries,
    SymbolSequence,
    discretize,
    load_price_table,
    log_returns,
)
from mirnet.synth import SynthSpec, generate_price_table
from oracles import per_cell_delimited


def seq(name, symbols, alpha=4):
    return SymbolSequence(name, alpha, np.asarray(symbols))


def random_seq(rng, name="x", alpha=4, n=1000):
    return seq(name, rng.integers(0, alpha, size=n), alpha)


class TestPearson:
    def test_self_correlation(self):
        x = ReturnSeries("x", np.array([0.1, -0.2, 0.3, 0.05]))
        assert pearson(x, x) == pytest.approx(1.0)

    def test_antisymmetry(self):
        x = ReturnSeries("x", np.array([0.1, -0.2, 0.3, 0.05]))
        y = ReturnSeries("y", -x.returns)
        assert pearson(x, y) == pytest.approx(-1.0)

    def test_known_value(self):
        # oracle: direct evaluation of the covariance formula
        x, y = np.array([1.0, 2.0, 3.0]), np.array([2.0, 4.0, 6.1])
        expected = (
            np.mean(x * y) - x.mean() * y.mean()
        ) / np.sqrt((np.mean(x * x) - x.mean() ** 2) * (np.mean(y * y) - y.mean() ** 2))
        assert pearson(x, y) == pytest.approx(expected, abs=1e-14)
        assert pearson(x, y) == pytest.approx(0.9999009, abs=1e-6)

    def test_constant_series_undefined(self):
        x = ReturnSeries("x", np.array([0.1, -0.2, 0.3]))
        c = ReturnSeries("c", np.zeros(3))
        with pytest.raises(UndefinedCorrelationError):
            pearson(x, c)

    def test_length_mismatch(self):
        with pytest.raises(AlignmentError):
            pearson(np.arange(3.0), np.arange(4.0))

    def test_constant_nonzero_series_undefined(self):
        # the mean of three 0.1s is not exactly 0.1, so centring alone
        # would leave a tiny nonzero variance
        x = ReturnSeries("x", np.array([0.1, -0.2, 0.3]))
        c = ReturnSeries("c", np.full(3, 0.1))
        with pytest.raises(UndefinedCorrelationError, match="c: "):
            pearson(x, c)


class TestCorrDistance:
    def test_perfect_correlation(self):
        assert corr_distance(np.array([1.0, 2, 3]), np.array([2.0, 4, 6])) == pytest.approx(0.0)

    def test_perfect_anticorrelation_is_also_zero(self):
        # 1 - rho^2 collapses rho = -1 to distance 0 as well
        assert corr_distance(np.array([1.0, 2, 3]), np.array([3.0, 2, 1])) == pytest.approx(0.0)

    def test_zero_correlation(self):
        x = np.array([1.0, 2, 1, 2])
        y = np.array([1.0, 1, 2, 2])
        assert corr_distance(x, y) == pytest.approx(1.0)

    def test_sqrt_variant(self):
        x, y = np.array([1.0, 2, 3]), np.array([3.0, 2, 1])
        assert corr_distance(x, y, variant="sqrt") == pytest.approx(2.0)
        assert corr_distance(x, x, variant="sqrt") == pytest.approx(0.0)

    def test_unknown_variant_rejected(self):
        x, y = np.array([1.0, 2, 3]), np.array([3.0, 2, 1])
        with pytest.raises(ValueError, match=r"'bogus'.*'one_minus_r2', 'sqrt'"):
            corr_distance(x, y, variant="bogus")


class TestMirDistance:
    def test_self_distance_exactly_zero(self):
        rng = np.random.default_rng(0)
        x = random_seq(rng)
        assert mir_distance(x, x) == 0.0

    def test_independent_sequences_near_one(self):
        # threshold frozen from a calibration run at n=1e5 (estimator bias
        # keeps the raw mutual complexity near 0.21 bits here)
        rng = np.random.default_rng(1)
        x = random_seq(rng, "x", n=100_000)
        y = random_seq(rng, "y", n=100_000)
        assert 0.9 <= mir_distance(x, y) <= 1.0

    def test_bijective_relabel_distance_zero(self):
        rng = np.random.default_rng(2)
        x = random_seq(rng, "x", n=20_000)
        y = seq("y", np.array([2, 0, 3, 1])[x.symbols])
        assert mir_distance(x, y) == pytest.approx(0.0, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x, y = random_seq(rng, "x", 3, 800), random_seq(rng, "y", 3, 800)
            d = mir_distance(x, y, allow_short=True)
            assert 0.0 <= d <= 1.0

    def test_degenerate_pair_errors(self):
        c1 = seq("a", np.zeros(600, dtype=int), 2)
        c2 = seq("b", np.ones(600, dtype=int), 2)
        with pytest.raises(DegeneratePairError):
            mir_distance(c1, c2)

    def test_length_mismatch(self):
        with pytest.raises(AlignmentError, match=r"pair \(a, b\)"):
            mir_distance(seq("a", [0, 1, 0]), seq("b", [0, 1]))


class TestMirPrimeDistance:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(4)
        x = random_seq(rng)
        assert mir_prime_distance(x, x) == 0.0

    def test_independent_near_one(self):
        rng = np.random.default_rng(5)
        x = random_seq(rng, "x", n=50_000)
        y = random_seq(rng, "y", n=50_000)
        assert mir_prime_distance(x, y) >= 0.85

    def test_sharper_than_d_on_random_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            n = int(rng.integers(500, 1500))
            alpha = int(rng.integers(2, 5))
            base = rng.integers(0, alpha, size=n)
            noisy = np.where(rng.random(n) < rng.random(), rng.integers(0, alpha, n), base)
            x, y = seq("x", base, alpha), seq("y", noisy, alpha)
            assert mir_prime_distance(x, y, allow_short=True) <= (
                mir_distance(x, y, allow_short=True) + 1e-9
            )


class TestBuildMatrix:
    def make_returns(self, rng, n=15, m=400):
        factor = rng.standard_normal(m)
        return [
            ReturnSeries(f"T{i:02d}", 0.5 * factor + rng.standard_normal(m))
            for i in range(n)
        ]

    def test_independent_entry_count(self):
        rng = np.random.default_rng(7)
        m = build_matrix(self.make_returns(rng), "correlation")
        assert m.n == 15
        assert m.total_pairs == 105
        iu = np.triu_indices(15, 1)
        assert len(m.values[iu]) == 105

    def test_correlation_needs_two_observations(self):
        series = [ReturnSeries(t, np.array([0.1])) for t in "ABC"]
        with pytest.raises(AlignmentError, match="at least 2 observations"):
            build_matrix(series, "correlation")

    def test_unknown_method_named(self):
        series = [ReturnSeries(t, np.array([0.1, 0.2])) for t in "ABC"]
        with pytest.raises(ValueError, match="^unknown method 'spearman'; "):
            build_matrix(series, "spearman")

    def test_symmetry_and_zero_diagonal(self):
        rng = np.random.default_rng(8)
        syms = [random_seq(rng, f"T{i}", 4, 600) for i in range(6)]
        for method in ("mir", "mir_prime"):
            m = build_matrix(syms, method)
            assert np.array_equal(m.values, m.values.T)
            assert np.all(np.diag(m.values) == 0)
            assert np.all((m.values >= 0) & (m.values <= 1))

    def test_duplicate_series_all_zero(self):
        rng = np.random.default_rng(9)
        x = rng.integers(0, 4, size=600)
        syms = [seq(f"T{i}", x) for i in range(3)]
        m = build_matrix(syms, "mir")
        off = m.values[~np.eye(3, dtype=bool)]
        assert np.all(off == 0.0)

    def test_pair_errors_identify_pair(self):
        rng = np.random.default_rng(10)
        series = [
            ReturnSeries("GOOD1", rng.standard_normal(50)),
            ReturnSeries("GOOD2", rng.standard_normal(50)),
            ReturnSeries("FLAT", np.zeros(50)),
        ]
        with pytest.raises(UndefinedCorrelationError, match="FLAT"):
            build_matrix(series, "correlation")

    def test_correlation_entries_match_corr_distance(self):
        rng = np.random.default_rng(18)
        series = self.make_returns(rng, n=30, m=2501)
        series[3] = ReturnSeries("T03", 40.0 * series[3].returns)
        series.append(ReturnSeries("COPY", series[0].returns.copy()))
        series.append(ReturnSeries("NEG", -series[1].returns))
        m = build_matrix(series, "correlation")
        assert np.array_equal(m.values, m.values.T)
        assert np.all(np.diag(m.values) == 0.0)
        assert np.all((m.values >= 0.0) & (m.values <= 1.0))
        for i in range(m.n):
            for j in range(i + 1, m.n):
                assert abs(m.values[i, j] - corr_distance(series[i], series[j])) <= 1e-15
        sqrt = build_matrix(series[:30], "correlation", corr_variant="sqrt")
        for i in range(30):
            for j in range(i + 1, 30):
                expected = corr_distance(series[i], series[j], variant="sqrt")
                assert abs(sqrt.values[i, j] - expected) <= 1e-15

    def test_correlation_errors_name_the_series(self):
        rng = np.random.default_rng(19)
        good = [ReturnSeries(f"G{i}", rng.standard_normal(50)) for i in range(3)]
        flat = ReturnSeries("FLAT", np.full(50, 0.01))
        with pytest.raises(UndefinedCorrelationError, match=r"^FLAT: "):
            build_matrix([*good, flat], "correlation")
        short = ReturnSeries("SHORT", rng.standard_normal(49))
        with pytest.raises(AlignmentError, match=r"pair \(G0, SHORT\)"):
            build_matrix([*good, short, flat], "correlation")

    def test_unknown_corr_variant_rejected(self):
        rng = np.random.default_rng(20)
        with pytest.raises(ValueError, match=r"'bogus'.*'one_minus_r2', 'sqrt'"):
            build_matrix(self.make_returns(rng, n=4), "correlation", corr_variant="bogus")

    def test_requires_three_instruments(self):
        rng = np.random.default_rng(11)
        with pytest.raises(AlignmentError):
            build_matrix(self.make_returns(rng, n=2), "correlation")

    def test_mixed_alphabets_rejected(self):
        rng = np.random.default_rng(12)
        syms = [random_seq(rng, "a", 4, 600), random_seq(rng, "b", 4, 600),
                random_seq(rng, "c", 10, 600)]
        with pytest.raises(AlignmentError, match="alphabet"):
            build_matrix(syms, "mir")

    def test_clamp_metadata(self):
        rng = np.random.default_rng(13)
        syms = [random_seq(rng, f"T{i}", 4, 600) for i in range(5)]
        m = build_matrix(syms, "mir")
        assert m.total_pairs == 10
        assert 0 <= m.clamped_pairs <= m.total_pairs
        assert m.report()["clamp_fraction"] == m.clamp_fraction

    def test_mir_pair_errors_name_the_pair(self):
        rng = np.random.default_rng(17)
        good = [random_seq(rng, f"T{i}", 4, 600) for i in range(2)]
        short = random_seq(rng, "SHORT", 4, 599)
        with pytest.raises(AlignmentError, match=r"pair \(T0, SHORT\)"):
            build_matrix([*good, short], "mir")
        flat = [seq(name, np.zeros(600, dtype=int)) for name in ("FLAT1", "FLAT2")]
        with pytest.raises(DegeneratePairError, match=r"pair \(FLAT1, FLAT2\)"):
            build_matrix([good[0], *flat], "mir")

    def test_mir_rates_use_the_paper_estimator(self, monkeypatch):
        # every entry, across several match-length calls of two rows each,
        # equals the paper's formula from lz's own rate functions; with 11
        # series one call holds the last self-pair and the first joint row
        monkeypatch.setattr(lz, "JOINT_SYMBOL_BUDGET", 2 * 600)
        rng = np.random.default_rng(16)
        syms = [random_seq(rng, f"T{i}", 4, 600) for i in range(6)]
        syms.append(seq("COPY", syms[0].symbols))
        syms.append(seq("FLAT", np.zeros(600, dtype=int)))
        syms.append(seq("NOISY", np.where(rng.random(600) < 0.3, 0, syms[1].symbols)))
        # periodic sequences rate near 0, but their joint period 23 * 25 is
        # nearly the length: a negative raw MIR that is clamped
        syms += [seq(f"P{p}", np.arange(600) % p % 4) for p in (23, 25)]
        h = [lz.entropy_rate(s, estimator="paper").value for s in syms]
        n = len(syms)
        d, dp = np.zeros((n, n)), np.zeros((n, n))
        clamped = 0
        for i in range(n):
            for j in range(i + 1, n):
                hxy = lz.joint_entropy_rate(syms[i], syms[j], estimator="paper").value
                raw = h[i] + h[j] - hxy
                mir = max(0.0, raw)
                d[i, j] = d[j, i] = min(1.0, max(0.0, (hxy - mir) / hxy))
                dp[i, j] = dp[j, i] = min(1.0, max(0.0, 1.0 - mir / max(h[i], h[j])))
                clamped += raw < 0.0
        assert clamped > 0
        for method, expected in (("mir", d), ("mir_prime", dp)):
            m = build_matrix(syms, method)
            assert m.values.tobytes() == expected.tobytes()
            assert m.clamped_pairs == clamped
        assert mir_distance(syms[0], syms[1]) == d[0, 1]
        assert mir_prime_distance(syms[0], syms[1]) == dp[0, 1]

    def test_mir_rates_come_from_one_chunked_pass(self, monkeypatch):
        # the marginal rates ride in the batched calls of the joint rows: no
        # single-row call, and ceil((n + pairs) / rows-per-call) calls in all
        shapes = []
        kernel = lz._lcp_sums

        def counting(rows):
            shapes.append(np.shape(rows))
            return kernel(rows)

        monkeypatch.setattr(lz, "_lcp_sums", counting)
        rng = np.random.default_rng(23)
        for n, m in ((7, 600), (12, 2501)):
            shapes.clear()
            build_matrix([random_seq(rng, f"T{i}", 4, m) for i in range(n)], "mir")
            rows = n + n * (n - 1) // 2
            rows_per_call = lz.JOINT_SYMBOL_BUDGET // m
            assert len(shapes) == -(-rows // rows_per_call)
            assert all(len(shape) == 2 for shape in shapes)
            assert sum(shape[0] for shape in shapes) == rows

    def test_short_mir_matrix_warns_once(self):
        rng = np.random.default_rng(24)
        syms = [random_seq(rng, f"T{i}", 4, 300) for i in range(5)]
        for method in ("mir", "mir_prime"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                build_matrix(syms, method, allow_short=True)
            assert len(caught) == 1
            assert "only 300 symbols (minimum 500)" in str(caught[0].message)

    def test_alignment_checked_before_degeneracy(self):
        rng = np.random.default_rng(21)
        flat = seq("FLAT", np.zeros(600, dtype=int))
        short = seq("SHORT", np.zeros(599, dtype=int))
        for method in ("mir", "mir_prime"):
            with pytest.raises(AlignmentError, match=r"pair \(FLAT, SHORT\)"):
                build_matrix([flat, short, random_seq(rng, "X", 4, 600)], method)
        with pytest.raises(AlignmentError, match=r"pair \(FLAT, SHORT\)"):
            mir_distance(flat, short)
        with pytest.raises(AlignmentError, match=r"pair \(FLAT, SHORT\)"):
            mir_prime_distance(flat, short)

    def test_mir_needs_symbol_sequences(self):
        rng = np.random.default_rng(22)
        x = random_seq(rng, "x", 4, 600)
        with pytest.raises(TypeError, match="SymbolSequence"):
            mir_distance(x, ReturnSeries("r", rng.standard_normal(600)))

    def test_scale_invariance_of_mir_distances(self):
        rng = np.random.default_rng(14)
        base = [ReturnSeries(f"T{i}", rng.standard_normal(600)) for i in range(4)]
        scaled = [base[0], ReturnSeries("T1", 7.3 * base[1].returns), *base[2:]]
        m1 = build_matrix([discretize(r, 4) for r in base], "mir")
        m2 = build_matrix([discretize(r, 4) for r in scaled], "mir")
        assert np.array_equal(m1.values, m2.values)

    def test_delimited_roundtrip_shape(self):
        rng = np.random.default_rng(15)
        m = build_matrix(self.make_returns(rng, n=4, m=100), "correlation")
        text = m.to_delimited()
        lines = text.strip().splitlines()
        assert len(lines) == 5
        assert lines[0].split(",")[1:] == list(m.tickers)


@st.composite
def printed_matrices(draw):
    """Symmetric zero-diagonal matrices of floats in [0, 2]."""
    n = draw(st.integers(1, 8))
    tickers = draw(st.lists(st.text("ABCXYZ.-_0123456789", min_size=1, max_size=4),
                            min_size=n, max_size=n, unique=True))
    upper = draw(st.lists(st.floats(0, 2), min_size=n * (n - 1) // 2,
                          max_size=n * (n - 1) // 2))
    values = np.zeros((n, n))
    values[np.triu_indices(n, 1)] = upper
    return DistanceMatrix(tuple(tickers), "imported", values + values.T)


@st.composite
def signed_zero_matrices(draw):
    """Matrices on 1 to 12 tickers that the constructor accepts, with zeros of
    either sign: a zero's mirror may have the other sign, in either triangle,
    and the diagonal holds 0.0 and -0.0."""
    n = draw(st.integers(1, 12))
    pairs = n * (n - 1) // 2
    upper = np.array(
        draw(st.lists(st.sampled_from([0.0, -0.0]) | st.floats(0, 2),
                      min_size=pairs, max_size=pairs)),
        dtype=float,
    )
    flip = np.array(draw(st.lists(st.booleans(), min_size=pairs, max_size=pairs)), dtype=bool)
    values = np.diag(draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n)))
    i, j = np.triu_indices(n, 1)
    values[i, j] = upper
    values[j, i] = np.where(flip & (upper == 0), -upper, upper)
    return DistanceMatrix(tuple(f"T{k}" for k in range(n)), "imported", values)


class TestDistanceMatrix:
    @settings(deadline=None)
    @given(signed_zero_matrices(), st.sampled_from([",", ";", "\t"]))
    def test_delimited_equals_per_cell_writer(self, m, delimiter):
        assert m.to_delimited(delimiter) == per_cell_delimited(m, delimiter)

    def test_delimited_equals_per_cell_writer_at_250_nodes(self):
        rng = np.random.default_rng(19)
        values = rng.random((250, 250))
        values = values + values.T
        np.fill_diagonal(values, 0.0)
        values[5, 5] = values[40, 3] = values[3, 40] = values[200, 249] = -0.0
        values[249, 200] = values[7, 180] = values[180, 7] = 0.0
        m = DistanceMatrix(tuple(f"SYN{k:03d}" for k in range(250)), "imported", values)
        assert m.to_delimited() == per_cell_delimited(m)

    @settings(max_examples=max(100, settings.default.max_examples), deadline=None)
    @given(printed_matrices(), st.sampled_from([",", ";", "\t"]))
    def test_delimited_round_trip(self, m, delimiter):
        back = DistanceMatrix.from_delimited(m.to_delimited(delimiter), delimiter)
        assert back.tickers == m.tickers and back.method == "imported"
        assert np.array_equal(back.values, m.values)

    def test_each_cell_is_its_own_entry_repr(self):
        # the symmetry check lets a zero and its mirror differ in sign
        values = np.array([[0.0, -0.0, 0.25], [0.0, -0.0, 1.5], [0.25, 1.5, 0.0]])
        m = DistanceMatrix(("A", "B", "C"), "imported", values)
        assert m.to_delimited().splitlines()[1:] == [
            "A,0.0,-0.0,0.25", "B,0.0,-0.0,1.5", "C,0.25,1.5,0.0"
        ]

    @pytest.mark.parametrize("ticker, delimiter", [
        ("A,B", ","), ("A;B", ";"), ("A\tB", "\t"), ('A"B', ","), ("A\nB", ","),
        ("A\r", ","), ("\u2028B", ";"), ("SYN\x0c01", ","), ("A\x85", "\t"), ("", ","),
    ], ids=["comma", "semicolon", "tab", "quote", "newline", "return", "line-separator",
            "form-feed", "next-line", "empty"])
    def test_writer_refuses_a_ticker_it_cannot_write(self, ticker, delimiter):
        m = DistanceMatrix((ticker, "C", "D"), "imported", np.ones((3, 3)) - np.eye(3))
        with pytest.raises(ValidationError, match=f"^{re.escape(repr(ticker))}: "):
            m.to_delimited(delimiter)

    @pytest.mark.parametrize("text, delimiter, message", [
        (',A"x,B,C\nA"x,0,1,1\nB,1,0,1\nC,1,1,0\n', ",", "column 2: ticker 'A\"x'"),
        (';A;B;"C"\nA;0;1;1\nB;1;0;1\n"C";1;1;0\n', ";", "column 4: ticker '\"C\"'"),
        (",A,,C\nA,0,1,1\n,1,0,1\nC,1,1,0\n", ",", "column 3: ticker ''"),
    ], ids=["comma", "semicolon", "empty"])
    def test_reader_refuses_a_ticker_the_writer_refuses(self, text, delimiter, message):
        with pytest.raises(FormatError, match=f"^{re.escape(message)} "):
            DistanceMatrix.from_delimited(text, delimiter)

    def test_empty_delimiter_refused(self):
        m = DistanceMatrix(("A", "B", "C"), "imported", np.ones((3, 3)) - np.eye(3))
        with pytest.raises(ValidationError, match="^delimiter: '' is not one character"):
            m.to_delimited("")
        with pytest.raises(ValidationError, match="^delimiter: '' is not one character"):
            DistanceMatrix.from_delimited(m.to_delimited(), "")

    @pytest.mark.parametrize("delimiter", [";;", ".", "5", "e", "E", "-", "+"])
    def test_delimiter_a_value_or_ticker_can_hold_refused(self, delimiter):
        # each wrote text that the reader refused: ';;' split the cell after
        # the ticker 'A;', and the others split a value's repr
        m = DistanceMatrix(("A;", "B", "C"), "imported",
                           [[0, 0.5, 0.25], [0.5, 0, 1e-05], [0.25, 1e-05, 0]])
        message = f"^delimiter: {re.escape(repr(delimiter))} is not one character"
        with pytest.raises(ValidationError, match=message):
            m.to_delimited(delimiter)
        with pytest.raises(ValidationError, match=message):
            DistanceMatrix.from_delimited(m.to_delimited(), delimiter)

    def test_writer_keeps_another_delimiter_in_a_ticker(self):
        m = DistanceMatrix(("A;B", "C", " "), "imported", np.ones((3, 3)) - np.eye(3))
        back = DistanceMatrix.from_delimited(m.to_delimited())
        assert back.tickers == m.tickers and np.array_equal(back.values, m.values)

    def test_pair_count_is_derived(self):
        text = ",A,B,C,D\nA,0,1,2,3\nB,1,0,4,5\nC,2,4,0,6\nD,3,5,6,0\n"
        m = DistanceMatrix.from_delimited(text)
        assert m.total_pairs == m.report()["independent_pairs"] == 6

    def test_values_become_a_float_array(self):
        m = DistanceMatrix(("A", "B"), "x", [[0, 1], [1, 0]])
        assert m.values.dtype == float and m.values[0, 1] == 1.0

    @pytest.mark.parametrize(
        "values, message",
        [
            (np.zeros((3, 2)), r"shape \(3, 2\), expected \(3, 3\) for 3 tickers"),
            ([[0, 1, np.nan], [1, 0, 2], [np.nan, 2, 0]], r"\(A, C\): distance nan is not finite"),
            ([[0, 1, 2], [1, 0, np.inf], [2, np.inf, 0]], r"\(B, C\): distance inf is not finite"),
            ([[0, 1, 2], [1, 0, 3], [2, 3 + 1e-15, 0]], r"\(B, C\): distance 3.0 differs from its mirror"),
            ([[0, 1, 2], [1, 0, 3], [2, 3, 1e-300]], r"\(C, C\): distance 1e-300 on the diagonal is not 0"),
        ],
        ids=["shape", "nan", "inf", "asymmetric", "diagonal"],
    )
    def test_bad_values_rejected(self, values, message):
        with pytest.raises(ValidationError, match=message):
            DistanceMatrix(("A", "B", "C"), "x", np.asarray(values, dtype=float))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty distance matrix"),
            (",A,B\nA,0,1\n", "2 tickers in the header but 1 rows"),
            (",A,B\nA,0,1\nC,1,0\n", "row 2 is 'C', expected 'B'"),
            (",A,B\nA,0,1\nB,1\n", "row B: 1 values, expected 2"),
            (",A,B\nA,0,x\nB,1,0\n", r"\(A, B\): 'x' is not a number"),
        ],
        ids=["empty", "missing-row", "misplaced-row", "ragged-row", "not-a-number"],
    )
    def test_malformed_text_rejected(self, text, message):
        with pytest.raises(FormatError, match=message):
            DistanceMatrix.from_delimited(text)


@pytest.mark.parametrize(
    "n_instruments, method, alpha, digests",
    [
        # the Gram product's last bits depend on how OpenBLAS splits it: one
        # thread writes the first text, two to four threads the second
        (250, "correlation", None, {
            "2a730c5f7787f462384b6abbc6d3744c295433ada0a4cc5ae674f1ab3ef64340",
            "b9d489409c7b89bacbed7faab72f851896a9311e4fd96c8d495fbb1ade100e2a",
        }),
        (24, "mir", 4, {"d6e097d8a40cbb5781931ce3968364723045baf2acca13fa458e51284077ab29"}),
        (24, "mir_prime", 10,
         {"11cddda014b0251fe3495d69d4a540b97fed6c93a18cedcb9f61e734ef341f0d"}),
    ],
    ids=["corr_wide", "mir_panel-a4", "mir_prime-a10"],
)
def test_bench_shape_delimited_matrices_pinned(tmp_path, n_instruments, method, alpha, digests):
    # the distance CSV of the first table of a benchmark shape at seed 1, as
    # a run writes it; the bench reference checks sampled entries to a
    # tolerance, so only this pins the bytes
    path = tmp_path / "prices.csv"
    spec = SynthSpec(mode="factor", n_instruments=n_instruments, n_rows=2501, seed=1000)
    path.write_text(generate_price_table(spec))
    series = [log_returns(s) for s in load_price_table(path)]
    if alpha is not None:
        series = [discretize(r, alpha) for r in series]
    text = build_matrix(series, method).to_delimited()
    assert hashlib.sha256(text.encode()).hexdigest() in digests
