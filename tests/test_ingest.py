import contextlib
import csv
import importlib.util
import math
import os
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirnet import ingest
from mirnet.errors import FormatError, InsufficientDataError, MirnetError, ValidationError
from mirnet.ingest import (
    PriceSeries,
    ReturnSeries,
    SymbolSequence,
    discretize,
    load_price_table,
    log_returns,
)
from mirnet.synth import SynthSpec, generate_price_table
from oracles import oracle_load_price_table, stable_sort_symbols

BENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def write(tmp_path, text, name="prices.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def contents(series):
    """Each series' ticker, dates and price bytes."""
    return [(s.ticker, tuple(s.dates), s.prices.tobytes()) for s in series]


def outcome(loader, path, **kwargs):
    """``contents`` of what a loader makes of ``path``, or the class of the
    package error it raised."""
    try:
        return contents(loader(path, **kwargs))
    except MirnetError as exc:
        return type(exc)


def load(path, **kwargs):
    """``load_price_table``, checked to agree with the row-loop oracle."""
    series = load_price_table(path, **kwargs)
    assert contents(series) == outcome(oracle_load_price_table, path, **kwargs)
    return series


class TestLoadPriceTable:
    def test_direct_load(self, tmp_path):
        path = write(
            tmp_path,
            "date,A,B\n2020-01-01,1.0,2.0\n2020-01-02,1.1,2.1\n2020-01-03,1.2,2.2\n",
        )
        series = load(path)
        assert [s.ticker for s in series] == ["A", "B"]
        assert all(len(s.prices) == 3 for s in series)

    def test_missing_price_drops_row_everywhere(self, tmp_path):
        path = write(
            tmp_path,
            "date,A,B\n2020-01-01,1.0,2.0\n2020-01-02,1.1,\n2020-01-03,1.2,2.2\n",
        )
        with pytest.warns(UserWarning, match=r"dropped 1 row.*prices\.csv:3"):
            series = load(path)
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

    def test_repeated_tickers_listed_sorted(self, tmp_path):
        path = write(tmp_path, "date,C,B,A,C,D,B\n2020-01-01,1,2,3,4,5,6\n")
        with pytest.raises(FormatError, match=r"prices\.csv: repeated column names \['B', 'C'\]$"):
            load_price_table(path)

    @pytest.mark.parametrize(
        "header, delimiter, column, ticker",
        [
            ("date,,C,D", ",", 2, "''"),
            ('date,"A,B",C,D', ",", 2, "'A,B'"),
            ('date,C,"say ""hi""",D', ",", 3, "'say \"hi\"'"),
            ("date\tC\tA,B", "\t", 3, "'A,B'"),
            # a line break by str.splitlines that open() leaves inside a line
            ("date,SYN00,SYN\x0c01,SYN02", ",", 3, "'SYN\\x0c01'"),
            ("date,A\vB,C", ",", 2, "'A\\x0bB'"),
            ("date;C;A\x1cB", ";", 3, "'A\\x1cB'"),
            ("date,C,A\x85B", ",", 3, "'A\\x85B'"),
            ("date,C,A\u2028B", ",", 3, "'A\\u2028B'"),
            ("date,C,A\u2029B", ",", 3, "'A\\u2029B'"),
        ],
    )
    def test_unusable_ticker_names_path_and_column(
        self, tmp_path, header, delimiter, column, ticker
    ):
        # the outputs are comma-delimited whatever the input delimiter, so a
        # ticker holding ',', '"' or a line break would write a matrix that
        # cannot be read
        width = len(next(csv.reader([header], delimiter=delimiter))) - 1
        body = [delimiter.join(["2020-01-0%d" % d] + ["1"] * width) for d in (1, 2)]
        path = write(tmp_path, "\n".join([header, *body]) + "\n")
        with pytest.raises(FormatError) as exc:
            load_price_table(path, delimiter=delimiter)
        message = str(exc.value)
        assert message.startswith(f"{path}: column {column}: ")
        assert f"ticker {ticker}" in message

    def test_tab_delimiter(self, tmp_path):
        path = write(tmp_path, "date\tA\n2020-01-01\t1.0\n2020-01-02\t1.1\n")
        series = load(path, delimiter="\t")
        assert series[0].prices.tolist() == [1.0, 1.1]

    @pytest.mark.parametrize(
        "delimiter",
        [";;", '"', "", "\r", "\n", None, "-", ".", "0", "7", "+", "e", "E"],
        ids=["two-chars", "quote", "empty", "cr", "lf", "none", "minus", "dot", "zero",
             "seven", "plus", "e", "E"],
    )
    def test_delimiter_is_one_usable_character(self, tmp_path, delimiter):
        # numpy's parser splits on one character, and keeps '"' for quotes and
        # CR and LF for line ends; a character that a number or an ISO date can
        # hold would split a cell
        text = "date,A,B\n2020-01-01,1.0,2.0\n2020-01-02,1.1,2.1\n"
        path = write(tmp_path, text.replace(",", delimiter or ""))
        with pytest.raises(ValidationError) as exc:
            load_price_table(path, delimiter=delimiter)
        assert str(exc.value).startswith(f"delimiter: {delimiter!r} is not one character")

    def test_alignment_invariant(self, tmp_path):
        path = write(
            tmp_path,
            "date,A,B,C\n"
            "2020-01-01,1,2,3\n2020-01-02,1,,3\n2020-01-03,1,2,\n2020-01-04,1,2,3\n",
        )
        with pytest.warns(UserWarning, match=r"dropped 2 row.*prices\.csv:3"):
            series = load(path)
        dates = {s.dates for s in series}
        assert len(dates) == 1

    def test_gap_free_table_does_not_warn(self, tmp_path):
        path = write(tmp_path, "date,A,B\n2020-01-01,1,2\n\n2020-01-02,1.1,2.1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = load(path)
        assert series[0].dates == ("2020-01-01", "2020-01-02")

    def test_whitespace_only_price_drops_row(self, tmp_path):
        path = write(
            tmp_path,
            "date,A,B\n2020-01-01,1,2\n2020-01-02,1.1, \t \n2020-01-03,1.2,2.2\n",
        )
        with pytest.warns(UserWarning, match=r"dropped 1 row.*prices\.csv:3"):
            series = load(path)
        assert series[1].dates == ("2020-01-01", "2020-01-03")
        assert series[1].prices.tolist() == [2.0, 2.2]

    @pytest.mark.parametrize("cell", ["oops", "1#5"])
    def test_unparseable_price_names_line_and_ticker(self, tmp_path, cell):
        path = write(tmp_path, f"date,A,B\n2020-01-01,1,2\n2020-01-02,1.1,{cell}\n")
        with pytest.raises(FormatError, match=rf"prices\.csv:3: .*'{cell}' for B$"):
            load_price_table(path)

    @pytest.mark.parametrize(
        "cell, blank",
        [("nan", ""), ("inf", ""), ("0", ""), ("0", "\n")],
        ids=["nan", "inf", "0", "0-below-a-blank-line"],
    )
    def test_non_finite_or_zero_price_names_ticker_and_date(self, tmp_path, cell, blank):
        # the line number counts a blank line above, which the one pass skips
        path = write(
            tmp_path,
            f"date,A,B\n2020-01-01,1,2\n{blank}2020-01-02,1.1,{cell}\n2020-01-03,1,2\n",
        )
        line = 3 + len(blank)
        with pytest.raises(
            ValidationError,
            match=rf"prices\.csv:{line}: .*price {cell} for ticker B on 2020-01-02",
        ):
            load_price_table(path)

    def test_short_row_names_line(self, tmp_path):
        path = write(tmp_path, "date,A,B\n2020-01-01,1,2\n2020-01-02,1.1\n")
        with pytest.raises(FormatError, match=r"prices\.csv:3: expected 3 fields, got 2"):
            load_price_table(path)

    @pytest.mark.parametrize(
        "rows, got",
        [(["1,2,3,2020-01-02", "1,2020-01-03"], 4), (["1,2020-01-02", "1,2,3,2020-01-03"], 2)],
        ids=["long-then-short", "short-then-long"],
    )
    def test_date_last_long_and_short_rows(self, tmp_path, rows, got):
        # the table's delimiter count is right, but two lines have the wrong
        # width; the first of them is named
        path = write(tmp_path, "\n".join(["A,B,date", "1,2,2020-01-01", *rows, "1,2,2020-01-04"]))
        with pytest.raises(FormatError) as exc:
            load_price_table(path)
        assert str(exc.value) == f"{path}:3: expected 3 fields, got {got}"

    @pytest.mark.parametrize("row, dropped", [("2020-01-03,1.2,2.2", None), ("2020-01-03,1.2,", 6)])
    def test_blank_and_whitespace_lines_mid_body(self, tmp_path, row, dropped):
        path = write(
            tmp_path,
            f"date,A,B\n2020-01-01,1,2\n\n2020-01-02,1.1,2.1\n \t \n{row}\n2020-01-04,1.3,2.3\n",
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            series = load(path)
        dates = ["2020-01-01", "2020-01-02", "2020-01-03", "2020-01-04"]
        warned = []
        if dropped:
            dates.remove("2020-01-03")
            warned = [f"dropped 1 row(s) with a missing price, the first at {path}:{dropped}"]
        assert [str(w.message) for w in caught] == warned
        assert series[0].dates == tuple(dates)

    def test_quoted_header_with_unquoted_body(self, tmp_path):
        path = write(tmp_path, 'date,"A",B\n2020-01-01,1,2\n2020-01-02,1.5,2.5\n')
        series = load(path)
        assert [s.ticker for s in series] == ["A", "B"]
        assert series[0].prices.tolist() == [1.0, 1.5]

    @pytest.mark.parametrize(
        "body",
        [
            "2020-01-02,1,-1,3\n2020-01-03,1\n",  # a short row below
            "2020-01-02,1,-1,3\n2020-01-03,oops,2,3\n",  # an unparseable row below
            "2020-01-02,1,-1,oops\n",  # an unparseable cell to the right
        ],
    )
    def test_bad_price_is_reported_before_a_later_bad_cell(self, tmp_path, body):
        path = write(tmp_path, "date,A,B,C\n2020-01-01,1,2,3\n" + body)
        with pytest.raises(
            ValidationError, match=r"prices\.csv:3: .*price -1 for ticker B on 2020-01-02"
        ):
            load_price_table(path)

    @pytest.mark.parametrize(
        "body, dropped",
        [
            ("2020-01-01,1,2\n2020-01-03,1,2\n\n2020-01-02,1,2\n", 0),
            ("2020-01-03,1,2\n2020-01-04,1,\n\n2020-01-02,1,2\n", 1),
        ],
        ids=["below-a-blank-line", "below-a-dropped-row-and-a-blank-line"],
    )
    def test_unordered_dates_name_the_row(self, tmp_path, body, dropped):
        # line 5 either way: on the line path, the pass names the culprit
        # from the kept lines' numbers, which skip a dropped row
        path = write(tmp_path, "date,A,B\n" + body)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(
                ValidationError, match=r"prices\.csv:5: .*'2020-01-03' then '2020-01-02'"
            ):
                load_price_table(path)
        assert [str(w.message) for w in caught] == dropped * [
            f"dropped 1 row(s) with a missing price, the first at {path}:3"
        ]

    @pytest.mark.parametrize(
        "body, line, date",
        [
            # as strings, 2020-1-10 sorts before 2020-1-9
            ("2020-1-9,1,2\n2020-1-10,1,2\n", 2, "2020-1-9"),
            # as strings, these three are in order
            ("2020-1-19,1,2\n2020-1-2,1,2\n2020-1-20,1,2\n", 2, "2020-1-19"),
            ("2020-02-28,1,2\n2020-02-30,1,2\n2020-03-01,1,2\n", 3, "2020-02-30"),
            ("20200108,1,2\n20200109,1,2\n", 2, "20200108"),
            ("2020-01-08,1,2\n2020-01-09T00,1,2\n", 3, "2020-01-09T00"),
            ('"Jan 02, 2020",1,2\n"Jan 03, 2020",1,2\n', 2, "Jan 02, 2020"),
            # a dropped row keeps its line: the bad date is on line 4
            ("2020-01-08,1,2\n2020-01-09,1,\n2020-1-10,1,2\n", 4, "2020-1-10"),
        ],
        ids=["unpadded", "unpadded-string-order", "no-such-day", "basic-format",
             "time-of-day", "month-name", "below-a-dropped-row"],
    )
    def test_dates_are_iso_days(self, tmp_path, body, line, date):
        path = write(tmp_path, "date,A,B\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValidationError) as exc:
                load_price_table(path)
        assert str(exc.value) == f"{path}:{line}: date {date!r} is not a day written YYYY-MM-DD"

    def test_calendar_checked_once_per_table(self, tmp_path, monkeypatch):
        walks = []
        check = ingest._calendar

        def counted(dates, culprit):
            walks.append(dates)
            return check(dates, culprit)

        monkeypatch.setattr(ingest, "_calendar", counted)
        path = write(tmp_path, "date,A,B,C\n2020-01-01,1,2,3\n2020-01-02,1,2,3\n")
        series = load_price_table(path)
        assert len(walks) == 1
        assert series[0].dates is series[2].dates

    def test_quoted_and_padded_cells(self, tmp_path):
        path = write(
            tmp_path,
            'date,A,B\r\n"2020-01-01", 1.5 ,"2"\r\n"2020-01-02","1.25" ,\t3\r\n',
        )
        series = load(path)
        assert series[0].prices.tolist() == [1.5, 1.25]
        assert series[1].dates == ("2020-01-01", "2020-01-02")

    @pytest.mark.parametrize(
        "text, delimiter",
        [
            ('date,A,B\n"2020-01-01","1.5","2"\n"2020-01-02","1.25","3"\n', ","),
            ('date A B\n"2020-01-02" " 1.5" 2\n"2020-01-03" "1.25 " 3\n', " "),
            ('date,A,B\n\n"2020-01-01",1.5,2\n\n\n"2020-01-02",1.25,3\n\n', ","),
        ],
        ids=["fully-quoted", "delimiter-in-quoted-price", "blank-lines-mid-body"],
    )
    def test_quoted_table_takes_the_one_pass(self, tmp_path, monkeypatch, text, delimiter):
        def scan(*args):
            raise AssertionError("_scan ran on a table the one pass can read")

        monkeypatch.setattr(ingest, "_scan", scan)
        series = load(write(tmp_path, text), delimiter=delimiter)
        assert series[1].prices.tolist() == [2.0, 3.0]

    @pytest.mark.parametrize(
        "body, error",
        [
            (
                '2020-01-01,1,2\n"2020-01-02,1,2\n2020-01-03",1.1,2.1\n2020-01-04,1,2\n',
                "expected 3 fields, got 1",
            ),
            ('2020-01-01,1,2\n2020-01-02,"1.1\n",2\n2020-01-03,1,2\n', "expected 3 fields, got 2"),
            # the opening line has the right width, and the closing quote
            # alone reads as a blank line
            (
                '2020-01-01,1,2\n2020-01-02,1.1,"2\n"\n2020-01-03,1,2\n',
                "a quoted cell runs over the line end",
            ),
            # a quote alone reads as one empty cell, but it opens a cell that
            # csv reads on into the next line
            (
                '2020-01-01,1,2\n"\n2020-01-02,1.5,2\n2020-01-03,1,2\n',
                "a quoted cell runs over the line end",
            ),
        ],
        ids=["date", "price", "open-quote", "quote-alone"],
    )
    def test_quoted_cell_over_two_lines_is_refused(self, tmp_path, body, error):
        # numpy keeps a quoted cell open across lines and would merge the two
        # lines into one row; each record is one line, so the line path
        # names the first line of the record
        path = write(tmp_path, "date,A,B\n" + body)
        with pytest.raises(FormatError, match=rf"prices\.csv:3: {error}$"):
            load_price_table(path)

    @pytest.mark.parametrize("blank", [None, 501], ids=["direct-pass", "line-path"])
    def test_load_peak_memory_stays_near_the_float_table(self, tmp_path, blank):
        """The file is parsed as it is read and only the prices are copied:
        one load peaks at about twice the prices' bytes, where holding the
        file's text and its lines as well took about 3.8 times. A blanked
        price sends the table to the line path, whose kept lines stream
        through the same pass; holding them in a list took about 3.7 times."""
        n, rows = 100, 1001
        spec = SynthSpec(mode="factor", n_instruments=n, n_rows=rows, seed=3)
        lines = generate_price_table(spec).split("\n")
        if blank:
            lines[blank - 1] = lines[blank - 1].rsplit(",", 1)[0] + ","
        path = write(tmp_path, "\n".join(lines))
        if blank:
            warns = pytest.warns(UserWarning, match=rf"dropped 1 row.*prices\.csv:{blank}$")
        else:
            warns = contextlib.nullcontext()
        tracemalloc.start()
        try:
            with warns:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                load_price_table(path)
                peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * n * rows * 8

    @pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
    def test_pipe_with_a_missing_price(self):
        """A pipe, as ``--input <(zcat prices.csv.gz)`` gives, cannot be read
        twice, yet a missing price sends its table to the line path."""
        r, w = os.pipe()
        try:
            os.write(w, b"date,A,B\n2020-01-01,1,2\n2020-01-02,1.1,\n2020-01-03,1.2,2.2\n")
            os.close(w)
            with pytest.warns(UserWarning, match=rf"dropped 1 row.*/dev/fd/{r}:3$"):
                series = load_price_table(f"/dev/fd/{r}")
        finally:
            os.close(r)
        assert series[1].dates == ("2020-01-01", "2020-01-03")

    def test_missing_price_is_still_scanned(self, tmp_path, monkeypatch):
        scans = []
        scan = ingest._scan

        def counted(*args):
            scans.append(args)
            return scan(*args)

        monkeypatch.setattr(ingest, "_scan", counted)
        path = write(tmp_path, 'date,A,B\n"2020-01-01",1,2\n"2020-01-02",,3\n"2020-01-03",1,4\n')
        with pytest.warns(UserWarning, match=r"dropped 1 row.*prices\.csv:3$"):
            series = load(path)
        assert len(scans) == 1
        assert series[0].dates == ("2020-01-01", "2020-01-03")

    def test_body_of_blank_lines_does_not_warn(self, tmp_path):
        path = write(tmp_path, "date,A\n\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InsufficientDataError, match=r"prices\.csv: only 0 usable rows"):
                load_price_table(path)

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(FormatError, match=r"prices\.csv: empty file$"):
            load_price_table(path)

    def test_no_ticker_column_rejected(self, tmp_path):
        path = write(tmp_path, "date\n2020-01-01\n2020-01-02\n")
        with pytest.raises(FormatError, match=r"prices\.csv: no ticker columns besides 'date'$"):
            load_price_table(path)

    @pytest.mark.parametrize("cell", ["1_000", "\u0661\u0662", "0x10"])
    def test_price_cells_are_what_numpy_parses(self, tmp_path, cell):
        """A price cell is what numpy's C parser reads, so these three are
        refused although Python's ``float`` reads ``1_000`` and ``١٢``.
        The row-loop oracle keeps ``float``: it is the loader this one
        replaced, and the property test compares both only on tables whose
        cells the two parsers read alike."""
        path = write(tmp_path, f"date,A,B\n2020-01-01,1,2\n2020-01-02,{cell},3\n")
        with pytest.raises(FormatError) as exc:
            load_price_table(path)
        assert str(exc.value) == f"{path}:3: unparseable price {cell!r} for A"


@pytest.fixture(scope="module")
def bench_workloads():
    """``bench/workloads.py``, read as it is (dataclasses need it registered)."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["mir_panel", "pmfg_wide", "corr_wide"])
def test_bench_tables_identical_to_oracle(tmp_path, bench_workloads, name):
    # the benchmark's first table of seed 1 (synth seed 1000), at its smoke size
    spec = bench_workloads.smoke(name).synth_specs(1)[0]
    assert spec["seed"] == 1000
    path = write(tmp_path, generate_price_table(SynthSpec(**spec)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        load(path)


@st.composite
def price_tables(draw):
    """A small table with the layouts a price file can have, its delimiter,
    and the number of rows the loader should drop with the first one's line."""
    delimiter = draw(st.sampled_from([",", "\t"]))
    pads = ["", " ", "  "] if delimiter == "\t" else ["", " ", "\t "]
    pad = st.sampled_from(pads)
    tickers = ["A", "B", "C"][: draw(st.integers(1, 3))]
    header = list(tickers)
    date_idx = draw(st.integers(0, len(tickers)))
    header.insert(date_idx, "date")
    days = draw(st.lists(st.integers(1, 28), max_size=7, unique=True))
    if draw(st.integers(0, 4)):
        days.sort()
    number = st.floats(1e-3, 1e6).map(repr) | st.floats(1e-3, 1e6).map("{:.8f}".format)
    special = st.sampled_from(["", " ", "nan", "inf", "0", "-1.5", "oops", "1#5"])

    def cell(text):
        # quoted as csv quotes a field, or padded
        if text.strip() and draw(st.booleans()):
            return f'"{text}"'
        return draw(pad) + text + draw(pad)

    lines = [delimiter.join(header)]
    dropped = []
    for day in days:
        prices = [draw(special if draw(st.integers(0, 9)) == 0 else number) for _ in tickers]
        cells = [cell(p) for p in prices]
        # now and then a date that is no YYYY-MM-DD day, refused by both loaders
        date = f"2020-01-{day:02d}" if draw(st.integers(0, 19)) else f"2020-1-{day}"
        cells.insert(date_idx, cell(date))
        if draw(st.integers(0, 19)) == 0:
            cells.pop()  # a short row
        elif any(not p.strip() for p in prices):
            dropped.append(len(lines) + 1)
        lines.append(delimiter.join(cells))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", delimiter * len(tickers)])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return text, delimiter, dropped


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    return tmp_path_factory.mktemp("table") / "prices.csv"


@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(table=price_tables())
def test_loader_matches_row_loop_oracle(table_path, table):
    text, delimiter, dropped = table
    table_path.write_bytes(text.encode())
    expected = outcome(oracle_load_price_table, table_path, delimiter=delimiter)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = outcome(load_price_table, table_path, delimiter=delimiter)
    assert got == expected
    # these filters override -W, so a leaked loadtxt warning is checked here
    assert not [w for w in caught if str(w.message).startswith("loadtxt")]
    if isinstance(got, list):
        drops = [str(w.message) for w in caught if "missing price" in str(w.message)]
        expected_drops = [
            f"dropped {len(dropped)} row(s) with a missing price, "
            f"the first at {table_path}:{line}"
            for line in dropped[:1]
        ]
        assert drops == expected_drops


class TestPriceSeriesInvariants:
    def test_dates_strictly_increasing(self):
        with pytest.raises(ValidationError):
            PriceSeries("A", ("2020-01-02", "2020-01-01"), np.array([1.0, 2.0]))

    def test_duplicate_dates_rejected(self):
        with pytest.raises(ValidationError):
            PriceSeries("A", ("2020-01-01", "2020-01-01"), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("dates, bad", [
        (("2020-01-01", "2020-1-2"), "'2020-1-2'"),
        (("d1", "d2"), "'d1'"),
        (("2020-01-01", 2), "2"),
    ])
    def test_dates_are_iso_days(self, dates, bad):
        message = f"^A: date {bad} is not a day written YYYY-MM-DD$"
        with pytest.raises(ValidationError, match=message):
            PriceSeries("A", dates, np.array([1.0, 2.0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="^A: 3 dates vs 2 prices$"):
            PriceSeries("A", ("d1", "d2", "d3"), np.array([1.0, 2.0]))

    def test_fewer_than_two_prices_rejected(self):
        with pytest.raises(InsufficientDataError, match="^A: need at least 2 price rows, got 1$"):
            PriceSeries("A", ("d1",), np.array([1.0]))

    @pytest.mark.parametrize("price", [0.0, -2.0, np.inf])
    def test_non_positive_price_rejected(self, price):
        with pytest.raises(ValidationError, match=f"^A: non-positive price {price} on d2$"):
            PriceSeries("A", ("d1", "d2", "d3"), np.array([1.0, price, 3.0]))


class TestReturnAndSymbolInvariants:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_return_rejected(self, value):
        with pytest.raises(ValidationError, match="^A: non-finite return values$"):
            ReturnSeries("A", np.array([0.1, value]))

    def test_alphabet_below_two_rejected(self):
        with pytest.raises(ValidationError, match="alphabet size must be >= 2, got 1"):
            SymbolSequence("A", 1, np.array([0, 0]))

    @pytest.mark.parametrize("symbol", [-1, 3])
    def test_symbol_outside_alphabet_rejected(self, symbol):
        with pytest.raises(ValidationError, match=r"^A: symbols outside \[0, 2\]$"):
            SymbolSequence("A", 3, np.array([0, symbol, 2]))


class TestLogReturns:
    def test_constant_prices(self):
        dates = ("2020-01-01", "2020-01-02", "2020-01-03")
        s = PriceSeries("A", dates, np.array([5.0, 5.0, 5.0]))
        assert log_returns(s).returns.tolist() == [0.0, 0.0]

    def test_ln_e(self):
        s = PriceSeries("A", ("2020-01-01", "2020-01-02"), np.array([1.0, math.e]))
        assert log_returns(s).returns == pytest.approx([1.0])

    def test_ten_percent_move(self):
        s = PriceSeries("A", ("2020-01-01", "2020-01-02"), np.array([100.0, 110.0]))
        # oracle: math.log(1.1)
        assert log_returns(s).returns == pytest.approx([0.09531017980432486])

    def test_length(self):
        dates = tuple(f"2020-01-{day:02d}" for day in range(1, 11))
        s = PriceSeries("A", dates, np.arange(1.0, 11.0))
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

    @settings(max_examples=max(200, settings.default.max_examples), deadline=None)
    @given(st.data())
    @pytest.mark.filterwarnings("ignore:.*exceeds sqrt")
    def test_symbols_equal_stable_argsort_ranks(self, data):
        # ties, signed zeros (equal as returns), constant and all-distinct
        # series bin as ranks from one stable argsort do
        alphabet = data.draw(st.integers(2, 10))
        m = st.integers(alphabet, 300)
        finite = st.floats(allow_nan=False, allow_infinity=False)
        kind = data.draw(st.sampled_from(["pool", "constant", "distinct"]))
        if kind == "pool":
            pool = data.draw(st.lists(finite, max_size=3)) + [0.0, -0.0]
            returns = data.draw(st.lists(st.sampled_from(pool), min_size=alphabet, max_size=300))
        elif kind == "constant":
            returns = [data.draw(st.sampled_from([0.0, -0.0]) | finite)] * data.draw(m)
        else:
            returns = data.draw(st.lists(finite, min_size=alphabet, max_size=300, unique=True))
        returns = np.array(returns)
        sym = discretize(ReturnSeries("A", returns), alphabet)
        assert sym.symbols.tolist() == stable_sort_symbols(returns, alphabet).tolist()

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
