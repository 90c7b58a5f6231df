import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import oracle_read_series_csv

from primelab import (
    CountSeries,
    FitResult,
    build_series,
    classical_census,
    gaussian_census,
)
from primelab import report
from primelab import series as analysis
from primelab.report import (
    FIT_HEADER,
    MAX_POLYLINE_POINTS,
    SERIES_HEADER,
    MapeSummary,
    MonoidSummary,
    read_series_csv,
    render_svg,
    svg_text,
    write_csv,
)


def series_csv_text(series: CountSeries) -> str:
    """The series CSV that write_csv writes, as one string."""
    return b"".join(report._series_csv_blocks(series)).decode("ascii")


def small_series(estimator=True):
    est = (lambda xs: np.array([1.5, 4.0, 8.25])) if estimator else None
    return CountSeries(np.array([3, 7, 12]), np.array([2, 4, 8]), est, {"domain": "test"})


def empty_series():
    z = np.array([], dtype=np.int64)
    return CountSeries(z, z)


def test_series_csv_exact_text():
    ser = small_series()
    text = series_csv_text(ser)
    lines = text.splitlines()
    assert lines[0] == "x,actual,estimate,ratio,abs_pct_err"
    assert lines[1] == "3,2,1.5,1.33333,25.00000"
    assert lines[2] == "7,4,4,1.00000,0.00000"
    assert lines[3] == "12,8,8.25,0.96970,3.12500"
    assert text.endswith("\n")


def test_series_csv_empty_fields_without_estimator():
    text = series_csv_text(small_series(estimator=False))
    assert text.splitlines()[1] == "3,2,,,"


def test_series_csv_zero_actual_has_no_error(tmp_path):
    ser = CountSeries(np.array([5, 6]), np.array([0, 1]), lambda xs: np.array([2.0, 2.0]))
    lines = series_csv_text(ser).splitlines()
    assert lines[1] == "5,0,2,0.00000,"  # ratio defined (0), pct_err not


def test_empty_series_writes_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(empty_series(), path)
    assert path.read_text() == "x,actual,estimate,ratio,abs_pct_err\n"


def test_series_round_trip(tmp_path):
    ser = small_series()
    path = tmp_path / "series.csv"
    write_csv(ser, path)
    back = read_series_csv(path)
    assert back.x.tolist() == ser.x.tolist()
    assert back.actual.tolist() == ser.actual.tolist()
    # the estimate, ratio and error columns are parsed but not kept: a CSV names no estimator
    assert back.estimator is None and back.label() == "source=csv"


def test_series_read_from_csv_is_read_only(tmp_path):
    path = tmp_path / "series.csv"
    write_csv(small_series(), path)
    back = read_series_csv(path)
    for column in (back.x, back.actual):
        assert not column.flags.writeable
        assert column.flags.owndata and column.dtype == np.int64  # 8 bytes a row, no parsed rows behind it
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 99


@pytest.mark.parametrize(
    "row",
    [
        "3,1,0.5",
        "3,1,0.5,2.0,50.0,7",
        "3,one,0.5,2.0,50.0",
        "2.5,1,0.5,2.0,50.0",
        # no code reads the last three fields, but each is still parsed
        "3,1,abc,2.0,50.0",
        "3,1,0.5,2.0.1,50.0",
        "3,1,0.5,2.0,5x",
    ],
)
def test_read_series_csv_names_the_bad_line(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"x,actual,estimate,ratio,abs_pct_err\n2,1,0.5,2.00000,50.00000\n{row}\n")
    with pytest.raises(ValueError, match=r"bad\.csv line 3: "):
        read_series_csv(path)


@pytest.mark.parametrize(
    "rows, reason",
    [
        ("2,1,,,\n2,1,,,\n", "x must be strictly increasing"),  # x repeats
        ("3,1,,,\n2,1,,,\n", "x must be strictly increasing"),  # x decreases
        ("2,2,,,\n3,1,,,\n", "actual must be nondecreasing"),
    ],
)
def test_read_series_csv_order_errors_name_the_file(tmp_path, rows, reason):
    path = tmp_path / "bad.csv"
    path.write_text(f"{SERIES_HEADER}\n{rows}")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {reason}$"):
        read_series_csv(path)


def test_fit_csv_format(tmp_path):
    path = tmp_path / "fit.csv"
    write_csv([FitResult(c=1.0453167, e=1.04862, rms_rel_err=0.0041234567)], path)
    assert path.read_text() == f"{FIT_HEADER}\n1.04532,1.04862,0.00412346\n"
    assert FIT_HEADER == "c,e,rms_rel_err"


def test_monoid_summary_format(tmp_path):
    row = MonoidSummary(
        d=13, largest_element=9998, actual_count=653, estimate=648.329, r_ratio=653 / 648.329,
        mape_pct=2.964,
    )
    path = tmp_path / "summary.csv"
    write_csv([row], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "d,largest_element,actual_count,estimate,R_d,abs_R_minus_1,mape_pct"
    assert lines[1] == "13,9998,653,648.33,1.00720,0.00720,2.96"


def test_mape_summary_format(tmp_path):
    path = tmp_path / "mape.csv"
    write_csv([MapeSummary(10**6, 8.6951), MapeSummary(10**7, 7.2200)], path)
    lines = path.read_text().splitlines()
    assert lines == ["norm_bound,mape_pct", "1000000,8.695", "10000000,7.220"]


def test_write_csv_rejects_unknown_rows(tmp_path):
    with pytest.raises(TypeError):
        write_csv([object()], tmp_path / "x.csv")
    with pytest.raises(ValueError):
        write_csv([], tmp_path / "x.csv")


def test_svg_structure(tmp_path):
    ser = small_series()
    text = svg_text(ser)
    assert text.startswith("<svg")
    assert 'width="800" height="600"' in text
    assert text.count("<polyline") == 2
    assert ">actual</text>" in text
    assert ">estimate</text>" in text
    assert "domain=test" in text


def test_svg_single_point_uses_markers():
    ser = CountSeries(np.array([10]), np.array([4]), lambda xs: np.array([5.0]))
    text = svg_text(ser)
    assert "<polyline" not in text
    assert text.count("<circle") == 2


def test_svg_without_estimates_has_one_curve():
    text = svg_text(small_series(estimator=False))
    assert text.count("<polyline") == 1
    assert ">estimate</text>" not in text


def test_svg_deterministic(tmp_path):
    ser = small_series()
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    render_svg(ser, p1)
    render_svg(ser, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_svg_rejects_empty_series():
    with pytest.raises(ValueError):
        svg_text(empty_series())


def test_svg_thins_long_series():
    n = 10_000
    xs = np.arange(2, 2 + n)
    ser = CountSeries(xs, np.arange(n), lambda v: v / 2.0)
    text = svg_text(ser)
    longest = max(len(line) for line in text.splitlines())
    assert longest < 40_000  # ~2000 vertices at most per polyline


# Reference oracle: the drawn rows are every row up to MAX_POLYLINE_POINTS,
# else every stride-th row and the last. Both curves go through them (the
# estimate through those that carry one), and the axes span the drawn points.


def oracle_polyline_points(series):
    x, actual, est, _, _ = series.rows()
    n = len(x)
    keep = np.arange(0, n, -(-n // MAX_POLYLINE_POINTS))
    keep = np.append(keep, n - 1) if keep[-1] != n - 1 else keep
    xs, actual, est = x[keep].astype(np.float64), actual[keep].astype(np.float64), est[keep]
    est_mask = ~np.isnan(est)
    x_min, x_max = float(xs[0]), float(xs[-1])
    y_top = max([float(actual.max()), *est[est_mask].tolist()])
    y_top = y_top * 1.05 if y_top > 0 else 1.0
    x_span = (x_max - x_min) or 1.0
    curves = [(xs, actual)]
    if est_mask.any():
        curves.append((xs[est_mask], est[est_mask]))
    return [
        " ".join(
            f"{75 + (a - x_min) / x_span * 700:.2f},{545 - b / y_top * 500:.2f}"
            for a, b in zip(cx, cy)
        )
        for cx, cy in curves
    ]


def stored_estimates(n, defined, peak_at=None):
    """Estimates x / 2.5 + 7 where defined(x), NaN elsewhere, held in an
    array that the estimator looks up by x."""
    xs = np.arange(2, 2 + n)
    est = np.where(defined(xs), xs / 2.5 + 7.0, np.nan)
    if peak_at is not None:
        est[peak_at] = 10.0 * n  # above every count and every other estimate
    return CountSeries(xs, np.arange(n), lambda v: est[v - 2])


SVG_SERIES = {
    "every-row": lambda: stored_estimates(5000, lambda xs: xs > 0),
    "late-rows": lambda: stored_estimates(5000, lambda xs: xs >= 3000),
    "every-third-row": lambda: stored_estimates(7000, lambda xs: xs % 3 == 0),
    "one-row": lambda: stored_estimates(2500, lambda xs: xs == 1000),
    "no-row": lambda: stored_estimates(2500, lambda xs: xs < 0),
    # 5000 rows are drawn every third row: the peak at row 1 is not drawn
    "peak-between-drawn-rows": lambda: stored_estimates(5000, lambda xs: xs > 0, peak_at=1),
    "gauss-estimator": lambda: build_series(gaussian_census(5000, "both-axes")),
}


@pytest.mark.parametrize("chunk_rows", [1, 3, 7, analysis.CHUNK_ROWS])
@pytest.mark.parametrize("case", sorted(SVG_SERIES))
def test_svg_polylines_match_whole_array_oracle(monkeypatch, case, chunk_rows):
    monkeypatch.setattr(analysis, "CHUNK_ROWS", chunk_rows)
    ser = SVG_SERIES[case]()
    polylines = [
        line.split(' points="')[1].removesuffix('"/>')
        for line in svg_text(ser).splitlines()
        if line.startswith("<polyline")
    ]
    expected = oracle_polyline_points(ser)
    if case == "one-row":
        assert len(polylines) == 1 and "<circle" in svg_text(ser)  # one estimate: a marker
        expected = expected[:1]
    assert polylines == expected


def test_svg_evaluates_only_the_drawn_rows():
    evaluated = []

    def estimator(xs):
        evaluated.append(len(xs))
        return xs / 2.0

    n = 100_000
    svg_text(CountSeries(range(2, 2 + n), np.arange(n), estimator))
    assert sum(evaluated) <= MAX_POLYLINE_POINTS + 1


# Reference oracles: the per-row writer and per-line parser that the block
# writer and the numpy reader replaced. Bytes and parsed arrays must match.


def oracle_series_csv_text(columns):
    """The series CSV of the five columns x, actual, estimate, ratio and pct_err."""
    lines = [SERIES_HEADER]
    for x, actual, est, ratio, pct in zip(*columns):
        est_s = "" if math.isnan(est) else f"{est:.6g}"
        ratio_s = "" if math.isnan(ratio) else f"{ratio:.5f}"
        pct_s = "" if math.isnan(pct) else f"{pct:.5f}"
        lines.append(f"{int(x)},{int(actual)},{est_s},{ratio_s},{pct_s}")
    return "\n".join(lines) + "\n"


def oracle_read_series_columns(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    assert lines[0] == SERIES_HEADER
    cols = ([], [], [], [], [])
    for line in lines[1:]:
        if not line:
            continue
        fx, fa, fe, fr, fp = line.split(",")
        cols[0].append(int(fx))
        cols[1].append(int(fa))
        for col, field in zip(cols[2:], (fe, fr, fp)):
            col.append(float(field) if field else math.nan)
    return [np.array(c, dtype=np.int64) for c in cols[:2]] + [np.array(c) for c in cols[2:]]


def tie_and_edge_floats():
    """Floats where a digit-arithmetic formatter can slip: exact and near
    .5 ties, the edges of each printed decade, values whose log10 rounds to
    an integer, and the extremes of the format."""
    vals = [0.0, -0.0, 5e-324, 1.7e308, math.inf, -math.inf, math.nan, 1e-4, 1e-5, 1e-7, 1e12]
    vals += [999999.5, 9.999995, 99999.95, 0.5, 2.0 / 3.0, 999999.9999999999, 0.015625]
    for k in range(41):  # odd / 2**k times 10**(k - 1) is an exact .5 tie
        for odd in (1, 3, 5, 7, 99, 12345):
            vals.append(odd / 2.0**k)
    for k in range(-8, 9):  # decimal ties in the sixth digit: no double is one, many are close
        for tie in (1.000005, 1.234565, 2.718285, 9.876545, 4.000015):
            vals.append(tie * 10.0**k)
    for k in range(-20, 30):
        for share in (1 - 5e-7, 1.0, 1 + 5e-7):
            vals.append(10.0**k * share)
        vals.append(math.nextafter(10.0**k, 0.0))  # log10 of these can round up to k
    near = [math.nextafter(v, t) for v in vals for t in (-math.inf, math.inf)]
    scaled = [v * s for v in vals for s in (1e-5, 1e-1, 1e5)]
    signed = [*vals, *near, *scaled]
    return signed + [-v for v in signed]


TIE_AND_EDGE_FLOATS = tie_and_edge_floats()
any_float = st.one_of(
    st.sampled_from(TIE_AND_EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True)
)


def format_blocks(columns, block_rows):
    """The series CSV of the five columns, each run of block_rows rows
    formatted by the writer's block formatter."""
    n = len(columns[0])
    blocks = (
        report._format_rows(tuple(col[lo : lo + block_rows] for col in columns))
        for lo in range(0, n, block_rows)
    )
    return (SERIES_HEADER + "\n").encode() + b"".join(blocks)


@st.composite
def series_columns(draw):
    # up to a few hundred rows, so that rows of both formatting paths share a
    # block: each float column repeats a drawn run of values from its own offset
    n = draw(st.integers(min_value=0, max_value=300))
    ints = st.integers(min_value=-(2**63), max_value=2**63 - 1)
    xs = sorted(draw(st.sets(ints, min_size=n, max_size=n)))
    actual = sorted(draw(st.lists(ints, min_size=n, max_size=n)))
    runs = [draw(st.lists(any_float, min_size=1, max_size=40)) for _ in range(3)]
    offsets = [draw(st.integers(min_value=0, max_value=39)) for _ in range(3)]
    return (
        np.array(xs, dtype=np.int64),
        np.array(actual, dtype=np.int64),
        *(np.roll(np.resize(run, n), k) for run, k in zip(runs, offsets)),
    )


@pytest.mark.parametrize("block_rows", [1, 3, 7, analysis.CHUNK_ROWS])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(columns=series_columns())
def test_series_csv_matches_reference_oracles(tmp_path, block_rows, columns):
    expected = oracle_series_csv_text(columns).encode("ascii")
    text = format_blocks(columns, block_rows)
    assert text == expected
    # every field the writer prints reads back, and x and actual as the oracle parses them
    path = tmp_path / "series.csv"
    path.write_bytes(text)
    back = read_series_csv(path)
    for got, want in zip((back.x, back.actual), oracle_read_series_columns(path)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("block_rows", [7, analysis.CHUNK_ROWS])
@pytest.mark.parametrize("column", [0, 1, 2, None])
def test_series_csv_prints_tie_and_edge_floats_as_the_oracle(block_rows, column):
    vals = np.array(TIE_AND_EDGE_FLOATS)
    n = len(vals)
    if column is None:  # every value in every column, beside values of both paths
        columns = (vals, np.roll(vals, n // 3), np.roll(vals, 2 * n // 3))
    else:  # one column of the values, the others printed without the percent path
        columns = tuple(vals if k == column else np.full(n, 0.75) for k in range(3))
    top = np.iinfo(np.int64).max
    actual = np.concatenate([[-(2**63), -(2**40), -1], np.arange(n - 3) * 2**40])
    columns = (top - n + 1 + np.arange(n), actual, *columns)
    assert format_blocks(columns, block_rows) == oracle_series_csv_text(columns).encode("ascii")


def count_percent_rows(monkeypatch):
    """Count the rows the series CSV writer leaves to its printf-style path."""
    calls = []
    percent_row = report._percent_row

    def counted(values):
        calls.append(values)
        return percent_row(values)

    monkeypatch.setattr(report, "_percent_row", counted)
    return calls


FAST_PATH_SERIES = {
    "gauss-1e5": lambda: build_series(gaussian_census(10**5, "both-axes")),
    "classical-1e5": lambda: build_series(classical_census(10**5)),
    # estimates 1e3 .. 1e8: fixed notation up to 999999, e+06 to e+08 above
    "both-notations": lambda: CountSeries(
        range(1, 10**5 + 1), np.arange(1, 10**5 + 1), lambda xs: xs * 1e3
    ),
}


@pytest.mark.parametrize("case", sorted(FAST_PATH_SERIES))
def test_series_csv_formats_real_series_without_the_percent_path(monkeypatch, case):
    ser = FAST_PATH_SERIES[case]()
    calls = count_percent_rows(monkeypatch)
    text = series_csv_text(ser)
    assert calls == []
    assert text == oracle_series_csv_text(ser.rows())
    if case == "both-notations":
        assert "e+06," in text and "e+08," in text and ",999000," in text


def test_series_csv_leaves_ties_and_infinities_to_the_percent_path(monkeypatch):
    # row 1 has an exact tie (0.015625 * 1e5 = 1562.5), row 2 an infinite estimate
    est, ratio, pct = [1.5, math.inf, 2.0], [0.015625, 1.0, 1.0], [1.0, 1.0, 1.0]
    columns = tuple(np.array(col) for col in ([1, 2, 3], [1, 1, 2], est, ratio, pct))
    calls = count_percent_rows(monkeypatch)
    assert format_blocks(columns, 3) == oracle_series_csv_text(columns).encode("ascii")
    assert [row[0] for row in calls] == [1, 2]


def write_series_file(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    return path


def test_read_series_csv_line_number_counts_blank_lines(tmp_path):
    path = write_series_file(
        tmp_path, f"{SERIES_HEADER}\n2,1,0.5,2.00000,50.00000\n\n3,one,0.5,2.0,50.0\n"
    )
    with pytest.raises(ValueError, match=r"bad\.csv line 4: "):
        read_series_csv(path)


def test_read_series_csv_names_a_bad_line_deep_in_the_file(tmp_path):
    rows = [f"{x},1,0.5,2,50\n" for x in range(2, 100_002)]
    rows[70_000] = "70002,1,0.5\n"  # file line 70_002, past numpy's first batches
    path = write_series_file(tmp_path, SERIES_HEADER + "\n" + "".join(rows))
    with pytest.raises(ValueError, match=r"bad\.csv line 70002: "):
        read_series_csv(path)


def test_read_series_csv_rejects_bad_header(tmp_path):
    path = write_series_file(tmp_path, "x,actual,estimate\n2,1,0.5\n")
    with pytest.raises(ValueError, match=r"bad\.csv is not a series CSV \(bad header\)"):
        read_series_csv(path)


def test_read_series_csv_header_only_is_empty_without_warning(tmp_path):
    path = write_series_file(tmp_path, SERIES_HEADER + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = read_series_csv(path)
    assert len(back) == 0
    assert back.x.dtype == np.int64 and back.actual.dtype == np.int64


def test_read_series_csv_last_row_without_newline_keeps_empty_fields(tmp_path):
    # empty fields parse, a trailing one at the end of the file too
    path = write_series_file(tmp_path, f"{SERIES_HEADER}\n2,1,0.5,2.00000,\n3,1,,,")
    back = read_series_csv(path)
    assert back.x.tolist() == [2, 3] and back.actual.tolist() == [1, 1]


def test_read_series_csv_undecodable_text_names_no_line(tmp_path):
    # text is decoded in chunks ahead of the lines handed to numpy, so a line
    # count taken there would name the wrong line
    rows = "".join(f"{x},1,0.5,2,50\n" for x in range(2, 5000))
    path = tmp_path / "bad.csv"
    path.write_bytes(f"{SERIES_HEADER}\n{rows}5000,1,\xff,2,50\n".encode("latin-1"))
    with pytest.raises(UnicodeDecodeError):
        read_series_csv(path)


# The block reader against the reader it replaced (oracles.oracle_read_series_csv):
# the same x and actual or the same error message, whatever the block size.

READ_BLOCK_CHARS = [1, 7, 64, report._READ_BLOCK_CHARS]
VALID_ROWS = [
    "2,1,2.88539,0.34657,188.53901",
    "3,2,,0.5,",
    "5,3,4.0,0.75000,25.00000",
    "7,4,,,",
    "11,5,6.5,0.76923,23.07692",
    "13,6,7.25,,",
    "17,7,8.125,0.86154,16.15385",
    "19,8,,0.91,9.0",
    "23,9,10.5,0.85714,14.28571",
    "29,10,11.75,0.85106,14.89362",
]
BAD_ROWS = [
    "3,one,0.5,2.0,50.0",  # a bad integer
    "3,1,0.5,2.0.1,50.0",  # a bad float
    "3,1,,2.0,5x",  # a bad float beside an empty field
    ",1,,,",  # an empty x
    "3,1,0.5",  # too few fields
    "3,1,0.5,2.0,50.0,7",  # too many
    "3,1,,,,,",  # too many, all empty
]


def read_outcome(read, path):
    """x and actual as lists, or the type and message of the error."""
    try:
        ser = read(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return ser.x.tolist(), ser.actual.tolist()


def assert_reads_as_the_oracle(monkeypatch, path, block_chars):
    monkeypatch.setattr(report, "_READ_BLOCK_CHARS", block_chars)
    got = read_outcome(read_series_csv, path)
    assert got == read_outcome(oracle_read_series_csv, path), block_chars
    return got


def block_roles(body: str, block_chars: int) -> list[set]:
    """The roles of each newline-ended line of body (the text after the
    header) in the reader's blocks of block_chars characters: "first" or
    "last" of the lines parsed together (those whose newline one read
    brings in), and "spans" when a read cuts the line."""
    ends = [i for i, ch in enumerate(body) if ch == "\n"]
    starts = [0] + [end + 1 for end in ends[:-1]]
    reads = [end // block_chars for end in ends]
    roles = []
    for i, (start, end) in enumerate(zip(starts, ends)):
        role = set()
        if i == 0 or reads[i - 1] != reads[i]:
            role.add("first")
        if i == len(ends) - 1 or reads[i + 1] != reads[i]:
            role.add("last")
        if start // block_chars != end // block_chars:
            role.add("spans")
        roles.append(role)
    return roles


READ_BODIES = {
    "blank-lines": "\n" + "\n\n".join(VALID_ROWS[:4]) + "\n\n\n" + "\n".join(VALID_ROWS[4:]) + "\n\n",
    "crlf": "\r\n".join(VALID_ROWS) + "\r\n",
    "lone-cr": "\r".join(VALID_ROWS) + "\r",
    "last-line-ends-in-comma": "\n".join(VALID_ROWS[:-1]) + "\n31,11,12.0,0.9,",
    "last-line-empty-fields": "\n".join(VALID_ROWS) + "\n31,11,,,",
    "some-rows-empty": "\n".join(VALID_ROWS) + "\n",
    "every-row-empty": "".join(f"{x},{x // 3},,,\n" for x in range(1, 40)),
    "no-row-empty": "".join(f"{x},{x // 3},0.5,1.00000,2.50000\n" for x in range(1, 40)),
    "header-only": "",
}


@pytest.mark.parametrize("block_chars", READ_BLOCK_CHARS)
@pytest.mark.parametrize("name", sorted(READ_BODIES))
def test_read_series_csv_blocks_read_as_the_oracle(tmp_path, monkeypatch, name, block_chars):
    path = tmp_path / "series.csv"
    path.write_bytes(f"{SERIES_HEADER}\n{READ_BODIES[name]}".encode())
    x, actual = assert_reads_as_the_oracle(monkeypatch, path, block_chars)
    assert [x, actual] == [col.tolist() for col in oracle_read_series_columns(path)[:2]]


@pytest.mark.parametrize("block_chars", READ_BLOCK_CHARS)
@pytest.mark.parametrize("bad", BAD_ROWS)
def test_read_series_csv_blocks_name_the_bad_line_as_the_oracle(tmp_path, monkeypatch, bad, block_chars):
    """The bad row in each place of a file with a blank line, the file
    shifted by spaces that numpy strips from a first row's last field: the
    bad row is the first line of a block, the last, and a line that a read
    cuts, at every block size below the file's length."""
    path = tmp_path / "bad.csv"
    roles = set()
    for shift in range(min(block_chars, 16)):
        for at in range(len(VALID_ROWS)):
            rows = ["1,0,1.5,0.5,1.0" + " " * shift, *VALID_ROWS]
            rows[at + 1] = bad
            body = "\n".join(rows[:3]) + "\n\n" + "\n".join(rows[3:]) + "\n"
            path.write_text(f"{SERIES_HEADER}\n{body}")
            kind, message = assert_reads_as_the_oracle(monkeypatch, path, block_chars)
            line = at + 3 + (at >= 2)  # the header, the first row and the blank line come before
            assert kind is ValueError and message.startswith(f"{path} line {line}: "), message
            roles |= block_roles(body, block_chars)[line - 2]
    if block_chars < len(body):
        assert roles == {"first", "last", "spans"}, roles


@st.composite
def series_file_bodies(draw):
    """Lines of a series CSV after its header: rows with empty fields, now
    and then a row with odd or bad fields or of another width, and blank
    lines, joined by one kind of line ending, with or without a final one."""
    good = ["", "0.5", "2.00000", "1e+06", "nan", "-inf", "-0.0", " 1 "]
    fields, odd_fields = st.sampled_from(good), st.sampled_from([*good, " ", "x", "1.2.3"])
    ints = st.sampled_from(["", "1", "7", " 3", "-2", "1.0", "é"])
    lines, x = [], 0
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        kind = draw(st.sampled_from(["row"] * 8 + ["blank"] * 2 + ["odd"]))
        if kind == "blank":
            lines.append("")
            continue
        x += draw(st.integers(min_value=1, max_value=1000))
        if kind == "row":  # parses, so only the order of x and actual can fail
            lines.append(",".join([str(x), str(x // 2), *draw(st.lists(fields, min_size=3, max_size=3))]))
        else:
            width = draw(st.integers(min_value=1, max_value=7))
            row = [str(x), draw(ints), *draw(st.lists(odd_fields, min_size=3, max_size=3))]
            lines.append(",".join([*row, *[""] * (width - 5)][:width]))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    body=series_file_bodies(),
    block_chars=st.one_of(st.integers(min_value=1, max_value=80), st.just(report._READ_BLOCK_CHARS)),
)
def test_read_series_csv_blocks_match_the_oracle_on_any_rows(tmp_path, monkeypatch, body, block_chars):
    path = tmp_path / "series.csv"
    path.write_text(f"{SERIES_HEADER}\n{body}", encoding="utf-8", newline="")
    got = assert_reads_as_the_oracle(monkeypatch, path, block_chars)
    if got[0] is not ValueError:
        assert list(got) == [col.tolist() for col in oracle_read_series_columns(path)[:2]]
