import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from primelab import (
    CountSeries,
    FitResult,
    build_series,
    estimate_pi_G,
    gaussian_census,
)
from primelab import series as analysis
from primelab.report import (
    FIT_HEADER,
    MAX_POLYLINE_POINTS,
    SERIES_HEADER,
    MapeSummary,
    MonoidSummary,
    read_series_csv,
    render_svg,
    series_csv_text,
    svg_text,
    write_csv,
)


def small_series(estimator=True):
    est = (lambda xs: np.array([1.5, 4.0, 8.25])) if estimator else None
    return CountSeries(np.array([3, 7, 12]), np.array([2, 4, 8]), est, {"domain": "test"})


def empty_series():
    z = np.array([], dtype=np.int64)
    f = np.array([], dtype=np.float64)
    return CountSeries(z, z, columns=(f, f, f))


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
    # printed precision: 6 significant digits / 5 decimals
    assert np.allclose(back.estimate, ser.estimate, rtol=1e-5)
    assert np.allclose(back.ratio, ser.ratio, atol=1e-5)
    assert np.allclose(back.pct_err, ser.pct_err, atol=1e-5)


def test_round_trip_preserves_missing_values(tmp_path):
    ser = CountSeries(np.array([5, 6]), np.array([0, 1]), lambda xs: np.array([2.0, 2.0]))
    path = tmp_path / "gaps.csv"
    write_csv(ser, path)
    back = read_series_csv(path)
    assert math.isnan(back.pct_err[0]) and not math.isnan(back.pct_err[1])


@pytest.mark.parametrize(
    "row", ["3,1,0.5", "3,1,0.5,2.0,50.0,7", "3,one,0.5,2.0,50.0", "2.5,1,0.5,2.0,50.0"]
)
def test_read_series_csv_names_the_bad_line(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"x,actual,estimate,ratio,abs_pct_err\n2,1,0.5,2.00000,50.00000\n{row}\n")
    with pytest.raises(ValueError, match=r"bad\.csv line 3: "):
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


# Reference oracle: the whole-array vertex choice that the thin-first SVG
# replaced (every row for the y range, each curve thinned over its own rows).


def oracle_polyline_points(series):
    xs = series.x.astype(np.float64)
    est_mask = ~np.isnan(series.estimate)
    x_min, x_max = float(xs[0]), float(xs[-1])
    y_top = float(series.actual.max())
    if est_mask.any():
        y_top = max(y_top, float(series.estimate[est_mask].max()))
    y_top = y_top * 1.05 if y_top > 0 else 1.0
    x_span = (x_max - x_min) or 1.0
    curves = [(xs, series.actual.astype(np.float64))]
    if est_mask.any():
        curves.append((xs[est_mask], series.estimate[est_mask]))
    points = []
    for cx, cy in curves:
        n = len(cx)
        keep = np.arange(0, n, -(-n // MAX_POLYLINE_POINTS))
        keep = np.append(keep, n - 1) if keep[-1] != n - 1 else keep
        points.append(
            " ".join(
                f"{75 + (a - x_min) / x_span * 700:.2f},{545 - b / y_top * 500:.2f}"
                for a, b in zip(cx[keep], cy[keep])
            )
        )
    return points


def stored_estimates(n, defined):
    xs = np.arange(2, 2 + n)
    est = np.where(defined(xs), xs / 2.5 + 7.0, np.nan)
    return CountSeries(xs, np.arange(n), columns=(est, est, est))


SVG_SERIES = {
    "every-row": lambda: stored_estimates(5000, lambda xs: xs > 0),
    "late-rows": lambda: stored_estimates(5000, lambda xs: xs >= 3000),
    "every-third-row": lambda: stored_estimates(7000, lambda xs: xs % 3 == 0),
    "one-row": lambda: stored_estimates(2500, lambda xs: xs == 1000),
    "no-row": lambda: stored_estimates(2500, lambda xs: xs < 0),
    "gauss-estimator": lambda: build_series(
        gaussian_census(5000, "both-axes"), lambda ns: estimate_pi_G(np.sqrt(ns))
    ),
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


# Reference oracles: the per-row writer and per-line parser that the block
# writer and the numpy reader replaced. Bytes and parsed arrays must match.


def oracle_series_csv_text(series):
    lines = [SERIES_HEADER]
    for x, actual, est, ratio, pct in zip(
        series.x, series.actual, series.estimate, series.ratio, series.pct_err
    ):
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


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-7, 1e12, 0.5, 2.0 / 3.0]
any_float = st.one_of(
    st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=True, allow_infinity=True)
)


@st.composite
def series_columns(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    xs = sorted(draw(st.sets(st.integers(min_value=0, max_value=2**53), min_size=n, max_size=n)))
    actual = sorted(draw(st.lists(st.integers(0, 2**53), min_size=n, max_size=n)))
    floats = [draw(st.lists(any_float, min_size=n, max_size=n)) for _ in range(3)]
    return CountSeries(
        np.array(xs, dtype=np.int64),
        np.array(actual, dtype=np.int64),
        columns=tuple(np.array(col) for col in floats),
    )


@pytest.mark.parametrize("block_rows", [1, 3, 7, analysis.CHUNK_ROWS])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ser=series_columns())
def test_series_csv_matches_reference_oracles(tmp_path, monkeypatch, block_rows, ser):
    monkeypatch.setattr(analysis, "CHUNK_ROWS", block_rows)
    expected = oracle_series_csv_text(ser)
    assert series_csv_text(ser) == expected
    path = tmp_path / "series.csv"
    write_csv(ser, path)
    assert path.read_bytes() == expected.encode("utf-8")
    back = read_series_csv(path)
    for got, want in zip(
        (back.x, back.actual, back.estimate, back.ratio, back.pct_err),
        oracle_read_series_columns(path),
    ):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want, equal_nan=True)


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
    assert back.x.dtype == np.int64 and back.estimate.dtype == np.float64


def test_read_series_csv_last_row_without_newline_keeps_empty_fields(tmp_path):
    path = write_series_file(tmp_path, f"{SERIES_HEADER}\n2,1,0.5,2.00000,\n3,1,,,")
    back = read_series_csv(path)
    assert back.x.tolist() == [2, 3]
    assert back.ratio[0] == 2.0 and math.isnan(back.pct_err[0])
    assert np.isnan(back.estimate[1]) and np.isnan(back.pct_err[1])


def test_read_series_csv_undecodable_text_names_no_line(tmp_path):
    # text is decoded in chunks ahead of the lines handed to numpy, so a line
    # count taken there would name the wrong line
    rows = "".join(f"{x},1,0.5,2,50\n" for x in range(2, 5000))
    path = tmp_path / "bad.csv"
    path.write_bytes(f"{SERIES_HEADER}\n{rows}5000,1,\xff,2,50\n".encode("latin-1"))
    with pytest.raises(UnicodeDecodeError):
        read_series_csv(path)
