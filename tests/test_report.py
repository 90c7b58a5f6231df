import math

import numpy as np
import pytest

from primelab import CountSeries, FitResult, make_series
from primelab.report import (
    FIT_HEADER,
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
    return make_series([3, 7, 12], [2, 4, 8], est, {"domain": "test"})


def empty_series():
    z = np.array([], dtype=np.int64)
    f = np.array([], dtype=np.float64)
    return CountSeries(x=z, actual=z, estimate=f, ratio=f, pct_err=f, metadata={})


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
    ser = make_series([5, 6], [0, 1], lambda xs: np.array([2.0, 2.0]))
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
    ser = make_series([5, 6], [0, 1], lambda xs: np.array([2.0, 2.0]))
    path = tmp_path / "gaps.csv"
    write_csv(ser, path)
    back = read_series_csv(path)
    assert math.isnan(back.pct_err[0]) and not math.isnan(back.pct_err[1])


@pytest.mark.parametrize("row", ["3,1,0.5", "3,1,0.5,2.0,50.0,7", "3,one,0.5,2.0,50.0"])
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
    ser = make_series([10], [4], lambda xs: np.array([5.0]))
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
    ser = make_series(xs, np.arange(n), lambda v: v / 2.0)
    text = svg_text(ser)
    longest = max(len(line) for line in text.splitlines())
    assert longest < 40_000  # ~2000 vertices at most per polyline
