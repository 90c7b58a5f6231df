"""CSV and SVG emission with fixed printing rules.

All output is byte-deterministic for identical input: fixed column formats,
fixed "\n" line endings, no timestamps.  Series CSV columns print estimates
with 6 significant digits and ratio / percentage error with 5 decimals;
undefined values print as empty fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .series import CountSeries, FitResult

SERIES_HEADER = "x,actual,estimate,ratio,abs_pct_err"
MONOID_SUMMARY_HEADER = "d,largest_element,actual_count,estimate,R_d,abs_R_minus_1,mape_pct"
MAPE_SUMMARY_HEADER = "norm_bound,mape_pct"
FIT_HEADER = "c,e,rms_rel_err"

SVG_WIDTH = 800
SVG_HEIGHT = 600
# polylines are thinned to at most this many vertices
MAX_POLYLINE_POINTS = 2000


@dataclass(frozen=True)
class MonoidSummary:
    """One comparison row: census count vs estimate for a modulus d."""

    d: int
    largest_element: int
    actual_count: int
    estimate: float
    r_ratio: float
    mape_pct: float


@dataclass(frozen=True)
class MapeSummary:
    """Mean absolute percentage error at one census bound."""

    norm_bound: int
    mape_pct: float


# header and line format of each row type write_csv accepts
_ROW_FORMATS = {
    MonoidSummary: (
        MONOID_SUMMARY_HEADER,
        lambda r: f"{r.d},{r.largest_element},{r.actual_count},{r.estimate:.2f},"
        f"{r.r_ratio:.5f},{abs(r.r_ratio - 1.0):.5f},{r.mape_pct:.2f}",
    ),
    MapeSummary: (MAPE_SUMMARY_HEADER, lambda r: f"{r.norm_bound},{r.mape_pct:.3f}"),
    FitResult: (FIT_HEADER, lambda r: f"{r.c:.6g},{r.e:.6g},{r.rms_rel_err:.6g}"),
}


def write_csv(obj, path) -> None:
    """Write a CountSeries or a list of summary or fit rows to path."""
    if isinstance(obj, CountSeries):
        text = series_csv_text(obj)
    else:
        rows = list(obj)
        if not rows:
            raise ValueError("no summary rows to write")
        if type(rows[0]) not in _ROW_FORMATS:
            raise TypeError(f"cannot serialize {type(rows[0]).__name__} rows")
        header, line = _ROW_FORMATS[type(rows[0])]
        text = "\n".join([header, *map(line, rows)]) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def series_csv_text(series: CountSeries) -> str:
    lines = [SERIES_HEADER]
    for x, actual, est, ratio, pct in zip(
        series.x, series.actual, series.estimate, series.ratio, series.pct_err
    ):
        est_s = "" if math.isnan(est) else f"{est:.6g}"
        ratio_s = "" if math.isnan(ratio) else f"{ratio:.5f}"
        pct_s = "" if math.isnan(pct) else f"{pct:.5f}"
        lines.append(f"{int(x)},{int(actual)},{est_s},{ratio_s},{pct_s}")
    return "\n".join(lines) + "\n"


def read_series_csv(path) -> CountSeries:
    """Round-trip parser for series CSV files."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != SERIES_HEADER:
        raise ValueError(f"{path} is not a series CSV (bad header)")
    xs, actuals, ests, ratios, pcts = [], [], [], [], []
    try:
        for line in lines[1:]:
            if not line:
                continue
            fx, fa, fe, fr, fp = line.split(",")
            xs.append(int(fx))
            actuals.append(int(fa))
            ests.append(float(fe) if fe else math.nan)
            ratios.append(float(fr) if fr else math.nan)
            pcts.append(float(fp) if fp else math.nan)
    except ValueError as exc:
        # the first copy of the failing text is the failing line (an identical
        # earlier line would have failed first), so the loop needs no counter
        raise ValueError(f"{path} line {lines.index(line, 1) + 1}: {exc}") from exc
    return CountSeries(
        x=np.array(xs, dtype=np.int64),
        actual=np.array(actuals, dtype=np.int64),
        estimate=np.array(ests),
        ratio=np.array(ratios),
        pct_err=np.array(pcts),
        metadata={"source": "csv"},
    )


def render_svg(series: CountSeries, path) -> None:
    """Standalone 800x600 line chart: actual vs estimate on linear axes."""
    Path(path).write_text(svg_text(series), encoding="utf-8")


def svg_text(series: CountSeries) -> str:
    if len(series) == 0:
        raise ValueError("cannot render an empty series")

    margin_l, margin_r, margin_t, margin_b = 75, 25, 45, 55
    plot_w = SVG_WIDTH - margin_l - margin_r
    plot_h = SVG_HEIGHT - margin_t - margin_b

    xs = series.x.astype(np.float64)
    est_mask = ~np.isnan(series.estimate)
    x_min, x_max = float(xs[0]), float(xs[-1])
    y_top = float(series.actual.max())
    if est_mask.any():
        y_top = max(y_top, float(series.estimate[est_mask].max()))
    y_top = y_top * 1.05 if y_top > 0 else 1.0
    x_span = (x_max - x_min) or 1.0

    def px(x: float) -> float:
        return margin_l + (x - x_min) / x_span * plot_w

    def py(y: float) -> float:
        return margin_t + plot_h - y / y_top * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
        f'<text x="{SVG_WIDTH / 2:.2f}" y="25" text-anchor="middle" font-size="16" '
        f'font-family="sans-serif">{_escape(series.label())}</text>',
    ]

    # gridlines and tick labels
    for i in range(6):
        ty = y_top * i / 5
        out.append(
            f'<line x1="{margin_l}" y1="{py(ty):.2f}" x2="{SVG_WIDTH - margin_r}" '
            f'y2="{py(ty):.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{margin_l - 6}" y="{py(ty) + 4:.2f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{_fmt_tick(ty)}</text>'
        )
    for i in range(6):
        tx = x_min + x_span * i / 5
        out.append(
            f'<line x1="{px(tx):.2f}" y1="{margin_t + plot_h}" x2="{px(tx):.2f}" '
            f'y2="{margin_t + plot_h + 5}" stroke="#000000" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px(tx):.2f}" y="{margin_t + plot_h + 18}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{_fmt_tick(tx)}</text>'
        )
    out.append(
        f'<line x1="{margin_l}" y1="{margin_t + plot_h}" x2="{SVG_WIDTH - margin_r}" '
        f'y2="{margin_t + plot_h}" stroke="#000000" stroke-width="1.5"/>'
    )
    out.append(
        f'<line x1="{margin_l}" y1="{margin_t}" x2="{margin_l}" '
        f'y2="{margin_t + plot_h}" stroke="#000000" stroke-width="1.5"/>'
    )

    curves = [("actual", "#1f77b4", xs, series.actual.astype(np.float64))]
    if est_mask.any():
        curves.append(("estimate", "#ff7f0e", xs[est_mask], series.estimate[est_mask]))

    for idx, (name, color, cx, cy) in enumerate(curves):
        keep = _thin_indices(len(cx))
        cx, cy = cx[keep], cy[keep]
        if len(cx) == 1:
            out.append(
                f'<circle cx="{px(cx[0]):.2f}" cy="{py(cy[0]):.2f}" r="4" fill="{color}"/>'
            )
        else:
            pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(cx, cy))
            out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        ly = margin_t + 12 + idx * 18
        lx = margin_l + 14
        out.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" stroke="{color}" stroke-width="3"/>'
        )
        out.append(
            f'<text x="{lx + 28}" y="{ly + 4}" font-size="12" font-family="sans-serif">{name}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _thin_indices(n: int) -> np.ndarray:
    if n <= MAX_POLYLINE_POINTS:
        return np.arange(n)
    stride = -(-n // MAX_POLYLINE_POINTS)
    idx = np.arange(0, n, stride)
    if idx[-1] != n - 1:
        idx = np.append(idx, n - 1)
    return idx


def _fmt_tick(v: float) -> str:
    return f"{v:.6g}"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
