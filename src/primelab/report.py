"""CSV and SVG emission with fixed printing rules.

All output is byte-deterministic for identical input: fixed column formats,
fixed "\n" line endings, no timestamps.  Series CSV columns print estimates
with 6 significant digits and ratio / percentage error with 5 decimals;
undefined values print as empty fields.

The series CSV writer and the chart are reducers (SeriesCsvWriter, Chart),
fed by series.scan in the pass that feeds a command's statistics, so
neither needs the series whole.  A series CSV is written one block of the
series at a time, formatted by numpy digit arithmetic
into the bytes that the printf-style row format _SERIES_ROW would print,
and written to the file as it is made.  Rows where that arithmetic cannot
be sure of a rounding (near a .5 tie, infinite or negative fields, extreme
exponents) are printed by _SERIES_ROW itself; _format_rows states the rule.
The chart keeps the counts of the at most MAX_POLYLINE_POINTS + 1 rows it
draws and evaluates the estimate at those rows alone.

A series CSV is read back in two passes over blocks of _READ_BLOCK_CHARS
characters.  The first counts the lines, so that x and actual are each made
once.  The second hands each block's whole lines to numpy's C parser
(np.loadtxt) as a list of strings: first as they are, then, if numpy
rejects them, with empty fields rewritten to nan, and only if that fails
too one line at a time, to find the bad line.  Every field is parsed, so
that a bad one is caught, but only x and actual are kept: the fit reads
nothing else.  The reader holds 16 bytes a row and one block's lines and
parsed rows.  A bad header, a row of the wrong width or an unparsable field
raises ValueError naming the path and the 1-based line of the file.  The
order of x and actual is checked COUNT_BLOCK pairs at a time, and the
series it returns is x and the COUNT_BLOCK slices of actual
(sieve.count_blocks), read once like every series.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import sieve
from .series import Block, FitResult, Series, _points_at, scan

SERIES_HEADER = "x,actual,estimate,ratio,abs_pct_err"
MONOID_SUMMARY_HEADER = "d,largest_element,actual_count,estimate,R_d,abs_R_minus_1,mape_pct"
MAPE_SUMMARY_HEADER = "norm_bound,mape_pct"
FIT_HEADER = "c,e,rms_rel_err"

_SERIES_HEADER_LINE = (SERIES_HEADER + "\n").encode()
_SERIES_ROW = "%d,%d,%.6g,%.5f,%.5f\n"
# a scaled product p is off the exact one by at most 2**-53 * p (one rounding),
# so farther than this share of p from a .5 tie it rounds as the exact one would
_TIE_SHARE = 4.5e-16
_EXACT_POW10 = np.array([float(10**k) for k in range(23)])  # 1e22 is the last exact one
# characters of a series CSV that read_series_csv takes in at a time
_READ_BLOCK_CHARS = 1 << 18
_SERIES_DTYPE = np.dtype(
    [("x", "i8"), ("actual", "i8"), ("estimate", "f8"), ("ratio", "f8"), ("pct_err", "f8")]
)

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
    """Write a list of summary or fit rows to path (a series is written by
    a SeriesCsvWriter fed by its pass)."""
    rows = list(obj)
    if not rows:
        raise ValueError("no summary rows to write")
    if type(rows[0]) not in _ROW_FORMATS:
        raise TypeError(f"cannot serialize {type(rows[0]).__name__} rows")
    header, line = _ROW_FORMATS[type(rows[0])]
    _write(path, ["\n".join([header, *map(line, rows)]) + "\n"])


class SeriesCsvWriter:
    """The CSV of a series at path, as a reducer: the file is opened and its
    header written when the writer is made, so that an unwritable path fails
    before the pass; each block's lines (_format_rows) are written as they
    are made, and finish() closes the file."""

    def __init__(self, path) -> None:
        self._file = open(path, "wb")
        self._file.write(_SERIES_HEADER_LINE)  # into the file's buffer: it cannot fail

    def feed(self, block) -> None:
        self._file.write(_format_rows(block.columns()))

    def finish(self) -> None:
        self._file.close()


def _write(path, texts) -> None:
    """Write the strings of texts to path in order, as UTF-8 (an empty path
    names no file)."""
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(texts)


def _format_rows(cols) -> bytes:
    """The block's lines, as ASCII bytes, each as _SERIES_ROW prints it
    with NaN fields empty (_percent_row).

    A block is laid out as a uint8 table, one line per row: each field in
    columns as wide as the block needs, with 0 bytes as padding, and one
    boolean compress drops the padding.  An integer prints from its digits
    by repeated divmod by 10; %.5f from q = rint(|v| * 1e5); %.6g from
    m = rint(|v| * 10**(5 - X)) with X = floor(log10|v|), which takes one
    exact power of ten and so one rounding.  A sign comes from signbit, so
    -0.0 keeps its "-".

    This is exact when rint rounds the computed product p the way printf
    rounds the exact one, which holds when p is more than _TIE_SHARE * p
    from a .5 tie.  A row goes to _percent_row instead when a float field
    is inf or -inf, an integer is negative, a product lies that close to a
    tie (exact ties such as 0.015625 * 1e5 exist), m leaves [1e5, 1e6)
    (log10 can be off by one next to a power of ten, and m can round up to
    1e6), or X is outside -17..27, where 10**(5 - X) is not an exact double.
    """
    n = len(cols[0])
    comma = np.full((n, 1), ord(","), dtype=np.uint8)
    pieces, unsure = [], np.zeros(n, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for field, col in zip((_int_field, _int_field, _g6_field, _f5_field, _f5_field), cols):
            chars, bad = field(col)
            pieces += [*chars, comma]
            unsure |= bad
    pieces[-1] = np.full((n, 1), ord("\n"), dtype=np.uint8)
    table = np.concatenate(pieces, axis=1)
    keep = table != 0
    keep[unsure] = False
    text = table[keep].tobytes()
    if not unsure.any():
        return text
    # an unsure row keeps no bytes, so its text goes in where the rows before it end
    ends = np.cumsum(keep.sum(axis=1))
    out, start = [], 0
    for i in np.flatnonzero(unsure):
        out += [text[start : ends[i]], _percent_row(tuple(col[i].item() for col in cols))]
        start = ends[i]
    out.append(text[start:])
    return b"".join(out)


def _percent_row(values) -> bytes:
    """One line by the printf-style format, NaN fields empty."""
    # "nan" is the whole text of a NaN field, and every float field follows a comma
    return (_SERIES_ROW % values).replace(",nan", ",").encode()


def _int_field(v):
    """%d of the int64 column v, and the rows it leaves to _percent_row."""
    negative = v < 0
    return [_digits(np.where(negative, 0, v), 1)], negative


def _f5_field(v):
    """%.5f of the float column v as sign, integer digits, point and five
    decimals, and the rows it leaves to _percent_row."""
    empty = np.isnan(v)
    p = np.abs(v) * 1e5
    sure = _clear_of_tie(p)  # false for inf and nan
    digits = _digits(np.rint(np.where(sure, p, 0)), 6)
    digits[empty] = 0
    pieces = [digits[:, :-5], _chars(sure, "."), digits[:, -5:]]
    negative = np.signbit(v) & sure
    if negative.any():
        pieces.insert(0, _chars(negative, "-"))
    return pieces, ~(sure | empty)


def _g6_field(v):
    """%.6g of the float column v, and the rows it leaves to _percent_row.

    The digits of m fall into the whole part and the places after the point:
    5 - X places in fixed notation (-4 <= X <= 5), 5 places before an
    exponent e+XX or e-XX otherwise.  The places lose the trailing zeros of
    m, and the point goes with them when none are left."""
    a = np.abs(v)
    empty, zero = np.isnan(v), a == 0
    x = np.floor(np.log10(a))  # -inf at zero, nan at nan, inf at inf
    exact = (x >= -17) & (x <= 27)
    e = np.where(exact, x, 0).astype(np.int64)  # 0 puts a zero in fixed notation
    scale = _EXACT_POW10[np.abs(5 - e)]
    p = np.where(e <= 5, a * scale, a / scale)
    m = np.rint(p)
    sure = (exact & (m >= 1e5) & (m < 1e6) & _clear_of_tie(p)) | zero
    m = np.where(sure, m, 0).astype(np.int64)
    fixed = (e >= -4) & (e <= 5)
    places = np.where(fixed, 5 - e, 5)
    whole, after = np.divmod(m, 10**places)
    width = int(places.max())
    pieces = [
        _digits(whole, 1),
        _chars(after != 0, "."),
        _digits(after * 10 ** (width - places), width, trailing=True),  # left-aligned
    ]
    negative = np.signbit(v)
    if negative.any():
        pieces.insert(0, _chars(negative, "-"))
    sci = ~fixed
    if sci.any():
        e_abs = np.abs(e)
        marks = np.stack([np.full_like(e, ord("e")), np.where(e < 0, ord("-"), ord("+")),
                          e_abs // 10 + ord("0"), e_abs % 10 + ord("0")], axis=1)
        pieces.append(marks.astype(np.uint8) * sci[:, None])
    for piece in pieces:
        piece[empty] = 0
    return pieces, ~(sure | empty)


def _clear_of_tie(p):
    """Whether rint(p) rounds p as the exact product would: p is more than
    _TIE_SHARE * p from a .5 tie (false for inf and nan)."""
    return np.abs(p - np.floor(p) - 0.5) > _TIE_SHARE * p


def _chars(mask, char: str):
    """A one-column table holding char where mask is true, pad bytes elsewhere."""
    return (mask * np.uint8(ord(char)))[:, None]


def _digits(v, always: int, trailing: bool = False):
    """Right-aligned ASCII digits of the nonnegative integers v, one row
    each, with pad bytes for leading zeros beyond the last `always` places,
    or with trailing=True for the trailing zeros instead."""
    top = int(v.max(initial=0))
    width = max(len(str(top)), always)
    v = v.astype(np.uint32 if top < 2**32 else np.uint64)
    out = np.empty((len(v), width), dtype=np.uint8)
    seen = np.zeros(len(v), dtype=bool)  # a nonzero digit at this place or below
    for place in range(width):
        v_left, r = np.divmod(v, 10)
        digit = r.astype(np.uint8)
        digit += ord("0")
        if trailing:
            seen |= r != 0
            digit *= seen
        elif place >= always:
            digit *= v != 0
        out[:, width - 1 - place] = digit
        v = v_left
    return out


def read_series_csv(path) -> Series:
    """Read back the points and counts of a series CSV, labelled source=csv
    (the file holds its five columns and nothing else), with no estimator.

    Every field is parsed: a bad header, a row that is not five fields, or a
    field that does not parse (x and actual as integers, the rest as floats,
    empty meaning NaN) raises ValueError naming the path and the 1-based line
    of the file; x out of order or a falling count names the path.  Blank
    lines are skipped.  Text that does not decode raises UnicodeDecodeError,
    naming no line, before any bad line is reported.

    The file is read in two passes, _READ_BLOCK_CHARS characters at a time.
    The first counts the lines, so that x and actual are each made once as
    int64 arrays, a slot a line, and are cut short only when blank lines
    were skipped.  The second parses the whole lines of each block in up to
    three steps (_parse_block): numpy gets them as they are, then with empty
    fields written as nan, then one at a time to name the bad line.  x and
    actual are copied into their slots and made read-only, so the reader
    holds 16 bytes a row and one block's text, lines and parsed rows."""
    with open(path, encoding="utf-8") as f:
        if f.readline().rstrip("\n") != SERIES_HEADER:
            raise ValueError(f"{path} is not a series CSV (bad header)")
        line_count, last = 0, "\n"
        for last in iter(lambda: f.read(_READ_BLOCK_CHARS), ""):
            line_count += last.count("\n")
        if last[-1] != "\n":
            line_count += 1  # the last line has no newline
        x, actual = np.empty(line_count, dtype=np.int64), np.empty(line_count, dtype=np.int64)
        f.seek(0)
        f.readline()  # the header, checked above
        rows, line_no, carry = 0, 2, ""
        for text in iter(lambda: f.read(_READ_BLOCK_CHARS), ""):
            text = carry + text
            cut = text.rfind("\n")
            if cut < 0:
                carry = text
                continue
            block = text[:cut].split("\n")
            rows = _store(_parse_block(path, block, line_no), x, actual, rows)
            line_no += len(block)
            carry = text[cut + 1 :]
        if carry:
            rows = _store(_parse_block(path, [carry], line_no), x, actual, rows)
    if rows < line_count:  # blank lines were skipped
        x, actual = x[:rows].copy(), actual[:rows].copy()
    x.setflags(write=False)
    actual.setflags(write=False)
    if not _in_order(x, np.greater):
        raise ValueError(f"{path}: x must be strictly increasing")
    if not _in_order(actual, np.greater_equal):
        raise ValueError(f"{path}: actual must be nondecreasing")
    return Series(x, sieve.count_blocks(actual), metadata={"source": "csv"})


def _in_order(a: np.ndarray, follows: np.ufunc) -> bool:
    """Whether follows(a[i + 1], a[i]) holds for every i, checked
    COUNT_BLOCK pairs at a time so that no temporary grows with the length
    of a."""
    rows = sieve.COUNT_BLOCK
    for lo in range(0, len(a) - 1, rows):
        block = a[lo : lo + rows + 1]
        if not follows(block[1:], block[:-1]).all():
            return False
    return True


def _store(data, x, actual, rows: int) -> int:
    """Copy the x and actual of the parsed rows data into their slots from
    rows on, and return the rows filled."""
    end = rows + len(data)
    x[rows:end] = data["x"]
    actual[rows:end] = data["actual"]
    return end


def _parse_block(path, lines: list[str], line_no: int):
    """The rows of lines, whole lines of the file at path from line line_no
    on, parsed by numpy's C parser (np.loadtxt) into _SERIES_DTYPE.

    numpy first gets the lines as they are: it rejects an empty field, so
    lines that it accepts have none.  Failing that, it gets them with empty
    fields rewritten to nan.  Failing that too, they go through numpy one at
    a time from line_no, so that the error names the first bad line."""
    try:
        return _loadtxt(lines)
    except ValueError:
        pass
    try:
        return _loadtxt(_nan_fields("\n".join(lines)).split("\n"))
    except ValueError:
        pass
    return _parse_lines(path, lines, line_no)


def _nan_fields(text: str) -> str:
    """text with each empty field written as nan."""
    # the second pass catches ",,," runs, and a trailing one ends a line or the text
    text = text.replace(",,", ",nan,").replace(",,", ",nan,").replace(",\n", ",nan\n")
    return text + "nan" if text[-1:] == "," else text


def _parse_lines(path, lines: list[str], first_line_no: int):
    """Parse lines one at a time, empty fields rewritten to nan, the first
    of them line first_line_no of the file at path; a line that does not
    parse raises ValueError naming the path and that line."""
    line_no = first_line_no

    def fed():
        nonlocal line_no
        for line_no, line in enumerate(lines, first_line_no):
            yield _nan_fields(line)

    try:
        return _loadtxt(fed())
    except ValueError as exc:
        # numpy's own row number skips blank lines, so only the file line is given
        reason = str(exc).split(" at row ")[0]
        raise ValueError(f"{path} line {line_no}: {reason}") from exc


def _loadtxt(lines):
    """The series rows of lines, by np.loadtxt."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(lines, dtype=_SERIES_DTYPE, delimiter=",", comments=None, ndmin=1)


def render_svg(series: Series, path) -> None:
    """Standalone 800x600 line chart: actual vs estimate on linear axes."""
    _write(path, [svg_text(series)])


def svg_text(series: Series) -> str:
    """The chart's text, by a pass of one Chart."""
    chart = Chart(series)
    scan(series, chart)
    return chart.text()


class Chart:
    """The chart of a series, as a reducer: it keeps the counts of the rows
    it draws, every row up to MAX_POLYLINE_POINTS, else every stride-th row
    and the last, which follow from the series' length; text() evaluates the
    estimate at those rows alone, and finish() writes the chart to path."""

    def __init__(self, series: Series, path=None) -> None:
        if len(series) == 0:
            raise ValueError("cannot render an empty series")
        self._series, self._path = series, path
        self._drawn = _thin_indices(len(series))
        self._actual: list[np.ndarray] = []

    def feed(self, block) -> None:
        lo, hi = np.searchsorted(self._drawn, (block.lo, block.lo + len(block)))
        if hi > lo:
            self._actual.append(block.actual[self._drawn[lo:hi] - block.lo])

    def text(self) -> str:
        series = self._series
        x, actual = _points_at(series.grid, self._drawn), np.concatenate(self._actual)
        return _svg(series.label(), x, actual, Block(0, x, actual, series.estimator).est)

    def finish(self) -> None:
        _write(self._path, [self.text()])


def _svg(label: str, x: np.ndarray, actual: np.ndarray, est: np.ndarray) -> str:
    """The chart through the rows (x, actual, est) that a Chart draws,
    titled label."""
    margin_l, margin_r, margin_t, margin_b = 75, 25, 45, 55
    plot_w = SVG_WIDTH - margin_l - margin_r
    plot_h = SVG_HEIGHT - margin_t - margin_b

    # the axes span the drawn rows, and both curves go through them
    have = ~np.isnan(est)  # the drawn rows that carry an estimate
    x_min, x_max = float(x[0]), float(x[-1])
    y_top = float(est.max(initial=actual.max(), where=have))
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
        f'font-family="sans-serif">{_escape(label)}</text>',
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

    curves = [("actual", "#1f77b4", x, actual)]
    if have.any():
        curves.append(("estimate", "#ff7f0e", x[have], est[have]))

    for idx, (name, color, cx, cy) in enumerate(curves):
        cx, cy = cx.astype(np.float64), cy.astype(np.float64)
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
