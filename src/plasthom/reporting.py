"""Report tables with deterministic CSV and SVG emission.

CSV output follows RFC 4180 (quoting only where needed, header row first,
column order fixed by the table).  Floats are rendered with ``repr``, the
shortest round-trip representation, so identical inputs yield byte-identical
files.  SVG plots are hand-rolled polyline charts with no timestamps or
generator metadata, for the same reason.
"""

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError


@dataclass
class ReportTable:
    """An ordered set of rows with fixed columns plus free-form metadata."""

    columns: list
    rows: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def append(self, *values):
        if len(values) != len(self.columns):
            raise ConfigurationError(
                f"row has {len(values)} fields, table has {len(self.columns)} columns"
            )
        self.rows.append(tuple(values))

    def column(self, name):
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def to_csv_text(self):
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_render(v) for v in row])
        return buf.getvalue()


def _render(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def emit_report(table, csv_path, svg_path=None, x=None, y=None, series_by=None):
    """Write a table as CSV and optionally as an SVG line plot.

    ``x`` and ``y`` name columns to plot; ``series_by`` names a column whose
    distinct values become separate polylines.  Output is byte-stable for
    identical inputs.  I/O failures are re-raised with the offending path.
    """
    try:
        with open(csv_path, "w", encoding="utf8", newline="") as fh:
            fh.write(table.to_csv_text())
    except OSError as err:
        raise OSError(f"cannot write report CSV to {csv_path}: {err}") from err
    if svg_path is None:
        return [csv_path]
    if x is None or y is None:
        raise ConfigurationError("SVG emission needs x and y column names")
    try:
        with open(svg_path, "w", encoding="utf8") as fh:
            fh.write(render_svg(table, x, y, series_by))
    except OSError as err:
        raise OSError(f"cannot write report SVG to {svg_path}: {err}") from err
    return [csv_path, svg_path]


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def render_svg(table, x, y, series_by=None):
    """Minimal deterministic SVG line plot of column y against column x."""
    width, height = 640, 420
    xs = np.asarray([float(v) for v in table.column(x)])
    ys = np.asarray([float(v) for v in table.column(y)])
    if xs.size == 0:
        return ("<svg xmlns='http://www.w3.org/2000/svg' "
                f"width='{width}' height='{height}'/>")
    if series_by is None:
        groups = {"all": np.arange(xs.size)}
    else:
        labels = table.column(series_by)
        groups = {}
        for i, lab in enumerate(labels):
            groups.setdefault(str(lab), []).append(i)
    margin = 50.0
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0

    def to_px(px, py):
        gx = margin + (px - x0) / xspan * (width - 2 * margin)
        gy = height - margin - (py - y0) / yspan * (height - 2 * margin)
        return f"{gx:.2f},{gy:.2f}"

    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' height='{height}'>",
        f"<rect width='{width}' height='{height}' fill='white'/>",
        f"<line x1='{margin}' y1='{height - margin}' x2='{width - margin}' "
        f"y2='{height - margin}' stroke='black'/>",
        f"<line x1='{margin}' y1='{margin}' x2='{margin}' "
        f"y2='{height - margin}' stroke='black'/>",
        f"<text x='{width / 2:.0f}' y='{height - 12}' font-size='12' "
        f"text-anchor='middle'>{x}</text>",
        f"<text x='14' y='{height / 2:.0f}' font-size='12' text-anchor='middle' "
        f"transform='rotate(-90 14 {height / 2:.0f})'>{y}</text>",
        f"<text x='{margin}' y='{height - margin + 16:.0f}' font-size='10'>{x0!r}</text>",
        f"<text x='{width - margin}' y='{height - margin + 16:.0f}' font-size='10' "
        f"text-anchor='end'>{x1!r}</text>",
        f"<text x='{margin - 4}' y='{height - margin}' font-size='10' "
        f"text-anchor='end'>{y0!r}</text>",
        f"<text x='{margin - 4}' y='{margin + 4}' font-size='10' "
        f"text-anchor='end'>{y1!r}</text>",
    ]
    for gi, (label, idx) in enumerate(sorted(groups.items())):
        idx = np.asarray(idx, dtype=int)
        order = np.argsort(xs[idx], kind="stable")
        pts = " ".join(to_px(xs[i], ys[i]) for i in idx[order])
        color = _PALETTE[gi % len(_PALETTE)]
        parts.append(f"<polyline points='{pts}' fill='none' stroke='{color}' "
                     f"stroke-width='1.5'/>")
        parts.append(f"<text x='{width - margin + 4}' y='{margin + 14 * gi + 4:.0f}' "
                     f"font-size='10' fill='{color}'>{label}</text>")
    parts.append("</svg>")
    return "\n".join(parts)
