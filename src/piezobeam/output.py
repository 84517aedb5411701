"""Bit-stable result serialization: CSV, JSON reports, and a tiny SVG plotter.

All numeric text is emitted with 17 significant digits, enough to round-trip
any float64 exactly, and with no locale dependence.  The SVG plotter is
self-contained (axes, ticks, polylines, labels) so plot output is as
deterministic as the numbers themselves.
"""

from __future__ import annotations

import json
import math

import numpy as np


def _format_column(column) -> list:
    """The CSV text of a column of numbers, one string per entry, made by
    one % over the whole column: cheaper than one per entry."""
    values = tuple(np.asarray(column, dtype=float).tolist())
    return ("%.17g\n" * len(values) % values).split("\n")[:-1]


def write_csv(path, header, columns, comments=()) -> list:
    """Write named columns; '#' comment lines carry provenance.

    A column is numbers, or the text of one that write_csv returned: it
    returns every column's text, so a column written to several files is
    formatted once.
    """
    cols = [c if len(c) and isinstance(c[0], str) else _format_column(c) for c in columns]
    if len(cols) != len(header):
        raise ValueError("header and column counts differ")
    n = len(cols[0]) if cols else 0
    if any(len(c) != n for c in cols):
        raise ValueError("columns must share one length")
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    lines.extend(map(",".join, zip(*cols)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return cols


def read_csv(path):
    """Read back a write_csv file: (comments, header, columns dict)."""
    comments, header, rows = [], None, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                comments.append(line[1:].strip())
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(tok) for tok in line.split(",")])
    if header is None:
        raise ValueError(f"{path}: no header row")
    data = np.array(rows, dtype=float) if rows else np.zeros((0, len(header)))
    return comments, header, {name: data[:, j] for j, name in enumerate(header)}


def write_json(path, obj) -> None:
    """JSON with sorted keys and a trailing newline; byte-stable per input."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- SVG plotting ---------------------------------------------------------------

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 72, 24, 36, 56
_COLORS = ("#1965b0", "#dc050c", "#4eb265", "#f1932d", "#882e72", "#777777")


def _ticks(lo: float, hi: float, target: int = 5):
    if not hi > lo:
        pad = 0.5 if lo == 0.0 else abs(lo) * 0.5
        lo, hi = lo - pad, hi + pad
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 5.0, 10.0):
        if raw <= m * mag:
            step = m * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return lo, hi, ticks


def _log_ticks(lo: float, hi: float):
    lo = max(lo, 1e-300)
    hi = max(hi, lo * 10.0)
    a, b = math.floor(math.log10(lo)), math.ceil(math.log10(hi))
    return 10.0 ** a, 10.0 ** b, [10.0 ** d for d in range(a, b + 1)]


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def svg_line_plot(path, series, title="", xlabel="", ylabel="",
                  logx: bool = False, logy: bool = False) -> None:
    """Plot (label, x, y) series as polylines into a standalone SVG file."""
    xs = np.concatenate([np.asarray(x, float) for _, x, _ in series])
    ys = np.concatenate([np.asarray(y, float) for _, _, y in series])
    if logx:
        x0, x1, xticks = _log_ticks(float(xs.min()), float(xs.max()))
    else:
        x0, x1, xticks = _ticks(float(xs.min()), float(xs.max()))
    if logy:
        y0, y1, yticks = _log_ticks(float(ys[ys > 0].min()) if np.any(ys > 0) else 1e-16,
                                    float(ys.max()))
    else:
        y0, y1, yticks = _ticks(float(ys.min()), float(ys.max()))

    def sx(x):
        u = (math.log10(max(x, 1e-300)) - math.log10(x0)) / \
            (math.log10(x1) - math.log10(x0)) if logx else (x - x0) / (x1 - x0)
        return _ML + u * (_W - _ML - _MR)

    def sy(y):
        u = (math.log10(max(y, 1e-300)) - math.log10(y0)) / \
            (math.log10(y1) - math.log10(y0)) if logy else (y - y0) / (y1 - y0)
        return _H - _MB - u * (_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="#333"/>',
    ]
    if title:
        out.append(f'<text x="{_W / 2:.6g}" y="{_MT - 12}" text-anchor="middle" '
                   f'font-size="14">{_esc(title)}</text>')
    for t in xticks:
        px = sx(t)
        out.append(f'<line x1="{px:.6g}" y1="{_H - _MB}" x2="{px:.6g}" '
                   f'y2="{_H - _MB + 5}" stroke="#333"/>')
        out.append(f'<text x="{px:.6g}" y="{_H - _MB + 18}" '
                   f'text-anchor="middle">{t:.6g}</text>')
    for t in yticks:
        py = sy(t)
        out.append(f'<line x1="{_ML - 5}" y1="{py:.6g}" x2="{_ML}" '
                   f'y2="{py:.6g}" stroke="#333"/>')
        out.append(f'<text x="{_ML - 8}" y="{py + 4:.6g}" '
                   f'text-anchor="end">{t:.6g}</text>')
    if xlabel:
        out.append(f'<text x="{_W / 2:.6g}" y="{_H - 14}" '
                   f'text-anchor="middle">{_esc(xlabel)}</text>')
    if ylabel:
        out.append(f'<text x="16" y="{_H / 2:.6g}" text-anchor="middle" '
                   f'transform="rotate(-90 16 {_H / 2:.6g})">{_esc(ylabel)}</text>')

    for i, (label, x, y) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{sx(float(a)):.6g},{sy(float(b)):.6g}"
                       for a, b in zip(np.asarray(x, float), np.asarray(y, float)))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        if label:
            out.append(f'<text x="{_W - _MR - 6}" y="{_MT + 16 + 16 * i}" '
                       f'text-anchor="end" fill="{color}">{_esc(label)}</text>')
    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")
