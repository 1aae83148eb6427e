"""Minimal SVG line plots for the diagnostic figures.

Zero dependencies: axes, nice-number ticks, an optional log x scale, and one
labelled polyline per figure.  Figures are diagnostics; every number behind
them is also emitted as CSV by the CLI.
"""

from __future__ import annotations

import math

__all__ = ["plot_svg"]

_COLOR = "#1f6fb2"
_W, _H = 640, 420
_ML, _MR, _MT, _MB = 72, 20, 34, 52


def _nice_ticks(lo: float, hi: float, n: int = 6):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    v = start
    while v <= hi + 1e-9 * span:
        ticks.append(round(v, 12))
        v += step
    return ticks


def _log_ticks(lo: float, hi: float):
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    return [10.0 ** e for e in range(int(lo_e), int(hi_e) + 1)
            if lo / 1.001 <= 10.0 ** e <= hi * 1.001]


def _fmt(v: float) -> str:
    if v == 0.0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:.6g}"


def plot_svg(path, x, y, label, xlabel="", ylabel="", title="",
             logx=False):
    """Write the line through the points (x, y), named ``label`` in the
    legend, to ``path``."""
    x, y = [float(v) for v in x], [float(v) for v in y]

    def tx(v):
        return math.log10(v) if logx else v

    xs = [tx(v) for v in x]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(y), max(y)
    if x1 <= x0:
        x1 = x0 + 1.0
    if y1 <= y0:
        y1 = y0 + 1.0
    pad_y = 0.06 * (y1 - y0)
    y0 -= pad_y
    y1 += pad_y

    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def px(v):
        return _ML + (tx(v) - x0) / (x1 - x0) * pw

    def py(v):
        return _MT + ph - (v - y0) / (y1 - y0) * ph

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
               f'height="{_H}" viewBox="0 0 {_W} {_H}">')
    out.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
    out.append(f'<text x="{_W / 2}" y="20" text-anchor="middle" '
               f'font-family="sans-serif" font-size="14">{title}</text>')

    xticks = (_log_ticks(10.0 ** x0, 10.0 ** x1) if logx
              else _nice_ticks(x0, x1))
    yticks = _nice_ticks(y0, y1)

    out.append(f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
               'fill="none" stroke="#444" stroke-width="1"/>')
    for vt in xticks:
        xp = px(vt)
        if not _ML - 1 <= xp <= _ML + pw + 1:
            continue
        out.append(f'<line x1="{xp:.2f}" y1="{_MT + ph}" x2="{xp:.2f}" '
                   f'y2="{_MT + ph + 5}" stroke="#444"/>')
        out.append(f'<line x1="{xp:.2f}" y1="{_MT}" x2="{xp:.2f}" '
                   f'y2="{_MT + ph}" stroke="#ddd" stroke-width="0.5"/>')
        out.append(f'<text x="{xp:.2f}" y="{_MT + ph + 18}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="11">{_fmt(vt)}</text>')
    for vt in yticks:
        yp = py(vt)
        if not _MT - 1 <= yp <= _MT + ph + 1:
            continue
        out.append(f'<line x1="{_ML - 5}" y1="{yp:.2f}" x2="{_ML}" '
                   f'y2="{yp:.2f}" stroke="#444"/>')
        out.append(f'<line x1="{_ML}" y1="{yp:.2f}" x2="{_ML + pw}" '
                   f'y2="{yp:.2f}" stroke="#ddd" stroke-width="0.5"/>')
        out.append(f'<text x="{_ML - 8}" y="{yp + 4:.2f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{_fmt(vt)}</text>')

    out.append(f'<text x="{_ML + pw / 2}" y="{_H - 12}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12">{xlabel}</text>')
    out.append(f'<text x="16" y="{_MT + ph / 2}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12" '
               f'transform="rotate(-90 16 {_MT + ph / 2})">{ylabel}</text>')

    pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x, y))
    out.append(f'<polyline points="{pts}" fill="none" stroke="{_COLOR}" '
               'stroke-width="1.6"/>')
    ly = _MT + 16
    out.append(f'<line x1="{_ML + pw - 120}" y1="{ly - 4}" '
               f'x2="{_ML + pw - 96}" y2="{ly - 4}" stroke="{_COLOR}" '
               'stroke-width="2"/>')
    out.append(f'<text x="{_ML + pw - 90}" y="{ly}" '
               f'font-family="sans-serif" font-size="11">{label}</text>')

    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
