"""Deterministic result serialisation: CSV, JSON, and a roofline SVG.

Every writer here produces byte-identical output for equal input.  Floats
are rendered with ``%.17g`` (CSV) or ``repr`` (JSON), both of which round
trip IEEE doubles exactly; files always use ``\\n`` line endings and UTF-8
regardless of platform.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import ConfigurationError
from .perfmodel import KernelPoint, MachineModel

__all__ = [
    "format_value",
    "render_csv",
    "write_json",
    "roofline_svg",
]


def format_value(value: object) -> str:
    """One CSV cell: floats as %.17g, everything else via str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    text = str(value)
    if any(ch in text for ch in (",", '"', "\n")):
        raise ConfigurationError(f"CSV cell {text!r} needs quoting; use plain values")
    return text


def render_csv(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Comma-separated text with a header line and LF endings."""
    lines = [",".join(format_value(h) for h in header)]
    width = len(header)
    for row in rows:
        cells = [format_value(v) for v in row]
        if len(cells) != width:
            raise ConfigurationError(
                f"row has {len(cells)} cells, header has {width}: {cells!r}"
            )
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_json(path: str | Path, doc: Mapping) -> None:
    """Sorted-key JSON with LF endings; floats keep full precision via repr."""
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_bytes((text + "\n").encode("utf-8"))


# --- roofline chart ---------------------------------------------------------

_SVG_W = 720
_SVG_H = 480
_MARGIN_L = 70
_MARGIN_R = 30
_MARGIN_T = 30
_MARGIN_B = 50


def _log_ticks(lo: float, hi: float) -> list[float]:
    first = math.floor(math.log10(lo))
    last = math.ceil(math.log10(hi))
    return [10.0 ** e for e in range(int(first), int(last) + 1)]


def _fmt(x: float) -> str:
    return "%.2f" % x


def roofline_svg(machine: MachineModel, points: Sequence[KernelPoint]) -> str:
    """Log-log roofline chart as a standalone SVG string.

    Two ceiling segments (memory slope, compute plateau) plus one labelled
    dot per kernel; kernel names are XML-escaped.  Purely arithmetic string
    building, so equal inputs yield identical bytes.
    """
    if not points:
        raise ConfigurationError("no kernel points to chart")

    xs = [p.intensity for p in points] + [machine.ridge_intensity]
    ys = [p.achieved_flops for p in points] + [machine.peak_flops]
    if min(xs) <= 0 or min(ys) <= 0:
        raise ConfigurationError("a log-log roofline chart needs kernels with nonzero flops")
    x_lo = 10.0 ** math.floor(math.log10(min(xs)) - 0.3)
    x_hi = 10.0 ** math.ceil(math.log10(max(xs)) + 0.3)
    y_lo = 10.0 ** math.floor(math.log10(min(ys)) - 0.3)
    y_hi = 10.0 ** math.ceil(math.log10(max(ys)) + 0.3)

    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
    plot_h = _SVG_H - _MARGIN_T - _MARGIN_B

    def sx(x: float) -> float:
        return _MARGIN_L + plot_w * (math.log10(x) - math.log10(x_lo)) / (
            math.log10(x_hi) - math.log10(x_lo)
        )

    def sy(y: float) -> float:
        return _MARGIN_T + plot_h * (math.log10(y_hi) - math.log10(y)) / (
            math.log10(y_hi) - math.log10(y_lo)
        )

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}" font-family="monospace" font-size="11">'
    )
    out.append(f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>')

    # gridlines and tick labels at powers of ten
    for x in _log_ticks(x_lo, x_hi):
        if not x_lo <= x <= x_hi:
            continue
        px = _fmt(sx(x))
        out.append(
            f'<line x1="{px}" y1="{_MARGIN_T}" x2="{px}" y2="{_SVG_H - _MARGIN_B}" '
            f'stroke="#dddddd"/>'
        )
        out.append(
            f'<text x="{px}" y="{_SVG_H - _MARGIN_B + 16}" text-anchor="middle">'
            f"1e{int(math.log10(x))}</text>"
        )
    for y in _log_ticks(y_lo, y_hi):
        if not y_lo <= y <= y_hi:
            continue
        py = _fmt(sy(y))
        out.append(
            f'<line x1="{_MARGIN_L}" y1="{py}" x2="{_SVG_W - _MARGIN_R}" y2="{py}" '
            f'stroke="#dddddd"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 6}" y="{py}" text-anchor="end" '
            f'dominant-baseline="middle">1e{int(math.log10(y))}</text>'
        )

    # ceilings: memory roof from the left edge up to the ridge, then the
    # compute plateau to the right edge, clipped to the plot window
    ridge = machine.ridge_intensity
    mem_x0 = max(x_lo, y_lo / machine.stream_bandwidth)
    out.append(
        f'<polyline fill="none" stroke="#333333" stroke-width="1.5" points="'
        f"{_fmt(sx(mem_x0))},{_fmt(sy(mem_x0 * machine.stream_bandwidth))} "
        f"{_fmt(sx(ridge))},{_fmt(sy(machine.peak_flops))} "
        f'{_fmt(sx(x_hi))},{_fmt(sy(machine.peak_flops))}"/>'
    )

    for p in points:
        px, py = _fmt(sx(p.intensity)), _fmt(sy(p.achieved_flops))
        out.append(f'<circle cx="{px}" cy="{py}" r="4" fill="#1f6fb2"/>')
        name = p.name.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        out.append(f'<text x="{px}" y="{_fmt(sy(p.achieved_flops) - 8)}" '
                   f'text-anchor="middle">{name}</text>')

    out.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{_SVG_H - 12}" text-anchor="middle">'
        "arithmetic intensity [flop/byte]</text>"
    )
    out.append(
        f'<text x="16" y="{_MARGIN_T + plot_h / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.2f})">achieved [flop/s]</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
