"""CSV and SVG emission with byte-reproducible formatting.

Floats are serialized with 17 significant digits so that emitted files
round-trip 64-bit values exactly; two runs of the same study with the
same seed therefore produce byte-identical output.  Each CLI command
builds its own header and rows; this module only formats and writes them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["format_value", "emit_csv", "read_csv", "emit_svg"]


def format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def emit_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def _coerce(text: str):
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path) -> tuple[list[str], list[list]]:
    """Parse a file written by :func:`emit_csv`; values are coerced back
    to int/float/str with empty cells becoming None."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle if line.strip() != ""]
    if not lines:
        raise ValueError(f"empty csv file {path}")
    header = lines[0].split(",")
    rows = [[_coerce(cell) for cell in line.split(",")] for line in lines[1:]]
    return header, rows


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
_WIDTH, _HEIGHT = 640, 480
_MARGIN = 56


def _axis_transform(values: np.ndarray, log: bool) -> np.ndarray:
    if log:
        if np.any(values <= 0):
            raise ValueError("log axis requires positive values")
        return np.log10(values)
    return values


def _finite_range(values: np.ndarray) -> tuple[float, float]:
    finite = values[np.isfinite(values)]
    return (float(np.min(finite)), float(np.max(finite))) if finite.size else (0.0, 0.0)


def emit_svg(
    path,
    title: str,
    x_values: Sequence[float],
    series: dict[str, Sequence[float]],
    log: bool = False,
) -> None:
    """Write a self-contained SVG line chart; ``log`` makes both axes logarithmic.

    Only finite points are drawn and set the axis ranges: a point with an
    inf or NaN coordinate is left out of its polyline, and a chart with no
    finite point draws empty axes.
    """
    xs = _axis_transform(np.asarray(x_values, dtype=float), log)
    ys_by_name = {name: _axis_transform(np.asarray(v, dtype=float), log)
                  for name, v in series.items()}
    x_lo, x_hi = _finite_range(xs)
    y_lo, y_hi = _finite_range(np.concatenate(list(ys_by_name.values())))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    span_x = _WIDTH - 2 * _MARGIN
    span_y = _HEIGHT - 2 * _MARGIN

    def px(x: float) -> float:
        return _MARGIN + (x - x_lo) / (x_hi - x_lo) * span_x

    def py(y: float) -> float:
        return _HEIGHT - _MARGIN - (y - y_lo) / (y_hi - y_lo) * span_y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
        f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
    ]
    for frac in (0.0, 0.5, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        x_label = 10**xv if log else xv
        y_label = 10**yv if log else yv
        parts.append(
            f'<text x="{px(xv):.1f}" y="{_HEIGHT - _MARGIN + 18}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">{x_label:.4g}</text>'
        )
        parts.append(
            f'<text x="{_MARGIN - 6}" y="{py(yv):.1f}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{y_label:.4g}</text>'
        )
    for idx, (name, ys) in enumerate(ys_by_name.items()):
        points = " ".join(
            f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys) if np.isfinite(x) and np.isfinite(y)
        )
        color = _PALETTE[idx % len(_PALETTE)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        parts.append(
            f'<text x="{_WIDTH - _MARGIN + 4}" y="{_MARGIN + 14 * idx}" '
            f'font-family="monospace" font-size="11" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(parts) + "\n")
