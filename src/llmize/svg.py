"""Minimal deterministic SVG rendering for convergence charts and tours.

Hand-rolled on purpose: output must be byte-stable across platforms for
golden-file comparisons, which rules out plotting libraries.
"""

from __future__ import annotations

import math
from typing import Sequence

from .benchmarks import TspInstance
from .core import Permutation, StepStats

# The charted series, in drawing and legend order, each with its colour.
CHART_SERIES = {
    "best_so_far": "#1f77b4",
    "best_of_step": "#2ca02c",
    "mean_of_step": "#ff7f0e",
}

_WIDTH = 640
_HEIGHT = 400
_MARGIN_LEFT = 60
_MARGIN_RIGHT = 150
_MARGIN_TOP = 20
_MARGIN_BOTTOM = 50


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _label(v: float) -> str:
    """A score axis label: two decimals below 1e9 in magnitude, above it four
    significant digits in exponent notation; at most 14 characters either way."""
    return _fmt(v) if abs(v) < 1e9 else f"{v:.3e}"


def _scale(value: float, lo: float, hi: float, out_lo: float, out_hi: float) -> float:
    if hi == lo:
        return (out_lo + out_hi) / 2.0
    span = hi - lo
    if math.isfinite(span):
        scaled = out_lo + (value - lo) * (out_hi - out_lo) / span
        if math.isfinite(scaled):
            return scaled
    # Values near the float limit overflow the span or the product; halved,
    # their differences cannot, and their ratio lies in [0, 1].
    return out_lo + (value / 2 - lo / 2) / (hi / 2 - lo / 2) * (out_hi - out_lo)


def render_history_chart(steps: Sequence[StepStats]) -> str:
    """Line chart of the three per-step score series, CHART_SERIES, over
    step_index."""
    if not steps:
        raise ValueError("at least one row required")
    xs = [s.step_index for s in steps]
    ys = [getattr(s, series) for s in steps for series in CHART_SERIES]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)

    plot_left = _MARGIN_LEFT
    plot_right = _WIDTH - _MARGIN_RIGHT
    plot_top = _MARGIN_TOP
    plot_bottom = _HEIGHT - _MARGIN_BOTTOM

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{plot_left}" y1="{plot_bottom}" x2="{plot_right}" y2="{plot_bottom}" stroke="black"/>',
        f'<line x1="{plot_left}" y1="{plot_top}" x2="{plot_left}" y2="{plot_bottom}" stroke="black"/>',
        f'<text x="{(plot_left + plot_right) // 2}" y="{_HEIGHT - 10}" text-anchor="middle" font-size="13">step_index</text>',
        f'<text x="15" y="{(plot_top + plot_bottom) // 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 15 {(plot_top + plot_bottom) // 2})">score</text>',
        f'<text x="{plot_left}" y="{plot_bottom + 16}" text-anchor="middle" font-size="11">{_fmt(x_lo)}</text>',
        f'<text x="{plot_right}" y="{plot_bottom + 16}" text-anchor="middle" font-size="11">{_fmt(x_hi)}</text>',
        f'<text x="{plot_left - 4}" y="{plot_bottom + 4}" text-anchor="end" font-size="11">{_label(y_lo)}</text>',
        f'<text x="{plot_left - 4}" y="{plot_top + 4}" text-anchor="end" font-size="11">{_label(y_hi)}</text>',
    ]
    for series, color in CHART_SERIES.items():
        points = " ".join(
            f"{_fmt(_scale(s.step_index, x_lo, x_hi, plot_left, plot_right))},"
            f"{_fmt(_scale(getattr(s, series), y_lo, y_hi, plot_bottom, plot_top))}"
            for s in steps
        )
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
    for i, (series, color) in enumerate(CHART_SERIES.items()):
        ly = plot_top + 14 + i * 18
        lx = plot_right + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{lx + 24}" y="{ly}" font-size="12">{series}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_tour(instance: TspInstance, route: Permutation) -> str:
    """Draw cities as points and the tour as a closed polyline."""
    size = 480
    margin = 30
    span = size - 2 * margin

    def sx(x: float) -> float:
        return margin + x / 100.0 * span

    def sy(y: float) -> float:
        # SVG y grows downward.
        return margin + (100.0 - y) / 100.0 * span

    coords = instance.coordinates
    closed = list(route.order) + [route.order[0]]
    points = " ".join(f"{_fmt(sx(coords[i][0]))},{_fmt(sy(coords[i][1]))}" for i in closed)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">',
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="white"/>',
        f'<polyline fill="none" stroke="#1f4fd8" stroke-width="1.5" points="{points}"/>',
    ]
    for i, (x, y) in enumerate(coords):
        parts.append(
            f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="4" fill="#d62728"/>'
        )
        parts.append(
            f'<text x="{_fmt(sx(x) + 6)}" y="{_fmt(sy(y) - 6)}" font-size="11">{i}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
