"""Dependency-free SVG line charts of shift trajectories.

Polylines only, no external assets: the files render anywhere and diff
cleanly. Trust lives on the left axis in [0, 1]; fatigue and cumulative
items share the right axis. Severe-failure turns are marked with vertical
dashed lines.
"""

from __future__ import annotations

import math

from .dynamics import InteractionOutcome
from .engine import StepRecord
from .reports import FormattedValues

_COLORS = {"trust": "#1f77b4", "fatigue": "#d62728", "productivity": "#2ca02c"}
_LABELS = {"trust": "trust", "fatigue": "fatigue", "productivity": "items (cumulative)"}

_WIDTH, _HEIGHT = 860, 440
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 60, 70, 48, 46


def _nice_ceiling(value: float) -> float:
    """Smallest of 1/2/5 * 10^k, k >= 0, at or above value, so at least 1;
    value itself where that would overflow to inf."""
    magnitude = 1.0
    while magnitude * 10.0 < value:
        magnitude *= 10.0
    for factor in (1.0, 2.0, 5.0, 10.0):
        nice = magnitude * factor
        if nice >= value:
            return nice if math.isfinite(nice) else value
    return magnitude * 10.0


def emit_svg_chart(records: list[StepRecord]) -> str:
    """Render the trust, fatigue and productivity series of one trajectory
    as a standalone SVG."""
    if not records:
        raise ValueError("cannot chart zero records")

    steps = [r.step for r in records]
    cumulative, total = [], 0.0
    for r in records:
        total += r.items_picked
        cumulative.append(total)
    values = {
        "trust": [r.trust_post for r in records],
        "fatigue": [r.fatigue_post for r in records],
        "productivity": cumulative,
    }
    right_series = ("fatigue", "productivity")
    right_max = _nice_ceiling(max(max(values[name]) for name in right_series))

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    x_span = max(steps[-1] - steps[0], 1)

    def x_px(step: int) -> float:
        return _MARGIN_LEFT + (step - steps[0]) / x_span * plot_w

    def y_left(v: float) -> float:
        return _MARGIN_TOP + (1.0 - v) * plot_h

    def y_right(v: float) -> float:
        return _MARGIN_TOP + (1.0 - v / right_max) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#888"/>',
    ]

    # severe-failure markers behind the data lines
    for r in records:
        if r.outcome is InteractionOutcome.SEVERE_FAILURE:
            x = x_px(r.step)
            out.append(
                f'<line x1="{x:.1f}" y1="{_MARGIN_TOP}" x2="{x:.1f}" '
                f'y2="{_MARGIN_TOP + plot_h}" stroke="#aaaaaa" '
                f'stroke-dasharray="4,3" class="severe-marker"/>'
            )

    # x ticks every ~10 steps
    tick_step = max(1, (x_span + 1) // 10 * 2) if x_span >= 20 else max(1, x_span // 5)
    for s in range(steps[0], steps[-1] + 1):
        if s == steps[0] or s == steps[-1] or s % tick_step == 0:
            x = x_px(s)
            out.append(
                f'<line x1="{x:.1f}" y1="{_MARGIN_TOP + plot_h}" x2="{x:.1f}" '
                f'y2="{_MARGIN_TOP + plot_h + 4}" stroke="#444"/>'
            )
            out.append(
                f'<text x="{x:.1f}" y="{_MARGIN_TOP + plot_h + 18}" '
                f'text-anchor="middle">{s}</text>'
            )
    out.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 8}" '
        f'text-anchor="middle">step</text>'
    )

    # left axis (trust scale)
    for i in range(5):
        v = i / 4
        y = y_left(v)
        out.append(
            f'<line x1="{_MARGIN_LEFT - 4}" y1="{y:.1f}" x2="{_MARGIN_LEFT}" '
            f'y2="{y:.1f}" stroke="#444"/>'
        )
        out.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{y + 4:.1f}" '
            f'text-anchor="end">{v:g}</text>'
        )
    out.append(
        f'<text x="16" y="{_MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MARGIN_TOP + plot_h / 2:.1f})">trust</text>'
    )

    # right axis (fatigue / cumulative items scale)
    for i in range(5):
        v = right_max / 4 * i  # right_max * i may overflow
        y = y_right(v)
        out.append(
            f'<line x1="{_MARGIN_LEFT + plot_w}" y1="{y:.1f}" '
            f'x2="{_MARGIN_LEFT + plot_w + 4}" y2="{y:.1f}" stroke="#444"/>'
        )
        out.append(
            f'<text x="{_MARGIN_LEFT + plot_w + 8}" y="{y + 4:.1f}" '
            f'text-anchor="start">{v:g}</text>'
        )
    out.append(
        f'<text x="{_WIDTH - 14}" y="{_MARGIN_TOP + plot_h / 2:.1f}" '
        f'text-anchor="middle" transform="rotate(90 {_WIDTH - 14} '
        f'{_MARGIN_TOP + plot_h / 2:.1f})">{" / ".join(_LABELS[n] for n in right_series)}</text>'
    )

    # data polylines: the series share their x pixels, formatted once; the
    # other y expressions are those of y_left and y_right
    xs = [f"{_MARGIN_LEFT + (s - steps[0]) / x_span * plot_w:.1f}," for s in steps]
    for name, series in values.items():
        if name == "trust":  # a few distinct values, each formatted once
            trust_y = FormattedValues(lambda v: f"{y_left(v):.1f}")
            ys = map(trust_y.__getitem__, series)
        else:
            ys = [f"{_MARGIN_TOP + (1.0 - v / right_max) * plot_h:.1f}" for v in series]
        points = " ".join(map(str.__add__, xs, ys))
        out.append(
            f'<polyline fill="none" stroke="{_COLORS[name]}" stroke-width="1.8" '
            f'class="series-{name}" points="{points}"/>'
        )

    # legend
    legend_x = _MARGIN_LEFT + 8
    for i, name in enumerate(values):
        y = 18 + 15 * i
        out.append(
            f'<line x1="{legend_x}" y1="{y - 4}" x2="{legend_x + 22}" y2="{y - 4}" '
            f'stroke="{_COLORS[name]}" stroke-width="3"/>'
        )
        out.append(f'<text x="{legend_x + 28}" y="{y}">{_LABELS[name]}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
