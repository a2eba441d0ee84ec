"""Dependency-free SVG line charts of shift trajectories.

Polylines only, no external assets: the files render anywhere and diff
cleanly. Trust lives on the left axis in [0, 1]; fatigue and cumulative
items share the right axis. Severe-failure turns are marked with vertical
dashed lines.
"""

from __future__ import annotations

import math
from itertools import accumulate

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


_PLOT_W = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
_PLOT_H = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
_BOTTOM = _MARGIN_TOP + _PLOT_H
_RIGHT_SERIES = ("fatigue", "productivity")


def _y_left(v: float) -> float:
    return _MARGIN_TOP + (1.0 - v) * _PLOT_H


# The lines that no trajectory changes, built once: the header and frame;
# the x-axis label, the left axis and its label; the right axis's label; the
# legend and the closing tag.
_HEAD = "\n".join([
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
    f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
    f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{_PLOT_W}" height="{_PLOT_H}" '
    f'fill="none" stroke="#888"/>',
])
_LEFT_AXIS = "\n".join([
    f'<text x="{_MARGIN_LEFT + _PLOT_W / 2:.1f}" y="{_HEIGHT - 8}" '
    f'text-anchor="middle">step</text>',
    *(
        f'<line x1="{_MARGIN_LEFT - 4}" y1="{_y_left(v):.1f}" x2="{_MARGIN_LEFT}" '
        f'y2="{_y_left(v):.1f}" stroke="#444"/>\n'
        f'<text x="{_MARGIN_LEFT - 8}" y="{_y_left(v) + 4:.1f}" '
        f'text-anchor="end">{v:g}</text>'
        for v in (i / 4 for i in range(5))
    ),
    f'<text x="16" y="{_MARGIN_TOP + _PLOT_H / 2:.1f}" text-anchor="middle" '
    f'transform="rotate(-90 16 {_MARGIN_TOP + _PLOT_H / 2:.1f})">trust</text>',
])
_RIGHT_LABEL = (
    f'<text x="{_WIDTH - 14}" y="{_MARGIN_TOP + _PLOT_H / 2:.1f}" '
    f'text-anchor="middle" transform="rotate(90 {_WIDTH - 14} '
    f'{_MARGIN_TOP + _PLOT_H / 2:.1f})">{" / ".join(_LABELS[n] for n in _RIGHT_SERIES)}</text>'
)
_LEGEND = "\n".join(
    f'<line x1="{_MARGIN_LEFT + 8}" y1="{14 + 15 * i}" x2="{_MARGIN_LEFT + 30}" '
    f'y2="{14 + 15 * i}" stroke="{_COLORS[name]}" stroke-width="3"/>\n'
    f'<text x="{_MARGIN_LEFT + 36}" y="{18 + 15 * i}">{_LABELS[name]}</text>'
    for i, name in enumerate(_COLORS)
) + "\n</svg>"
# The starts of the lines that depend on the trajectory, filled in by "%".
_POLYLINE = {
    name: f'<polyline fill="none" stroke="{color}" stroke-width="1.8" '
    f'class="series-{name}" points="'
    for name, color in _COLORS.items()
}
_MARKER = (
    f'<line x1="%s" y1="{_MARGIN_TOP}" x2="%s" y2="{_BOTTOM}" stroke="#aaaaaa" '
    f'stroke-dasharray="4,3" class="severe-marker"/>'
)
_TICK = (
    f'<line x1="%s" y1="{_BOTTOM}" x2="%s" y2="{_BOTTOM + 4}" stroke="#444"/>\n'
    f'<text x="%s" y="{_BOTTOM + 18}" text-anchor="middle">%s</text>'
)


def emit_svg_chart(records: list[StepRecord]) -> str:
    """Render the trust, fatigue and productivity series of one trajectory
    as a standalone SVG.

    The text is built in bulk, because a chart formats four floats per turn
    and the per-value work dominates: each x pixel is formatted once and
    shared by the markers and the three polylines, and each polyline is one
    ``%`` operation over a template of those x texts. Trust takes a few
    values per shift, so each of its y texts is formatted once. The lines
    that depend on no input are built at import.
    """
    if not records:
        raise ValueError("cannot chart zero records")

    steps = [r.step for r in records]
    first, last = steps[0], steps[-1]
    x_span = max(last - first, 1)
    xs = [f"{_MARGIN_LEFT + (s - first) / x_span * _PLOT_W:.1f}" for s in steps]
    trust = [r.trust_post for r in records]
    fatigue = [r.fatigue_post for r in records]
    cumulative = list(accumulate([r.items_picked for r in records], initial=0.0))[1:]
    right_max = _nice_ceiling(max(max(fatigue), max(cumulative)))

    out = [_HEAD]
    # severe-failure markers behind the data lines
    out += [
        _MARKER % (x, x)
        for r, x in zip(records, xs)
        if r.outcome is InteractionOutcome.SEVERE_FAILURE
    ]

    # x ticks every ~10 steps, at the first and last step and each multiple
    # of tick_step between them
    tick_step = max(1, (x_span + 1) // 10 * 2) if x_span >= 20 else max(1, x_span // 5)
    if first <= last:
        multiples = range(-(-first // tick_step) * tick_step, last + 1, tick_step)
        for s in sorted({first, last, *multiples}):
            x = f"{_MARGIN_LEFT + (s - first) / x_span * _PLOT_W:.1f}"
            out.append(_TICK % (x, x, x, s))
    out.append(_LEFT_AXIS)

    # right axis (fatigue / cumulative items scale)
    for i in range(5):
        v = right_max / 4 * i  # right_max * i may overflow
        y = _MARGIN_TOP + (1.0 - v / right_max) * _PLOT_H
        out.append(
            f'<line x1="{_MARGIN_LEFT + _PLOT_W}" y1="{y:.1f}" '
            f'x2="{_MARGIN_LEFT + _PLOT_W + 4}" y2="{y:.1f}" stroke="#444"/>'
        )
        out.append(
            f'<text x="{_MARGIN_LEFT + _PLOT_W + 8}" y="{y + 4:.1f}" '
            f'text-anchor="start">{v:g}</text>'
        )
    out.append(_RIGHT_LABEL)

    # data polylines: "x,y" points on the shared x texts; the y expressions
    # are those of the left and right axes
    trust_y = FormattedValues(lambda v: f"{_y_left(v):.1f}")
    out.append(
        _POLYLINE["trust"]
        + (",%s ".join(xs) + ",%s") % tuple(map(trust_y.__getitem__, trust))
        + '"/>'
    )
    points = ",%.1f ".join(xs) + ",%.1f"
    for name, series in (("fatigue", fatigue), ("productivity", cumulative)):
        ys = [_MARGIN_TOP + (1.0 - v / right_max) * _PLOT_H for v in series]
        out.append(_POLYLINE[name] + points % tuple(ys) + '"/>')

    out.append(_LEGEND)
    return "\n".join(out) + "\n"
