"""SVG chart emission: structure, scaling, and trajectory shape."""

import math
import re
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cobotsim import ModelConfig, ModelVariant, emit_svg_chart, parse_config, run_shift
from cobotsim.dynamics import InteractionOutcome


GOLDEN_CHART = Path(__file__).parent / "golden" / "v1_3_seed42_chart.svg"


def records_for(variant, seed=0):
    records, _ = run_shift(ModelConfig(variant=ModelVariant(variant), seed=seed))
    return records


def polyline_points(svg, name):
    match = re.search(rf'class="series-{name}" points="([^"]+)"', svg)
    assert match, f"series {name} missing"
    return [tuple(map(float, p.split(","))) for p in match.group(1).split()]


@given(st.floats())
@example(-0.0)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(5e-324)  # the smallest subnormal
@example(2.225073858507201e-308)  # the largest subnormal
@example(0.25)  # a tie at one decimal, which rounds to even
@example(0.05)  # just above a tie
def test_percent_formatting_matches_format_spec(x):
    # The chart formats its polylines with "%", its other coordinates with
    # format specs; both must write the same text.
    assert "%.1f" % x == f"{x:.1f}"


def test_is_self_contained_svg():
    svg = emit_svg_chart(records_for("v1.1"))
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    # no external assets: the only URL is the SVG namespace itself
    assert svg.count("http") == svg.count("http://www.w3.org/2000/svg")


def test_chart_matches_golden_file():
    # Frozen from the per-point emitter; every coordinate is pinned.
    expected = GOLDEN_CHART.read_text(encoding="utf-8")
    assert emit_svg_chart(records_for("v1.3", seed=42)) == expected


def test_one_polyline_per_series():
    svg = emit_svg_chart(records_for("v1.1"))
    for name in ("trust", "fatigue", "productivity"):
        assert svg.count(f'class="series-{name}"') == 1


def test_empty_and_unknown_series_rejected():
    with pytest.raises(ValueError):
        emit_svg_chart([])


def test_refined_trust_polyline_saturates():
    # non-decreasing trust means non-increasing pixel y; flat at the top from
    # step 10 onward
    svg = emit_svg_chart(records_for("v1.1"))
    points = polyline_points(svg, "trust")
    ys = [y for _, y in points]
    assert all(b <= a for a, b in zip(ys, ys[1:]))
    assert len(set(ys[9:])) == 1


def test_naive_trust_polyline_collapses():
    svg = emit_svg_chart(records_for("v1.0"))
    points = polyline_points(svg, "trust")
    ys = [y for _, y in points]
    assert all(b >= a for a, b in zip(ys, ys[1:]))
    assert len(set(ys[4:])) == 1  # flat at zero from step 5


def test_severe_turns_marked():
    for seed in range(40):
        records = records_for("v1.3", seed=seed)
        severe = sum(1 for r in records if r.outcome is InteractionOutcome.SEVERE_FAILURE)
        if severe:
            svg = emit_svg_chart(records)
            assert svg.count('class="severe-marker"') == severe
            return
    pytest.fail("no run with a severe failure found")


def test_axis_labels_and_legend_present():
    svg = emit_svg_chart(records_for("v1.1"))
    assert ">step<" in svg
    assert ">trust<" in svg
    assert "items (cumulative)" in svg
    assert "fatigue" in svg


def test_right_axis_stays_finite_near_the_largest_double():
    # The 1/2/5 ceiling above 1.7e308 and right_max * i both overflow to inf.
    records, _ = run_shift(parse_config("fatigue.initial = 1.7e308\nhorizon = 1\n"))
    svg = emit_svg_chart(records)
    assert not re.findall(r"\b(?:nan|inf)\b", svg, re.IGNORECASE)
    assert 'text-anchor="start">1.7e+308<' in svg


def test_right_axis_keeps_a_unit_scale_for_small_values():
    # One turn of half an item: fatigue and items both stay below 1, and the
    # axis still runs to 1.
    text = "horizon = 1\ngame.reward_normal = 0.5\ngame.reward_high = 0.9\n"
    records, _ = run_shift(parse_config(text))
    assert max(records[0].fatigue_post, records[0].items_picked) <= 1.0
    svg = emit_svg_chart(records)
    ticks = re.findall(r'text-anchor="start">([^<]+)<', svg)
    assert ticks == ["0", "0.25", "0.5", "0.75", "1"]
