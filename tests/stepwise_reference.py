"""The model one turn at a time: a second statement of what
``cobotsim.engine``'s shift loop computes, for the tests to compare it with.

The package runs every shift through ``engine._simulate``, which decides a
turn from a memo, reads its disruption from a schedule drawn in lane-packed
blocks, skips ``round()`` where it is exact and fast-forwards over steady
turns. This module takes none of those shortcuts: ``run_step`` runs the
turn sequence of the ``cobotsim.engine`` docstring with per-turn state
objects, draws each disruption from a splitmix64 ``RandomStream`` as it
comes, and ``summarize_shift`` reads the KPIs back from the records.
``human_best_response`` and ``solve_stage_game`` call ``game.StageGame`` as
the shift loop does; ``human_utility`` and ``cobot_utility`` spell each
payoff out term by term, so the tests can check that solver against them.
``emit_trajectory_csv`` and ``emit_svg_chart`` are the artifact writers
as they were before the package's writers reused texts and formatted in
bulk: every value is formatted where its row or point is written.

It lives under ``tests/`` because no command runs it: the package holds what
its commands execute, and this is the reference those are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

from cobotsim.charts import (
    _COLORS,
    _HEIGHT,
    _LABELS,
    _MARGIN_BOTTOM,
    _MARGIN_LEFT,
    _MARGIN_RIGHT,
    _MARGIN_TOP,
    _WIDTH,
    _nice_ceiling,
)
from cobotsim.disruption import (
    _GAMMA,
    _MASK64,
    _MIX1,
    _MIX2,
    _TWO64,
    DisruptionEvent,
    DisruptionParams,
)
from cobotsim.dynamics import (
    STATE_DECIMALS,
    InteractionOutcome,
    classify_interaction,
    update_trust,
)
from cobotsim.engine import ModelConfig, ShiftSummary, StepRecord
from cobotsim.game import (
    ACTION_PAIRS,
    ActionPair,
    CollabLevel,
    EffortLevel,
    GameParams,
    StageGame,
    fatigue_increment,
    human_reward,
)
from cobotsim.repair import apology_after
from cobotsim.reports import _ENUM_TEXT, CSV_HEADER, FormattedValues, format_real

# -------------------------------------------------------------- stage game


@dataclass(frozen=True, slots=True)
class HumanState:
    """Follower state observed by the leader at the start of a turn."""

    fatigue: float
    trust: float

    def __post_init__(self) -> None:
        if not self.fatigue >= 0.0:
            raise ValueError(f"fatigue must be >= 0 (got {self.fatigue})")
        if not 0.0 <= self.trust <= 1.0:
            raise ValueError(f"trust must lie in [0, 1] (got {self.trust})")


def perceived_cost(pair: ActionPair, trust: float, params: GameParams) -> float:
    """Subjective cost of the turn: its fatigue increment scaled by the
    trust-dependent multiplier."""
    _check_trust(trust)
    return fatigue_increment(pair, params) * params.cost_multiplier(trust)


def _check_trust(trust: float) -> None:
    if not 0.0 <= trust <= 1.0:
        raise ValueError(f"trust must lie in [0, 1] (got {trust})")


def human_utility(pair: ActionPair, trust: float, params: GameParams) -> float:
    """Reward from items picked minus the perceived fatigue cost."""
    return human_reward(pair.human, params) - perceived_cost(pair, trust, params)


def human_best_response(
    collab: CollabLevel, trust: float, params: GameParams
) -> EffortLevel:
    """Effort maximizing the human's utility given the cobot's commitment.

    Ties reciprocate high collaboration with high effort and otherwise
    conserve energy.
    """
    _check_trust(trust)
    return StageGame(params).best_response(collab, trust).human


def cobot_utility(pair: ActionPair, state: HumanState, params: GameParams) -> float:
    """Leader payoff: the human's reward, minus the ergonomic penalty when the
    disruption-free next fatigue level would cross the threshold.

    The anticipated fatigue ignores random events; the leader only sees the
    observed state and the joint action.
    """
    value = human_reward(pair.human, params)
    if state.fatigue + fatigue_increment(pair, params) > params.fatigue_threshold:
        value -= params.penalty_weight
    return value


def solve_stage_game(state: HumanState, params: GameParams) -> ActionPair:
    """Equilibrium action pair for one turn.

    For each collaboration level, anticipate the follower's best response,
    then return the pair whose anticipated outcome the leader prefers. When
    the leader is indifferent it collaborates iff trust has reached the
    tie-break level.
    """
    return StageGame(params).solve(state.trust, state.fatigue)


# ------------------------------------------------------------- disruptions


class RandomStream:
    """splitmix64 stream; uniforms in [0, 1) are the 64-bit output / 2**64."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must be an unsigned 64-bit integer (got {seed})")
        self.state = seed

    def next_uniform(self) -> float:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        z ^= z >> 31
        return z / _TWO64


def sample_disruption(stream: RandomStream, dp: DisruptionParams) -> DisruptionEvent:
    """Draw this turn's event.

    One uniform decides occurrence; only when a disruption occurs does a
    second uniform pick its type. The draw count per branch (1 or 2) is part
    of the reproducibility contract: variants sharing a seed see identical
    event schedules because nothing else consumes the stream.
    """
    if stream.next_uniform() >= dp.chance:
        return DisruptionEvent.NONE
    if stream.next_uniform() < dp.severe_share:
        return DisruptionEvent.COBOT_FAILURE
    return DisruptionEvent.DIFFICULT_PICK


# ---------------------------------------------------------------- dynamics


def update_fatigue(
    fatigue: float, pair: ActionPair, extra: float, params: GameParams
) -> float:
    """Accumulate the pair's fatigue increment plus any disruption surcharge;
    fatigue never drops below zero."""
    return round(
        max(0.0, fatigue + fatigue_increment(pair, params) + extra), STATE_DECIMALS
    )


# ------------------------------------------------------------------- shift


def run_step(
    state: HumanState,
    remaining: int,
    stream: RandomStream,
    cfg: ModelConfig,
    step: int = 1,
) -> tuple[StepRecord, HumanState, int]:
    """Execute one turn of the fixed sequence documented in ``cobotsim.engine``.

    ``remaining`` is the number of apology turns left before the turn, in
    ``[0, cfg.apology_duration]``; the apology variant forces high
    collaboration while it is non-zero. Returns the turn's record, the next
    state and the count after the turn, which other variants leave as is.
    """
    if not 0 <= remaining <= cfg.apology_duration:
        raise ValueError(
            f"remaining must lie in [0, {cfg.apology_duration}] (got {remaining})"
        )
    variant = cfg.variant
    if variant.has_apology and remaining:
        high = CollabLevel.HIGH
        pair = ACTION_PAIRS[high, human_best_response(high, state.trust, cfg.game)]
    else:
        pair = solve_stage_game(state, cfg.game)

    if variant.has_disruptions:
        event = sample_disruption(stream, cfg.disruption)
    else:
        event = DisruptionEvent.NONE
    severe = event is DisruptionEvent.COBOT_FAILURE

    # Failed assistance still tires the human as if the cobot had stayed low.
    charged = ACTION_PAIRS[CollabLevel.LOW, pair.human] if severe else pair
    extra = (
        cfg.disruption.difficult_pick_fatigue
        if event is DisruptionEvent.DIFFICULT_PICK
        else 0.0
    )
    fatigue_post = update_fatigue(state.fatigue, charged, extra, cfg.game)

    outcome = classify_interaction(variant.trust_rule, pair, severe, cfg.game)
    trust_post = update_trust(state.trust, outcome, cfg.trust)

    if variant.has_apology:
        remaining = apology_after(remaining, outcome, cfg.apology_duration)

    record = StepRecord(
        step=step,
        trust_pre=state.trust,
        fatigue_pre=state.fatigue,
        cobot_action=pair.cobot,
        human_action=pair.human,
        disruption_event=event,
        outcome=outcome,
        items_picked=human_reward(pair.human, cfg.game),
        extra_fatigue=extra,
        trust_post=trust_post,
        fatigue_post=fatigue_post,
        apology_remaining_post=remaining,
    )
    return record, HumanState(fatigue=fatigue_post, trust=trust_post), remaining


def summarize_shift(records: list[StepRecord], horizon: int) -> ShiftSummary:
    severe_turns = [
        r.step for r in records if r.outcome is InteractionOutcome.SEVERE_FAILURE
    ]
    return ShiftSummary(
        # The left-to-right fold: sum() compensates float sums from Python 3.12 on.
        productivity=reduce(add, (r.items_picked for r in records), 0),
        final_fatigue=records[-1].fatigue_post,
        final_trust=records[-1].trust_post,
        peak_fatigue=max(r.fatigue_post for r in records),
        recovery_times=[(t, recovery_time(records, t, horizon)) for t in severe_turns],
    )


def recovery_time(
    records: list[StepRecord], severe_turn: int, horizon: int
) -> int | None:
    """Steps until trust first returns to its level just before the drop.

    Returns None (censored) when no turn within the horizon gets there.
    """
    if not 1 <= severe_turn <= len(records):
        raise ValueError(f"severe_turn {severe_turn} outside the recorded shift")
    origin = records[severe_turn - 1]
    if origin.outcome is not InteractionOutcome.SEVERE_FAILURE:
        raise ValueError(f"turn {severe_turn} is not a severe failure")
    target = origin.trust_pre
    last = min(horizon, len(records))
    for k in range(1, last - severe_turn + 1):
        if records[severe_turn + k - 1].trust_post >= target:
            return k
    return None


# --------------------------------------------------------------- artifacts


def emit_trajectory_csv(records: list[StepRecord]) -> str:
    """Serialize a shift trajectory, one row per turn, LF line endings."""
    if not records:
        raise ValueError("cannot emit a trajectory for zero records")
    # Trust and items take a few values per shift; fatigue takes a new value
    # nearly every turn, where a table would only add a miss per row.
    text, real, repeated = _ENUM_TEXT, format_real, FormattedValues(format_real)
    lines = [CSV_HEADER]
    lines += [
        f"{r.step},{repeated[r.trust_pre]},{real(r.fatigue_pre)},{text[r.cobot_action]},"
        f"{text[r.human_action]},{text[r.disruption_event]},{text[r.outcome]},"
        f"{repeated[r.items_picked]},{repeated[r.trust_post]},{real(r.fatigue_post)},"
        f"{r.apology_remaining_post}"
        for r in records
    ]
    return "\n".join(lines) + "\n"


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
