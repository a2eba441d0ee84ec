"""Shift loop: the fixed per-turn sequence, whole-shift runs, and seed ensembles.

Every turn executes the same sequence, and the sequence is part of the
external contract because reordering it changes trajectories:

1. apology countdown consulted (apology variant only);
2. leader action = high collaboration while the countdown is non-zero, or
   the stage-game equilibrium;
3. follower action = best response to the leader action;
4. disruption read from the seed's schedule (stochastic variants only;
   deterministic variants consume no random draws);
5. fatigue updated — a cobot failure charges the turn as if collaboration
   had been low, a difficult pick adds its surcharge;
6. outcome classified under the variant's trust rule, trust updated;
7. apology countdown advanced: a forced turn is consumed, then a severe
   failure re-arms ``cfg.apology_duration``.

``run_shift`` and ``run_paired`` (``run_ensemble`` is its one-config case)
share one flat loop, ``_simulate``, that runs this sequence over plain
floats, bools and an int apology countdown, for one config over a list of
schedules; its docstring describes the exact fatigue arithmetic, the
fast-forward over steady turns, the productivity total and the recovery
ledger. Productivity is the left-to-right running total of the turns'
items on every Python version, so a shift fast-forwards only where its
rewards make that total exact (``_StagePolicy``). Step 4 reads the
seed's sparse disruption schedule, drawn up front by
``disruption.schedule``; ``run_paired`` draws each seed's schedule once,
with one ``ScheduleDrawer`` per call, and runs every config over it. It
works a block of seeds at a time, one ``ScheduleDrawer.draws`` call per
block and one ``_simulate`` call per config per block, and a block holds
at most ``_BLOCK_TURNS`` turns of one config, so at ``MAX_HORIZON`` it is
one seed. A deterministic variant runs one shift per block, since every
seed runs the same one. Steps 2 and 3 come from a
``_StagePolicy``, the stage game of one parameter set made once per call;
its docstring describes the decision memo and the event-free opening that
shifts start from, and ``run_paired``'s says which configs share one.
Ensembles build no per-turn records and keep no shifts: each block's
results are folded into per-seed KPIs and each seed's first severe failure
before the next block runs. Only ``run_shift`` builds a ``ShiftSummary``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from heapq import heappop, heappush
from itertools import accumulate, repeat

from .disruption import DisruptionEvent, DisruptionParams, ScheduleDrawer, schedule
from .dynamics import (
    STATE_DECIMALS,
    InteractionOutcome,
    TrustParams,
    TrustRule,
    classify_interaction,
    update_trust,
)
from .game import ACTION_PAIRS, ActionPair, CollabLevel, EffortLevel, GameParams, StageGame

MAX_SEED = (1 << 64) - 1  # seeds are unsigned 64-bit integers
# A shift keeps one record per turn. At this bound, ``run`` writing every
# artifact takes about 0.51 s and 77 MB peak RSS (best of 10, CPython 3.11,
# 2-vCPU Xeon).
MAX_HORIZON = 100_000
# Below this, sums of multiples of 2**-STATE_DECIMALS are exact doubles.
_EXACT = 2.0 ** (52 - STATE_DECIMALS)
# x is a multiple of 2**-STATE_DECIMALS iff x * _DYADIC is an integer.
_DYADIC = 2.0**STATE_DECIMALS
# Enum members, read once: each read of one through its class costs a
# lookup, and every shift reads these.
_NONE, _PICK, _FAILURE = (
    DisruptionEvent.NONE, DisruptionEvent.DIFFICULT_PICK, DisruptionEvent.COBOT_FAILURE
)
_SEVERE, _HIGH = InteractionOutcome.SEVERE_FAILURE, CollabLevel.HIGH
# The fatigue level at which all the stage game's threshold tests hold, one
# per joint action (see ``_StagePolicy``).
_TOP = len(ACTION_PAIRS)
# The memo table of the forced turns of an apology.
_APOLOGY = _TOP + 1
# Most turns of the event-free opening ``run_paired`` shares between seeds:
# enough for the opening ramp, and a fixed cost on any horizon.
_OPENING = 256
# Most turns of one config that ``run_paired`` runs in one ``_simulate``
# call, a block of seeds at a time: the block's schedules and results are
# all that it holds at once.
_BLOCK_TURNS = 2**14


class ModelVariant(str, Enum):
    V1_0 = "v1.0"  # naive trust rule, deterministic
    V1_1 = "v1.1"  # refined trust rule, deterministic
    V1_2 = "v1.2"  # refined rule plus random disruptions
    V1_3 = "v1.3"  # disruptions plus the apology mode

    @property
    def trust_rule(self) -> TrustRule:
        return TrustRule.NAIVE if self is ModelVariant.V1_0 else TrustRule.REFINED

    @property
    def has_disruptions(self) -> bool:
        return self in (ModelVariant.V1_2, ModelVariant.V1_3)

    @property
    def has_apology(self) -> bool:
        return self is ModelVariant.V1_3


@dataclass
class ModelConfig:
    """Everything a run depends on; two equal configs give bit-identical runs."""

    variant: ModelVariant = ModelVariant.V1_1
    horizon: int = 50
    seed: int = 0
    game: GameParams = field(default_factory=GameParams)
    trust: TrustParams = field(default_factory=TrustParams)
    disruption: DisruptionParams = field(default_factory=DisruptionParams)
    apology_duration: int = 3

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not isinstance(self.variant, ModelVariant):
            raise ValueError(f"variant must be a ModelVariant (got {self.variant!r})")
        for name in ("horizon", "seed", "apology_duration"):
            value = getattr(self, name)
            # bool is an int subclass, but True is no turn count.
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer (got {value!r})")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1 (got {self.horizon})")
        if self.horizon > MAX_HORIZON:
            raise ValueError(f"horizon must be <= {MAX_HORIZON} (got {self.horizon})")
        if not 0 <= self.seed <= MAX_SEED:
            raise ValueError(
                f"seed must be an unsigned 64-bit integer (got {self.seed})"
            )
        if self.apology_duration < 1:
            raise ValueError(
                f"apology_duration must be >= 1 (got {self.apology_duration})"
            )
        self.game.validate()
        self.trust.validate()
        self.disruption.validate()


@dataclass(slots=True)
class StepRecord:
    """Full audit of one turn.

    ``_simulate`` does not call the class: it makes each record with
    ``object.__new__`` and fills its slots one store per field, at two
    sites, a turn's own record and the replay of a jumped stretch. A new
    field must be set at both, and no ``__post_init__`` or ``__init__`` of
    its own would run there."""

    step: int
    trust_pre: float
    fatigue_pre: float
    cobot_action: CollabLevel
    human_action: EffortLevel
    disruption_event: DisruptionEvent
    outcome: InteractionOutcome
    items_picked: float
    extra_fatigue: float
    trust_post: float
    fatigue_post: float
    apology_remaining_post: int


@dataclass
class ShiftSummary:
    """KPIs of one shift. ``recovery_times`` holds one entry per severe
    failure: (turn, steps until trust regained its pre-drop level, or None
    when the shift ended first). ``severe_failure_turns`` reads the turns
    from it."""

    productivity: float
    final_fatigue: float
    final_trust: float
    peak_fatigue: float
    recovery_times: list[tuple[int, int | None]]

    @property
    def severe_failure_turns(self) -> list[int]:
        return [turn for turn, _ in self.recovery_times]


class _StagePolicy(StageGame):
    """The stage game of one parameter set, with every leader decision
    memoised for one call of ``run_shift`` or ``run_paired``, and the
    parameter set's event-free opening. ``run_paired`` says which configs
    share one.

    Levels and memo: ``solve`` reads fatigue only through the threshold tests
    ``fatigue + inc > threshold``, one per table increment. Rounded float
    addition is monotone, so the tests that hold are always those of the
    ``level`` largest increments, where ``level`` counts them (0 to 4):
    ``(trust, level)`` fixes every test, and ``tables[level]`` memoises the
    decisions of one level keyed by trust. One more table,
    ``tables[_APOLOGY]``, holds the forced high-collaboration turns of an
    apology, which read no fatigue. ``edges`` lists the increments from the
    largest down, then -inf: ``edges[level]`` is the increment whose test
    turns true next as fatigue rises, and none does at the top level. Misses
    call ``solve`` and ``best_response``, so ``StageGame``'s tie rules stay
    the only ones. A decision holds
    the per-turn constants of one action pair at one trust and level, see
    ``_decision``.

    ``pairs`` holds, keyed by the pair's ``id``, each action pair's per-turn
    constants and its steady flag: ``solve`` and ``best_response`` return
    ``ACTION_PAIRS`` members, and an ``id`` key skips ``ActionPair``'s
    ``__hash__``, which hashes its two enum members in Python. The
    constants are read once from ``StageGame``'s ``low`` and ``high``
    ``(pair, reward, increment)`` options: the pair's members, its items,
    its increment, the increment of the low option of the same effort,
    which a failed turn charges, and its outcome unless severe.

    Jump gate: ``exact`` holds when both rewards are multiples of
    2**-STATE_DECIMALS and ``horizon * reward_high`` lies below ``_EXACT``,
    so every partial sum of a shift's items is exact and a jump's ``k *
    items`` equals k additions. A pair's steady flag holds when ``exact``
    does and its increment is a non-negative multiple of
    2**-STATE_DECIMALS; a decision carries an ``edge`` only then.

    Opening: before its first event a shift has no severe failure, hence no
    apology and no recovery, so every shift of the parameter set follows one
    event-free trajectory up to the turn before its first event.
    ``opening`` holds it as ``_simulate`` reads it: ``states[t]``, the
    trust, fatigue and running peak fatigue after turn t (``states[0]`` the
    initial state), and ``totals[t]``, the running total of the items of
    turns 1..t from the int 0. It is the initial state alone, an opening of
    no turns, until ``open`` runs the first L = min(horizon, ``_OPENING``)
    turns, through ``_simulate``'s one loop, which keeps each turn's
    post-turn trust, fatigue and items for it instead of a ``StepRecord``.
    Its fatigues, fast-forwarded ones too, are exact (see ``_simulate``), so
    a shift started from it equals one run from the initial state, and a
    shift without events of at most L turns is read off it whole. An opened
    policy serves only runs that keep no records.

    ``severe`` keeps, per trust, the post-turn trust after a severe failure
    (see ``_decision``).
    """

    __slots__ = ("cfg", "pairs", "edges", "tables", "severe", "exact", "opening")

    def __init__(self, cfg: ModelConfig) -> None:
        game, rule = cfg.game, cfg.variant.trust_rule
        super().__init__(game)
        self.cfg = cfg
        rewards = game.reward_normal, game.reward_high
        self.exact = exact = (all((r * _DYADIC).is_integer() for r in rewards)
                              and cfg.horizon * game.reward_high < _EXACT)
        # (pair, reward, increment) of the four pairs, and of the low option
        # of the same effort, whose increment a failed turn charges.
        options, failed = self.low[:2] + self.high[:2], self.low[:2] * 2
        self.pairs: dict[int, tuple[tuple, bool]] = {
            id(pair): ((pair.cobot, pair.human, reward, inc, low[2],
                        classify_interaction(rule, pair, False, game)),
                       exact and inc >= 0.0 and (inc * _DYADIC).is_integer())
            for (pair, reward, inc), low in zip(options, failed)
        }
        self.edges = (*sorted((inc for *_, inc in options), reverse=True), -math.inf)
        self.tables = tuple({} for _ in range(_APOLOGY + 1))
        self.severe: dict[float, float] = {}
        start = cfg.trust.initial_trust, cfg.trust.initial_fatigue, -math.inf
        self.opening: tuple[list[tuple[float, float, float]], list[float]] = [start], [0]

    def open(self) -> None:
        """Set ``opening`` to the event-free shift over the first
        min(horizon, ``_OPENING``) turns. ``_simulate`` runs it with
        ``keep_records="opening"``, so it builds no ``StepRecord``: it
        returns each turn's post-turn ``(trust, fatigue, items)``, and the
        running peaks and item totals are accumulated from those. The
        config is copied, which validates it again, only when its horizon
        must be cut to ``_OPENING``."""
        cfg = self.cfg
        if cfg.horizon > _OPENING:
            cfg = replace(cfg, horizon=_OPENING)
        [(turns, *_)] = _simulate(cfg, [[]], self, keep_records="opening")
        trusts, fatigues, items = zip(*turns)
        states = zip(trusts, fatigues, accumulate(fatigues, max))
        self.opening = self.opening[0] + [*states], [*accumulate(items, initial=0)]

    def _decision(self, pair: ActionPair, trust: float, level: int) -> tuple:
        """``(cobot, human, items, increment, increment if the cobot fails,
        outcome unless severe, post-turn trust for that outcome, post-turn
        trust after a severe failure, edge)``. Both trusts come from
        ``update_trust``, so the shift loop rounds no trust itself. The
        severe one depends on trust alone, so ``severe`` keeps it per trust
        for every level, keyed by the float alone: a key holding the
        outcome would hash an enum member in Python.

        ``edge`` is ``edges[level]`` when a turn of this decision that no
        cobot failure strikes may start a fast-forward (see ``_simulate``),
        else None; a difficult pick adds to fatigue alone.
        That needs the pair's steady flag, fixed per policy: the rewards keep
        the productivity total exact (``exact``), and the increment is a
        non-negative multiple of 2**-STATE_DECIMALS, so fatigue never falls
        and its sums stay exact. It also needs the stage game to decide the
        turn (not an apology, whose countdown changes the next turn) and
        trust to stay put, so every later turn at this level meets this
        decision again.
        """
        constants, steady = self.pairs[id(pair)]
        tp = self.cfg.trust
        trust_post = update_trust(trust, constants[-1], tp)
        severe = self.severe.get(trust)
        if severe is None:
            severe = self.severe[trust] = update_trust(trust, _SEVERE, tp)
        steady = steady and trust_post == trust and level != _APOLOGY
        return constants + (trust_post, severe, self.edges[level] if steady else None)

    def level(self, fatigue: float) -> int:
        """How many threshold tests of the stage game hold at ``fatigue``."""
        threshold = self.threshold
        return sum(fatigue + inc > threshold for inc in self.edges[:-1])

    def leader(self, trust: float, fatigue: float, level: int) -> tuple:
        """Decision at (trust, fatigue) of ``level``: the forced high
        collaboration at ``_APOLOGY``, else the stage-game equilibrium."""
        table = self.tables[level]
        decision = table.get(trust)
        if decision is None:
            if level == _APOLOGY:
                pair = self.best_response(_HIGH, trust)
            else:
                pair = self.solve(trust, fatigue)
            decision = table[trust] = self._decision(pair, trust, level)
        return decision


def _exact_fatigue(cfg: ModelConfig, edges: tuple) -> bool:
    """Whether the initial fatigue of ``cfg``, its difficult-pick surcharge
    and the increments ``edges`` lists are all non-negative multiples of
    2**-STATE_DECIMALS, none of them -0.0: then no fatigue of its shifts
    needs the clamp or ``round()`` (see ``_simulate``)."""
    terms = cfg.trust.initial_fatigue, cfg.disruption.difficult_pick_fatigue, *edges[:-1]
    return all(math.copysign(1.0, x) > 0.0 and (x * _DYADIC).is_integer() for x in terms)


def _simulate(
    cfg: ModelConfig,
    schedules: list[list[tuple[int, bool]]],
    policy: _StagePolicy,
    keep_records: bool | str,
) -> list[tuple]:
    """One shift of ``cfg`` under each disruption schedule of ``schedules``
    (see ``disruption.schedule``), taking its leader decisions from
    ``policy``: the module's turn sequence over plain values. The locals
    derived from ``cfg`` and ``policy`` are bound once per call, and
    ``run_paired`` passes a block of seeds' schedules, of at most
    ``_BLOCK_TURNS`` turns in all unless one seed's horizon is longer;
    ``run_shift`` and ``_StagePolicy.open`` pass one schedule. Returns, per
    schedule, ``(records, productivity, final fatigue, final trust, peak
    fatigue, recoveries)``, the fields of ``ShiftSummary`` after the
    records, which are None unless ``keep_records`` (see Records).

    Each shift starts from ``policy.opening`` (see ``_StagePolicy``) after
    turn ``min(first event - 1, L)`` of its L turns, turn horizon + 1
    standing in for a first event when there is none (``past_end``, also
    the next event after the last); an unopened policy has L = 0.

    Exact fatigue: a turn's fatigue is ``round(max(0.0, fatigue + inc +
    extra), STATE_DECIMALS)``, except that ``round()`` is skipped for
    multiples of 2**-STATE_DECIMALS. Such a value has at most
    STATE_DECIMALS decimals, so rounding returns it unchanged. The clamp and
    that test are skipped for the whole call when ``_exact_fatigue`` holds:
    the initial fatigue, every pair's increment (a failed turn's is one of
    them) and the difficult-pick surcharge are non-negative multiples of
    2**-STATE_DECIMALS, none of them -0.0, which the clamp would map to 0.0.
    Each fatigue is then +0.0 or more and such a multiple, so both are the
    identity: a sum of multiples is exact below 2**(53 - STATE_DECIMALS),
    and every double from ``_EXACT`` up is a multiple, so the flag needs no
    horizon bound. Where ``fatigue * 2**STATE_DECIMALS`` overflows, the test
    would also have dropped the turn's ``edge``, but that jump fails ``end <
    _EXACT`` anyway. Trust needs no arithmetic here: each decision carries
    its post-turn trusts (see ``_StagePolicy._decision``).

    Fast-forward: each stage-game turn finds its level (see
    ``_StagePolicy``) once: by one test on either side of the band, where
    the loop reads the memo itself, or by ``policy.level`` inside it. After
    a turn whose decision carries an ``edge``, the loop jumps, in one step,
    to the turn before the next event or to the horizon: each later turn up
    to the next event, while it keeps the level, meets the same decision,
    outcome and trust, and adds the same ``inc`` to fatigue. While fatigue
    and ``inc`` are non-negative multiples of 2**-STATE_DECIMALS below
    ``_EXACT`` each sum is exact, so ``fatigue + k * inc`` is what k
    turns would reach. A difficult pick on the jumped-from turn changes
    none of that: it adds its surcharge, >= 0, to that turn's fatigue
    alone, and leaves the outcome and trust to the decision. Fatigue only
    rises from the turn's pre-turn fatigue, so every threshold test of its
    level holds on, and the edge test below covers the rest. The jump is
    taken only when:

    - the decision carries an ``edge``, which needs ``policy.exact``, so
      ``total + k * items`` is what k turns would add;
    - no cobot failure struck the turn, and its fatigue needed no
      ``round()``, so it is a multiple of 2**-STATE_DECIMALS;
    - k > 0, and ``end = fatigue + k * inc`` lies below ``_EXACT``,
      so every partial sum is an exact double and needs no ``round()``;
    - the test of the level's ``edge``, the next to turn true, stays false
      up to the last skipped turn, ``not (end - inc) + edge > threshold``,
      which always holds at the top level, whose edge is -inf.

    Peak: while ``_exact_fatigue`` holds every fatigue term is >= 0, so
    fatigue never falls and the peak is the shift's final fatigue, set once
    after its loop. Otherwise (``rounds``) each turn tests its post-turn
    fatigue, and a jump its ``end``.

    Productivity: the running total, ``total += items`` per turn and
    ``total += k * items`` per jump, the left-to-right sum of the items.

    Recovery ledger: ``recoveries`` gets one ``(turn, None)`` entry per
    severe failure, and ``pending`` is a heap of the ``(pre-drop trust,
    index)`` of each failure not yet regained, above an ``(inf, -1)``
    sentinel; ``target`` is the smallest pre-drop trust, ``pending[0][0]``,
    refreshed after each pop and push. Each turn pops the failures whose
    target its post-turn trust reaches and writes their steps into their
    entries, which become ``recovery_times`` as they stand. A jump needs no
    recovery check: trust is constant through it, and the jumped-from turn
    already popped every target at or below it. Without ``keep_records``
    only a shift's first severe failure enters the ledger, the one entry
    ``run_paired`` reads: a failure's recovery depends on the trust path
    alone, not on the failures after it. Every failure still re-arms the
    apology countdown.

    Records: with ``keep_records=True`` each turn, a jumped one too, gets a
    ``StepRecord`` made by ``object.__new__`` and one store per slot, not
    by calling the class. A class call goes through ``type.__call__`` and an
    ``__init__`` frame. Calling it would make 2,000 of a 2000-turn v1.3
    shift's 2,343 Python calls (``scripts/cost_report.py``), and building
    2,000 records took 1.26-1.29 ms by calls against 0.78-0.80 ms by stores
    (medians of 200, CPython 3.11). With ``keep_records="opening"``
    (``_StagePolicy.open``) each turn keeps only its post-turn ``(trust,
    fatigue, items)`` tuple, and a jumped stretch's tuples are made in bulk
    by ``repeat`` and ``accumulate``, over the same float additions the
    records' replay makes. Both live inside the ``keep_records`` tests, so
    a run without records makes no further test per turn. A jumped turn
    holds the jumped-from turn's post-turn trust, as the next turn would:
    it equals that turn's pre-turn trust, but for the sign of a zero."""
    pick_extra = cfg.disruption.difficult_pick_fatigue
    duration = cfg.apology_duration if cfg.variant.has_apology else 0
    horizon, leader, tables = cfg.horizon, policy.leader, policy.tables
    edges, threshold = policy.edges, policy.threshold
    rounds = not _exact_fatigue(cfg, edges)
    largest, smallest = edges[0], edges[_TOP - 1]
    calm_get, top_get, apology_get = tables[0].get, tables[_TOP].get, tables[_APOLOGY].get
    past_end = horizon + 1, False
    none, pick, failure, severe, dyadic = _NONE, _PICK, _FAILURE, _SEVERE, _DYADIC
    new, record, inf = object.__new__, StepRecord, math.inf
    states, totals = policy.opening
    opened = len(states) - 1
    for_opening = keep_records == "opening"
    records = append = None
    shifts = []

    for events in schedules:
        upcoming = iter(events)
        event_turn, event_severe = next(upcoming, past_end)
        step = min(event_turn - 1, opened)
        trust, fatigue, peak = states[step]
        total = totals[step]
        remaining = 0  # apology turns left; only the apology variant arms it
        if keep_records:
            records = []
            append = records.append
        recoveries: list[tuple[int, int | None]] = []
        pending: list[tuple[float, int]] = [(inf, -1)]
        target = inf

        while step < horizon:
            step += 1
            if remaining:
                decision = apology_get(trust) or leader(trust, fatigue, _APOLOGY)
            elif not fatigue + largest > threshold:
                decision = calm_get(trust) or leader(trust, fatigue, 0)
            elif fatigue + smallest > threshold:
                decision = top_get(trust) or leader(trust, fatigue, _TOP)
            else:
                decision = leader(trust, fatigue, policy.level(fatigue))
            (cobot, human, items, inc, failed_inc, outcome, trust_post, severe_trust,
             edge) = decision
            event, extra = none, 0.0
            if step == event_turn:
                if event_severe:  # no jump from a cobot failure's turn
                    event, inc, outcome, edge = failure, failed_inc, severe, None
                    trust_post = severe_trust
                else:
                    event, extra = pick, pick_extra
                event_turn, event_severe = next(upcoming, past_end)
            # The fatigue update, skipping round() where it is the identity: a
            # multiple of 1/dyadic is m * 5**STATE_DECIMALS / 10**STATE_DECIMALS,
            # so it has at most STATE_DECIMALS decimals already. An overflow to
            # inf fails is_integer() and is rounded. Without rounds fatigue
            # never falls, so the peak is the final fatigue, set after the loop
            # (see Peak).
            fatigue_post = fatigue + inc + extra
            if rounds:
                if not fatigue_post > 0.0:  # max(0.0, x), also for -0.0 and NaN
                    fatigue_post = 0.0
                elif not (fatigue_post * dyadic).is_integer():
                    fatigue_post, edge = round(fatigue_post, STATE_DECIMALS), None
                if fatigue_post > peak:
                    peak = fatigue_post
            # Tick before arming: a severe failure during an active apology must
            # still leave a full window behind it.
            if remaining:
                remaining -= 1
            while trust_post >= target:
                index = heappop(pending)[1]
                turn = recoveries[index][0]
                recoveries[index] = (turn, step - turn)
                target = pending[0][0]
            if outcome is severe:
                if keep_records or not recoveries:
                    heappush(pending, (trust, len(recoveries)))
                    recoveries.append((step, None))
                    target = pending[0][0]
                remaining = duration
            if keep_records:
                if for_opening:
                    append((trust_post, fatigue_post, items))
                else:
                    r = new(record)
                    r.step = step
                    r.trust_pre = trust
                    r.fatigue_pre = fatigue
                    r.cobot_action = cobot
                    r.human_action = human
                    r.disruption_event = event
                    r.outcome = outcome
                    r.items_picked = items
                    r.extra_fatigue = extra
                    r.trust_post = trust_post
                    r.fatigue_post = fatigue_post
                    r.apology_remaining_post = remaining
                    append(r)
            total += items
            # Every turn up to the next event that keeps the level repeats this
            # one, with fatigue rising by inc. Jump over them where that sum is
            # exact.
            if edge is not None:
                k = event_turn - 1 - step
                end = fatigue_post + k * inc
                if k and end < _EXACT and not (end - inc) + edge > threshold:
                    if keep_records:
                        if for_opening:
                            f = accumulate(repeat(inc, k - 1), initial=fatigue_post + inc)
                            records += zip(repeat(trust_post, k), f, repeat(items, k))
                        else:
                            f = fatigue_post
                            for t in range(step + 1, step + k + 1):
                                r = new(record)
                                r.step = t
                                r.trust_pre = trust_post
                                r.fatigue_pre = f
                                r.cobot_action = cobot
                                r.human_action = human
                                r.disruption_event = none
                                r.outcome = outcome
                                r.items_picked = items
                                r.extra_fatigue = 0.0
                                r.trust_post = trust_post
                                f += inc
                                r.fatigue_post = f
                                r.apology_remaining_post = 0
                                append(r)
                    total += k * items
                    fatigue_post = end
                    step += k
                    # inc >= 0, so the end is the stretch's largest fatigue.
                    if end > peak:
                        peak = end
            trust, fatigue = trust_post, fatigue_post
        shifts.append((records, total, fatigue, trust, peak if rounds else fatigue, recoveries))
    return shifts


def run_shift(cfg: ModelConfig) -> tuple[list[StepRecord], ShiftSummary]:
    """Run one full shift from the configured initial state."""
    events = []  # the deterministic variants consume no draws
    if cfg.variant.has_disruptions:
        events = schedule(cfg.seed, cfg.horizon, cfg.disruption)
    [(records, *kpis)] = _simulate(cfg, [events], _StagePolicy(cfg), keep_records=True)
    return records, ShiftSummary(*kpis)


@dataclass
class EnsembleSummary:
    """Aggregates over consecutive-seed runs of one configuration; it keeps
    no shift, only each run's first severe failure.

    ``first_failures`` has one entry per seed: the first entry of the
    shift's ``recovery_times``, (turn, recovery steps or None when
    censored), or None for a shift without a severe failure. The median
    first recovery treats censored entries as +inf. A mean or median is inf
    where summing finite values overflows a double.
    """

    n_seeds: int
    base_seed: int
    mean_productivity: float
    median_productivity: float
    mean_final_trust: float
    median_final_trust: float
    mean_final_fatigue: float
    median_final_fatigue: float
    first_failures: list[tuple[int, int | None] | None]

    @property
    def runs_with_severe(self) -> int:
        return self.n_seeds - self.first_failures.count(None)

    @property
    def censored_count(self) -> int:
        return sum(1 for first in self.first_failures if first and first[1] is None)

    @property
    def median_first_recovery(self) -> float | None:
        return median_recovery_capped(self, math.inf)


def run_paired(
    cfgs: list[ModelConfig], n_seeds: int, base_seed: int = 1
) -> list[EnsembleSummary]:
    """Run every config of ``cfgs`` over seeds base_seed, base_seed + 1, ...
    and aggregate each config's KPIs, in the order of ``cfgs``.

    The shifts come from ``_iter_paired``, a block of seeds at a time: each
    config runs a block in one ``_simulate`` call, and a block holds at most
    ``_BLOCK_TURNS`` turns of one config and at least one seed. No shift is
    kept: ``zip(*shifts)`` folds each block's shifts into the config's
    columns, every seed's productivity, final trust, final fatigue and first
    severe failure, the one ledger entry such a shift carries.

    Configs share one ``_StagePolicy`` (its memo and opening) when they hold
    the same ``game`` and ``trust`` objects and one trust rule, as configs
    built from one base by ``dataclasses.replace`` do. Configs built apart
    get a policy each, even when equal in value; their results are the same.
    """
    columns = [([], [], [], []) for _ in cfgs]
    for block in _iter_paired(cfgs, n_seeds, base_seed):
        for shifts, (productivity, trust, fatigue, first) in zip(block, columns):
            _, items, final_fatigue, final_trust, _, ledgers = zip(*shifts)
            productivity += items
            trust += final_trust
            fatigue += final_fatigue
            first += [ledger[0] if ledger else None for ledger in ledgers]
    return [_aggregate(column, base_seed) for column in columns]


def _iter_paired(cfgs: list[ModelConfig], n_seeds: int, base_seed: int):
    """Yield, for each block of consecutive seeds from base_seed on, a tuple
    of one list per config of ``cfgs``, in their order, of the block's
    shifts as ``_simulate`` returns them without records, in seed order:
    each shift's ledger holds its first severe failure alone.

    A block holds at most ``_BLOCK_TURNS`` turns of one config, and at
    least one seed, so at ``MAX_HORIZON`` a block is one seed. Each config
    runs a block in one ``_simulate`` call; a deterministic one runs a
    single shift there, which stands for every seed of the block, since it
    draws nothing and every seed's shift is the same. Each seed's
    disruption schedule is drawn once, by one ``ScheduleDrawer.draws`` call
    per block, and shared by every stochastic config, so the configs must
    agree on the horizon and the disruption parameters. Configs share
    ``_StagePolicy`` objects as ``run_paired`` says, each opened when it
    serves more than one shift: one of its configs is stochastic and runs
    more than one seed, or deterministic and runs more than one block. Each
    shift equals ``run_shift`` of its config at that seed, but for the
    ledger's later entries, as a shared seed pins the same schedule in
    every variant.
    """
    if not cfgs:
        raise ValueError("run_paired needs at least one config")
    for name, value in (("n_seeds", n_seeds), ("base_seed", base_seed)):
        # bool is an int subclass, but True is no seed.
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer (got {value!r})")
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1 (got {n_seeds})")
    last_seed = base_seed + n_seeds - 1
    if base_seed < 0 or last_seed > MAX_SEED:
        raise ValueError(
            f"seeds {base_seed}..{last_seed} must all be unsigned 64-bit integers"
        )
    horizon, disruption = cfgs[0].horizon, cfgs[0].disruption
    if any(c.horizon != horizon or c.disruption != disruption for c in cfgs):
        raise ValueError("paired configs must share horizon and disruption parameters")
    size = max(1, _BLOCK_TURNS // horizon)
    policies: dict[tuple, _StagePolicy] = {}
    opening = set()
    runs = []
    for cfg in cfgs:
        key = id(cfg.game), id(cfg.trust), cfg.variant.trust_rule
        policy = policies.get(key)
        if policy is None:
            policy = policies[key] = _StagePolicy(cfg)
        stochastic = cfg.variant.has_disruptions
        # A config runs one shift per seed, or per block if deterministic;
        # an opening that serves one shift does not pay for itself.
        if n_seeds > (1 if stochastic else size):
            opening.add(key)
        runs.append((cfg, policy, stochastic))
    for key in opening:
        policies[key].open()
    drawer = None
    if any(stochastic for *_, stochastic in runs):
        drawer = ScheduleDrawer(horizon, disruption)
    for start in range(base_seed, last_seed + 1, size):
        seeds = range(start, min(start + size, last_seed + 1))
        schedules = drawer.draws(seeds.start, seeds.stop) if drawer else None
        yield tuple(
            _simulate(cfg, schedules, policy, False)
            if stochastic
            else _simulate(cfg, [[]], policy, False) * len(seeds)
            for cfg, policy, stochastic in runs
        )


def run_ensemble(cfg: ModelConfig, n_seeds: int, base_seed: int = 1) -> EnsembleSummary:
    """Run seeds base_seed, base_seed + 1, ... and aggregate their KPIs."""
    return run_paired([cfg], n_seeds, base_seed)[0]


def _mean(values: list[float]) -> float:
    """``statistics.fmean``, the correctly rounded sum over the count,
    except that finite values whose sum passes the largest double give inf
    instead of an ``OverflowError``. Every KPI averaged is >= 0, so no sum
    meets inf + -inf."""
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        return math.inf


def _median(values) -> float:
    """``statistics.median``: the middle value, or the mean of the two
    middle values of an even count."""
    values = sorted(values)
    half = len(values) // 2
    if len(values) % 2:
        return values[half]
    return (values[half - 1] + values[half]) / 2


def _aggregate(columns: tuple[list, list, list, list], base_seed: int) -> EnsembleSummary:
    """The ensemble KPIs of consecutive seeds' ``columns``: each shift's
    productivity, final trust, final fatigue and first severe failure."""
    productivity, trust, fatigue, first_failures = columns
    return EnsembleSummary(
        n_seeds=len(productivity),
        base_seed=base_seed,
        mean_productivity=_mean(productivity),
        median_productivity=_median(productivity),
        mean_final_trust=_mean(trust),
        median_final_trust=_median(trust),
        mean_final_fatigue=_mean(fatigue),
        median_final_fatigue=_median(fatigue),
        first_failures=first_failures,
    )


def median_recovery_capped(ens: EnsembleSummary, cap: float) -> float | None:
    """Median first recovery with censored entries counted as ``cap`` —
    the convention used when forming recovery-time ratios; None when no run
    saw a severe failure."""
    steps = [cap if first[1] is None else first[1] for first in ens.first_failures if first]
    return _median(steps) if steps else None
