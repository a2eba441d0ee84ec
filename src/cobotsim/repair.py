"""Trust repair: a short forced-high-collaboration mode after severe failures."""

from __future__ import annotations

from .dynamics import InteractionOutcome


def apology_after(remaining: int, outcome: InteractionOutcome, duration: int) -> int:
    """Apology turns left after a turn that began with ``remaining``. A forced
    turn is consumed first (saturating at zero), then a severe failure re-arms
    the full ``duration``: a failure during an active apology must still leave
    a full window behind it."""
    if outcome is InteractionOutcome.SEVERE_FAILURE:
        return duration
    return max(0, remaining - 1)
