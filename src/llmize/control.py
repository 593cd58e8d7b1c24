"""Callbacks: early stopping, target-based termination, adaptive sampling.

Callbacks are plain callables from a read-only step snapshot to an action.
They run synchronously between steps, in registration order, and conflicting
actions are merged by ``resolve_actions``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .core import ObjectiveDirection, StepStats, TerminationKind


@dataclass(frozen=True)
class StepContext:
    stats: StepStats
    direction: ObjectiveDirection


@dataclass(frozen=True)
class Continue:
    pass


@dataclass(frozen=True)
class Stop:
    reason: TerminationKind

    def __post_init__(self) -> None:
        if self.reason not in (
            TerminationKind.TARGET_REACHED,
            TerminationKind.EARLY_STOPPED,
        ):
            raise ValueError(f"not a callback stop reason: {self.reason!r}")


@dataclass(frozen=True)
class SetSamplingTemperature:
    value: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 2.0:
            raise ValueError("sampling temperature must be in [0, 2]")


CallbackAction = Continue | Stop | SetSamplingTemperature
Callback = Callable[[StepContext], CallbackAction]


def early_stopping(patience: int, min_delta: float = 0.0) -> Callback:
    """Stop after ``patience`` consecutive steps without improvement.

    An improvement only counts when it exceeds ``min_delta`` relative to the
    previous step's best; smaller gains are treated as stagnation.
    """
    if patience < 1:
        raise ValueError("patience must be >= 1")
    if min_delta < 0:
        raise ValueError("min_delta must be >= 0")
    state = {"prev": None, "stale": 0}

    def callback(ctx: StepContext) -> CallbackAction:
        best = ctx.stats.best_so_far
        prev = state["prev"]
        state["prev"] = best
        if prev is None:
            return Continue()
        goodness = ctx.direction.goodness
        if goodness(best) - goodness(prev) > min_delta:
            state["stale"] = 0
        else:
            state["stale"] += 1
            if state["stale"] >= patience:
                return Stop(TerminationKind.EARLY_STOPPED)
        return Continue()

    return callback


def target_stop(target: float) -> Callback:
    """Stop as soon as best-so-far meets or beats ``target``."""
    if not math.isfinite(target):
        raise ValueError("target must be finite")

    def callback(ctx: StepContext) -> CallbackAction:
        goodness = ctx.direction.goodness
        if goodness(ctx.stats.best_so_far) >= goodness(target):
            return Stop(TerminationKind.TARGET_REACHED)
        return Continue()

    return callback


def adaptive_sampling(
    stagnation_window: int, bump: float, ceiling: float = 2.0
) -> Callback:
    """Raise the model sampling temperature when progress stalls.

    After ``stagnation_window`` steps without improvement, requests
    ``min(current + bump, ceiling)`` and resets its counter. The counter also
    resets on any improvement.
    """
    if stagnation_window < 1:
        raise ValueError("stagnation_window must be >= 1")
    if bump <= 0:
        raise ValueError("bump must be > 0")
    if not 0.0 < ceiling <= 2.0:
        raise ValueError("ceiling must be in (0, 2]")
    state = {"prev": None, "stale": 0}

    def callback(ctx: StepContext) -> CallbackAction:
        best = ctx.stats.best_so_far
        prev = state["prev"]
        state["prev"] = best
        if prev is None:
            return Continue()
        goodness = ctx.direction.goodness
        if goodness(best) - goodness(prev) > 0:
            state["stale"] = 0
            return Continue()
        state["stale"] += 1
        if state["stale"] >= stagnation_window:
            state["stale"] = 0
            return SetSamplingTemperature(min(ctx.stats.sampling_temperature + bump, ceiling))
        return Continue()

    return callback


def resolve_actions(actions: list[CallbackAction]) -> CallbackAction:
    """Merge callback actions: stops dominate, target beats early stop,
    otherwise the last temperature change wins, otherwise continue."""
    stop: Stop | None = None
    set_temp: SetSamplingTemperature | None = None
    for action in actions:
        if isinstance(action, Stop):
            if action.reason is TerminationKind.TARGET_REACHED:
                stop = action
            elif stop is None:
                stop = action
        elif isinstance(action, SetSamplingTemperature):
            set_temp = action
    if stop is not None:
        return stop
    if set_temp is not None:
        return set_temp
    return Continue()
