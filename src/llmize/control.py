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


def _stagnation(min_delta: float) -> Callable[[StepContext], int]:
    """The count, after each step, of consecutive steps whose best-so-far beat the
    previous step's by no more than ``min_delta``; the first step counts 0."""
    prev: float | None = None
    count = 0

    def step(ctx: StepContext) -> int:
        nonlocal prev, count
        best = ctx.stats.best_so_far
        goodness = ctx.direction.goodness
        improved = prev is None or goodness(best) - goodness(prev) > min_delta
        prev, count = best, 0 if improved else count + 1
        return count

    return step


def early_stopping(patience: int, min_delta: float = 0.0) -> Callback:
    """Stop after ``patience`` consecutive steps without improvement.

    An improvement only counts when it exceeds ``min_delta`` relative to the
    previous step's best; smaller gains are treated as stagnation.
    """
    if patience < 1:
        raise ValueError("patience must be >= 1")
    if not 0 <= min_delta < math.inf:
        raise ValueError("min_delta must be finite and >= 0")
    stagnation = _stagnation(min_delta)

    def callback(ctx: StepContext) -> CallbackAction:
        if stagnation(ctx) >= patience:
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

    After each ``stagnation_window`` consecutive steps without improvement,
    requests ``min(current + bump, ceiling)``; any improvement starts the count
    again.
    """
    if stagnation_window < 1:
        raise ValueError("stagnation_window must be >= 1")
    if not 0 < bump < math.inf:
        raise ValueError("bump must be finite and > 0")
    if not 0.0 < ceiling <= 2.0:
        raise ValueError("ceiling must be in (0, 2]")
    stagnation = _stagnation(0.0)

    def callback(ctx: StepContext) -> CallbackAction:
        stale = stagnation(ctx)
        if stale and stale % stagnation_window == 0:
            return SetSamplingTemperature(min(ctx.stats.sampling_temperature + bump, ceiling))
        return Continue()

    return callback


def resolve_actions(actions: list[CallbackAction]) -> CallbackAction:
    """Merge callback actions: a target stop, else any stop, else the last
    temperature change, else continue."""
    stops = [a for a in actions if isinstance(a, Stop)]
    if stops:
        return next((s for s in stops if s.reason is TerminationKind.TARGET_REACHED), stops[0])
    changes = [a for a in actions if isinstance(a, SetSamplingTemperature)]
    return changes[-1] if changes else Continue()
