import itertools

import pytest

from llmize import (
    Continue,
    ObjectiveDirection,
    SetSamplingTemperature,
    StepContext,
    StepStats,
    Stop,
    TerminationKind,
    adaptive_sampling,
    early_stopping,
    resolve_actions,
    target_stop,
)

MIN = ObjectiveDirection.MINIMIZE
MAX = ObjectiveDirection.MAXIMIZE


def ctx(best_so_far, direction=MIN, temperature=1.0, step=0):
    stats = StepStats(
        step_index=step,
        best_of_step=best_so_far,
        mean_of_step=best_so_far,
        best_so_far=best_so_far,
        sampling_temperature=temperature,
    )
    return StepContext(stats=stats, direction=direction)


def feed(callback, series, direction=MIN, temperature=1.0):
    return [callback(ctx(v, direction, temperature, i)) for i, v in enumerate(series)]


class TestEarlyStopping:
    def test_stops_after_patience_flat_steps(self):
        actions = feed(early_stopping(patience=3), [10, 9, 9, 9, 9])
        assert actions[:4] == [Continue()] * 4
        assert actions[4] == Stop(TerminationKind.EARLY_STOPPED)

    def test_never_stops_while_improving(self):
        actions = feed(early_stopping(patience=3), [10, 9, 8, 7, 6, 5])
        assert all(a == Continue() for a in actions)

    def test_small_gains_count_as_stagnation(self):
        actions = feed(early_stopping(patience=3, min_delta=0.5), [10, 9.8, 9.6, 9.4])
        assert actions[3] == Stop(TerminationKind.EARLY_STOPPED)

    def test_never_fires_before_patience(self):
        cb = early_stopping(patience=4)
        actions = feed(cb, [5, 5, 5, 5])
        assert all(a == Continue() for a in actions)

    def test_maximize_direction(self):
        actions = feed(early_stopping(patience=2), [1, 2, 2, 2], direction=MAX)
        assert actions[3] == Stop(TerminationKind.EARLY_STOPPED)

    def test_validation(self):
        with pytest.raises(ValueError):
            early_stopping(patience=0)
        with pytest.raises(ValueError):
            early_stopping(patience=1, min_delta=-1.0)

    def test_nan_min_delta_refused(self):
        with pytest.raises(ValueError, match="min_delta"):
            early_stopping(patience=1, min_delta=float("nan"))

    def test_infinite_min_delta_refused(self):
        # No gain could exceed it, so every run would stop after ``patience``
        # steps; the config refuses it as well.
        with pytest.raises(ValueError, match="^min_delta must be finite"):
            early_stopping(patience=1, min_delta=float("inf"))


class TestTargetStop:
    def test_minimize_reached(self):
        actions = feed(target_stop(7.95), [8.3, 7.898])
        assert actions == [Continue(), Stop(TerminationKind.TARGET_REACHED)]

    def test_maximize_not_reached(self):
        actions = feed(target_stop(41.0), [40.8], direction=MAX)
        assert actions == [Continue()]

    def test_exact_hit_counts(self):
        assert feed(target_stop(5.0), [5.0]) == [Stop(TerminationKind.TARGET_REACHED)]

    def test_target_must_be_finite(self):
        with pytest.raises(ValueError):
            target_stop(float("-inf"))


class TestAdaptiveSampling:
    def test_bumps_after_stagnation(self):
        cb = adaptive_sampling(stagnation_window=2, bump=0.3)
        actions = feed(cb, [10, 10, 10], temperature=0.7)
        assert actions == [Continue(), Continue(), SetSamplingTemperature(1.0)]

    def test_ceiling_clamp(self):
        cb = adaptive_sampling(stagnation_window=1, bump=0.3, ceiling=2.0)
        actions = feed(cb, [10, 10], temperature=1.9)
        assert actions[1] == SetSamplingTemperature(2.0)

    def test_improvement_resets(self):
        cb = adaptive_sampling(stagnation_window=2, bump=0.3)
        actions = feed(cb, [10, 10, 9, 9, 8], temperature=0.7)
        assert all(a == Continue() for a in actions)

    def test_counter_resets_after_firing(self):
        cb = adaptive_sampling(stagnation_window=2, bump=0.1)
        actions = feed(cb, [10, 10, 10, 10, 10], temperature=1.0)
        fires = [a for a in actions if isinstance(a, SetSamplingTemperature)]
        assert len(fires) == 2  # steps 3 and 5

    @pytest.mark.parametrize("bump", [float("nan"), 0.0, -0.1])
    def test_bump_must_be_positive(self, bump):
        with pytest.raises(ValueError, match="bump"):
            adaptive_sampling(stagnation_window=1, bump=bump)

    def test_infinite_bump_refused(self):
        with pytest.raises(ValueError, match="^bump must be finite"):
            adaptive_sampling(stagnation_window=1, bump=float("inf"))


class TestResolveActions:
    def test_stop_dominates(self):
        action = resolve_actions(
            [Continue(), Stop(TerminationKind.EARLY_STOPPED), SetSamplingTemperature(1.2)]
        )
        assert action == Stop(TerminationKind.EARLY_STOPPED)

    def test_target_beats_early_stop(self):
        action = resolve_actions(
            [Stop(TerminationKind.EARLY_STOPPED), Stop(TerminationKind.TARGET_REACHED)]
        )
        assert action == Stop(TerminationKind.TARGET_REACHED)

    def test_last_temperature_wins(self):
        action = resolve_actions(
            [SetSamplingTemperature(0.9), SetSamplingTemperature(1.1)]
        )
        assert action == SetSamplingTemperature(1.1)

    def test_empty_continues(self):
        assert resolve_actions([]) == Continue()

    def test_stop_dominance_is_order_insensitive(self):
        base = [
            Continue(),
            Stop(TerminationKind.EARLY_STOPPED),
            Stop(TerminationKind.TARGET_REACHED),
            SetSamplingTemperature(1.5),
        ]
        for perm in itertools.permutations(base):
            assert resolve_actions(list(perm)) == Stop(TerminationKind.TARGET_REACHED)

    def test_stop_validation(self):
        with pytest.raises(ValueError):
            Stop(TerminationKind.MAX_STEPS)

    def test_set_temperature_validation(self):
        with pytest.raises(ValueError):
            SetSamplingTemperature(2.3)
