"""Score order through ``ObjectiveDirection.goodness``, checked against the
per-direction comparisons it replaced (kept in conftest.py).

Scores are random finite floats drawn with many ties, both signed zeros,
subnormals and magnitudes whose differences overflow. Results are compared
bitwise, so ``0.0`` and ``-0.0`` count as different answers, and entries by
identity, so a tie must keep the same entry.
"""

import struct

import numpy as np

from llmize import (
    Continue,
    History,
    Objective,
    ObjectiveDirection,
    ProblemSpec,
    RealVector,
    RealVectorSchema,
    RunConfig,
    ScriptedBackend,
    SetSamplingTemperature,
    StepContext,
    StepStats,
    Stop,
    Strategy,
    TerminationKind,
    accept_candidate,
    adaptive_sampling,
    early_stopping,
    optimize,
    target_stop,
    update_best,
)
from conftest import (
    SortedHistory,
    ev,
    ref_accept_candidate,
    ref_best_of_step,
    ref_gain,
    ref_is_better,
    ref_target_reached,
    ref_worsening,
)

MIN = ObjectiveDirection.MINIMIZE
MAX = ObjectiveDirection.MAXIMIZE
DIRECTIONS = (MIN, MAX)

POOL = (
    0.0, -0.0, 1.0, -1.0, 0.1, 0.2, 0.30000000000000004, 7.95,
    5e-324, -5e-324, 1e-300, 1e300, -1e300, 1.7e308, -1.7e308,
)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def random_scores(rng, n: int) -> list[float]:
    out = []
    for _ in range(n):
        draw = rng.random()
        if draw < 0.25:
            # Only a tie of 0.0 and -0.0 tells two results apart bitwise.
            out.append((0.0, -0.0)[int(rng.integers(2))])
        elif draw < 0.65:
            out.append(POOL[int(rng.integers(len(POOL)))])
        else:
            out.append(float(rng.normal() * 10.0 ** int(rng.integers(-3, 4))))
    return out


def ctx(best_so_far: float, direction: ObjectiveDirection) -> StepContext:
    stats = StepStats(
        step_index=0,
        best_of_step=best_so_far,
        mean_of_step=best_so_far,
        best_so_far=best_so_far,
        sampling_temperature=1.0,
    )
    return StepContext(stats=stats, direction=direction)


def test_update_best():
    rng = np.random.default_rng(1)
    for direction in DIRECTIONS:
        for _ in range(200):
            scores = random_scores(rng, int(rng.integers(1, 30)))
            best = ref = None
            for i, score in enumerate(scores):
                entry = ev(RealVector((float(i),)), score)
                best = update_best(best, entry, direction)
                if ref is None or ref_is_better(entry.score, ref.score, direction):
                    ref = entry
                assert best is ref


def test_accept_candidate():
    rng = np.random.default_rng(2)
    for direction in DIRECTIONS:
        for temperature in (1e-12, 0.05, 1.0, 1e3):
            ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
            pairs = zip(random_scores(rng, 500), random_scores(rng, 500))
            for current, candidate in pairs:
                worsening = direction.goodness(current) - direction.goodness(candidate)
                assert bits(worsening) == bits(ref_worsening(current, candidate, direction))
                assert accept_candidate(
                    current, candidate, temperature, direction, ours
                ) == ref_accept_candidate(current, candidate, temperature, direction, theirs)
            assert ours.bit_generator.state == theirs.bit_generator.state


def test_target_stop():
    rng = np.random.default_rng(4)
    for direction in DIRECTIONS:
        for best, target in zip(random_scores(rng, 1000), random_scores(rng, 1000)):
            action = target_stop(target)(ctx(best, direction))
            if ref_target_reached(best, target, direction):
                assert action == Stop(TerminationKind.TARGET_REACHED)
            else:
                assert action == Continue()


def _realized_gains(series, direction) -> list[float]:
    gains = [ref_gain(a, b, direction) for a, b in zip(series, series[1:])]
    return [g for g in gains if 0.0 <= g < float("inf")]


def test_early_stopping():
    rng = np.random.default_rng(5)
    for direction in DIRECTIONS:
        for _ in range(300):
            series = random_scores(rng, int(rng.integers(2, 30)))
            patience = int(rng.integers(1, 5))
            # A min_delta equal to a gain in the series makes the strict
            # comparison flip on a gain one ulp off.
            gains = _realized_gains(series, direction)
            min_delta = gains[int(rng.integers(len(gains)))] if gains else 0.0
            callback = early_stopping(patience, min_delta)
            prev, stale = None, 0
            for best in series:
                expected = Continue()
                if prev is not None:
                    if ref_gain(prev, best, direction) > min_delta:
                        stale = 0
                    else:
                        stale += 1
                        if stale >= patience:
                            expected = Stop(TerminationKind.EARLY_STOPPED)
                prev = best
                assert callback(ctx(best, direction)) == expected


def test_adaptive_sampling():
    rng = np.random.default_rng(6)
    for direction in DIRECTIONS:
        for _ in range(300):
            series = random_scores(rng, int(rng.integers(2, 30)))
            window = int(rng.integers(1, 4))
            callback = adaptive_sampling(stagnation_window=window, bump=0.25)
            prev, stale = None, 0
            for best in series:
                expected = Continue()
                if prev is not None:
                    if ref_gain(prev, best, direction) > 0:
                        stale = 0
                    else:
                        stale += 1
                        if stale >= window:
                            stale = 0
                            expected = SetSamplingTemperature(1.25)
                prev = best
                assert callback(ctx(best, direction)) == expected


def test_best_of_step():
    rng = np.random.default_rng(7)
    schema = RealVectorSchema(lower=(0.0,), upper=(1.0,))
    for direction in DIRECTIONS:
        for _ in range(20):
            batch, steps = int(rng.integers(1, 7)), 12
            table = random_scores(rng, batch * steps)
            script = [
                "".join(f"<solution>{k}</solution>" for k in range(s * batch, (s + 1) * batch))
                for s in range(steps)
            ]
            result = optimize(
                Strategy.OPRO,
                ProblemSpec(description="d", schema=schema),
                Objective(lambda v: table[int(v.values[0])], direction),
                ScriptedBackend(script),
                RunConfig(max_steps=steps, batch=batch, history_capacity=4),
                initial=[ev(RealVector((-1.0,)), 0.0)],
            )
            assert len(result.steps) == steps
            for s, stats in enumerate(result.steps):
                expected = ref_best_of_step(table[s * batch:(s + 1) * batch], direction)
                assert bits(stats.best_of_step) == bits(expected)


def test_history_order():
    rng = np.random.default_rng(8)
    payloads = [RealVector((float(i),)) for i in range(8)]
    for direction in DIRECTIONS:
        for _ in range(300):
            capacity = int(rng.integers(1, 9))
            h = History(capacity=capacity, direction=direction)
            ref = SortedHistory(capacity=capacity, direction=direction)
            for score in random_scores(rng, int(rng.integers(1, 30))):
                entry = ev(payloads[int(rng.integers(len(payloads)))], score)
                h.insert(entry)
                ref.insert(entry)
                assert [id(e) for e in h.entries] == [id(e) for e in ref.entries]
