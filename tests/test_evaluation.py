import json
import threading
import time

import numpy as np
import pytest

from llmize import (
    EvalPolicy,
    EvaluationFailed,
    Objective,
    ObjectiveDirection,
    RealVector,
    evaluate_batch,
)
from llmize.benchmarks import convex2d
from conftest import fresh_python

MIN = ObjectiveDirection.MINIMIZE


def vector_objective(fn):
    return Objective(evaluate=lambda v: fn(v.values), direction=MIN)


def test_convex_candidate_value():
    objective = vector_objective(convex2d)
    [score] = evaluate_batch(objective, [RealVector((3.473, 0.0))])
    assert score == pytest.approx(7.898, abs=1e-3)


def test_slow_first_candidate_keeps_input_order():
    def slow_first(values):
        if values[0] == 0.0:
            time.sleep(0.05)
        return sum(values)

    objective = vector_objective(slow_first)
    candidates = [RealVector((float(i % 3), float(i))) for i in range(8)]
    candidates[0] = RealVector((0.0, 0.0))
    out = evaluate_batch(objective, candidates, EvalPolicy(workers=4))
    assert out == [sum(c.values) for c in candidates]


def test_penalty_substitution_continues():
    def flaky(values):
        if values[0] == 1.0:
            raise RuntimeError("boom")
        return sum(values)

    objective = vector_objective(flaky)
    candidates = [RealVector((0.0,)), RealVector((1.0,)), RealVector((2.0,))]
    out = evaluate_batch(objective, candidates, EvalPolicy(on_error=1e9))
    assert out == [0.0, 1e9, 2.0]
    out = evaluate_batch(objective, candidates, EvalPolicy(workers=3, on_error=1e9))
    assert out == [0.0, 1e9, 2.0]


def test_abort_policy_raises_with_index():
    def flaky(values):
        if values[0] == 1.0:
            raise RuntimeError("boom")
        return 0.0

    objective = vector_objective(flaky)
    candidates = [RealVector((0.0,)), RealVector((1.0,))]
    with pytest.raises(EvaluationFailed) as exc:
        evaluate_batch(objective, candidates, EvalPolicy())
    assert exc.value.index == 1
    with pytest.raises(EvaluationFailed):
        evaluate_batch(objective, candidates, EvalPolicy(workers=2))


def test_non_finite_score_is_a_failure():
    objective = vector_objective(lambda values: float("nan"))
    with pytest.raises(EvaluationFailed):
        evaluate_batch(objective, [RealVector((0.0,))], EvalPolicy())


def test_timeout_treated_as_failure():
    def sleepy(values):
        time.sleep(0.5)
        return 0.0

    objective = vector_objective(sleepy)
    with pytest.raises(EvaluationFailed):
        evaluate_batch(
            objective, [RealVector((0.0,))], EvalPolicy(workers=2, timeout=0.05)
        )


def test_timeout_bounds_wall_time():
    # A hung evaluation fails the batch at the timeout; the call does not
    # wait for the hung thread to finish.
    release = threading.Event()

    def hung(values):
        release.wait(2.0)
        return 0.0

    objective = vector_objective(hung)
    candidates = [RealVector((0.0,)), RealVector((1.0,))]
    try:
        started = time.perf_counter()
        with pytest.raises(EvaluationFailed, match="timed out"):
            evaluate_batch(objective, candidates, EvalPolicy(workers=2, timeout=0.2))
        assert time.perf_counter() - started < 1.0
        started = time.perf_counter()
        out = evaluate_batch(
            objective, candidates, EvalPolicy(workers=2, timeout=0.2, on_error=1e9)
        )
        assert time.perf_counter() - started < 1.0
        assert out == [1e9, 1e9]
    finally:
        release.set()


def test_single_worker_matches_sequential():
    objective = vector_objective(lambda values: values[0] * 0.1 + 7.3)
    candidates = [RealVector((float(i),)) for i in range(16)]
    sequential = [objective.evaluate(c) for c in candidates]
    assert evaluate_batch(objective, candidates, EvalPolicy(workers=1)) == sequential


def test_randomized_delays_preserve_order():
    rng = np.random.default_rng(99)

    def jittery(values):
        time.sleep(rng.uniform(0, 0.003))
        return values[0]

    objective = vector_objective(jittery)
    candidates = [RealVector((float(i),)) for i in range(8)]
    for workers in (2, 8):
        for _ in range(10):
            out = evaluate_batch(objective, candidates, EvalPolicy(workers=workers))
            assert out == [float(i) for i in range(8)]


def test_empty_batch_rejected():
    objective = vector_objective(lambda values: 0.0)
    with pytest.raises(ValueError):
        evaluate_batch(objective, [], EvalPolicy())


def test_policy_validation():
    with pytest.raises(ValueError):
        EvalPolicy(workers=0)
    with pytest.raises(ValueError):
        EvalPolicy(on_error=float("inf"))


def test_timeout_must_be_finite_and_positive():
    # Each of these once aborted every threaded batch as "timed out" (or, for
    # infinity, as an out-of-range wait), whatever the objective did.
    for timeout in (0, 0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            EvalPolicy(workers=2, timeout=timeout)
    assert EvalPolicy(workers=2, timeout=0.05).timeout == 0.05
    assert EvalPolicy(workers=2).timeout is None


def test_timeout_needs_more_than_one_worker():
    # One worker evaluates in the calling thread, where a timeout cannot act.
    with pytest.raises(ValueError, match="workers"):
        EvalPolicy(timeout=0.2)
    with pytest.raises(ValueError, match="workers"):
        EvalPolicy(workers=1, timeout=5.0)


def test_pool_and_command_paths_in_a_fresh_interpreter():
    """The thread pool and ``subprocess`` load on first use, so every path
    through them, failures and timeouts included, must find the names it
    catches in a process that had loaded neither."""
    code = """
import json, sys, time
from llmize import EvalPolicy, EvaluationFailed, Objective, ObjectiveDirection, RealVector
from llmize import evaluate_batch
from llmize.cli import command_objective
MIN = ObjectiveDirection.MINIMIZE
print(json.dumps([m in sys.modules for m in ("concurrent.futures", "subprocess")]))

def score(v):
    if v.values[0] == 1.0:
        time.sleep(0.6)
    if v.values[0] == 2.0:
        raise RuntimeError("boom")
    return v.values[0]

batch = [RealVector((float(i),)) for i in range(4)]
substitute = EvalPolicy(workers=2, timeout=0.2, on_error=1e9)
print(json.dumps(evaluate_batch(Objective(score, MIN), batch, substitute)))
try:
    evaluate_batch(Objective(score, MIN), batch, EvalPolicy(workers=2, timeout=0.2))
except EvaluationFailed as exc:
    print(json.dumps([exc.index, exc.message]))
double = command_objective([sys.executable, "-c", "print(2 * float(input()))"], MIN)
fail = command_objective([sys.executable, "-c", "raise SystemExit(3)"], MIN)
print(json.dumps(evaluate_batch(double, batch[:2], substitute)))
print(json.dumps(evaluate_batch(fail, batch[:1], EvalPolicy(on_error=1e9))))
"""
    lines = [json.loads(line) for line in fresh_python(code).splitlines()]
    assert lines == [
        [False, False],
        [0.0, 1e9, 1e9, 3.0],
        [1, "evaluation timed out"],
        [0.0, 2.0],
        [1e9],
    ]
