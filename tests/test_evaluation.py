import dataclasses
import json
import os
import sys
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
from llmize.cli import command_objective
from llmize.evaluation import MAX_WORKERS, evaluation_pool
from conftest import fresh_python

MIN = ObjectiveDirection.MINIMIZE


def vector_objective(fn):
    return Objective(evaluate=lambda v: fn(v.values), direction=MIN)


# Echoes its candidate, a single real. A negative one first leaves a file
# named by the process's pid in the directory argv[1], then hangs.
SLEEPER = """
import os, sys, time
value = float(input())
if value < 0:
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    time.sleep(30)
print(value)
"""


def sleeper(pid_dir, marker, timeout):
    """A command objective that hangs on negative candidates, killed at
    ``timeout``; its processes carry ``marker``."""
    command = [sys.executable, "-c", SLEEPER, str(pid_dir), marker]
    return command_objective(command, MIN, timeout=timeout)


def reals(*values):
    return [RealVector((v,)) for v in values]


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


def test_timeout_treated_as_failure(tmp_path, process_marker):
    # A command killed at its timeout fails like any other evaluation: the
    # batch aborts, naming the candidate, at one worker and at two.
    objective = sleeper(tmp_path, process_marker, timeout=0.3)
    for workers in (1, 2):
        with pytest.raises(EvaluationFailed, match="timed out") as exc:
            evaluate_batch(objective, reals(1.0, -1.0), EvalPolicy(workers=workers))
        assert exc.value.index == 1


def test_timeout_cuts_short_a_command_that_would_finish(process_marker):
    # The command would print its score after 2 s; its 0.3 s timeout fails it first.
    command = [sys.executable, "-c", "import time; time.sleep(2); print(1)", process_marker]
    objective = command_objective(command, MIN, timeout=0.3)
    started = time.perf_counter()
    with pytest.raises(EvaluationFailed, match="timed out"):
        evaluate_batch(objective, reals(1.0), EvalPolicy())
    assert time.perf_counter() - started < 1.5


def test_timeout_bounds_wall_time(tmp_path, process_marker):
    # One hung command per worker: each is killed at the timeout, so the batch
    # takes about one timeout, and its process is gone when the batch returns.
    for workers in (1, 2):
        pid_dir = tmp_path / str(workers)
        pid_dir.mkdir()
        objective = sleeper(pid_dir, process_marker, timeout=0.5)
        policy = EvalPolicy(workers=workers, on_error=1e9)
        started = time.perf_counter()
        out = evaluate_batch(objective, reals(*[-1.0] * workers, 1.0, 2.0), policy)
        assert time.perf_counter() - started < 0.5 + 1.0
        assert out == [1e9] * workers + [1.0, 2.0]
        pids = [int(name) for name in os.listdir(pid_dir)]
        assert len(pids) == workers
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


@pytest.mark.parametrize("workers", [1, 2])
def test_queued_candidate_gets_its_real_score(tmp_path, process_marker, workers):
    # Each command's clock starts when the command does, so a candidate queued
    # behind hung ones scores what its command prints.
    objective = sleeper(tmp_path, process_marker, timeout=0.5)
    out = evaluate_batch(
        objective, reals(-1.0, -2.0, 2.0, 3.0, 4.0, 5.0), EvalPolicy(workers, on_error=1e9)
    )
    assert out == [1e9, 1e9, 2.0, 3.0, 4.0, 5.0]


def test_batch_returns_with_its_pool_threads_ended():
    objective = vector_objective(lambda values: values[0])
    policy = EvalPolicy(workers=2)
    for _ in range(50):
        threads = threading.active_count()
        assert evaluate_batch(objective, reals(1.0, 2.0, 3.0), policy) == [1.0, 2.0, 3.0]
        assert threading.active_count() <= threads


def test_failing_batches_leave_no_threads(tmp_path, process_marker):
    # Once a batch returns, its pool's threads have ended: they do not pile
    # up across batches whose candidates time out or fail.
    objective = sleeper(tmp_path, process_marker, timeout=0.5)
    flaky = vector_objective(lambda values: 1 / values[0])
    policy = EvalPolicy(workers=2, on_error=1e9)
    threads = threading.active_count()
    for _ in range(5):
        assert evaluate_batch(objective, reals(-1.0, -2.0, 1.0), policy) == [1e9, 1e9, 1.0]
        assert evaluate_batch(flaky, reals(0.0, 0.0, 2.0), policy) == [1e9, 1e9, 0.5]
    assert threading.active_count() <= threads


def test_aborted_batch_returns_after_running_evaluations_end():
    # Candidate 0 fails at once while candidate 1 runs: candidate 2 never
    # starts, and the abort waits for candidate 1 to finish.
    calls = {}
    lock = threading.Lock()

    def failing_first(values):
        index = int(values[0])
        with lock:
            calls[index] = [time.perf_counter(), None]
        try:
            if index == 0:
                raise RuntimeError("boom")
            time.sleep(0.3)
            return values[0]
        finally:
            calls[index][1] = time.perf_counter()

    threads = threading.active_count()
    with pytest.raises(EvaluationFailed) as exc:
        evaluate_batch(vector_objective(failing_first), reals(0, 1, 2), EvalPolicy(workers=2))
    returned = time.perf_counter()
    assert exc.value.index == 0
    failed_at = calls[0][1]
    assert all(start <= failed_at for start, _ in calls.values())
    assert all(end is not None and end <= returned for _, end in calls.values())
    assert 2 not in calls
    assert threading.active_count() == threads


def test_aborted_batch_on_a_given_pool_waits_and_leaves_it_open():
    # Candidate 0 fails once candidate 1 has started, which runs 0.3 s more:
    # the abort returns after candidate 1 ends, candidate 2 never starts, and
    # the pool, still the caller's, scores the next batch.
    calls, running = {}, threading.Event()

    def failing_first(values):
        index = int(values[0])
        calls[index] = [time.perf_counter(), None]
        try:
            if index == 0:
                running.wait(5)
                raise RuntimeError("boom")
            running.set()
            time.sleep(0.3)
            return values[0]
        finally:
            calls[index][1] = time.perf_counter()

    policy = EvalPolicy(workers=2)
    threads = threading.active_count()
    with evaluation_pool(policy) as pool:
        with pytest.raises(EvaluationFailed) as exc:
            evaluate_batch(vector_objective(failing_first), reals(0, 1, 2), policy, pool)
        returned = time.perf_counter()
        assert exc.value.index == 0
        assert sorted(calls) == [0, 1]
        assert all(end is not None and end <= returned for _, end in calls.values())
        objective = vector_objective(lambda values: 2 * values[0])
        assert evaluate_batch(objective, reals(1, 2, 3), policy, pool) == [2.0, 4.0, 6.0]
    assert threading.active_count() == threads


def test_interrupted_batch_on_a_given_pool_starts_nothing_after_it():
    # Candidate 0 interrupts once candidate 1 has started: the batch leaves
    # while candidate 1 still runs, and candidate 2 never starts.
    started, running, release = set(), threading.Event(), threading.Event()

    def interrupted_first(values):
        index = int(values[0])
        started.add(index)
        if index == 0:
            running.wait(5)
            raise KeyboardInterrupt
        running.set()
        release.wait(5)
        return values[0]

    policy = EvalPolicy(workers=2)
    with evaluation_pool(policy) as pool:
        began = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            evaluate_batch(vector_objective(interrupted_first), reals(0, 1, 2), policy, pool)
        assert time.perf_counter() - began < 2.5
        release.set()
    assert started == {0, 1}


def test_one_worker_needs_no_pool():
    with evaluation_pool(EvalPolicy()) as pool:
        assert pool is None
    objective = vector_objective(lambda values: values[0])
    assert evaluate_batch(objective, reals(1, 2), EvalPolicy(), pool) == [1.0, 2.0]


def test_aborts_under_thread_switching_stress():
    # More workers than cores, switching threads every microsecond: each abort
    # reports a candidate that really failed, and returns with none running.
    running, failed, lock = [0], set(), threading.Lock()

    def flaky(values):
        with lock:
            running[0] += 1
        try:
            time.sleep(0.0005)
            if int(values[0]) % 7 == 3:
                failed.add(int(values[0]))
                raise RuntimeError("boom")
            return values[0]
        finally:
            with lock:
                running[0] -= 1

    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            failed.clear()
            with pytest.raises(EvaluationFailed) as exc:
                evaluate_batch(vector_objective(flaky), reals(*range(40)), EvalPolicy(workers=8))
            assert running[0] == 0
            assert exc.value.index in failed
            assert threading.active_count() == threads
    finally:
        sys.setswitchinterval(interval)


def test_interrupted_batch_returns_at_once():
    # Only a failed evaluation is waited for; anything else leaves at once.
    release = threading.Event()

    def interrupted_first(values):
        if values[0] == 0:
            raise KeyboardInterrupt
        release.wait(5)
        return values[0]

    started = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        evaluate_batch(vector_objective(interrupted_first), reals(0, 1), EvalPolicy(workers=2))
    assert time.perf_counter() - started < 2.5
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


def test_workers_above_the_cap_are_refused():
    # Policies are only built here: no thread starts.
    assert EvalPolicy(workers=MAX_WORKERS).workers == MAX_WORKERS
    with pytest.raises(ValueError, match=f"^workers must be <= {MAX_WORKERS}$"):
        EvalPolicy(workers=MAX_WORKERS + 1)


def test_policy_is_workers_and_on_error():
    assert [f.name for f in dataclasses.fields(EvalPolicy)] == ["workers", "on_error"]


def test_timeout_must_be_finite_and_positive():
    # Checked when the objective is built, not at its first evaluation.
    for timeout in (0, 0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^timeout must be a finite number of seconds > 0$"):
            command_objective(["true"], MIN, timeout=timeout)
    command_objective(["true"], MIN, timeout=0.05)
    command_objective(["true"], MIN)


@pytest.mark.parametrize(
    "program, message",
    [
        ("import sys; sys.stderr.write('bad'); sys.exit(3)", "objective command exited 3: bad"),
        ("print('seven')", "could not convert string to float: 'seven'"),
    ],
    ids=["exit-status", "not-a-number"],
)
def test_command_failure_message(program, message):
    objective = command_objective([sys.executable, "-c", program], MIN)
    with pytest.raises(EvaluationFailed) as exc:
        evaluate_batch(objective, reals(1.0), EvalPolicy())
    assert exc.value.message == message


def test_pool_and_command_paths_in_a_fresh_interpreter(process_marker):
    """The thread pool and ``subprocess`` load on first use, so every path
    through them, failures and command timeouts included, must find the names
    it catches in a process that had loaded neither."""
    code = f"""
import json, sys
from llmize import EvalPolicy, EvaluationFailed, Objective, ObjectiveDirection, RealVector
from llmize import evaluate_batch
from llmize.cli import command_objective
MIN = ObjectiveDirection.MINIMIZE
print(json.dumps([m in sys.modules for m in ("concurrent.futures", "subprocess")]))

def score(v):
    if v.values[0] == 2.0:
        raise RuntimeError("boom")
    return v.values[0]

batch = [RealVector((float(i),)) for i in range(4)]
substitute = EvalPolicy(workers=2, on_error=1e9)
print(json.dumps(evaluate_batch(Objective(score, MIN), batch, substitute)))
try:
    evaluate_batch(Objective(score, MIN), batch, EvalPolicy(workers=2))
except EvaluationFailed as exc:
    print(json.dumps([exc.index, exc.message]))
double = command_objective([sys.executable, "-c", "print(2 * float(input()))"], MIN)
fail = command_objective([sys.executable, "-c", "raise SystemExit(3)"], MIN)
hang = command_objective(
    [sys.executable, "-c", "import time; time.sleep(30)", {process_marker!r}], MIN, timeout=0.3
)
print(json.dumps(evaluate_batch(double, batch[:2], substitute)))
print(json.dumps(evaluate_batch(fail, batch[:1], EvalPolicy(on_error=1e9))))
print(json.dumps(evaluate_batch(hang, batch[:2], substitute)))
try:
    evaluate_batch(hang, batch[:1], EvalPolicy())
except EvaluationFailed as exc:
    print(json.dumps([exc.index, "timed out after 0.3 seconds" in exc.message]))
"""
    lines = [json.loads(line) for line in fresh_python(code).splitlines()]
    assert lines == [
        [False, False],
        [0.0, 1.0, 1e9, 3.0],
        [2, "boom"],
        [0.0, 2.0],
        [1e9],
        [1e9, 1e9],
        [0, True],
    ]
