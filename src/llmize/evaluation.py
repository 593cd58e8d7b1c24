"""Black-box objective abstraction and parallel batch evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .core import ObjectiveDirection, SolutionValue


@dataclass(frozen=True)
class Objective:
    """A user-supplied score function and the direction it is optimized in.

    ``evaluate`` must accept a solution value and return a finite real in
    problem units. Same-seed runs repeat exactly only if it is deterministic.
    """

    evaluate: Callable[[SolutionValue], float]
    direction: ObjectiveDirection


# The most evaluations run at once. Each worker is a thread, and with a command
# objective a child process too. 256 is a chosen bound, not a measured limit:
# it keeps a batch of up to 100000 seeds from asking for as many threads and
# processes. Idle threads cost little below it: on a 2-vCPU Xeon VM, 256 of
# them started in 25-43 ms and added 4.6 MiB of RSS, 512 in 52-73 ms and 9.3 MiB.
MAX_WORKERS = 256


@dataclass(frozen=True)
class EvalPolicy:
    """How a batch is evaluated and what happens when one evaluation fails.

    ``workers``, at most ``MAX_WORKERS``, evaluate at once. ``on_error`` is
    either None (abort the batch, the default) or a finite score substituted
    for the failing candidate. The substitute must be worse than anything the
    objective can legitimately return; that is on the caller.
    A time limit belongs to the objective: a Python thread cannot be
    interrupted, so an evaluation that must stop has to raise on its own.
    """

    workers: int = 1
    on_error: float | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.workers > MAX_WORKERS:
            raise ValueError(f"workers must be <= {MAX_WORKERS}")
        if self.on_error is not None and not math.isfinite(self.on_error):
            raise ValueError("on_error score must be finite")


class EvaluationFailed(Exception):
    """One candidate's evaluation raised or returned non-finite."""

    def __init__(self, index: int, message: str):
        super().__init__(f"candidate {index}: {message}")
        self.index = index
        self.message = message


def evaluate_batch(
    objective: Objective,
    candidates: list[SolutionValue],
    policy: EvalPolicy = EvalPolicy(),
) -> list[float]:
    """Score every candidate, in order, with up to ``policy.workers`` threads.

    The returned list is positionally aligned with ``candidates`` no matter in
    which order evaluations finish. With one worker this is a plain sequential
    loop, so single-worker results are bit-identical to unthreaded evaluation.
    """
    if not candidates:
        raise ValueError("candidates must be non-empty")

    def score(index: int, candidate: SolutionValue) -> float:
        try:
            value = float(objective.evaluate(candidate))
            if not math.isfinite(value):
                raise ValueError(f"objective returned non-finite score {value!r}")
            return value
        except Exception as exc:
            if policy.on_error is None:
                raise EvaluationFailed(index, str(exc)) from exc
            return policy.on_error

    if policy.workers == 1:
        return list(map(score, range(len(candidates)), candidates))

    # Only this branch loads a thread pool, and a batch returns once its
    # threads have ended; an interrupt alone leaves at once. After a failure
    # no evaluation starts, and the abort waits for those running, then raises
    # the first failure in candidate order, as skipped candidates yield None.
    from concurrent.futures import ThreadPoolExecutor

    failed = []

    def score_unless_failed(index: int, candidate: SolutionValue) -> float | None:
        if failed:
            return None
        try:
            return score(index, candidate)
        except EvaluationFailed:
            failed.append(index)
            raise

    pool = ThreadPoolExecutor(max_workers=policy.workers)
    try:
        scores = list(pool.map(score_unless_failed, range(len(candidates)), candidates))
    except BaseException as exc:
        pool.shutdown(wait=isinstance(exc, EvaluationFailed), cancel_futures=True)
        raise
    pool.shutdown(wait=True)
    return scores
