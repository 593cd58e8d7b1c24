"""Black-box objectives, ``command_objective`` for an external command, and
parallel batch evaluation: a batch of more than one worker runs on a thread
pool, which ``optimize`` keeps from ``evaluation_pool`` for all the steps of a
run, and a batch given none makes its own.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

from .core import ObjectiveDirection, SolutionValue

if TYPE_CHECKING:
    from concurrent.futures import Executor


@dataclass(frozen=True)
class Objective:
    """A user-supplied score function and the direction it is optimized in.

    ``evaluate`` must accept a solution value and return a finite real in
    problem units. Same-seed runs repeat exactly only if it is deterministic.
    """

    evaluate: Callable[[SolutionValue], float]
    direction: ObjectiveDirection


def command_objective(
    command: list[str], direction: ObjectiveDirection, timeout: float | None = None
) -> Objective:
    """Objective that shells out per candidate: rendered solution on stdin,
    one real number expected on stdout.

    A command still running after ``timeout`` seconds is killed, and its
    evaluation fails. The kill reaches the command's own process only, so a
    wrapper script should ``exec`` the program it runs.
    """
    if timeout is not None and not 0 < timeout < math.inf:
        raise ValueError("timeout must be a finite number of seconds > 0")
    import subprocess

    def evaluate(value: SolutionValue) -> float:
        proc = subprocess.run(
            command,
            input=value.render(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"objective command exited {proc.returncode}: {proc.stderr.strip()}"
            )
        return float(proc.stdout.strip())

    return Objective(evaluate=evaluate, direction=direction)


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
    A time limit belongs to the objective, such as ``command_objective``'s
    ``timeout``: a Python thread cannot be interrupted, so an evaluation that
    must stop has to raise on its own.
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


@contextmanager
def evaluation_pool(policy: EvalPolicy) -> Iterator[Executor | None]:
    """A pool of ``policy.workers`` threads for ``evaluate_batch``, or None at
    one worker. Only here is a thread pool loaded. Leaving the block ends its
    threads; on an exception other than a failed evaluation, such as an
    interrupt, it leaves at once instead, cancelling what has not started.
    """
    if policy.workers == 1:
        yield None
        return
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(max_workers=policy.workers)
    try:
        yield pool
    except BaseException as exc:
        pool.shutdown(wait=isinstance(exc, EvaluationFailed), cancel_futures=True)
        raise
    pool.shutdown(wait=True)


def evaluate_batch(
    objective: Objective,
    candidates: list[SolutionValue],
    policy: EvalPolicy = EvalPolicy(),
    pool: Executor | None = None,
) -> list[float]:
    """Score every candidate, in order, with up to ``policy.workers`` threads.

    The returned list is positionally aligned with ``candidates`` no matter in
    which order evaluations finish. With one worker this is a plain sequential
    loop, so single-worker results are bit-identical to unthreaded evaluation,
    and ``pool`` is not used. With more, the batch runs on ``pool``, which the
    caller keeps and ends; given none, it makes one and returns with its
    threads ended, as ``evaluation_pool`` does.
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
    if pool is None:
        with evaluation_pool(policy) as pool:
            return _scores_on(pool, score, candidates)
    return _scores_on(pool, score, candidates)


def _scores_on(
    pool: Executor, score: Callable[[int, SolutionValue], float], candidates: list[SolutionValue]
) -> list[float]:
    """``score`` of every candidate on ``pool``, in candidate order.

    After a failure or an interrupt no evaluation starts, and those queued are
    cancelled. The abort waits for those running, then raises the first
    failure in candidate order, as skipped candidates yield None; an interrupt
    leaves at once.
    """
    from concurrent.futures import wait

    failed = []

    def score_unless_failed(index: int, candidate: SolutionValue) -> float | None:
        if failed:
            return None
        try:
            return score(index, candidate)
        except BaseException:
            failed.append(index)
            raise

    futures = [pool.submit(score_unless_failed, i, c) for i, c in enumerate(candidates)]
    try:
        return [future.result() for future in futures]
    except BaseException as exc:
        for future in futures:
            future.cancel()
        if isinstance(exc, EvaluationFailed):
            wait(futures)
        raise
