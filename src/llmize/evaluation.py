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


@dataclass(frozen=True)
class EvalPolicy:
    """How a batch is evaluated and what happens when one evaluation fails.

    ``on_error`` is either None (abort the batch, the default) or a finite
    score substituted for the failing candidate. The substitute must be worse
    than anything the objective can legitimately return; that is on the caller.
    ``timeout`` is a per-evaluation limit in seconds, finite and > 0. It needs
    ``workers`` > 1: one worker evaluates in the calling thread, which cannot
    be interrupted.
    """

    workers: int = 1
    on_error: float | None = None
    timeout: float | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.on_error is not None and not math.isfinite(self.on_error):
            raise ValueError("on_error score must be finite")
        if self.timeout is not None and not 0 < self.timeout < math.inf:
            raise ValueError("timeout must be a finite number of seconds > 0")
        if self.timeout is not None and self.workers == 1:
            raise ValueError("timeout needs workers > 1")


class EvaluationFailed(Exception):
    """One candidate's evaluation raised, timed out, or returned non-finite."""

    def __init__(self, index: int, message: str):
        super().__init__(f"candidate {index}: {message}")
        self.index = index
        self.message = message


def _score(objective: Objective, candidate: SolutionValue) -> float:
    value = float(objective.evaluate(candidate))
    if not math.isfinite(value):
        raise ValueError(f"objective returned non-finite score {value!r}")
    return value


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

    if policy.workers == 1:
        out: list[float] = []
        for i, cand in enumerate(candidates):
            try:
                out.append(_score(objective, cand))
            except Exception as exc:
                if policy.on_error is None:
                    raise EvaluationFailed(i, str(exc)) from exc
                out.append(policy.on_error)
        return out

    # Only this branch needs a thread pool, so only it loads one.
    from concurrent.futures import ThreadPoolExecutor
    from concurrent.futures import TimeoutError as FutureTimeout

    # The pool is shut down without waiting: a timed-out evaluation keeps
    # running in its thread, but the caller gets its answer (or the failure)
    # at once, and queued candidates that never started are cancelled.
    results: list[float] = [0.0] * len(candidates)
    pool = ThreadPoolExecutor(max_workers=policy.workers)
    try:
        futures = [pool.submit(_score, objective, c) for c in candidates]
        for i, fut in enumerate(futures):
            try:
                results[i] = fut.result(timeout=policy.timeout)
            except FutureTimeout:
                if policy.on_error is None:
                    raise EvaluationFailed(i, "evaluation timed out") from None
                results[i] = policy.on_error
            except Exception as exc:
                if policy.on_error is None:
                    raise EvaluationFailed(i, str(exc)) from exc
                results[i] = policy.on_error
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    return results
