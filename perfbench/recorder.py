"""In-process probes for one workload process.

A ``Recorder`` wraps calls into llmize's public functions from the outside and
keeps everything it measures in memory until the process exits:

- step boundaries (``steps``: run index, start, end),
- busy intervals (``busy``: model-backend ``propose`` and objective calls),
  which is all an untraced run records besides the steps,
- spans (traced runs only): name, start, end, parent span, step id, thread.

All times are ``time.perf_counter()`` values, which on Linux read
``CLOCK_MONOTONIC`` and so compare across processes.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
from collections import Counter
from time import perf_counter


class Recorder:
    def __init__(self, traced: bool):
        self.traced = traced
        self.steps: list[tuple[int, float, float]] = []
        self.busy: list[tuple[float, float]] = []
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.prompt_chars = 0
        self.first_step_start: float | None = None
        self.loop_end: float | None = None
        self._run = -1
        self._step_start: float | None = None
        self._step_id: int | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []

    # -- step boundaries ----------------------------------------------------
    #
    # A step starts at the first ``build_prompt`` of a run. API runs end each
    # step at the timing callback, which starts the next one; CLI runs, which
    # take no callbacks, end it at the next ``build_prompt`` or when the
    # result is first serialized.

    def begin_run(self) -> None:
        self._run += 1
        self._step_start = None
        self._step_id = None

    def _open_step(self, now: float) -> None:
        if self.first_step_start is None:
            self.first_step_start = now
        self._step_start = now
        self._step_id = len(self.steps)

    def _close_step(self, now: float) -> None:
        if self._step_start is not None:
            self.steps.append((self._run, self._step_start, now))
        self._step_start = None
        self._step_id = None

    def prompt_started(self, now: float, ends_step: bool) -> None:
        if ends_step:
            self._close_step(now)
        if self._step_start is None:
            self._open_step(now)

    def step_callback(self, ctx):
        """Timing callback for API runs: one call per completed step."""
        from llmize import Continue

        now = perf_counter()
        self._close_step(now)
        self._open_step(now)
        return Continue()

    def close_loop(self, now: float) -> None:
        """The loop is over: close the open step."""
        self._close_step(now)
        if self.loop_end is None:
            self.loop_end = now

    def end_run(self) -> None:
        """Drop the step the last callback opened; no work belongs to it."""
        self._step_start = None
        self._step_id = None

    # -- wrapping -----------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, busy: bool = False):
        """Return ``fn`` timed as span ``name``.

        ``busy`` marks model or objective time, which untraced runs record as
        bare intervals; untraced runs leave every other function unwrapped.
        """
        rec = self
        if not self.traced:
            if not busy:
                return fn

            @functools.wraps(fn)
            def timed(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.busy.append((start, perf_counter()))

            return timed

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            # A span opened on an evaluation worker thread hangs off the span
            # the main thread is waiting in.
            outer = stack or rec._main_stack
            parent = outer[-1] if outer else -1
            span = [name, perf_counter(), 0.0, parent, rec._step_id, threading.get_ident()]
            with rec._lock:
                index = len(rec.spans)
                rec.spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()

        return traced

    def patch(self, owner, attr: str, name: str, busy: bool = False) -> None:
        """Replace ``owner.attr`` with its timed version. A missing attribute
        is an error: the benchmark must not silently stop measuring."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), busy=busy))

    def objective(self, objective):
        """The same objective with its ``evaluate`` timed."""
        timed = self.wrap("evaluation.objective", objective.evaluate, busy=True)
        return dataclasses.replace(objective, evaluate=timed)

    def count_prompt(self, method):
        """Wrap a backend ``propose`` method to count the prompt it is sent."""
        rec = self

        @functools.wraps(method)
        def propose(backend, bundle, params):
            rec.prompt_chars += len(bundle.system_text) + len(bundle.user_text)
            return method(backend, bundle, params)

        return propose

    # -- output -------------------------------------------------------------

    def dump(self) -> dict:
        return {
            "steps": self.steps,
            "busy": self.busy,
            "spans": self.spans,
            "counts": dict(self.counts),
            "prompt_chars": self.prompt_chars,
            "first_step_start": self.first_step_start,
            "loop_end": self.loop_end,
        }
