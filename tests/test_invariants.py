"""Properties every run keeps, checked on generated run shapes.

A seeded generator draws small shapes: solution kind x strategy x batch x
history capacity K x workers x callbacks x ``on_error``. Each shape runs
against a stand-in model that now and then answers junk or one block too few,
and an objective that fails on a fixed few candidates. Every run is checked
step by step, and three relations tie runs together: two workers write what
one does, a recorded run replays byte for byte, and flipping the objective's
sign and direction flips only the sign of the scores.
"""

import random
import threading
import zlib
from dataclasses import dataclass, replace

import pytest

from llmize import (
    Continue,
    EvalPolicy,
    EvaluatedSolution,
    KeyedScalarsSchema,
    Objective,
    ObjectiveDirection,
    PerturbBackend,
    ProblemSpec,
    RunConfig,
    ScriptedBackend,
    Strategy,
    TerminationKind,
    adaptive_sampling,
    early_stopping,
    optimize,
    render_solution,
    target_stop,
)
from llmize.benchmarks import get_benchmark, seed_samples
from llmize.cli import dumps_history_csv, dumps_result
from llmize.core import render_float

MIN, MAX = ObjectiveDirection.MINIMIZE, ObjectiveDirection.MAXIMIZE
FLIPPED = {MIN: MAX, MAX: MIN}


def _keyed_problem():
    schema = KeyedScalarsSchema({"units": (0.0, 10.0), "learning rate": (0.0, 1.0)})
    spec = ProblemSpec(description="Maximize the validation score.", schema=schema)

    def score(value):
        units, rate = value.as_dict()["units"], value.as_dict()["learning rate"]
        return -((units - 3.0) ** 2) - (rate - 0.2) ** 2

    return spec, score, MAX


def _benchmark_problem(name, **params):
    bench = get_benchmark(name, **params)
    return bench.spec, bench.objective.evaluate, bench.objective.direction


# One problem per solution kind, and both directions.
PROBLEMS = {
    "real-min": lambda: _benchmark_problem("convex2d"),
    "real-max": lambda: _benchmark_problem("lp3"),
    "permutation": lambda: _benchmark_problem("tsp", n=6, instance_seed=3),
    "keyed": _keyed_problem,
}

CALLBACKS = ("none", "early", "target", "adaptive")

# About one candidate in this many fails its evaluation.
FAULT_PERIOD = 40
JUNK = "I cannot improve on these.\n<solution>not a solution</solution>"


@dataclass(frozen=True)
class Shape:
    problem: str
    strategy: Strategy
    batch: int
    capacity: int
    workers: int
    callbacks: str
    penalized: bool
    steps: int
    seed: int


def generate_shapes(count, seed=2026):
    rng = random.Random(seed)
    return [
        Shape(
            problem=rng.choice(sorted(PROBLEMS)),
            strategy=rng.choice(list(Strategy)),
            batch=rng.choice((1, 2, 3, 5)),
            capacity=rng.choice((1, 2, 4, 8)),
            workers=rng.choice((1, 2)),
            callbacks=rng.choice(CALLBACKS),
            penalized=rng.random() < 0.5,
            steps=rng.randint(4, 12),
            seed=rng.randrange(1000),
        )
        for _ in range(count)
    ]


SHAPES = generate_shapes(40)


class FlakyModel:
    """``PerturbBackend`` that, on a seeded schedule, answers junk or drops its
    first block. It keeps each step's prompt, every completion, and for each
    call the failure it causes, if any; ``need`` is the number of candidates
    a step must get, or None for any."""

    def __init__(self, seed, need):
        self.model = PerturbBackend(seed)
        self.rng = random.Random(seed)
        self.need = need
        self.prompts, self.completions, self.faults = [], [], []

    def propose(self, bundle, params):
        # A retry is sent the same bundle; a new step builds a new one.
        if not self.prompts or self.prompts[-1] is not bundle:
            self.prompts.append(bundle)
        raw = self.model.propose(bundle, params)
        draw, fault = self.rng.random(), None
        if draw < 0.1:
            raw, fault = JUNK, "no valid solution block found (1 malformed)"
        elif draw < 0.2:
            raw = raw.partition("\n")[2]
            left = raw.count("<solution>")
            if not left:
                fault = "no valid solution block found (0 malformed)"
            elif self.need is not None:
                fault = f"parsed {left} candidates, need {self.need}"
        self.faults.append(fault)
        self.completions.append(raw)
        return raw


class CountedObjective:
    """``sign`` times the problem's score, failing on the candidates whose
    rendering hashes to 0 mod ``FAULT_PERIOD``, so every run fails the same
    ones. Counts its calls."""

    def __init__(self, score, sign):
        self.score, self.sign = score, sign
        self.calls = 0
        self.lock = threading.Lock()

    def __call__(self, value):
        with self.lock:
            self.calls += 1
        if zlib.crc32(render_solution(value).encode()) % FAULT_PERIOD == 0:
            raise RuntimeError("injected fault")
        return self.sign * self.score(value)


@dataclass
class Run:
    shape: Shape
    initial: list
    direction: ObjectiveDirection
    objective: CountedObjective
    model: object
    result: object
    steps_seen: list

    def artifacts(self):
        return dumps_result(self.result), dumps_history_csv(self.result)


def make_callbacks(kind, sign, direction, best_seed):
    """The shape's callbacks, for a run whose scores are ``sign`` times those
    of a problem optimized in ``direction`` whose best seed scores
    ``best_seed``."""
    if kind == "early":
        return [early_stopping(patience=3)]
    if kind == "target":
        # A little better than the best seed: some shapes reach it.
        target = best_seed + direction.goodness(1.0) * (0.02 * abs(best_seed) + 0.01)
        return [target_stop(sign * target)]
    if kind == "adaptive":
        return [adaptive_sampling(stagnation_window=2, bump=0.3, ceiling=1.5), early_stopping(5)]
    return []


def run_shape(shape, sign=1, workers=None, transcript=None):
    """Run ``shape`` on its problem's scores times ``sign``, in the direction
    that keeps the same solutions best; ``workers`` overrides the shape's,
    and a ``transcript`` of completions replaces the model."""
    spec, score, direction = PROBLEMS[shape.problem]()
    seeds = seed_samples(spec.schema, 4, shape.seed)
    scores = [score(v) for v in seeds]
    callbacks = make_callbacks(
        shape.callbacks, sign, direction, max(scores, key=direction.goodness)
    )
    if sign < 0:
        direction = FLIPPED[direction]
    initial = [EvaluatedSolution(v, sign * s) for v, s in zip(seeds, scores)]
    # Worse than any score the problem gives.
    penalty = (1e9 if direction is MIN else -1e9) if shape.penalized else None
    config = RunConfig(
        max_steps=shape.steps,
        batch=shape.batch,
        history_capacity=shape.capacity,
        evaluation=EvalPolicy(workers=workers or shape.workers, on_error=penalty),
        rng_seed=shape.seed,
    )
    need = shape.batch if shape.strategy is Strategy.HLMSA else None
    model = FlakyModel(shape.seed, need) if transcript is None else ScriptedBackend(transcript)
    objective = CountedObjective(score, sign)
    steps_seen = []

    def probe(ctx):
        # It only watches, so the run is the shape's own.
        steps_seen.append((ctx.stats, objective.calls))
        return Continue()

    result = optimize(
        shape.strategy,
        spec,
        Objective(objective, direction),
        model,
        config,
        callbacks=[probe, *callbacks],
        initial=initial,
    )
    return Run(shape, initial, direction, objective, model, result, steps_seen)


def better(direction, a, b):
    return a if direction.goodness(a) >= direction.goodness(b) else b


def check_steps(run):
    """The per-step invariants of one run."""
    shape, result, model = run.shape, run.result, run.model
    direction, steps = run.direction, result.steps
    aborted = result.termination.kind is TerminationKind.ABORTED

    # best_so_far never gets worse: each step's is the better of the last
    # one and the step's best, and the run's best is the last one.
    best = max((e.score for e in run.initial), key=direction.goodness)
    for stats in steps:
        assert stats.best_so_far == better(direction, best, stats.best_of_step)
        best = stats.best_so_far
    assert result.best.score == best

    # evaluations_used equals the objective calls of the completed steps,
    # each of which scores one to ``batch`` candidates (hlmsa: ``batch``);
    # only an aborted batch makes calls that no step counts.
    assert [stats for stats, _ in run.steps_seen] == steps
    counted = 0
    for _, calls in run.steps_seen:
        scored, counted = calls - counted, calls
        assert 1 <= scored <= shape.batch
        assert scored == shape.batch or shape.strategy is not Strategy.HLMSA
    assert result.evaluations_used == counted
    if aborted and result.termination.message.startswith("evaluation failed"):
        assert run.objective.calls > counted
    else:
        assert run.objective.calls == counted

    # Each step makes one or two proposer calls, the aborted one included.
    assert result.proposer_calls == len(model.completions)
    assert result.proposer_calls <= 2 * (len(steps) + aborted)
    assert len(model.prompts) == len(steps) + aborted

    # The prompt shows at most K history lines, worst to best, ending at the
    # best so far; an hlmsa prompt shows one trajectory line per slot.
    best = max((e.score for e in run.initial), key=direction.goodness)
    for t, bundle in enumerate(model.prompts):
        lines = bundle.user_text.splitlines()
        history = [line for line in lines if line.startswith("solution: ")]
        assert 1 <= len(history) <= shape.capacity
        shown = [float(line.rsplit("score: ", 1)[1]) for line in history]
        assert shown == sorted(shown, key=direction.goodness)
        assert history[-1].endswith(f"score: {render_float(best)}")
        if shape.strategy is Strategy.HLMSA:
            slots = [line.split(":", 1)[0] for line in lines if line.startswith("trajectory ")]
            assert slots == [f"trajectory {i}" for i in range(shape.batch)]
        if t < len(steps):
            best = steps[t].best_so_far

    # An abort's message names the fault that caused it.
    if aborted:
        message = result.termination.message
        if message.startswith("evaluation failed"):
            assert "injected fault" in message
        else:
            assert message.startswith("unusable proposal after retry: ")
            last = model.faults[-2:]
            assert len(last) == 2 and None not in last
            assert message.endswith(last[-1])


def test_shapes_cover_every_dimension():
    for field in ("problem", "strategy", "batch", "capacity", "workers", "callbacks", "penalized"):
        assert len({getattr(s, field) for s in SHAPES}) > 1, field
    kinds = set()
    for shape in SHAPES:
        run = run_shape(shape)
        check_steps(run)
        termination = run.result.termination
        kinds.add(termination.kind)
        if termination.kind is TerminationKind.ABORTED:
            kinds.add(termination.message.split(":")[0])
    # Runs end in every way: budget, both callback stops, and both aborts.
    assert kinds == {
        TerminationKind.MAX_STEPS,
        TerminationKind.EARLY_STOPPED,
        TerminationKind.TARGET_REACHED,
        TerminationKind.ABORTED,
        "evaluation failed",
        "unusable proposal after retry",
    }


@pytest.mark.parametrize(
    "shape", SHAPES, ids=[f"{i}-{s.problem}-{s.strategy.value}" for i, s in enumerate(SHAPES)]
)
def test_relations(shape):
    base = run_shape(shape)
    check_steps(base)

    # Two workers write what one does.
    other = run_shape(shape, workers=3 - shape.workers)
    check_steps(other)
    assert other.artifacts() == base.artifacts()

    # A recorded run replays byte for byte.
    replayed = run_shape(shape, transcript=base.model.completions)
    assert replayed.artifacts() == base.artifacts()

    # Negating the objective and flipping its direction negates the scores
    # and changes nothing else.
    flipped = run_shape(shape, sign=-1)
    check_steps(flipped)
    a, b = base.result, flipped.result
    assert b.best.solution == a.best.solution
    assert b.best.score == -a.best.score
    assert b.termination == a.termination
    assert (b.evaluations_used, b.proposer_calls) == (a.evaluations_used, a.proposer_calls)
    assert len(b.steps) == len(a.steps)
    for x, y in zip(a.steps, b.steps):
        assert (y.best_of_step, y.mean_of_step, y.best_so_far) == (
            -x.best_of_step, -x.mean_of_step, -x.best_so_far,
        )
        assert replace(y, best_of_step=0, mean_of_step=0, best_so_far=0) == replace(
            x, best_of_step=0, mean_of_step=0, best_so_far=0
        )
