"""The optimization engine and its three strategies: prompting (OPRO),
evolutionary (HLMEA) and simulated annealing (HLMSA).

``optimize`` is the one step loop: build prompt, propose, parse, evaluate,
update history and best, record stats, dispatch callbacks. It takes the
strategy as a value, and the strategy owns all that differs: the prompt's
strategy block, the tags it expects back, and a per-run state. Only annealing
keeps one, started from the caller's frozen ``SaState`` settings: a point per
trajectory, Metropolis acceptance and a model-proposed cooling schedule.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial, reduce
from typing import NoReturn, Sequence

from .control import Callback, SetSamplingTemperature, StepContext, Stop, resolve_actions
from .core import (
    EvaluatedSolution,
    History,
    ObjectiveDirection,
    OptimizationResult,
    ProblemSpec,
    StepStats,
    Termination,
    TerminationKind,
    update_best,
)
from .evaluation import (
    EvalPolicy,
    EvaluationFailed,
    Objective,
    evaluate_batch,
    evaluation_pool,
)
from .proposer import (
    ParsedProposal,
    ProposerBackend,
    SamplingParams,
    ScriptExhausted,
    TransportError,
    ZeroCandidatesError,
    build_prompt,
    clamp_tag,
    parse_proposal,
    tag_request,
)
from .rng import Rng

logger = logging.getLogger(__name__)


# The most candidates one step asks for. On a 2-vCPU Xeon VM, the stand-in
# model's reply to one convex2d prompt took 0.12 s at 10**4 and 1.2 s at 10**5.
MAX_BATCH = 10_000


@dataclass(frozen=True)
class RunConfig:
    max_steps: int = 50
    batch: int = 8
    history_capacity: int = 16
    sampling: SamplingParams = SamplingParams()
    evaluation: EvalPolicy = field(default_factory=EvalPolicy)
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("max_steps", "batch", "history_capacity"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.batch > MAX_BATCH:
            raise ValueError(f"batch must be <= {MAX_BATCH}")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")


def _check_temperature(sa_temperature: float) -> None:
    # Written so that NaN fails it too.
    if not 0.0 < sa_temperature < math.inf:
        raise ValueError("sa_temperature must be finite and > 0")


@dataclass(frozen=True)
class SaState:
    """Annealing settings: the initial temperature and the cooling schedule.
    A run never changes them.
    """

    sa_temperature: float = 1.0
    cooling_bounds: tuple[float, float] = (0.5, 0.99)
    default_cooling: float = 0.92

    def __post_init__(self) -> None:
        _check_temperature(self.sa_temperature)
        lo, hi = self.cooling_bounds
        if not (0.0 < lo < hi < 1.0):
            raise ValueError("cooling_bounds must satisfy 0 < lo < hi < 1")
        if not lo <= self.default_cooling <= hi:
            raise ValueError("default_cooling must lie within cooling_bounds")


def accept_candidate(
    current_score: float,
    candidate_score: float,
    sa_temperature: float,
    direction: ObjectiveDirection,
    rng: Rng,
) -> bool:
    """Metropolis rule: always accept improvements, accept a worsening of
    magnitude d with probability exp(-d / T)."""
    _check_temperature(sa_temperature)
    if not (math.isfinite(current_score) and math.isfinite(candidate_score)):
        raise ValueError("scores must be finite")
    delta = direction.goodness(current_score) - direction.goodness(candidate_score)
    if delta <= 0:
        return True
    return rng.random() < math.exp(-delta / sa_temperature)


def cool(sa_temperature: float, alpha: float) -> float:
    """``sa_temperature * alpha``, bottoming out at the smallest positive float
    rather than underflowing to 0; there every worsening is refused."""
    _check_temperature(sa_temperature)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    return max(sa_temperature * alpha, math.ulp(0.0))


def _opro_block(batch: int, state: object) -> str:
    return f"Propose {batch} new, distinct solutions better than the best shown."


def _hlmea_block(batch: int, state: object) -> str:
    return (
        "Act as an evolutionary algorithm. Select parent solutions from the "
        "evaluated examples above, combine their strongest features as "
        "crossover, and apply small mutations for exploration. Every proposed "
        "solution must be unique. "
        f"Choose an elitism rate and report it {tag_request('elitism_rate')}. "
        f"Choose a mutation rate and report it {tag_request('mutation_rate')}. "
        f"Choose a crossover rate and report it {tag_request('crossover_rate')}. "
        f"Propose {batch} new offspring solutions."
    )


def _hlmsa_block(batch: int, state: _Annealing | None) -> str:
    if state is None:
        raise ValueError("HLMSA prompts require the annealing state")
    lines = [
        f"Act as simulated annealing over {batch} parallel trajectories "
        "sharing one temperature schedule.",
        f"Current annealing temperature: {float(state.temperature)}.",
        "Current trajectory states:",
    ]
    lines += [f"trajectory {i}: " + entry.text for i, entry in enumerate(state.points)]
    lines.append(
        "For each trajectory, propose one neighboring solution: a modest "
        "change of that trajectory's current solution. The i-th solution "
        "block is used as the neighbor for trajectory i. Higher temperature "
        "permits bolder changes; lower temperature calls for careful local "
        "refinement. Choose a cooling rate strictly between 0 and 1 and "
        f"report it {tag_request('cooling_rate')}."
    )
    return "\n".join(lines)


class _Stateless:
    """The run state of a strategy that keeps none, and takes no settings."""

    need = 1

    def __init__(self, sa, initial, config, direction) -> None:
        if sa is not None:
            self.settings()

    @staticmethod
    def settings(**values: object) -> NoReturn:
        raise ValueError("annealing settings only apply to the hlmsa strategy")

    def update(self, evaluated, hyperparams) -> tuple[None, None]:
        return None, None


class _Annealing:
    """HLMSA's run state: the ``temperature``, and ``points``, trajectory i's
    at slot i, first the initial solutions cycled. Candidate i is point i's
    neighbor: an improvement always replaces it, a worsening passes a
    Metropolis test on its magnitude normalized by the seed scores' range,
    frozen for the run. The model's cooling rate, clamped into the settings'
    bounds (the default when missing or junk), then multiplies the temperature."""

    settings = SaState

    def __init__(self, sa, initial, config, direction) -> None:
        sa = sa or self.settings()
        self.temperature = sa.sa_temperature
        self.cooling = (*sa.cooling_bounds, sa.default_cooling)
        self.points = [initial[i % len(initial)] for i in range(config.batch)]
        self.need = config.batch
        self.direction = direction
        self.rng = Rng(config.rng_seed)
        seed_scores = [e.score for e in initial]
        self.offset, self.top = min(seed_scores), max(seed_scores)
        self.scale = self.top - self.offset or 1.0
        logger.info("annealing score normalization frozen at offset=%r scale=%r",
                    self.offset, self.scale)

    def accepts(self, current: float, proposed: float, temperature: float) -> bool:
        """``accept_candidate`` on the two scores normalized by the seeds'
        range. Where that overflows, the exact normalized change stands in:
        one too large for a float is an improvement, accepted, or a worsening,
        refused."""
        if math.isfinite(self.scale):
            current_n = (current - self.offset) / self.scale
            proposed_n = (proposed - self.offset) / self.scale
            if math.isfinite(current_n) and math.isfinite(proposed_n):
                return accept_candidate(
                    current_n, proposed_n, temperature, self.direction, self.rng
                )
        from fractions import Fraction

        change = (Fraction(proposed) - Fraction(current)) / (
            Fraction(self.top) - Fraction(self.offset) or 1
        )
        try:
            change = float(change)
        except OverflowError:
            return self.direction.goodness(proposed) > self.direction.goodness(current)
        return accept_candidate(0.0, change, temperature, self.direction, self.rng)

    def update(self, evaluated, hyperparams) -> tuple[float, float]:
        """Move the points and cool; returns the step's temperature and rate."""
        temperature, points = self.temperature, self.points
        for i, candidate in enumerate(evaluated):
            if self.accepts(points[i].score, candidate.score, temperature):
                points[i] = candidate
        cooling = clamp_tag(hyperparams.get("cooling_rate"), *self.cooling)
        self.temperature = cool(temperature, cooling)
        return temperature, cooling


class Strategy(Enum):
    """How each step asks for candidates; ``optimize`` takes it as a value.

    OPRO asks for improvements over the rendered history. HLMEA asks for
    selection, crossover and mutation, and for elitism, mutation and crossover
    rate tags that each step records in its ``hyperparams`` but nothing
    enforces (elitism is implicit in the top-K history). HLMSA anneals one
    trajectory per batch slot (``_Annealing``). Best-so-far tracks every
    evaluation. Each member holds its ``prompt_block(batch, state)``, the
    ``tags`` it asks for, and ``state``, its per-run state class, which the
    block reads; ``state.settings`` builds the ``sa`` that ``optimize`` takes.
    """

    def __new__(cls, value, tags, prompt_block, state):
        member = object.__new__(cls)
        member._value_, member.tags = value, tags
        member.prompt_block, member.state = prompt_block, state
        return member

    OPRO = ("opro", (), _opro_block, _Stateless)
    HLMEA = ("hlmea", ("elitism_rate", "mutation_rate", "crossover_rate"), _hlmea_block, _Stateless)
    HLMSA = ("hlmsa", ("cooling_rate",), _hlmsa_block, _Annealing)


def _mean(scores: list[float]) -> float:
    """The scores added left to right, as ``sum()`` adds before Python 3.12, so
    the same on every version, over their count. Finite scores near the float
    limit overflow that sum; then it is twice the exact sum of each score over
    twice the count, kept within the scores' range against its rounding."""
    mean = reduce(float.__add__, scores, 0.0) / len(scores)
    if math.isfinite(mean):
        return mean
    half = math.fsum(s / (2 * len(scores)) for s in scores)
    return min(max(2.0 * half, min(scores)), max(scores))


def _propose_and_parse(
    backend: ProposerBackend,
    bundle,
    sampling: SamplingParams,
    schema,
    tags: tuple[str, ...],
    need: int,
) -> tuple[ParsedProposal | None, int, str | None]:
    """One proposal with a single retry on unusable output: the parse, the calls
    made, and why the run aborts instead, when there is no parse.

    ``need`` is the fewest candidates the run state takes: one per batch slot
    when candidate i belongs to slot i, else 1.
    """
    failure = "no candidates"
    for calls in (1, 2):
        try:
            raw = backend.propose(bundle, sampling)
        except (ScriptExhausted, TransportError) as exc:
            return None, calls, f"proposal failed: {exc}"
        try:
            parsed = parse_proposal(raw, schema, tags)
        except ZeroCandidatesError as exc:
            failure = str(exc)
            continue
        if len(parsed.candidates) < need:
            failure = f"parsed {len(parsed.candidates)} candidates, need {need}"
            continue
        return parsed, calls, None
    return None, calls, f"unusable proposal after retry: {failure}"


def optimize(
    strategy: Strategy,
    spec: ProblemSpec,
    objective: Objective,
    backend: ProposerBackend,
    config: RunConfig,
    callbacks: Sequence[Callback] = (),
    initial: Sequence[EvaluatedSolution] = (),
    sa: SaState | None = None,
) -> OptimizationResult:
    """Run ``strategy`` for up to ``config.max_steps`` steps from the evaluated
    ``initial`` solutions. A step scores the first ``config.batch`` candidates
    its reply holds, under ``config.evaluation``, ranked in ``objective.direction``.

    ``sa`` holds HLMSA's annealing settings (its defaults when None), and
    the run never changes it; other strategies refuse it. With more than one
    worker, every step's batch runs on one pool of ``workers`` threads, which
    the run ends before it returns, or at once on an interrupt.
    """
    if not initial:
        raise ValueError("initial evaluated solutions required")

    started = time.perf_counter()
    direction = objective.direction
    history = History(config.history_capacity, direction)
    best: EvaluatedSolution | None = None
    for entry in initial:
        history.insert(entry)
        best = update_best(best, entry, direction)
    assert best is not None

    state = strategy.state(sa, initial, config, direction)
    sampling = config.sampling
    steps: list[StepStats] = []
    evaluations = 0
    proposer_calls = 0
    termination = Termination(TerminationKind.MAX_STEPS)

    with evaluation_pool(config.evaluation) as pool:
        for step_index in range(config.max_steps):
            bundle = build_prompt(spec, history, strategy, config.batch, state)
            parsed, calls, failure = _propose_and_parse(
                backend, bundle, sampling, spec.schema, strategy.tags, state.need
            )
            proposer_calls += calls
            if parsed is None:
                termination = Termination(TerminationKind.ABORTED, failure)
                break

            # Blocks past the batch go unscored: each would be one more objective call.
            candidates = list(parsed.candidates[: config.batch])
            try:
                scores = evaluate_batch(objective, candidates, config.evaluation, pool)
            except EvaluationFailed as exc:
                termination = Termination(
                    TerminationKind.ABORTED, f"evaluation failed: {exc}"
                )
                break
            evaluations += len(candidates)
            evaluated = [EvaluatedSolution(c, s) for c, s in zip(candidates, scores)]
            for entry in evaluated:
                history.insert(entry)
                best = update_best(best, entry, direction)
            sa_temperature, cooling = state.update(evaluated, parsed.hyperparams)

            step_scores = [e.score for e in evaluated]
            stats = StepStats(
                step_index=step_index,
                best_of_step=max(step_scores, key=direction.goodness),
                mean_of_step=_mean(step_scores),
                best_so_far=best.score,
                sampling_temperature=sampling.model_temperature,
                sa_temperature=sa_temperature,
                cooling_rate=cooling,
                hyperparams=dict(parsed.hyperparams),
            )
            steps.append(stats)

            context = StepContext(stats=stats, direction=direction)
            action = resolve_actions([cb(context) for cb in callbacks])
            if isinstance(action, Stop):
                termination = Termination(action.reason)
                break
            if isinstance(action, SetSamplingTemperature):
                sampling = replace(sampling, model_temperature=action.value)

    return OptimizationResult(
        best=best,
        steps=steps,
        termination=termination,
        evaluations_used=evaluations,
        proposer_calls=proposer_calls,
        wall_time=time.perf_counter() - started,
    )


run_opro = partial(optimize, Strategy.OPRO)
run_hlmea = partial(optimize, Strategy.HLMEA)
run_hlmsa = partial(optimize, Strategy.HLMSA)
