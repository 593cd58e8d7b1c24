"""The optimization engine and its three strategies: prompting (OPRO),
evolutionary (HLMEA) and simulated annealing (HLMSA).

``optimize`` is the one step loop: build prompt, propose, parse, evaluate,
update history and best, record stats, dispatch callbacks. It takes the
strategy as a value. The strategies differ in the prompt's strategy block and
the tags they expect back; annealing adds per-trajectory Metropolis
acceptance and a model-proposed cooling schedule, confined to one setup block,
the prompt's trajectory argument and one post-evaluation block.
``run_opro``, ``run_hlmea`` and ``run_hlmsa`` are one-line shorthands.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

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
from .evaluation import EvalPolicy, EvaluationFailed, Objective, evaluate_batch
from .proposer import (
    EXPECTED_TAGS,
    ParsedProposal,
    ProposerBackend,
    SamplingParams,
    ScriptExhausted,
    Strategy,
    TransportError,
    ZeroCandidatesError,
    build_prompt,
    clamp_tag,
    parse_proposal,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RunConfig:
    max_steps: int = 50
    batch: int = 8
    history_capacity: int = 16
    sampling: SamplingParams = SamplingParams()
    workers: int = 1
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("max_steps", "batch", "history_capacity", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass
class SaState:
    """Annealing state: one current point per trajectory plus the shared
    temperature schedule.

    ``trajectories`` may start empty; the run fills it by cycling the initial
    solutions until there is one point per batch slot.
    """

    trajectories: list[EvaluatedSolution] = field(default_factory=list)
    sa_temperature: float = 1.0
    cooling_bounds: tuple[float, float] = (0.5, 0.99)
    default_cooling: float = 0.92

    def __post_init__(self) -> None:
        if self.sa_temperature <= 0:
            raise ValueError("sa_temperature must be > 0")
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
    rng: np.random.Generator,
) -> bool:
    """Metropolis rule: always accept improvements, accept a worsening of
    magnitude d with probability exp(-d / T)."""
    if sa_temperature <= 0:
        raise ValueError("sa_temperature must be > 0")
    if not (math.isfinite(current_score) and math.isfinite(candidate_score)):
        raise ValueError("scores must be finite")
    delta = direction.goodness(current_score) - direction.goodness(candidate_score)
    if delta <= 0:
        return True
    return rng.random() < math.exp(-delta / sa_temperature)


def cool(sa_temperature: float, alpha: float) -> float:
    if sa_temperature <= 0:
        raise ValueError("sa_temperature must be > 0")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    return sa_temperature * alpha


class _AbortRun(Exception):
    def __init__(self, message: str, calls: int):
        super().__init__(message)
        self.calls = calls


def _propose_and_parse(
    backend: ProposerBackend,
    bundle,
    sampling: SamplingParams,
    schema,
    tags: tuple[str, ...],
    need: int | None,
) -> tuple[ParsedProposal, int]:
    """One proposal with a single retry on unusable output.

    ``need`` is the minimum candidate count (trajectory alignment for HLMSA);
    None accepts any non-empty parse.
    """
    calls = 0
    failure = "no candidates"
    for _ in range(2):
        calls += 1
        try:
            raw = backend.propose(bundle, sampling)
        except (ScriptExhausted, TransportError) as exc:
            raise _AbortRun(f"proposal failed: {exc}", calls) from exc
        try:
            parsed = parse_proposal(raw, schema, tags)
        except ZeroCandidatesError as exc:
            failure = str(exc)
            continue
        if need is not None and len(parsed.candidates) < need:
            failure = f"parsed {len(parsed.candidates)} candidates, need {need}"
            continue
        return parsed, calls
    raise _AbortRun(f"unusable proposal after retry: {failure}", calls)


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
    ``initial`` solutions.

    ``sa`` seeds the annealing state and applies to HLMSA only (a default
    ``SaState`` when None); it is mutated during the run.
    """
    if not initial:
        raise ValueError("initial evaluated solutions required")
    if objective.direction is not spec.direction:
        raise ValueError("objective and problem spec disagree on direction")

    started = time.perf_counter()
    direction = spec.direction
    history = History(config.history_capacity, direction)
    best: EvaluatedSolution | None = None
    for entry in initial:
        history.insert(entry)
        best = update_best(best, entry, direction)
    assert best is not None

    # Annealing setup: one trajectory per batch slot, and worsening magnitudes
    # measured against the seed scores' range, frozen for the whole run.
    need: int | None = None
    norm_offset, norm_scale = 0.0, 1.0
    if strategy is Strategy.HLMSA:
        sa = sa if sa is not None else SaState()
        if not sa.trajectories:
            sa.trajectories = [initial[i % len(initial)] for i in range(config.batch)]
        if len(sa.trajectories) != config.batch:
            raise ValueError("need one trajectory per batch slot")
        need = config.batch
        seed_scores = [e.score for e in initial]
        norm_offset = min(seed_scores)
        norm_scale = max(seed_scores) - norm_offset or 1.0
        logger.info(
            "annealing score normalization frozen at offset=%r scale=%r",
            norm_offset,
            norm_scale,
        )
    elif sa is not None:
        raise ValueError("annealing state only applies to the hlmsa strategy")

    rng = np.random.default_rng(config.rng_seed)
    sampling = config.sampling
    policy = EvalPolicy(workers=config.workers)
    tags = EXPECTED_TAGS[strategy]
    steps: list[StepStats] = []
    evaluations = 0
    proposer_calls = 0
    termination = Termination(TerminationKind.MAX_STEPS)

    for step_index in range(config.max_steps):
        if sa is None:
            state, trajectories = {}, None
        else:
            state, trajectories = {"sa_temperature": sa.sa_temperature}, sa.trajectories
        bundle = build_prompt(spec, history, strategy, state, config.batch, trajectories)
        try:
            parsed, calls = _propose_and_parse(
                backend, bundle, sampling, spec.schema, tags, need
            )
        except _AbortRun as exc:
            proposer_calls += exc.calls
            termination = Termination(TerminationKind.ABORTED, str(exc))
            break
        proposer_calls += calls

        # Positional alignment for HLMSA: candidate i belongs to trajectory i,
        # and extras are dropped. Other strategies keep every candidate.
        candidates = list(parsed.candidates[:need])
        try:
            scores = evaluate_batch(objective, candidates, policy)
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

        cooling: float | None = None
        step_sa_temperature: float | None = None
        if sa is not None:
            step_sa_temperature = sa.sa_temperature
            for i, candidate in enumerate(evaluated):
                accepted = accept_candidate(
                    (sa.trajectories[i].score - norm_offset) / norm_scale,
                    (candidate.score - norm_offset) / norm_scale,
                    sa.sa_temperature,
                    direction,
                    rng,
                )
                if accepted:
                    sa.trajectories[i] = candidate
            cooling = clamp_tag(
                parsed.hyperparams.get("cooling_rate"),
                sa.cooling_bounds[0],
                sa.cooling_bounds[1],
                sa.default_cooling,
            )
            sa.sa_temperature = cool(sa.sa_temperature, cooling)

        step_scores = [e.score for e in evaluated]
        stats = StepStats(
            step_index=step_index,
            best_of_step=max(step_scores, key=direction.goodness),
            mean_of_step=sum(step_scores) / len(step_scores),
            best_so_far=best.score,
            sampling_temperature=sampling.model_temperature,
            sa_temperature=step_sa_temperature,
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


def run_opro(
    spec: ProblemSpec,
    objective: Objective,
    backend: ProposerBackend,
    config: RunConfig,
    callbacks: Sequence[Callback] = (),
    initial: Sequence[EvaluatedSolution] = (),
) -> OptimizationResult:
    """Iterative prompting: each step asks for a batch of improvements over
    the rendered history."""
    return optimize(Strategy.OPRO, spec, objective, backend, config, callbacks, initial)


def run_hlmea(
    spec: ProblemSpec,
    objective: Objective,
    backend: ProposerBackend,
    config: RunConfig,
    callbacks: Sequence[Callback] = (),
    initial: Sequence[EvaluatedSolution] = (),
) -> OptimizationResult:
    """Evolutionary variant: the prompt instructs parent selection, crossover,
    and mutation, and asks for elitism/mutation/crossover rate tags. The rates
    are logged per step but never enforced; elitism is implicit in the
    top-K history that feeds each prompt."""
    return optimize(Strategy.HLMEA, spec, objective, backend, config, callbacks, initial)


def run_hlmsa(
    spec: ProblemSpec,
    objective: Objective,
    backend: ProposerBackend,
    config: RunConfig,
    callbacks: Sequence[Callback] = (),
    initial: Sequence[EvaluatedSolution] = (),
    sa_init: SaState | None = None,
) -> OptimizationResult:
    """Simulated-annealing variant over ``batch`` parallel trajectories.

    Candidate i is the proposed neighbor of trajectory i; improving neighbors
    always replace the trajectory point, worsening ones pass a Metropolis test
    at the shared temperature. Worsening magnitudes are normalized by the seed
    scores' range so the default temperature is meaningful across objectives.
    The cooling rate is parsed from each completion, clamped into the state's
    cooling bounds (missing or junk tags fall back to the default), and
    multiplies the temperature after every step. Best-so-far tracks every
    evaluation whether or not it was accepted.

    ``sa_init`` seeds the annealing state; it is mutated during the run, so
    callers that keep a reference can observe trajectories and temperature.
    """
    return optimize(Strategy.HLMSA, spec, objective, backend, config, callbacks, initial, sa_init)
