"""Shared domain types: problems, solutions, scores, history, and run results.

Everything here is a plain value. Mutation is limited to ``History``, which is
only ever touched from the single loop that owns a run, and to the memoized
``EvaluatedSolution.text``, which renders an entry's prompt text on first use.
``ObjectiveDirection.goodness`` is the one place that decides which score is
better.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property


class ObjectiveDirection(Enum):
    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"

    def goodness(self, score: float) -> float:
        """``score`` on a higher-is-better scale: negated when minimizing."""
        return -score if self is ObjectiveDirection.MINIMIZE else score


# ---------------------------------------------------------------------------
# Solution schemas and values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RealVectorSchema:
    """Fixed-length vector of reals with per-dimension bounds.

    Bounds describe the intended search box; parsed candidates are allowed to
    fall outside it (objectives penalize infeasibility).
    """

    dim: int
    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", tuple(float(v) for v in self.lower))
        object.__setattr__(self, "upper", tuple(float(v) for v in self.upper))
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if len(self.lower) != self.dim or len(self.upper) != self.dim:
            raise ValueError("bounds length must equal dim")
        for lo, hi in zip(self.lower, self.upper):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("bounds must be finite")
            if lo > hi:
                raise ValueError(f"lower bound {lo} exceeds upper bound {hi}")


@dataclass(frozen=True)
class PermutationSchema:
    """An ordering of the integers 0..n-1."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("permutation size must be >= 2")


@dataclass(frozen=True)
class KeyedScalarsSchema:
    """Named scalars, each with its own bounds, in a fixed key order."""

    keys: tuple[str, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", tuple(str(k) for k in self.keys))
        object.__setattr__(self, "lower", tuple(float(v) for v in self.lower))
        object.__setattr__(self, "upper", tuple(float(v) for v in self.upper))
        if not self.keys:
            raise ValueError("at least one key required")
        if any(not k for k in self.keys):
            raise ValueError("keys must be non-empty")
        if len(set(self.keys)) != len(self.keys):
            raise ValueError("keys must be unique")
        if len(self.lower) != len(self.keys) or len(self.upper) != len(self.keys):
            raise ValueError("bounds length must equal number of keys")
        for lo, hi in zip(self.lower, self.upper):
            if lo > hi:
                raise ValueError(f"lower bound {lo} exceeds upper bound {hi}")

    @classmethod
    def from_bounds(cls, bounds: dict[str, tuple[float, float]]) -> "KeyedScalarsSchema":
        keys = tuple(bounds)
        return cls(
            keys=keys,
            lower=tuple(bounds[k][0] for k in keys),
            upper=tuple(bounds[k][1] for k in keys),
        )

    def bounds(self) -> dict[str, tuple[float, float]]:
        return {k: (lo, hi) for k, lo, hi in zip(self.keys, self.lower, self.upper)}


SolutionSchema = RealVectorSchema | PermutationSchema | KeyedScalarsSchema


@dataclass(frozen=True)
class RealVector:
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))


@dataclass(frozen=True)
class Permutation:
    order: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", tuple(int(v) for v in self.order))
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError(f"not a permutation of 0..{len(self.order) - 1}: {self.order}")


@dataclass(frozen=True)
class KeyedScalars:
    pairs: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "pairs", tuple((str(k), float(v)) for k, v in self.pairs)
        )
        keys = [k for k, _ in self.pairs]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate keys")

    @classmethod
    def from_dict(cls, mapping: dict[str, float]) -> "KeyedScalars":
        return cls(tuple(mapping.items()))

    def as_dict(self) -> dict[str, float]:
        return dict(self.pairs)


SolutionValue = RealVector | Permutation | KeyedScalars


def render_float(x: float) -> str:
    """Render a real at 6 significant digits, the prompt-side precision."""
    return f"{x:.6g}"


def render_solution(value: SolutionValue) -> str:
    if isinstance(value, RealVector):
        return ", ".join(render_float(v) for v in value.values)
    if isinstance(value, Permutation):
        return ", ".join(str(v) for v in value.order)
    if isinstance(value, KeyedScalars):
        return ", ".join(f"{k}={render_float(v)}" for k, v in value.pairs)
    raise TypeError(f"unknown solution value: {value!r}")


# ---------------------------------------------------------------------------
# Problem specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemSpec:
    """A problem statement in plain language plus the machine-readable schema.

    ``description`` is shown to the proposal model verbatim; ``domain_knowledge``
    is an optional free-text block for constraints, heuristics, and rules the
    model should respect.
    """

    description: str
    direction: ObjectiveDirection
    schema: SolutionSchema
    domain_knowledge: str | None = None

    def __post_init__(self) -> None:
        if not self.description.strip():
            raise ValueError("description must be non-empty")


@dataclass(frozen=True)
class EvaluatedSolution:
    solution: SolutionValue
    score: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "score", float(self.score))
        if not math.isfinite(self.score):
            raise ValueError(f"score must be finite, got {self.score!r}")

    @cached_property
    def text(self) -> str:
        """``"<solution> | score: <score>"``, rendered on first use and kept.

        Equal payloads can render differently (0.0 and -0.0), so the text
        belongs to the entry, not to its payload.
        """
        return f"{render_solution(self.solution)} | score: {render_float(self.score)}"


# ---------------------------------------------------------------------------
# History
# ---------------------------------------------------------------------------


class History:
    """Bounded store of the best evaluated solutions seen so far.

    Holds at most ``capacity`` entries, kept in worst-to-best order. A score
    tie is resolved in favor of the earlier insertion. Re-inserting a solution
    payload that is already present replaces its stored score instead of
    creating a duplicate entry.

    Each entry has a unique sort key ``(direction.goodness(score), -seq)``,
    where ``seq`` counts insertions; a parallel list of keys and a dict from
    payload to key locate any slot by bisection. An insert costs an O(log K)
    search plus an O(K) list shift.
    """

    def __init__(self, capacity: int, direction: ObjectiveDirection):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.direction = direction
        self._entries: list[EvaluatedSolution] = []
        self._keys: list[tuple[float, int]] = []
        self._key_of: dict[SolutionValue, tuple[float, int]] = {}
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> list[EvaluatedSolution]:
        """Current entries, worst to best. Returns a copy."""
        return list(self._entries)

    def best(self) -> EvaluatedSolution | None:
        return self._entries[-1] if self._entries else None

    def insert(self, entry: EvaluatedSolution) -> None:
        old = self._key_of.pop(entry.solution, None)
        if old is not None:
            i = bisect_left(self._keys, old)
            del self._keys[i]
            del self._entries[i]

        # Worst-to-best: later insertions lose score ties, so they sort
        # closer to the worst end.
        key = (self.direction.goodness(entry.score), -self._next_seq)
        self._next_seq += 1
        i = bisect_left(self._keys, key)
        self._keys.insert(i, key)
        self._entries.insert(i, entry)
        self._key_of[entry.solution] = key

        if len(self._entries) > self.capacity:
            del self._keys[0]
            del self._key_of[self._entries.pop(0).solution]


def update_best(
    current_best: EvaluatedSolution | None,
    candidate: EvaluatedSolution,
    direction: ObjectiveDirection,
) -> EvaluatedSolution:
    """Return the better of incumbent and candidate; ties keep the incumbent."""
    if current_best is None:
        return candidate
    if direction.goodness(candidate.score) > direction.goodness(current_best.score):
        return candidate
    return current_best


# ---------------------------------------------------------------------------
# Per-step statistics and final results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepStats:
    step_index: int
    best_of_step: float
    mean_of_step: float
    best_so_far: float
    sampling_temperature: float
    sa_temperature: float | None = None
    cooling_rate: float | None = None
    hyperparams: dict[str, float] = field(default_factory=dict)


class TerminationKind(Enum):
    MAX_STEPS = "max_steps"
    TARGET_REACHED = "target_reached"
    EARLY_STOPPED = "early_stopped"
    ABORTED = "aborted"


@dataclass(frozen=True)
class Termination:
    kind: TerminationKind
    message: str | None = None


@dataclass(frozen=True)
class OptimizationResult:
    best: EvaluatedSolution
    steps: list[StepStats]
    termination: Termination
    evaluations_used: int
    proposer_calls: int
    wall_time: float
