"""Shared domain types: problems, solutions, scores, history, and run results.

Everything here is a plain value. Mutation is limited to ``History``, which is
only ever touched from the single loop that owns a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum


class ObjectiveDirection(Enum):
    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


class Ordering(Enum):
    BETTER = "better"
    EQUAL = "equal"
    WORSE = "worse"


def compare_scores(a: float, b: float, direction: ObjectiveDirection) -> Ordering:
    """Rank score ``a`` against score ``b`` under the given direction."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"scores must be finite, got {a!r} and {b!r}")
    if a == b:
        return Ordering.EQUAL
    if direction is ObjectiveDirection.MINIMIZE:
        return Ordering.BETTER if a < b else Ordering.WORSE
    return Ordering.BETTER if a > b else Ordering.WORSE


def is_better(a: float, b: float, direction: ObjectiveDirection) -> bool:
    return compare_scores(a, b, direction) is Ordering.BETTER


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


# ---------------------------------------------------------------------------
# History
# ---------------------------------------------------------------------------


class History:
    """Bounded store of the best evaluated solutions seen so far.

    Holds at most ``capacity`` entries, kept in worst-to-best order. A score
    tie is resolved in favor of the earlier insertion. Re-inserting a solution
    payload that is already present replaces its stored score instead of
    creating a duplicate entry.
    """

    def __init__(self, capacity: int, direction: ObjectiveDirection):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.direction = direction
        self._entries: list[EvaluatedSolution] = []
        self._seqs: list[int] = []
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
        for i, existing in enumerate(self._entries):
            if existing.solution == entry.solution:
                del self._entries[i]
                del self._seqs[i]
                break
        self._entries.append(entry)
        self._seqs.append(self._next_seq)
        self._next_seq += 1

        # Worst-to-best: later insertions lose score ties, so they sort
        # closer to the worst end.
        if self.direction is ObjectiveDirection.MINIMIZE:
            def goodness(i: int):
                return (-self._entries[i].score, -self._seqs[i])
        else:
            def goodness(i: int):
                return (self._entries[i].score, -self._seqs[i])

        order = sorted(range(len(self._entries)), key=goodness)
        self._entries = [self._entries[i] for i in order]
        self._seqs = [self._seqs[i] for i in order]
        while len(self._entries) > self.capacity:
            del self._entries[0]
            del self._seqs[0]


def update_best(
    current_best: EvaluatedSolution | None,
    candidate: EvaluatedSolution,
    direction: ObjectiveDirection,
) -> EvaluatedSolution:
    """Return the better of incumbent and candidate; ties keep the incumbent."""
    if current_best is None:
        return candidate
    if is_better(candidate.score, current_best.score, direction):
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
