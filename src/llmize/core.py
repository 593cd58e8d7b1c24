"""Shared domain types: problems, solutions, scores, history, and run results.

Everything here is a plain value. Mutation is limited to ``History``, which is
only ever touched from the single loop that owns a run, and to the memoized
``EvaluatedSolution.text``, which renders an entry's prompt text on first use.
``ObjectiveDirection.goodness`` is the one place that decides which score is
better.

Candidates exist only as model-written text, so each solution kind's text
encoding is the contract between prompt and parser, and it lives here. A
schema describes its kind for the prompt (``describe``, read back by
``from_description``), parses a solution block (``parse``), and draws values
(``sample``, ``perturb``); a value renders itself (``render``, ``to_json``).
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # numpy loads numpy.random lazily; annotations need only the name
    from numpy.random import Generator


class ObjectiveDirection(Enum):
    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"

    def goodness(self, score: float) -> float:
        """``score`` on a higher-is-better scale: negated when minimizing."""
        return -score if self is ObjectiveDirection.MINIMIZE else score


# ---------------------------------------------------------------------------
# Solution schemas and values
# ---------------------------------------------------------------------------


def render_float(x: float) -> str:
    """Render a real at 6 significant digits, the prompt-side precision."""
    return f"{x:.6g}"


def parse_real(token: str) -> float | None:
    """A finite real, or None. Like ``float``, ignores surrounding whitespace."""
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _check_bounds(lower: tuple[float, ...], upper: tuple[float, ...]) -> None:
    for lo, hi in zip(lower, upper):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("bounds must be finite")
        if lo > hi:
            raise ValueError(f"lower bound {lo} exceeds upper bound {hi}")


def _render_bounds(lo: float, hi: float) -> str:
    return f"[{render_float(lo)}, {render_float(hi)}]"


# Readers of the bound lists that ``describe`` writes.
_REAL_BOUNDS_RE = re.compile(r"Bounds per position: (.+?)\.(?:\n|$)")
_BRACKET_PAIR_RE = re.compile(r"\[([^,\]]+),\s*([^\]]+)\]")
_KEYED_BOUNDS_RE = re.compile(r"Keys and bounds: (.+?)\.(?:\n|$)")
_KEY_BOUND_RE = re.compile(r"(\S+) in \[([^,\]]+),\s*([^\]]+)\]")


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
        _check_bounds(self.lower, self.upper)

    def describe(self) -> str:
        bounds = ", ".join(map(_render_bounds, self.lower, self.upper))
        return (
            f"Each solution is a comma-separated list of {self.dim} real numbers. "
            f"Bounds per position: {bounds}."
        )

    @classmethod
    def from_description(cls, text: str) -> RealVectorSchema | None:
        match = _REAL_BOUNDS_RE.search(text)
        if not match:
            return None
        pairs = _BRACKET_PAIR_RE.findall(match.group(1))
        if not pairs:
            raise ValueError("no bounds found in prompt encoding")
        lower, upper = zip(*pairs)
        return cls(dim=len(pairs), lower=lower, upper=upper)

    def parse(self, text: str) -> RealVector | None:
        tokens = text.split(",")
        if len(tokens) != self.dim:
            return None
        values = [parse_real(t) for t in tokens]
        if None in values:
            return None
        return RealVector(tuple(values))  # type: ignore[arg-type]

    def sample(self, rng: Generator) -> RealVector:
        bounds = zip(self.lower, self.upper)
        return RealVector(tuple(float(rng.uniform(lo, hi)) for lo, hi in bounds))

    def perturb(self, value: RealVector, rng: Generator, step_scale: float) -> RealVector:
        """Add uniform noise of at most ``step_scale`` times each bound span."""
        spans = [step_scale * (hi - lo) for lo, hi in zip(self.lower, self.upper)]
        noise = [rng.uniform(-m, m) if m > 0 else 0.0 for m in spans]
        return RealVector(tuple(v + n for v, n in zip(value.values, noise)))


@dataclass(frozen=True)
class PermutationSchema:
    """An ordering of the integers 0..n-1."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("permutation size must be >= 2")

    def describe(self) -> str:
        return (
            f"Each solution is a comma-separated ordering of the integers "
            f"0..{self.n - 1}, each appearing exactly once."
        )

    @classmethod
    def from_description(cls, text: str) -> PermutationSchema | None:
        match = re.search(r"ordering of the integers\s+0\.\.(\d+)", text)
        return cls(n=int(match.group(1)) + 1) if match else None

    def parse(self, text: str) -> Permutation | None:
        tokens = text.split(",")
        if len(tokens) != self.n:
            return None
        try:
            return Permutation(tuple(tokens))  # type: ignore[arg-type]
        except ValueError:
            return None

    def sample(self, rng: Generator) -> Permutation:
        return Permutation(tuple(int(v) for v in rng.permutation(self.n)))

    def perturb(self, value: Permutation, rng: Generator, step_scale: float) -> Permutation:
        """Swap one or two random pairs; ``step_scale`` does not apply."""
        order = list(value.order)
        for _ in range(1 + int(rng.integers(2))):
            i, j = rng.choice(len(order), size=2, replace=False)
            order[i], order[j] = order[j], order[i]
        return Permutation(tuple(order))


@dataclass(frozen=True)
class KeyedScalarsSchema:
    """Named scalars, each with its own finite bounds, in a fixed key order."""

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
        _check_bounds(self.lower, self.upper)

    @classmethod
    def from_bounds(cls, bounds: dict[str, tuple[float, float]]) -> KeyedScalarsSchema:
        keys = tuple(bounds)
        return cls(keys, tuple(bounds[k][0] for k in keys), tuple(bounds[k][1] for k in keys))

    def describe(self) -> str:
        bounds = ", ".join(
            f"{k} in {_render_bounds(lo, hi)}"
            for k, lo, hi in zip(self.keys, self.lower, self.upper)
        )
        return (
            "Each solution is a comma-separated list of key=value assignments, "
            f"exactly one per key. Keys and bounds: {bounds}."
        )

    @classmethod
    def from_description(cls, text: str) -> KeyedScalarsSchema | None:
        match = _KEYED_BOUNDS_RE.search(text)
        if not match:
            return None
        triples = _KEY_BOUND_RE.findall(match.group(1))
        if not triples:
            raise ValueError("no keyed bounds found in prompt encoding")
        keys, lower, upper = zip(*triples)
        return cls(keys=keys, lower=lower, upper=upper)

    def parse(self, text: str) -> KeyedScalars | None:
        """Assignments split on commas or newlines, in any key order."""
        found: dict[str, float] = {}
        for part in re.split(r"[,\n]+", text):
            if not part.strip():
                continue
            key, sep, raw = part.partition("=")
            key = key.strip()
            if not sep or key not in self.keys or key in found:
                return None
            value = parse_real(raw)
            if value is None:
                return None
            found[key] = value
        if len(found) != len(self.keys):
            return None
        return KeyedScalars(tuple((k, found[k]) for k in self.keys))

    def sample(self, rng: Generator) -> KeyedScalars:
        bounds = zip(self.keys, self.lower, self.upper)
        return KeyedScalars(tuple((k, float(rng.uniform(lo, hi))) for k, lo, hi in bounds))

    def perturb(self, value: KeyedScalars, rng: Generator, step_scale: float) -> KeyedScalars:
        """Scale each value by a uniform factor in ``1 ± step_scale``."""
        return KeyedScalars(
            tuple((k, v * (1.0 + rng.uniform(-step_scale, step_scale))) for k, v in value.pairs)
        )


SolutionSchema = RealVectorSchema | PermutationSchema | KeyedScalarsSchema


@dataclass(frozen=True)
class RealVector:
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    def render(self) -> str:
        return ", ".join(map(render_float, self.values))

    def to_json(self) -> dict:
        return {"kind": "real_vector", "values": list(self.values)}


@dataclass(frozen=True)
class Permutation:
    order: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", tuple(int(v) for v in self.order))
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError(f"not a permutation of 0..{len(self.order) - 1}: {self.order}")

    def render(self) -> str:
        return ", ".join(map(str, self.order))

    def to_json(self) -> dict:
        return {"kind": "permutation", "order": list(self.order)}


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

    def as_dict(self) -> dict[str, float]:
        return dict(self.pairs)

    def render(self) -> str:
        return ", ".join(f"{k}={render_float(v)}" for k, v in self.pairs)

    def to_json(self) -> dict:
        return {"kind": "keyed_scalars", "pairs": self.as_dict()}


SolutionValue = RealVector | Permutation | KeyedScalars


def render_solution(value: SolutionValue) -> str:
    return value.render()


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
