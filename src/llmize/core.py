"""Shared domain types: problems, solutions, scores, history, and run results.

Everything here is a plain value. Mutation is limited to ``History``, which is
only ever touched from the single loop that owns a run, to the memoized
``EvaluatedSolution.text``, which renders an entry's prompt text on first use,
and to the city texts that ``Permutation.render`` looks up.
``ObjectiveDirection.goodness`` is the one place that decides which score is
better.

Candidates exist only as model-written text, so each solution kind's text
encoding is the contract between prompt and parser, and it lives here. A
schema describes its kind for the prompt (``describe``, read back by
``from_description``), parses a solution block (``parse``), and draws values
(``sample``, ``perturb``); a value renders itself (``render``, ``to_json``).
Each schema's one constructor takes exactly what its config block holds
(``RealVectorSchema(lower, upper)``, ``PermutationSchema(n)``,
``KeyedScalarsSchema(bounds)``), and each of its errors opens with the
parameter at fault, so that a config error names the key.

A schema validates a value once, where it enters. The public constructors
check their arguments; the permutations that ``parse``, ``sample`` and
``perturb`` build are valid by construction and are not checked again (real
vectors and keyed scalars keep their constructors' few ``float()`` calls).
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

from .rng import Rng


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
    for i, (lo, hi) in enumerate(zip(lower, upper)):
        for side, bound in (("lower", lo), ("upper", hi)):
            if not math.isfinite(bound):
                raise ValueError(f"{side} must be finite at position {i} ({bound})")
        if lo > hi:
            raise ValueError(f"lower must be <= upper at position {i} ({lo} > {hi})")


def _render_bounds(lo: float, hi: float) -> str:
    return f"[{render_float(lo)}, {render_float(hi)}]"


# Readers of the bound lists that ``describe`` writes.
_REAL_BOUNDS_RE = re.compile(r"Bounds per position: (.+?)\.(?:\n|$)")
_BRACKET_PAIR_RE = re.compile(r"\[([^,\]]+),\s*([^\]]+)\]")
_KEYED_BOUNDS_RE = re.compile(r"Keys and bounds: (.+?)\.(?:\n|$)")
_KEY_BOUND_RE = re.compile(r"([^\s,]+(?: [^\s,]+)*?) in \[([^,\]]+),\s*([^\]]+)\]")
# The keys the encoding carries: words of non-space characters other than
# ",", "=", "<" and ">", joined by single spaces. A "<" or ">" could open or
# close a solution tag inside the block that carries the key.
_KEY_RE = re.compile(r"[^\s,=<>]+(?: [^\s,=<>]+)*")


@dataclass(frozen=True)
class RealVectorSchema:
    """Fixed-length vector of reals with per-dimension bounds.

    Bounds describe the intended search box; parsed candidates are allowed to
    fall outside it (objectives penalize infeasibility).
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", tuple(float(v) for v in self.lower))
        object.__setattr__(self, "upper", tuple(float(v) for v in self.upper))
        if not self.lower:
            raise ValueError("lower must not be empty")
        if len(self.upper) != len(self.lower):
            raise ValueError(f"upper must have {len(self.lower)} bounds, one per lower bound")
        _check_bounds(self.lower, self.upper)

    @property
    def dim(self) -> int:
        return len(self.lower)

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
        return cls(lower, upper)

    def parse(self, text: str) -> RealVector | None:
        tokens = text.split(",")
        if len(tokens) != self.dim:
            return None
        values = [parse_real(t) for t in tokens]
        if None in values:
            return None
        return RealVector(tuple(values))  # type: ignore[arg-type]

    def sample(self, rng: Rng) -> RealVector:
        bounds = zip(self.lower, self.upper)
        return RealVector(tuple(float(rng.uniform(lo, hi)) for lo, hi in bounds))

    def perturb(self, value: RealVector, rng: Rng, step_scale: float) -> RealVector:
        """Add uniform noise of at most ``step_scale`` times each bound span."""
        spans = [step_scale * (hi - lo) for lo, hi in zip(self.lower, self.upper)]
        noise = [rng.uniform(-m, m) if m > 0 else 0.0 for m in spans]
        return RealVector(tuple(v + n for v, n in zip(value.values, noise)))


# The largest permutation size. On a 2-vCPU Xeon VM, drawing one tsp instance
# took 0.5 s at 10**5 cities and 1.6 s at 3 * 10**5.
MAX_PERMUTATION_N = 100_000
# The decimal texts of 0..k-1 that ``Permutation.render`` joins, at most
# MAX_PERMUTATION_N of them (about 6 MB). A longer table replaces a short one
# whole, so a thread rendering alongside never sees one half built.
_CITY_TEXTS: tuple[str, ...] = ()


@dataclass(frozen=True)
class PermutationSchema:
    """An ordering of the integers 0..n-1, for n up to ``MAX_PERMUTATION_N``."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.n > MAX_PERMUTATION_N:
            raise ValueError(f"n must be <= {MAX_PERMUTATION_N}")

    @property
    def dim(self) -> int:
        return self.n

    @cached_property
    def _cities(self) -> frozenset[int]:
        return frozenset(range(self.n))

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
        """Tokens are read as ``int()`` reads them; the one check is that
        they name each city once."""
        tokens = text.split(",")
        if len(tokens) != self.n:
            return None
        try:
            order = tuple(map(int, tokens))
        except ValueError:
            return None
        if set(order) != self._cities:
            return None
        return Permutation._trusted(order)

    def sample(self, rng: Rng) -> Permutation:
        return Permutation._trusted(tuple(map(int, rng.permutation(self.n))))

    def perturb(self, value: Permutation, rng: Rng, step_scale: float) -> Permutation:
        """Swap one or two random pairs; ``step_scale`` does not apply."""
        order = list(value.order)
        for _ in range(1 + int(rng.integers(2))):
            i, j = rng.choice(len(order), size=2, replace=False)
            order[i], order[j] = order[j], order[i]
        return Permutation._trusted(tuple(order))


@dataclass(frozen=True)
class KeyedScalarsSchema:
    """Named scalars: ``bounds`` maps each key to its finite ``(lower, upper)``
    pair, in the key order that values and the prompt follow. Each error opens
    with ``bounds``, so a config error can name the key that holds the mapping.
    """

    bounds: Mapping[str, tuple[float, float]]

    def __post_init__(self) -> None:
        if not self.bounds:
            raise ValueError("bounds keys must not be empty")
        bounds = {}
        for k, (lo, hi) in self.bounds.items():
            # ``parse`` splits on commas, newlines and "=" and strips the ends
            # of a key; ``from_description`` reads a key up to " in [".
            if not _KEY_RE.fullmatch(k) or " in [" in k:
                raise ValueError(
                    f"bounds key {k!r} must be words joined by single spaces, "
                    "without ',', '=', '<', '>' or ' in ['"
                )
            lo, hi = bounds[k] = float(lo), float(hi)
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ValueError(
                    f"bounds key {k!r} must have finite bounds with lower <= upper, "
                    f"got [{lo}, {hi}]"
                )
        object.__setattr__(self, "bounds", MappingProxyType(bounds))

    # Key order is part of the schema, though a mapping's == ignores it.
    def __eq__(self, other: object) -> bool:
        items = list(self.bounds.items())
        return type(other) is KeyedScalarsSchema and items == list(other.bounds.items())

    def __hash__(self) -> int:
        return hash(tuple(self.bounds.items()))

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def describe(self) -> str:
        bounds = ", ".join(f"{k} in {_render_bounds(*b)}" for k, b in self.bounds.items())
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
        return cls({k: (lo, hi) for k, lo, hi in triples})

    def parse(self, text: str) -> KeyedScalars | None:
        """Assignments split on commas or newlines, in any key order."""
        found: dict[str, float] = {}
        for part in re.split(r"[,\n]+", text):
            if not part.strip():
                continue
            key, sep, raw = part.partition("=")
            key = key.strip()
            if not sep or key not in self.bounds or key in found:
                return None
            value = parse_real(raw)
            if value is None:
                return None
            found[key] = value
        if len(found) != len(self.bounds):
            return None
        return KeyedScalars(tuple((k, found[k]) for k in self.bounds))

    def sample(self, rng: Rng) -> KeyedScalars:
        bounds = self.bounds.items()
        return KeyedScalars(tuple((k, float(rng.uniform(lo, hi))) for k, (lo, hi) in bounds))

    def perturb(self, value: KeyedScalars, rng: Rng, step_scale: float) -> KeyedScalars:
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
        if len(self.order) > MAX_PERMUTATION_N:
            raise ValueError(f"a permutation has at most {MAX_PERMUTATION_N} cities")
        n = len(self.order)
        if sorted(self.order) != list(range(n)):
            # n entries that are not 0..n-1 leave one out; the order stays out of the message.
            missing = min(set(range(n)).difference(self.order))
            raise ValueError(f"not a permutation of 0..{n - 1}: city {missing} is missing")

    @classmethod
    def _trusted(cls, order: tuple[int, ...]) -> Permutation:
        """A value from ``order`` unchecked: only ``PermutationSchema``, which
        has already checked it, calls this."""
        value = object.__new__(cls)
        object.__setattr__(value, "order", order)
        return value

    def render(self) -> str:
        # ", ".join(map(str, order)), each city's text looked up, not formatted.
        global _CITY_TEXTS
        texts = _CITY_TEXTS
        if len(texts) < len(self.order):
            texts = _CITY_TEXTS = tuple(map(str, range(len(self.order))))
        return ", ".join([texts[c] for c in self.order])

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
    """A problem statement in plain language plus the machine-readable schema:
    what the prompt renders.

    ``description`` is shown to the proposal model verbatim; ``domain_knowledge``
    is an optional free-text block for constraints, heuristics, and rules the
    model should respect. The direction belongs to the ``Objective``.
    """

    description: str
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
    search plus an O(K) list shift, and one hash of its payload unless the
    payload is present.
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
        # Worst-to-best: later insertions lose score ties, so they sort
        # closer to the worst end.
        key = (self.direction.goodness(entry.score), -self._next_seq)
        self._next_seq += 1
        old = self._key_of.setdefault(entry.solution, key)
        if old is not key:
            i = bisect_left(self._keys, old)
            del self._keys[i]
            del self._entries[i]
            self._key_of[entry.solution] = key
        i = bisect_left(self._keys, key)
        self._keys.insert(i, key)
        self._entries.insert(i, entry)

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
