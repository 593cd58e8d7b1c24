"""Everything between the optimizer loop and raw model text.

Covers prompt construction, proposal parsing, and the pluggable backends that
produce completions: a chat-completions HTTP client, a scripted replayer for
offline tests, and a seeded perturbation heuristic that stands in for a model.
Nothing here caches prompt text: each history or trajectory entry carries its
own rendering (``EvaluatedSolution.text``), made once on first use.
"""

from __future__ import annotations

import math
import os
import re
import threading
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Protocol

import numpy as np
import requests

from .core import (
    EvaluatedSolution,
    History,
    KeyedScalars,
    KeyedScalarsSchema,
    Permutation,
    PermutationSchema,
    ProblemSpec,
    RealVector,
    RealVectorSchema,
    SolutionSchema,
    SolutionValue,
    render_float,
    render_solution,
)


class Strategy(Enum):
    OPRO = "opro"
    HLMEA = "hlmea"
    HLMSA = "hlmsa"


# Scalar tags each strategy asks the model to report.
EXPECTED_TAGS: dict[Strategy, tuple[str, ...]] = {
    Strategy.OPRO: (),
    Strategy.HLMEA: ("elitism_rate", "mutation_rate", "crossover_rate"),
    Strategy.HLMSA: ("cooling_rate",),
}

# Embedded verbatim in every prompt, exactly once.
OUTPUT_CONTRACT = (
    "Return each solution inside <solution> and </solution> tags. "
    "Inside the tags use only the solution encoding described above, "
    "with no extra text."
)


@dataclass(frozen=True)
class PromptBundle:
    system_text: str
    user_text: str


@dataclass(frozen=True)
class SamplingParams:
    model_temperature: float = 1.0
    max_output_tokens: int = 2048
    seed: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.model_temperature <= 2.0:
            raise ValueError("model_temperature must be in [0, 2]")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be >= 1")


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_history_line(entry: EvaluatedSolution) -> str:
    return "solution: " + entry.text


def describe_encoding(schema: SolutionSchema) -> str:
    if isinstance(schema, RealVectorSchema):
        bounds = ", ".join(
            f"[{render_float(lo)}, {render_float(hi)}]"
            for lo, hi in zip(schema.lower, schema.upper)
        )
        return (
            f"Each solution is a comma-separated list of {schema.dim} real numbers. "
            f"Bounds per position: {bounds}."
        )
    if isinstance(schema, PermutationSchema):
        return (
            f"Each solution is a comma-separated ordering of the integers "
            f"0..{schema.n - 1}, each appearing exactly once."
        )
    if isinstance(schema, KeyedScalarsSchema):
        bounds = ", ".join(
            f"{k} in [{render_float(lo)}, {render_float(hi)}]"
            for k, lo, hi in zip(schema.keys, schema.lower, schema.upper)
        )
        return (
            "Each solution is a comma-separated list of key=value assignments, "
            f"exactly one per key. Keys and bounds: {bounds}."
        )
    raise TypeError(f"unknown schema: {schema!r}")


def _tag_request(name: str) -> str:
    return f"report it inside <{name}> and </{name}> tags"


def _strategy_block(
    strategy: Strategy,
    strategy_state: dict[str, float],
    batch: int,
    trajectories: list[EvaluatedSolution] | None,
) -> str:
    if strategy is Strategy.OPRO:
        return f"Propose {batch} new, distinct solutions better than the best shown."
    if strategy is Strategy.HLMEA:
        return (
            "Act as an evolutionary algorithm. Select parent solutions from the "
            "evaluated examples above, combine their strongest features as "
            "crossover, and apply small mutations for exploration. Every proposed "
            "solution must be unique. "
            f"Choose an elitism rate and {_tag_request('elitism_rate')}. "
            f"Choose a mutation rate and {_tag_request('mutation_rate')}. "
            f"Choose a crossover rate and {_tag_request('crossover_rate')}. "
            f"Propose {batch} new offspring solutions."
        )
    if strategy is Strategy.HLMSA:
        if "sa_temperature" not in strategy_state:
            raise ValueError("HLMSA prompts require sa_temperature in strategy_state")
        temperature = float(strategy_state["sa_temperature"])
        lines = [
            f"Act as simulated annealing over {batch} parallel trajectories "
            "sharing one temperature schedule.",
            f"Current annealing temperature: {temperature}.",
        ]
        if trajectories:
            lines.append("Current trajectory states:")
            for i, entry in enumerate(trajectories):
                lines.append(f"trajectory {i}: " + entry.text)
        lines.append(
            "For each trajectory, propose one neighboring solution: a modest "
            "change of that trajectory's current solution. The i-th solution "
            "block is used as the neighbor for trajectory i. Higher temperature "
            "permits bolder changes; lower temperature calls for careful local "
            "refinement. Choose a cooling rate strictly between 0 and 1 and "
            f"{_tag_request('cooling_rate')}."
        )
        return "\n".join(lines)
    raise ValueError(f"unknown strategy: {strategy!r}")


def build_prompt(
    spec: ProblemSpec,
    history: History,
    strategy: Strategy,
    strategy_state: dict[str, float],
    batch: int,
    trajectories: list[EvaluatedSolution] | None = None,
) -> PromptBundle:
    """Compose the full prompt for one optimization step.

    The system message carries the assistant role, the solution encoding, and
    the output-format contract. The user message carries the problem statement,
    optional domain knowledge, the history rendered worst to best, the
    strategy-specific instruction block, and the number of blocks to return.
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")

    system_text = (
        "You are an optimization assistant. Propose candidate solutions for the "
        "problem in the user message, guided by the evaluated examples shown "
        "there.\n"
        f"{describe_encoding(spec.schema)}\n"
        f"{OUTPUT_CONTRACT}"
    )

    blocks = [f"Problem:\n{spec.description}"]
    if spec.domain_knowledge:
        blocks.append(f"Domain knowledge:\n{spec.domain_knowledge}")
    entries = history.entries
    if entries:
        blocks.append(
            "Previously evaluated solutions, ordered from worst to best:\n"
            + "\n".join(map(render_history_line, entries))
        )
    blocks.append(_strategy_block(strategy, strategy_state, batch, trajectories))
    blocks.append(f"Return exactly {batch} solution blocks.")
    return PromptBundle(system_text=system_text, user_text="\n\n".join(blocks))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class ZeroCandidatesError(Exception):
    """Raised when a completion contains no valid solution block."""

    def __init__(self, rejected_blocks: int):
        super().__init__(
            f"no valid solution block found ({rejected_blocks} malformed)"
        )
        self.rejected_blocks = rejected_blocks


@dataclass(frozen=True)
class ParsedProposal:
    candidates: tuple[SolutionValue, ...]
    hyperparams: dict[str, float]
    rejected_blocks: int


_SOLUTION_RE = re.compile(r"<solution>(.*?)</solution>", re.DOTALL)


def _parse_real(token: str) -> float | None:
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _parse_block(text: str, schema: SolutionSchema) -> SolutionValue | None:
    text = text.strip()
    if isinstance(schema, RealVectorSchema):
        tokens = [t.strip() for t in text.split(",")]
        if len(tokens) != schema.dim:
            return None
        values = [_parse_real(t) for t in tokens]
        if any(v is None for v in values):
            return None
        return RealVector(tuple(values))  # type: ignore[arg-type]
    if isinstance(schema, PermutationSchema):
        tokens = [t.strip() for t in text.split(",")]
        if len(tokens) != schema.n:
            return None
        try:
            return Permutation(tuple(tokens))  # type: ignore[arg-type]
        except ValueError:
            return None
    if isinstance(schema, KeyedScalarsSchema):
        parts = [p.strip() for p in re.split(r"[,\n]+", text) if p.strip()]
        found: dict[str, float] = {}
        for part in parts:
            key, sep, raw = part.partition("=")
            key = key.strip()
            if not sep or key not in schema.keys or key in found:
                return None
            value = _parse_real(raw.strip())
            if value is None:
                return None
            found[key] = value
        if set(found) != set(schema.keys):
            return None
        return KeyedScalars(tuple((k, found[k]) for k in schema.keys))
    raise TypeError(f"unknown schema: {schema!r}")


def _parse_tag(raw: str, name: str) -> float | None:
    pattern = re.compile(
        rf"<{re.escape(name)}>(.*?)</{re.escape(name)}>", re.DOTALL
    )
    for match in reversed(pattern.findall(raw)):
        value = _parse_real(match.strip())
        if value is not None:
            return value
    return None


def parse_proposal(
    raw: str,
    schema: SolutionSchema,
    expected_tags: Iterable[str] = (),
) -> ParsedProposal:
    """Extract solution blocks and requested scalar tags from raw model text.

    Malformed blocks are counted and skipped; candidates are never fabricated.
    Out-of-bounds numeric values pass through untouched so the objective's
    penalty can handle them.

    Raises ZeroCandidatesError when no block parses.
    """
    candidates: list[SolutionValue] = []
    rejected = 0
    for match in _SOLUTION_RE.finditer(raw):
        value = _parse_block(match.group(1), schema)
        if value is None:
            rejected += 1
        else:
            candidates.append(value)
    if not candidates:
        raise ZeroCandidatesError(rejected)
    hyperparams: dict[str, float] = {}
    for tag in expected_tags:
        value = _parse_tag(raw, tag)
        if value is not None:
            hyperparams[tag] = value
    return ParsedProposal(tuple(candidates), hyperparams, rejected)


def clamp_tag(value: float | None, lo: float, hi: float, default: float) -> float:
    """Coerce a parsed tag into [lo, hi]; absent or non-finite means default."""
    if not lo < hi:
        raise ValueError("lo must be < hi")
    if not lo <= default <= hi:
        raise ValueError("default must lie within [lo, hi]")
    if value is None or not math.isfinite(value):
        return default
    return min(max(value, lo), hi)


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class ProposerBackend(Protocol):
    def propose(self, bundle: PromptBundle, params: SamplingParams) -> str: ...


class ScriptExhausted(Exception):
    """The scripted backend ran out of canned completions."""


class ScriptedBackend:
    """Replays a fixed queue of completions, one per call."""

    def __init__(self, transcripts: Iterable[str]):
        self._queue: deque[str] = deque(str(t) for t in transcripts)

    def propose(self, bundle: PromptBundle, params: SamplingParams) -> str:
        try:
            return self._queue.popleft()
        except IndexError:
            raise ScriptExhausted("scripted transcript exhausted") from None


class TransportError(Exception):
    """HTTP backend failure: network error, bad status, or malformed body."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class HttpChatBackend:
    """Client for a chat-completions endpoint.

    Sends one request per proposal with the bundle's two messages, plus the
    sampling seed when one is set. The bearer
    token comes from ``api_key`` or the LLMIZE_API_KEY environment variable;
    the endpoint from ``base_url`` or LLMIZE_BASE_URL. At most one
    transport-level retry is attempted.
    """

    def __init__(
        self,
        base_url: str | None = None,
        model: str = "",
        api_key: str | None = None,
        timeout: float = 60.0,
    ):
        resolved = base_url or os.environ.get("LLMIZE_BASE_URL")
        if not resolved:
            raise ValueError("base_url required (or set LLMIZE_BASE_URL)")
        if not model:
            raise ValueError("model name required")
        self.base_url = resolved.rstrip("/")
        self.model = model
        self.api_key = api_key
        self.timeout = timeout

    def propose(self, bundle: PromptBundle, params: SamplingParams) -> str:
        payload = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": bundle.system_text},
                {"role": "user", "content": bundle.user_text},
            ],
            "temperature": params.model_temperature,
            "max_tokens": params.max_output_tokens,
        }
        if params.seed is not None:
            payload["seed"] = params.seed
        headers = {"Content-Type": "application/json"}
        token = self.api_key or os.environ.get("LLMIZE_API_KEY")
        if token:
            headers["Authorization"] = f"Bearer {token}"
        url = f"{self.base_url}/chat/completions"

        last_error: TransportError | None = None
        for _ in range(2):
            try:
                response = requests.post(
                    url, json=payload, headers=headers, timeout=self.timeout
                )
            except requests.RequestException as exc:
                last_error = TransportError(f"request failed: {exc}")
                continue
            if response.status_code == 200:
                try:
                    content = response.json()["choices"][0]["message"]["content"]
                except (ValueError, KeyError, IndexError, TypeError):
                    raise TransportError(
                        "malformed completion response", status=200
                    ) from None
                if not isinstance(content, str):
                    raise TransportError("completion content is not text", status=200)
                return content
            last_error = TransportError(
                f"HTTP {response.status_code} from {url}",
                status=response.status_code,
            )
            # Client errors other than rate limiting will not improve on retry.
            if 400 <= response.status_code < 500 and response.status_code != 429:
                break
        assert last_error is not None
        raise last_error


_HISTORY_LINE_RE = re.compile(r"^solution: (.*) \| score: (.*)$", re.MULTILINE)
_BATCH_RE = re.compile(r"Return exactly (\d+) solution blocks\.")
_TAG_REQUEST_RE = re.compile(r"inside <([^\s<>]+)> and </")
_REAL_BOUNDS_RE = re.compile(r"Bounds per position: (.+?)\.(?:\n|$)")
_PERM_RE = re.compile(r"ordering of the integers\s+0\.\.(\d+)")
_KEYED_BOUNDS_RE = re.compile(r"Keys and bounds: (.+?)\.(?:\n|$)")
_BRACKET_PAIR_RE = re.compile(r"\[([^,\]]+),\s*([^\]]+)\]")
_KEY_BOUND_RE = re.compile(r"(\S+) in \[([^,\]]+),\s*([^\]]+)\]")

_TAG_DEFAULTS = {"cooling_rate": "0.9"}
_GENERIC_TAG_DEFAULT = "0.5"


class PerturbBackend:
    """Deterministic stand-in for a language model.

    Reads the prompt like a model would: it recovers the solution encoding,
    the history lines, the number of requested blocks, and any requested tags
    from the bundle text alone, then emits perturbations of the best history
    entry. Two fresh instances with the same seed produce byte-identical
    completions for the same bundle sequence.
    """

    def __init__(self, seed: int, step_scale: float = 0.1):
        if step_scale <= 0:
            raise ValueError("step_scale must be > 0")
        self.seed = seed
        self.step_scale = step_scale
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()

    def propose(self, bundle: PromptBundle, params: SamplingParams) -> str:
        text = f"{bundle.system_text}\n{bundle.user_text}"
        schema = self._schema_from_prompt(text)
        best = self._best_history_value(bundle.user_text, schema)
        batch_match = _BATCH_RE.search(bundle.user_text)
        batch = int(batch_match.group(1)) if batch_match else 1
        # The output contract itself mentions <solution> tags; that is not a
        # scalar tag request.
        tags = [
            t for t in dict.fromkeys(_TAG_REQUEST_RE.findall(text)) if t != "solution"
        ]

        with self._lock:
            values = [self._perturb(best, schema) for _ in range(batch)]
        lines = [f"<solution>{render_solution(v)}</solution>" for v in values]
        for tag in tags:
            content = _TAG_DEFAULTS.get(tag, _GENERIC_TAG_DEFAULT)
            lines.append(f"<{tag}>{content}</{tag}>")
        return "\n".join(lines)

    @staticmethod
    def _schema_from_prompt(text: str) -> SolutionSchema:
        match = _REAL_BOUNDS_RE.search(text)
        if match:
            pairs = _BRACKET_PAIR_RE.findall(match.group(1))
            if not pairs:
                raise ValueError("no bounds found in prompt encoding")
            lower = tuple(float(lo) for lo, _ in pairs)
            upper = tuple(float(hi) for _, hi in pairs)
            return RealVectorSchema(dim=len(pairs), lower=lower, upper=upper)
        match = _PERM_RE.search(text)
        if match:
            return PermutationSchema(n=int(match.group(1)) + 1)
        match = _KEYED_BOUNDS_RE.search(text)
        if match:
            triples = _KEY_BOUND_RE.findall(match.group(1))
            if not triples:
                raise ValueError("no keyed bounds found in prompt encoding")
            return KeyedScalarsSchema(
                keys=tuple(k for k, _, _ in triples),
                lower=tuple(float(lo) for _, lo, _ in triples),
                upper=tuple(float(hi) for _, _, hi in triples),
            )
        raise ValueError("prompt does not describe a recognizable solution encoding")

    @staticmethod
    def _best_history_value(user_text: str, schema: SolutionSchema) -> SolutionValue:
        matches = _HISTORY_LINE_RE.findall(user_text)
        if not matches:
            raise ValueError("perturb backend needs at least one history line")
        # History is rendered worst to best, so the last line is the best.
        rendered = matches[-1][0]
        value = _parse_block(rendered, schema)
        if value is None:
            raise ValueError(f"unparseable history line: {rendered!r}")
        return value

    def _perturb(self, value: SolutionValue, schema: SolutionSchema) -> SolutionValue:
        if isinstance(value, RealVector) and isinstance(schema, RealVectorSchema):
            spans = [
                self.step_scale * (hi - lo)
                for lo, hi in zip(schema.lower, schema.upper)
            ]
            noise = [self._rng.uniform(-m, m) if m > 0 else 0.0 for m in spans]
            return RealVector(tuple(v + n for v, n in zip(value.values, noise)))
        if isinstance(value, Permutation):
            order = list(value.order)
            swaps = 1 + int(self._rng.integers(2))
            for _ in range(swaps):
                i, j = self._rng.choice(len(order), size=2, replace=False)
                order[i], order[j] = order[j], order[i]
            return Permutation(tuple(order))
        if isinstance(value, KeyedScalars):
            jittered = tuple(
                (k, v * (1.0 + self._rng.uniform(-self.step_scale, self.step_scale)))
                for k, v in value.pairs
            )
            return KeyedScalars(jittered)
        raise TypeError(f"cannot perturb {value!r}")
