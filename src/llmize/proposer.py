"""Everything between the optimizer loop and raw model text.

Covers prompt construction, proposal parsing, and the pluggable backends that
produce completions: a chat-completions HTTP client, a scripted replayer for
offline tests, and a seeded perturbation heuristic that stands in for a model.
Nothing here caches prompt text: each history or trajectory entry carries its
own rendering (``EvaluatedSolution.text``), made once on first use. Nothing
here knows a solution kind either: each kind's encoding (describe, parse,
render, sample, perturb) lives on its schema and value classes in ``core``.

The ``<name>...</name>`` contract is owned here: ``tag_request`` is how a
prompt asks for each part of an answer, and ``_spans`` reads it back.
"""

from __future__ import annotations

import json
import math
import re
import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable, Protocol, get_args

from .core import (
    EvaluatedSolution,
    History,
    ProblemSpec,
    SolutionSchema,
    SolutionValue,
    parse_real,
)
from .rng import Rng


def tag_request(name: str) -> str:
    """How a prompt asks for a part of the answer: in a ``<name>`` span."""
    return f"inside <{name}> and </{name}> tags"


# Embedded verbatim in every prompt, exactly once.
OUTPUT_CONTRACT = (
    f"Return each solution {tag_request('solution')}. "
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


def build_prompt(
    spec: ProblemSpec,
    history: History,
    strategy: Any,
    batch: int,
    state: Any = None,
) -> PromptBundle:
    """Compose the full prompt for one optimization step.

    The system message carries the assistant role, the solution encoding, and
    the output-format contract. The user message carries the problem statement,
    optional domain knowledge, the history rendered worst to best, the block
    that ``strategy`` (an ``llmize.Strategy``) writes from ``batch`` and its
    run ``state``, and the number of blocks to return. HLMSA requires
    ``state``, whose temperature and trajectory points it shows.
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")

    system_text = (
        "You are an optimization assistant. Propose candidate solutions for the "
        "problem in the user message, guided by the evaluated examples shown "
        "there.\n"
        f"{spec.schema.describe()}\n"
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
    blocks.append(strategy.prompt_block(batch, state))
    blocks.append(f"Return exactly {batch} solution blocks.")
    return PromptBundle(system_text=system_text, user_text="\n\n".join(blocks))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class ZeroCandidatesError(Exception):
    """Raised when a completion contains no valid solution block."""

    def __init__(self, rejected_blocks: int):
        super().__init__(f"no valid solution block found ({rejected_blocks} malformed)")
        self.rejected_blocks = rejected_blocks


@dataclass(frozen=True)
class ParsedProposal:
    candidates: tuple[SolutionValue, ...]
    hyperparams: dict[str, float]
    rejected_blocks: int


def _spans(raw: str, name: str) -> list[str]:
    """Each ``<name>`` span's text, in order; it ends at the first close tag."""
    open_tag, close_tag = f"<{name}>", f"</{name}>"
    spans = []
    start = raw.find(open_tag)
    while start >= 0:
        start += len(open_tag)
        end = raw.find(close_tag, start)
        if end < 0:
            break
        spans.append(raw[start:end])
        start = raw.find(open_tag, end + len(close_tag))
    return spans


def parse_proposal(
    raw: str,
    schema: SolutionSchema,
    expected_tags: Iterable[str] = (),
) -> ParsedProposal:
    """Extract solution blocks and requested scalar tags from raw model text.

    Blocks are read in order; malformed ones are counted and skipped, never
    fabricated. A scalar tag takes its last parseable value. Out-of-bounds
    values pass through untouched so the objective's penalty can handle them.

    Raises ZeroCandidatesError when no block parses.
    """
    candidates: list[SolutionValue] = []
    rejected = 0
    for block in _spans(raw, "solution"):
        value = schema.parse(block)
        if value is None:
            rejected += 1
        else:
            candidates.append(value)
    if not candidates:
        raise ZeroCandidatesError(rejected)
    hyperparams: dict[str, float] = {}
    for tag in expected_tags:
        values = [v for v in map(parse_real, _spans(raw, tag)) if v is not None]
        if values:
            hyperparams[tag] = values[-1]
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

    Posts the bundle's two messages, plus the sampling seed when one is set.

    ``llmize.transport.Endpoint`` checks ``base_url``, ``api_key`` and
    ``timeout``, picks the route (proxies included), and makes each request's
    attempts. Construction loads it with ``socket``, and ``ssl`` only for an
    ``https`` endpoint; ``import llmize`` loads none of them.
    """

    def __init__(
        self,
        base_url: str | None = None,
        *,
        model: str,
        api_key: str | None = None,
        timeout: float = 60.0,
    ):
        from .transport import Endpoint  # loaded here, not by ``import llmize``

        self._endpoint = Endpoint(base_url, api_key, timeout)
        if not model:
            raise ValueError("model must be a non-empty name")
        self.model = model

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
        data = json.dumps(payload).encode()
        try:
            status, body = self._endpoint.post(data)
        except (OSError, ValueError) as exc:
            raise TransportError(f"request failed: {exc}") from None
        if status != 200:
            raise TransportError(f"HTTP {status} from {self._endpoint.url}", status=status)
        try:
            content = json.loads(body)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            raise TransportError("malformed completion response", status=200) from None
        if not isinstance(content, str):
            raise TransportError("completion content is not text", status=200)
        return content


_HISTORY_LINE_RE = re.compile(r"^solution: (.*) \| score: (.*)$", re.MULTILINE)
_BATCH_RE = re.compile(r"Return exactly (\d+) solution blocks\.")
# Finds each tag_request in a prompt and captures its name.
_TAG_REQUEST_RE = re.compile(
    re.escape(tag_request("\0")).replace("\0", r"([^\s<>]+)", 1).replace("\0", r"\1")
)

_TAG_DEFAULTS = {"cooling_rate": "0.9"}
_GENERIC_TAG_DEFAULT = "0.5"


class PerturbBackend:
    """Deterministic stand-in for a language model.

    Reads the prompt like a model would: the solution encoding from the system
    message; the history lines, the number of blocks and the requested tags
    from the user message. It emits perturbations of the best history entry.
    Two fresh instances with the same seed produce byte-identical completions
    for the same bundle sequence.
    """

    def __init__(self, seed: int, step_scale: float = 0.1):
        if not 0 < step_scale < math.inf:
            raise ValueError("step_scale must be finite and > 0")
        self.step_scale = step_scale
        self._rng = Rng(seed)
        self._lock = threading.Lock()

    def propose(self, bundle: PromptBundle, params: SamplingParams) -> str:
        schema = self._schema_from_prompt(bundle.system_text)
        best = self._best_history_value(bundle.user_text, schema)
        batch_match = _BATCH_RE.search(bundle.user_text)
        batch = int(batch_match.group(1)) if batch_match else 1
        tags = dict.fromkeys(_TAG_REQUEST_RE.findall(bundle.user_text))

        with self._lock:
            values = [schema.perturb(best, self._rng, self.step_scale) for _ in range(batch)]
        spans = [("solution", v.render()) for v in values]
        spans += [(tag, _TAG_DEFAULTS.get(tag, _GENERIC_TAG_DEFAULT)) for tag in tags]
        return "\n".join(f"<{name}>{text}</{name}>" for name, text in spans)

    @staticmethod
    def _schema_from_prompt(text: str) -> SolutionSchema:
        # Each kind in the SolutionSchema union reads its own description back.
        for kind in get_args(SolutionSchema):
            schema = kind.from_description(text)
            if schema is not None:
                return schema
        raise ValueError("prompt does not describe a recognizable solution encoding")

    @staticmethod
    def _best_history_value(user_text: str, schema: SolutionSchema) -> SolutionValue:
        matches = _HISTORY_LINE_RE.findall(user_text)
        if not matches:
            raise ValueError("perturb backend needs at least one history line")
        # History is rendered worst to best, so the last line is the best.
        rendered = matches[-1][0]
        value = schema.parse(rendered)
        if value is None:
            raise ValueError(f"unparseable history line: {rendered!r}")
        return value
