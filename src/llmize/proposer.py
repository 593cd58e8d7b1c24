"""Everything between the optimizer loop and raw model text.

Covers prompt construction, proposal parsing, and the pluggable backends that
produce completions: a chat-completions HTTP client, a scripted replayer for
offline tests, and a seeded perturbation heuristic that stands in for a model.
Nothing here caches prompt text: each history or trajectory entry carries its
own rendering (``EvaluatedSolution.text``), made once on first use. Nothing
here knows a solution kind either: each kind's encoding (describe, parse,
render, sample, perturb) lives on its schema and value classes in ``core``.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import re
import threading
import urllib.error
import urllib.parse
import urllib.request
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Protocol, get_args

import numpy as np

from .core import (
    EvaluatedSolution,
    History,
    ProblemSpec,
    SolutionSchema,
    SolutionValue,
    parse_real,
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
    blocks.append(_strategy_block(strategy, strategy_state, batch, trajectories))
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


_SOLUTION_RE = re.compile(r"<solution>(.*?)</solution>", re.DOTALL)


def _parse_tag(raw: str, name: str) -> float | None:
    pattern = re.compile(rf"<{re.escape(name)}>(.*?)</{re.escape(name)}>", re.DOTALL)
    for match in reversed(pattern.findall(raw)):
        value = parse_real(match)
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
        value = schema.parse(match.group(1))
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


class _RefuseRedirect(urllib.request.HTTPRedirectHandler):
    # urllib would resend the bearer token to whatever host a redirect names.
    def redirect_request(self, req, fp, code, msg, headers, newurl):
        return None


class HttpChatBackend:
    """Client for a chat-completions endpoint.

    Sends one request per proposal with the bundle's two messages, plus the
    sampling seed when one is set. The bearer token comes from ``api_key`` or
    the LLMIZE_API_KEY environment variable; the http(s) endpoint from
    ``base_url`` or LLMIZE_BASE_URL. At most one transport retry is made; a
    redirect is a failed attempt, never followed. Proxies come from ``*_proxy``
    variables read at construction; HTTPS uses the system trust store.
    """

    def __init__(
        self,
        base_url: str | None = None,
        model: str = "",
        api_key: str | None = None,
        timeout: float = 60.0,
    ):
        resolved = base_url or os.environ.get("LLMIZE_BASE_URL")
        parts = urllib.parse.urlsplit(resolved or "")
        if parts.scheme not in ("http", "https") or not parts.netloc:
            raise ValueError(f"base_url (or LLMIZE_BASE_URL) must be an http(s) URL: {resolved!r}")
        if not model:
            raise ValueError("model name required")
        self.base_url = resolved.rstrip("/")
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        self._opener = urllib.request.build_opener(_RefuseRedirect)

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
        headers = {"Content-Type": "application/json", "User-Agent": "llmize"}
        token = self.api_key or os.environ.get("LLMIZE_API_KEY")
        if token:
            headers["Authorization"] = f"Bearer {token}"
        url = f"{self.base_url}/chat/completions"
        data = json.dumps(payload).encode()
        last_error: TransportError | None = None
        for _ in range(2):
            # A fresh Request per attempt: proxy handling rewrites it in place.
            request = urllib.request.Request(url, data, headers)
            try:
                with self._opener.open(request, timeout=self.timeout) as response:
                    status, body = response.status, response.read()
            except urllib.error.HTTPError as exc:
                status, body = exc.code, b""
                exc.close()
            except (OSError, http.client.HTTPException) as exc:
                last_error = TransportError(f"request failed: {exc}")
                continue
            if status == 200:
                try:
                    content = json.loads(body)["choices"][0]["message"]["content"]
                except (ValueError, KeyError, IndexError, TypeError):
                    raise TransportError("malformed completion response", status=200) from None
                if not isinstance(content, str):
                    raise TransportError("completion content is not text", status=200)
                return content
            last_error = TransportError(f"HTTP {status} from {url}", status=status)
            # Client errors other than rate limiting will not improve on retry.
            if 400 <= status < 500 and status != 429:
                break
        assert last_error is not None
        raise last_error


_HISTORY_LINE_RE = re.compile(r"^solution: (.*) \| score: (.*)$", re.MULTILINE)
_BATCH_RE = re.compile(r"Return exactly (\d+) solution blocks\.")
_TAG_REQUEST_RE = re.compile(r"inside <([^\s<>]+)> and </")

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
            values = [schema.perturb(best, self._rng, self.step_scale) for _ in range(batch)]
        lines = [f"<solution>{v.render()}</solution>" for v in values]
        for tag in tags:
            content = _TAG_DEFAULTS.get(tag, _GENERIC_TAG_DEFAULT)
            lines.append(f"<{tag}>{content}</{tag}>")
        return "\n".join(lines)

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
