from __future__ import annotations

import json
import math
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from llmize import EvaluatedSolution, ObjectiveDirection


class _QuietOnHangup(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        # A client that timed out closes its socket before a slow reply is
        # written; that is the case under test, not a server error to print.
        if isinstance(sys.exc_info()[1], ConnectionError):
            return
        super().handle_error(request, client_address)


class StubChatServer:
    """Local chat-completions stub that records every request.

    ``responder`` maps the request count (1-based) to (status, body) or
    (status, body, extra_headers), where body is a dict sent as JSON or bytes
    sent as they are.
    """

    def __init__(self, responder):
        self.requests = []
        self.responder = responder
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", "0"))
                raw = self.rfile.read(length)
                outer.requests.append(
                    {
                        "method": self.command,
                        "path": self.path,
                        "headers": {k: v for k, v in self.headers.items()},
                        "body": json.loads(raw) if raw else None,
                        "raw": raw,
                    }
                )
                status, payload, *extra = outer.responder(len(outer.requests))
                data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                for name, value in (extra[0] if extra else {}).items():
                    self.send_header(name, value)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            # Recorded too, so a test sees a request that a redirect turned into a GET.
            do_GET = do_POST

            def log_message(self, *args):
                pass

        self._server = _QuietOnHangup(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self._server.server_address[1]}"
        # A short poll lets close() return without waiting out the 0.5 s default.
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
        )
        self._thread.start()

    def close(self):
        self._server.shutdown()
        self._server.server_close()


@pytest.fixture
def stub_chat_server():
    servers = []

    def start(responder):
        server = StubChatServer(responder)
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.close()


def chat_body(content: str) -> dict:
    return {"choices": [{"message": {"role": "assistant", "content": content}}]}


def brute_force_topk(entries, capacity, direction):
    """Independent oracle for History: global top-K over unique payloads,
    ties to the earlier insertion, returned worst to best."""
    indexed = list(enumerate(entries))
    if direction is ObjectiveDirection.MINIMIZE:
        indexed.sort(key=lambda p: (p[1].score, p[0]))
    else:
        indexed.sort(key=lambda p: (-p[1].score, p[0]))
    kept = indexed[:capacity]
    return [entry for _, entry in reversed(kept)]


def ev(solution, score) -> EvaluatedSolution:
    return EvaluatedSolution(solution=solution, score=score)


class SortedHistory:
    """Reference for ``History``: the original insert, which re-sorts every
    entry and scans payloads linearly on each call."""

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


# The per-direction score comparisons that ``ObjectiveDirection.goodness``
# replaced, kept as the reference for tests/test_direction.py.


def ref_is_better(a: float, b: float, direction: ObjectiveDirection) -> bool:
    """The original ``is_better``: ``a`` strictly beats ``b``."""
    if a == b:
        return False
    if direction is ObjectiveDirection.MINIMIZE:
        return a < b
    return a > b


def ref_gain(prev: float, current: float, direction: ObjectiveDirection) -> float:
    """The original ``control._gain``: improvement from ``prev`` to ``current``."""
    if direction is ObjectiveDirection.MINIMIZE:
        return prev - current
    return current - prev


def ref_worsening(current: float, candidate: float, direction: ObjectiveDirection) -> float:
    """The original Metropolis ``delta`` of ``accept_candidate``."""
    if direction is ObjectiveDirection.MINIMIZE:
        return candidate - current
    return current - candidate


def ref_accept_candidate(current, candidate, sa_temperature, direction, rng) -> bool:
    delta = ref_worsening(current, candidate, direction)
    if delta <= 0:
        return True
    return rng.random() < math.exp(-delta / sa_temperature)


def ref_target_reached(best: float, target: float, direction: ObjectiveDirection) -> bool:
    if direction is ObjectiveDirection.MINIMIZE:
        return best <= target
    return best >= target


def ref_best_of_step(scores: list[float], direction: ObjectiveDirection) -> float:
    if direction is ObjectiveDirection.MINIMIZE:
        return min(scores)
    return max(scores)
