"""Stand-in chat-completions server for the ``http-stub`` workload.

Usage: python3 stub_server.py SRC_DIR CPU

Runs pinned to ``CPU``, the one its client (the http-stub workload process)
is pinned to as well.

Serves ``POST .../chat/completions`` on an ephemeral 127.0.0.1 port, one
request at a time, and prints ``PORT <n>`` once it listens. ``GET /stats``
returns its counters as JSON; ``POST /reset`` starts a new run. Neither is
counted.

A reply is llmize's ``PerturbBackend`` applied to the request's two messages,
seeded from a hash of the request body and of how many times the same body
was already sent since the last reset. A model sampling at temperature > 0
answers a repeated prompt differently; a stub seeded from the body alone
would answer it identically, and the loop would stall on one prompt once no
reply improves the history. Replies are therefore deterministic for a given
run. Faults are injected from the same hash:

- every reply has one of its solution blocks replaced by a malformed one;
- about one reply in ``ZERO_EVERY`` has every block malformed (a
  zero-candidate reply), but never two in a row, so the client's single
  retry always gets a usable reply.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
from http.server import BaseHTTPRequestHandler, HTTPServer

ZERO_EVERY = 25
MALFORMED = "<solution>not a solution</solution>"
_BLOCK_RE = re.compile(r"<solution>.*?</solution>", re.DOTALL)


def reply_text(body: bytes, repeat: int, last_was_zero: bool) -> tuple[str, bool]:
    """The completion for the ``repeat``-th resend of ``body``, and whether
    it is a zero-candidate reply."""
    from llmize import PerturbBackend, PromptBundle, SamplingParams

    digest = int.from_bytes(hashlib.sha256(b"%d:%b" % (repeat, body)).digest()[:8], "big")
    messages = json.loads(body)["messages"]
    bundle = PromptBundle(system_text=messages[0]["content"], user_text=messages[1]["content"])
    text = PerturbBackend(seed=digest % 2**32).propose(bundle, SamplingParams())
    blocks = _BLOCK_RE.findall(text)
    zero = digest % ZERO_EVERY == 0 and not last_was_zero
    bad = set(range(len(blocks))) if zero else {(digest >> 32) % len(blocks)}
    pieces = iter(_BLOCK_RE.split(text))
    out = [next(pieces)]
    for i, (block, tail) in enumerate(zip(blocks, pieces)):
        out.append(MALFORMED if i in bad else block)
        out.append(tail)
    return "".join(out), zero


class StubServer(HTTPServer):
    def __init__(self):
        super().__init__(("127.0.0.1", 0), Handler)
        self.stats = {"requests": 0, "connections": 0, "request_bytes": 0}
        self.reset()

    def reset(self) -> None:
        self.seen: dict[bytes, int] = {}
        self.last_was_zero = False


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Drop an idle kept-alive connection rather than block the next client.
    timeout = 5

    def setup(self) -> None:
        super().setup()
        self.counted = False

    def log_message(self, format, *args) -> None:  # noqa: A002
        pass

    def _send(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:
        if self.path == "/stats":
            self._send(200, self.server.stats)
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self) -> None:
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        if self.path == "/reset":
            self.server.reset()
            self._send(200, {})
            return
        stats = self.server.stats
        if not self.counted:
            self.counted = True
            stats["connections"] += 1
        stats["requests"] += 1
        stats["request_bytes"] += len(self.raw_requestline) + len(bytes(self.headers)) + length
        if not self.path.endswith("/chat/completions"):
            self._send(404, {"error": "not found"})
            return
        server = self.server
        key = hashlib.sha256(body).digest()
        repeat = server.seen.get(key, 0)
        server.seen[key] = repeat + 1
        text, server.last_was_zero = reply_text(body, repeat, server.last_was_zero)
        self._send(200, {"choices": [{"message": {"role": "assistant", "content": text}}]})


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[2])})
    sys.path.insert(0, sys.argv[1])
    import llmize  # noqa: F401  (imported before listening, not per request)

    server = StubServer()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
