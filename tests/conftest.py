from __future__ import annotations

import itertools
import json
import math
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import llmize
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
            # The reply goes out in two sends, head and body; with Nagle's
            # algorithm on, a client that acks late would wait on the second.
            disable_nagle_algorithm = True

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

            # Recorded too, so a test sees a request that a redirect turned into a GET,
            # and the tunnel an https request asks a proxy for.
            do_GET = do_CONNECT = do_POST

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


class RawHttpListener:
    """Loopback listener that answers every connection with the same raw
    ``reply`` bytes, so a test can send replies no HTTP server would write.

    It reads a request's head and its ``Content-Length`` body first, and
    records each request's bytes in ``requests``. A connection that does not
    open with an upper-case letter (a TLS handshake, say) gets the reply
    after its first read. With ``trickle`` seconds, the reply's head goes at
    once and its body one byte per ``trickle`` seconds. With ``endless``
    bytes, they follow the reply over and over until the client hangs up."""

    def __init__(self, reply: bytes, trickle: float = 0.0, endless: bytes = b""):
        self.reply = reply
        self.trickle = trickle
        self.endless = endless
        self.requests: list[bytes] = []
        self._sock = socket.create_server(("127.0.0.1", 0))
        # A short accept timeout lets close() stop the loop without waiting.
        self._sock.settimeout(0.02)
        self.address = self._sock.getsockname()
        self.url = "http://%s:%d" % self.address
        self._closed = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._closed.is_set():
            try:
                conn, _ = self._sock.accept()
            except TimeoutError:
                continue
            with conn:
                conn.settimeout(5)
                try:
                    self.requests.append(self._read_request(conn))
                    self._send(conn)
                except OSError:
                    pass

    def _send(self, conn):
        if not self.trickle:
            conn.sendall(self.reply)
            while self.endless and not self._closed.is_set():
                conn.sendall(self.endless)
            return
        head, blank, body = self.reply.partition(b"\r\n\r\n")
        conn.sendall(head + blank)
        for i in range(len(body)):
            if self._closed.wait(self.trickle):
                return
            conn.sendall(body[i : i + 1])

    @staticmethod
    def _read_request(conn) -> bytes:
        data = conn.recv(65536)
        if not data[:1].isupper():
            return data
        while b"\r\n\r\n" not in data and (chunk := conn.recv(65536)):
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        length = re.search(rb"\r\ncontent-length: *(\d+)", head, re.IGNORECASE)
        need = int(length.group(1)) if length else 0
        while len(body) < need and (chunk := conn.recv(65536)):
            body += chunk
        return head + b"\r\n\r\n" + body

    def close(self):
        self._closed.set()
        self._thread.join(timeout=5)
        self._sock.close()


@pytest.fixture
def raw_http_listener():
    listeners = []

    def start(reply: bytes, trickle: float = 0.0, endless: bytes = b""):
        listener = RawHttpListener(reply, trickle, endless)
        listeners.append(listener)
        return listener

    yield start
    for listener in listeners:
        listener.close()


def fresh_python(code: str) -> str:
    """Stdout of ``code`` run by a new interpreter that imports this llmize, so
    the modules it finds loaded are the ones ``code`` itself loaded."""
    src = str(Path(llmize.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    ).stdout


def live_processes(marker: str) -> list[int]:
    """Pids of the live processes that have ``marker`` as one of their
    arguments, read from ``/proc/*/cmdline``. A process that exited, reaped or
    not, has no arguments left to match."""
    pids = []
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            args = cmdline.read_bytes().split(b"\0")
        except OSError:  # it exited while being read
            continue
        if marker.encode() in args:
            pids.append(int(cmdline.parent.name))
    return pids


class TimeBoundExceeded(BaseException):
    """Raised into code still running when its time bound expires. It is no
    ``Exception``, so the code under test cannot catch it as its own error."""


@contextmanager
def time_bound(seconds: float):
    """Run the block for at most ``seconds`` of wall time, then raise
    ``TimeBoundExceeded`` into it, so a hang fails the test instead of
    stalling the run. Uses SIGALRM, so it works on the main thread only."""

    def expire(signum, frame):
        raise TimeBoundExceeded(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


_markers = itertools.count()


@pytest.fixture
def process_marker():
    """An argument unique to this test in this session, for the processes the
    test starts to carry. At teardown none of them may still be running: one
    that is gets killed and fails the test. Each is given a second to end,
    because an aborted multi-worker batch returns while the evaluations
    already running finish on their own, bounded by their timeout."""
    if not Path("/proc/self/cmdline").exists():
        pytest.skip("needs /proc to list processes")
    marker = f"llmize-test-{os.getpid()}-{next(_markers)}"
    yield marker
    deadline = time.monotonic() + 1.0
    while (left := live_processes(marker)) and time.monotonic() < deadline:
        time.sleep(0.02)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    assert not left, f"processes outlived their test: {left}"


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
