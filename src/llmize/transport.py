"""The chat-completions request of ``HttpChatBackend``: HTTP/1.1 POST on a
plain socket.

Only this module reads ``LLMIZE_BASE_URL`` and ``LLMIZE_API_KEY``, parses the
URL and writes the request head, once, when an ``Endpoint`` is built. Each
request opens one connection, sends its head and body in one write with
``Connection: close``, and reads the reply to its end: by ``Content-Length``,
by chunks, or to EOF. Only a 200 reply's body is read. ``ssl`` loads only for
an ``https`` endpoint. Proxies come from the environment by urllib's rules.

``proposer`` imports this module when it builds a backend, so ``import
llmize`` loads neither it nor ``socket``.
"""

from __future__ import annotations

import io
import math
import os
import re
import socket
import time
import urllib.parse

# http.client's limits on a reply: bytes in one line, and lines in its head,
# the empty line that ends the head included.
_MAX_LINE = 65536
_MAX_HEAD_LINES = 100
# The most bytes a 200 reply's body may hold: a completion is a few hundred
# kB at most, so a longer body is a broken or hostile server, refused before
# it fills the memory.
_MAX_BODY = 32 << 20


class Endpoint:
    """The chat-completions URL under an http(s) ``base_url`` (one with no
    query, fragment, credentials or spaces), the route there, and the head of
    each request, ``api_key`` (one line) its bearer token, all settled at
    construction. ``LLMIZE_BASE_URL`` and ``LLMIZE_API_KEY`` stand in for an
    empty ``base_url`` and ``api_key``; both must be Latin-1, the head's
    encoding. ``timeout`` seconds bound a request.

    The route goes to the host, or through the proxy the ``*_proxy`` variables
    name for it, over plain TCP: an ``http`` request whole with an absolute
    URI, an ``https`` one through a ``CONNECT`` tunnel, with the proxy URL's
    credentials as Basic proxy authorization. An ``https`` certificate is
    verified against the system trust store and the host name.
    """

    def __init__(self, base_url: str | None, api_key: str | None, timeout: float):
        url_from = "" if base_url else " from LLMIZE_BASE_URL"
        base_url = base_url or os.environ.get("LLMIZE_BASE_URL") or ""
        parts = urllib.parse.urlsplit(base_url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(
                f"base_url must be an http(s) URL (or set LLMIZE_BASE_URL): {base_url!r}"
            )
        if re.search(r"[?#\x00-\x20\x7f]", base_url) or "@" in parts.netloc:
            raise ValueError(
                f"base_url must not carry a query, a fragment, credentials or spaces: {base_url!r}"
            )
        if max(base_url) > "\xff":
            raise ValueError(f"base_url{url_from} must be Latin-1 text: {base_url!r}")
        port = _port(parts, f"base_url must have a port from 0 to 65535: {base_url!r}")
        key_from = "" if api_key else " from LLMIZE_API_KEY"
        token = api_key or os.environ.get("LLMIZE_API_KEY")
        if token and ("\r" in token or "\n" in token):
            raise ValueError(f"api_key{key_from} must be one line")
        if token and max(token) > "\xff":
            raise ValueError(f"api_key{key_from} must be Latin-1 text")
        if not 0 < timeout < math.inf:
            raise ValueError("timeout must be a finite number of seconds > 0")
        self.url = base_url.rstrip("/") + "/chat/completions"
        self._timeout = timeout
        self._hostname = parts.hostname
        self._address = (parts.hostname, port)
        self._tunnel = b""
        target = parts.path.rstrip("/") + "/chat/completions"
        auth = f"Authorization: Bearer {token}\r\n" if token else ""
        proxies = _env_proxies()
        proxy = proxies.get(parts.scheme)
        if proxy and not _bypasses_proxy(parts.netloc, proxies.get("no", "")):
            via = urllib.parse.urlsplit(proxy if "://" in proxy else "//" + proxy)
            where = f"the {parts.scheme}_proxy variable must be a proxy URL: {proxy!r}"
            if not via.hostname:
                raise ValueError(where)
            self._address = (via.hostname, _port(via, where))
            proxy_auth = ""
            if via.username and via.password:
                import base64

                unquote = urllib.parse.unquote
                user = f"{unquote(via.username)}:{unquote(via.password)}".encode()
                proxy_auth = f"Proxy-Authorization: Basic {base64.b64encode(user).decode()}\r\n"
            if parts.scheme == "http":
                target = self.url
                auth += proxy_auth
            else:
                host = f"[{parts.hostname}]" if ":" in parts.hostname else parts.hostname
                self._tunnel = f"CONNECT {host}:{port} HTTP/1.0\r\n{proxy_auth}\r\n".encode()
        # The head, split at the NUL (which the URL cannot hold) where the body's length goes.
        self._head, _, self._tail = (
            f"POST {target} HTTP/1.1\r\nAccept-Encoding: identity\r\nContent-Length: \0\r\n"
            f"Host: {parts.netloc}\r\nContent-Type: application/json\r\nUser-Agent: llmize\r\n"
            f"{auth}Connection: close\r\n\r\n"
        ).encode("latin-1").partition(b"\0")
        self._tls = None
        if parts.scheme == "https":
            import ssl

            self._tls = ssl.create_default_context()
            self._tls.set_alpn_protocols(["http/1.1"])

    def post(self, body: bytes) -> tuple[int, bytes]:
        """POST the JSON ``body`` on a new connection: the reply's status, and its
        body when the status is 200 (an error reply's body is never read). The
        endpoint's timeout bounds the whole attempt: the connect, a proxy tunnel,
        the TLS handshake, the send and each receive get only the time left.
        Raises OSError or ValueError when the request or its reply fails."""
        deadline = time.monotonic() + self._timeout
        request = b"%s%d%s%s" % (self._head, len(body), self._tail, body)
        with socket.create_connection(self._address, self._timeout) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tunnel:
                _arm(sock, deadline)
                sock.sendall(self._tunnel)
                with io.BufferedReader(_Receiver(sock, deadline)) as reply:
                    status = _read_head(reply)[0]
                if status != 200:
                    raise OSError(f"proxy tunnel refused: HTTP {status}")
            if self._tls is not None:
                _arm(sock, deadline)
                sock = self._tls.wrap_socket(sock, server_hostname=self._hostname)
            with sock, io.BufferedReader(_Receiver(sock, deadline)) as reply:
                _arm(sock, deadline)
                sock.sendall(request)
                status, reply_headers = _read_head(reply)
                return status, _read_body(reply, reply_headers) if status == 200 else b""


def _arm(sock: socket.socket, deadline: float) -> None:
    """Set ``sock``'s timeout to the time left before ``deadline``."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("timed out")
    sock.settimeout(left)


class _Receiver(io.RawIOBase):
    """The receiving side of a socket, each receive bounded by the time left
    before ``deadline``. A buffered ``readline`` or ``read`` may receive many
    times, so a timeout set once before it would bound each receive, not it."""

    def __init__(self, sock: socket.socket, deadline: float):
        self._sock = sock
        self._deadline = deadline

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        _arm(self._sock, self._deadline)
        return self._sock.recv_into(buffer)


def _port(parts: urllib.parse.SplitResult, message: str) -> int:
    """The port ``parts`` names, or its scheme's default; ``message`` is the
    ValueError for a port that is not a number from 0 to 65535."""
    try:
        port = parts.port
    except ValueError:
        raise ValueError(message) from None
    return (443 if parts.scheme == "https" else 80) if port is None else port


def _env_proxies() -> dict[str, str]:
    """The proxy URL of each scheme from the ``<scheme>_proxy`` variables,
    with urllib's rules: a name with a lower-case ``_proxy`` wins over any
    other spelling, and an empty one unsets its scheme; ``HTTP_PROXY`` is
    ignored when ``REQUEST_METHOD`` is set, as a CGI server sets it from a
    client's ``Proxy`` header."""
    proxies = {}
    for name, value in os.environ.items():
        if value and name.lower().endswith("_proxy"):
            proxies[name[:-6].lower()] = value
    if "REQUEST_METHOD" in os.environ:
        proxies.pop("http", None)
    for name, value in os.environ.items():
        if name.endswith("_proxy"):
            if value:
                proxies[name[:-6].lower()] = value
            else:
                proxies.pop(name[:-6].lower(), None)
    return proxies


def _bypasses_proxy(netloc: str, no_proxy: str) -> bool:
    """Whether ``no_proxy`` names the host of ``netloc``, with or without its
    port, or a domain the host is in; ``*`` names every host."""
    if no_proxy == "*":
        return True
    host_port = netloc.lower()
    host = re.sub(r":[0-9]*\Z", "", host_port)
    for name in no_proxy.split(","):
        name = name.strip().lstrip(".").lower()
        if name and any(h == name or h.endswith("." + name) for h in (host, host_port)):
            return True
    return False


def _read_line(reply) -> bytes:
    line = reply.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise ValueError(f"reply line longer than {_MAX_LINE} bytes")
    return line


def _read_head(reply) -> tuple[int, dict[str, str]]:
    """A reply's status and headers by lower-cased name (the first of a repeated
    one), past any interim ``100 Continue``. A line that opens with a space or a
    tab (an obs-fold) goes on with the field line before it, after one space. A
    status line not ``HTTP/1.x`` with 3 digits, a field line without a colon or
    with whitespace before it, a fold with no field line before it, or two
    different ``Content-Length`` values fail it (RFC 9112)."""
    while True:
        line = _read_line(reply)
        fields = line.split(None, 2)
        code = fields[1] if len(fields) > 1 else b""
        status = int(code) if len(code) == 3 and code.isdigit() else 0
        if not line.startswith(b"HTTP/1.") or status < 100:
            raise ValueError(f"bad status line {line[:80]!r}")
        pairs: list[tuple[str, str]] = []
        for _ in range(_MAX_HEAD_LINES):
            line = _read_line(reply)
            if line in (b"\r\n", b"\n", b""):
                break
            text = line.decode("latin-1").strip()
            if line[:1] in b" \t":
                if not pairs:
                    raise ValueError(f"folded header line with no field before it {line[:80]!r}")
                name, value = pairs[-1]
                pairs[-1] = name, f"{value} {text}".strip()
                continue
            name, colon, value = text.partition(":")
            if not colon:
                raise ValueError(f"header line without a colon {line[:80]!r}")
            if name != name.rstrip():
                raise ValueError(f"header line with whitespace before its colon {line[:80]!r}")
            pairs.append((name.lower(), value.strip()))
        else:
            raise ValueError(f"reply head longer than {_MAX_HEAD_LINES} lines")
        headers: dict[str, str] = {}
        for name, value in pairs:
            if headers.setdefault(name, value) != value and name == "content-length":
                raise ValueError("reply has two different Content-Length values")
        if status != 100:
            return status, headers


def _read_body(reply, headers: dict[str, str]) -> bytes:
    """A reply's body: chunked, of ``Content-Length`` bytes, or up to EOF
    (which a negative length reads to as well, as in http.client). A body
    longer than ``_MAX_BODY`` fails the reply: a stated length before any of
    the body is read, a chunked or EOF-ended body once it passes the cap."""
    chunks = []
    left = _MAX_BODY
    if headers.get("transfer-encoding", "").lower() == "chunked":
        while size := int(_read_line(reply).split(b";", 1)[0], 16):
            if size < 0:
                raise ValueError(f"negative chunk size {size}")
            left -= _capped(size, left)
            chunks.append(_read_exactly(reply, size))
            _read_exactly(reply, 2)  # the line end after each chunk
        while _read_line(reply) not in (b"\r\n", b"\n", b""):  # the trailer
            pass
        return b"".join(chunks)
    size = int(headers.get("content-length", -1))
    if size >= 0:
        return _read_exactly(reply, _capped(size, _MAX_BODY))
    while data := reply.read(_MAX_LINE):  # a read of the whole cap would allocate it
        left -= _capped(len(data), left)
        chunks.append(data)
    return b"".join(chunks)


def _capped(size: int, left: int) -> int:
    """``size``, unless it is more than the ``left`` bytes the body may still take."""
    if size > left:
        raise ValueError(f"reply body longer than the {_MAX_BODY}-byte cap")
    return size


def _read_exactly(reply, size: int) -> bytes:
    data = reply.read(size)
    if len(data) < size:
        raise ValueError(f"reply ended {size - len(data)} bytes short of its length")
    return data
